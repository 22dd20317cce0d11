"""The usage examples in the package docstrings run and hold."""

import doctest
import importlib
import pkgutil

import ztetra


def test_module_doctests():
    attempted = 0
    for info in pkgutil.iter_modules(ztetra.__path__):
        if info.name == "__main__":  # the entry point runs the CLI on import
            continue
        module = importlib.import_module(f"ztetra.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 5
