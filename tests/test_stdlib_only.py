"""ztetra imports nothing outside the standard library, its CLI
imports only the public names of the package, and no grid scan, and its
referees import no coefficient machinery."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ztetra


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(ztetra.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_cli_imports_no_private_name():
    # A private import would let the CLI run a second path beside the library's.
    path = Path(ztetra.__file__).parent / "cli.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "ztetra"):
            private = [alias.name for alias in node.names if alias.name.startswith("_")]
            assert not private, (node.module, private)


def test_cli_imports_no_grid_scan():
    # The grid scans referee grid_counts; the CLI counts with grid_counts alone.
    path = Path(ztetra.__file__).parent / "cli.py"
    scans = {"brute_tetrahedra_grid", "brute_triangles_grid"}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not scans & {alias.name for alias in node.names}, ast.unparse(node)


def test_oracle_imports_no_coefficient_machinery():
    # The referees rebuild every shape from raw distances, so they import only checks and geometry.
    allowed = {"check_range", "LatticeTetrahedron", "verify_regular", "ORIGIN", "Point", "dist_sq", "sub",
               "verify_equilateral", "ZtetraError", "RangeError", "DomainError", "VerificationError",
               "ConstructionError", "UsageError"}
    path = Path(ztetra.__file__).parent / "oracle.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "ztetra"):
            assert {alias.name for alias in node.names} <= allowed, ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "ztetra" for alias in node.names), ast.unparse(node)


def test_import_loads_no_dataclasses():
    # The records are named tuples; dataclasses would only add import time.
    probe = "import sys, ztetra, ztetra.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(ztetra.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True).stdout
    assert out == "False\n"
