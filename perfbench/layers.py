"""Benchmark-owned per-layer tracing of the ztetra public functions.

Tracer.install wraps each target function and rebinds the wrapper in
every ``ztetra`` module namespace that holds the original, because the
package binds functions by ``from .x import f`` (tetra calls its own
``triangle_points`` name, not ``ztetra.triangle.triangle_points``).

Each thread keeps its own span stack and aggregates, so the wrappers
need no lock on the hot path and work under the ``map_chunks`` thread
pool.  A span's self time is its wall time minus the wall time of the
child spans in the same thread; a span whose children run on pool
threads therefore counts the wait for them as self time.  Hot helpers
(``dist_sq``, ``zeta``, ``dot``) are deliberately not wrapped: they run
hundreds of thousands of times per enumeration and would dominate the
tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter

TARGETS: dict[str, tuple[str, ...]] = {
    "numtheory": ("factorize", "count_representations", "is_loeschian", "solve_two_q", "solve_three_d2"),
    "eisenstein": ("omega", "primitive_triples"),
    "triangle": ("coeff_matrix", "triangle_points", "verify_equilateral"),
    "tetra": ("enumerate_t0", "complete_tetrahedron", "fourth_vertex", "verify_regular",
              "face_normals", "verify_orthogonality"),
    "parallel": ("map_chunks",),
    "oracle": ("brute_t0", "brute_tetrahedra_grid", "brute_triangles_grid", "scan_tetrahedra",
               "scan_triangles", "compare"),
    "cli": ("main", "Emitter.emit"),
}

# Counters fed from a wrapped function's arguments or result:
# label -> (counter name, how to read the count).  "max" counters keep
# the largest value seen instead of the sum.
_RESULT_LEN = "len"
_WORKERS_ARG = "workers"
COUNTERS: dict[str, tuple[str, str]] = {
    "numtheory.solve_two_q": ("numtheory.solve_two_q.pairs", _RESULT_LEN),
    "numtheory.solve_three_d2": ("numtheory.solve_three_d2.quads", _RESULT_LEN),
    "eisenstein.omega": ("eisenstein.omega.pairs", _RESULT_LEN),
    "tetra.complete_tetrahedron": ("tetra.generated", _RESULT_LEN),
    "tetra.enumerate_t0": ("tetra.distinct", _RESULT_LEN),
    "oracle.brute_t0": ("oracle.shapes", _RESULT_LEN),
    "oracle.brute_tetrahedra_grid": ("oracle.shapes", _RESULT_LEN),
    "oracle.brute_triangles_grid": ("oracle.shapes", _RESULT_LEN),
    "parallel.map_chunks": ("parallel.workers", _WORKERS_ARG),
}
MAX_COUNTERS = frozenset({"parallel.workers"})


def labels() -> list[str]:
    """Every traced function as '<module>.<function>'."""
    return [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


class _ThreadState:
    __slots__ = ("stack", "spans", "counters")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.spans: dict[str, list] = {}
        self.counters: dict[str, int] = {}


class Tracer:
    """Span aggregates per thread, merged on demand."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: dict[int, _ThreadState] = {}
        self.missing: list[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                # Pool threads are short-lived and their idents get reused,
                # so key on a fresh counter, not on the ident alone.
                self._threads[len(self._threads)] = state
            return state

    def wrap(self, label: str, fn):
        counter = COUNTERS.get(label)
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                agg = state.spans.get(label)
                if agg is None:
                    agg = state.spans[label] = [0, 0.0, threading.get_ident()]
                agg[0] += 1
                agg[1] += wall - frame[0]
            if counter is not None:
                _count(state.counters, counter, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for mod_name, names in TARGETS.items():
            try:
                module = importlib.import_module(f"ztetra.{mod_name}")
            except ImportError:
                self.missing.extend(f"{mod_name}.{name}" for name in names)
                continue
            for name in names:
                label = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        self.missing.append(label)
                        continue
                    setattr(cls, meth, self.wrap(label, vars(cls)[meth]))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(label)
                    continue
                wrapped = self.wrap(label, original)
                for mod in list(sys.modules.values()):
                    mod_id = getattr(mod, "__name__", "")
                    if mod_id != "ztetra" and not mod_id.startswith("ztetra."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def snapshot(self) -> dict:
        """Merged aggregates: per label calls and self seconds, per-thread
        rows, and the counters."""
        with self._lock:
            states = list(self._threads.items())
        spans: dict[str, dict] = {}
        threads = []
        counters: dict[str, int] = {}
        for key, state in states:
            for label, (calls, self_s, ident) in state.spans.items():
                agg = spans.setdefault(label, {"calls": 0, "self_s": 0.0})
                agg["calls"] += calls
                agg["self_s"] += self_s
                threads.append({"thread": key, "ident": ident, "label": label,
                                "calls": calls, "self_s": self_s})
            for name, value in state.counters.items():
                if name in MAX_COUNTERS:
                    counters[name] = max(counters.get(name, 0), value)
                else:
                    counters[name] = counters.get(name, 0) + value
        return {"spans": spans, "counters": counters, "threads": threads, "missing": self.missing}


def _count(counters: dict[str, int], counter: tuple[str, str], args, kwargs, result) -> None:
    name, how = counter
    if how == _RESULT_LEN:
        try:
            value = len(result)
        except TypeError:
            return
        counters[name] = counters.get(name, 0) + value
        return
    workers = kwargs.get("workers", args[2] if len(args) > 2 else None)
    if isinstance(workers, int):
        counters[name] = max(counters.get(name, 0), workers)
