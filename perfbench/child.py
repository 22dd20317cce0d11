"""Child interpreter for the benchmark; it never checks results itself.

    python child.py lib [--trace]
        Reads one JSON operation per line on stdin, runs it through the
        ztetra library, and answers with one JSON line holding the wall
        time of the library call and its result as plain lists.  With
        --trace the layer wrappers are installed first, and the merged
        trace is written as a last line when stdin closes.

    python child.py cli TRACE_FILE ARG...
        Runs ``ztetra.cli.main(ARG...)`` with the layer wrappers
        installed and writes the trace to TRACE_FILE.  Stdout is left
        to the CLI, so it stays byte-identical to ``python -m ztetra``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import layers


def _points(shapes) -> list:
    return [[list(p) for p in shape] for shape in shapes]


def run_op(z, op: dict):
    """Run one operation; return (seconds, JSON-able result)."""
    fn, arg = op["fn"], op["arg"]
    if fn == "compare_t0":
        start = perf_counter()
        found = z.enumerate_t0(arg)
        brute = z.brute_t0(arg)
        report = z.compare(found, brute)
        wall = perf_counter() - start
        return wall, {"missing": len(report.missing), "extra": len(report.extra),
                      "shapes": _points(t.vertices for t in brute)}
    if fn in ("brute_tetrahedra_grid", "brute_triangles_grid"):
        start = perf_counter()
        found = getattr(z, fn)(arg, force=True)
        return perf_counter() - start, _points(found)
    start = perf_counter()
    result = getattr(z, fn)(arg)
    wall = perf_counter() - start
    if fn == "factorize":
        return wall, {"value": result.value, "factors": [list(f) for f in result.factors]}
    if fn == "solve_two_q":
        return wall, [[p.r, p.s, p.q] for p in result]
    if fn == "solve_three_d2":
        return wall, [[t.a, t.b, t.c, t.d] for t in result]
    if fn == "omega":
        return wall, sorted([list(p) for p in result])
    if fn == "primitive_triples":
        return wall, [[t.m, t.n, t.k] for t in result]
    return wall, result


def lib_main(trace: bool) -> int:
    import ztetra as z

    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.install()
    out = sys.stdout
    for line in sys.stdin:
        op = json.loads(line)
        try:
            wall, result = run_op(z, op)
            reply = {"wall_s": wall, "result": result}
        except Exception as exc:  # reported to the parent, which counts the failure
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps(reply, separators=(",", ":")) + "\n")
        out.flush()
    if tracer is not None:
        out.write(json.dumps({"trace": tracer.snapshot()}) + "\n")
        out.flush()
    return 0


def cli_main(trace_file: str, argv: list[str]) -> int:
    tracer = layers.Tracer()
    import ztetra.cli

    tracer.install()
    try:
        code = ztetra.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_file, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "lib":
        sys.exit(lib_main("--trace" in sys.argv[2:]))
    if mode == "cli":
        sys.exit(cli_main(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")
