"""Benchmark runner for ztetra: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is taken from
``src/``).  NAME is one of t0-enumerate, arith, oracle, verify, or
``all`` to run each in turn.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A full record of the run (environment, inputs, every operation, stdout
hashes) goes to ``.bench_out/``.  The exit code is 0 when every output
check passed, 1 when one failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

PYTHON = sys.executable
# Set-up probes: a few before the first pass, then one at each of this
# many even intervals of the run, so a slow spell of the machine at the
# start does not set the median.
SETUP_PROBES_FIRST = 3
SETUP_PROBES_SPREAD = 12
OP_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class StartError(Exception):
    """The program could not be started or warmed up."""


def child_env() -> dict[str, str]:
    """The same environment for every child: the checkout's package on
    the path and the default thread count a user gets."""
    env = dict(os.environ)
    env.pop("ZTETRA_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def reap(proc: subprocess.Popen) -> int:
    """Wait for proc; return its own peak RSS in KiB (ru_maxrss of this
    child alone, unlike RUSAGE_CHILDREN, which keeps a running maximum)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def start_child(argv: list[str], **kwargs) -> tuple[subprocess.Popen, threading.Timer]:
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, **kwargs)
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    return proc, watchdog


def setup_probe(cli: bool) -> float:
    """Seconds from spawning an interpreter until ``import ztetra`` (and,
    for the CLI, ``build_parser()``) has returned."""
    code = "import time, ztetra"
    if cli:
        code += "; from ztetra.cli import build_parser; build_parser()"
    code += "; print(repr(time.monotonic()))"
    start = time.monotonic()
    proc = subprocess.run([PYTHON, "-c", code], env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise StartError(f"cannot import ztetra from {SRC}: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout) - start


def warm_up() -> None:
    """One untimed CLI call, so bytecode compilation is not charged to a run."""
    proc = subprocess.run([PYTHON, "-m", "ztetra", "enumerate-t0", "--ell", "3", "--count-only"],
                          env=child_env(), cwd=ROOT, capture_output=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise StartError(f"warm-up failed: {proc.stderr.decode(errors='replace').strip()[-400:]}")


# --- operation runners --------------------------------------------------------

def run_cli_op(wl: Workload, op: Op, trace_file: Path | None) -> dict:
    """One CLI invocation: its wall time from spawn to exit, peak RSS and checked output."""
    out_path = WORK / f"{wl.name}.stdout"
    err_path = WORK / f"{wl.name}.stderr"
    if trace_file is None:
        argv = [PYTHON, "-m", "ztetra", *op.argv]
    else:
        argv = [PYTHON, str(HERE / "child.py"), "cli", str(trace_file), *op.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc, watchdog = start_child(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        rss_kib = reap(proc)
        wall = perf_counter() - start
        watchdog.cancel()
    data = out_path.read_bytes()
    rec = {"op": op.describe(), "wall_s": wall, "rss_kib": rss_kib, "exit": proc.returncode,
           "stdout_sha256": hashlib.sha256(data).hexdigest(), "stdout_bytes": len(data), "items": 0}
    if proc.returncode != 0:
        rec["error"] = f"exit {proc.returncode}: {err_path.read_text(errors='replace').strip()[-400:]}"
        return rec
    try:
        rec["items"] = wl.check(op, data.decode())
    except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
        rec["error"] = f"check failed: {exc}"
    return rec


class LibChild:
    """One interpreter running child.py; operations go one at a time over a pipe."""

    def __init__(self, trace: bool) -> None:
        argv = [PYTHON, str(HERE / "child.py"), "lib"] + (["--trace"] if trace else [])
        self.err_path = WORK / "lib.stderr"
        self._err = open(self.err_path, "wb")
        self.proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._err, text=True)
        self.trace = None

    def call(self, wl: Workload, op: Op) -> dict:
        rec = {"op": op.describe(), "items": 0}
        watchdog = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            self.proc.stdin.write(json.dumps({"fn": op.fn, "arg": op.arg}) + "\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        finally:
            watchdog.cancel()
        if not line:
            rec["error"] = "child died: " + self.err_path.read_text(errors="replace").strip()[-400:]
            rec["wall_s"] = 0.0
            return rec
        reply = json.loads(line)
        if "error" in reply:
            rec["error"] = reply["error"]
            rec["wall_s"] = 0.0
            return rec
        rec["wall_s"] = reply["wall_s"]
        try:
            rec["items"] = wl.check(op, reply["result"])
        except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
            rec["error"] = f"check failed: {exc}"
        return rec

    def close(self) -> int:
        """End the child; return its peak RSS in KiB."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        tail = self.proc.stdout.read()
        self.proc.stdout.close()
        rss_kib = reap(self.proc)
        self._err.close()
        for line in tail.splitlines():
            msg = json.loads(line)
            if "trace" in msg:
                self.trace = msg["trace"]
        return rss_kib


def run_pass(wl: Workload, ops: list[Op], trace: bool, child: LibChild | None = None,
             between=None) -> dict:
    """Run every op of a pass in order, calling between() after each; a
    traced pass also returns the merged trace."""
    records: list[dict] = []
    traces: list[dict] = []
    own_child = not wl.cli and child is None
    if own_child:
        child = LibChild(trace)
    for i, op in enumerate(ops):
        if wl.cli:
            trace_file = WORK / f"{wl.name}.trace.{i}.json" if trace else None
            rec = run_cli_op(wl, op, trace_file)
            if trace_file is not None and trace_file.exists():
                traces.append(json.loads(trace_file.read_text()))
                trace_file.unlink()
        else:
            rec = child.call(wl, op)
        records.append(rec)
        if between is not None:
            between()
        if rec.get("error", "").startswith("child died"):
            break
    rss = [r["rss_kib"] for r in records if "rss_kib" in r]
    if own_child:
        rss.append(child.close())
        if child.trace is not None:
            traces.append(child.trace)
    return {"records": records, "rss_kib": max(rss, default=0), "trace": merge_traces(traces)}


def merge_traces(traces: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    counters: dict[str, int] = {}
    missing: set[str] = set()
    threads: list[dict] = []
    for process, tr in enumerate(traces):
        threads += [{"process": process, **row} for row in tr["threads"]]
        for label, agg in tr["spans"].items():
            row = spans.setdefault(label, {"calls": 0, "self_s": 0.0})
            row["calls"] += agg["calls"]
            row["self_s"] += agg["self_s"]
        for name, value in tr["counters"].items():
            if name in layers.MAX_COUNTERS:
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        missing.update(tr["missing"])
    return {"spans": spans, "counters": counters, "missing": sorted(missing), "threads": threads}


def cleanup(ops: list[Op]) -> None:
    for op in ops:
        path = op.expect.get("path")
        if path is not None:
            path.unlink(missing_ok=True)


# --- metrics ------------------------------------------------------------------

def throughput(records: list[dict]) -> float:
    """Items per second of summed operation wall time."""
    busy = sum(r["wall_s"] for r in records)
    return sum(r["items"] for r in records) / busy if busy > 0 else 0.0


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(values)
    for name, q in (("p99", 0.99), ("p90", 0.90), ("p75", 0.75)):
        if len(ordered) * (1 - q) >= 10:
            return name, ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return None


def per_layer_metrics(passes: list[dict], pairs: list[tuple[float, float]], stdout_bytes: int) -> dict:
    """Counts of one traced pass (they repeat exactly across passes),
    median self times, derived ratios and the tracing overhead."""
    first = passes[0]
    spans, counters = first["spans"], first["counters"]
    out: dict[str, tuple[float, str]] = {}
    for label in layers.labels():
        out[f"{label}.calls"] = (spans.get(label, {}).get("calls", 0), "count")
        selfs = [p["spans"].get(label, {}).get("self_s", 0.0) for p in passes]
        out[f"{label}.self_s"] = (statistics.median(selfs), "s")

    def calls(label: str) -> int:
        return spans.get(label, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in ("numtheory.solve_two_q.pairs", "numtheory.solve_three_d2.quads",
                 "eisenstein.omega.pairs", "parallel.workers", "oracle.shapes"):
        out[name] = (counters.get(name, 0), "count")
    out["cli.emit.bytes"] = (stdout_bytes, "bytes")
    out["triangle.rs_used_ratio"] = (
        ratio(calls("triangle.coeff_matrix"), counters.get("numtheory.solve_two_q.pairs", 0)), "ratio")
    out["tetra.triangles_per_completion"] = (
        ratio(calls("triangle.triangle_points"), calls("tetra.complete_tetrahedron")), "ratio")
    out["tetra.unique_ratio"] = (
        ratio(counters.get("tetra.distinct", 0), counters.get("tetra.generated", 0)), "ratio")
    out["trace.items_per_s"] = (statistics.median(t for _, t in pairs), "1/s")
    out["trace.slowdown"] = (statistics.median([u / t for u, t in pairs if t > 0] or [0.0]), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


# --- runs ---------------------------------------------------------------------

def another_pass(start: float, passes: int, seconds: float) -> bool:
    """Whether the next pass is expected to end within half a pass of
    the deadline, so runs last about `seconds` and hold whole passes."""
    elapsed = perf_counter() - start
    return elapsed + 0.5 * elapsed / passes < seconds

def measure(wl: Workload, seed: int, seconds: float) -> dict:
    """Untraced run: whole passes for about `seconds`, with set-up
    probes spread over the run."""
    setups = [setup_probe(wl.cli) for _ in range(SETUP_PROBES_FIRST)]
    records: list[dict] = []
    inputs: list[list[dict]] = []
    rss_kib: list[int] = []
    child = None if wl.cli else LibChild(trace=False)
    start = perf_counter()
    probe_times = [start + seconds * (i + 1) / (SETUP_PROBES_SPREAD + 1) for i in range(SETUP_PROBES_SPREAD)]

    def probe_when_due() -> None:
        if probe_times and perf_counter() >= probe_times[0]:
            probe_times.pop(0)
            setups.append(setup_probe(wl.cli))

    index = 0
    while True:
        ops = wl.make_pass(seed, index, WORK)
        inputs.append([op.describe() for op in ops])
        result = run_pass(wl, ops, trace=False, child=child, between=probe_when_due)
        cleanup(ops)
        records += result["records"]
        rss_kib.append(result["rss_kib"])
        index += 1
        if not another_pass(start, index, seconds) or any(
                r.get("error", "").startswith("child died") for r in records):
            break
    if child is not None:
        rss_kib.append(child.close())
    walls = [r["wall_s"] for r in records]
    failed = sum(1 for r in records if "error" in r)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": throughput(records),
        "op_p50_s": statistics.median(walls),
        "peak_rss_mb": max(rss_kib) / 1024,
    }
    samples = {"setup_s": len(setups), "items_per_s": len(records), "op_p50_s": len(walls),
               "peak_rss_mb": len(records) if wl.cli else 1}
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "samples": samples,
        "error_rate": failed / len(records),
        "tail": tail_percentile(walls),
        "attempted": len(records),
        "failed": failed,
        "passes": index,
        "setup_samples": setups,
        "inputs": inputs,
        "records": records,
    }


def measure_traced(wl: Workload, seed: int, seconds: float) -> dict:
    """Traced run: pass 0 untraced, then the same pass traced, repeated
    for about `seconds`.  Per-layer numbers come from the traced passes."""
    ops = wl.make_pass(seed, 0, WORK)
    records: list[dict] = []
    traces: list[dict] = []
    pairs: list[tuple[float, float]] = []
    start = perf_counter()
    try:
        while True:
            plain = run_pass(wl, ops, trace=False)
            traced = run_pass(wl, ops, trace=True)
            records += plain["records"] + traced["records"]
            traces.append(traced["trace"])
            pairs.append((throughput(plain["records"]), throughput(traced["records"])))
            if not another_pass(start, len(pairs), seconds) or any("error" in r for r in records):
                break
    finally:
        cleanup(ops)
    stdout_bytes = sum(r.get("stdout_bytes", 0) for r in traced["records"])
    failed = sum(1 for r in records if "error" in r)
    counts_repeat = all(
        {k: v["calls"] for k, v in t["spans"].items()} == {k: v["calls"] for k, v in traces[0]["spans"].items()}
        and t["counters"] == traces[0]["counters"] for t in traces)
    return {
        "metrics": per_layer_metrics(traces, pairs, stdout_bytes),
        "attempted": len(records),
        "failed": failed,
        "passes": len(pairs),
        "counts_repeat": counts_repeat,
        "missing_targets": traces[0]["missing"],
        "inputs": [[op.describe() for op in ops]],
        "records": records,
        "traces": traces,
    }


def environment(seed: int, seconds: float, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ztetra_threads_env": os.environ.get("ZTETRA_THREADS"),
    }


def summary(name: str, res: dict, trace: bool) -> list[str]:
    wl = WORKLOADS[name]
    lines = [f"{name}: {res['attempted']} operations in {res['passes']} passes, {res['failed']} failed "
             f"(item: {wl.item})"]
    if trace:
        lines.append(f"  counts repeat across traced passes: {res['counts_repeat']}; "
                     f"tracing slowdown {res['metrics']['trace.slowdown']['value']:.3f}x")
        if res["missing_targets"]:
            lines.append(f"  not found in ztetra: {', '.join(res['missing_targets'])}")
        return lines
    for key, metric in res["metrics"].items():
        lines.append(f"  {key:<12} {metric['value']:>14.6g} {metric['unit']:<4} ({res['samples'][key]} samples)")
    lines.append(f"  {'error_rate':<12} {res['error_rate']:>14.6g} {'':<4} ({res['failed']}/{res['attempted']})")
    if res["tail"] is not None:
        lines.append(f"  op_{res['tail'][0]}_s   {res['tail'][1]:>14.6g} s")
    bad = [r for r in res["records"] if "error" in r]
    for rec in bad[:5]:
        lines.append(f"  FAILED {rec['op']}: {rec['error']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    if not (SRC / "ztetra" / "__init__.py").is_file():
        print(f"no ztetra package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        warm_up()
        results = {}
        for name in names:
            wl = WORKLOADS[name]
            run = measure_traced if trace else measure
            res = run(wl, args.seed, args.seconds)
            res["environment"] = environment(args.seed, args.seconds, trace)
            res["workload"] = {"name": name, "item": wl.item}
            out = WORK / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(res, indent=1, default=str))
            results[name] = res
            print("\n".join(summary(name, res, trace)), flush=True)
    except StartError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
