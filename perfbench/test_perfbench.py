"""Tests of the benchmark's own generators, checkers and tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def sphere(r2: int) -> list[tuple[int, int, int]]:
    b = int(r2 ** 0.5) + 1
    return [(x, y, z) for x in range(-b, b + 1) for y in range(-b, b + 1) for z in range(-b, b + 1)
            if x * x + y * y + z * z == r2]


def t0_text(ell: int) -> str:
    """enumerate-t0 output built by brute force over the sphere of radius^2 2*ell^2."""
    side = 2 * ell * ell
    pts = sphere(side)
    tets = sorted(
        tuple(sorted([(0, 0, 0), a, b, c])) for a, b, c in combinations(pts, 3)
        if checks.dist2(a, b) == checks.dist2(a, c) == checks.dist2(b, c) == side)
    lines = [json.dumps({"ell": ell, "kind": "tetrahedron", "provenance": {"ell": ell}, "side_sq": side,
                         "vertices": [list(v) for v in t]}, sort_keys=True) for t in tets]
    lines.append(json.dumps({"ell": ell, "kind": "count", "value": len(tets), "what": "tetrahedra_t0"}))
    return "\n".join(lines) + "\n"


def mutations(value, path=()):
    """Every copy of a JSON value with one integer field or coordinate increased by 1."""
    if type(value) is int:
        yield path, value + 1
    elif isinstance(value, list):
        for i, item in enumerate(value):
            for sub, new in mutations(item, path + (i,)):
                yield sub, new
    elif isinstance(value, dict):
        for key, item in value.items():
            if key not in ("kind", "provenance"):
                for sub, new in mutations(item, path + (key,)):
                    yield sub, new


def mutated(value, path, new):
    out = copy.deepcopy(value)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return out


# --- generators ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["t0-enumerate", "arith", "oracle"])
def test_passes_depend_only_on_seed_and_index(name, tmp_path):
    make = workloads.WORKLOADS[name].make_pass
    first = [op.describe() for op in make(7, 1, tmp_path)]
    assert first == [op.describe() for op in make(7, 1, tmp_path)]
    assert first != [op.describe() for op in make(8, 1, tmp_path)]


def test_oracle_repeats_its_inputs_and_others_do_not(tmp_path):
    oracle = workloads.WORKLOADS["oracle"].make_pass
    assert [o.describe() for o in oracle(3, 0, tmp_path)] == [o.describe() for o in oracle(3, 5, tmp_path)]
    arith = workloads.WORKLOADS["arith"].make_pass
    assert [o.describe() for o in arith(3, 0, tmp_path)] != [o.describe() for o in arith(3, 1, tmp_path)]


def test_t0_classes_are_odd_rich_composites_in_range():
    for cls in workloads.T0_CLASSES:
        for ell in cls:
            odd = ell
            while odd % 2 == 0:
                odd //= 2
            assert 150 <= ell <= 700
            assert sum(1 for d in range(1, odd + 1, 2) if odd % d == 0) >= 8


def test_arith_inputs_have_their_stated_factorizations(tmp_path):
    for seed in range(3):
        for op in workloads.arith_pass(seed, 0, tmp_path):
            if op.fn in ("factorize", "count_representations", "is_loeschian"):
                assert 10**11 <= op.arg <= 10**12
                assert all(checks.is_prime(p) for p in op.expect["factors"])
                product = 1
                for p, e in op.expect["factors"].items():
                    product *= p ** e
                assert product == op.arg
            elif op.fn == "solve_two_q":
                assert 10**9 <= op.arg <= 10**10
                half = 1
                for p, e in op.expect["half_factors"].items():
                    assert checks.is_prime(p)
                    half *= p ** e
                assert 2 * half == op.arg
            elif op.fn == "solve_three_d2":
                assert 801 <= op.arg <= 2001 and op.arg % 2 == 1
            elif op.fn == "omega":
                assert 10**5 <= op.arg <= 10**6


def test_miller_rabin_matches_trial_division():
    for n in range(-3, 5000):
        assert checks.is_prime(n) == (n > 1 and all(n % p for p in range(2, int(n ** 0.5) + 1)))


def test_zeta_reps_matches_brute_force():
    for n in range(1, 300):
        brute = sum(1 for m in range(-40, 41) for k in range(-40, 41) if checks.zeta(m, k) == n)
        assert checks.zeta_reps(checks.small_factors(n)) == brute


# --- verify file ----------------------------------------------------------------

def test_verify_generator_records_pass_the_checker(tmp_path):
    path = tmp_path / "v.jsonl"
    count = workloads.write_verify_file(random.Random(5), path, 50)
    lines = path.read_text().splitlines()
    assert count == len(lines) == 50 * 9
    kinds = set()
    for line in lines:
        rec = json.loads(line)
        checks.check_record(rec)
        kinds.add(rec["kind"])
    assert kinds == {"tetrahedron", "triangle", "normal-set", "quadruple", "pair", "triple"}


def test_verify_records_reject_every_single_mutation():
    for rec in workloads.verify_group(random.Random(11)) + workloads.verify_group(random.Random(12)):
        for path, new in mutations(rec):
            with pytest.raises(CheckError):
                checks.check_record(mutated(rec, path, new))


def test_verify_records_reject_floats_and_booleans():
    tet = workloads.verify_group(random.Random(2))[0]
    with pytest.raises(CheckError):
        checks.check_record(mutated(tet, ("side_sq",), float(tet["side_sq"])))
    pair = {"kind": "pair", "m": 1, "n": 0, "k": True}
    with pytest.raises(CheckError):
        checks.check_record(pair)


def test_verify_output_check():
    assert checks.check_verify_output('{"kind":"count","value":9,"what":"verified_records"}\n', 9) == 9
    with pytest.raises(CheckError):
        checks.check_verify_output('{"kind":"count","value":8,"what":"verified_records"}\n', 9)


# --- t0 -------------------------------------------------------------------------

def test_t0_check_accepts_brute_force_output_and_rejects_each_mutation():
    text = t0_text(3)
    assert checks.check_t0_output(text, 3, 40) == 40
    lines = text.splitlines()
    for lineno in (0, 17, len(lines) - 2):
        rec = json.loads(lines[lineno])
        for path, new in mutations(rec):
            bad = lines.copy()
            bad[lineno] = json.dumps(mutated(rec, path, new))
            with pytest.raises(CheckError):
                checks.check_t0_output("\n".join(bad), 3, 40)
    count = json.loads(lines[-1])
    for path, new in mutations(count):
        with pytest.raises(CheckError):
            checks.check_t0_output("\n".join(lines[:-1] + [json.dumps(mutated(count, path, new))]), 3, 40)


def test_t0_check_rejects_duplicates_and_wrong_totals():
    lines = t0_text(1).splitlines()
    dup = lines[:-1] + [lines[0], lines[-1].replace('"value": 8', '"value": 9')]
    with pytest.raises(CheckError):
        checks.check_t0_output("\n".join(dup), 1, 9)
    with pytest.raises(CheckError):
        checks.check_t0_output("\n".join(lines), 1, 9)


# --- arith ----------------------------------------------------------------------

def test_factorize_check():
    good = {"value": 2 * 3 * 3 * 101, "factors": [[2, 1], [3, 2], [101, 1]]}
    want = {2: 1, 3: 2, 101: 1}
    assert checks.check_factorize(1818, good, want) == 1
    for path, new in mutations(good):
        with pytest.raises(CheckError):
            checks.check_factorize(1818, mutated(good, path, new), want)
    with pytest.raises(CheckError):  # multiplies back, but 6 is not prime
        checks.check_factorize(1818, {"value": 1818, "factors": [[3, 1], [6, 1], [101, 1]]}, want)


def test_representation_checks():
    assert checks.check_count_representations(49, 18, {7: 2}) == 1
    assert checks.check_is_loeschian(10, False, {2: 1, 5: 1}) == 1
    with pytest.raises(CheckError):
        checks.check_count_representations(49, 19, {7: 2})
    with pytest.raises(CheckError):
        checks.check_is_loeschian(7, 1, {7: 1})


def test_solve_two_q_check():
    q = 2 * 7 * 13
    result = [[r, s, q] for r in range(-20, 21) for s in range(-30, 31) if s * s + 3 * r * r == 2 * q]
    assert result
    assert checks.check_solve_two_q(q, result, {7: 1, 13: 1}) == 1
    for path, new in mutations(result):
        with pytest.raises(CheckError):
            checks.check_solve_two_q(q, mutated(result, path, new), {7: 1, 13: 1})
    with pytest.raises(CheckError):
        checks.check_solve_two_q(q, result[:-1], {7: 1, 13: 1})


def test_solve_three_d2_and_omega_and_triples_checks():
    quads = [[a, b, c, 3] for a in range(1, 6) for b in range(-5, 6) for c in range(-5, 6)
             if a * a + b * b + c * c == 27 and gcd(gcd(a, b), c) == 1]
    assert checks.check_solve_three_d2(3, quads) == 1
    pairs = sorted([m, n] for m in range(-9, 10) for n in range(-9, 10) if checks.zeta(m, n) == 49)
    assert checks.check_omega(7, pairs) == 1
    with pytest.raises(CheckError):
        checks.check_omega(7, pairs[:-1])
    triples = sorted(([m, n, k] for m in range(1, 60) for n in range(1, 60) for k in range(1, 31)
                      if gcd(m, n) == 1 and checks.zeta(m, n) == k * k), key=lambda t: (t[2], t[0], t[1]))
    assert checks.check_primitive_triples(30, triples) == 1
    for value, check, arg in ((quads, checks.check_solve_three_d2, 3), (pairs, checks.check_omega, 7),
                              (triples, checks.check_primitive_triples, 30)):
        for path, new in mutations(value):
            with pytest.raises(CheckError):
                check(arg, mutated(value, path, new))


# --- oracle ---------------------------------------------------------------------

def test_oracle_checks():
    shapes = [json.loads(line)["vertices"] for line in t0_text(2).splitlines()[:-1]]
    result = {"missing": 0, "extra": 0, "shapes": shapes}
    assert checks.check_compare_t0(2, result) == len(shapes)
    for path, new in mutations(result):
        with pytest.raises(CheckError):
            checks.check_compare_t0(2, mutated(result, path, new))
    cube = [[[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]]
    assert checks.check_shapes(cube, 2, corners=4, n=1) == 2
    for path, new in mutations(cube):
        with pytest.raises(CheckError):
            checks.check_shapes(mutated(cube, path, new), 2, corners=4, n=1)
    with pytest.raises(CheckError):
        checks.check_shapes(cube[:1], 2, corners=4, n=1)


# --- tracer ---------------------------------------------------------------------

def traced_cli(tmp_path: Path, threads: str, *args: str) -> tuple[str, dict]:
    trace = tmp_path / f"trace-{threads}.json"
    env = dict(os.environ, ZTETRA_THREADS=threads, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "cli", str(trace), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(trace.read_text())


def test_tracer_sees_calls_through_every_namespace(tmp_path):
    out, trace = traced_cli(tmp_path, "1", "enumerate-t0", "--ell", "5")
    plain = subprocess.run([sys.executable, "-m", "ztetra", "enumerate-t0", "--ell", "5"],
                           env=dict(os.environ, ZTETRA_THREADS="1", PYTHONPATH=str(HERE.parent / "src")),
                           capture_output=True, text=True, timeout=120)
    assert out == plain.stdout
    spans, counters = trace["spans"], trace["counters"]
    assert trace["missing"] == []
    # tetra binds triangle_points by name; those calls must be traced too.
    assert spans["triangle.triangle_points"]["calls"] == 3 * spans["tetra.complete_tetrahedron"]["calls"]
    assert counters["tetra.generated"] == 3 * counters["tetra.distinct"] == 3 * 56
    assert spans["cli.Emitter.emit"]["calls"] == 57
    assert spans["cli.main"]["calls"] == 1
    for row in spans.values():
        assert row["self_s"] >= 0


def test_tracer_counts_do_not_depend_on_threads(tmp_path):
    _, one = traced_cli(tmp_path, "1", "enumerate-t0", "--ell", "15", "--count-only")
    _, four = traced_cli(tmp_path, "4", "enumerate-t0", "--ell", "15", "--count-only")
    calls = {label: row["calls"] for label, row in one["spans"].items()}
    assert calls == {label: row["calls"] for label, row in four["spans"].items()}
    assert one["counters"].pop("parallel.workers") == 1
    assert four["counters"].pop("parallel.workers") == 4
    assert one["counters"] == four["counters"]
    assert len({row["thread"] for row in four["threads"]}) > 1
