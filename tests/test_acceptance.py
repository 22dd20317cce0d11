"""Acceptance gate: one check per criterion, one PASS/FAIL line each.

Every check prints its verdict before asserting, so a red criterion
still leaves a readable line in the log.  All arithmetic is exact; the
only tolerances are the stated runtime budgets.
"""

import time
from math import gcd, isqrt
from pathlib import Path

from ztetra import (
    LatticeTetrahedron,
    brute_t0,
    brute_tetrahedra_grid,
    brute_triangles_grid,
    coeff_matrix,
    compare,
    compare_with_bfile,
    count_representations,
    enumerate_t0,
    face_normals,
    is_loeschian,
    omega,
    primitive_triples,
    read_bfile,
    signed_completions,
    solve_three_d2,
    verify_orthogonality,
    verify_regular,
    zeta,
)
from ztetra.triangle import cross, dot

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def test_c1_unit_side_count():
    start = time.perf_counter()
    constructed = len(enumerate_t0(1))
    scanned = len(brute_t0(1))
    elapsed = time.perf_counter() - start
    ok = constructed == 8 and scanned == 8 and elapsed < 1.0
    report("C1", ok,
           f"TO(1) = {constructed} constructed, {scanned} brute (want 8) in {elapsed:.3f}s (< 1s)")


def test_c2_side_three_count():
    start = time.perf_counter()
    constructed = len(enumerate_t0(3))
    scanned = len(brute_t0(3))
    elapsed = time.perf_counter() - start
    ok = constructed == 40 and scanned == 40 and elapsed < 10.0
    report("C2", ok,
           f"TO(3) = {constructed} constructed, {scanned} brute (want 40) in {elapsed:.3f}s (< 10s)")


def test_c3_large_tetrahedron_face_normals():
    vertices = ((0, 0, 0), (376, -841, 2265), (-1005, -2116, 701), (1411, -1965, 356))
    side_sq = verify_regular(*vertices)
    tet = LatticeTetrahedron.from_vertices(vertices)
    fns = face_normals(tet)
    directions = {
        133: (-187, 113, 73),
        247: (-343, -253, -37),
        91: (19, 41, 151),
        1729: (391, -2461, 1661),
    }
    scales = sorted(f.d for f in fns.faces)
    parallel = all(cross(f.normal, directions[f.d]) == (0, 0, 0) for f in fns.faces)
    primitive = all(f.is_primitive() for f in fns.faces)
    orthogonal = verify_orthogonality(fns)
    ok = (side_sq == 5978882 and scales == [91, 133, 247, 1729]
          and parallel and primitive and orthogonal)
    report("C3", ok,
           f"side^2 = {side_sq}, face scales {scales}, parallel to expected normals: "
           f"{parallel}, primitive: {primitive}, orthogonality: {orthogonal}")


def test_c4_representation_counts():
    start = time.perf_counter()
    limit = 2000
    bound = isqrt(2 * limit) + 1
    counts = [0] * (limit + 1)
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            v = m * m - m * n + n * n
            if 1 <= v <= limit:
                counts[v] += 1
    bad = [k for k in range(1, limit + 1) if count_representations(k) != counts[k]]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    report("C4", ok,
           f"count_representations vs brute force for k <= {limit}: "
           f"{len(bad)} mismatches in {elapsed:.3f}s (< 30s)")


def test_c5_loeschian_classification():
    limit = 5000
    bound = isqrt(2 * limit) + 1
    reachable = set()
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            v = m * m - m * n + n * n
            if v <= limit:
                reachable.add(v)
    bad = [t for t in range(limit + 1) if is_loeschian(t) != (t in reachable)]
    report("C5", not bad,
           f"is_loeschian vs brute force for t <= {limit}: {len(bad)} mismatches")


def test_c6_sign_dichotomy():
    exceptions = []
    checked = 0
    for d in range(1, 16, 2):
        for quad in solve_three_d2(d):
            cm = coeff_matrix(quad)
            for k in range(1, 31):
                want = 2 if k % 3 == 0 else 1
                for m, n in omega(k):
                    got = len(signed_completions(cm, m, n))
                    checked += 1
                    if got != want:
                        exceptions.append((quad, m, n, got))
    report("C6", not exceptions,
           f"completion counts over d <= 15, k <= 30: {checked} cases, "
           f"{len(exceptions)} exceptions (want 0)")


def test_c7_triple_completeness():
    kmax = 300
    want = {
        (m, n, k)
        for k in range(1, kmax + 1)
        for m, n in omega(k)
        if m > 0 and n > 0 and gcd(m, n) == 1
    }
    got = {(t.m, t.n, t.k) for t in primitive_triples(kmax)}
    report("C7", got == want,
           f"primitive triples for k <= {kmax}: generated {len(got)}, "
           f"brute force {len(want)}, sets equal: {got == want}")


def test_c8_oracle_equivalence():
    start = time.perf_counter()
    diffs = {}
    for ell in (1, 2, 3, 4, 5):
        reportd = compare(enumerate_t0(ell), brute_t0(ell))
        diffs[ell] = (len(reportd.missing), len(reportd.extra))
    elapsed = time.perf_counter() - start
    clean = all(v == (0, 0) for v in diffs.values())
    report("C8", clean and elapsed < 120.0,
           f"enumerate_t0 vs brute_t0 diffs (missing, extra) {diffs} in {elapsed:.3f}s (< 120s)")


def test_c9_grid_counts_and_bfiles():
    tets = len(brute_tetrahedra_grid(1))
    tris = len(brute_triangles_grid(1))
    notes = [f"grid n=1: {tets} tetrahedra (want 2), {tris} triangles (want 8)"]
    ok = tets == 2 and tris == 8
    for name, scan in (("b103158.txt", brute_tetrahedra_grid),
                       ("b102698.txt", brute_triangles_grid)):
        path = DATA_DIR / name
        if not path.exists():
            notes.append(f"{name} not supplied, comparison skipped")
            continue
        counts = {n: len(scan(n)) for n in range(5)}
        reports = compare_with_bfile(counts, read_bfile(path))
        matched = [r.offset for r in reports if r.matched]
        notes.append(f"{name} offsets matched: {matched}")
        ok = ok and bool(matched)
    report("C9", ok, "; ".join(notes))


def test_c10_congruence_suites():
    quad_bad = []
    quads_checked = 0
    rs_bad = []
    for d in range(1, 102, 2):
        quads = solve_three_d2(d)
        if not quads:
            quad_bad.append((d, "no solutions"))
            continue
        for quad in quads:
            quads_checked += 1
            values = (quad.a, quad.b, quad.c)
            if not all(v % 2 and abs(v) % 6 in (1, 5) for v in values):
                quad_bad.append((d, quad))
            if quad.q % 6 != 2 or not quad.is_primitive():
                quad_bad.append((d, quad))
            cm = coeff_matrix(quad)
            if cm.rs.s**2 % 3 != 1:
                rs_bad.append((d, quad, cm.rs))
    pair_bad = []
    pairs_checked = 0
    for k in range(1, 101):
        for m, n in omega(k):
            pairs_checked += 1
            if (k - (m + n)) % 3 != 0 and (k + (m + n)) % 3 != 0:
                pair_bad.append((k, m, n))
            if k % 3 == 0 and (m % 3 or n % 3):
                pair_bad.append((k, m, n))
    ok = not quad_bad and not pair_bad and not rs_bad
    report("C10", ok,
           f"{quads_checked} quadruples (d <= 101): {len(quad_bad)} congruence failures; "
           f"{pairs_checked} omega pairs (k <= 100): {len(pair_bad)} failures; "
           f"selected (r, s): {len(rs_bad)} failures")
