"""Brute-force referees: grid scans, sphere scans, b-file comparison."""

import hashlib
import re
import time
from functools import cache
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztetra import (
    DomainError,
    RangeError,
    brute_t0,
    brute_tetrahedra_grid,
    brute_triangles_grid,
    compare,
    compare_with_bfile,
    enumerate_t0,
    read_bfile,
    scan_tetrahedra,
    scan_triangles,
)
from ztetra.oracle import (
    BRUTE_T0_MAX,
    GRID_GUARD,
    _grid_points,
    _is_twice_square,
    _origin_shapes,
    _sphere,
    _translation_graph,
)
from ztetra.triangle import ORIGIN


def test_grid_counts_small():
    assert len(brute_triangles_grid(0)) == 0
    assert len(brute_tetrahedra_grid(0)) == 0
    assert len(brute_triangles_grid(1)) == 8
    assert len(brute_tetrahedra_grid(1)) == 2
    assert len(brute_triangles_grid(2)) == 80
    assert len(brute_tetrahedra_grid(2)) == 18
    assert len(brute_triangles_grid(3)) == 368
    assert len(brute_tetrahedra_grid(3)) == 72


def test_grid_counts_invariant_under_reflection():
    n = 2
    pts = [(x, y, z) for x in range(n + 1) for y in range(n + 1) for z in range(n + 1)]
    mirrored = [(n - x, z, y) for x, y, z in pts]
    assert len(scan_triangles(mirrored)) == len(brute_triangles_grid(n))
    assert len(scan_tetrahedra(mirrored)) == len(brute_tetrahedra_grid(n))


def _d2(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def _equal_side_triples(pts):
    """Every 3-point subset of pts whose three squared distances are equal,
    at every distance, in the sorted order of the scans.  Three distinct
    points with three equal sides are an equilateral triangle."""
    return [(a, b, c) for a, b, c in combinations(sorted(set(pts)), 3) if _d2(a, b) == _d2(a, c) == _d2(b, c)]


def _equal_side_quadruples(pts):
    """Every 4-point subset of pts whose six squared distances are equal,
    at every distance, in the sorted order of the scans.  Four distinct
    points with six equal sides are a regular tetrahedron."""
    return [(a, b, c, d) for a, b, c, d in combinations(sorted(set(pts)), 4)
            if _d2(a, b) == _d2(a, c) == _d2(a, d) == _d2(b, c) == _d2(b, d) == _d2(c, d)]


@cache
def _grid_quadruples(n):
    """_equal_side_quadruples over {0..n}^3, computed once per n: n = 3
    walks all 635,376 subsets, and two tests read it."""
    return _equal_side_quadruples(_grid_points(n))


def test_pruned_scan_loses_nothing():
    for n in (1, 2, 3):
        assert _grid_quadruples(n) == scan_tetrahedra(_grid_points(n))


def test_triangle_scan_loses_nothing():
    for n in (1, 2, 3):
        pts = [(x, y, z) for x in range(n + 1) for y in range(n + 1) for z in range(n + 1)]
        assert _equal_side_triples(pts) == scan_triangles(pts)


# The cube's tetrahedron {100, 010, 001, 111}: every coordinate sum is odd.
_ODD_TETRAHEDRON = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-9, 9)] * 3),
       st.lists(st.tuples(*[st.integers(0, 3)] * 3), max_size=12),
       st.booleans())
def test_scans_match_every_subset_on_mixed_parity_points(shift, offsets, with_tetrahedron):
    # The shift's coordinate sum is odd or even, so the odd tetrahedron lands in either class.
    pts = [(x + shift[0], y + shift[1], z + shift[2])
           for x, y, z in offsets + (_ODD_TETRAHEDRON if with_tetrahedron else [])]
    assert scan_triangles(pts) == _equal_side_triples(pts)
    assert scan_tetrahedra(pts) == _equal_side_quadruples(pts)


@pytest.mark.parametrize("scan", [scan_triangles, scan_tetrahedra])
@pytest.mark.parametrize("bad", [(1.0, 0, 0), (0, 1), (0, 1, 0, 1), (True, 0, 0), (0, "1", 0), "011", 5],
                         ids=["float", "two", "four", "bool", "str-coordinate", "str", "int"])
def test_scans_reject_points_outside_z3(scan, bad):
    with pytest.raises(DomainError, match=re.escape(f"point {bad!r} is not three integers")):
        scan([(0, 0, 0), (1, 1, 0), bad, (0, 1, 1), (0.5, 0, 0)])


def test_scans_reject_a_non_lattice_triangle():
    with pytest.raises(DomainError, match=re.escape("point (0.5, 0, 0) is not three integers")):
        scan_triangles([(0.5, 0, 0), (0, 0.5, 0), (0, 0, 0.5)])


def test_every_tetrahedron_side_is_twice_a_square():
    from ztetra.triangle import dist_sq

    for tet in _grid_quadruples(3):
        assert _is_twice_square(dist_sq(tet[0], tet[1]))


def test_grid_translation_matches_the_pair_scan():
    # brute_tetrahedra_grid finds neighbours by translation, scan_tetrahedra by pairing.
    for n in range(GRID_GUARD + 1):
        assert brute_tetrahedra_grid(n, force=True) == scan_tetrahedra(_grid_points(n)), n


def test_grid_placement_matches_the_triangle_pair_scan():
    # brute_triangles_grid places each triangle from the origin, scan_triangles pairs points.
    for n in range(GRID_GUARD + 1):
        assert brute_triangles_grid(n, force=True) == scan_triangles(_grid_points(n)), n


def test_brute_t0_matches_the_pair_scan_of_its_sphere():
    for ell in range(1, 21):
        tets = scan_tetrahedra(_sphere(2 * ell * ell) + [ORIGIN])
        assert [t.vertices for t in brute_t0(ell)] == [tet for tet in tets if ORIGIN in tet], ell


@pytest.mark.parametrize("size, scan, lengths", [
    (3, scan_triangles, range(2, 201, 2)),
    (4, scan_tetrahedra, [2 * k * k for k in range(1, 21)]),
], ids=["triangles", "tetrahedra"])
def test_origin_shapes_match_the_pair_scan_of_their_sphere(size, scan, lengths):
    for s in lengths:
        shapes = sorted(_origin_shapes(s, size))
        assert shapes == [shape for shape in scan(_sphere(s) + [ORIGIN]) if shape[0] == ORIGIN], s
        for reach in (1, 3, 6):
            # The shapes that fit in the cube {0..reach}^3, the ones brute_*_grid(reach) places.
            fits = [shape for shape in shapes if all(max(axis) - min(axis) <= reach for axis in zip(*shape))]
            assert sorted(_origin_shapes(s, size, reach)) == fits, (s, reach)


def _probe_every_translate(vectors):
    """_translation_graph's graph, with each vector probed against every vector."""
    index = {v: i for i, v in enumerate(vectors)}
    graph = {}
    for i, (x, y, z) in enumerate(vectors):
        if hits := {index[q] for q in ((x + a, y + b, z + c) for a, b, c in vectors) if q in index}:
            graph[i] = hits
    return graph


def test_translation_graph_misses_no_translate():
    # The residue classes mod 4 only skip probes that cannot hit: the graph is the unfiltered one.
    cases = [(2 * ell * ell, None) for ell in range(1, 41)]
    cases += [(s, reach) for s in range(2, 201, 2) for reach in (None, 1, 3, 6)]
    for s, reach in cases:
        vectors = [v for v in _sphere(s) if v > ORIGIN and (reach is None or max(map(abs, v)) <= reach)]
        assert _translation_graph(vectors) == _probe_every_translate(vectors), (s, reach)


def test_every_triangle_side_is_even():
    # So every edge joins two points whose coordinate sums share a parity (see oracle._pair_graphs).
    pts = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    tris = _equal_side_triples(pts)
    assert tris
    for a, b, _ in tris:
        assert _d2(a, b) % 2 == 0
        assert sum(a) % 2 == sum(b) % 2


# SHA-256 of repr() of each referee's output: a refactor of the scans
# that changes one shape or the order of the output fails here.
_MIRRORED = [(3 - x, z, y) for x in range(4) for y in range(4) for z in range(4)]
REFEREE_DIGESTS = [
    ("brute_tetrahedra_grid(8)", lambda: brute_tetrahedra_grid(8, force=True),
     "9431faa37f1b564bbd63359074ea6832e891c55e40bb2fd1f75987e40e3f290f"),
    ("brute_triangles_grid(6)", lambda: brute_triangles_grid(6),
     "fbca8add3be604272cde8e0103b5a2c050ff943a907bace4d66a81d72a7fa4c6"),
    ("brute_t0(45)", lambda: [t.vertices for t in sorted(brute_t0(45))],
     "e68461e5b5058a82b63a2e608494426cfc40bd59337e6a5329abc4e394fa175a"),
    ("brute_t0(91)", lambda: [t.vertices for t in sorted(brute_t0(91))],
     "0f8c81609f78d89a88e4b1793c3fc1ec1e46e89c01b3426fda440477f8d76202"),
    ("brute_t0(65)", lambda: [t.vertices for t in sorted(brute_t0(65))],
     "e82a0d07e56f0ea062658e71252c54950a6164f3d524fe50dc9644ed18e69afd"),
    ("brute_t0(66)", lambda: [t.vertices for t in sorted(brute_t0(66))],
     "383088de1d6e844517a70089a2a40aae5f9f46bad6ca7ea3522bcaac0e1dcae0"),
    ("brute_tetrahedra_grid(10)", lambda: brute_tetrahedra_grid(10, force=True),
     "a25ea3adc8364f4b88775de36a7c8d942690df90540d0f6d970d61efc7434a8e"),
    ("scan_tetrahedra(mirrored 3)", lambda: scan_tetrahedra(_MIRRORED),
     "37e9303342d5bcd8c0b482b69b3da03767313e2814a4b66b123ee34930cf3bdc"),
    ("scan_triangles(mirrored 3)", lambda: scan_triangles(_MIRRORED),
     "53b9b9c1747b3ae88cd1320e1317b37d951d92f4f9f3b6697b4c55bba9724be3"),
]


@pytest.mark.parametrize("call, digest", [(c, d) for _, c, d in REFEREE_DIGESTS],
                         ids=[name for name, _, _ in REFEREE_DIGESTS])
def test_referee_output_matches_the_recorded_digest(call, digest):
    assert hashlib.sha256(repr(call()).encode()).hexdigest() == digest


def test_triangle_sides_are_not_restricted_to_twice_squares():
    sides = set()
    from ztetra.triangle import dist_sq

    for tri in brute_triangles_grid(2):
        sides.add(dist_sq(tri[0], tri[1]))
    assert not all(_is_twice_square(s) for s in sides)


def test_grid_guard():
    with pytest.raises(RangeError):
        brute_triangles_grid(GRID_GUARD + 1)
    with pytest.raises(RangeError):
        brute_tetrahedra_grid(GRID_GUARD + 1)
    assert len(brute_triangles_grid(2, force=True)) == 80
    with pytest.raises(RangeError):
        brute_triangles_grid(-1)


def test_scans_are_deterministic():
    pts = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    assert scan_triangles(pts) == scan_triangles(pts) == scan_triangles(reversed(pts))
    assert scan_tetrahedra(pts) == scan_tetrahedra(pts) == scan_tetrahedra(reversed(pts))


def _cube_sphere(r2):
    """The points of the enclosing cube with |p|^2 = r2, in the cube's order."""
    reach = isqrt(r2)
    return [(x, y, z)
            for x in range(-reach, reach + 1)
            for y in range(-reach, reach + 1)
            for z in range(-reach, reach + 1)
            if x * x + y * y + z * z == r2]


def test_sphere_matches_the_cube_scan():
    # range(201) holds 2*ell^2 for ell <= 10, r2 = 0 and points with z = 0.
    for r2 in [*range(201), *(2 * ell * ell for ell in range(11, 25))]:
        assert _sphere(r2) == _cube_sphere(r2), r2


def test_brute_t0_unit():
    tets = brute_t0(1)
    assert len(tets) == 8
    assert tets == enumerate_t0(1)


def test_brute_t0_bound_validation():
    with pytest.raises(RangeError):
        brute_t0(0)


def test_brute_t0_rejects_ell_above_its_cap_at_once():
    assert BRUTE_T0_MAX == 500
    start = time.perf_counter()
    for ell in (BRUTE_T0_MAX + 1, 1024, 2**63 - 1):
        with pytest.raises(RangeError, match="at most 500"):
            brute_t0(ell)
    assert time.perf_counter() - start < 1


def test_compare_reports_differences():
    tets = sorted(enumerate_t0(2), key=lambda t: t.vertices)
    assert compare(tets, tets).is_empty()
    report = compare(tets[1:], tets)
    assert report.missing == (min(tets),)
    assert report.extra == ()
    report = compare(tets, tets[1:])
    assert report.extra == (min(tets),)
    assert not report.is_empty()


def test_read_bfile(tmp_path):
    path = tmp_path / "b000000.txt"
    path.write_text("# comment\n\n0 0\n1 2\n2 18\n")
    assert read_bfile(path) == [(0, 0), (1, 2), (2, 18)]


def test_read_bfile_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n1 2 3\n")
    with pytest.raises(DomainError, match="2"):
        read_bfile(path)
    path.write_text("0 zero\n")
    with pytest.raises(DomainError):
        read_bfile(path)
    path.write_text("0 0\n1 99\n1 2\n2 18\n")
    with pytest.raises(DomainError, match=f"{path}:3: index 1 is listed twice"):
        read_bfile(path)
    with pytest.raises(DomainError, match="no such file"):
        read_bfile(tmp_path / "absent.txt")
    with pytest.raises(DomainError, match=f"cannot read {tmp_path}: Is a directory"):
        read_bfile(tmp_path)
    path.write_bytes(b"\xff\xfe0\x00 \x000\x00\n\x00")  # UTF-16
    with pytest.raises(DomainError, match=f"{path}:1: not UTF-8 text"):
        read_bfile(path)
    path.write_bytes(b"0 0\n1 2\n2 \xff\n")
    with pytest.raises(DomainError, match=f"{path}:3: not UTF-8 text"):
        read_bfile(path)


def test_compare_with_bfile_offset_zero():
    counts = {0: 0, 1: 2, 2: 18}
    reports = compare_with_bfile(counts, [(0, 0), (1, 2), (2, 18), (3, 72)])
    by_offset = {r.offset: r for r in reports}
    assert set(by_offset) == {0, 1}
    assert by_offset[0].matched
    assert not by_offset[1].matched


def test_compare_with_bfile_offset_one():
    counts = {0: 0, 1: 2, 2: 18}
    reports = compare_with_bfile(counts, [(1, 0), (2, 2), (3, 18)])
    by_offset = {r.offset: r for r in reports}
    assert by_offset[1].matched
    assert not by_offset[0].matched
    assert by_offset[0].missing == (0,) or by_offset[0].mismatches


def test_compare_with_bfile_reports_missing_terms():
    counts = {0: 0, 1: 2, 2: 18}
    reports = compare_with_bfile(counts, [(0, 0), (1, 2)])
    by_offset = {r.offset: r for r in reports}
    assert by_offset[0].missing == (2,)
    assert by_offset[0].mismatches == ()
