"""Brute-force referees: grid scans, sphere scans, b-file comparison."""

import time

import pytest

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
from ztetra.oracle import BRUTE_T0_MAX, GRID_GUARD, _is_twice_square


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


def test_pruned_scan_loses_nothing():
    for n in (1, 2, 3):
        pts = [(x, y, z) for x in range(n + 1) for y in range(n + 1) for z in range(n + 1)]
        assert scan_tetrahedra(pts, prune=False) == scan_tetrahedra(pts, prune=True)


def test_every_tetrahedron_side_is_twice_a_square():
    pts = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    from ztetra.triangle import dist_sq

    for tet in scan_tetrahedra(pts, prune=False):
        assert _is_twice_square(dist_sq(tet[0], tet[1]))


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


def test_brute_t0_unit():
    tets = brute_t0(1)
    assert len(tets) == 8
    assert tets == enumerate_t0(1)


def test_brute_t0_bound_validation():
    with pytest.raises(RangeError):
        brute_t0(0)


def test_brute_t0_rejects_ell_above_its_cap_at_once():
    assert BRUTE_T0_MAX == 100
    start = time.perf_counter()
    for ell in (BRUTE_T0_MAX + 1, 1024, 2**63 - 1):
        with pytest.raises(RangeError, match="at most 100"):
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
    assert by_offset[0].compared == ((0, 0, 0), (1, 2, 2))
