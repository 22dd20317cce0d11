"""Tetrahedron completion, enumeration, face normals and their identities."""

import re
import time
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from math import gcd, isqrt, prod
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztetra import (
    ConstructionError,
    DomainError,
    FaceNormalSet,
    LatticeTetrahedron,
    NormalQuadruple,
    RangeError,
    VerificationError,
    brute_t0,
    brute_tetrahedra_grid,
    brute_triangles_grid,
    coeff_matrix,
    corollary_solution,
    count_t0,
    enumerate_t0,
    face_normals,
    grid_counts,
    omega,
    signed_completions,
    solve_three_d2,
    t0_rows,
    triangle_points,
    verify_orthogonality,
    verify_regular,
    zeta,
)
from ztetra import tetra
from ztetra.numtheory import _base_triples, _coset_maps
from ztetra.triangle import ORIGIN, cross, dist_sq, dot, sub

UNIT_QUAD = NormalQuadruple(1, 1, 1, 1)


def test_verify_regular_unit():
    assert verify_regular((0, 0, 0), (1, -1, 0), (0, -1, 1), (1, 0, 1)) == 2


def test_verify_regular_rejects_bad_input():
    with pytest.raises(VerificationError):
        verify_regular((0, 0, 0), (0, 0, 0), (0, -1, 1), (1, 0, 1))
    with pytest.raises(VerificationError, match=r"p0 p3"):
        verify_regular((0, 0, 0), (1, -1, 0), (0, -1, 1), (2, 0, 2))


def six_dist_sq_referee(*pts):
    """verify_regular as six dist_sq calls, first failing pair first."""
    side = dist_sq(pts[0], pts[1])
    if side == 0:
        raise VerificationError("degenerate: vertices p0 and p1 coincide")
    for i, j in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        d2 = dist_sq(pts[i], pts[j])
        if d2 != side:
            raise VerificationError(f"|p{i} p{j}|^2 = {d2} != {side} = |p0 p1|^2")
    return side


def outcome(check, pts):
    try:
        return check(*pts)
    except VerificationError as exc:
        return str(exc)


SMALL_REGULAR = sorted(enumerate_t0(1) + enumerate_t0(3) + enumerate_t0(5))


@st.composite
def four_points(draw):
    """Four points: a regular tetrahedron, permuted and translated, then
    changed in one vertex; or four points of a small cube, which
    coincide or tie in distance often."""
    if draw(st.booleans()):
        shift = draw(st.tuples(*[st.integers(-50, 50)] * 3))
        pts = [[a + b for a, b in zip(p, shift)]
               for p in draw(st.permutations(draw(st.sampled_from(SMALL_REGULAR)).vertices))]
        if draw(st.booleans()):
            # One coordinate nudged by at most 2, often 0.
            pts[draw(st.integers(0, 3))][draw(st.integers(0, 2))] += draw(st.integers(-2, 2))
        else:
            # Vertex m moved to the mirror image of vertex k through the
            # midpoint of i and j: only its distance to k changes.
            i, j, k, m = draw(st.permutations(range(4)))
            pts[m] = [a + b - c for a, b, c in zip(pts[i], pts[j], pts[k])]
    else:
        pts = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=4, max_size=4))
    return [tuple(p) for p in pts] if draw(st.booleans()) else pts


@given(four_points())
def test_verify_regular_matches_six_dist_sq_calls(pts):
    assert outcome(verify_regular, pts) == outcome(six_dist_sq_referee, pts)


def test_from_vertices_sorts_and_records_ell():
    tet = LatticeTetrahedron.from_vertices(((1, 0, 1), (0, 0, 0), (1, -1, 0), (0, -1, 1)))
    assert tet.vertices == ((0, -1, 1), (0, 0, 0), (1, -1, 0), (1, 0, 1))
    assert tet.side_sq == 2
    assert tet.ell == 1
    with pytest.raises(DomainError):
        LatticeTetrahedron.from_vertices(((0, 0, 0), (1, -1, 0), (0, -1, 1)))


@pytest.mark.parametrize("check", [verify_regular, lambda *pts: LatticeTetrahedron.from_vertices(pts)],
                         ids=["verify_regular", "from_vertices"])
@pytest.mark.parametrize("pts", [((0, 0, 0, 0), (1, -1, 0), (0, -1, 1), (1, 0, 1)),
                                 ((0, 0), (1, -1), (0, -1), (1, 0))], ids=["four-and-three", "two"])
def test_tetrahedron_rejects_points_not_of_three_coordinates(check, pts):
    # (0, 0, 0, 0) would pass on its first three coordinates alone.
    with pytest.raises(DomainError, match="a tetrahedron needs points of 3 coordinates"):
        check(*pts)


def test_unit_completion_is_the_known_tetrahedron():
    cm = coeff_matrix(UNIT_QUAD)
    tets = [tet for _, tet in signed_completions(cm, 1, 0)]
    assert len(tets) == 1
    assert tets[0].vertices == ((0, -1, 1), (0, 0, 0), (1, -1, 0), (1, 0, 1))


def test_completion_gives_both_sides_when_k_divisible_by_3():
    cm = coeff_matrix(UNIT_QUAD)
    tets = [tet for _, tet in signed_completions(cm, 3, 0)]
    assert len(tets) == 2
    apexes = {
        frozenset(tet.vertices) - {ORIGIN, cm.point_p(3, 0), cm.point_q(3, 0)}
        for tet in tets
    }
    assert apexes == {frozenset({(3, 0, 3)}), frozenset({(-1, -4, -1)})}


def test_fourth_vertex_validates_input():
    cm = coeff_matrix(UNIT_QUAD)
    with pytest.raises(DomainError):
        signed_completions(cm, 2, 1)  # zeta = 3 is not a square


def test_sign_dichotomy_small():
    for d in (1, 3):
        for quad in solve_three_d2(d):
            cm = coeff_matrix(quad)
            for k in range(1, 10):
                for m in range(-2 * k, 2 * k + 1):
                    for n in range(-2 * k, 2 * k + 1):
                        if zeta(m, n) != k * k:
                            continue
                        hits = {sign for sign, _ in signed_completions(cm, m, n)}
                        assert len(hits) == (2 if k % 3 == 0 else 1), (quad, m, n)


def test_enumerate_t0_counts():
    assert len(enumerate_t0(1)) == 8
    assert len(enumerate_t0(2)) == 8
    assert len(enumerate_t0(3)) == 40
    assert len(enumerate_t0(4)) == 8
    assert len(enumerate_t0(5)) == 56


def test_count_t0_matches_the_closed_form():
    # The walk is the referee of the product formula, and so is its
    # derivation: 3*|T0(ell)| = sum over odd d | ell of |Q(d)| * |omega(k)|
    # * (2 if 3 | k else 1), k = ell // d.
    quads = {d: len(solve_three_d2(d)) for d in range(1, 151, 2)}
    for ell in range(1, 151):
        split = sum(quads[d] * len(omega(ell // d)) * (2 if ell // d % 3 == 0 else 1)
                    for d in range(1, ell + 1, 2) if ell % d == 0)
        assert 3 * count_t0(ell) == 3 * len(enumerate_t0(ell)) == split, ell


def test_count_t0_answers_the_largest_ell_at_once():
    start = time.perf_counter()
    assert count_t0(2**63 - 1) == 102754744433239509000  # 7^2 * 73 * 127 * 337 * 92737 * 649657
    assert time.perf_counter() - start < 1.0


def test_enumerate_t0_members_are_origin_tetrahedra():
    for ell in (1, 2, 3):
        for tet in enumerate_t0(ell):
            assert ORIGIN in tet.vertices
            assert tet.side_sq == 2 * ell * ell
            assert tet.ell == ell
            assert tet.vertices == tuple(sorted(tet.vertices))


def test_enumerate_t0_caps_the_odd_part_of_ell(monkeypatch):
    from ztetra import tetra

    # The cap is the enumeration's: count_t0 answers from the product
    # formula, 8 * (11 + 2) * (9091 + 2) above it.
    for ell in (10**5 + 1, 2**20 * (10**5 + 1)):
        with pytest.raises(RangeError, match="odd part of ell"):
            enumerate_t0(ell)
        assert count_t0(ell) == 945672
    # Only odd divisors are walked, so a power of two is a scaled T0(1).
    assert count_t0(2**60) == len(enumerate_t0(2**60)) == 8

    # An odd part at the cap passes: the walk starts and is stopped at
    # its first omega call, so no full walk runs.  99999 = 3^2 * 41 * 271
    # counts 8 * (9 + 8) * (41 + 2) * (271 + 2).
    class Started(Exception):
        pass

    def stop(k):
        raise Started

    monkeypatch.setattr(tetra, "omega", stop)
    for ell in (10**5 - 1, 2**20 * (10**5 - 1)):
        with pytest.raises(Started):
            enumerate_t0(ell)
        assert count_t0(ell) == 1596504


def test_enumerate_t0_is_deterministic():
    assert enumerate_t0(15) == enumerate_t0(15)


def test_one_pass_walk_emits_each_tetrahedron_once():
    for ell in range(1, 61):
        walk = enumerate_t0(ell)
        assert len(walk) == len(set(walk)), ell


def test_canonical_faces_lose_no_tetrahedron():
    # Reference: complete every triangle of every plane, no canonical
    # face; each tetrahedron turns up once per face through the origin.
    for ell in range(1, 31):
        generated = Counter()
        for d in range(1, ell + 1, 2):
            if ell % d:
                continue
            for quad in solve_three_d2(d):
                cm = coeff_matrix(quad)
                for m, n in omega(ell // d):
                    generated.update(tet for _, tet in signed_completions(cm, m, n))
        assert set(generated.values()) == {3}, ell
        assert enumerate_t0(ell) == sorted(generated, key=attrgetter("vertices")), ell


def test_enumerate_t0_matches_brute_force():
    for ell in range(1, 61):
        tets = enumerate_t0(ell)
        verts = [tet.vertices for tet in tets]
        assert type(tets) is list and all(a < b for a, b in zip(verts, verts[1:])), ell
        assert tets == brute_t0(ell), ell


def test_t0_rows_are_the_sorted_vertices_of_brute_force():
    for ell in range(1, 61):
        rows = t0_rows(ell)
        assert type(rows) is list and all(a < b for a, b in zip(rows, rows[1:])), ell
        assert rows == [tuple(x for v in tet.vertices for x in v) for tet in brute_t0(ell)], ell


def test_t0_rows_reject_a_side_other_than_twice_ell_squared(monkeypatch):
    monkeypatch.setattr(tetra, "verify_regular", lambda *pts: 2 * 3 * 3)
    with pytest.raises(VerificationError, match="does not have squared side 2$"):
        t0_rows(1)


def test_t0_is_closed_under_inversion():
    # The walk emits T over (m, n) > (0, 0) and stands it for -T over (-m, -n).
    for ell in range(1, 31):
        rows = t0_rows(ell)
        inverted = [sorted(tuple(-x for x in r[i:i + 3]) for i in (0, 3, 6, 9)) for r in rows]
        assert sorted(tuple(x for v in verts for x in v) for verts in inverted) == rows, ell


def test_signed_completions_agree_with_fourth_vertex():
    # Reference: the apex (P + Q + sign*2k*(a, b, c)) / 3, kept for each
    # sign that lands on the lattice.
    for quad in solve_three_d2(3):
        cm = coeff_matrix(quad)
        for m, n in ((1, 0), (3, 0), (3, 8), (-5, 3)):
            p, q = cm.point_p(m, n), cm.point_q(m, n)
            k = isqrt(zeta(m, n))
            want = []
            for sign in (1, -1):
                nums = [p[i] + q[i] + sign * 2 * k * quad.normal[i] for i in range(3)]
                if all(v % 3 == 0 for v in nums):
                    apex = tuple(v // 3 for v in nums)
                    want.append((sign, LatticeTetrahedron.from_vertices((ORIGIN, p, q, apex))))
            assert signed_completions(cm, m, n) == want


def signed_permutations():
    for perm in permutations(range(3)):
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    yield perm, (sx, sy, sz)


def assert_closed_under_cube_symmetries(tets):
    for perm, signs in signed_permutations():
        for tet in tets:
            moved = tuple(
                tuple(signs[i] * v[perm[i]] for i in range(3)) for v in tet.vertices
            )
            assert LatticeTetrahedron.from_vertices(moved) in tets


def test_enumerate_t0_closed_under_cube_symmetries():
    assert_closed_under_cube_symmetries(enumerate_t0(3))


def full_plane_referee(ell):
    """T0(ell) from every plane of solve_three_d2 and every (m, n), with
    no symmetry and no canonical face: the walk before orbits."""
    tets = set()
    for d in range(1, ell + 1, 2):
        if ell % d:
            continue
        pairs = omega(ell // d)
        for quad in solve_three_d2(d):
            cm = coeff_matrix(quad)
            for m, n in pairs:
                tets.update(tet for _, tet in signed_completions(cm, m, n))
    return tets


def test_orbit_walk_matches_the_full_plane_referee():
    for ell in (*range(1, 61), 165, 315):
        walk = enumerate_t0(ell)
        assert len(walk) == len(set(walk)), ell
        assert set(walk) == full_plane_referee(ell), ell


def test_coset_maps_reach_every_plane_once():
    for d in range(1, 102, 2):
        images = []
        for normal in _base_triples(d):
            assert 0 < normal[0] <= normal[1] <= normal[2], normal
            for i0, i1, i2, s1, s2 in _coset_maps(normal).values():
                images.append((normal[i0], s1 * normal[i1], s2 * normal[i2]))
        assert sorted(images) == [quad.normal for quad in solve_three_d2(d)], d


def test_full_plane_referee_closed_under_cube_symmetries():
    # The orbit walk is closed by construction; this checks the symmetry
    # it rests on against the walk that does not use it.
    assert_closed_under_cube_symmetries(full_plane_referee(15))


def test_orbit_walk_builds_one_plane_per_orbit(monkeypatch):
    # Call counts, not timings: coeff_matrix once per base plane and
    # _apexes once per base plane and (m, n) > (0, 0), at ell = 555 = 3 * 5 * 37.
    from ztetra import tetra

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(tetra, "coeff_matrix", counted("coeff_matrix", tetra.coeff_matrix))
    monkeypatch.setattr(tetra, "_apexes", counted("_apexes", tetra._apexes))
    assert len(enumerate_t0(555)) == 10920
    divisors = [d for d in range(1, 556, 2) if 555 % d == 0]
    bases = {d: len(list(_base_triples(d))) for d in divisors}
    assert calls["coeff_matrix"] == sum(bases.values())
    assert calls["_apexes"] == sum(bases[d] * len(omega(555 // d)) // 2 for d in divisors)

    # grid_counts walks the same base planes, for every odd d up to the largest at n = 20.
    for name in ("enumerate_t0", "solve_three_d2"):
        monkeypatch.setattr(tetra, name, counted(name, getattr(tetra, name)))
    for shape in ("tetra", "triangle"):
        calls.clear()
        grid_counts(20, shape)
        top = isqrt(3 * 20 * 20 // 2)
        assert calls["coeff_matrix"] == sum(len(list(_base_triples(d))) for d in range(1, top + 1, 2)), shape
        assert calls["enumerate_t0"] == calls["solve_three_d2"] == 0, shape


def test_enumerate_t0_rejects_bad_ell():
    with pytest.raises(RangeError):
        enumerate_t0(0)


@pytest.mark.parametrize("shape, scan, n", [("tetra", brute_tetrahedra_grid, 16),
                                            ("triangle", brute_triangles_grid, 10)])
def test_grid_counts_match_the_referee_scan(shape, scan, n):
    # The scan's shapes in {0..i}^3 are those whose largest coordinate is at most i.
    tops = Counter(max(map(max, found)) for found in scan(n, force=True))
    assert grid_counts(n, shape) == list(accumulate(tops[i] for i in range(n + 1)))


def test_grid_counts_check_the_translates_divide_evenly(monkeypatch):
    # Weighting each base plane by one map, not its orbit size, leaves translate sums that 12 does not divide.
    whole = tetra._coset_maps
    monkeypatch.setattr(tetra, "_coset_maps", lambda normal: dict([next(iter(whole(normal).items()))]))
    with pytest.raises(ConstructionError, match=r"^origin shape translates \[0, 6, 54\] are not all 12 per tetra$"):
        grid_counts(2, "tetra")


def test_grid_counts_match_the_translates_of_t0_for_every_n():
    # The sum over every member of T0(ell), with no orbit weights and no division by 3 faces:
    # 4 * count(i) = sum of prod(max(0, i + 1 - span)).  A shape with 2*ell*ell > 3*i*i spans
    # more than i, so one sum up to the largest ell at n = 30 serves every n <= 30.
    spans = [sorted(max(axis) - min(axis) for axis in zip(*tet.vertices))
             for ell in range(1, isqrt(3 * 30 * 30 // 2) + 1) for tet in enumerate_t0(ell)]
    totals = [sum(prod(max(0, i + 1 - s) for s in span) for span in spans) for i in range(31)]
    assert all(total % 4 == 0 for total in totals)
    for n in range(31):
        assert grid_counts(n, "tetra") == [total // 4 for total in totals[:n + 1]], n
    # At the cap, each tetrahedron in the cube less its least vertex is one row of T0 whose
    # first (sorted, so least) vertex is the origin: weight 1 each, no division.
    cap = tetra.GRID_COUNT_MAX
    spans = [[max(row[k::3]) - min(row[k::3]) for k in range(3)]
             for ell in range(1, isqrt(3 * cap * cap // 2) + 1) for row in t0_rows(ell) if not any(row[:3])]
    assert grid_counts(cap, "tetra") == [sum(prod(max(0, i + 1 - s) for s in span) for span in spans)
                                         for i in range(cap + 1)]


def test_grid_counts_reject_bad_input_before_any_work():
    assert grid_counts(0, "triangle") == [0]
    start = time.perf_counter()
    for n in (-1, tetra.GRID_COUNT_MAX + 1, 2**70, True):
        with pytest.raises(RangeError):
            grid_counts(n, "tetra")
    assert time.perf_counter() - start < 0.1
    with pytest.raises(DomainError, match="shape must be 'tetra' or 'triangle', got 'cube'"):
        grid_counts(2, "cube")


def test_face_normals_unit_tetrahedron():
    tet = LatticeTetrahedron.from_vertices(
        ((0, 0, 0), (1, -1, 0), (0, -1, 1), (1, 0, 1)))
    fns = face_normals(tet)
    for i, face in enumerate(fns.faces):
        assert face.d == 1
        assert face.is_primitive()
        others = [v for j, v in enumerate(tet.vertices) if j != i]
        # outward: away from the opposite vertex
        assert dot(face.normal, sub(others[0], tet.vertices[i])) > 0
        # all face vertices lie in one plane orthogonal to the normal
        assert dot(face.normal, sub(others[1], others[0])) == 0
        assert dot(face.normal, sub(others[2], others[0])) == 0
    assert verify_orthogonality(fns)


def test_face_normals_pairwise_relation():
    for tet in sorted(enumerate_t0(3), key=lambda t: t.vertices)[:6]:
        faces = face_normals(tet).faces
        for i in range(4):
            for j in range(i + 1, 4):
                ni, nj = faces[i], faces[j]
                assert dot(ni.normal, nj.normal) == -ni.d * nj.d


def test_worked_example_face_normals():
    tet = LatticeTetrahedron.from_vertices((
        (0, 0, 0), (376, -841, 2265), (-1005, -2116, 701), (1411, -1965, 356)))
    assert tet.side_sq == 5978882
    assert tet.ell == 1729
    fns = face_normals(tet)
    directions = {
        133: (-187, 113, 73),
        247: (-343, -253, -37),
        91: (19, 41, 151),
        1729: (391, -2461, 1661),
    }
    assert sorted(f.d for f in fns.faces) == [91, 133, 247, 1729]
    for face in fns.faces:
        assert cross(face.normal, directions[face.d]) == (0, 0, 0)
    assert verify_orthogonality(fns)


def cross_product_normals(tet):
    """face_normals the way it was first built: per face, the primitive cross
    product of two edges, flipped to point away from the opposite vertex."""
    faces = []
    for i, top in enumerate(tet.vertices):
        w1, w2, w3 = (v for j, v in enumerate(tet.vertices) if j != i)
        nrm = cross(sub(w2, w1), sub(w3, w1))
        sign = 1 if dot(nrm, sub(w1, top)) > 0 else -1
        nrm = tuple(sign * x // gcd(*nrm) for x in nrm)
        faces.append((*nrm, isqrt(dot(nrm, nrm) // 3)))
    return faces


def test_face_normals_from_the_centroid_match_the_cross_products_on_t0():
    for ell in range(1, 31):
        for tet in enumerate_t0(ell):
            assert list(map(tuple, face_normals(tet).faces)) == cross_product_normals(tet), tet


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30).flatmap(lambda ell: st.sampled_from(enumerate_t0(ell))),
       st.sampled_from(list(signed_permutations())), st.tuples(*[st.integers(-10**6, 10**6)] * 3))
def test_face_normals_match_the_cross_products_under_lattice_isometries(tet, symmetry, shift):
    perm, signs = symmetry
    moved = LatticeTetrahedron.from_vertices(
        [[signs[i] * v[perm[i]] + shift[i] for i in range(3)] for v in tet.vertices])
    assert list(map(tuple, face_normals(moved).faces)) == cross_product_normals(moved)


def test_verify_orthogonality_detects_a_flipped_normal():
    tet = LatticeTetrahedron.from_vertices(
        ((0, 0, 0), (1, -1, 0), (0, -1, 1), (1, 0, 1)))
    faces = list(face_normals(tet).faces)
    bad = faces[0]
    faces[0] = NormalQuadruple(-bad.a, -bad.b, -bad.c, bad.d)
    assert not verify_orthogonality(FaceNormalSet(tuple(faces)))


@pytest.mark.parametrize("count, width", [(3, 4), (5, 4), (4, 3), (4, 5)], ids=["3", "5", "4x3", "4x5"])
def test_verify_orthogonality_needs_exactly_four_faces(count, width):
    # The fifth face repeats (1, 1, 1, 1) and the fifth entry is 0, which a
    # check of the first four rows and entries alone would pass.
    faces = face_normals(LatticeTetrahedron.from_vertices(((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)))).faces
    faces = tuple((*face, 0)[:width] for face in (faces + (NormalQuadruple(1, 1, 1, 1),))[:count])
    message = (f"a face normal set needs exactly 4 faces, got {count}" if count != 4
               else f"a face needs exactly 4 entries (a, b, c, d), got {list(faces)}")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        verify_orthogonality(FaceNormalSet(faces))


def referee_orthogonality(fns):
    """The exact rational check: pairwise identities, then the 4x4 matrix
    with rows (a_i, b_i, c_i, d_i) / (2*d_i) orthogonal from both sides."""
    quads = fns.faces
    for i in range(4):
        for j in range(i + 1, 4):
            qi, qj = quads[i], quads[j]
            if qi.a * qj.a + qi.b * qj.b + qi.c * qj.c + qi.d * qj.d != 0:
                return False
    rows = [
        [Fraction(f.a, 2 * f.d), Fraction(f.b, 2 * f.d), Fraction(f.c, 2 * f.d), Fraction(1, 2)]
        for f in quads
    ]
    for i in range(4):
        for j in range(4):
            want = Fraction(int(i == j))
            row_dot = sum(rows[i][t] * rows[j][t] for t in range(4))
            col_dot = sum(rows[t][i] * rows[t][j] for t in range(4))
            if row_dot != want or col_dot != want:
                return False
    return True


# A face without NormalQuadruple's a^2 + b^2 + c^2 == 3*d^2 check, so
# mutations that break that equation still reach both checks.
RawFace = namedtuple("RawFace", "a b c d")


def mutations(faces):
    """Sign flips of one normal, swaps of two faces' d values, and every
    single-entry +-1 change (d kept >= 1), each as four RawFaces."""
    rows = [[f.a, f.b, f.c, f.d] for f in faces]
    for i in range(4):
        flipped = [r[:] for r in rows]
        flipped[i][:3] = [-x for x in rows[i][:3]]
        yield flipped
    for i, j in combinations(range(4), 2):
        swapped = [r[:] for r in rows]
        swapped[i][3], swapped[j][3] = rows[j][3], rows[i][3]
        yield swapped
    for i in range(4):
        for t in range(4):
            for delta in (1, -1):
                if t == 3 and rows[i][3] + delta < 1:
                    continue
                changed = [r[:] for r in rows]
                changed[i][t] += delta
                yield changed


def assert_mutants_agree_with_referee(faces):
    """faces form an orthogonal set; each mutant must get the referee's
    verdict, which is True only when the mutant equals faces (a swap of
    two equal d values)."""
    fns = FaceNormalSet(tuple(faces))
    assert verify_orthogonality(fns) and referee_orthogonality(fns)
    original = [[f.a, f.b, f.c, f.d] for f in faces]
    for mutant in mutations(faces):
        fns = FaceNormalSet(tuple(RawFace(*r) for r in mutant))
        got = verify_orthogonality(fns)
        assert got == referee_orthogonality(fns), mutant
        assert got == (mutant == original), mutant


def test_verify_orthogonality_matches_referee_on_t0_sets():
    # A +-1 change flips the parity of a^2 + b^2 + c^2 or makes d even,
    # so NormalQuadruple would reject every one of them; RawFace lets
    # both checks see them.
    for ell in range(1, 16):
        for tet in enumerate_t0(ell):
            assert_mutants_agree_with_referee(face_normals(tet).faces)


def test_verify_orthogonality_checks_norms_beyond_the_pairwise_identities():
    # The rows of left multiplication by a quaternion are pairwise
    # orthogonal with squared length |q|^2; they pass the norm identity
    # a^2 + b^2 + c^2 + d^2 == 4*d^2 only for q = (1, 1, 1, 1).
    for q, want in (((1, 1, 1, 1), True), ((1, 1, 1, 2), False), ((1, 2, 3, 5), False)):
        p0, p1, p2, p3 = q
        rows = ((p0, -p1, -p2, -p3), (p1, p0, -p3, p2), (p2, p3, p0, -p1), (p3, -p2, p1, p0))
        fns = FaceNormalSet(tuple(RawFace(*r) for r in rows))
        assert verify_orthogonality(fns) is want
        assert referee_orthogonality(fns) is want


CUBE_NORMALS = ((1, 1, 1, 1), (-1, -1, 1, 1), (-1, 1, -1, 1), (1, -1, -1, 1))
SMALL_T0_SETS = [CUBE_NORMALS] + [
    tuple((f.a, f.b, f.c, f.d) for f in face_normals(tet).faces)
    for ell in (3, 5, 7) for tet in sorted(enumerate_t0(ell))[:8]
]


def quaternion_rotate(w, x, y, z, faces):
    """faces under x -> R x, R = N * (the rotation of the quaternion),
    N = w^2 + x^2 + y^2 + z^2, with every d scaled by N."""
    norm = w * w + x * x + y * y + z * z
    rot = (
        (w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z),
    )
    return [NormalQuadruple(*(sum(r[t] * f[t] for t in range(3)) for r in rot), norm * f[3])
            for f in faces]


@settings(deadline=None)
@given(
    st.sampled_from(SMALL_T0_SETS),
    st.tuples(*[st.integers(-30, 30)] * 4).filter(lambda q: sum(v * v for v in q) % 2),
)
def test_verify_orthogonality_matches_referee_on_rotated_sets(faces, quaternion):
    assert_mutants_agree_with_referee(quaternion_rotate(*quaternion, faces))


def test_corollary_solution_produces_nontrivial_pairs():
    assert corollary_solution(3) == ((-1, 5, 1, 3), (5, -1, 1, 3))
    assert corollary_solution(101) == ((5, -157, -77, 101), (163, 53, 35, 101))
    for d in range(3, 22, 2):
        base, second = corollary_solution(d)
        assert base.d == d and second.d == d
        assert base.is_primitive()
        assert dot(base.normal, second.normal) == -d * d
        assert sorted((abs(base.a), abs(base.b), abs(base.c))) != [d, d, d]


def test_corollary_solution_rejects_bad_d():
    with pytest.raises(RangeError):
        corollary_solution(1)
    with pytest.raises(DomainError):
        corollary_solution(4)


def apex_signs(vertices, normal, k):
    """Signs s for which (v1 + v2 + v3 + s*2k*normal) / 3 is integral."""
    sums = tuple(sum(v[i] for v in vertices) for i in range(3))
    out = set()
    for s in (1, -1):
        if all((sums[i] + s * 2 * k * normal[i]) % 3 == 0 for i in range(3)):
            out.add(s)
    return out


def test_adjacent_tiles_alternate_apex_sides():
    # Edge-sharing triangles of the planar tessellation take their apex
    # on opposite sides of the plane when 3 does not divide k, and on
    # both sides when it does.
    for d in (1, 3, 5):
        for quad in solve_three_d2(d)[:2]:
            cm = coeff_matrix(quad)
            for m, n, k in ((1, 0, 1), (2, 0, 2), (3, 0, 3)):
                p = cm.point_p(m, n)
                q = cm.point_q(m, n)
                pq = tuple(p[i] + q[i] for i in range(3))
                p_minus_q = sub(p, q)
                q_minus_p = sub(q, p)
                base = apex_signs((ORIGIN, p, q), quad.normal, k)
                neighbors = [
                    apex_signs((p, q, pq), quad.normal, k),
                    apex_signs((ORIGIN, p, p_minus_q), quad.normal, k),
                    apex_signs((ORIGIN, q, q_minus_p), quad.normal, k),
                ]
                if k % 3 == 0:
                    assert base == {1, -1}
                    assert all(nb == {1, -1} for nb in neighbors)
                else:
                    assert len(base) == 1
                    assert all(nb == {-s for s in base} for nb in neighbors)


def test_apex_signs_agree_with_fourth_vertex():
    cm = coeff_matrix(UNIT_QUAD)
    for m, n, k in ((1, 0, 1), (1, 1, 1), (0, 1, 1), (2, 0, 2), (3, 0, 3)):
        tri = triangle_points(cm, m, n)
        want = apex_signs((ORIGIN, tri.p, tri.q), UNIT_QUAD.normal, k)
        got = {sign for sign, _ in signed_completions(cm, m, n)}
        assert got == want


def test_face_scales_divide_ell():
    for ell in (1, 2, 3, 4, 5):
        for tet in enumerate_t0(ell):
            for face in face_normals(tet).faces:
                assert face.d % 2 == 1
                assert ell % face.d == 0
