"""Triangle generators: the two generators per plane and the (m, n) parametrization."""

import pytest

from ztetra import (
    ConstructionError,
    DomainError,
    NormalQuadruple,
    VerificationError,
    coeff_matrix,
    solve_three_d2,
    solve_two_q,
    triangle_points,
    verify_equilateral,
    zeta,
)
from ztetra.triangle import _generators, cross, dot, sub


def admissible(quad, rs):
    """Independent restatement of the divisibility conditions that make
    (r, s) usable for the coefficient matrix of quad."""
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    r, s = rs.r, rs.s
    q = quad.q
    numerators_2q = (
        d * b * (3 * r + s) + a * c * (r - s),
        d * a * (3 * r + s) - b * c * (r - s),
        d * b * (s - 3 * r) + a * c * (r + s),
        d * a * (s - 3 * r) - b * c * (r + s),
    )
    numerators_q = (
        r * a * c + d * b * s,
        d * a * s - b * c * r,
    )
    return (
        all(v % (2 * q) == 0 for v in numerators_2q)
        and all(v % q == 0 for v in numerators_q)
        and (r - s) % 2 == 0
    )


def paper_entries(quad, rs):
    """The twelve coefficients of the paper's characterization, as the
    four points (mu, mv, mw), (nu, nv, nw), (mx, my, mz), (nx, ny, nz):
    P = (mu*m - nu*n, ...) and Q = (mx*m - nx*n, ...)."""
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    r, s = rs.r, rs.s
    q = quad.q
    mu = (-(r * a * c + d * b * s) // q, (d * a * s - r * b * c) // q, r)
    nu = (-(d * b * (s - 3 * r) + a * c * (r + s)) // (2 * q),
          (d * a * (s - 3 * r) - b * c * (r + s)) // (2 * q), (r + s) // 2)
    mx = (-(d * b * (3 * r + s) + a * c * (r - s)) // (2 * q),
          (d * a * (3 * r + s) - b * c * (r - s)) // (2 * q), (r - s) // 2)
    nx = (-(r * a * c + d * b * s) // q, (d * a * s - b * c * r) // q, r)
    return mu, nu, mx, nx


def test_coeff_matrix_frozen_entries_for_unit_quad():
    cm = coeff_matrix(NormalQuadruple(1, 1, 1, 1))
    assert (cm.rs.r, cm.rs.s) == (0, -2)
    # (mx, my, mz), (nx, ny, nz), (mu, mv, mw), (nu, nv, nw)
    assert cm.point_q(1, 0) == (0, -1, 1)
    assert cm.point_q(0, -1) == (1, -1, 0)
    assert cm.point_p(1, 0) == (1, -1, 0)
    assert cm.point_p(0, -1) == (1, 0, -1)


def test_coeff_matrix_picks_first_admissible_pair():
    for d in range(1, 52, 2):
        for quad in solve_three_d2(d):
            cm = coeff_matrix(quad)
            candidates = [rs for rs in solve_two_q(quad.q) if admissible(quad, rs)]
            assert candidates, quad
            assert cm.rs == candidates[0], quad
            points = (cm.point_p(1, 0), cm.point_p(0, -1), cm.point_q(1, 0), cm.point_q(0, -1))
            assert points == paper_entries(quad, cm.rs), quad


def four_test_generators(quad, rs):
    """Referee for _generators: u and v from their own four-term
    formulas, each division tested for a remainder separately."""
    a, b, c, d, q = quad.a, quad.b, quad.c, quad.d, quad.q
    r, s = rs.r, rs.s
    ux, uy = -(r * a * c + d * b * s), d * a * s - r * b * c
    vx, vy = -(d * b * (s - 3 * r) + a * c * (r + s)), d * a * (s - 3 * r) - b * c * (r + s)
    if ux % q or uy % q or vx % (2 * q) or vy % (2 * q):
        return None
    return (ux // q, uy // q, r), (vx // (2 * q), vy // (2 * q), (r + s) // 2)


def assert_generators_match_referee(quad):
    """Every candidate of quad gets the referee's verdict and (u, v),
    and coeff_matrix picks the referee's first admissible one; returns
    the number of candidates."""
    first = None
    candidates = solve_two_q(quad.q)
    for rs in candidates:
        want = four_test_generators(quad, rs)
        assert _generators(quad, rs) == want, (quad, rs)
        if first is None and want is not None:
            first = (rs, *want)
    cm = coeff_matrix(quad)
    assert (cm.rs, cm.u, cm.v) == first, quad
    return len(candidates)


def test_one_divisibility_test_matches_the_four_test_referee():
    quads = candidates = 0
    for d in range(1, 102, 2):
        for quad in solve_three_d2(d):
            candidates += assert_generators_match_referee(quad)
            quads += 1
    assert (quads, candidates) == (10660, 173400)


def test_one_divisibility_test_on_non_primitive_quadruples():
    # gcd(a, b) = 11 makes q = 242 share a factor with the normal.
    assert_generators_match_referee(NormalQuadruple(11, 11, 1, 9))
    for g in (3, 5, 9, 15):
        for d in (1, 3, 5, 7):
            for quad in solve_three_d2(d):
                assert_generators_match_referee(NormalQuadruple(g * quad.a, g * quad.b, g * quad.c, g * d))


def _mirror(p):
    return (-p[0], p[1], p[2])


@pytest.mark.parametrize("corrupt, why", [
    # The mirror keeps the base triangle equilateral with side 2d^2, so
    # only the plane check can catch it.
    (lambda u, v: (_mirror(u), _mirror(v)), "off the plane"),
    (lambda u, v: (u, tuple(-x for x in v)), "not equilateral"),
    (lambda u, v: (tuple(2 * x for x in u), tuple(2 * x for x in v)), "squared side"),
], ids=["off-plane", "not-equilateral", "wrong-side"])
def test_coeff_matrix_rejects_corrupted_generators(monkeypatch, corrupt, why):
    from ztetra import triangle

    honest = triangle._generators
    monkeypatch.setattr(triangle, "_generators",
                        lambda quad, rs: None if (uv := honest(quad, rs)) is None else corrupt(*uv))
    for quad in (NormalQuadruple(1, 1, 1, 1), NormalQuadruple(19, 41, 151, 91)):
        with pytest.raises(ConstructionError, match=why):
            coeff_matrix(quad)


def test_generators_lie_in_the_plane():
    for d in range(1, 16, 2):
        for quad in solve_three_d2(d):
            cm = coeff_matrix(quad)
            for m, n in ((1, 0), (0, 1), (1, 1), (2, -1)):
                assert dot(quad.normal, cm.point_p(m, n)) == 0
                assert dot(quad.normal, cm.point_q(m, n)) == 0
                assert cm.point_q(m, n) == cm.point_p(m - n, m)


def test_triangle_side_follows_parameters():
    for d in (1, 3, 5, 7, 9, 11, 13, 15):
        for quad in solve_three_d2(d)[:2]:
            cm = coeff_matrix(quad)
            for m in range(-5, 6):
                for n in range(-5, 6):
                    if (m, n) == (0, 0):
                        continue
                    tri = triangle_points(cm, m, n)
                    assert tri.side_sq == 2 * d * d * zeta(m, n)


def test_triangle_rejects_degenerate_parameters():
    cm = coeff_matrix(NormalQuadruple(1, 1, 1, 1))
    with pytest.raises(DomainError):
        triangle_points(cm, 0, 0)


def test_verify_equilateral():
    assert verify_equilateral((1, -1, 0), (0, -1, 1)) == 2
    with pytest.raises(VerificationError):
        verify_equilateral((1, 0, 0), (0, 1, 0))
    with pytest.raises(VerificationError):
        verify_equilateral((0, 0, 0), (1, 1, 0))
    with pytest.raises(VerificationError):
        verify_equilateral((2, 0, 0), (1, 1, 0))


@pytest.mark.parametrize("p, q", [((1, 1, 0, 5), (1, 0, 1, -7)), ((1, 1, 0), (1, 0, 1, 0)), ((1, 1), (1, 0, 1))])
def test_verify_equilateral_rejects_points_not_of_three_coordinates(p, q):
    # (1, 1, 0, 5), (1, 0, 1, -7) would pass on their first three coordinates alone.
    with pytest.raises(DomainError, match="a triangle needs points of 3 coordinates"):
        verify_equilateral(p, q)


def decompose(v, e1, e2):
    """Integer (m, n) with v == m*e1 + n*e2, or None.

    Uses the first coordinate pair with nonzero determinant, then
    checks the full vector.
    """
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = e1[i] * e2[j] - e1[j] * e2[i]
        if det == 0:
            continue
        mnum = v[i] * e2[j] - v[j] * e2[i]
        nnum = e1[i] * v[j] - e1[j] * v[i]
        if mnum % det or nnum % det:
            return None
        m, n = mnum // det, nnum // det
        if all(v[t] == m * e1[t] + n * e2[t] for t in range(3)):
            return (m, n)
        return None
    return None


def rotations(v, quad):
    """Integral images of v under the two 60 degree rotations of the
    plane of quad about the origin: (d*v +/- (a, b, c) x v) / (2d)."""
    a, b, c, d = quad.a, quad.b, quad.c, quad.d
    cx = (b * v[2] - c * v[1], c * v[0] - a * v[2], a * v[1] - b * v[0])
    out = []
    for sign in (1, -1):
        nums = tuple(d * v[i] + sign * cx[i] for i in range(3))
        if all(x % (2 * d) == 0 for x in nums):
            out.append(tuple(x // (2 * d) for x in nums))
    return out


def test_generators_reach_exactly_the_triangle_vertices():
    # A plane point v belongs to an equilateral lattice triangle with one
    # vertex at the origin exactly when one of its 60 degree rotations is
    # integral; the parametrization must cover exactly those points.
    box = 20
    for d in (1, 3, 5):
        for quad in solve_three_d2(d)[:3]:
            cm = coeff_matrix(quad)
            e1 = cm.point_p(1, 0)
            e2 = cm.point_p(0, 1)
            a, b, c = quad.normal
            for x in range(-box, box + 1):
                for y in range(-box, box + 1):
                    num = a * x + b * y
                    if num % c:
                        continue
                    v = (x, y, -num // c)
                    if v == (0, 0, 0):
                        continue
                    rots = rotations(v, quad)
                    mn = decompose(v, e1, e2)
                    if d == 1:
                        assert rots, (quad, v)
                    if not rots:
                        assert mn is None, (quad, v)
                        continue
                    assert mn is not None, (quad, v)
                    assert cm.point_p(*mn) == v
                    for w in rots:
                        assert verify_equilateral(v, w) == dot(v, v)
                        assert decompose(w, e1, e2) is not None, (quad, v, w)


def test_q_generators_span_the_same_lattice():
    for d in (1, 3, 5):
        for quad in solve_three_d2(d)[:3]:
            cm = coeff_matrix(quad)
            e1 = cm.point_p(1, 0)
            e2 = cm.point_p(0, 1)
            for m in range(-3, 4):
                for n in range(-3, 4):
                    assert decompose(cm.point_q(m, n), e1, e2) is not None


def test_selected_pair_satisfies_s_squared_congruence():
    for d in range(1, 32, 2):
        for quad in solve_three_d2(d):
            cm = coeff_matrix(quad)
            assert cm.rs.s**2 % 3 == 1


def test_base_triangle_has_minimal_side():
    for d in (1, 3, 5, 7):
        for quad in solve_three_d2(d):
            cm = coeff_matrix(quad)
            tri = triangle_points(cm, 1, 0)
            assert tri.side_sq == 2 * d * d
            assert cross(sub(tri.p, (0, 0, 0)), sub(tri.q, (0, 0, 0))) != (0, 0, 0)
