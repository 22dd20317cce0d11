"""Equilateral triangles in Z^3 with one vertex at the origin.

Every such triangle lies in a plane a*x + b*y + c*z = 0 whose normal
satisfies a^2 + b^2 + c^2 = 3*d^2 with d odd.  Its free vertices come
from two lattice generators u and v of that plane and a parameter pair
(m, n): P(m, n) = m*u - n*v, and Q(m, n) = P(m - n, m) is P turned by
60 degrees about the origin, the rotation (m, n) -> (m - n, m) of
eisenstein.tau_orbit.  coeff_matrix derives u and v for a plane,
triangle_points instantiates a triangle, and verify_equilateral is the
independent arbiter the rest of the package leans on.
"""

from __future__ import annotations

from collections import namedtuple

from .eisenstein import zeta
from .errors import ConstructionError, DomainError, VerificationError
from .numtheory import NormalQuadruple, RSPair, solve_two_q

Point = tuple[int, int, int]

ORIGIN: Point = (0, 0, 0)


def dot(p: Point, q: Point) -> int:
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def sub(p: Point, q: Point) -> Point:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def cross(p: Point, q: Point) -> Point:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def dist_sq(p: Point, q: Point) -> int:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2


class LatticeTriangle(namedtuple("LatticeTriangle", "p q side_sq")):
    """Equilateral triangle with vertices at the origin, p and q."""

    __slots__ = ()


class CoeffMatrix(namedtuple("CoeffMatrix", "quad rs u v")):
    """The two lattice generators u and v of one plane, built from rs.

    The triangle with parameters (m, n) has free vertices
    P(m, n) = m*u - n*v and Q(m, n) = P(m - n, m), Q being P rotated by
    60 degrees within the plane; its squared side is 2 * d*d * zeta(m, n).
    quad is the plane's NormalQuadruple and rs the RSPair it came from.
    """

    __slots__ = ()

    def point_p(self, m: int, n: int) -> Point:
        u, v = self.u, self.v
        return (m * u[0] - n * v[0], m * u[1] - n * v[1], m * u[2] - n * v[2])

    def point_q(self, m: int, n: int) -> Point:
        return self.point_p(m - n, m)


def _generators(quad: NormalQuadruple, rs: RSPair) -> tuple[Point, Point] | None:
    """u and v for one (r, s) candidate, or None if it is not admissible.

    With N = (a, b, c), X = r*a*c + d*b*s and Y = d*a*s - r*b*c, (r, s)
    is admissible exactly when q | X; then u = (-X/q, Y/q, r) and
    v = (d*u + N x u) / (2d) is u turned by 60 degrees in the plane.
    No other division can leave a remainder:
    - q | X implies q | Y, since X^2 + Y^2 == q^2 * (2d^2 - r^2); so
      N . u == 0 and |u|^2 == 2d^2.
    - 2d | d*u + N x u.  Mod 2: a, b, c are odd and u has exactly two
      odd coordinates, so N x u == u.  Mod p^e exactly dividing d, N
      primitive: w = N x u has N x w == -3d^2 * u == 0 mod p^2e, so
      w == mu*N; u x w == 2d^2 * N == 0 and u x w == -mu^2 * N, so
      p^e | mu, hence p^e | w.  If N = g*N' with N' primitive, apply
      this to N' and d' = d/g.
    _check_generators re-verifies the result anyway.
    """
    a, b, c, d, q = quad.a, quad.b, quad.c, quad.d, quad.q
    r, s = rs.r, rs.s
    x = r * a * c + d * b * s
    if x % q:
        return None
    u = (-x // q, (d * a * s - r * b * c) // q, r)
    return u, tuple((d * ui + wi) // (2 * d) for ui, wi in zip(u, cross(quad.normal, u)))


def coeff_matrix(quad: NormalQuadruple) -> CoeffMatrix:
    """Generators for the plane of quad.

    Walks the solutions of s*s + 3*r*r == 2*q in the order of
    solve_two_q and stops at the first admissible (r, s), the first
    with q | X in the notation of _generators.  A quadruple
    admitting no such (r, s) raises ConstructionError (never observed
    for a valid primitive quadruple).
    """
    for rs in solve_two_q(quad.q):
        uv = _generators(quad, rs)
        if uv is None:
            continue
        cm = CoeffMatrix(quad, rs, *uv)
        _check_generators(cm)
        return cm
    raise ConstructionError(f"no admissible (r, s) for quadruple {(quad.a, quad.b, quad.c, quad.d)}")


def _check_generators(cm: CoeffMatrix) -> None:
    """Cheap construction-time falsification guard."""
    normal = cm.quad.normal
    for pt in (cm.u, cm.v):
        if dot(normal, pt) != 0:
            raise ConstructionError(f"generator point {pt} is off the plane of {normal}")
    try:
        triangle_points(cm, 1, 0)
    except VerificationError as exc:
        raise ConstructionError(f"base triangle of {normal} is not equilateral: {exc}") from exc


def triangle_points(cm: CoeffMatrix, m: int, n: int) -> LatticeTriangle:
    """The triangle of cm with parameters (m, n).

    (m, n) = (0, 0) collapses all three vertices and is rejected.  The
    returned triangle is re-verified, so a coefficient bug cannot leak a
    bad triangle.
    """
    if (m, n) == (0, 0):
        raise DomainError("(m, n) = (0, 0) gives a degenerate triangle")
    p = cm.point_p(m, n)
    q = cm.point_q(m, n)
    expected = 2 * cm.quad.d * cm.quad.d * zeta(m, n)
    side_sq = verify_equilateral(p, q)
    if side_sq != expected:
        raise ConstructionError(
            f"triangle at (m, n) = {(m, n)} has squared side {side_sq}, expected {expected}")
    return LatticeTriangle(p, q, side_sq)


def verify_equilateral(p: Point, q: Point) -> int:
    """Squared side of the equilateral triangle (origin, p, q).

    Raises VerificationError naming the first failing equality when the
    three squared distances differ, or when any of them vanishes, and
    DomainError when p or q does not have three coordinates.
    """
    if len(p) != 3 or len(q) != 3:
        raise DomainError(f"a triangle needs points of 3 coordinates, got {p!r} and {q!r}")
    (px, py, pz), (qx, qy, qz) = p, q
    op = px * px + py * py + pz * pz
    oq = qx * qx + qy * qy + qz * qz
    dx, dy, dz = px - qx, py - qy, pz - qz
    pq = dx * dx + dy * dy + dz * dz
    if op == 0 or oq == 0 or pq == 0:
        raise VerificationError(f"degenerate triangle: p = {p}, q = {q}")
    if op != oq:
        raise VerificationError(f"|Op|^2 = {op} != {oq} = |Oq|^2")
    if op != pq:
        raise VerificationError(f"|Op|^2 = {op} != {pq} = |pq|^2")
    return op
