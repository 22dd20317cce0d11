"""Equilateral triangles in Z^3 with one vertex at the origin.

Every such triangle lies in a plane a*x + b*y + c*z = 0 whose normal
satisfies a^2 + b^2 + c^2 = 3*d^2 with d odd, and its two free vertices
are integer linear images of a parameter pair (m, n).  coeff_matrix
derives the integer coefficients attached to a plane, triangle_points
instantiates a triangle, and verify_equilateral is the independent
arbiter the rest of the package leans on.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class LatticeTriangle:
    """Equilateral triangle with vertices at the origin, p and q."""

    p: Point
    q: Point
    side_sq: int


@dataclass(frozen=True)
class CoeffMatrix:
    """Integer generator coefficients for the triangles of one plane.

    The free vertices of the triangle with parameters (m, n) are
        P = (mu*m - nu*n, mv*m - nv*n, mw*m - nw*n)
        Q = (mx*m - nx*n, my*m - ny*n, mz*m - nz*n)
    and the squared side is 2 * d*d * zeta(m, n).
    """

    quad: NormalQuadruple
    rs: RSPair
    mx: int
    nx: int
    my: int
    ny: int
    mz: int
    nz: int
    mu: int
    nu: int
    mv: int
    nv: int
    mw: int
    nw: int

    def point_p(self, m: int, n: int) -> Point:
        return (self.mu * m - self.nu * n, self.mv * m - self.nv * n, self.mw * m - self.nw * n)

    def point_q(self, m: int, n: int) -> Point:
        return (self.mx * m - self.nx * n, self.my * m - self.ny * n, self.mz * m - self.nz * n)


def _entries_for(quad: NormalQuadruple, rs: RSPair) -> dict[str, int] | None:
    """Coefficient entries for one (r, s) candidate, or None if any division leaves a remainder."""
    a, b, c, d, q = quad.a, quad.b, quad.c, quad.d, quad.q
    r, s = rs.r, rs.s
    halves = {
        "mx": -(d * b * (3 * r + s) + a * c * (r - s)),
        "my": d * a * (3 * r + s) - b * c * (r - s),
        "nu": -(d * b * (s - 3 * r) + a * c * (r + s)),
        "nv": d * a * (s - 3 * r) - b * c * (r + s),
    }
    wholes = {
        "nx": -(r * a * c + d * b * s),
        "ny": d * a * s - b * c * r,
        "mu": -(r * a * c + d * b * s),
        "mv": d * a * s - r * b * c,
    }
    if any(v % (2 * q) for v in halves.values()):
        return None
    if any(v % q for v in wholes.values()):
        return None
    if (r - s) % 2 or (r + s) % 2:
        return None
    entries = {key: v // (2 * q) for key, v in halves.items()}
    entries.update({key: v // q for key, v in wholes.items()})
    entries.update(mz=(r - s) // 2, nz=r, mw=r, nw=(r + s) // 2)
    return entries


def coeff_matrix(quad: NormalQuadruple) -> CoeffMatrix:
    """Generator coefficients for the plane of quad.

    Walks the solutions of s*s + 3*r*r == 2*q in the order of
    solve_two_q and stops at the first (r, s) whose twelve coefficients
    all divide out to integers; divisions are checked exactly.  A
    quadruple admitting no such (r, s) raises ConstructionError (never
    observed for a valid primitive quadruple).
    """
    for rs in solve_two_q(quad.q):
        entries = _entries_for(quad, rs)
        if entries is None:
            continue
        cm = CoeffMatrix(quad=quad, rs=rs, **entries)
        _check_generators(cm)
        return cm
    raise ConstructionError(f"no admissible (r, s) for quadruple {(quad.a, quad.b, quad.c, quad.d)}")


def _check_generators(cm: CoeffMatrix) -> None:
    """Cheap construction-time falsification guard."""
    normal = cm.quad.normal
    for pt in (
        (cm.mu, cm.mv, cm.mw),
        (cm.mx, cm.my, cm.mz),
        (cm.nu, cm.nv, cm.nw),
        (cm.nx, cm.ny, cm.nz),
    ):
        if dot(normal, pt) != 0:
            raise ConstructionError(f"generator point {pt} is off the plane of {normal}")
    d = cm.quad.d
    try:
        side_sq = verify_equilateral(cm.point_p(1, 0), cm.point_q(1, 0))
    except VerificationError as exc:
        raise ConstructionError(f"base triangle of {normal} is not equilateral: {exc}") from exc
    if side_sq != 2 * d * d:
        raise ConstructionError(f"base triangle of {normal} has squared side {side_sq}, expected {2 * d * d}")


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
    three squared distances differ, or when any of them vanishes.
    """
    op = dist_sq(ORIGIN, p)
    oq = dist_sq(ORIGIN, q)
    pq = dist_sq(p, q)
    if op == 0 or oq == 0 or pq == 0:
        raise VerificationError(f"degenerate triangle: p = {p}, q = {q}")
    if op != oq:
        raise VerificationError(f"|Op|^2 = {op} != {oq} = |Oq|^2")
    if op != pq:
        raise VerificationError(f"|Op|^2 = {op} != {pq} = |pq|^2")
    return op
