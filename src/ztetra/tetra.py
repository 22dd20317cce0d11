"""Regular tetrahedra in Z^3 with one vertex at the origin.

A lattice equilateral triangle extends to a regular lattice tetrahedron
exactly when its parameter pair satisfies zeta(m, n) == k*k; the apex
sits at the triangle centroid displaced by (2k/3)(a, b, c) on one or
both sides of the plane.  t0_rows and grid_counts walk one plane per
orbit of the 48 signed coordinate permutations and one of each +-(m, n);
t0_rows maps what each parameter producing squared side 2*ell*ell builds
onto the orbit and through x -> -x, in rows that enumerate_t0 makes
records, and count_t0 counts that set from the factorization of ell.
grid_counts sums the translates in a cube of the shapes over each base
plane, weighted by twice its orbit size; that counts each shape 3 or 12 times.
face_normals and verify_orthogonality recover the exact rational
orthogonal structure any such tetrahedron carries.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate
from math import gcd, isqrt, prod

from .eisenstein import omega, zeta
from .errors import ConstructionError, DomainError, VerificationError
from .numtheory import (
    THREE_D2_DMAX,
    NormalQuadruple,
    _base_triples,
    _coset_maps,
    check_range,
    factorize,
    solve_three_d2,
)
from .triangle import (
    ORIGIN,
    CoeffMatrix,
    LatticeTriangle,
    Point,
    coeff_matrix,
    dot,
    triangle_points,
)

_VERTEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# The cap of grid_counts: at n = 60 it walks triangles in about 0.08 s, tetrahedra in 0.04 s (2-vCPU VM).
GRID_COUNT_MAX = 60


class LatticeTetrahedron(namedtuple("LatticeTetrahedron", "vertices side_sq ell")):
    """Regular tetrahedron with vertices in canonical sorted order.

    The squared side is always twice a perfect square, recorded as ell,
    so side_sq == 2 * ell * ell.
    """

    __slots__ = ()

    @classmethod
    def from_vertices(cls, pts) -> "LatticeTetrahedron":
        verts = tuple(sorted(map(tuple, pts)))
        if len(verts) != 4:
            raise DomainError(f"a tetrahedron needs exactly 4 vertices, got {len(verts)}")
        side_sq = verify_regular(*verts)
        ell = isqrt(side_sq // 2)
        if side_sq != 2 * ell * ell:
            raise VerificationError(f"squared side {side_sq} is not twice a perfect square")
        return cls(verts, side_sq, ell)


class FaceNormalSet(namedtuple("FaceNormalSet", "faces")):
    """Outward primitive face normals of a tetrahedron.

    faces holds four NormalQuadruples; faces[i] belongs to the face
    opposite the i-th canonical vertex, and its d value is odd and
    divides the side parameter ell.
    """

    __slots__ = ()


def verify_regular(p0: Point, p1: Point, p2: Point, p3: Point) -> int:
    """Common squared edge length of the regular tetrahedron p0 p1 p2 p3.

    Checks all six pairwise squared distances against the first one and
    raises VerificationError naming the first failing pair, and
    DomainError when a point does not have three coordinates.
    """
    try:
        x0, y0, z0 = p0
        x1, y1, z1 = p1
        x2, y2, z2 = p2
        x3, y3, z3 = p3
    except ValueError:
        raise DomainError(
            f"a tetrahedron needs points of 3 coordinates, got {p0!r}, {p1!r}, {p2!r} and {p3!r}") from None
    dx, dy, dz = x0 - x1, y0 - y1, z0 - z1
    side = dx * dx + dy * dy + dz * dz
    if side == 0:
        raise VerificationError("degenerate: vertices p0 and p1 coincide")
    dx, dy, dz = x0 - x2, y0 - y2, z0 - z2
    d02 = dx * dx + dy * dy + dz * dz
    dx, dy, dz = x0 - x3, y0 - y3, z0 - z3
    d03 = dx * dx + dy * dy + dz * dz
    dx, dy, dz = x1 - x2, y1 - y2, z1 - z2
    d12 = dx * dx + dy * dy + dz * dz
    dx, dy, dz = x1 - x3, y1 - y3, z1 - z3
    d13 = dx * dx + dy * dy + dz * dz
    dx, dy, dz = x2 - x3, y2 - y3, z2 - z3
    d23 = dx * dx + dy * dy + dz * dz
    if d02 == d03 == d12 == d13 == d23 == side:
        return side
    # One of the five differs; name the first.
    for (i, j), d2 in zip(_VERTEX_PAIRS[1:], (d02, d03, d12, d13, d23)):
        if d2 != side:
            raise VerificationError(f"|p{i} p{j}|^2 = {d2} != {side} = |p0 p1|^2")


def _apexes(cm: CoeffMatrix, m: int, n: int) -> tuple[LatticeTriangle, list[tuple[int, Point]]]:
    """The (m, n) triangle of cm, built and re-verified once, and its
    lattice apexes as (sign, apex) pairs.

    The apex on side sign is (P + Q + sign*2k*(a, b, c)) / 3 where
    k*k == zeta(m, n); it lands on the lattice for both signs when k is
    divisible by 3 and for exactly one sign otherwise.
    """
    tri = triangle_points(cm, m, n)
    value = zeta(m, n)
    k = isqrt(value)
    if k * k != value:
        raise DomainError(f"zeta{(m, n)} = {value} is not a positive perfect square")
    a, b, c = cm.quad.normal
    x, y, z = (tri.p[0] + tri.q[0], tri.p[1] + tri.q[1], tri.p[2] + tri.q[2])
    apexes: list[tuple[int, Point]] = []
    for sign in (1, -1):
        step = sign * 2 * k
        nums = (x + step * a, y + step * b, z + step * c)
        if not (nums[0] % 3 or nums[1] % 3 or nums[2] % 3):
            apexes.append((sign, (nums[0] // 3, nums[1] // 3, nums[2] // 3)))
    return tri, apexes


def signed_completions(cm: CoeffMatrix, m: int, n: int) -> list[tuple[int, LatticeTetrahedron]]:
    """Regular tetrahedra over the (m, n) triangle of cm, each paired
    with the side (+1 or -1) of the plane that holds its apex: one, or
    two when 3 divides k = isqrt(zeta(m, n)); from_vertices re-verifies each."""
    tri, apexes = _apexes(cm, m, n)
    return [(sign, LatticeTetrahedron.from_vertices((ORIGIN, tri.p, tri.q, apex))) for sign, apex in apexes]


def _base_planes(d: int):
    """The CoeffMatrix and _coset_maps maps of each base plane 0 < a <= b <= c at odd scale d."""
    for normal in _base_triples(d):
        yield coeff_matrix(NormalQuadruple(*normal, d)), _coset_maps(normal).values()


def t0_rows(ell: int) -> list[tuple[int, ...]]:
    """Every regular lattice tetrahedron with a vertex at the origin and
    squared side 2*ell*ell, once each, as the 12 coordinates of its sorted
    vertices; the rows are strictly increasing.

    For each odd d | ell and each primitive quadruple at scale d, the
    triangles with parameters in omega(ell / d) are completed on both sides
    of their plane.  Each tetrahedron has three faces through the origin,
    each built exactly once, so a completion is kept only when its apex is
    lexicographically above both other non-origin vertices (its canonical
    face).  The planes are visited one per orbit of the 48 signed coordinate
    permutations: a primitive normal has a, b and c odd, so each orbit holds
    one base plane 0 < a <= b <= c, and one signed permutation g per plane
    (_coset_maps), a lattice isometry fixing the origin, carries its
    triangles and apexes one-to-one onto those of the image plane.  Only
    (m, n) > (0, 0) is walked: P, Q and g are linear, and the apex
    (P + Q + sign*2k*(a, b, c))/3 at (-m, -n) is minus the apex of sign
    -sign at (m, n), so the tetrahedra over (-m, -n) are the -T of those T
    over (m, n).  T is kept when its apex is above both other vertices, -T
    when below both, and verify_regular checks each kept one on its sorted
    vertices.  An odd part of ell above THREE_D2_DMAX, the largest d, raises
    RangeError up front; count_t0 has no cap.
    """
    check_range("ell", ell, 1)
    odd = ell >> ((ell & -ell).bit_length() - 1)
    check_range("the odd part of ell", odd, 1, THREE_D2_DMAX)
    side_sq, rows = 2 * ell * ell, []
    for d in [d for d in range(1, odd + 1, 2) if odd % d == 0]:
        pairs = omega(ell // d)
        pairs = pairs[len(pairs) // 2:]  # sorted, and closed under negation without (0, 0)
        for cm, maps in _base_planes(d):
            for m, n in pairs:
                (p, q, _), apexes = _apexes(cm, m, n)
                for i0, i1, i2, s1, s2 in maps:
                    gp = (p[i0], s1 * p[i1], s2 * p[i2])
                    gq = (q[i0], s1 * q[i1], s2 * q[i2])
                    for _, apex in apexes:
                        top = (apex[i0], s1 * apex[i1], s2 * apex[i2])
                        if top > gp and top > gq:
                            a, b, c, e = sorted((ORIGIN, gp, gq, top))
                        elif top < gp and top < gq:
                            a, b, c, e = sorted((ORIGIN, (-gp[0], -gp[1], -gp[2]), (-gq[0], -gq[1], -gq[2]),
                                                 (-top[0], -top[1], -top[2])))
                        else:
                            continue
                        if verify_regular(a, b, c, e) != side_sq:
                            raise VerificationError(f"{(a, b, c, e)} does not have squared side {side_sq}")
                        rows.append((*a, *b, *c, *e))
    rows.sort()
    return rows


def enumerate_t0(ell: int) -> list[LatticeTetrahedron]:
    """t0_rows(ell) as records, in its order; t0_rows has verified each row."""
    rows, side_sq = t0_rows(ell), 2 * ell * ell
    return [tuple.__new__(LatticeTetrahedron, ((r[:3], r[3:6], r[6:9], r[9:]), side_sq, ell)) for r in rows]


def count_t0(ell: int) -> int:
    """len(enumerate_t0(ell)) for any ell <= 2**63 - 1, from its factorization.

    Each tetrahedron has three faces through the origin.  Each face is the
    (m, n) triangle of one sign-canonical plane at an odd scale d | ell,
    with (m, n) in omega(k) for k = ell // d, and has two apexes when 3 | k,
    else one.  So 3*|T0(ell)| = sum over odd d | ell of |Q(d)| * |omega(k)|
    * (2 if 3 | k else 1), where |Q(d)| = len(solve_three_d2(d)) = 4*d *
    prod over p | d of (1 - chi(p)/p) (chi(p) = 0, 1, -1 for p = 3, p == 1,
    p == 2 mod 3; half the classical count of primitive representations of
    3*d*d as three squares, Grosswald 1985) and |omega(k)| = 6 * prod over
    p**e || k, p == 1 mod 3, of (2*e + 1).  Both are multiplicative in the
    odd part of ell and ignore its factors of 2, so the sum is 24 times a
    product of one sum over j <= e per odd p**e || ell, and each comes to
    p**e + 2*(p**e - 1)/(p - 1).  The count may exceed 2**63 - 1.

    >>> [count_t0(e) for e in range(1, 6)]
    [8, 8, 40, 8, 56]
    >>> count_t0(98175)
    3290040
    """
    check_range("ell", ell, 1)
    return 8 * prod(p**e + 2 * (p**e - 1) // (p - 1) for p, e in factorize(ell).factors if p > 2)


def grid_counts(n: int, shape: str) -> list[int]:
    """The number of regular tetrahedra (shape "tetra") or equilateral
    triangles (shape "triangle") with vertices in {0..i}^3, for i = 0..n.

    An origin shape spanning s_x, s_y, s_z has prod(max(0, i + 1 - s))
    translates in {0..i}^3: 0 for i < c = max(s), else x**3 - e1*x**2 +
    e2*x - e3 at x = i + 1 (e1..e3 the span's elementary symmetric sums),
    so weighted e0..e3 bucketed by c and prefix-summed give every total in
    O(spans + n).  3 * count(i) sums them over the (a, b) triangles of the
    sign-canonical planes at odd scale d with 2*d*d*zeta(a, b) <= 3*n*n
    (each origin triangle once, as Q is P turned 60 degrees one way), and
    12 * count(i) over their completions (4 vertices, each on 3 faces).  The
    shapes over (-a, -b) are minus those over (a, b), and x -> -x and every
    signed permutation keep the sorted spans, so (a, b) > (0, 0) on one base
    plane per orbit, weighted 2 * len(maps), stand for all.  A sum 3 or 12
    does not divide raises ConstructionError; n above GRID_COUNT_MAX,
    RangeError before any work.

    >>> grid_counts(3, "tetra"), grid_counts(3, "triangle")
    ([0, 2, 18, 72], [0, 8, 80, 368])
    """
    check_range("n", n, 0, GRID_COUNT_MAX)
    if shape not in ("tetra", "triangle"):
        raise DomainError(f"shape must be 'tetra' or 'triangle', got {shape!r}")
    copies, spans = 12 if shape == "tetra" else 3, Counter()
    for d in range(1, isqrt(3 * n * n // 2) + 1, 2):
        reach = isqrt(2 * n * n // (d * d))  # zeta(a, b) >= 3*a*a/4 and 3*b*b/4
        pairs = [(a, b) for a in range(reach + 1) for b in range(-reach, reach + 1)
                 if (a, b) > (0, 0) and 2 * d * d * (z := zeta(a, b)) <= 3 * n * n
                 and (shape == "triangle" or isqrt(z) ** 2 == z)]
        for cm, maps in _base_planes(d):
            for a, b in pairs:
                for points in ([(ORIGIN, *triangle_points(cm, a, b)[:2])] if shape == "triangle"
                               else [tet.vertices for _, tet in signed_completions(cm, a, b)]):
                    spans[tuple(sorted(max(axis) - min(axis) for axis in zip(*points)))] += 2 * len(maps)
    sums = [[0] * 4 for _ in range(n + 1)]  # the spans' weighted e0..e3, by largest entry c
    for (a, b, c), k in spans.items():
        if c <= n:
            sums[c] = [s + k * e for s, e in zip(sums[c], (1, a + b + c, a * b + b * c + c * a, a * b * c))]
    totals = [((e0 * x - e1) * x + e2) * x - e3 for x, (e0, e1, e2, e3)
              in enumerate(accumulate(sums, lambda s, t: [p + q for p, q in zip(s, t)]), 1)]
    if any(total % copies for total in totals):
        raise ConstructionError(f"origin shape translates {totals} are not all {copies} per {shape}")
    return [total // copies for total in totals]


def face_normals(tet: LatticeTetrahedron) -> FaceNormalSet:
    """Outward primitive normals of the four faces of tet.

    In a regular tetrahedron the line from a vertex v_i to the centroid
    of the opposite face is that face's altitude, so the normal of the
    face is the primitive form of v0 + v1 + v2 + v3 - 4*v_i, three times
    the vector from v_i to that centroid, which points away from v_i.
    Its squared length is 3*d*d for an odd d dividing tet.ell, and the
    four pass verify_orthogonality; anything else would contradict the
    structure theory, so it raises ConstructionError.
    """
    sx, sy, sz = map(sum, zip(*tet.vertices))
    faces: list[NormalQuadruple] = []
    for x, y, z in tet.vertices:
        nrm = (sx - 4 * x, sy - 4 * y, sz - 4 * z)
        g = gcd(*nrm)
        nrm = (nrm[0] // g, nrm[1] // g, nrm[2] // g)
        norm_sq = dot(nrm, nrm)
        d = isqrt(norm_sq // 3)
        if 3 * d * d != norm_sq:
            raise ConstructionError(f"face normal {nrm} has squared length {norm_sq}, not of the form 3*d^2")
        if d % 2 == 0 or tet.ell % d:
            raise ConstructionError(f"face scale {d} does not divide ell = {tet.ell} oddly")
        faces.append(NormalQuadruple(nrm[0], nrm[1], nrm[2], d))
    if not verify_orthogonality(fns := FaceNormalSet(tuple(faces))):
        raise ConstructionError(f"the face normals of {tet.vertices} fail the orthogonality identities")
    return fns


def verify_orthogonality(fns: FaceNormalSet) -> bool:
    """Exact check of the orthogonality identities of four face normals.

    With v_i = (a_i, b_i, c_i, d_i), the 4x4 matrix M with rows
    v_i / (2*d_i) must be orthogonal.  The denominators are multiplied
    out, so every test is an integer equality: v_i . v_j == 4*d_i*d_j
    if i == j else 0 (off the diagonal this is the pairwise identity
    a_i*a_j + b_i*b_j + c_i*c_j + d_i*d_j == 0).  Only rows are checked:
    M is real and square (d_i >= 1), so M*M^T == I implies M^T*M == I.
    Other than four faces, or a face of other than four entries, raise DomainError.
    """
    rows = fns.faces  # each face is the tuple (a, b, c, d)
    if len(rows) != 4:
        raise DomainError(f"a face normal set needs exactly 4 faces, got {len(rows)}")
    if any(len(v) != 4 for v in rows):
        raise DomainError(f"a face needs exactly 4 entries (a, b, c, d), got {list(rows)}")
    for i, vi in enumerate(rows):
        for j in range(i, 4):
            vj = rows[j]
            want = 4 * vi[3] * vj[3] if i == j else 0
            if vi[0] * vj[0] + vi[1] * vj[1] + vi[2] * vj[2] + vi[3] * vj[3] != want:
                return False
    return True


def corollary_solution(d: int) -> tuple[NormalQuadruple, NormalQuadruple]:
    """A nontrivial pair (a, b, c), (a', b', c') with
    a^2+b^2+c^2 = a'^2+b'^2+c'^2 = 3*d^2 and a*a' + b*b' + c*c' = -d^2.

    Built from the minimal tetrahedron over the first quadruple at scale
    d, with vertex sum S: (S - 4*v)/2 is the outward normal of the face
    opposite v (face_normals) at scale d, and two of them have dot
    product -d^2.  Taking v the apex and then the least base vertex, the
    first is primitive, being +-quad's normal, so the pair is never the
    trivial pattern (d, d, d), (-d, -d, d).  Requires odd d >= 3.
    """
    check_range("d", d, 3)
    quad = solve_three_d2(d)[0]
    vertices = signed_completions(coeff_matrix(quad), 1, 1)[0][1].vertices
    sx, sy, sz = map(sum, zip(*vertices))
    apex = next(v for v in vertices if dot(quad.normal, v))
    first = next(v for v in vertices if not dot(quad.normal, v))
    base, second = (NormalQuadruple((sx - 4 * x) // 2, (sy - 4 * y) // 2, (sz - 4 * z) // 2, d)
                    for x, y, z in (apex, first))
    if dot(base.normal, second.normal) != -d * d:
        raise ConstructionError(
            f"adjacent normals of {quad} break the -d^2 relation: {dot(base.normal, second.normal)}")
    return base, second
