"""Brute-force scans that referee the parametrized constructions.

Nothing here knows about the coefficient machinery: candidates come
from raw distance bookkeeping over explicit point sets and every hit is
confirmed by the verify functions, so these scans are a fair referee
for enumerate_t0 and grid_counts.  One clique search serves every scan:
on a given point set, over pairs of one coordinate-sum parity at the
squared distances read (_pair_graphs); for the sphere referees, brute_t0
and the grid scans, over the shapes whose least vertex is the origin,
found by translation among the vectors of one length (_origin_shapes)
and moved to every place they belong, so each is found once.  Guards
keep the scans at desk scale unless explicitly overridden.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import chain, combinations, product, repeat
from math import isqrt
from operator import add
from pathlib import Path

from .errors import DomainError, RangeError
from .numtheory import check_range
from .tetra import LatticeTetrahedron, verify_regular
from .triangle import ORIGIN, Point, dist_sq, sub, verify_equilateral

GRID_GUARD = 6
# oracle-compare takes 0.6-0.7 s at ell = 245, 285 and 295, among the slowest to 300 (2-vCPU VM).
BRUTE_T0_MAX = 300

Triangle = tuple[Point, Point, Point]
Tetrahedron = tuple[Point, Point, Point, Point]


def _pair_graphs(points: list[Point], keep) -> list[dict[int, set[int]]]:
    """The equal-distance graphs on points from one pass over its pairs,
    each stored as the later neighbours of each point, and only for the
    squared distances keep accepts; keep is asked once per distance, and
    None keeps them all.

    A point is paired only with points whose coordinate sum has the same
    parity.  Three points at equal pairwise squared distance s, one of
    them moved to the origin and the others P and Q, have
    s = |P - Q|^2 = 2s - 2P.Q, so s = 2P.Q is even; and since
    |P|^2 = Px + Py + Pz (mod 2), every edge of a triangle or tetrahedron
    joins two points of one class.  Pairs across the classes would only
    fill graphs with no clique.
    """
    classes: tuple[list[int], list[int]] = ([], [])
    for i, p in enumerate(points):
        classes[sum(p) % 2].append(i)
    graphs: dict[int, dict[int, set[int]] | None] = {}
    for cls in classes:
        for i, j in combinations(cls, 2):
            s2 = dist_sq(points[i], points[j])
            if s2 not in graphs:
                graphs[s2] = {} if keep is None or keep(s2) else None
            if graphs[s2] is not None:
                graphs[s2].setdefault(i, set()).add(j)
    return list(filter(None, graphs.values()))


def _translation_graph(vectors: list[Point]) -> dict[int, set[int]]:
    """The graph joining each of the sorted vectors P to each later Q
    with Q - P among them, stored as _pair_graphs stores its graphs.
    Each vector is encoded as (x*W + y)*W + z, W = 4m + 1 with m the
    largest |coordinate|: linear, and one-to-one and order-preserving
    within +-2m, which holds every sum P + v of two, so the Q of P are
    one set intersection of the codes with code(P) + the codes.
    """
    w = 4 * max(map(abs, chain.from_iterable(vectors)), default=0) + 1
    index = {(x * w + y) * w + z: i for i, (x, y, z) in enumerate(vectors)}
    codes = set(index)
    graph = {}
    for e, i in index.items():
        if hits := codes.intersection(map(add, repeat(e), codes)):
            graph[i] = set(map(index.__getitem__, hits))
    return graph


def _cliques(graphs: list[dict[int, set[int]]], size: int) -> Iterator[tuple[int, ...]]:
    """Yield each 2-, 3- or 4-clique (size 2, 3 or 4) of each graph of
    later neighbours once, as increasing indices."""
    for graph in graphs:
        for i, after_i in graph.items():
            for j in after_i:
                if size == 2:
                    yield i, j
                    continue
                common = after_i.intersection(graph.get(j, ()))
                for t in common:
                    if size == 3:
                        yield i, j, t
                    else:
                        yield from ((i, j, t, u) for u in common.intersection(graph.get(t, ())))


def _origin_shapes(s: int, size: int, reach: int | None = None) -> Iterator[tuple[Point, ...]]:
    """The shapes of size (3 or 4) pairwise equidistant points at squared
    side s with least vertex the origin, in no set order, each as
    (ORIGIN, *others) sorted; with reach, only those spanning at most
    reach on every axis, whose vertices and differences all lie in
    {-reach..reach}^3.  The others are vectors v > ORIGIN of _sphere(s)
    whose differences, later minus earlier, are such vectors too: the
    (size - 1)-cliques of their _translation_graph.  Translation keeps
    lexicographic order, so a shape T with a vertex at the origin is
    O - c for exactly one origin shape O and vertex c of O: c = -min(T)
    and O = T + c.
    """
    vectors = [v for v in _sphere(s) if v > ORIGIN and (reach is None or max(map(abs, v)) <= reach)]
    for clique in _cliques([_translation_graph(vectors)], size - 1):
        yield ORIGIN, *map(vectors.__getitem__, clique)


def _is_twice_square(s2: int) -> bool:
    if s2 % 2:
        return False
    half = s2 // 2
    root = isqrt(half)
    return root * root == half


def _verify_triangle(a: Point, b: Point, c: Point) -> int:
    return verify_equilateral(sub(b, a), sub(c, a))


def _scan(points, size: int, keep, verify) -> list:
    """The size-cliques of _pair_graphs(keep) on the sorted distinct
    points, as point tuples, each confirmed by verify, sorted.  A point
    that is not a tuple or list of three ints (a bool is not one) raises
    DomainError naming the first such point, before any pairing."""
    pts = list(points)
    for p in pts:
        if type(p) not in (tuple, list) or len(p) != 3 or any(type(c) is not int for c in p):
            raise DomainError(f"point {p!r} is not three integers")
    pts = sorted({tuple(p) for p in pts})
    shapes = sorted(tuple(map(pts.__getitem__, clique)) for clique in _cliques(_pair_graphs(pts, keep), size))
    for shape in shapes:
        verify(*shape)
    return shapes


def scan_triangles(points) -> list[Triangle]:
    """All equilateral triangles with vertices in the given point set.

    Candidates are 3-cliques of the equal-distance graphs; each one is
    confirmed with verify_equilateral after translating a vertex to the
    origin.  Output is sorted; a point that is not three ints raises
    DomainError.
    """
    return _scan(points, 3, None, _verify_triangle)


def scan_tetrahedra(points) -> list[Tetrahedron]:
    """All regular tetrahedra with vertices in the given point set.

    Candidates are 4-cliques of the equal-distance graphs, and only
    pairs at squared distances 2*k*k are stored: a lattice tetrahedron
    has no other squared side (the tests check this against a scan of
    every 4-point subset at every distance).  Every candidate is
    confirmed with verify_regular.  Output is sorted; a point that is
    not three ints raises DomainError.
    """
    return _scan(points, 4, _is_twice_square, verify_regular)


def _check_grid_size(n: int, force: bool) -> None:
    check_range("n", n, 0)
    if n > GRID_GUARD and not force:
        raise RangeError(
            f"grid size n = {n} exceeds the brute-force cap {GRID_GUARD}; "
            "the library keyword force=True lifts it")


def _grid_points(n: int) -> list[Point]:
    return [(x, y, z) for x in range(n + 1) for y in range(n + 1) for z in range(n + 1)]


def _grid_scan(n: int, size: int, lengths: Iterable[int], verify) -> list:
    """The shapes of size vertices and a squared side in lengths in the
    cube {0..n}^3, each confirmed by verify, sorted.

    A shape in the cube less its least vertex P is one of
    _origin_shapes(s, size, n), in the cube at P exactly when P is in its
    box [-min, n - max] on each axis.  Vertices are the shared tuples of
    _grid_points(n), at flat index (x*(n+1) + y)*(n+1) + z.
    """
    pts = _grid_points(n)
    w = n + 1
    shapes = []
    for s in lengths:
        for shape in _origin_shapes(s, size, n):
            box = [range(-min(axis), n - max(axis) + 1) for axis in zip(*shape)]
            bases = [(x * w + y) * w + z for x, y, z in product(*box)]
            columns = ([pts[b + (x * w + y) * w + z] for b in bases] for x, y, z in shape)
            shapes.extend(zip(*columns))
    shapes.sort()
    for shape in shapes:
        verify(*shape)
    return shapes


def brute_triangles_grid(n: int, *, force: bool = False) -> list[Triangle]:
    """Equilateral triangles with vertices in the cube {0..n}^3.

    Counts distinct vertex sets; the n = 1 cube has 8 (the faces of the
    two inscribed tetrahedra).  Each triangle is placed from the origin
    (_grid_scan) for every even squared side s <= 3*n*n: no triangle has
    an odd one (_pair_graphs).
    """
    _check_grid_size(n, force)
    return _grid_scan(n, 3, range(2, 3 * n * n + 1, 2), _verify_triangle)


def brute_tetrahedra_grid(n: int, *, force: bool = False) -> list[Tetrahedron]:
    """Regular tetrahedra with vertices in the cube {0..n}^3.

    The n = 1 cube contains exactly the 2 inscribed regular tetrahedra.
    Each tetrahedron is placed from the origin (_grid_scan) for every
    squared side 2*k*k <= 3*n*n, the only sides (scan_tetrahedra).
    """
    _check_grid_size(n, force)
    return _grid_scan(n, 4, [2 * k * k for k in range(1, isqrt(3 * n * n // 2) + 1)], verify_regular)


def _sphere(r2: int) -> list[Point]:
    """The lattice points p with |p|^2 = r2 in sorted order, found with one
    isqrt per (x, y): about r2 steps instead of the cube's r2^1.5."""
    sphere: list[Point] = []
    for x in range(-isqrt(r2), isqrt(r2) + 1):
        y_reach = isqrt(r2 - x * x)
        for y in range(-y_reach, y_reach + 1):
            rest = r2 - x * x - y * y
            z = isqrt(rest)
            if z * z == rest:
                sphere.extend([(x, y, -z), (x, y, z)] if z else [(x, y, 0)])
    return sphere


def brute_t0(ell: int) -> list[LatticeTetrahedron]:
    """Regular tetrahedra with a vertex at the origin and squared side
    2*ell*ell, sorted by vertices: each origin shape of that side
    (_origin_shapes) moved onto each of its vertices in turn, verified by
    from_vertices.  The sphere takes about ell^2 steps, the translation
    the square of its size.  ell above BRUTE_T0_MAX raises RangeError.
    """
    check_range("ell", ell, 1, BRUTE_T0_MAX)
    return sorted(LatticeTetrahedron.from_vertices([sub(p, c) for p in shape])
                  for shape in _origin_shapes(2 * ell * ell, 4) for c in shape)


class ComparisonReport(namedtuple("ComparisonReport", "missing extra")):
    """Difference between a parametrized set and the brute-force referee."""

    __slots__ = ()

    def is_empty(self) -> bool:
        return not self.missing and not self.extra


def compare(parametrized, brute) -> ComparisonReport:
    """missing = found only by brute force, extra = only parametrized."""
    par = set(parametrized)
    bru = set(brute)
    return ComparisonReport(missing=tuple(sorted(bru - par)), extra=tuple(sorted(par - bru)))


def read_bfile(path) -> list[tuple[int, int]]:
    """Parse an OEIS b-file: one 'index value' pair per line.

    Blank lines and '#' comments are ignored; anything else malformed,
    including bytes that are not UTF-8 and an index listed twice, raises
    DomainError with the offending line number, and a file that cannot
    be read raises DomainError naming it.
    """
    try:
        data = Path(path).read_bytes()
        text = data.decode()
    except FileNotFoundError:
        raise DomainError(f"no such file: {path}") from None
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DomainError(f"{path}:{lineno}: not UTF-8 text") from None
    terms: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DomainError(f"{path}:{lineno}: expected 'index value', got {raw!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise DomainError(f"{path}:{lineno}: non-integer field in {raw!r}") from None
        if index in terms:
            raise DomainError(f"{path}:{lineno}: index {index} is listed twice")
        terms[index] = value
    return list(terms.items())


class OffsetReport(namedtuple("OffsetReport", "offset mismatches missing")):
    """Comparison of our counts against b-file terms under one index offset.

    Offset o matches our grid size n against file index n + o.
    mismatches holds (n, ours, theirs) where the two differ; missing
    lists grid sizes the file does not cover at this offset.
    """

    __slots__ = ()

    @property
    def matched(self) -> bool:
        return not self.mismatches and not self.missing


def compare_with_bfile(counts: dict[int, int], terms: list[tuple[int, int]]) -> tuple[OffsetReport, ...]:
    """Compare computed grid counts with b-file terms under offsets 0 and 1.

    Sequence catalogs disagree about whether the index counts grid
    points or unit cells, so both conventions are reported instead of
    asserting one.
    """
    table = dict(terms)
    reports = []
    for offset in (0, 1):
        mismatches = []
        missing = []
        for n in sorted(counts):
            theirs = table.get(n + offset)
            if theirs is None:
                missing.append(n)
            elif counts[n] != theirs:
                mismatches.append((n, counts[n], theirs))
        reports.append(OffsetReport(offset, tuple(mismatches), tuple(missing)))
    return tuple(reports)
