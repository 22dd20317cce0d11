"""Brute-force scans that referee the parametrized constructions.

Nothing here knows about the coefficient machinery: candidates come
from raw distance bookkeeping over explicit point sets and every hit is
confirmed by the verify functions, so these scans are a fair referee
for enumerate_t0 and grid_counts: the grid scans referee grid counts
and no longer produce them.  One clique search serves every scan, on
the equal-distance graphs of only the squared distances its caller
reads, built by pairing points of one coordinate-sum parity
(_pair_graphs) or, where the squared sides are known, by translation
(_translation_graph).  The grid referees search cliques only through
the origin and place each at every translate that stays in the cube,
so each shape is found once, from its least vertex (_grid_scan).
Guards keep the scans at desk scale unless explicitly overridden.
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
# brute_t0 finds its sphere in about ell^2 steps, then translates each point
# along the sphere: oracle-compare takes 1.2-1.4 s at ell = 245, 285 and 295,
# the slowest ell up to 300 (2-vCPU VM).
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


def _translation_graph(points: list[Point], vectors: list[Point]) -> dict[int, set[int]]:
    """The equal-distance graph on the sorted points for one squared
    length s, stored as _pair_graphs stores its graphs, given all the
    vectors of squared length s that can join two of the points.

    Q is at squared distance s from P exactly when Q - P is a vector of
    squared length s, so the later neighbours of P are the points among
    P + v for the vectors v that sort after the origin.  Each point and
    vector is encoded as (x*W + y)*W + z with W = 4m + 1, m the largest
    |coordinate| among them: the map is linear, and one-to-one and
    order-preserving on triples with coordinates within +-2m, which holds
    every P + v, so one set intersection finds the neighbours of a point.
    """
    w = 4 * max(map(abs, chain.from_iterable(chain(points, vectors))), default=0) + 1
    index = {(x * w + y) * w + z: i for i, (x, y, z) in enumerate(points)}
    codes = set(index)
    ahead = [c for c in ((x * w + y) * w + z for x, y, z in vectors) if c > 0]
    graph = {}
    for e, i in index.items():
        if hits := codes.intersection(map(add, repeat(e), ahead)):
            graph[i] = set(map(index.__getitem__, hits))
    return graph


def _cliques(graphs: list[dict[int, set[int]]], size: int) -> Iterator[tuple[int, ...]]:
    """Yield each 3-clique (size 3) or 4-clique (size 4) of each graph of
    later neighbours once, as increasing indices."""
    for graph in graphs:
        for i, after_i in graph.items():
            for j in after_i:
                common = after_i.intersection(graph.get(j, ()))
                for t in common:
                    if size == 3:
                        yield i, j, t
                    else:
                        yield from ((i, j, t, u) for u in common.intersection(graph.get(t, ())))


def _is_twice_square(s2: int) -> bool:
    if s2 % 2:
        return False
    half = s2 // 2
    root = isqrt(half)
    return root * root == half


def _verify_triangle(a: Point, b: Point, c: Point) -> int:
    return verify_equilateral(sub(b, a), sub(c, a))


def _scan(points, size: int, graphs, verify) -> list:
    """The size-cliques of the graphs that graphs (_pair_graphs, or
    _translation_graph in a list) builds on the sorted distinct points,
    as point tuples, each confirmed by verify, sorted.  A point that is
    not a tuple or list of three ints (a bool is not one) raises
    DomainError naming the first such point, before any pairing."""
    pts = list(points)
    for p in pts:
        if type(p) not in (tuple, list) or len(p) != 3 or any(type(c) is not int for c in p):
            raise DomainError(f"point {p!r} is not three integers")
    pts = sorted({tuple(p) for p in pts})
    shapes = sorted(tuple(map(pts.__getitem__, clique)) for clique in _cliques(graphs(pts), size))
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
    return _scan(points, 3, lambda pts: _pair_graphs(pts, None), _verify_triangle)


def scan_tetrahedra(points) -> list[Tetrahedron]:
    """All regular tetrahedra with vertices in the given point set.

    Candidates are 4-cliques of the equal-distance graphs, and only
    pairs at squared distances 2*k*k are stored: a lattice tetrahedron
    has no other squared side (the tests check this against a scan of
    every 4-point subset at every distance).  Every candidate is
    confirmed with verify_regular.  Output is sorted; a point that is
    not three ints raises DomainError.
    """
    return _scan(points, 4, lambda pts: _pair_graphs(pts, _is_twice_square), verify_regular)


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

    A shape's least vertex P, subtracted from its vertices, leaves the
    origin and vectors of _sphere(s) that sort after it and lie in
    {-n..n}^3: a clique through the origin of their translation graph.
    The shape is in the cube exactly when P is in the box [-min, n - max]
    of the clique on each axis, so placing each such clique at every P of
    its box finds every shape once.  Vertices are the shared tuples of
    _grid_points(n), at flat index (x*(n+1) + y)*(n+1) + z.
    """
    pts = _grid_points(n)
    w = n + 1
    shapes = []
    for s in lengths:
        vectors = [v for v in _sphere(s) if max(map(abs, v)) <= n]
        ahead = [ORIGIN] + [v for v in vectors if v > ORIGIN]
        for clique in _cliques([_translation_graph(ahead, vectors)], size):
            if clique[0]:  # not through the origin, index 0
                continue
            shape = [ahead[i] for i in clique]
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
    2*ell*ell, found by raw sphere scanning, sorted by vertices.

    The other three vertices lie on the sphere of squared radius
    2*ell*ell and are pairwise at that same squared distance, so with the
    origin they are the 4-cliques of that distance graph, found by
    translation along the sphere itself; no four points of the sphere
    form one, as a regular tetrahedron of squared side s has squared
    circumradius 3s/8.  Finding the sphere takes about ell^2 steps, the
    translation the square of its size.  ell above BRUTE_T0_MAX raises
    RangeError before any scan.
    """
    check_range("ell", ell, 1, BRUTE_T0_MAX)
    sphere = _sphere(2 * ell * ell)
    return [LatticeTetrahedron.from_vertices(tet)
            for tet in _scan(sphere + [ORIGIN], 4, lambda pts: [_translation_graph(pts, sphere)], verify_regular)]


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
