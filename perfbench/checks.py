"""Output checks that share no code with ztetra.

Every checker raises CheckError naming the first violation, and returns
the number of workload items the output holds.  Integers must be real
JSON integers: booleans and floats are rejected.
"""

from __future__ import annotations

import json
from math import gcd, isqrt


class CheckError(Exception):
    """An output failed an independent check."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def is_int(x) -> bool:
    return type(x) is int


def point(x) -> tuple[int, int, int]:
    need(isinstance(x, list) and len(x) == 3 and all(is_int(c) for c in x), f"not a lattice point: {x!r}")
    return (x[0], x[1], x[2])


def dist2(p, q) -> int:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2


def zeta(m: int, n: int) -> int:
    return m * m - m * n + n * n


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def small_factors(n: int) -> dict[int, int]:
    """Trial division, for the small inputs the checks factor themselves."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def zeta_reps(factors: dict[int, int]) -> int:
    """Number of integer (m, n) with zeta(m, n) equal to the product of factors."""
    total = 6
    for p, e in factors.items():
        if p % 3 == 1:
            total *= e + 1
        elif p % 3 == 2 and e % 2:
            return 0
    return total


def regular_simplex(points, side_sq: int, what: str) -> None:
    """All pairwise squared distances equal side_sq > 0."""
    need(side_sq > 0, f"{what}: squared side {side_sq} is not positive")
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d2 = dist2(points[i], points[j])
            need(d2 == side_sq, f"{what}: |v{i} v{j}|^2 = {d2}, expected {side_sq}")


# --- t0-enumerate ---------------------------------------------------------

def check_t0_output(text: str, ell: int, expected_count: int) -> int:
    """JSONL of ``enumerate-t0 --ell ell``: distinct regular origin
    tetrahedra of squared side 2*ell^2, then one matching count record."""
    lines = text.splitlines()
    need(bool(lines), "empty output")
    side_sq = 2 * ell * ell
    seen: set[frozenset] = set()
    for lineno, line in enumerate(lines[:-1], start=1):
        rec = json.loads(line)
        need(rec.get("kind") == "tetrahedron", f"line {lineno}: kind {rec.get('kind')!r}")
        need(rec.get("side_sq") == side_sq and is_int(rec["side_sq"]), f"line {lineno}: side_sq {rec.get('side_sq')!r}")
        need(rec.get("ell") == ell and is_int(rec["ell"]), f"line {lineno}: ell {rec.get('ell')!r}")
        verts = rec.get("vertices")
        need(isinstance(verts, list) and len(verts) == 4, f"line {lineno}: vertices {verts!r}")
        pts = [point(v) for v in verts]
        need((0, 0, 0) in pts, f"line {lineno}: origin is not a vertex")
        regular_simplex(pts, side_sq, f"line {lineno}")
        key = frozenset(pts)
        need(key not in seen, f"line {lineno}: duplicate tetrahedron")
        seen.add(key)
    count = json.loads(lines[-1])
    need(count == {"kind": "count", "what": "tetrahedra_t0", "ell": ell, "value": len(seen)},
         f"count record {count!r} does not match {len(seen)} records")
    need(len(seen) == expected_count, f"|T0({ell})| = {len(seen)}, expected {expected_count}")
    return len(seen)


# --- arith ------------------------------------------------------------------

def check_factorize(n: int, result, expected: dict[int, int]) -> int:
    need(isinstance(result, dict) and result.get("value") == n, f"factorize({n}) value {result!r}")
    factors = result.get("factors")
    need(isinstance(factors, list) and factors, f"factorize({n}) factors {factors!r}")
    product = 1
    last = 1
    for f in factors:
        need(isinstance(f, list) and len(f) == 2 and all(is_int(x) for x in f), f"factor {f!r}")
        p, e = f
        need(p > last and e >= 1 and is_prime(p), f"factorize({n}): bad factor {p}^{e}")
        product *= p ** e
        last = p
    need(product == n, f"factorize({n}) multiplies back to {product}")
    need({p: e for p, e in factors} == expected, f"factorize({n}) = {factors}, expected {expected}")
    return 1


def check_count_representations(n: int, result, factors: dict[int, int]) -> int:
    want = zeta_reps(factors)
    need(is_int(result) and result == want, f"count_representations({n}) = {result!r}, expected {want}")
    return 1


def check_is_loeschian(n: int, result, factors: dict[int, int]) -> int:
    want = zeta_reps(factors) > 0
    need(type(result) is bool and result == want, f"is_loeschian({n}) = {result!r}, expected {want}")
    return 1


def check_solve_two_q(q: int, result, half_factors: dict[int, int]) -> int:
    """(r, s) with s^2 + 3r^2 = 2q.  (r, s) -> ((s + r)/2, r) is a
    bijection onto zeta(x, y) = q/2, so the count is known from q/2."""
    need(isinstance(result, list), f"solve_two_q({q}) returned {result!r}")
    pairs = set()
    for item in result:
        need(isinstance(item, list) and len(item) == 3 and all(is_int(x) for x in item), f"pair {item!r}")
        r, s, qq = item
        need(qq == q and s * s + 3 * r * r == 2 * q, f"solve_two_q({q}): (r, s) = ({r}, {s}) fails")
        pairs.add((r, s))
    need(len(pairs) == len(result), f"solve_two_q({q}): duplicate pairs")
    need(all((-r, s) in pairs and (r, -s) in pairs for r, s in pairs), f"solve_two_q({q}): not sign-closed")
    want = zeta_reps(half_factors) if q % 2 == 0 else 0
    need(len(pairs) == want, f"solve_two_q({q}): {len(pairs)} pairs, expected {want}")
    return 1


def check_solve_three_d2(d: int, result) -> int:
    need(isinstance(result, list) and result, f"solve_three_d2({d}) returned {result!r}")
    seen = set()
    for item in result:
        need(isinstance(item, list) and len(item) == 4 and all(is_int(x) for x in item), f"quadruple {item!r}")
        a, b, c, dd = item
        need(dd == d and a * a + b * b + c * c == 3 * d * d, f"solve_three_d2({d}): {item} fails")
        need(a > 0 and gcd(gcd(a, b), c) == 1, f"solve_three_d2({d}): {item} is not primitive with a > 0")
        seen.add((a, b, c))
    need(len(seen) == len(result), f"solve_three_d2({d}): duplicates")
    return 1


def check_omega(k: int, result) -> int:
    need(isinstance(result, list), f"omega({k}) returned {result!r}")
    pairs = set()
    for item in result:
        need(isinstance(item, list) and len(item) == 2 and all(is_int(x) for x in item), f"pair {item!r}")
        need(zeta(*item) == k * k, f"omega({k}): zeta{tuple(item)} != {k}^2")
        pairs.add(tuple(item))
    want = zeta_reps({p: 2 * e for p, e in small_factors(k).items()})
    need(len(pairs) == len(result) == want, f"omega({k}): {len(pairs)} distinct pairs, expected {want}")
    return 1


def check_primitive_triples(kmax: int, result) -> int:
    need(isinstance(result, list) and result, f"primitive_triples({kmax}) returned {result!r}")
    last = None
    for item in result:
        need(isinstance(item, list) and len(item) == 3 and all(is_int(x) for x in item), f"triple {item!r}")
        m, n, k = item
        need(m > 0 and n > 0 and 1 <= k <= kmax, f"primitive_triples({kmax}): {item} out of range")
        need(gcd(m, n) == 1 and zeta(m, n) == k * k, f"primitive_triples({kmax}): {item} fails")
        key = (k, m, n)
        need(last is None or key > last, f"primitive_triples({kmax}): not sorted or duplicated at {item}")
        last = key
    return 1


# --- oracle -----------------------------------------------------------------

def check_shapes(shapes, size: int, *, corners: int, n: int | None = None, ell: int | None = None) -> int:
    """Distinct regular simplices with `corners` vertices, inside the
    cube {0..n}^3 or with a vertex at the origin and side 2*ell^2."""
    need(isinstance(shapes, list), f"shapes {shapes!r}")
    seen = set()
    for shape in shapes:
        need(isinstance(shape, list) and len(shape) == corners, f"shape {shape!r}")
        pts = [point(v) for v in shape]
        if n is not None:
            need(all(0 <= c <= n for p in pts for c in p), f"shape {pts} leaves the cube of side {n}")
            side_sq = dist2(pts[0], pts[1])
        else:
            need((0, 0, 0) in pts, f"shape {pts} misses the origin")
            side_sq = 2 * ell * ell
        regular_simplex(pts, side_sq, f"shape {pts}")
        key = frozenset(pts)
        need(key not in seen, f"duplicate shape {pts}")
        seen.add(key)
    need(len(seen) == size, f"{len(seen)} shapes, expected {size}")
    return len(seen)


def check_compare_t0(ell: int, result) -> int:
    need(isinstance(result, dict), f"compare_t0({ell}) returned {result!r}")
    need(result.get("missing") == 0 and result.get("extra") == 0,
         f"compare(enumerate_t0({ell}), brute_t0({ell})) is not empty: {result.get('missing')} missing, "
         f"{result.get('extra')} extra")
    shapes = result.get("shapes")
    return check_shapes(shapes, len(shapes) if isinstance(shapes, list) else -1, corners=4, ell=ell)


# --- verify -----------------------------------------------------------------

def check_verify_output(text: str, records: int) -> int:
    lines = text.splitlines()
    need(len(lines) == 1, f"verify printed {len(lines)} lines")
    rec = json.loads(lines[0])
    need(rec == {"kind": "count", "what": "verified_records", "value": records},
         f"verify reported {rec!r} for {records} records")
    return records


def check_record(rec: dict) -> None:
    """The defining property of one record the verify generator writes."""
    need(isinstance(rec, dict), f"record {rec!r}")
    kind = rec.get("kind")
    if kind == "tetrahedron":
        verts = rec.get("vertices")
        need(isinstance(verts, list) and len(verts) == 4, f"vertices {verts!r}")
        ell, side_sq = rec.get("ell"), rec.get("side_sq")
        need(is_int(ell) and is_int(side_sq) and side_sq == 2 * ell * ell, f"ell {ell!r}, side_sq {side_sq!r}")
        regular_simplex([point(v) for v in verts], side_sq, "tetrahedron")
    elif kind == "triangle":
        side_sq = rec.get("side_sq")
        need(is_int(side_sq), f"side_sq {side_sq!r}")
        regular_simplex([(0, 0, 0), point(rec.get("p")), point(rec.get("q"))], side_sq, "triangle")
    elif kind == "quadruple":
        a, b, c, d, q = (rec.get(key) for key in "abcdq")
        need(all(is_int(x) for x in (a, b, c, d, q)), f"quadruple fields {rec!r}")
        need(d > 0 and d % 2 == 1 and a * a + b * b + c * c == 3 * d * d and q == a * a + b * b,
             f"quadruple {rec!r} fails")
    elif kind == "pair":
        m, n, k = rec.get("m"), rec.get("n"), rec.get("k")
        need(all(is_int(x) for x in (m, n, k)) and k > 0 and zeta(m, n) == k * k, f"pair {rec!r} fails")
    elif kind == "triple":
        m, n, k, u, v, form = (rec.get(key) for key in ("m", "n", "k", "u", "v", "form"))
        need(all(is_int(x) for x in (m, n, k, u, v, form)), f"triple fields {rec!r}")
        want = {1: (v * v - u * u, 2 * u * v - u * u), 2: (2 * u * v - u * u, 2 * u * v - v * v)}.get(form)
        need(want == (m, n) and k == zeta(u, v) and k > 0 and zeta(m, n) == k * k, f"triple {rec!r} fails")
    elif kind == "normal-set":
        faces = rec.get("faces")
        need(isinstance(faces, list) and len(faces) == 4, f"faces {faces!r}")
        for f in faces:
            need(isinstance(f, list) and len(f) == 4 and all(is_int(x) for x in f), f"face {f!r}")
            a, b, c, d = f
            need(d > 0 and d % 2 == 1 and a * a + b * b + c * c == 3 * d * d, f"face {f} fails a^2+b^2+c^2 = 3d^2")
        # With a^2+b^2+c^2 = 3d^2, rows (a, b, c, d)/(2d) are unit vectors;
        # pairwise zero 4-dot products make the 4x4 matrix orthogonal.
        for i in range(4):
            for j in range(i + 1, 4):
                dot4 = sum(x * y for x, y in zip(faces[i], faces[j]))
                need(dot4 == 0, f"faces {i} and {j} have 4-dot {dot4}")
    else:
        raise CheckError(f"unexpected record kind {kind!r}")
