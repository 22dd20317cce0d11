"""Exact integer arithmetic underpinning the lattice constructions.

Everything works on plain Python integers with range checks at the
boundary, so intermediate arithmetic is exact and cannot wrap.
Factorization drives everything else: trial division by the primes
below 1000, then deterministic Miller-Rabin and Pollard's rho with
Brent's cycle detection for what remains, which factors every accepted
input (up to 2**63 - 1) in well under a second.  The Diophantine
solvers read their solutions off that factorization in the Gaussian
and Eisenstein integers instead of scanning for them: solve_two_q is
the one (r, s) solver, and solve_three_d2 factors 3*d*d - c*c for each
odd largest coordinate d <= c < d*sqrt(3) with one sieve over c, so its
cost grows with d*d and d is capped at THREE_D2_DMAX.  The records are
named tuples that validate in their constructor, or in the bulk
producers' inline copy of its test.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from itertools import count, permutations
from math import gcd, isqrt

from .errors import DomainError, RangeError

INT64_MAX = 2**63 - 1

THREE_D2_DMAX = 10**5

# Miller-Rabin to the first k prime bases is exact below the smallest
# composite that passes all of them (OEIS A014233): (bound, k) pairs.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = ((3215031751, 4), (3474749660383, 6), (341550071728321, 7),
             (3825123056546413051, 9), (318665857834031151167461, 12),
             (3317044064679887385961981, 13))
_MR_EXACT_BELOW = _MR_EXACT[-1][0]

# t in theta*theta == t*theta - 1: the Gaussian integers Z[i] and the
# Eisenstein integers Z[omega].
_GAUSSIAN = 0
_EISENSTEIN = -1
# The units of Z[omega], its elements of norm 1.
_UNITS = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1) if x * x - x * y + y * y == 1]


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


_SMALL_PRIMES = _primes_below(1000)
# A rest with no prime factor below 1000 is 1 or a prime below 1000**2.
_PRIME_BELOW = 1000 * 1000


# (p, a square root of 3 mod p or None) for the odd primes p below 1000, the sieve
# table of _three_d2_factors; p > 3 has one iff p == +-1 mod 12 (quadratic reciprocity).
_SQRT3 = tuple((p, next(r for r in range(p) if r * r % p == 3) if p % 12 in (1, 11) else 0 if p == 3 else None)
               for p in _SMALL_PRIMES[1:])


def check_range(name: str, value: int, low: int, cap: int = INT64_MAX) -> None:
    """Reject values outside [low, 2**63 - 1], then values above cap."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise RangeError(f"{name} must be an integer, got {value!r}")
    if value < low or value > INT64_MAX:
        raise RangeError(f"{name} must be in [{low}, 2**63 - 1], got {value}")
    if value > cap:
        raise RangeError(f"{name} must be at most {cap}, got {value}")


class Factorization(namedtuple("Factorization", "value factors")):
    """Prime factorization: value == product of p**e over factors.

    factors is sorted by prime and every exponent is at least 1.
    """

    __slots__ = ()


class RSPair(namedtuple("RSPair", "r s q")):
    """Solution (r, s) of s*s + 3*r*r == 2*q for a fixed q."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, r: int, s: int, q: int) -> RSPair:
        if s * s + 3 * r * r != 2 * q:
            raise DomainError(f"(r, s) = {(r, s)} does not solve s^2 + 3r^2 = 2q for q = {q}")
        return tuple.__new__(cls, (r, s, q))


class NormalQuadruple(namedtuple("NormalQuadruple", "a b c d")):
    """Solution (a, b, c, d) of a^2 + b^2 + c^2 == 3*d^2 with d odd.

    A primitive solution (gcd(a, b, c) == 1) is the normal direction of
    a lattice plane through the origin carrying equilateral triangles
    with squared side 2*d*d*zeta(m, n).  Only the defining equation is
    enforced here (solve_three_d2 runs this test inline); the producers
    add their own sharper conventions (solve_three_d2 emits primitive
    sign-canonical quadruples, face normals are primitive and outward,
    and the adjacent-plane construction legitimately rescales to
    non-primitive quadruples).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, a: int, b: int, c: int, d: int) -> NormalQuadruple:
        if d < 1 or d % 2 == 0:
            raise DomainError(f"d must be a positive odd integer, got {d}")
        if a * a + b * b + c * c != 3 * d * d:
            raise DomainError(f"{(a, b, c)} does not satisfy a^2 + b^2 + c^2 = 3*{d}^2")
        return tuple.__new__(cls, (a, b, c, d))

    @property
    def q(self) -> int:
        """a*a + b*b, the denominator appearing in the generator coefficients."""
        return self.a * self.a + self.b * self.b

    @property
    def normal(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def is_primitive(self) -> bool:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c)) == 1


def factorize(t: int) -> Factorization:
    """Prime factorization of t with 1 <= t <= 2**63 - 1.

    Trial division by the primes below 1000 stops as soon as p*p
    exceeds the unfactored rest, which is then 1 or a prime.  A rest
    that outlasts the table has only prime factors above 1000 and is
    split by Pollard's rho (Brent's variant), with Miller-Rabin deciding
    primality.

    >>> factorize(5978882).factors
    ((2, 1), (7, 2), (13, 2), (19, 2))
    >>> factorize(2**61 - 1).factors
    ((2305843009213693951, 1),)
    """
    check_range("t", t, 1)
    return Factorization(t, _prime_factors(t))


def _prime_factors(t: int) -> tuple[tuple[int, int], ...]:
    """The factors of factorize(t), for a t already known to be in range."""
    factors: list[tuple[int, int]] = []
    rest = t
    for p in _SMALL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    return _finish(factors, rest)


def _finish(factors: list[tuple[int, int]], rest: int) -> tuple[tuple[int, int], ...]:
    """factors, then the factors of rest, as one tuple.

    The caller has divided out of rest every prime below 1000, or every
    prime up to sqrt(rest): so rest is 1, a prime, or, only from 1000**2
    on, a product of primes above 1000.  Every part below 1000**2 is
    then 1 or a prime, and Miller-Rabin sorts the larger ones into
    primes and composites that Pollard's rho splits.
    """
    exponents: dict[int, int] = {}
    todo = [rest]
    while todo:
        m = todo.pop()
        if m >= _PRIME_BELOW and not is_prime(m):
            f = _pollard_brent(m)
            todo += (f, m // f)
        elif m > 1:
            exponents[m] = exponents.get(m, 0) + 1
    return (*factors, *sorted(exponents.items()))


def _pollard_brent(n: int) -> int:
    """A proper divisor of the odd composite n by Pollard's rho with
    Brent's cycle detection.

    Iterates y -> y*y + c mod n and folds 128 differences at a time into
    one gcd; a batch that overshoots to the gcd n is replayed step by
    step, and a c whose cycle closes without a proper divisor is
    replaced by c + 1.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test to the bases 2, 3, ..., 41.

    Exact for every n below 3317044064679887385961981 (about 3.3*10**24,
    the smallest composite these bases pass), which covers every input
    the package accepts; larger n raise RangeError.  A smaller n is
    tested only to the bases its bound in _MR_EXACT needs, four below
    3215031751.

    >>> [n for n in (2**61 - 1, 3215031751, 341550071728321) if is_prime(n)]
    [2305843009213693951]
    """
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise RangeError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    k = next(k for bound, k in _MR_EXACT if n < bound)
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_loeschian(t: int) -> bool:
    """Whether t is representable as m*m - m*n + n*n.

    That is, whether count_representations(t) is nonzero; 0 counts via
    (m, n) = (0, 0).
    """
    check_range("t", t, 0)
    return t == 0 or count_representations(t) > 0


def count_representations(k: int) -> int:
    """Number of ordered integer pairs (m, n) with m*m - m*n + n*n == k.

    Writing k = 3**alpha * a*a * b with b a product of primes 1 mod 6
    and a free of them, the count is 6 times the product of (e + 1) over
    the prime powers p**e dividing b, and 0 when no such decomposition
    exists (some prime 2 or 5 mod 6 occurs to an odd power).

    >>> count_representations(49)
    18
    """
    check_range("k", k, 1)
    total = 1
    for p, e in factorize(k).factors:
        if p == 3:
            continue
        if p % 6 == 1:
            total *= e + 1
        elif e % 2:
            return 0
    return 6 * total


def _norm_classes(factors: Iterable[tuple[int, int]], t: int) -> list[tuple[int, int]]:
    """One (x, y) with x*x + t*x*y + y*y == N per class of associates.

    (x, y) stands for x + y*theta with theta*theta == t*theta - 1: the
    Gaussian integers (t = 0, theta = i, norm x^2 + y^2) or the
    Eisenstein integers (t = -1, theta = omega, norm x^2 - xy + y^2).
    Both rings have unique factorization and the norm is multiplicative,
    so the solutions are the products of one element of norm p**e per
    prime power, times a unit:

    - the ramified prime 2 - t (2, resp. 3) gives (1 - theta)**e;
    - a split prime (1 mod 4, resp. 1 mod 3) is pi * conj(pi) and gives
      pi**i * conj(pi)**(e - i) for i = 0..e;
    - an inert prime gives p**(e/2), and none at all if e is odd.

    By unique factorization, distinct choices are never associates.
    """
    order = 4 + t  # theta is a primitive 4th, resp. cube, root of unity
    elements = [(1, 0)]
    for p, e in factors:
        if p == 2 - t:
            choices = _powers((1, -1), e, t)[e:]
        elif p % order == 1:
            up = _powers(_split_prime(p, t), e, t)
            # pi**i * conj(pi)**(e - i), with conj(x + y*theta) == (x + t*y) - y*theta
            choices = [_mul(up[i], (x + t * y, -y), t) for i, (x, y) in enumerate(reversed(up))]
        elif e % 2:
            return []
        else:
            choices = [(p ** (e // 2), 0)]
        elements = [_mul(x, y, t) for x in elements for y in choices]
    return elements


def _mul(u: tuple[int, int], v: tuple[int, int], t: int) -> tuple[int, int]:
    (a, b), (c, d) = u, v
    return (a * c - b * d, a * d + b * c + t * b * d)


def _powers(base: tuple[int, int], e: int, t: int) -> list[tuple[int, int]]:
    out = [(1, 0)]
    for _ in range(e):
        out.append(_mul(out[-1], base, t))
    return out


def _split_prime(p: int, t: int) -> tuple[int, int]:
    """An element of norm p for a prime p that splits in the ring of t.

    theta becomes a root g of g*g - t*g + 1 modulo a prime above p: a
    primitive 4th root of unity mod p for the Gaussian integers and a
    cube root for the Eisenstein integers, found as h**((p - 1)/order).
    Then 2g - t is a square root of -D mod p with D = 4 - t*t, and
    Cornacchia's algorithm turns it into p == X*X + D*Y*Y, that is the
    norm of (X - t*Y) + 2Y*theta.
    """
    order = 4 + t
    for h in count(2):
        g = pow(h, (p - 1) // order, p)
        if (g * g - t * g + 1) % p == 0:
            break
    a, b = p, (2 * g - t) % p
    while b * b > p:
        a, b = b, a % b
    y = isqrt((p - b * b) // (4 - t * t))
    return (b - t * y, 2 * y)


def zeta_pairs(factors: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Every integer pair (m, n) with m*m - m*n + n*n == N, unordered.

    factors is the factorization of N >= 1 as (prime, exponent) pairs;
    m + n*omega runs over the Eisenstein integers of norm N.

    >>> pairs = zeta_pairs(factorize(49).factors)
    >>> len(pairs), (8, 3) in pairs, (5, -3) in pairs
    (18, True, True)
    """
    return [_mul(unit, x, _EISENSTEIN) for x in _norm_classes(factors, _EISENSTEIN) for unit in _UNITS]


def solve_two_q(q: int) -> list[RSPair]:
    """All integer pairs (r, s) with s*s + 3*r*r == 2*q.

    The list is closed under sign flips of either component and sorted
    by (|r|, r, s); it is empty when 2*q is not represented.  s and r
    have the same parity, so 4 divides 2*q and odd q has no solution;
    for even q, (r, s) = (n, 2m - n) maps the solutions of
    zeta(m, n) == q/2 one to one onto them.
    """
    check_range("q", q, 1)
    if q % 2:
        return []
    keyed = sorted((abs(n), n, 2 * m - n) for m, n in zeta_pairs(_prime_factors(q // 2)))
    return [RSPair(r, s, q) for _, r, s in keyed]


def solve_three_d2(d: int) -> list[NormalQuadruple]:
    """All primitive quadruples (a, b, c, d) with a^2 + b^2 + c^2 == 3*d^2.

    Finds the base solutions 0 < a <= b <= c with gcd 1, then expands
    to every coordinate permutation and sign pattern whose first
    coordinate is positive.  Sorted lexicographically on (a, b, c).
    d must be odd (the even case has no solutions worth inventing) and
    at most THREE_D2_DMAX = 10**5, else RangeError.  Since
    3*d*d == 3 mod 8, a primitive solution has a, b and c all odd, so
    for each odd c with d <= c < d*sqrt(3) (the range of the largest
    coordinate) the pairs (a, b) are the sums of two squares
    a*a + b*b == 3*d*d - c*c, read off the factorization of that number
    in the Gaussian integers.  One sieve over c factors all of them.
    """
    check_range("d", d, 1)
    if d % 2 == 0:
        raise DomainError(f"d must be odd, got {d}")
    check_range("d", d, 1, THREE_D2_DMAX)
    quads: list[NormalQuadruple] = []
    for a, b, c in sorted(plane for trip in _base_triples(d) for plane in _coset_maps(trip)):
        if a * a + b * b + c * c != 3 * d * d:
            raise DomainError(f"{(a, b, c)} does not satisfy a^2 + b^2 + c^2 = 3*{d}^2")
        quads.append(tuple.__new__(NormalQuadruple, (a, b, c, d)))
    return quads


def _base_triples(d: int) -> Iterator[tuple[int, int, int]]:
    """The base solutions of solve_three_d2: 0 < a <= b <= c, gcd 1,
    a^2 + b^2 + c^2 == 3*d^2, for an odd d the caller has range-checked.

    Yielded one at a time, by increasing c; every other primitive
    solution is a signed permutation of exactly one of them.  The largest
    coordinate c is odd with d*d <= c*c < 3*d*d: c*c is at least d*d, the
    mean of the three squares, and a, b > 0.  (a, b) is the
    first-quadrant element of an associate class of norm 3*d*d - c*c
    (2 mod 8, so x*y != 0); the conjugate class gives (b, a), and a + a*i
    is an associate of its conjugate, so a <= b keeps each {a, b} once.
    """
    for c, factors in zip(range(d, isqrt(3 * d * d) + 1, 2), _three_d2_factors(d)):
        for x, y in _norm_classes(factors, _GAUSSIAN):
            a, b = (abs(x), abs(y)) if x * y > 0 else (abs(y), abs(x))
            if a <= b <= c and gcd(gcd(a, b), c) == 1:
                yield a, b, c


def _three_d2_factors(d: int) -> list[tuple[tuple[int, int], ...]]:
    """_prime_factors(3*d*d - c*c) for the odd c in [d, d*sqrt(3)), by one
    sieve over c (odd d).

    2 divides each exactly once, as 3*d*d - c*c == 2 mod 8.  An odd
    prime p divides it exactly when c == +-r mod p with r*r == 3*d*d:
    r == 0 if p divides 3*d, r == d*sqrt(3) if 3 is a square mod p, and
    no r otherwise.  c = d + 2*i == r mod p at i == (r - d)*(p + 1)/2 mod
    p, in steps of p.  Sieving the odd primes below 1000 up to
    sqrt(3*d*d) leaves rests that _finish completes as it does for
    _prime_factors.
    """
    target = 3 * d * d
    rests = [(target - c * c) >> 1 for c in range(d, isqrt(target) + 1, 2)]
    factors = [[(2, 1)] for _ in rests]
    size = len(rests)
    for p, root3 in _SQRT3:
        if p * p > target:
            break
        if root3 is None and d % p:
            continue
        r = d * (root3 or 0) % p
        for root in {r, -r % p}:
            for i in range((root - d) * ((p + 1) // 2) % p, size, p):
                rest, e = rests[i] // p, 1
                while rest % p == 0:
                    rest //= p
                    e += 1
                rests[i] = rest
                factors[i].append((p, e))
    return [_finish(f, rest) for f, rest in zip(factors, rests)]


def _coset_maps(normal: tuple[int, int, int]) -> dict[tuple[int, int, int], tuple[int, ...]]:
    """The planes of the orbit of a base normal under the 48 signed
    coordinate permutations, each with one signed permutation taking
    normal to it.

    The planes are the distinct signed permutations of normal with a
    positive first coordinate (normal has none zero).  A map
    (i0, i1, i2, s1, s2) sends v to (v[i0], s1*v[i1], s2*v[i2]).
    """
    maps: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for i0, i1, i2 in permutations(range(3)):
        for s1 in (1, -1):
            for s2 in (1, -1):
                maps.setdefault((normal[i0], s1 * normal[i1], s2 * normal[i2]), (i0, i1, i2, s1, s2))
    return maps
