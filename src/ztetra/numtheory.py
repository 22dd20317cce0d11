"""Exact integer arithmetic underpinning the lattice constructions.

Everything works on plain Python integers with range checks at the
boundary, so intermediate arithmetic is exact and cannot wrap.
Factorization is trial division, which is adequate for the desk-scale
inputs (up to roughly 10**12) this package targets.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations
from math import gcd, isqrt

from .errors import DomainError, RangeError

INT64_MAX = 2**63 - 1


def check_range(name: str, value: int, low: int) -> None:
    """Reject values outside [low, 2**63 - 1]."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise RangeError(f"{name} must be an integer, got {value!r}")
    if value < low or value > INT64_MAX:
        raise RangeError(f"{name} must be in [{low}, 2**63 - 1], got {value}")


@dataclass(frozen=True)
class Factorization:
    """Prime factorization: value == product of p**e over factors.

    factors is sorted by prime and every exponent is at least 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RSPair:
    """Solution (r, s) of s*s + 3*r*r == 2*q for a fixed q."""

    r: int
    s: int
    q: int

    def __post_init__(self) -> None:
        if self.s * self.s + 3 * self.r * self.r != 2 * self.q:
            raise DomainError(
                f"(r, s) = {(self.r, self.s)} does not solve s^2 + 3r^2 = 2q for q = {self.q}")


@dataclass(frozen=True, order=True)
class NormalQuadruple:
    """Solution (a, b, c, d) of a^2 + b^2 + c^2 == 3*d^2 with d odd.

    A primitive solution (gcd(a, b, c) == 1) is the normal direction of
    a lattice plane through the origin carrying equilateral triangles
    with squared side 2*d*d*zeta(m, n).  Only the defining equation is
    enforced here; the producers add their own sharper conventions
    (solve_three_d2 emits primitive sign-canonical quadruples, face
    normals are primitive and outward, and the adjacent-plane
    construction legitimately rescales to non-primitive quadruples).
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.d % 2 == 0:
            raise DomainError(f"d must be a positive odd integer, got {self.d}")
        if self.a * self.a + self.b * self.b + self.c * self.c != 3 * self.d * self.d:
            raise DomainError(
                f"{(self.a, self.b, self.c)} does not satisfy a^2 + b^2 + c^2 = 3*{self.d}^2")

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
    """Trial-division factorization of t with 1 <= t <= 2**63 - 1.

    >>> factorize(5978882).factors
    ((2, 1), (7, 2), (13, 2), (19, 2))
    """
    check_range("t", t, 1)
    factors: list[tuple[int, int]] = []
    rest = t
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(t, tuple(factors))


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_loeschian(t: int) -> bool:
    """Whether t is representable as m*m - m*n + n*n.

    Holds exactly when 2 and every prime congruent to 5 mod 6 occur in t
    to an even power.  0 counts via (m, n) = (0, 0).
    """
    check_range("t", t, 0)
    if t == 0:
        return True
    return all(e % 2 == 0 for p, e in factorize(t).factors if p == 2 or p % 6 == 5)


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


def iter_two_q(q: int) -> Iterator[RSPair]:
    """Lazily yield the integer pairs (r, s) with s*s + 3*r*r == 2*q.

    The order is (|r|, r, s), the order of solve_two_q, so a caller
    that stops at the first pair it can use never builds the rest.
    """
    check_range("q", q, 1)
    return _two_q_pairs(q)


def _two_q_pairs(q: int) -> Iterator[RSPair]:
    r = 0
    while 3 * r * r <= 2 * q:
        rest = 2 * q - 3 * r * r
        s = isqrt(rest)
        if s * s == rest:
            for signed_r in ((-r, r) if r else (0,)):
                for signed_s in ((-s, s) if s else (0,)):
                    yield RSPair(signed_r, signed_s, q)
        r += 1


def solve_two_q(q: int) -> list[RSPair]:
    """All integer pairs (r, s) with s*s + 3*r*r == 2*q.

    The list is closed under sign flips of either component and sorted
    by (|r|, r, s); it is empty when 2*q is not represented.
    """
    return list(iter_two_q(q))


def solve_three_d2(d: int) -> list[NormalQuadruple]:
    """All primitive quadruples (a, b, c, d) with a^2 + b^2 + c^2 == 3*d^2.

    Enumerates base solutions 0 < a <= b <= c with gcd 1, then expands
    to every coordinate permutation and sign pattern whose first
    coordinate is positive.  Sorted lexicographically on (a, b, c).
    d must be odd; the even case has no solutions worth inventing.
    """
    check_range("d", d, 1)
    if d % 2 == 0:
        raise DomainError(f"d must be odd, got {d}")
    target = 3 * d * d
    base: list[tuple[int, int, int]] = []
    a = 1
    while 3 * a * a <= target:
        b = a
        while a * a + 2 * b * b <= target:
            c2 = target - a * a - b * b
            c = isqrt(c2)
            if c * c == c2 and c >= b and gcd(gcd(a, b), c) == 1:
                base.append((a, b, c))
            b += 1
        a += 1
    seen: set[tuple[int, int, int]] = set()
    for trip in base:
        for perm in set(permutations(trip)):
            for sb in (1, -1):
                for sc in (1, -1):
                    seen.add((perm[0], sb * perm[1], sc * perm[2]))
    return [NormalQuadruple(a, b, c, d) for a, b, c in sorted(seen)]
