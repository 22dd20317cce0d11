"""The hexagonal form zeta(m, n) = m*m - m*n + n*n and its representations.

zeta is the squared-length form of the triangular lattice; the integers
it represents are the Loeschian numbers.  omega(k) lists every solution
of zeta(m, n) == k*k, tau_orbit expands a pair under the twelve
lattice symmetries that fix zeta, and primitive_triples generates the
coprime positive pairs whose zeta value is a perfect square.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .errors import DomainError
from .numtheory import check_range, factorize, zeta_pairs

Pair = tuple[int, int]

TRIPLES_KMAX = 10**6


def zeta(m: int, n: int) -> int:
    """m*m - m*n + n*n, nonnegative for all integers."""
    return m * m - m * n + n * n


def omega(k: int) -> list[Pair]:
    """All integer pairs (m, n) with zeta(m, n) == k*k, sorted.

    Read off the factorization of k: zeta(m, n) is the norm of the
    Eisenstein integer m + n*omega, so the pairs are the elements of
    norm k*k, whose factorization is that of k with doubled exponents.
    When every prime divisor of k is 2 mod 3 this is just the six axial
    pairs (k, 0), (k, k), (0, k) and their negatives.
    """
    check_range("k", k, 1)
    return sorted(zeta_pairs((p, 2 * e) for p, e in factorize(k).factors))


def tau_orbit(m: int, n: int) -> set[Pair]:
    """Orbit of (m, n) under the symmetry group of zeta.

    The group has order 12, generated by the rotation
    (m, n) -> (m - n, m) and the reflection (m, n) -> (n, m); every
    element preserves zeta, so orbits stay inside one level set.  The
    orbit is the six rotations of (m, n) and the six of (n, m).
    """
    orbit: set[Pair] = set()
    for a, b in ((m, n), (n, m)):
        for _ in range(6):
            orbit.add((a, b))
            a, b = a - b, a
    return orbit


class EisensteinTriple(namedtuple("EisensteinTriple", "m n k u v form")):
    """A pair (m, n) whose zeta value is the perfect square k*k.

    u, v and form record how the generator produced the triple:
    form 1 is (m, n) = (v*v - u*u, 2*u*v - u*u) and
    form 2 is (m, n) = (2*u*v - u*u, 2*u*v - v*v), both with
    k = zeta(u, v).  primitive_triples runs the constructor's test inline.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, m: int, n: int, k: int, u: int | None = None, v: int | None = None,
                form: int | None = None) -> EisensteinTriple:
        if k < 1 or zeta(m, n) != k * k:
            raise _not_a_triple(m, n, k)
        return tuple.__new__(cls, (m, n, k, u, v, form))

    def is_primitive(self) -> bool:
        return gcd(self.m, self.n) == 1


def _not_a_triple(m: int, n: int, k: int) -> DomainError:
    return DomainError(f"(m, n, k) = {(m, n, k)} needs k >= 1 and zeta(m, n) == k**2")


def primitive_triples(kmax: int) -> list[EisensteinTriple]:
    """All primitive triples with zeta(m, n) == k*k, m, n > 0 and k <= kmax.

    Generated from coprime (u, v) with u + v not divisible by 3: form 1
    applies when v > u, form 2 when v/2 < u < 2v; each (m, n) is one
    record, never two (swept up to TRIPLES_KMAX).  The tests pin
    completeness against a brute-force scan.  Both forms need v > u/2,
    and k = zeta(u, v) <= kmax bounds v by (u + sqrt(4*kmax - 3*u*u))/2,
    so the walk filters only that range of v per u, about 0.9*kmax pairs;
    kmax above TRIPLES_KMAX = 10**6 raises RangeError.  No gcd(m, n) is
    tested: a prime p dividing m and n divides neither u nor v (else
    both), and forces 3 | u + v.  Form 1:
    n = u(2v - u), so p | 2v - u and p | 4m - (2v - u)(2v + u) = -3u^2.
    Form 2: m = u(2v - u), n = v(2u - v), so p | 2(2v - u) + (2u - v) = 3v.
    Either way p == 3 (p == 2 included) and 3 | 2v - u, i.e. 3 | u + v.
    Sorted by (k, m, n) as the one integer (k*w + m)*w + n, w = 2*kmax:
    k*k = (m - n/2)**2 + 3*n*n/4, so n <= 2k/sqrt(3) < w, and m likewise.
    """
    check_range("kmax", kmax, 1, TRIPLES_KMAX)
    triples: list[EisensteinTriple] = []
    keys: list[int] = []
    w = 2 * kmax
    for u in range(1, isqrt(4 * kmax // 3) + 1):
        uu = u * u
        for v in [v for v in range(u // 2 + 1, (u + isqrt(4 * kmax - 3 * uu)) // 2 + 1)
                  if gcd(u, v) == 1 and (u + v) % 3]:
            uv, vv = u * v, v * v
            k = uu - uv + vv
            if v > u:
                m, n = vv - uu, 2 * uv - uu
                if k < 1 or m * m - m * n + n * n != k * k:
                    raise _not_a_triple(m, n, k)
                triples.append(tuple.__new__(EisensteinTriple, (m, n, k, u, v, 1)))
                keys.append((k * w + m) * w + n)
            if 2 * u > v:
                m, n = 2 * uv - uu, 2 * uv - vv
                if k < 1 or m * m - m * n + n * n != k * k:
                    raise _not_a_triple(m, n, k)
                triples.append(tuple.__new__(EisensteinTriple, (m, n, k, u, v, 2)))
                keys.append((k * w + m) * w + n)
    return [triples[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]
