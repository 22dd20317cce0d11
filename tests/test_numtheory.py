"""Integer arithmetic layer: factorization, quadratic form solvers.

The referee_* functions are the scans the factorization-driven code
replaced; the fast paths must agree with them exactly, order included.
"""

import hashlib
import time
from itertools import permutations
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ztetra import (
    DomainError,
    Factorization,
    NormalQuadruple,
    RangeError,
    RSPair,
    count_representations,
    factorize,
    is_loeschian,
    is_prime,
    solve_three_d2,
    solve_two_q,
)
from ztetra.numtheory import (
    INT64_MAX,
    _GAUSSIAN,
    _SQRT3,
    _base_triples,
    _norm_classes,
    _prime_factors,
    _three_d2_factors,
    check_range,
)

# Composites that pass Miller-Rabin to every prime base up to 7, 11,
# 13, 19 and 31 respectively: is_prime sizes its base set by n, and a
# set shorter than the one each needs would call it prime.
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051)


def referee_factorize(t):
    """Trial division by 2 and every odd number up to sqrt(rest)."""
    factors = []
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
    return tuple(factors)


def referee_is_prime(n):
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


def referee_two_q(q):
    """(r, s) with s*s + 3*r*r == 2*q by an O(sqrt q) scan over r >= 0, in (|r|, r, s) order."""
    out = []
    r = 0
    while 3 * r * r <= 2 * q:
        rest = 2 * q - 3 * r * r
        s = isqrt(rest)
        if s * s == rest:
            for signed_r in ((-r, r) if r else (0,)):
                for signed_s in ((-s, s) if s else (0,)):
                    out.append((signed_r, signed_s))
        r += 1
    return out


def referee_three_d2(d):
    """Primitive sign-canonical (a, b, c) with a^2 + b^2 + c^2 == 3*d^2 by an O(d^2) scan."""
    target = 3 * d * d
    base = []
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
    seen = set()
    for trip in base:
        for perm in set(permutations(trip)):
            for sb in (1, -1):
                for sc in (1, -1):
                    seen.add((perm[0], sb * perm[1], sc * perm[2]))
    return sorted(seen)


def brute_zeta_values(limit):
    """All values of m*m - m*n + n*n up to limit, by direct scan.

    zeta(m, n) >= max(m*m, n*n) / 2, so |m|, |n| <= isqrt(2*limit) + 1
    covers every representation.
    """
    from math import isqrt

    bound = isqrt(2 * limit) + 1
    values = set()
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            v = m * m - m * n + n * n
            if v <= limit:
                values.add(v)
    return values


def test_check_range_accepts_bounds():
    check_range("x", 1, 1)
    check_range("x", INT64_MAX, 0)


def test_check_range_rejects_bad_values():
    with pytest.raises(RangeError):
        check_range("x", 0, 1)
    with pytest.raises(RangeError):
        check_range("x", INT64_MAX + 1, 0)
    with pytest.raises(RangeError):
        check_range("x", True, 0)
    with pytest.raises(RangeError):
        check_range("x", "7", 0)


def test_check_range_caps_after_the_other_checks():
    check_range("x", 7, 1, 7)
    with pytest.raises(RangeError, match=r"^x must be at most 7, got 8$"):
        check_range("x", 8, 1, 7)
    # A bool, a non-integer and a value below low keep the messages they have without a cap.
    for value, message in ((True, "x must be an integer, got True"), (7.0, "x must be an integer, got 7.0"),
                           (0, r"x must be in \[1, 2\*\*63 - 1\], got 0")):
        with pytest.raises(RangeError, match=f"^{message}$"):
            check_range("x", value, 1, 7)


def test_factorize_reconstructs_value():
    for t in range(1, 2001):
        fac = factorize(t)
        assert fac.value == t
        prod = 1
        for p, e in fac.factors:
            assert e >= 1
            assert is_prime(p)
            prod *= p**e
        assert prod == t
        assert list(fac.factors) == sorted(fac.factors)


def test_factorize_known_values():
    assert factorize(1) == Factorization(1, ())
    assert factorize(2).factors == ((2, 1),)
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(5978882).factors == ((2, 1), (7, 2), (13, 2), (19, 2))


def test_factorize_rejects_out_of_range():
    with pytest.raises(RangeError):
        factorize(0)
    with pytest.raises(RangeError):
        factorize(-6)


def test_factorize_and_is_prime_match_trial_division():
    for n in range(1, 10**5 + 1):
        assert factorize(n).factors == referee_factorize(n), n
        assert is_prime(n) == referee_is_prime(n), n


@settings(deadline=None)
@given(st.one_of(
    st.integers(min_value=1, max_value=INT64_MAX),
    st.builds(lambda a, b: a * b, st.integers(2, 3037000499), st.integers(2, 3037000499)),
))
def test_factorize_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert dict(factorize(n).factors) == sympy.factorint(n)


def test_strong_pseudoprimes_are_composite():
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n), n
        factors = factorize(n).factors
        assert len(factors) > 1 or factors[0][1] > 1, n
        prod = 1
        for p, e in factors:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_is_fast_on_large_primes_and_semiprimes():
    for n, want in ((2**61 - 1, ((2**61 - 1, 1),)),
                    (3037000453 * 3037000493, ((3037000453, 1), (3037000493, 1)))):
        start = time.perf_counter()
        assert factorize(n).factors == want
        assert time.perf_counter() - start < 1.0, n


def test_is_prime_rejects_values_beyond_its_exact_range():
    # The smallest composite that passes the bases 2..37 (OEIS A014233) is
    # caught by 41; then the largest prime below the bound, and the
    # composite that sets it.
    assert not is_prime(318665857834031151167461)
    assert is_prime(3317044064679887385961813)
    with pytest.raises(RangeError):
        is_prime(3317044064679887385961981)


def test_is_prime_small():
    primes = [p for p in range(100) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                      43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    assert is_prime(7919)
    assert not is_prime(7917)


def test_is_loeschian_matches_brute_force():
    reachable = brute_zeta_values(300)
    for t in range(301):
        assert is_loeschian(t) == (t in reachable), t


def test_is_loeschian_known_values():
    assert is_loeschian(0)
    assert is_loeschian(1)
    assert is_loeschian(3)
    assert is_loeschian(4)
    assert is_loeschian(7)
    assert not is_loeschian(2)
    assert not is_loeschian(5)
    assert not is_loeschian(2017 * 2)
    with pytest.raises(RangeError):
        is_loeschian(-1)


def test_count_representations_matches_brute_force():
    from math import isqrt

    limit = 200
    bound = isqrt(2 * limit) + 1
    counts = [0] * (limit + 1)
    for m in range(-bound, bound + 1):
        for n in range(-bound, bound + 1):
            v = m * m - m * n + n * n
            if 1 <= v <= limit:
                counts[v] += 1
    for k in range(1, limit + 1):
        assert count_representations(k) == counts[k], k


def test_count_representations_known_values():
    assert count_representations(1) == 6
    assert count_representations(2) == 0
    assert count_representations(3) == 6
    assert count_representations(7) == 12
    assert count_representations(49) == 18
    with pytest.raises(RangeError):
        count_representations(0)


def test_rspair_validates_equation():
    RSPair(1, 1, 2)
    with pytest.raises(DomainError):
        RSPair(1, 2, 2)


def test_solve_two_q_matches_brute_force():
    from math import isqrt

    for q in range(1, 201):
        bound_r = isqrt(2 * q // 3) + 1
        bound_s = isqrt(2 * q) + 1
        want = sorted(
            (
                (r, s)
                for r in range(-bound_r, bound_r + 1)
                for s in range(-bound_s, bound_s + 1)
                if s * s + 3 * r * r == 2 * q
            ),
            key=lambda p: (abs(p[0]), p[0], p[1]),
        )
        got = [(p.r, p.s) for p in solve_two_q(q)]
        assert got == want, q


def test_solve_two_q_known_values():
    assert [(p.r, p.s) for p in solve_two_q(2)] == [
        (0, -2), (0, 2), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert solve_two_q(13) == []
    assert all(p.q == 14 for p in solve_two_q(14))
    with pytest.raises(RangeError):
        solve_two_q(0)
    with pytest.raises(RangeError):
        solve_two_q(INT64_MAX + 1)
    # Each call hands out a fresh list, so editing one changes no later result.
    solve_two_q(2).clear()
    assert len(solve_two_q(2)) == 6


@given(st.integers(min_value=1, max_value=10**9))
def test_solve_two_q_matches_set_and_sort(q):
    # Reference: every (r, s), collected as a set and sorted by (|r|, r, s).
    from math import isqrt

    found = set()
    for r in range(isqrt(2 * q // 3) + 1):
        rest = 2 * q - 3 * r * r
        s = isqrt(rest)
        if s * s == rest:
            found.update({(r, s), (r, -s), (-r, s), (-r, -s)})
    want = [RSPair(r, s, q) for r, s in sorted(found, key=lambda p: (abs(p[0]), p[0], p[1]))]
    assert solve_two_q(q) == want


def test_solve_two_q_matches_scan():
    for q in range(1, 2 * 10**4 + 1):
        assert [(p.r, p.s) for p in solve_two_q(q)] == referee_two_q(q), q


def test_solve_two_q_closed_under_sign_flips():
    for q in (2, 14, 26, 38, 50, 122):
        pairs = {(p.r, p.s) for p in solve_two_q(q)}
        for r, s in pairs:
            assert (-r, s) in pairs
            assert (r, -s) in pairs


def test_normal_quadruple_validates():
    quad = NormalQuadruple(1, 1, 1, 1)
    assert quad.q == 2
    assert quad.normal == (1, 1, 1)
    assert quad.is_primitive()
    assert not NormalQuadruple(3, 3, 3, 3).is_primitive()
    with pytest.raises(DomainError):
        NormalQuadruple(1, 1, 2, 1)
    with pytest.raises(DomainError):
        NormalQuadruple(0, 0, 0, 0)
    with pytest.raises(DomainError):
        NormalQuadruple(1, 1, 1, -1)


def test_solve_three_d2_small_fixtures():
    assert [(u.a, u.b, u.c) for u in solve_three_d2(1)] == [
        (1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]
    assert len(solve_three_d2(3)) == 12
    assert len(solve_three_d2(5)) == 24
    trips = {(abs(u.a), abs(u.b), abs(u.c)) for u in solve_three_d2(3)}
    assert trips == {(1, 1, 5), (1, 5, 1), (5, 1, 1)}


def test_solve_three_d2_matches_brute_force():
    from math import gcd, isqrt

    for d in range(1, 10, 2):
        target = 3 * d * d
        bound = isqrt(target)
        want = sorted(
            (a, b, c)
            for a in range(1, bound + 1)
            for b in range(-bound, bound + 1)
            for c in range(-bound, bound + 1)
            if a * a + b * b + c * c == target and gcd(gcd(a, abs(b)), abs(c)) == 1
        )
        got = [(u.a, u.b, u.c) for u in solve_three_d2(d)]
        assert got == want, d


def test_solve_three_d2_matches_scan():
    for d in range(1, 302, 2):
        assert [u.normal for u in solve_three_d2(d)] == referee_three_d2(d), d


@pytest.mark.parametrize("d, digest", [
    (801, "aaf1647f578a0c32363063df1dbf9208c6f50fa7a6939038e250c7b7b42cb87e"),
    (1501, "54f0817952f42b1858c25e4fc89b46317a76ca2952fb50394014271c7c3904e9"),
    (1999, "4e9c4ff2c6f8ed6342809852e3024644cc82b6ae8b7e533ae6d59c5980960515"),
])
def test_solve_three_d2_matches_the_recorded_digest(d, digest):
    # SHA-256 of repr() at the arith benchmark's sizes, past the scan's d of
    # 301: a change to one quadruple or to the order fails here.
    assert hashlib.sha256(repr(solve_three_d2(d)).encode()).hexdigest() == digest


def test_three_d2_sieve_matches_trial_division():
    for p, root in _SQRT3:
        assert (root * root - 3) % p == 0 if root is not None else pow(3, (p - 1) // 2, p) == p - 1
    for d in range(1, 302, 2):
        assert _three_d2_factors(d) == [_prime_factors(3 * d * d - c * c) for c in range(d, isqrt(3 * d * d) + 1, 2)], d


def referee_base_triples(d):
    """The walk _base_triples replaced: by the smallest coordinate a, odd
    a <= d, with {b, c} read off the Gaussian classes of norm 3*d*d - a*a."""
    for a in range(1, d + 1, 2):
        for x, y in _norm_classes(_prime_factors(3 * d * d - a * a), _GAUSSIAN):
            b, c = (abs(x), abs(y)) if x * y > 0 else (abs(y), abs(x))
            if a <= b <= c and gcd(gcd(a, b), c) == 1:
                yield a, b, c


def test_base_triples_by_largest_coordinate_match_the_smallest_coordinate_walk():
    # Each base triple once: the sorted lists agree with their repeats.
    for d in (*range(1, 302, 2), 801, 1501, 1999):
        assert sorted(_base_triples(d)) == sorted(referee_base_triples(d)), d


def test_solve_three_d2_count_matches_the_product_formula():
    # |Q(d)| = 4d * prod over primes p | d of (1 - chi(p)/p), where chi(p)
    # is +1 for p = 1 mod 3, -1 for p = 2 mod 3 and 0 for p = 3.
    for d in range(1, 302, 2):
        want = 4 * d
        for p, _ in referee_factorize(d):
            want = want // p * (p - (0 if p == 3 else 1 if p % 3 == 1 else -1))
        assert len(solve_three_d2(d)) == want, d


def test_solve_three_d2_output_contract():
    for d in (1, 3, 5, 133):
        quads = solve_three_d2(d)
        assert quads
        assert quads == sorted(quads)
        for u in quads:
            assert u.a > 0
            assert u.d == d
            assert u.is_primitive()
            assert u.a * u.a + u.b * u.b + u.c * u.c == 3 * d * d


def test_solve_three_d2_rejects_bad_d():
    with pytest.raises(DomainError):
        solve_three_d2(2)
    with pytest.raises(RangeError):
        solve_three_d2(0)
    with pytest.raises(RangeError):
        solve_three_d2(-3)
    # The first odd d with 3*d*d > 2**63 - 1.
    with pytest.raises(RangeError):
        solve_three_d2(1753413057)


def test_solve_three_d2_caps_d(monkeypatch):
    from ztetra import numtheory

    assert numtheory.THREE_D2_DMAX == 10**5
    with pytest.raises(RangeError, match="at most 100000"):
        solve_three_d2(10**5 + 1)
    # 99999 passes the bound: the scan starts and is stopped at its
    # first step, the sieve, so no full scan runs.

    class Started(Exception):
        pass

    def stop(d):
        assert d == 10**5 - 1
        raise Started

    monkeypatch.setattr(numtheory, "_three_d2_factors", stop)
    with pytest.raises(Started):
        solve_three_d2(10**5 - 1)
