"""The form zeta(m, n) = m*m - m*n + n*n, its level sets and symmetries."""

import hashlib
from math import gcd, isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import ztetra.eisenstein
from ztetra import (
    DomainError,
    EisensteinTriple,
    RangeError,
    count_representations,
    omega,
    primitive_triples,
    tau_orbit,
    zeta,
)


def brute_omega(k):
    bound = 2 * k + 2
    return {
        (m, n)
        for m in range(-bound, bound + 1)
        for n in range(-bound, bound + 1)
        if zeta(m, n) == k * k
    }


def referee_omega(k):
    """The O(k) column scan: solve the quadratic in n for every |m| within reach."""
    bound = isqrt(4 * k * k // 3) + 2
    out = set()
    for m in range(-bound, bound + 1):
        disc = 4 * k * k - 3 * m * m
        if disc < 0:
            continue
        root = isqrt(disc)
        if root * root == disc:
            for num in (m + root, m - root):
                if num % 2 == 0:
                    out.add((m, num // 2))
    return out


def test_zeta_values():
    assert zeta(0, 0) == 0
    assert zeta(1, 0) == 1
    assert zeta(1, 1) == 1
    assert zeta(8, 3) == 49
    assert zeta(5, 8) == 49
    assert zeta(-2, -2) == 4


def test_zeta_nonnegative():
    for m in range(-12, 13):
        for n in range(-12, 13):
            assert zeta(m, n) >= 0
            assert zeta(m, n) == zeta(n, m)


def test_omega_matches_brute_force():
    for k in range(1, 26):
        assert omega(k) == sorted(brute_omega(k)), k


def test_omega_matches_column_scan():
    for k in range(1, 2001):
        assert omega(k) == sorted(referee_omega(k)), k


def test_omega_sizes_match_representation_counts():
    for k in range(1, 61):
        assert len(omega(k)) == count_representations(k * k), k


def test_omega_axial_for_primes_2_mod_3():
    for k in (2, 5, 11, 17, 23):
        assert omega(k) == [(-k, -k), (-k, 0), (0, -k), (0, k), (k, 0), (k, k)]


def test_omega_seven_has_18_elements():
    got = omega(7)
    assert len(got) == 18
    assert (8, 3) in got
    assert (5, -3) in got


def test_tau_orbit_fixed_point_and_small_orbits():
    assert tau_orbit(0, 0) == {(0, 0)}
    assert tau_orbit(1, 0) == {(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)}


def test_tau_orbit_of_8_3():
    want = {
        (8, 3), (5, 8), (-3, 5), (-8, -3), (-5, -8), (3, -5),
        (3, 8), (8, 5), (5, -3), (-3, -8), (-8, -5), (-5, 3),
    }
    assert tau_orbit(8, 3) == want


def test_tau_orbit_properties():
    for m in range(-6, 7):
        for n in range(-6, 7):
            orbit = tau_orbit(m, n)
            assert 12 % len(orbit) == 0
            level = zeta(m, n)
            for a, b in orbit:
                assert zeta(a, b) == level


def test_tau_orbit_matches_a_search_of_the_group():
    # Closure of {(m, n)} under the two generators, the search tau_orbit
    # used before it listed the twelve images directly.
    def search(m, n):
        seen, todo = {(m, n)}, [(m, n)]
        while todo:
            a, b = todo.pop()
            for nxt in ((a - b, a), (b, a)):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    for m in range(-40, 41):
        for n in range(-40, 41):
            assert tau_orbit(m, n) == search(m, n), (m, n)


def test_omega_closed_under_symmetries():
    for k in range(1, 21):
        pairs = omega(k)
        for m, n in pairs:
            assert (m - n, m) in pairs
            assert (n, m) in pairs


def test_triple_constructor_validates():
    t = EisensteinTriple(8, 3, 7)
    assert t.is_primitive()
    assert not EisensteinTriple(16, 6, 14).is_primitive()
    with pytest.raises(DomainError):
        EisensteinTriple(1, 2, 3)
    with pytest.raises(DomainError):
        EisensteinTriple(8, 3, -7)


def test_primitive_triples_smallest():
    got = [(t.m, t.n, t.k) for t in primitive_triples(8)]
    assert got == [(1, 1, 1), (3, 8, 7), (5, 8, 7), (8, 3, 7), (8, 5, 7)]


def test_primitive_triples_matches_brute_force():
    kmax = 60
    want = {
        (m, n, k)
        for k in range(1, kmax + 1)
        for m, n in omega(k)
        if m > 0 and n > 0 and gcd(m, n) == 1
    }
    got = {(t.m, t.n, t.k) for t in primitive_triples(kmax)}
    assert got == want


def referee_primitive_triples(kmax):
    """The square scan primitive_triples replaced: every (u, v) up to
    isqrt(4*kmax/3) + 2 in both coordinates, as (m, n, k, u, v, form)."""
    found = []
    bound = isqrt(4 * kmax // 3) + 2
    for u in range(1, bound + 1):
        for v in range(1, bound + 1):
            if gcd(u, v) != 1 or (u + v) % 3 == 0:
                continue
            k = zeta(u, v)
            if k > kmax:
                continue
            if v > u:
                m, n = v * v - u * u, 2 * u * v - u * u
                if m > 0 and n > 0 and gcd(m, n) == 1:
                    found.append((m, n, k, u, v, 1))
            if 2 * v > u and 2 * u > v:
                m, n = 2 * u * v - u * u, 2 * u * v - v * v
                if m > 0 and n > 0 and gcd(m, n) == 1:
                    found.append((m, n, k, u, v, 2))
    return sorted(found, key=lambda t: (t[2], t[0], t[1]))


def test_primitive_triples_match_the_square_scan_for_every_kmax_to_3000():
    # The walk's (u, v) ranges only grow with kmax, so its output does too,
    # while the scan's changes only at the k of a triple.  Equality at each
    # such k, at k - 1 and at 3000 therefore gives equality at every kmax.
    want = referee_primitive_triples(3000)
    ks = {k for _, _, k, _, _, _ in want}
    for kmax in sorted({*ks, *(k - 1 for k in ks), 3000} - {0}):
        assert primitive_triples(kmax) == [t for t in want if t[2] <= kmax], kmax


def test_primitive_triples_record_their_generators():
    for t in primitive_triples(40):
        assert gcd(t.u, t.v) == 1
        assert (t.u + t.v) % 3 != 0
        assert t.k == zeta(t.u, t.v)
        if t.form == 1:
            assert (t.m, t.n) == (t.v * t.v - t.u * t.u, 2 * t.u * t.v - t.u * t.u)
        else:
            assert t.form == 2
            assert (t.m, t.n) == (2 * t.u * t.v - t.u * t.u, 2 * t.u * t.v - t.v * t.v)


def test_primitive_triples_sorted_and_unique():
    triples = primitive_triples(10**4)
    keys = [(t.k, t.m, t.n) for t in triples]
    assert keys == sorted(keys)
    assert len({(t.m, t.n) for t in triples}) == len(triples)


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_generator_forms_give_coprime_pairs(u, v):
    # primitive_triples tests no gcd(m, n): its docstring proves every
    # pair the walk admits is coprime, in each form that applies.
    g = gcd(u, v)
    u, v = (u // g, v // g) if 2 * v > u else (v // g, u // g)
    assume((u + v) % 3)
    forms = []
    if v > u:
        forms.append((v * v - u * u, 2 * u * v - u * u))
    if 2 * u > v:
        forms.append((2 * u * v - u * u, 2 * u * v - v * v))
    assert forms
    for m, n in forms:
        assert m > 0 and n > 0 and gcd(m, n) == 1, (u, v, m, n)


def test_primitive_triples_match_the_recorded_digest():
    # SHA-256 of repr() at the arith benchmark's size, far past the square
    # scan's kmax of 3000: a change to one record or to the order fails here.
    digest = hashlib.sha256(repr(primitive_triples(10**5)).encode()).hexdigest()
    assert digest == "c38f348cebe512aeb69f36f61bd06f602c4e5853ad35916d9c5f282390614ec8"


def test_primitive_triples_bounds_kmax(monkeypatch):
    for kmax in (10**6 + 1, 2**63 - 1):
        with pytest.raises(RangeError, match="at most 1000000"):
            primitive_triples(kmax)

    class ScanStarted(Exception):
        pass

    def stop(*args):
        raise ScanStarted

    # kmax = 10**6 passes the bound; stop at the first step of the scan
    # instead of running it.
    monkeypatch.setattr(ztetra.eisenstein, "gcd", stop)
    with pytest.raises(ScanStarted):
        primitive_triples(10**6)
