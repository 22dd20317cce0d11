"""The records are named tuples: each keeps its field names, order and
defaults, validates in its constructor, cannot be assigned to, and is
hashed, compared and ordered as the tuple of its fields."""

from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ztetra import (
    CoeffMatrix,
    ComparisonReport,
    DomainError,
    EisensteinTriple,
    FaceNormalSet,
    Factorization,
    LatticeTetrahedron,
    LatticeTriangle,
    NormalQuadruple,
    OffsetReport,
    RSPair,
    coeff_matrix,
    compare,
    compare_with_bfile,
    enumerate_t0,
    face_normals,
    factorize,
    omega,
    solve_three_d2,
    triangle_points,
    zeta,
)

FIELDS = {
    Factorization: ("value", "factors"),
    RSPair: ("r", "s", "q"),
    NormalQuadruple: ("a", "b", "c", "d"),
    EisensteinTriple: ("m", "n", "k", "u", "v", "form"),
    LatticeTriangle: ("p", "q", "side_sq"),
    CoeffMatrix: ("quad", "rs", "u", "v"),
    LatticeTetrahedron: ("vertices", "side_sq", "ell"),
    FaceNormalSet: ("faces",),
    ComparisonReport: ("missing", "extra"),
    OffsetReport: ("offset", "mismatches", "missing"),
}


def referee_error(cls, args):
    """The message the constructor's checks must raise for args, or None."""
    if cls is RSPair:
        r, s, q = args
        if s * s + 3 * r * r != 2 * q:
            return f"(r, s) = {(r, s)} does not solve s^2 + 3r^2 = 2q for q = {q}"
    elif cls is NormalQuadruple:
        a, b, c, d = args
        if d < 1 or d % 2 == 0:
            return f"d must be a positive odd integer, got {d}"
        if a * a + b * b + c * c != 3 * d * d:
            return f"{(a, b, c)} does not satisfy a^2 + b^2 + c^2 = 3*{d}^2"
    else:
        m, n, k = args[:3]
        if k < 1 or zeta(m, n) != k * k:
            return f"(m, n, k) = {(m, n, k)} needs k >= 1 and zeta(m, n) == k**2"
    return None


small = st.integers(-30, 30)
nudge = st.sampled_from((0, 0, 0, -1, 1))
# Arguments near a solution, so that valid and invalid ones both come up often.
ARGS = {
    RSPair: st.tuples(small, small, nudge).map(lambda t: (t[0], t[1], (t[1] ** 2 + 3 * t[0] ** 2) // 2 + t[2])),
    NormalQuadruple: st.one_of(
        st.tuples(st.sampled_from([q.normal for d in (1, 3, 5, 7, 9) for q in solve_three_d2(d)]),
                  st.sampled_from((1, -1)), nudge).map(
            lambda t: (t[1] * t[0][0], t[0][1], t[0][2], isqrt((t[0][0] ** 2 + t[0][1] ** 2 + t[0][2] ** 2) // 3)
                       + 2 * t[2])),
        st.tuples(small, small, small, st.integers(-3, 12))),
    EisensteinTriple: st.one_of(
        st.tuples(st.sampled_from([(m, n, k) for k in range(1, 15) for m, n in omega(k)]), nudge,
                  st.sampled_from(((), (1, 2, 1), (None, None, None)))).map(
            lambda t: (t[0][0], t[0][1], t[0][2] + t[1], *t[2])),
        st.tuples(small, small, st.integers(-2, 40))),
}


def assert_tuple_record(rec, values):
    cls = type(rec)
    assert cls._fields == FIELDS[cls]
    assert tuple(rec) == values and rec == values and hash(rec) == hash(values)
    assert [getattr(rec, name) for name in cls._fields] == list(values)
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(cls._fields, values)) + ")"
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    assert tuple(rec) == values


@given(st.sampled_from(sorted(ARGS, key=lambda cls: cls.__name__)).flatmap(
    lambda cls: st.tuples(st.just(cls), ARGS[cls], ARGS[cls])))
def test_validated_records_check_like_their_referee_and_act_as_tuples(case):
    cls, *argss = case
    recs = []
    for args in argss:
        values = args + (None,) * (len(cls._fields) - len(args))
        want = referee_error(cls, args)
        if want is not None:
            # _make, and so _replace, runs the constructor's checks too.
            for build in (cls, lambda *args: cls._make(values)):
                with pytest.raises(DomainError) as exc:
                    build(*args)
                assert str(exc.value) == want
            continue
        rec = cls(*args)
        assert_tuple_record(rec, values)
        assert cls(**dict(zip(cls._fields, args))) == rec == cls._make(values)
        recs.append(rec)
    if len(recs) == 2:
        one, two = recs
        assert order(one, two) == order(tuple(one), tuple(two))


def order(x, y):
    """x < y, x <= y and x == y, or TypeError where x and y do not compare."""
    try:
        return x < y, x <= y, x == y
    except TypeError:
        return TypeError


def test_every_record_is_an_immutable_tuple_of_its_fields():
    quad = NormalQuadruple(1, -1, 1, 1)
    cm = coeff_matrix(quad)
    tets = enumerate_t0(3)
    records = [factorize(360), cm.rs, quad, EisensteinTriple(8, 3, 7), triangle_points(cm, 2, 1), cm,
               tets[0], face_normals(tets[0]), compare(tets[1:], tets[:-1]),
               *compare_with_bfile({0: 0, 1: 2}, [(0, 0), (1, 2)])]
    assert {type(rec) for rec in records} == set(FIELDS)
    for rec in records:
        assert_tuple_record(rec, tuple(rec))
    assert EisensteinTriple(8, 3, 7)[3:] == (None, None, None)
    assert sorted(tets, reverse=True) == sorted(tets, key=tuple, reverse=True)
