"""Round trip over every producer: what the CLI emits, verify accepts.

Each example runs one producer on a small input, checks that verify
accepts the whole stream and counts every record, then changes one
numeric field of one record, its provenance included, by +1 or -1.
verify must reject the changed stream exactly when the predicate below,
which shares no code with the package, calls the changed record invalid.
Some changes keep a record valid (the pair (0, 1, 1) becomes (1, 1, 1));
those must still verify.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ztetra import omega, solve_three_d2
from ztetra.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sq_dist(p, q):
    return sum((a - b) ** 2 for a, b in zip(p, q))


def orthonormal(rows):
    return all(sum(x * y for x, y in zip(u, v)) == (1 if i == j else 0)
               for i, u in enumerate(rows) for j, v in enumerate(rows))


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def built(prov):
    """p, q and the apex on side sign (None without a sign) that the
    triangles and complete producers build from the plane provenance prov,
    or None where they build nothing.

    Restated from the construction: with N = (a, b, c) and
    X = r*a*c + d*b*s, (r, s) is admissible when s^2 + 3r^2 == 2q and q | X
    (q = a^2 + b^2); then u = (-X/q, (d*a*s - r*b*c)/q, r), v = (d*u + N x u)/(2d),
    P(m, n) = m*u - n*v, Q = P(m - n, m), and the apex is
    (P + Q + sign*2k*N)/3 for zeta(m, n) == k^2.  The producers take the
    first admissible (r, s) in one fixed order; a +-1 change of r or s
    never solves s^2 + 3r^2 == 2q again, so any admissible one is fine here.
    """
    a, b, c, d = prov["quad"]
    r, s, m, n = prov["r"], prov["s"], prov["m"], prov["n"]
    norm, x = a * a + b * b, r * a * c + d * b * s
    if d < 1 or d % 2 == 0 or a * a + b * b + c * c != 3 * d * d or s * s + 3 * r * r != 2 * norm or x % norm:
        return None
    u = (-x // norm, (d * a * s - r * b * c) // norm, r)
    v = [(d * ui + wi) // (2 * d) for ui, wi in zip(u, cross((a, b, c), u))]
    p, q = ([i * ui - j * vi for ui, vi in zip(u, v)] for i, j in ((m, n), (m - n, m)))
    if (m, n) == (0, 0) or "sign" not in prov:
        return p, q, None
    k = next((k for k in range(1, abs(m) + abs(n) + 1) if k * k == m * m - m * n + n * n), 0)
    apex = [pi + qi + prov["sign"] * 2 * k * ni for pi, qi, ni in zip(p, q, (a, b, c))]
    if k == 0 or any(x % 3 for x in apex):
        return None
    return p, q, [x // 3 for x in apex]


def face_normals(vertices):
    """The outward primitive face normals (a, b, c, d), the face opposite
    each of the sorted vertices in turn."""
    verts = sorted(vertices)
    faces = []
    for i, top in enumerate(verts):
        w1, w2, w3 = (w for j, w in enumerate(verts) if j != i)
        nrm = cross([x - y for x, y in zip(w2, w1)], [x - y for x, y in zip(w3, w1)])
        g = gcd(*nrm)
        sign = 1 if sum(n * (x - y) for n, x, y in zip(nrm, w1, top)) > 0 else -1
        nrm = [sign * n // g for n in nrm]
        faces.append([*nrm, isqrt(sum(n * n for n in nrm) // 3)])
    return faces


def valid(rec):
    """Whether verify should accept rec, restated from the record formats."""
    kind = rec["kind"]
    prov = rec.get("provenance", {})
    if prov.get("ell", rec.get("ell")) != rec.get("ell") or prov.get("sign", 1) not in (1, -1):
        return False
    # enumerate-t0 writes sorted vertices, one of them the origin.
    if "ell" in prov and ([0, 0, 0] not in rec["vertices"] or sorted(rec["vertices"]) != rec["vertices"]):
        return False
    if "quad" in prov:
        p, q, apex = built(prov) or (None, None, None)
        if kind == "triangle":
            if [p, q] != [rec["p"], rec["q"]]:
                return False
        elif apex is None:
            return False
        elif kind == "tetrahedron" and sorted([[0, 0, 0], p, q, apex]) != sorted(rec["vertices"]):
            return False
        elif kind == "normal-set" and face_normals([[0, 0, 0], p, q, apex]) != rec["faces"]:
            return False
    if kind == "quadruple":
        a, b, c, d, q = (rec[f] for f in "abcdq")
        return d >= 1 and d % 2 == 1 and a * a + b * b + c * c == 3 * d * d and q == a * a + b * b
    if kind in ("pair", "triple"):
        m, n, k = rec["m"], rec["n"], rec["k"]
        if not (k >= 1 and m * m - m * n + n * n == k * k):
            return False
        if kind == "pair":
            return True
        # u, v and form must generate (m, n) and k.
        u, v, form = rec["u"], rec["v"], rec["form"]
        forms = {1: (v * v - u * u, 2 * u * v - u * u), 2: (2 * u * v - u * u, 2 * u * v - v * v)}
        return form in forms and forms[form] == (m, n) and k == u * u - u * v + v * v
    if kind == "triangle":
        origin = (0, 0, 0)
        sides = {sq_dist(origin, rec["p"]), sq_dist(origin, rec["q"]), sq_dist(rec["p"], rec["q"])}
        return sides == {rec["side_sq"]} and 0 not in sides
    if kind == "tetrahedron":
        sides = {sq_dist(p, q) for p, q in combinations(rec["vertices"], 2)}
        return sides == {rec["side_sq"]} and 0 not in sides and 2 * rec["ell"] ** 2 == rec["side_sq"]
    if kind == "normal-set":
        faces = rec["faces"]
        if any(d < 1 or d % 2 == 0 or a * a + b * b + c * c != 3 * d * d for a, b, c, d in faces):
            return False
        # The rows v / (2d) form an orthogonal matrix, checked from both sides.
        rows = [[Fraction(x, 2 * f[3]) for x in f] for f in faces]
        return orthonormal(rows) and orthonormal(list(zip(*rows)))
    assert kind == "count" and rec["what"] == "tetrahedra_t0", rec
    # |T0(ell)| = 8 * prod over odd p^k exactly dividing ell of (p^k + 2(p^k - 1)/(p - 1)).
    want, rest, p = 8, rec["ell"], 3
    if rest < 1:
        return False
    while rest % 2 == 0:
        rest //= 2
    while rest > 1:
        pk = 1
        while rest % p == 0:
            rest, pk = rest // p, pk * p
        want *= pk + 2 * (pk - 1) // (p - 1)
        p += 2
    return rec["value"] == want


def numeric_paths(rec):
    """Paths to every integer in rec, its provenance included."""
    paths = []

    def walk(value, path):
        if type(value) is int:
            paths.append(path)
        elif type(value) in (list, dict):
            for i in range(len(value)) if type(value) is list else sorted(value):
                walk(value[i], path + (i,))

    walk(rec, ())
    return paths


QUADS = st.integers(0, 6).flatmap(lambda i: st.sampled_from(solve_three_d2(2 * i + 1)))


def quad_arg(quad):
    return "--quad=" + ",".join(str(x) for x in (quad.a, quad.b, quad.c, quad.d))


PRODUCERS = st.one_of(
    st.integers(0, 25).map(lambda i: ["solve3d2", "--d", str(2 * i + 1)]),
    st.integers(1, 300).map(lambda k: ["omega", "--k", str(k)]),
    st.integers(1, 150).map(lambda kmax: ["triples", "--kmax", str(kmax)]),
    st.tuples(QUADS, st.integers(-4, 4), st.integers(-4, 4))
    .filter(lambda t: t[1:] != (0, 0))
    .map(lambda t: ["triangles", quad_arg(t[0]), f"--m={t[1]}", f"--n={t[2]}"]),
    st.tuples(QUADS, st.integers(1, 7).flatmap(lambda k: st.sampled_from(sorted(omega(k)))))
    .map(lambda t: ["complete", quad_arg(t[0]), f"--m={t[1][0]}", f"--n={t[1][1]}", "--with-normals"]),
    st.integers(1, 12).map(lambda ell: ["enumerate-t0", "--ell", str(ell)]),
)


@settings(max_examples=150, deadline=None)
@given(PRODUCERS, st.data())
def test_every_producer_round_trips_and_mutants_match_the_predicate(argv, data):
    code, out, _ = run_cli(*argv)
    assert code == 0, argv
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs and all(valid(rec) for rec in recs), argv
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_text(out)
        code, verified, err = run_cli("verify", "--file", str(path))
        assert code == 0, (argv, err)
        assert json.loads(verified) == {"kind": "count", "what": "verified_records", "value": len(recs)}

        index = data.draw(st.integers(0, len(recs) - 1), label="record")
        mutant = copy.deepcopy(recs[index])
        *parents, leaf = data.draw(st.sampled_from(numeric_paths(mutant)), label="field")
        holder = mutant
        for step in parents:
            holder = holder[step]
        holder[leaf] += data.draw(st.sampled_from((-1, 1)), label="delta")
        lines = out.splitlines()
        lines[index] = json.dumps(mutant, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        code, verified, err = run_cli("verify", "--file", str(path))
    if valid(mutant):
        assert code == 0, (argv, mutant, err)
    else:
        assert code == 1, (argv, mutant)
        assert verified == ""
        assert err.startswith(f"error: {path}:{index + 1}: "), err

