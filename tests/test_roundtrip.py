"""Round trip over every producer: what the CLI emits, verify accepts.

Each example runs one producer on a small input, checks that verify
accepts the whole stream and counts every record, then changes one
numeric field of one record by +1 or -1.  verify must reject the
changed stream exactly when the predicate below, which shares no code
with the package, calls the changed record invalid.  Some changes keep
a record valid (the pair (0, 1, 1) becomes (1, 1, 1)); those must
still verify.  Provenance fields are not re-verified, so they are not
changed here.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
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


def valid(rec):
    """Whether verify should accept rec, restated from the record formats."""
    kind = rec["kind"]
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
    """Paths to every integer in rec outside its provenance."""
    paths = []

    def walk(value, path):
        if type(value) is int:
            paths.append(path)
        elif type(value) is list:
            for i, item in enumerate(value):
                walk(item, path + (i,))

    for key in sorted(rec):
        if key != "provenance":
            walk(rec[key], (key,))
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

