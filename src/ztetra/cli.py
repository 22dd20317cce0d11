"""Command line interface emitting line-delimited structured records.

Every subcommand prints one JSON object per line with sorted keys and
no whitespace, so identical arguments give byte-identical output across
runs.  A record is the fields of its library named tuple (_asdict) plus
a kind and what is not a field: a quadruple's q, a b-file diff's matched,
a provenance.  _write prints every record but the enumerate-t0 tetrahedra,
which fill in the template _T0_LINE, and _write_count the count record
that ends a run, the only record --format csv covers.  triangles and
complete write what _plane_records builds, and verify checks a record with
their provenance by running it again.  verify reads every tetrahedron
through LatticeTetrahedron.from_vertices and recounts every count but its
own.  grid-count, its --bfile diff and verify's recount of a grid count or
a diff are one grid_counts call, which sums the translates of the origin
shapes (verify walks each shape at most once per n in a run); the oracle's
grid scans referee it and are not imported here.
Exit codes: 0 success, 1 domain or verification failure (including a
nonempty oracle diff), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .eisenstein import TRIPLES_KMAX, EisensteinTriple, omega, primitive_triples, zeta
from .errors import DomainError, UsageError, VerificationError, ZtetraError
from .numtheory import INT64_MAX, THREE_D2_DMAX, NormalQuadruple, solve_three_d2
from .oracle import BRUTE_T0_MAX, brute_t0, compare, compare_with_bfile, read_bfile
from .tetra import (
    GRID_COUNT_MAX,
    FaceNormalSet,
    LatticeTetrahedron,
    count_t0,
    enumerate_t0,
    face_normals,
    grid_counts,
    signed_completions,
    verify_orthogonality,
)
from .triangle import ORIGIN, coeff_matrix, triangle_points, verify_equilateral

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _write(record: dict) -> None:
    print(_ENCODER.encode(record))


def _write_count(args, record: dict) -> None:
    """Write the count record that ends a run.  In csv, which _check_format
    allows for no other run, it is a header of its sorted field names and one row."""
    if args.format == "csv":
        fields = sorted(record)
        print(",".join(fields))
        print(",".join(str(record[f]) for f in fields))
    else:
        _write(record)


def checked_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if abs(value) > INT64_MAX:
        raise argparse.ArgumentTypeError(f"integer out of the 64-bit safe range: {text}")
    return value


def quad_arg(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected a,b,c,d with four integers, got {text!r}")
    a, b, c, d = (checked_int(p) for p in parts)
    return (a, b, c, d)


def cmd_solve3d2(args) -> int:
    for quad in solve_three_d2(args.d):
        _write({"kind": "quadruple", **quad._asdict(), "q": quad.q})
    return 0


def cmd_omega(args) -> int:
    for m, n in omega(args.k):
        _write({"kind": "pair", "m": m, "n": n, "k": args.k})
    return 0


def cmd_triples(args) -> int:
    for t in primitive_triples(args.kmax):
        _write({"kind": "triple", **t._asdict()})
    return 0


def _plane_records(quad, m: int, n: int):
    """The records of the (m, n) triangle in the plane quad, as triangles and
    complete write them: the triangle with the plane provenance, then per apex
    side its tetrahedron and normal set, their provenance adding sign.  Lazy,
    so the triangle comes out even when zeta(m, n) is not a square."""
    cm = coeff_matrix(NormalQuadruple(*quad))
    plane = {"quad": quad, "r": cm.rs.r, "s": cm.rs.s, "m": m, "n": n}
    yield {"kind": "triangle", **triangle_points(cm, m, n)._asdict(), "provenance": plane}
    for sign, tet in signed_completions(cm, m, n):
        provenance = {**plane, "sign": sign}
        yield {"kind": "tetrahedron", **tet._asdict(), "provenance": provenance}
        yield {"kind": "normal-set", **face_normals(tet)._asdict(), "provenance": provenance}


def cmd_triangles(args) -> int:
    _write(next(_plane_records(args.quad, args.m, args.n)))
    return 0


def cmd_complete(args) -> int:
    records = _plane_records(args.quad, args.m, args.n)
    next(records)  # the triangle, which triangles writes
    for rec in records:
        if args.with_normals or rec["kind"] == "tetrahedron":
            _write(rec)
    return 0


# One enumerate-t0 tetrahedron line: _ENCODER's line for {"kind": "tetrahedron",
# **tet._asdict(), "provenance": {"ell": ell}}, filled in directly.
_T0_LINE = ('{"ell":%d,"kind":"tetrahedron","provenance":{"ell":%d},"side_sq":%d,'
            '"vertices":[[%d,%d,%d],[%d,%d,%d],[%d,%d,%d],[%d,%d,%d]]}\n')


def cmd_enumerate_t0(args) -> int:
    if args.count_only:
        value = count_t0(args.ell)
    else:
        tets = enumerate_t0(args.ell)
        write = sys.stdout.write
        for tet in tets:
            p0, p1, p2, p3 = tet.vertices
            write(_T0_LINE % (tet.ell, args.ell, tet.side_sq, *p0, *p1, *p2, *p3))
        value = len(tets)
    _write_count(args, {"kind": "count", "what": "tetrahedra_t0", "ell": args.ell, "value": value})
    return 0


# Each grid-count --shape, as grid_counts takes it, and the what of its count record.
_GRID_SHAPES = {"tetra": "grid_tetrahedra", "triangle": "grid_triangles"}


def cmd_grid_count(args) -> int:
    terms = None if args.bfile is None else read_bfile(args.bfile)
    counts = grid_counts(args.n, args.shape)
    _write_count(args, {"kind": "count", "what": _GRID_SHAPES[args.shape], "n": args.n, "shape": args.shape,
                        "value": counts[-1]})
    if terms is None:
        return 0
    for report in compare_with_bfile(dict(enumerate(counts)), terms):
        _write({"kind": "diff", "what": "bfile", "shape": args.shape, **report._asdict(),
                "matched": report.matched})
    return 0


def cmd_oracle_compare(args) -> int:
    brute = brute_t0(args.ell)  # first, so an ell above its cap is rejected before any work
    report = compare(enumerate_t0(args.ell), brute)
    _write({"kind": "diff", "what": "t0_oracle", "ell": args.ell,
            "missing": [t.vertices for t in report.missing], "extra": [t.vertices for t in report.extra]})
    return 0 if report.is_empty() else 1


def _not_an_integer(text: str):
    raise ValueError(f"not an integer: {text}")


# No producer emits a float, NaN or Infinity, so verify's decoder rejects them anywhere.
_DECODER = json.JSONDecoder(parse_float=_not_an_integer, parse_constant=_not_an_integer)

_INT = ()  # the list shape of one integer

# The provenance objects of the producers that write one: triangles writes
# its plane's quad and (r, s) with the pair (m, n); complete adds the sign of
# the apex side, and enumerate-t0 writes its ell.
_PLANE = {"quad": (4,), "r": _INT, "s": _INT, "m": _INT, "n": _INT}
_COMPLETE = {**_PLANE, "sign": {1, -1}}

# The fields of each record a producer writes, besides kind and what, keyed
# by kind, or by (kind, what) for count and diff records.  A field is a list
# shape of integers (_INT one integer, (3,) a list of three, (None, 3) any
# number of lists of three), an integer N for any integer at least N, a
# range of allowed integers, bool for a JSON boolean, a set of allowed
# values, or a list of rows for an object holding exactly the fields of one
# of them.  Only provenance, a field of that last kind, may be left out.
_ROWS = {
    "tetrahedron": {"vertices": (4, 3), "side_sq": _INT, "ell": 1, "provenance": [{"ell": 1}, _COMPLETE]},
    "triangle": {"p": (3,), "q": (3,), "side_sq": _INT, "provenance": [_PLANE]},
    "quadruple": {"a": _INT, "b": _INT, "c": _INT, "d": _INT, "q": _INT},
    "normal-set": {"faces": (4, 4), "provenance": [_COMPLETE]},
    "pair": {"m": _INT, "n": _INT, "k": _INT},
    "triple": {"m": _INT, "n": _INT, "k": _INT, "u": _INT, "v": _INT, "form": _INT},
    ("count", "tetrahedra_t0"): {"ell": 1, "value": 0},
    **{("count", what): {"n": range(GRID_COUNT_MAX + 1), "shape": {shape}, "value": 0}
       for shape, what in _GRID_SHAPES.items()},
    ("count", "verified_records"): {"value": 0},
    ("diff", "bfile"): {"shape": set(_GRID_SHAPES), "offset": {0, 1}, "matched": bool,
                        "mismatches": (None, 3), "missing": (None,)},
    ("diff", "t0_oracle"): {"ell": range(1, BRUTE_T0_MAX + 1), "missing": (None, 4, 3),
                            "extra": (None, 4, 3)},
}


def _check_field(name: str, value, spec) -> None:
    """Require value to fit spec, a field of _ROWS; raises TypeError or ValueError."""
    if type(spec) is tuple:
        items = [value]
        for size in spec:
            for item in items:
                if type(item) is not list or size is not None and len(item) != size:
                    raise TypeError(f"{name} must be nested lists of shape {spec}, got {value!r}")
            items = [x for item in items for x in item]
        for item in items:
            if type(item) is not int:
                raise TypeError(f"{name} must hold only integers, got {value!r}")
    elif spec is bool:
        if type(value) is not bool:
            raise TypeError(f"{name} must be a boolean, got {value!r}")
    elif type(spec) is int:
        if type(value) is not int or value < spec:
            raise ValueError(f"{name} must be an integer of at least {spec}, got {value!r}")
    elif type(spec) is range:
        if type(value) is not int or value not in spec:
            raise ValueError(f"{name} must be an integer in [{spec[0]}, {spec[-1]}], got {value!r}")
    elif type(spec) is list:
        row = next((row for row in spec if type(value) is dict and value.keys() == row.keys()), None)
        if row is None:
            raise ValueError(f"{name} must hold exactly the fields of one of {[sorted(r) for r in spec]}, "
                             f"got {value!r}")
        for key, sub in row.items():
            _check_field(f"{name}.{key}", value[key], sub)
    elif type(value) not in (int, str) or value not in spec:
        raise ValueError(f"{name} must be one of {sorted(spec)}, got {value!r}")


def _grid_counts_memo():
    """grid_counts for one verify run: a shape is walked again only for an n
    past its longest list so far, as entry i of grid_counts(n, shape) is
    grid_counts(i, shape)[-1]."""
    walked: dict[str, list[int]] = {}

    def counts(n: int, shape: str) -> list[int]:
        if len(walked.get(shape, ())) <= n:
            walked[shape] = grid_counts(n, shape)
        return walked[shape][:n + 1]

    return counts


def _verify_record(rec: dict, recount) -> None:
    """Require exactly the fields of rec's row in _ROWS, then redo its producer's
    math; recount is the run's _grid_counts_memo."""
    kind = rec.get("kind")
    key = (kind, rec.get("what")) if kind in ("count", "diff") else kind
    row = _ROWS.get(key)
    if row is None:
        raise ValueError(f"no producer emits a record of {key!r}")
    head = ("kind",) if key is kind else ("kind", "what")
    known = len(head)
    for name, spec in row.items():
        if name in rec:
            known += 1
            value = rec[name]
            if spec is not _INT or type(value) is not int:
                _check_field(name, value, spec)
        elif name != "provenance":
            raise KeyError(name)
    if len(rec) != known:
        extra = rec.keys() - {*row, *head}
        raise ValueError(f"no producer writes {sorted(extra)} in a record of {key!r}")
    if kind == "tetrahedron":
        tet = LatticeTetrahedron.from_vertices(rec["vertices"])
        side_sq, ell = tet.side_sq, rec["ell"]
        if ell != tet.ell:
            raise VerificationError(f"recorded ell {ell} does not square to {side_sq}")
        if "ell" in rec.get("provenance", ()):
            if rec["provenance"]["ell"] != ell:
                raise VerificationError(f"provenance ell {rec['provenance']['ell']} is not the recorded ell {ell}")
            # enumerate-t0 writes each member of T0(ell) with its vertices in sorted order.
            if ORIGIN not in tet.vertices or list(map(list, tet.vertices)) != rec["vertices"]:
                raise VerificationError(f"vertices {rec['vertices']} are not a sorted member of T0({ell})")
    elif kind == "triangle":
        side_sq = verify_equilateral(rec["p"], rec["q"])
    elif kind == "quadruple":
        quad = NormalQuadruple(rec["a"], rec["b"], rec["c"], rec["d"])
        if rec["q"] != quad.q:
            raise VerificationError(f"recorded q {rec['q']} != {quad.q}")
    elif kind == "normal-set":
        faces = tuple(NormalQuadruple(*f) for f in rec["faces"])
        if not verify_orthogonality(FaceNormalSet(faces)):
            raise VerificationError("face normals fail the orthogonality identities")
    elif kind in ("pair", "triple"):
        m, n, k = rec["m"], rec["n"], rec["k"]
        EisensteinTriple(m, n, k)
        if kind == "triple":  # u, v and form generate (m, n, k) by the formulas of EisensteinTriple
            u, v, form = rec["u"], rec["v"], rec["form"]
            forms = {1: (v * v - u * u, 2 * u * v - u * u), 2: (2 * u * v - u * u, 2 * u * v - v * v)}
            if form not in forms:
                raise VerificationError(f"triple form must be 1 or 2, got {form}")
            if (m, n) != forms[form] or k != zeta(u, v):
                raise VerificationError(f"(m, n, k) = {(m, n, k)} is not form {form} of (u, v) = {(u, v)}")
    elif key == ("count", "tetrahedra_t0") and rec["value"] != count_t0(rec["ell"]):
        raise VerificationError(f"recorded value {rec['value']} != {count_t0(rec['ell'])} = |T0({rec['ell']})|")
    elif kind == "count" and "shape" in rec:
        value = recount(rec["n"], rec["shape"])[-1]
        if rec["value"] != value:
            raise VerificationError(f"recorded value {rec['value']} != {value}, the {key[1]} in {{0..{rec['n']}}}^3")
    elif key == ("diff", "bfile"):
        mismatches, missing = rec["mismatches"], rec["missing"]
        if rec["matched"] != (not mismatches and not missing):
            raise VerificationError(f"matched is {rec['matched']} with {len(mismatches)} "
                                    f"mismatches and {len(missing)} missing")
        # compare_with_bfile lists each grid size once, in increasing order, as a mismatch or as missing.
        sizes = [i for i, _, _ in mismatches]
        for listed in (sizes, missing):
            if listed != sorted(set(listed)) or listed and not 0 <= listed[0] <= listed[-1] <= GRID_COUNT_MAX:
                raise VerificationError(f"grid sizes {listed} are not increasing in [0, {GRID_COUNT_MAX}]")
        if set(sizes) & set(missing):
            raise VerificationError(f"grid sizes {sorted(set(sizes) & set(missing))} are mismatched and missing")
        counts = recount(sizes[-1], rec["shape"]) if sizes else []
        for i, ours, theirs in mismatches:
            if ours == theirs:
                raise VerificationError(f"mismatch {[i, ours, theirs]} has ours equal to theirs")
            if ours != counts[i]:
                raise VerificationError(f"mismatch {[i, ours, theirs]} records ours {ours} != {counts[i]}, "
                                        f"the {_GRID_SHAPES[rec['shape']]} in {{0..{i}}}^3")
    elif key == ("diff", "t0_oracle"):
        # Each listed tetrahedron is a distinct member of T0(ell): a regular
        # tetrahedron with a vertex at the origin and squared side 2*ell*ell.
        ell, seen = rec["ell"], set()
        for vertices in (*rec["missing"], *rec["extra"]):
            tet = LatticeTetrahedron.from_vertices(vertices)
            if ORIGIN not in tet.vertices or tet.ell != ell:
                raise VerificationError(f"tetrahedron {vertices} is not in T0({ell})")
            if tet in seen:
                raise VerificationError(f"tetrahedron {vertices} is listed twice")
            seen.add(tet)
    if kind in ("tetrahedron", "triangle") and side_sq != rec["side_sq"]:
        raise VerificationError(f"recorded side_sq {rec['side_sq']} != {side_sq}")
    if "quad" in rec.get("provenance", ()):
        _check_plane(rec, rec["provenance"])


def _check_plane(rec: dict, prov: dict) -> None:
    """Require rec to be one of the records that _plane_records writes for the
    triangles or complete provenance prov; a triangle can only be the first."""
    line = _ENCODER.encode(rec)
    records = _plane_records(prov["quad"], prov["m"], prov["n"])
    if rec["kind"] == "triangle":
        records = [next(records)]
    if not any(_ENCODER.encode(built) == line for built in records):
        raise VerificationError(f"the provenance {_ENCODER.encode(prov)} does not rebuild this record")


def cmd_verify(args) -> int:
    if args.file == "-":
        path, lines = Path("<stdin>"), nullcontext(sys.stdin.buffer)
    else:
        path = Path(args.file)
        try:
            lines = path.open("rb")
        except FileNotFoundError:
            raise DomainError(f"no such file: {path}") from None
        except OSError as exc:
            raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    checked, recount = 0, _grid_counts_memo()
    with lines as stream:
        for lineno, raw in enumerate(stream, start=1):
            try:
                line = raw.decode().strip()
                if not line:
                    continue
                rec = _DECODER.decode(line)
                if not isinstance(rec, dict):
                    raise DomainError("record is not an object")
                _verify_record(rec, recount)
            except ZtetraError as exc:
                raise VerificationError(f"{path}:{lineno}: {exc}") from exc
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise DomainError(f"{path}:{lineno}: malformed record ({exc})") from exc
            checked += 1
    _write_count(args, {"kind": "count", "what": "verified_records", "value": checked})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ztetra",
        description="Construct, enumerate, count and verify equilateral triangles "
        "and regular tetrahedra with integer coordinates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl",
                        help="output format (csv covers count records only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve3d2", parents=[common],
                       help=f"primitive quadruples a^2+b^2+c^2 = 3d^2 for one odd d <= {THREE_D2_DMAX}")
    p.add_argument("--d", type=checked_int, required=True)
    p.set_defaults(func=cmd_solve3d2)

    p = sub.add_parser("omega", parents=[common],
                       help="all (m, n) with m^2 - mn + n^2 = k^2")
    p.add_argument("--k", type=checked_int, required=True)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("triples", parents=[common], help="primitive positive (m, n, k) with "
                       f"m^2 - mn + n^2 = k^2, k <= kmax <= {TRIPLES_KMAX}")
    p.add_argument("--kmax", type=checked_int, required=True)
    p.set_defaults(func=cmd_triples)

    plane = argparse.ArgumentParser(add_help=False, parents=[common])
    plane.add_argument("--quad", type=quad_arg, required=True, metavar="a,b,c,d",
                       help="normal (a, b, c) and odd d of the plane, a^2+b^2+c^2 = 3d^2; write "
                       "--quad=-1,-1,-1,1 when a is negative, as in many face normals of complete --with-normals")
    plane.add_argument("--m", type=checked_int, required=True)
    plane.add_argument("--n", type=checked_int, required=True)

    p = sub.add_parser("triangles", parents=[plane],
                       help="the equilateral triangle of a plane and parameter pair")
    p.set_defaults(func=cmd_triangles)

    p = sub.add_parser("complete", parents=[plane],
                       help="extend a triangle to its regular tetrahedra")
    p.add_argument("--with-normals", action="store_true",
                   help="also emit the face normal set of each tetrahedron")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("enumerate-t0", parents=[common],
                       help="all origin tetrahedra with squared side 2*ell^2 (the odd part of ell "
                       f"at most {THREE_D2_DMAX}); --count-only counts them for any ell <= 2^63 - 1")
    p.add_argument("--ell", type=checked_int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate_t0)

    p = sub.add_parser("grid-count", parents=[common],
                       help=f"count the shapes in the cube {{0..n}}^3 for n <= {GRID_COUNT_MAX}, "
                       "from the origin shapes and their translates")
    p.add_argument("--n", type=checked_int, required=True)
    p.add_argument("--shape", choices=_GRID_SHAPES, required=True)
    p.add_argument("--bfile", default=None, help="OEIS b-file to compare against")
    p.set_defaults(func=cmd_grid_count)

    p = sub.add_parser("oracle-compare", parents=[common], help="diff the parametrized origin "
                       f"enumeration against brute force (ell <= {BRUTE_T0_MAX})")
    p.add_argument("--ell", type=checked_int, required=True)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("verify", parents=[common],
                       help="re-verify a file of emitted records")
    p.add_argument("--file", required=True, help="JSONL file to read, or - for stdin")
    p.set_defaults(func=cmd_verify)

    return parser


def _check_format(args) -> None:
    """Reject --format csv before any work unless the run emits count records only."""
    counts_only = (args.func is cmd_verify
                   or args.func is cmd_enumerate_t0 and args.count_only
                   or args.func is cmd_grid_count and args.bfile is None)
    if args.format == "csv" and not counts_only:
        raise UsageError("--format csv supports count records only: enumerate-t0 --count-only, "
                         "grid-count without --bfile, or verify")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_format(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ZtetraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream reader (e.g. head) closed the pipe; exit quietly.
        # Redirect stdout to devnull so the interpreter's final flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
