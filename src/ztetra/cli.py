"""Command line interface emitting line-delimited structured records.

Every subcommand prints one JSON object per line with sorted keys and no
whitespace, so identical arguments give byte-identical output across runs.
enumerate-t0, grid-count and verify also take --format csv for a run that
writes only its count record; the other subcommands have no --format.
A record is the fields of its library named tuple (_asdict) plus a kind and
what is not a field (a quadruple's q, a b-file diff's matched, a provenance).
verify rebuilds each record from its independent fields through the library
(_REBUILDS) and requires the record to equal that rebuild; a record with a
triangles or complete provenance is rebuilt by its producers' _plane_records,
and a diff by its producer's builder (_bfile_diffs, _t0_diff) re-running
compare_with_bfile or compare on what the record implies.
grid-count, its --bfile diff and verify's recounts are grid_counts calls; the
oracle's grid scans referee it and are not imported here.  Exit codes: 0
success, 1 domain or verification failure (including a nonempty oracle
diff), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path

from .eisenstein import TRIPLES_KMAX, EisensteinTriple, omega, primitive_triples, zeta
from .errors import DomainError, UsageError, VerificationError, ZtetraError
from .numtheory import INT64_MAX, THREE_D2_DMAX, NormalQuadruple, check_range, solve_three_d2
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
    t0_rows,
    verify_orthogonality,
)
from .triangle import ORIGIN, coeff_matrix, triangle_points, verify_equilateral

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _write(record: dict) -> None:
    print(_ENCODER.encode(record))


_CSV_COUNTS_ONLY = ("--format csv supports count records only: enumerate-t0 --count-only, "
                    "grid-count without --bfile, or verify")


def _write_count(args, record: dict) -> None:
    """Write the count record that ends a run.  In csv (the run writes no other
    record, see _CSV_COUNTS_ONLY) it is a header of its sorted field names and one row."""
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
# **tet._asdict(), "provenance": {"ell": ell}}.  ell and side_sq are filled in
# once per run; what is left takes one t0_rows row, its 12 vertex coordinates.
_T0_LINE = ('{"ell":%d,"kind":"tetrahedron","provenance":{"ell":%d},"side_sq":%d,'
            '"vertices":[[%%d,%%d,%%d],[%%d,%%d,%%d],[%%d,%%d,%%d],[%%d,%%d,%%d]]}\n')
# Lines per stdout write: one write(2) per block even on unbuffered stdout.
_T0_BLOCK = 4096


def cmd_enumerate_t0(args) -> int:
    if args.format == "csv" and not args.count_only:
        raise UsageError(_CSV_COUNTS_ONLY)
    if args.count_only:
        value = count_t0(args.ell)
    else:
        rows, line = t0_rows(args.ell), _T0_LINE % (args.ell, args.ell, 2 * args.ell**2)
        for start in range(0, len(rows), _T0_BLOCK):
            sys.stdout.write("".join(map(line.__mod__, rows[start:start + _T0_BLOCK])))
        value = len(rows)
    _write_count(args, {"kind": "count", "what": "tetrahedra_t0", "ell": args.ell, "value": value})
    return 0


# Each grid-count --shape, as grid_counts takes it, and the what of its count record.
_GRID_SHAPES = {"tetra": "grid_tetrahedra", "triangle": "grid_triangles"}


def cmd_grid_count(args) -> int:
    if args.format == "csv" and args.bfile is not None:
        raise UsageError(_CSV_COUNTS_ONLY)
    terms = None if args.bfile is None else read_bfile(args.bfile)
    counts = grid_counts(args.n, args.shape)
    _write_count(args, {"kind": "count", "what": _GRID_SHAPES[args.shape], "n": args.n, "shape": args.shape,
                        "value": counts[-1]})
    if terms is None:
        return 0
    for diff in _bfile_diffs(counts, terms, args.shape):
        _write(diff)
    return 0


def _bfile_diffs(counts: list[int], terms, shape: str) -> list[dict]:
    """The diff records, offset 0 then 1, of the grid counts counts[n] against b-file terms."""
    return [{"kind": "diff", "what": "bfile", "shape": shape, "offset": r.offset, "matched": r.matched,
             "mismatches": [list(m) for m in r.mismatches], "missing": list(r.missing)}
            for r in compare_with_bfile(dict(enumerate(counts)), terms)]


def _t0_diff(ell: int, report) -> dict:
    """The diff record of a compare report on T0(ell)."""
    missing, extra = ([list(map(list, t.vertices)) for t in side] for side in (report.missing, report.extra))
    return {"kind": "diff", "what": "t0_oracle", "ell": ell, "missing": missing, "extra": extra}


def cmd_oracle_compare(args) -> int:
    brute = brute_t0(args.ell)  # first, so an ell above its cap is rejected before any work
    report = compare(enumerate_t0(args.ell), brute)
    _write(_t0_diff(args.ell, report))
    return 0 if report.is_empty() else 1


# No producer writes a float, NaN or Infinity, and int() parses none of their JSON
# texts, so verify's decoder rejects them anywhere.
_DECODER = json.JSONDecoder(parse_float=int, parse_constant=int)


def _recount(walked: dict[str, list[int]], n: int, shape: str) -> list[int]:
    """grid_counts(n, shape) for one verify run, which keeps the longest list of
    each shape in walked: entry i of grid_counts(n, shape) is grid_counts(i, shape)[-1]."""
    check_range("n", n, 0, GRID_COUNT_MAX)
    if len(walked.get(shape, ())) <= n:
        walked[shape] = grid_counts(n, shape)
    return walked[shape][:n + 1]


# Each rebuild takes a record's independent fields through the library and
# returns what their producer writes, derived fields recomputed, as decoded
# JSON holds it.  Every value it takes from the record passes through a
# validating constructor, check_range, int() or arithmetic, or is compared with
# a value so computed, and every list in it is built anew, so the record equals
# its rebuild only where each field has the type its producer writes.
# recount is _recount for the run.

def _tetrahedron(rec: dict, recount) -> dict:
    vertices = [[x, y, z] for x, y, z in rec["vertices"]]  # other than 3 coordinates: malformed, as in _triangle
    tet = LatticeTetrahedron.from_vertices(vertices)
    built = {"kind": "tetrahedron", "vertices": vertices, "side_sq": tet.side_sq, "ell": tet.ell}
    if "ell" in rec.get("provenance", ()):  # enumerate-t0 writes T0(ell), vertices sorted
        if ORIGIN not in tet.vertices:
            raise VerificationError(f"vertices {rec['vertices']} are not a member of T0({tet.ell})")
        built.update(vertices=list(map(list, tet.vertices)), provenance={"ell": tet.ell})
    return built


def _triangle(rec: dict, recount) -> dict:
    (x, y, z), (u, v, w) = rec["p"], rec["q"]
    p, q = [x, y, z], [u, v, w]
    return {"kind": "triangle", "p": p, "q": q, "side_sq": verify_equilateral(p, q)}


def _quadruple(rec: dict, recount) -> dict:
    quad = NormalQuadruple(rec["a"], rec["b"], rec["c"], rec["d"])
    return {"kind": "quadruple", **quad._asdict(), "q": quad.q}


def _pair(rec: dict, recount) -> dict:
    m, n, k = int(rec["m"]), int(rec["n"]), int(rec["k"])  # int(), by the rule above: zeta repeats a list m times
    return {"kind": "pair", **dict(zip("mnk", EisensteinTriple(m, n, k)))}


def _normal_set(rec: dict, recount) -> dict:
    faces = rec["faces"]
    if not verify_orthogonality(FaceNormalSet(tuple(NormalQuadruple(*f) for f in faces))):
        raise VerificationError("face normals fail the orthogonality identities")
    return {"kind": "normal-set", "faces": [list(f) for f in faces]}


def _triple(rec: dict, recount) -> dict:
    u, v, form = rec["u"], rec["v"], rec["form"]  # (m, n) by the formulas of EisensteinTriple
    mn = {1: (v * v - u * u, 2 * u * v - u * u), 2: (2 * u * v - u * u, 2 * u * v - v * v)}.get(form)
    if mn is None:
        raise VerificationError(f"triple form must be 1 or 2, got {form!r}")
    return {"kind": "triple", **EisensteinTriple(*mn, zeta(u, v), u, v, form)._asdict()}


def _t0_count(rec: dict, recount) -> dict:
    return {"kind": "count", "what": "tetrahedra_t0", "ell": rec["ell"], "value": count_t0(rec["ell"])}


def _grid_count(rec: dict, recount) -> dict:
    n, shape = rec["n"], rec["shape"]
    return {"kind": "count", "what": _GRID_SHAPES[shape], "n": n, "shape": shape, "value": recount(n, shape)[-1]}


def _verified_count(rec: dict, recount) -> dict:
    check_range("value", rec["value"], 0)
    return {"kind": "count", "what": "verified_records", "value": rec["value"]}


def _bfile_diff(rec: dict, recount) -> dict:
    # compare_with_bfile on the terms the record implies: ours at each size it does not list,
    # theirs (any b-file term) at each mismatch, and none at each missing size.
    offset, shape, missing = rec["offset"], rec["shape"], list(rec["missing"])
    check_range("offset", offset, 0, 1)
    if type(rec["matched"]) is not bool:  # == takes 1 for true; see also _verify_record
        raise TypeError(f"matched must be a boolean, got {rec['matched']!r}")
    theirs = {i: int(t) for i, _, t in rec["mismatches"]}
    counts = recount(max([*theirs, *missing], default=0), shape)
    terms = [(i + offset, theirs.get(i, c)) for i, c in enumerate(counts) if i not in missing]
    return _bfile_diffs(counts, terms, shape)[offset]


def _oracle_diff(rec: dict, recount) -> dict:
    # compare re-run on the listed members of T0(ell): missing as brute force's, extra as the enumeration's.
    ell = rec["ell"]
    check_range("ell", ell, 1, BRUTE_T0_MAX)
    missing, extra = ([LatticeTetrahedron.from_vertices(v) for v in rec[side]] for side in ("missing", "extra"))
    for tet in (*missing, *extra):
        if ORIGIN not in tet.vertices or tet.ell != ell:
            raise VerificationError(f"tetrahedron {list(map(list, tet.vertices))} is not in T0({ell})")
    return _t0_diff(ell, compare(extra, missing))


# The rebuild of each record a producer writes, keyed by kind, or by kind and what for counts and diffs.
_REBUILDS = {
    "tetrahedron": _tetrahedron,
    "triangle": _triangle,
    "quadruple": _quadruple,
    "normal-set": _normal_set,
    "pair": _pair,
    "triple": _triple,
    ("count", "tetrahedra_t0"): _t0_count,
    **{("count", what): _grid_count for what in _GRID_SHAPES.values()},
    ("count", "verified_records"): _verified_count,
    ("diff", "bfile"): _bfile_diff,
    ("diff", "t0_oracle"): _oracle_diff,
}


def _verify_record(line: str, recount) -> None:
    """Require the record on line to equal its one rebuild, _plane's for a
    triangles or complete provenance and _REBUILDS's for any other, with no
    true, false or null but a bfile diff's matched."""
    rec = _DECODER.decode(line)
    if type(rec) is not dict:
        raise DomainError("record is not an object")
    kind = rec.get("kind")
    key = (kind, rec.get("what")) if kind in ("count", "diff") else kind
    rebuild = _REBUILDS.get(key)
    if rebuild is None:
        raise ValueError(f"no producer emits a record of {key!r}")
    # _DECODER lets no float through, and JSON spells true, false and null out, which
    # no producer writes in a string, nor as a value but a bfile diff's matched (a bool).
    if line.count("true") + line.count("false") + line.count("null") > (key == ("diff", "bfile")):
        raise TypeError("no producer writes true, false or null here")
    built = _plane(kind, rec["provenance"]) if "quad" in rec.get("provenance", ()) else rebuild(rec, recount)
    if rec != built:  # name the first field, in sorted order, that is extra, missing (KeyError) or wrong
        name = min(rec.keys() ^ built.keys() or (name for name in rec if rec[name] != built[name]))
        if name not in built:
            raise ValueError(f"no producer writes {name} in a record of {key!r}")
        raise VerificationError(f"recorded {name} {_ENCODER.encode(rec[name])} != {_ENCODER.encode(built[name])}, "
                                "rebuilt from the other fields")


def _plane(kind: str, prov: dict) -> dict:
    """The record of kind that _plane_records writes with the triangles or complete
    provenance prov, as decoded JSON holds it; a triangle can only be the first."""
    # int(), by the rule of the rebuilds above; point_p would repeat a string m.
    records = _plane_records(prov["quad"], int(prov["m"]), int(prov["n"]))
    if kind == "triangle":
        records = [next(records)]
    for built in map(_DECODER.decode, map(_ENCODER.encode, records)):
        if built["kind"] == kind and built["provenance"] == prov:
            return built
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
    checked, recount = 0, partial(_recount, {})
    with lines as stream:
        for lineno, raw in enumerate(stream, start=1):
            try:
                line = raw.decode().strip()
                if line:
                    _verify_record(line, recount)
                    checked += 1
            except ZtetraError as exc:
                raise VerificationError(f"{path}:{lineno}: {exc}") from exc
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise DomainError(f"{path}:{lineno}: malformed record ({exc})") from exc
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

    p = sub.add_parser("solve3d2",
                       help=f"primitive quadruples a^2+b^2+c^2 = 3d^2 for one odd d <= {THREE_D2_DMAX}")
    p.add_argument("--d", type=checked_int, required=True)
    p.set_defaults(func=cmd_solve3d2)

    p = sub.add_parser("omega", help="all (m, n) with m^2 - mn + n^2 = k^2")
    p.add_argument("--k", type=checked_int, required=True)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("triples", help="primitive positive (m, n, k) with "
                       f"m^2 - mn + n^2 = k^2, k <= kmax <= {TRIPLES_KMAX}")
    p.add_argument("--kmax", type=checked_int, required=True)
    p.set_defaults(func=cmd_triples)

    plane = argparse.ArgumentParser(add_help=False)
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

    p = sub.add_parser("oracle-compare", help="diff the parametrized origin "
                       f"enumeration against brute force (ell <= {BRUTE_T0_MAX})")
    p.add_argument("--ell", type=checked_int, required=True)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("verify", parents=[common],
                       help="re-verify a file of emitted records")
    p.add_argument("--file", required=True, help="JSONL file to read, or - for stdin")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
