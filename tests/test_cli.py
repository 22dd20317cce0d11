"""End-to-end CLI behavior: records, formats, exit codes, determinism."""

import argparse
import importlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest

from ztetra import (DomainError, EisensteinTriple, VerificationError, ZtetraError, brute_tetrahedra_grid,
                    brute_triangles_grid, enumerate_t0)
from ztetra import cli
from ztetra.cli import cmd_verify, main

# The environment of a child interpreter: ours, with PYTHONPATH set to the tree this ztetra was imported from.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def records(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_solve3d2_records(capsys):
    code, out = run(capsys, "solve3d2", "--d", "1")
    assert code == 0
    recs = records(out)
    assert len(recs) == 4
    for rec in recs:
        assert rec["kind"] == "quadruple"
        assert rec["a"] ** 2 + rec["b"] ** 2 + rec["c"] ** 2 == 3 * rec["d"] ** 2
        assert rec["q"] == rec["a"] ** 2 + rec["b"] ** 2


def test_solve3d2_rejects_even_d(capsys):
    code = main(["solve3d2", "--d", "2"])
    assert code == 1
    assert "odd" in capsys.readouterr().err


def test_out_of_range_argument_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve3d2", "--d", str(2**63)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve3d2", "--d", "abc"])
    assert exc.value.code == 2
    assert "not an integer: 'abc'" in capsys.readouterr().err


def test_omega_records(capsys):
    code, out = run(capsys, "omega", "--k", "2")
    assert code == 0
    recs = records(out)
    assert [(r["m"], r["n"]) for r in recs] == [
        (-2, -2), (-2, 0), (0, -2), (0, 2), (2, 0), (2, 2)]
    assert all(r["kind"] == "pair" and r["k"] == 2 for r in recs)


def test_triples_records(capsys):
    code, out = run(capsys, "triples", "--kmax", "8")
    assert code == 0
    recs = records(out)
    assert [(r["m"], r["n"], r["k"]) for r in recs] == [
        (1, 1, 1), (3, 8, 7), (5, 8, 7), (8, 3, 7), (8, 5, 7)]
    assert all(r["kind"] == "triple" for r in recs)


def test_triangles_record(capsys):
    code, out = run(capsys, "triangles", "--quad", "1,1,1,1", "--m", "1", "--n", "0")
    assert code == 0
    (rec,) = records(out)
    assert rec["kind"] == "triangle"
    assert rec["p"] == [1, -1, 0]
    assert rec["q"] == [0, -1, 1]
    assert rec["side_sq"] == 2
    assert rec["provenance"] == {"quad": [1, 1, 1, 1], "r": 0, "s": -2, "m": 1, "n": 0}


def test_triangles_rejects_bad_quad(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["triangles", "--quad", "1,1,1", "--m", "1", "--n", "0"])
    assert exc.value.code == 2
    code, _ = run(capsys, "triangles", "--quad", "1,1,2,1", "--m", "1", "--n", "0")
    assert code == 1


def test_a_negative_quad_needs_the_equals_form(capsys):
    # argparse reads a separate "-1,-1,-1,1" as an option, so --quad takes its value after "=".
    with pytest.raises(SystemExit) as exc:
        main(["complete", "--quad", "-1,-1,-1,1", "--m", "1", "--n", "0"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    for command, kind in (("triangles", "triangle"), ("complete", "tetrahedron")):
        code, out = run(capsys, command, "--quad=-1,-1,-1,1", "--m", "1", "--n", "0")
        (rec,) = records(out)
        assert code == 0 and rec["kind"] == kind and rec["provenance"]["quad"] == [-1, -1, -1, 1]


def test_complete_emits_one_or_two_tetrahedra(capsys):
    code, out = run(capsys, "complete", "--quad", "1,1,1,1", "--m", "1", "--n", "0")
    assert code == 0
    recs = records(out)
    assert len(recs) == 1
    assert recs[0]["vertices"] == [[0, -1, 1], [0, 0, 0], [1, -1, 0], [1, 0, 1]]

    code, out = run(capsys, "complete", "--quad", "1,1,1,1", "--m", "3", "--n", "0")
    assert code == 0
    recs = records(out)
    assert len(recs) == 2
    assert {r["provenance"]["sign"] for r in recs} == {1, -1}


def test_complete_with_normals(capsys):
    code, out = run(capsys, "complete", "--quad", "1,1,1,1", "--m", "1", "--n", "0",
                    "--with-normals")
    assert code == 0
    recs = records(out)
    kinds = [r["kind"] for r in recs]
    assert kinds == ["tetrahedron", "normal-set"]
    for a, b, c, d in recs[1]["faces"]:
        assert a * a + b * b + c * c == 3 * d * d

    # k = 3: both sides of the plane complete; the bytes are pinned.
    code, out = run(capsys, "complete", "--quad", "1,1,1,1", "--m", "3", "--n", "0",
                    "--with-normals")
    assert code == 0
    provenance = '"provenance":{"m":3,"n":0,"quad":[1,1,1,1],"r":0,"s":-2,"sign":%d}'
    assert out.splitlines() == [
        '{"ell":3,"kind":"tetrahedron",' + provenance % 1
        + ',"side_sq":18,"vertices":[[0,-3,3],[0,0,0],[3,-3,0],[3,0,3]]}',
        '{"faces":[[1,1,-1,1],[1,-1,1,1],[-1,1,1,1],[-1,-1,-1,1]],"kind":"normal-set",'
        + provenance % 1 + '}',
        '{"ell":3,"kind":"tetrahedron",' + provenance % -1
        + ',"side_sq":18,"vertices":[[-1,-4,-1],[0,-3,3],[0,0,0],[3,-3,0]]}',
        '{"faces":[[1,1,1,1],[1,1,-5,3],[1,-5,1,3],[-5,1,1,3]],"kind":"normal-set",'
        + provenance % -1 + '}',
    ]


def test_enumerate_t0_records_and_count(capsys):
    code, out = run(capsys, "enumerate-t0", "--ell", "1")
    assert code == 0
    recs = records(out)
    assert len(recs) == 9
    assert recs[-1] == {"kind": "count", "what": "tetrahedra_t0", "ell": 1, "value": 8}
    verts = [r["vertices"] for r in recs[:-1]]
    assert verts == sorted(verts)


@pytest.mark.parametrize("ell", [*range(1, 31), 105, 165, 2**62, 3 * 2**40])
def test_enumerate_t0_lines_match_json_dumps(capsys, ell):
    # The fixed line template against the generic record path, over odd
    # and even ell, with negative coordinates in most lines and, for the
    # last two, coordinates past 64 bits.
    code, out = run(capsys, "enumerate-t0", "--ell", str(ell))
    assert code == 0
    want = [json.dumps({"kind": "tetrahedron", **t._asdict(), "provenance": {"ell": ell}},
                       sort_keys=True, separators=(",", ":")) + "\n"
            for t in sorted(enumerate_t0(ell), key=lambda t: t.vertices)]
    assert out.splitlines(keepends=True)[:-1] == want


def test_enumerate_t0_calls_json_dumps_for_the_count_only(capsys, monkeypatch):
    calls = []
    encode = cli._ENCODER.encode
    monkeypatch.setattr(cli._ENCODER, "encode", lambda rec: calls.append(rec) or encode(rec))
    code, out = run(capsys, "enumerate-t0", "--ell", "105")
    assert code == 0
    assert [rec["kind"] for rec in calls] == ["count"]
    assert len(out.splitlines()) == len(enumerate_t0(105)) + 1


def test_enumerate_t0_verifies_every_tetrahedron_it_emits(capsys, monkeypatch):
    from ztetra import tetra

    want = sorted(t.vertices for t in enumerate_t0(15))
    seen = []
    check = tetra.verify_regular
    monkeypatch.setattr(tetra, "verify_regular", lambda *pts: seen.append(pts) or check(*pts))
    code, out = run(capsys, "enumerate-t0", "--ell", "15")
    assert code == 0
    assert sorted(seen) == want == [tuple(map(tuple, rec["vertices"])) for rec in records(out)[:-1]]


def test_enumerate_t0_count_only_csv(capsys):
    code, out = run(capsys, "enumerate-t0", "--ell", "2", "--count-only", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["ell,kind,value,what", "2,count,8,tetrahedra_t0"]
    code, out = run(capsys, "enumerate-t0", "--ell", "15", "--count-only")
    assert code == 0
    assert records(out) == [{"kind": "count", "what": "tetrahedra_t0", "ell": 15, "value": 280}]


def test_enumerate_t0_count_only_counts_the_enumeration(capsys):
    for ell in range(1, 61):
        code, out = run(capsys, "enumerate-t0", "--ell", str(ell), "--count-only")
        assert code == 0
        assert records(out) == [{"kind": "count", "what": "tetrahedra_t0", "ell": ell,
                                 "value": len(enumerate_t0(ell))}], ell


def test_csv_rejects_non_count_records(capsys):
    code, _ = run(capsys, "enumerate-t0", "--ell", "1", "--format", "csv")
    assert code == 2


@pytest.mark.parametrize("argv", [("oracle-compare", "--ell", "100"), ("enumerate-t0", "--ell", "9999")])
def test_csv_rejects_non_count_runs_at_once(capsys, argv):
    start = time.perf_counter()
    if argv[0] == "oracle-compare":  # it has no --format, so argparse rejects one
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        code, message = exc.value.code, "unrecognized arguments: --format csv"
    else:
        code, message = main([*argv, "--format", "csv"]), "--format csv supports count records only"
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert captured.out == ""
    assert message in captured.err


def test_format_is_an_option_of_the_csv_subcommands_only(capsys):
    for name in ("solve3d2", "omega", "triples", "triangles", "complete", "enumerate-t0", "grid-count",
                 "oracle-compare", "verify"):
        with pytest.raises(SystemExit):
            main([name, "--help"])
        assert ("--format" in capsys.readouterr().out) == (name in ("enumerate-t0", "grid-count", "verify")), name


def test_grid_count(capsys):
    code, out = run(capsys, "grid-count", "--n", "1", "--shape", "tetra")
    assert code == 0
    (rec,) = records(out)
    assert rec == {"kind": "count", "what": "grid_tetrahedra", "n": 1, "shape": "tetra",
                   "value": 2}
    code, out = run(capsys, "grid-count", "--n", "1", "--shape", "triangle")
    assert records(out)[0]["value"] == 8


def test_grid_count_states_its_cap(capsys):
    from ztetra.tetra import GRID_COUNT_MAX

    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"{{0..n}}^3 for n <= {GRID_COUNT_MAX}," in " ".join(capsys.readouterr().out.split())
    start = time.perf_counter()
    assert main(["grid-count", "--n", str(GRID_COUNT_MAX + 1), "--shape", "tetra"]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be at most {GRID_COUNT_MAX}, got {GRID_COUNT_MAX + 1}\n"


def test_help_reads_each_cap_from_its_constant(capsys):
    from ztetra.eisenstein import TRIPLES_KMAX
    from ztetra.numtheory import THREE_D2_DMAX
    from ztetra.oracle import BRUTE_T0_MAX
    from ztetra.tetra import GRID_COUNT_MAX

    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    # A subcommand's help runs from its name to the name listed after it.
    for name, after, cap in (("solve3d2", "omega", THREE_D2_DMAX), ("triples", "triangles", TRIPLES_KMAX),
                             ("enumerate-t0", "grid-count", THREE_D2_DMAX),
                             ("grid-count", "oracle-compare", GRID_COUNT_MAX), ("oracle-compare", "verify", BRUTE_T0_MAX)):
        start = text.index(f" {name} ")
        assert re.search(rf"\b{cap}\b", text[start:text.index(f" {after} ", start)]), name


def test_grid_count_with_bfile(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# tetrahedra per grid\n0 0\n1 2\n2 18\n")
    code, out = run(capsys, "grid-count", "--n", "2", "--shape", "tetra",
                    "--bfile", str(path))
    assert code == 0
    recs = records(out)
    assert recs[0]["kind"] == "count"
    diffs = {r["offset"]: r for r in recs[1:]}
    assert diffs[0]["matched"] is True
    assert diffs[1]["matched"] is False


@pytest.mark.parametrize("shape, scan", [("tetra", brute_tetrahedra_grid),
                                         ("triangle", brute_triangles_grid)])
def test_grid_count_bfile_counts_every_smaller_grid(capsys, tmp_path, shape, scan):
    # Every term is wrong, so each mismatch exposes our count for one n.
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{i} 999999999\n" for i in range(6)))
    code, out = run(capsys, "grid-count", "--n", "4", "--shape", shape, "--bfile", str(path))
    assert code == 0
    count, *diffs = records(out)
    want = [[n, len(scan(n)), 999999999] for n in range(5)]
    assert count["value"] == want[-1][1]
    assert [(d["offset"], d["mismatches"], d["missing"]) for d in diffs] == [(0, want, []), (1, want, [])]


def test_grid_count_rejects_csv_with_bfile_before_scanning(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0 0\n1 2\n2 18\n")
    code, out = run(capsys, "grid-count", "--n", "2", "--shape", "tetra",
                    "--bfile", str(path), "--format", "csv")
    assert code == 2
    assert out == ""


def test_grid_count_rejects_a_missing_bfile_before_scanning(capsys, tmp_path):
    path = tmp_path / "absent.txt"
    code = main(["grid-count", "--n", "2", "--shape", "tetra", "--bfile", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: no such file: {path}\n"


def test_grid_count_rejects_a_bfile_directory(capsys, tmp_path):
    code = main(["grid-count", "--n", "2", "--shape", "tetra", "--bfile", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_enumerate_t0_rejects_a_large_odd_part_at_once(capsys):
    start = time.perf_counter()
    code = main(["enumerate-t0", "--ell", "100001"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert elapsed < 1.0
    assert captured.out == ""
    assert "the odd part of ell must be at most 100000" in captured.err


def test_enumerate_t0_count_only_takes_any_ell(capsys):
    # The odd-part cap is the enumeration's; the count comes from the factorization.
    for ell, value in ((100001, 945672), (98175, 3290040), (2**63 - 1, 102754744433239509000)):
        start = time.perf_counter()
        code, out = run(capsys, "enumerate-t0", "--ell", str(ell), "--count-only")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert records(out) == [{"kind": "count", "what": "tetrahedra_t0", "ell": ell, "value": value}]


def test_triples_rejects_kmax_above_the_bound(capsys):
    code = main(["triples", "--kmax", str(10**6 + 1)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "kmax must be at most 1000000" in captured.err


def test_oracle_compare_clean(capsys):
    code, out = run(capsys, "oracle-compare", "--ell", "2")
    assert code == 0
    (rec,) = records(out)
    assert rec["missing"] == [] and rec["extra"] == []


def test_oracle_compare_rejects_a_large_ell_at_once(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "brute force (ell <= 500)" in " ".join(capsys.readouterr().out.split())
    start = time.perf_counter()
    code = main(["oracle-compare", "--ell", "1024"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert elapsed < 1.0
    assert captured.out == ""
    assert "ell must be at most 500" in captured.err


def test_verify_round_trip(capsys, tmp_path):
    for argv in (
        ["solve3d2", "--d", "3"],
        ["omega", "--k", "7"],
        ["triples", "--kmax", "10"],
        ["triangles", "--quad", "1,1,1,1", "--m", "2", "--n", "1"],
        ["complete", "--quad", "1,-1,1,1", "--m", "3", "--n", "0", "--with-normals"],
        ["enumerate-t0", "--ell", "2"],
    ):
        assert main(argv) == 0
        path = tmp_path / "records.jsonl"
        path.write_text(capsys.readouterr().out)
        code, out = run(capsys, "verify", "--file", str(path))
        assert code == 0, argv
        assert records(out)[-1]["what"] == "verified_records"
    # The 8 tetrahedra and the count of enumerate-t0 --ell 2, counted in csv.
    code, out = run(capsys, "verify", "--file", str(path), "--format", "csv")
    assert (code, out.splitlines()) == (0, ["kind,value,what", "count,9,verified_records"])


def test_verify_catches_tampering(capsys, tmp_path):
    assert main(["enumerate-t0", "--ell", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rec = json.loads(lines[0])
    rec["vertices"][0][0] += 1
    path = tmp_path / "tampered.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    code, _ = run(capsys, "verify", "--file", str(path))
    assert code == 1

    rec = json.loads(lines[0])
    rec["side_sq"] = 4
    path.write_text(json.dumps(rec) + "\n")
    code, _ = run(capsys, "verify", "--file", str(path))
    assert code == 1

    rec = json.loads(lines[0])
    rec["ell"] = 2
    path.write_text(json.dumps(rec) + "\n")
    assert main(["verify", "--file", str(path)]) == 1
    assert "recorded ell 2 != 1, rebuilt from the other fields" in capsys.readouterr().err


def test_verify_rejects_unknown_kind_and_bad_json(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind":"widget"}\n')
    assert run(capsys, "verify", "--file", str(path))[0] == 1
    path.write_text("not json\n")
    assert run(capsys, "verify", "--file", str(path))[0] == 1
    assert run(capsys, "verify", "--file", str(tmp_path / "absent.jsonl"))[0] == 1


def test_verify_skips_blank_lines_and_rejects_what_no_producer_writes(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    good = '{"kind":"pair","m":8,"n":3,"k":7}'
    path.write_text(f"\n{good}\n \t\n{good}\n\n")
    code, out = run(capsys, "verify", "--file", str(path))
    assert (code, records(out)) == (0, [{"kind": "count", "what": "verified_records", "value": 2}])
    faces = "[[1,1,1,1],[-1,-1,1,1],[-1,1,-1,1],[1,-1,1,1]]"
    for bad, error in (
            (f'{{"kind":"normal-set","faces":{faces}}}', "face normals fail the orthogonality identities"),
            ('{"kind":"normal-set","faces":[[1,1,1,1],[1,-1,-1,1],[-1,1,-1,1]]}',
             "a face normal set needs exactly 4 faces, got 3"),
            ("[1,2]", "record is not an object"),
            ('{"kind":"diff","what":"bfile","shape":"tetra","offset":0,"matched":1,"mismatches":[],"missing":[]}',
             "matched must be a boolean")):
        path.write_text(good + "\n" + bad + "\n")
        assert main(["verify", "--file", str(path)]) == 1, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:2: " in captured.err and error in captured.err, bad


def test_verify_rejects_a_directory(capsys, tmp_path):
    assert main(["verify", "--file", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_verify_rejects_bytes_that_are_not_utf8(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    good = b'{"kind":"pair","m":8,"n":3,"k":7}\n'
    for data, lineno in ((b"\xff\xfe" + good, 1), (good + b"\xff\xfe" + good, 2)):
        path.write_bytes(data)
        assert main(["verify", "--file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:{lineno}: malformed record ('utf-8' codec")


def test_verify_survives_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    deep = 5000 * "[" + "8" + 5000 * "]"
    for line in (200000 * "[" + 200000 * "]", f'{{"kind":"pair","m":{deep},"n":3,"k":7}}'):
        path.write_text(line + "\n")
        assert main(["verify", "--file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:1: malformed record (")


def test_verify_checks_count_and_diff_field_types(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    for argv in (["enumerate-t0", "--ell", "3", "--count-only"],
                 ["grid-count", "--n", "1", "--shape", "tetra"],
                 ["oracle-compare", "--ell", "2"]):
        assert main(argv) == 0
        path.write_text(capsys.readouterr().out)
        assert run(capsys, "verify", "--file", str(path))[0] == 0, argv
    good = '{"kind":"pair","m":8,"n":3,"k":7}'
    for bad in ('{"kind":"count","value":1.5}',
                '{"kind":"count","value":true}',
                '{"kind":"count","what":"tetrahedra_t0","ell":3.0,"value":40}',
                '{"kind":"count","what":"grid_tetrahedra","n":false,"shape":"tetra","value":2}',
                '{"kind":"diff","what":"t0_oracle","ell":2.0,"missing":[],"extra":[]}',
                '{"kind":"diff","what":"bfile","offset":true,"matched":true}',
                '{"kind":"diff","what":"bfile","offset":0,"matched":1}',
                '{"kind":"diff","what":"bfile","offset":0,"matched":"true"}',
                '{"kind":"count"}',
                '{"kind":"diff"}',
                '{"kind":"count","what":7,"value":1}',
                '{"kind":"count","what":"verified_records"}',
                '{"kind":"diff","what":"bfile","offset":2,"matched":true}',
                '{"kind":"diff","what":"bfile","offset":-1,"matched":true}',
                '{"kind":"diff","what":"bfile","offset":0,"matched":false,"mismatches":[[1,1.5,2]],"missing":[]}',
                '{"kind":"diff","what":"bfile","offset":0,"matched":false,"mismatches":[],"missing":[NaN]}',
                # Each record below lacks a field its producer writes, or has one it never writes.
                '{"kind":"count","what":"grid_tetrahedra","n":2,"shape":"cube","value":18}',
                '{"kind":"count","what":"grid_tetrahedra","shape":"tetra","value":18}',
                '{"kind":"count","what":"verified_records","value":3,"ell":7}',
                '{"kind":"tetrahedron","vertices":[[0,0,0],[1,1,0],[1,0,1],[0,1,1]],"side_sq":2}',
                '{"kind":"quadruple","a":1,"b":1,"c":1,"d":1}',
                '{"kind":"pair","m":8,"n":3,"k":7,"x":1}'):
        path.write_text(good + "\n" + bad + "\n")
        assert main(["verify", "--file", str(path)]) == 1, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:2: malformed record" in captured.err, bad
    # A bound is one check_range, in verify or in the library, and a t0 count's value is recounted.
    t0_count = '{"kind":"count","what":"tetrahedra_t0","value":%d,"ell":%d}'
    for bad, error in ((t0_count % (-5, -2), "ell must be in [1, 2**63 - 1], got -2"),
                       (t0_count % (40, 0), "ell must be in [1, 2**63 - 1], got 0"),
                       (t0_count % (-5, 3), "recorded value -5 != 40, rebuilt from the other fields"),
                       ('{"kind":"count","what":"grid_tetrahedra","n":-1,"shape":"tetra","value":0}',
                        "n must be in [0, 2**63 - 1], got -1"),
                       ('{"kind":"count","what":"verified_records","value":-1}',
                        "value must be in [0, 2**63 - 1], got -1"),
                       ('{"kind":"diff","what":"t0_oracle","ell":0,"missing":[],"extra":[]}',
                        "ell must be in [1, 2**63 - 1], got 0")):
        path.write_text(good + "\n" + bad + "\n")
        assert main(["verify", "--file", str(path)]) == 1, bad
        assert capsys.readouterr() == ("", f"error: {path}:2: {error}\n"), bad


def every_producers_records(capsys, tmp_path, monkeypatch):
    """The records every producer writes, diff records with nonempty lists of both kinds,
    each run followed by verify's count of it; verify accepts each run with and without its count."""
    path = tmp_path / "records.jsonl"
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 0\n1 5\n2 18\n")
    full, full_brute = cli.enumerate_t0, cli.brute_t0
    lines = []
    for argv in (["solve3d2", "--d", "3"],
                 ["omega", "--k", "7"],
                 ["triples", "--kmax", "10"],
                 ["triangles", "--quad", "1,1,1,1", "--m", "2", "--n", "1"],
                 ["complete", "--quad", "1,-1,1,1", "--m", "3", "--n", "0", "--with-normals"],
                 ["enumerate-t0", "--ell", "2"],
                 ["grid-count", "--n", "3", "--shape", "tetra", "--bfile", str(bfile)],
                 ["grid-count", "--n", "2", "--shape", "triangle"],
                 ["oracle-compare", "--ell", "3"]):
        if argv[0] == "oracle-compare":
            # Each side drops a different tetrahedron of T0(ell), so the diff has one missing and
            # one extra.  Patched last: enumerate-t0 would write a count verify rejects.
            monkeypatch.setattr(cli, "enumerate_t0", lambda ell: full(ell)[1:])
            monkeypatch.setattr(cli, "brute_t0", lambda ell: full_brute(ell)[:-1])
        main(argv)
        path.write_text(capsys.readouterr().out)
        code, out = run(capsys, "verify", "--file", str(path))
        assert code == 0, argv
        path.write_text(path.read_text() + out)
        assert run(capsys, "verify", "--file", str(path))[0] == 0, argv
        lines += path.read_text().splitlines()
    return lines


def test_verify_checks_what_and_diff_lists(capsys, tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    # verify has a rebuild for each record some producer writes, and no other.
    keys = {(r["kind"], r["what"]) if r["kind"] in ("count", "diff") else r["kind"]
            for r in records("\n".join(every_producers_records(capsys, tmp_path, monkeypatch)))}
    assert keys == set(cli._REBUILDS)
    good = '{"kind":"pair","m":8,"n":3,"k":7}'
    bfile_diff = '{"kind":"diff","what":"bfile","offset":0,"shape":"tetra",'
    oracle_diff = '{"kind":"diff","what":"t0_oracle","ell":2,'
    malformed = (
        '{"kind":"count","what":"no_such_count","value":3}',
        '{"kind":"count","what":["tetrahedra_t0"],"value":3}',
        '{"kind":"diff","what":"no_such_diff","missing":[],"extra":[]}',
        '{"kind":"diff","what":{"x":1},"missing":[],"extra":[]}',
        oracle_diff + '"missing":[],"extra":[[1,2,3]]}',
        oracle_diff + '"missing":[],"extra":7}',
        oracle_diff + '"missing":[]}',
        '{"kind":"diff","what":"t0_oracle","missing":[],"extra":[]}',
        bfile_diff + '"matched":true,"missing":[]}',
        bfile_diff + '"mismatches":[],"missing":[]}',
        bfile_diff + '"matched":false,"mismatches":[[1,2]],"missing":[]}',
        bfile_diff + '"matched":false,"mismatches":[1,2,5],"missing":[]}',
        bfile_diff + '"matched":false,"mismatches":[[3,72,[73]]],"missing":[]}',
        bfile_diff + '"matched":false,"mismatches":[],"missing":3}',
        bfile_diff.replace('"shape":"tetra",', '') + '"matched":true,"mismatches":[],"missing":[]}',
        bfile_diff.replace('"offset":0,', '') + '"matched":true,"mismatches":[],"missing":[]}',
    )
    disagreeing = (
        (bfile_diff + '"matched":true,"mismatches":[[1,2,5]],"missing":[3]}', "recorded matched true != false"),
        (bfile_diff + '"matched":true,"mismatches":[],"missing":[3]}', "recorded matched true != false"),
        (bfile_diff + '"matched":false,"mismatches":[],"missing":[]}', "recorded matched false != true"),
        (bfile_diff.replace('"tetra"', '"cube"') + '"matched":true,"mismatches":[],"missing":[]}',
         "shape must be 'tetra' or 'triangle', got 'cube'"),
    )
    # A bfile diff is rebuilt by compare_with_bfile on the b-file terms it implies, so a size
    # listed out of order or twice, in both lists or with ours other than our count
    # grid_counts(n, shape)[n], differs from its rebuild, and a size outside [0, GRID_COUNT_MAX] is
    # one no recount takes.
    rebuilt = ", rebuilt from the other fields"
    unwritten = (
        (bfile_diff + '"matched":false,"mismatches":[[1,2,2]],"missing":[]}', "recorded matched false != true"),
        (bfile_diff + '"matched":false,"mismatches":[[1,5,7]],"missing":[-3,-3]}',
         "recorded mismatches [[1,5,7]] != [[1,2,7]]" + rebuilt),
        (bfile_diff + '"matched":false,"mismatches":[[1,2,7]],"missing":[-3,-3]}', "recorded missing [-3,-3] != []"),
        (bfile_diff + '"matched":false,"mismatches":[[1,5,7]],"missing":[]}',
         "recorded mismatches [[1,5,7]] != [[1,2,7]]" + rebuilt),
        (bfile_diff + '"matched":false,"mismatches":[[999,5,7]],"missing":[]}', "n must be at most 60, got 999"),
        (bfile_diff + '"matched":false,"mismatches":[[2,18,5],[1,2,5]],"missing":[]}',
         "recorded mismatches [[2,18,5],[1,2,5]] != [[1,2,5],[2,18,5]]" + rebuilt),
        (bfile_diff + '"matched":false,"mismatches":[[1,2,5],[1,2,5]],"missing":[]}',
         "recorded mismatches [[1,2,5],[1,2,5]] != [[1,2,5]]" + rebuilt),
        (bfile_diff + '"matched":false,"mismatches":[],"missing":[3,2]}', "recorded missing [3,2] != [2,3]"),
        (bfile_diff + '"matched":false,"mismatches":[],"missing":[0,61]}', "n must be at most 60, got 61"),
        (bfile_diff + '"matched":false,"mismatches":[],"missing":[[3]]}', "n must be an integer, got [3]"),
        (bfile_diff + '"matched":false,"mismatches":[[1,2,5]],"missing":[1,3]}',
         "recorded mismatches [[1,2,5]] != []" + rebuilt),
    )
    # A t0_oracle diff is rebuilt by compare on the tetrahedra it lists, each a member of T0(ell):
    # T0(2) holds {0, (2,2,0), (2,0,2), (0,2,2)}, and these lists hold shapes outside it.  A member
    # listed twice, in both lists or out of the sorted order compare writes differs from its rebuild.
    cube = "[[0,0,0],[1,1,0],[1,0,1],[0,1,1]]"
    outside_t0 = (
        (oracle_diff + '"missing":"abc","extra":{"x":1}}', "a tetrahedron needs exactly 4 vertices, got 1"),
        (oracle_diff + '"missing":[],"extra":{"x":1}}', "a tetrahedron needs exactly 4 vertices, got 1"),
        (oracle_diff + '"missing":[[[0,0,0],[1,1,0],[1,0,1]]],"extra":[]}',
         "a tetrahedron needs exactly 4 vertices, got 3"),
        (oracle_diff + '"missing":[[[0,0,0],[0,0,0],[0,0,0],[0,0,0]]],"extra":[]}', "degenerate"),
        (oracle_diff + '"missing":[],"extra":[[[0,0,0],[2,2,0],[2,0,2],[2,2,2]]]}', "|p0 p3|^2"),
        (oracle_diff + '"missing":[],"extra":[[[1,1,1],[3,3,1],[3,1,3],[1,3,3]]]}', "tetrahedron [[1, 1, 1]"),
        (oracle_diff + '"missing":[[[0,0,0],[1,1,0],[1,0,1],[0,1,1]]],"extra":[]}', "tetrahedron [[0, 0, 0]"),
    )
    sorted_cube, other = "[[0,0,0],[0,1,1],[1,0,1],[1,1,0]]", "[[-1,-1,0],[-1,0,-1],[0,-1,-1],[0,0,0]]"
    t0_diff = '{"kind":"diff","what":"t0_oracle","ell":1,"missing":[%s],"extra":[%s]}'
    unordered = (
        (t0_diff % (cube, cube), f"recorded extra [{cube}] != []" + rebuilt),
        (t0_diff % (f"{cube},{cube}", ""), f"recorded missing [{cube},{cube}] != [{sorted_cube}]" + rebuilt),
        (t0_diff % (sorted_cube, sorted_cube), f"recorded extra [{sorted_cube}] != []" + rebuilt),
        (t0_diff % (f"{sorted_cube},{sorted_cube}", ""),
         f"recorded missing [{sorted_cube},{sorted_cube}] != [{sorted_cube}]" + rebuilt),
        (t0_diff % ("", f"{other},{other}"), f"recorded extra [{other},{other}] != [{other}]" + rebuilt),
        # Vertices, then the list, out of the order compare writes.
        ('{"ell":1,"extra":[],"kind":"diff","missing":[[[1,1,0],[0,0,0],[1,0,1],[0,1,1]]],"what":"t0_oracle"}',
         f"recorded missing [[[1,1,0],[0,0,0],[1,0,1],[0,1,1]]] != [{sorted_cube}]" + rebuilt),
        ('{"ell":1,"extra":[],"kind":"diff","missing":[' + f"{sorted_cube},{other}" + '],"what":"t0_oracle"}',
         f"recorded missing [{sorted_cube},{other}] != [{other},{sorted_cube}]" + rebuilt),
    )
    # The rebuilds write lists and integers of their own, so another JSON type in their place differs.
    retyped = (
        (oracle_diff + '"missing":{},"extra":""}', 'recorded extra "" != [], rebuilt from the other fields'),
        (oracle_diff + '"missing":{},"extra":[]}', "recorded missing {} != [], rebuilt from the other fields"),
        (bfile_diff + '"matched":true,"mismatches":{},"missing":[]}', "recorded mismatches {} != [], rebuilt"),
        (bfile_diff + '"matched":true,"mismatches":"","missing":[]}', 'recorded mismatches "" != [], rebuilt'),
        (bfile_diff + '"matched":true,"mismatches":[],"missing":""}', 'recorded missing "" != [], rebuilt'),
        (bfile_diff + '"matched":false,"mismatches":[[3,72,"73"]],"missing":[]}',
         'recorded mismatches [[3,72,"73"]] != [[3,72,73]], rebuilt'),
    )
    cases = [(bad, "malformed record") for bad in malformed] + [*disagreeing, *unwritten, *outside_t0, *unordered,
                                                                *retyped]
    for bad, reason in cases:
        path.write_text(good + "\n" + bad + "\n")
        assert main(["verify", "--file", str(path)]) == 1, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:2: {reason}"), (bad, captured.err)


def verify_lines(capsys, tmp_path, *lines):
    """Exit code and stderr of verify on a file of the given lines."""
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    code = main(["verify", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 0 or captured.out == ""
    return code, captured.err.replace(str(path), "<file>")


def test_verify_recounts_t0(capsys, tmp_path):
    count = '{"kind":"count","what":"tetrahedra_t0","ell":%d,"value":%d}'
    assert verify_lines(capsys, tmp_path, count % (3, 40), count % (2**63 - 1, 102754744433239509000))[0] == 0
    assert verify_lines(capsys, tmp_path, count % (3, 41)) == (
        1, "error: <file>:1: recorded value 41 != 40, rebuilt from the other fields\n")
    code, err = verify_lines(capsys, tmp_path, count % (2**63, 8))
    assert code == 1 and err.startswith("error: <file>:1: ell must be in [1, 2**63 - 1]"), err


def test_verify_bounds_a_grid_count_by_the_grid_cap(capsys, tmp_path):
    # grid-count rejects n above GRID_COUNT_MAX = 60, so no producer writes such a count.
    count = '{"kind":"count","what":"grid_tetrahedra","n":%d,"shape":"tetra","value":51404960}'
    assert verify_lines(capsys, tmp_path, count % 60)[0] == 0
    assert verify_lines(capsys, tmp_path, count % 63) == (
        1, "error: <file>:1: n must be at most 60, got 63\n")


def test_verify_recounts_a_grid_count_with_its_referee(capsys, tmp_path):
    count = '{"kind":"count","what":"grid_%s","n":%d,"shape":"%s","value":%d}'
    good = [count % ("tetrahedra", 3, "tetra", 72), count % ("triangles", 2, "triangle", 80)]
    assert verify_lines(capsys, tmp_path, *good)[0] == 0
    assert verify_lines(capsys, tmp_path, count % ("tetrahedra", 3, "tetra", 73)) == (
        1, "error: <file>:1: recorded value 73 != 72, rebuilt from the other fields\n")
    assert verify_lines(capsys, tmp_path, count % ("triangles", 2, "triangle", 18)) == (
        1, "error: <file>:1: recorded value 18 != 80, rebuilt from the other fields\n")


def test_verify_walks_grid_counts_once_per_shape_and_n(capsys, tmp_path, monkeypatch):
    walks = []
    walk = cli.grid_counts
    monkeypatch.setattr(cli, "grid_counts", lambda n, shape: walks.append((n, shape)) or walk(n, shape))
    count = '{"kind":"count","what":"grid_%s","n":%d,"shape":"%s","value":%d}'
    tetra8, triangle4 = count % ("tetrahedra", 8, "tetra", 3792), count % ("triangles", 4, "triangle", 1264)
    diff = ('{"kind":"diff","what":"bfile","shape":"tetra","offset":0,"matched":false,'
            '"mismatches":[[3,%d,73]],"missing":[]}')
    assert verify_lines(capsys, tmp_path, *[tetra8] * 20)[0] == 0
    assert walks == [(8, "tetra")]
    walks.clear()
    # A diff or count at a smaller n reads the longer list already walked.
    assert verify_lines(capsys, tmp_path, tetra8, triangle4, diff % 72, count % ("tetrahedra", 3, "tetra", 72),
                        tetra8, triangle4)[0] == 0
    assert walks == [(8, "tetra"), (4, "triangle")]
    walks.clear()
    assert verify_lines(capsys, tmp_path, *[tetra8] * 19, count % ("tetrahedra", 3, "tetra", 73)) == (
        1, "error: <file>:20: recorded value 73 != 72, rebuilt from the other fields\n")
    assert verify_lines(capsys, tmp_path, tetra8, diff % 71) == (
        1, "error: <file>:2: recorded mismatches [[3,71,73]] != [[3,72,73]], rebuilt from the other fields\n")
    assert verify_lines(capsys, tmp_path, triangle4, triangle4.replace("1264", "1265")) == (
        1, "error: <file>:2: recorded value 1265 != 1264, rebuilt from the other fields\n")
    assert walks == [(8, "tetra"), (8, "tetra"), (4, "triangle")]


# JSON values of every type, and integers at and past the bounds the rebuilds check.  None lies
# between 10**6 and 2**62, so no case can ask a rebuild for much memory or time.
SWEEP_VALUES = (0, -1, 2, 61, 501, 2**63, -2**64, "", "a", [], [1], {}, None, True)


def test_verify_raises_only_what_it_reports(capsys, tmp_path, monkeypatch):
    # Each field, and each pair of fields, of every record a producer writes, set to each sweep
    # value: _verify_record returns or raises only what cmd_verify reports as a failed record.
    recount = partial(cli._recount, {})
    for line in dict.fromkeys(every_producers_records(capsys, tmp_path, monkeypatch)):
        rec = json.loads(line)
        changes = [*({f: v} for f in rec for v in SWEEP_VALUES),
                   *({f: v, g: w} for f, g in combinations(rec, 2) for v in SWEEP_VALUES for w in SWEEP_VALUES)]
        for change in changes:
            bad = json.dumps({**rec, **change})
            try:
                cli._verify_record(bad, recount)
            except (ZtetraError, KeyError, TypeError, ValueError, RecursionError):
                pass


def test_verify_takes_a_pairs_fields_through_int(capsys, tmp_path):
    # zeta(m, n) computes m * n, which for a list n would repeat it m times.
    for m in (10**7, 2**63):
        tracemalloc.start()
        try:
            code, err = verify_lines(capsys, tmp_path, '{"kind":"pair","m":%d,"n":[1],"k":7}' % m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and err.startswith("error: <file>:1: malformed record (int() argument"), err
        assert peak < 2**20, peak


def test_verify_rebuilds_each_diff_by_one_library_comparison(capsys, tmp_path, monkeypatch):
    # No second copy of compare_with_bfile or compare: each diff's rebuild calls its producer's once.
    calls = []

    def spy(name, call):
        return lambda *args: calls.append(name) or call(*args)

    for name in ("compare_with_bfile", "compare"):
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    bfile = ('{"kind":"diff","what":"bfile","shape":"tetra","offset":1,"matched":false,'
             '"mismatches":[[2,18,5]],"missing":[3]}')
    t0 = '{"kind":"diff","what":"t0_oracle","ell":1,"missing":[[[0,0,0],[0,1,1],[1,0,1],[1,1,0]]],"extra":[]}'
    for line, name in ((bfile, "compare_with_bfile"), (t0, "compare")):
        assert verify_lines(capsys, tmp_path, line)[0] == 0
        assert calls == [name]
        calls.clear()


def test_verify_bounds_an_oracle_diff_by_the_brute_force_cap(capsys, tmp_path):
    # oracle-compare rejects ell above BRUTE_T0_MAX = 500.
    diff = '{"kind":"diff","what":"t0_oracle","ell":%d,"missing":[],"extra":[]}'
    assert verify_lines(capsys, tmp_path, diff % 500)[0] == 0
    assert verify_lines(capsys, tmp_path, diff % 501) == (1, "error: <file>:1: ell must be at most 500, got 501\n")


def test_verify_checks_provenance_against_its_producer(capsys, tmp_path):
    # The records of triangles and complete --with-normals on --quad 1,1,1,1 --m 1 --n 0.
    tet = '{"kind":"tetrahedron","vertices":[[0,-1,1],[0,0,0],[1,-1,0],[1,0,1]],"side_sq":2,"ell":1'
    tri = '{"kind":"triangle","p":[1,-1,0],"q":[0,-1,1],"side_sq":2'
    plane = '"quad":[1,1,1,1],"r":0,"s":-2,"m":1,"n":0'
    normals = '{"kind":"normal-set","faces":[[1,1,-1,1],[1,-1,1,1],[-1,1,1,1],[-1,-1,-1,1]]'
    # What enumerate-t0, triangles and complete write, and no provenance at all.
    good = (tet + ',"provenance":{"ell":1}}', tet + ',"provenance":{' + plane + ',"sign":1}}', tet + "}",
            tri + ',"provenance":{' + plane + "}}", tri + "}",
            normals + ',"provenance":{' + plane + ',"sign":1}}', normals + "}")
    assert verify_lines(capsys, tmp_path, *good)[0] == 0
    # An enumerate-t0 provenance is rebuilt from the vertices, and a triangles or complete one rebuilds the record.
    for bad, error in ((tet + ',"provenance":{"ell":5,"bogus":[1]}}', 'recorded provenance {"bogus":[1],"ell":5} '),
                       (tet + ',"provenance":{"ell":0}}', 'recorded provenance {"ell":0} != {"ell":1}, '),
                       (tet + ',"provenance":{' + plane + "}}", "the provenance "),
                       (tet + ',"provenance":{' + plane + ',"sign":0}}', "the provenance "),
                       (tri + ',"provenance":{' + plane + ',"sign":1}}', "the provenance ")):
        code, err = verify_lines(capsys, tmp_path, good[0], bad)
        assert code == 1 and err.startswith(f"error: <file>:2: {error}"), (bad, err)
    malformed = (
        tet + ',"provenance":null}',
        tri + ',"provenance":{"quad":[1,1,1],"r":0,"s":-2,"m":1,"n":0}}',
        normals + ',"provenance":{"ell":1}}',
        '{"kind":"quadruple","a":1,"b":1,"c":1,"d":1,"q":2,"provenance":{}}',
        '{"kind":"pair","m":8,"n":3,"k":7,"provenance":{"ell":7}}',
        '{"kind":"triple","m":8,"n":3,"k":7,"u":2,"v":3,"form":2,"provenance":{}}',
        '{"kind":"count","what":"tetrahedra_t0","ell":1,"value":8,"provenance":{"ell":1}}',
    )
    for bad in malformed:
        code, err = verify_lines(capsys, tmp_path, good[0], bad)
        assert code == 1 and err.startswith("error: <file>:2: malformed record ("), (bad, err)
    # enumerate-t0 records its own ell as the provenance, and writes only sorted
    # vertices with one at the origin: not a translate, nor the members out of order.
    assert verify_lines(capsys, tmp_path, tet + ',"provenance":{"ell":5}}') == (
        1, 'error: <file>:1: recorded provenance {"ell":5} != {"ell":1}, rebuilt from the other fields\n')
    bad = '{"kind":"tetrahedron","vertices":%s,"side_sq":2,"ell":1,"provenance":{"ell":1}}'
    translate, unsorted = "[[5,5,5],[5,6,6],[6,5,6],[6,6,5]]", "[[0,0,0],[0,-1,1],[1,-1,0],[1,0,1]]"
    rebuilt = "rebuilt from the other fields"
    assert verify_lines(capsys, tmp_path, bad % translate) == (
        1, f"error: <file>:1: vertices {json.loads(translate)} are not a member of T0(1)\n")
    assert verify_lines(capsys, tmp_path, bad % unsorted) == (
        1, f"error: <file>:1: recorded vertices {unsorted} != [[0,-1,1],[0,0,0],[1,-1,0],[1,0,1]], {rebuilt}\n")


def test_verify_rebuilds_a_plane_provenance(capsys, tmp_path):
    # complete --quad 19,41,151,91 --m 3 --n 0 --with-normals: k = 3, so both sides complete.
    plane = '"provenance":{"m":3,"n":0,"quad":[19,41,151,91],"r":-11,"s":61,"sign":%d}'
    tet = '{"ell":273,"kind":"tetrahedron",%s,"side_sq":149058,"vertices":[[-288,255,-33],%s,[0,0,0],[75,363,-108]]}'
    normals = '{"faces":%s,"kind":"normal-set",%s}'
    up, down = "[-33,288,255]", "[-109,124,-349]"
    faces_up = "[[151,-19,41,91],[-19,-41,-151,91],[-41,151,19,91],[-1,-1,1,1]]"
    faces_down = "[[415,-139,-179,273],[19,41,151,91],[-23,53,-35,39],[-311,-355,-29,273]]"
    good = (tet % (plane % 1, up), normals % (faces_up, plane % 1),
            tet % (plane % -1, down), normals % (faces_down, plane % -1))
    assert verify_lines(capsys, tmp_path, *good)[0] == 0
    # A provenance that rebuilds a record of the kind names the first field that differs from it.
    rebuilt = "rebuilt from the other fields"
    tet_up = "[[-288,255,-33],[-33,288,255],[0,0,0],[75,363,-108]]"
    differs = {
        '{"kind":"triangle","p":[1,-1,0],"q":[0,-1,1],"side_sq":2,'
        '"provenance":{"quad":[1,1,1,1],"r":0,"s":-2,"m":0,"n":1}}': f"recorded p [1,-1,0] != [-1,0,1], {rebuilt}",
        tet % (plane.replace('"m":3,"n":0', '"m":0,"n":3') % 1, up):
            f"recorded vertices {tet_up} != [[0,0,0],[255,33,288],[288,-255,33],[363,108,-75]], {rebuilt}",
        tet % (plane % -1, up):
            f"recorded vertices {tet_up} != [[-288,255,-33],[-109,124,-349],[0,0,0],[75,363,-108]], {rebuilt}",
        normals % (faces_down, plane % 1): f"recorded faces {faces_down} != {faces_up}, {rebuilt}",
    }
    for bad, message in differs.items():
        assert verify_lines(capsys, tmp_path, good[0], bad) == (1, f"error: <file>:2: {message}\n"), bad
    # A provenance that rebuilds no record of the kind says so.
    mismatched = (
        # A unit-cube triangle under a plane it does not come from.
        '{"kind":"triangle","p":[1,1,0],"q":[1,0,1],"side_sq":2,'
        '"provenance":{"quad":[7,7,7,7],"r":0,"s":-2,"m":5,"n":3}}',
        tet % (plane.replace("[19,41,151,91]", "[41,19,151,91]") % 1, up),
        # k = 1: the only apex is on side 1.
        '{"kind":"tetrahedron","vertices":[[0,-1,1],[0,0,0],[1,-1,0],[1,0,1]],"side_sq":2,"ell":1,'
        '"provenance":{"quad":[1,1,1,1],"r":0,"s":-2,"m":1,"n":0,"sign":-1}}',
    )
    for bad in mismatched:
        prov = json.dumps(json.loads(bad)["provenance"], sort_keys=True, separators=(",", ":"))
        assert verify_lines(capsys, tmp_path, good[0], bad) == (
            1, f"error: <file>:2: the provenance {prov} does not rebuild this record\n"), bad
    # A pair with no completion fails in the completion itself.
    code, err = verify_lines(capsys, tmp_path, good[0], tet % (plane.replace('"m":3,"n":0', '"m":2,"n":1') % 1, up))
    assert code == 1 and err.startswith("error: <file>:2: zeta(2, 1) = 3 is not a positive"), err


def test_verify_accepts_a_triangle_with_no_completion(capsys, tmp_path):
    # zeta(2, 1) = 3 is not a square: triangles writes the triangle, complete fails.
    argv = ("--quad", "1,1,1,1", "--m", "2", "--n", "1")
    code, out = run(capsys, "triangles", *argv)
    assert code == 0 and len(records(out)) == 1
    assert verify_lines(capsys, tmp_path, out.strip()) == (0, "")
    assert main(["complete", *argv]) == 1
    assert capsys.readouterr() == ("", "error: zeta(2, 1) = 3 is not a positive perfect square\n")


def test_verify_rejects_a_completion_with_its_vertices_out_of_order(capsys, tmp_path):
    # complete writes every tetrahedron with its vertices in sorted order.
    code, out = run(capsys, "complete", "--quad", "1,1,1,1", "--m", "1", "--n", "0")
    rec = json.loads(out)
    assert code == 0 and rec["vertices"] == sorted(rec["vertices"])
    assert verify_lines(capsys, tmp_path, out.strip()) == (0, "")
    rec["vertices"].reverse()
    assert verify_lines(capsys, tmp_path, json.dumps(rec)) == (
        1, "error: <file>:1: recorded vertices [[1,0,1],[1,-1,0],[0,0,0],[0,-1,1]] != "
        "[[0,-1,1],[0,0,0],[1,-1,0],[1,0,1]], rebuilt from the other fields\n")


def test_verify_rebuilds_a_plane_record_only_by_its_producer(capsys, tmp_path, monkeypatch):
    # Each record of complete --with-normals is rebuilt by one walk of _plane_records, and by no row of _REBUILDS.
    code, out = run(capsys, "complete", "--quad", "19,41,151,91", "--m", "3", "--n", "0", "--with-normals")
    lines = out.splitlines()
    assert code == 0 and [json.loads(line)["provenance"]["sign"] for line in lines] == [1, 1, -1, -1]
    walks = []
    walk = cli._plane_records
    monkeypatch.setattr(cli, "_plane_records", lambda *plane: walks.append(plane) or walk(*plane))
    for kind in ("tetrahedron", "triangle", "normal-set"):
        monkeypatch.setitem(cli._REBUILDS, kind, pytest.fail)
    for line in lines:
        walks.clear()
        assert verify_lines(capsys, tmp_path, line) == (0, "")
        assert walks == [([19, 41, 151, 91], 3, 0)]


def test_complete_stops_at_a_normal_set_that_fails_orthogonality(capsys, monkeypatch):
    from ztetra import ConstructionError, tetra

    monkeypatch.setattr(tetra, "verify_orthogonality", lambda fns: False)
    tet = tetra.LatticeTetrahedron.from_vertices(((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)))
    with pytest.raises(ConstructionError, match="fail the orthogonality identities$"):
        tetra.face_normals(tet)
    code = main(["complete", "--quad", "1,1,1,1", "--m", "1", "--n", "0", "--with-normals"])
    out, err = capsys.readouterr()
    assert code == 1 and [json.loads(line)["kind"] for line in out.splitlines()] == ["tetrahedron"]
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err


def test_verify_rejects_degenerate_pairs(capsys, tmp_path):
    path = tmp_path / "pairs.jsonl"
    good = '{"kind":"pair","m":8,"n":3,"k":7}'
    # k 0, k -7, k -1 and zeta(m, n) != k^2 each fail with EisensteinTriple's own message.
    for m, n, k in ((0, 0, 0), (8, 3, -7), (1, 0, -1), (0, 0, 1)):
        path.write_text(good + "\n" + json.dumps({"kind": "pair", "m": m, "n": n, "k": k}) + "\n")
        assert main(["verify", "--file", str(path)]) == 1, (m, n, k)
        with pytest.raises(DomainError) as exc:
            EisensteinTriple(m, n, k)
        assert capsys.readouterr() == ("", f"error: {path}:2: {exc.value}\n")
    path.write_text(good + "\n")
    assert run(capsys, "verify", "--file", str(path))[0] == 0


def test_verify_checks_triple_generators(capsys, tmp_path):
    # triples --kmax 7 emits (8, 3, 7) from (u, v) = (2, 3) by form 2.
    path = tmp_path / "triples.jsonl"
    good = '{"kind":"triple","m":8,"n":3,"k":7,"u":2,"v":3,"form":2}'
    # Form 2 of (3, 3) is (9, 9, 9), and form 1 of (2, 3) is (5, 8, 7).
    rebuilt = "rebuilt from the other fields"
    for bad, why in (('{"kind":"triple","m":8,"n":3,"k":7,"u":3,"v":3,"form":2}', f"recorded k 7 != 9, {rebuilt}"),
                     ('{"kind":"triple","m":8,"n":3,"k":7,"u":2,"v":3,"form":9}', "triple form must be 1 or 2, got 9"),
                     ('{"kind":"triple","m":8,"n":3,"k":7,"u":2,"v":3,"form":1}', f"recorded m 8 != 5, {rebuilt}"),
                     ('{"kind":"triple","m":8,"n":3,"k":7,"u":2,"v":3}', "malformed record ('form')"),
                     ('{"kind":"triple","m":8,"n":3,"k":7}', "malformed record ('u')")):
        path.write_text(good + "\n" + bad + "\n")
        assert main(["verify", "--file", str(path)]) == 1, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:2: ") and why in captured.err, (bad, captured.err)
    # Form 1 of (u, v) = (2, 3) is (5, 8), and u == v is accepted.
    path.write_text(good + "\n"
                    + '{"kind":"triple","m":5,"n":8,"k":7,"u":2,"v":3,"form":1}\n'
                    + '{"kind":"triple","m":0,"n":9,"k":9,"u":3,"v":3,"form":1}\n')
    code, out = run(capsys, "verify", "--file", str(path))
    assert code == 0
    assert records(out) == [{"kind": "count", "what": "verified_records", "value": 3}]


def test_verify_rejects_non_integer_fields(capsys, tmp_path):
    path = tmp_path / "records.jsonl"
    good = '{"kind":"pair","m":8,"n":3,"k":7}'
    normals = "[-1,-1,1,1],[-1,1,-1,1],[1,-1,-1,1]]"
    for bad in ('{"kind":"normal-set","faces":[[1.0,1,1,1],' + normals + "}",
                '{"kind":"normal-set","faces":[[true,1,1,1],' + normals + "}",
                '{"kind":"tetrahedron","vertices":[[0.0,0,0],[1.0,1,0],[1,0,1],[0,1,1]],'
                '"side_sq":2.0,"ell":1}',
                '{"kind":"triangle","p":[1,1,0],"q":[1,0,1],"side_sq":true}',
                '{"kind":"quadruple","a":1,"b":1,"c":1,"d":1,"q":2.0}',
                '{"kind":"pair","m":8,"n":3,"k":7.0}',
                '{"kind":"triple","m":8,"n":3,"k":7,"u":1,"v":3,"form":1.0}',
                '{"kind":"tetrahedron","vertices":[[0,0],[1,1,0],[1,0,1],[0,1,1]],"side_sq":2}',
                '{"kind":"triangle","p":[1,1,0],"q":[1,0,1],"side_sq":2,"provenance":{"m":1.5}}',
                '{"kind":"triangle","p":[1,1,0],"q":[1,0,1],"side_sq":2,"provenance":{"m":Infinity}}',
                '{"kind":"pair","m":8,"n":3,"k":7,"x":-Infinity}',
                '{"kind":"pair","m":8,"n":3,"k":NaN}'):
        path.write_text(good + "\n" + bad + "\n")
        assert main(["verify", "--file", str(path)]) == 1, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:2:" in captured.err, bad
        with pytest.raises(DomainError, match="malformed record"):
            cmd_verify(argparse.Namespace(file=str(path)))
    # An integer field out of its range is no malformed record: it fails the comparison with its rebuild.
    path.write_text('{"kind":"tetrahedron","vertices":[[0,0,0],[1,1,0],[1,0,1],[0,1,1]],"side_sq":2,"ell":-1}\n')
    with pytest.raises(VerificationError, match=re.escape(f"{path}:1: recorded ell -1 != 1, rebuilt from the other")):
        cmd_verify(argparse.Namespace(file=str(path)))
    # The same records with integer fields verify, and so do pairs with m = 0.
    path.write_text(good + "\n"
                    + '{"kind":"normal-set","faces":[[1,1,1,1],' + normals + "}\n"
                    + '{"kind":"tetrahedron","vertices":[[0,0,0],[1,1,0],[1,0,1],[0,1,1]],'
                    '"side_sq":2,"ell":1}\n'
                    + '{"kind":"pair","m":0,"n":7,"k":7}\n')
    code, out = run(capsys, "verify", "--file", str(path))
    assert code == 0
    assert records(out) == [{"kind": "count", "what": "verified_records", "value": 4}]


def test_verify_accepts_the_benchmark_verify_files(capsys, tmp_path, monkeypatch):
    # Files as the benchmark's verify workload writes them: valid objects, not a producer's
    # lines (unsorted keys, translated and unsorted vertices, normal sets in any face order).
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    workloads = importlib.import_module("workloads")
    rng = workloads.pass_rng("verify", 7, 0)
    for i in range(2):
        path = tmp_path / f"verify-{i}.jsonl"
        count = workloads.write_verify_file(rng, path, workloads.VERIFY_GROUPS // 2)
        assert main(["verify", "--file", str(path)]) == 0, path
        assert capsys.readouterr() == ('{"kind":"count","value":%d,"what":"verified_records"}\n' % count, "")


def test_verify_reads_stdin():
    env = {**CHILD_ENV, "PYTHONHASHSEED": "0"}
    producer = subprocess.Popen([sys.executable, "-m", "ztetra", "enumerate-t0", "--ell", "15"],
                                stdout=subprocess.PIPE, env=env)
    verifier = subprocess.run([sys.executable, "-m", "ztetra", "verify", "--file", "-"],
                              stdin=producer.stdout, capture_output=True, env=env)
    producer.stdout.close()
    assert producer.wait() == 0
    assert verifier.returncode == 0, verifier.stderr
    count = len(enumerate_t0(15))
    assert json.loads(verifier.stdout) == {"kind": "count", "what": "verified_records",
                                           "value": count + 1}


def test_import_does_not_load_fractions():
    # fractions (and the decimal module it pulls in) would add to the
    # start-up time of every command.
    proc = subprocess.run(
        [sys.executable, "-c", "import ztetra, ztetra.cli, sys; print('fractions' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV, check=True)
    assert proc.stdout == "False\n"


def test_star_import_and_unique_exports():
    # A name deleted from the package but left in __all__ breaks the star import.
    proc = subprocess.run(
        [sys.executable, "-c", "from ztetra import *; import ztetra; "
         "print(len(ztetra.__all__) == len(set(ztetra.__all__)))"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_the_benchmark_library_calls_stay_public():
    # perfbench/child.py calls these by name on the package, and the grid scans with force=True.
    import ztetra
    from ztetra.oracle import GRID_GUARD

    called = {"factorize", "count_representations", "is_loeschian", "solve_two_q", "solve_three_d2",
              "omega", "primitive_triples", "enumerate_t0", "brute_t0", "compare",
              "brute_tetrahedra_grid", "brute_triangles_grid"}
    assert called <= set(ztetra.__all__)
    for scan in (brute_tetrahedra_grid, brute_triangles_grid):
        assert scan(1, force=True) == scan(1)
    assert len(brute_tetrahedra_grid(GRID_GUARD + 1, force=True)) == 2116


def test_output_is_deterministic(capsys):
    _, first = run(capsys, "enumerate-t0", "--ell", "3")
    _, second = run(capsys, "enumerate-t0", "--ell", "3")
    assert first == second


def test_output_is_identical_across_processes():
    # Separate interpreters with different hash seeds must agree byte for byte.
    outputs = set()
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "ztetra", "enumerate-t0", "--ell", "15"],
            env={**CHILD_ENV, "PYTHONHASHSEED": hash_seed}, capture_output=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_closed_output_pipe_is_quiet():
    # The stream exceeds the pipe buffer, so the writer is still busy
    # when the reader goes away; that must not produce a traceback.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ztetra", "triples", "--kmax", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait()
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 1
    assert b"Traceback" not in err


def test_closed_output_pipe_during_enumeration_is_quiet():
    # enumerate-t0 writes its tetrahedron lines straight to stdout; a
    # reader that leaves after one line must still give exit 1 and no
    # message at all.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ztetra", "enumerate-t0", "--ell", "555"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(b'{"ell":555,"kind":"tetrahedron"')
    assert code == 1
    assert err == b""
