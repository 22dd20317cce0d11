"""End-to-end CLI behavior: records, formats, exit codes, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
import time

import pytest

from ztetra import DomainError, EisensteinTriple, brute_tetrahedra_grid, brute_triangles_grid, enumerate_t0
from ztetra import cli
from ztetra.cli import cmd_verify, main


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


@pytest.mark.parametrize("ell", [*range(1, 31), 105, 165])
def test_enumerate_t0_lines_match_json_dumps(capsys, ell):
    # The fixed line template against the generic record path, over odd
    # and even ell, with negative coordinates in most lines.
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
    code = main([*argv, "--format", "csv"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert captured.out == ""
    assert "--format csv supports count records only" in captured.err


def test_grid_count(capsys):
    code, out = run(capsys, "grid-count", "--n", "1", "--shape", "tetra")
    assert code == 0
    (rec,) = records(out)
    assert rec == {"kind": "count", "what": "grid_tetrahedra", "n": 1, "shape": "tetra",
                   "value": 2}
    code, out = run(capsys, "grid-count", "--n", "1", "--shape", "triangle")
    assert records(out)[0]["value"] == 8


def test_grid_count_states_its_cap(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{0..n}^3 for n <= 6" in " ".join(capsys.readouterr().out.split())
    start = time.perf_counter()
    assert main(["grid-count", "--n", "7", "--shape", "tetra"]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "brute-force cap 6" in captured.err
    assert "library keyword force=True" in captured.err


def test_help_reads_each_cap_from_its_constant(capsys):
    from ztetra.eisenstein import TRIPLES_KMAX
    from ztetra.numtheory import THREE_D2_DMAX
    from ztetra.oracle import BRUTE_T0_MAX, GRID_GUARD

    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    # A subcommand's help runs from its name to the name listed after it.
    for name, after, cap in (("solve3d2", "omega", THREE_D2_DMAX), ("triples", "triangles", TRIPLES_KMAX),
                             ("enumerate-t0", "grid-count", THREE_D2_DMAX),
                             ("grid-count", "oracle-compare", GRID_GUARD), ("oracle-compare", "verify", BRUTE_T0_MAX)):
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
    assert "brute force (ell <= 100)" in " ".join(capsys.readouterr().out.split())
    start = time.perf_counter()
    code = main(["oracle-compare", "--ell", "1024"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert elapsed < 1.0
    assert captured.out == ""
    assert "ell must be at most 100" in captured.err


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
    assert "recorded ell 2 does not square to 2" in capsys.readouterr().err


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
                '{"kind":"count","what":"tetrahedra_t0","value":-5,"ell":-2}',
                '{"kind":"count","what":"tetrahedra_t0","value":40,"ell":0}',
                '{"kind":"count","what":"tetrahedra_t0","value":-5,"ell":3}',
                '{"kind":"count","what":"grid_tetrahedra","n":-1,"shape":"tetra","value":0}',
                '{"kind":"diff","what":"t0_oracle","ell":0,"missing":[],"extra":[]}',
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


def test_verify_checks_what_and_diff_lists(capsys, tmp_path, monkeypatch):
    path = tmp_path / "records.jsonl"
    bfile = tmp_path / "b.txt"
    bfile.write_text("0 0\n1 5\n2 18\n")
    full, full_brute = cli.enumerate_t0, cli.brute_t0
    # Every producer, with diff records holding nonempty lists of both kinds.
    keys = set()
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
        keys.update((r["kind"], r["what"]) if r["kind"] in ("count", "diff") else r["kind"]
                    for r in records(path.read_text()))
    # verify's table has a row for each record some producer writes, and no other.
    assert keys == set(cli._ROWS)
    good = '{"kind":"pair","m":8,"n":3,"k":7}'
    bfile_diff = '{"kind":"diff","what":"bfile","offset":0,"shape":"tetra",'
    oracle_diff = '{"kind":"diff","what":"t0_oracle","ell":2,'
    malformed = (
        '{"kind":"count","what":"no_such_count","value":3}',
        '{"kind":"count","what":["tetrahedra_t0"],"value":3}',
        '{"kind":"diff","what":"no_such_diff","missing":[],"extra":[]}',
        '{"kind":"diff","what":{"x":1},"missing":[],"extra":[]}',
        oracle_diff + '"missing":"abc","extra":{"x":1}}',
        oracle_diff + '"missing":[],"extra":{"x":1}}',
        oracle_diff + '"missing":[[[0,0,0],[1,1,0],[1,0,1]]],"extra":[]}',
        oracle_diff + '"missing":[],"extra":[[1,2,3]]}',
        oracle_diff + '"missing":[]}',
        '{"kind":"diff","what":"t0_oracle","missing":[],"extra":[]}',
        bfile_diff + '"matched":true,"missing":[]}',
        bfile_diff + '"mismatches":[],"missing":[]}',
        bfile_diff + '"matched":false,"mismatches":[[1,2]],"missing":[]}',
        bfile_diff + '"matched":false,"mismatches":[1,2,5],"missing":[]}',
        bfile_diff + '"matched":false,"mismatches":[],"missing":[[3]]}',
        bfile_diff + '"matched":false,"mismatches":[],"missing":3}',
        bfile_diff.replace('"tetra"', '"cube"') + '"matched":true,"mismatches":[],"missing":[]}',
        bfile_diff.replace('"shape":"tetra",', '') + '"matched":true,"mismatches":[],"missing":[]}',
        bfile_diff.replace('"offset":0,', '') + '"matched":true,"mismatches":[],"missing":[]}',
    )
    disagreeing = (
        bfile_diff + '"matched":true,"mismatches":[[1,2,5]],"missing":[3]}',
        bfile_diff + '"matched":true,"mismatches":[],"missing":[3]}',
        bfile_diff + '"matched":false,"mismatches":[],"missing":[]}',
    )
    # T0(2) holds {0, (2,2,0), (2,0,2), (0,2,2)}; these lists hold shapes outside it,
    # and the last two list one member of T0(1) twice, as compare never does.
    cube = "[[0,0,0],[1,1,0],[1,0,1],[0,1,1]]"
    twice = "tetrahedron [[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]] is listed twice"
    outside_t0 = (
        (oracle_diff + '"missing":[[[0,0,0],[0,0,0],[0,0,0],[0,0,0]]],"extra":[]}', "degenerate"),
        (oracle_diff + '"missing":[],"extra":[[[0,0,0],[2,2,0],[2,0,2],[2,2,2]]]}', "|p0 p3|^2"),
        (oracle_diff + '"missing":[],"extra":[[[1,1,1],[3,3,1],[3,1,3],[1,3,3]]]}', "tetrahedron [[1, 1, 1]"),
        (oracle_diff + '"missing":[[[0,0,0],[1,1,0],[1,0,1],[0,1,1]]],"extra":[]}', "tetrahedron [[0, 0, 0]"),
        ('{"kind":"diff","what":"t0_oracle","ell":1,"missing":[' + cube + '],"extra":[' + cube + "]}", twice),
        ('{"kind":"diff","what":"t0_oracle","ell":1,"missing":[' + cube + "," + cube + '],"extra":[]}', twice),
    )
    cases = ([(bad, "malformed record") for bad in malformed]
             + [(bad, "matched is") for bad in disagreeing] + list(outside_t0))
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
        1, "error: <file>:1: recorded value 41 != 40 = |T0(3)|\n")
    code, err = verify_lines(capsys, tmp_path, count % (2**63, 8))
    assert code == 1 and err.startswith("error: <file>:1: ell must be in [1, 2**63 - 1]"), err


def test_verify_bounds_a_grid_count_by_the_grid_cap(capsys, tmp_path):
    # grid-count rejects n above GRID_GUARD = 6, so no producer writes such a count.
    count = '{"kind":"count","what":"grid_tetrahedra","n":%d,"shape":"tetra","value":1}'
    assert verify_lines(capsys, tmp_path, count % 6)[0] == 0
    assert verify_lines(capsys, tmp_path, count % 9) == (
        1, "error: <file>:1: malformed record (n must be an integer in [0, 6], got 9)\n")


def test_verify_bounds_an_oracle_diff_by_the_brute_force_cap(capsys, tmp_path):
    # oracle-compare rejects ell above BRUTE_T0_MAX = 100.
    diff = '{"kind":"diff","what":"t0_oracle","ell":%d,"missing":[],"extra":[]}'
    assert verify_lines(capsys, tmp_path, diff % 100)[0] == 0
    assert verify_lines(capsys, tmp_path, diff % 101) == (
        1, "error: <file>:1: malformed record (ell must be an integer in [1, 100], got 101)\n")


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
    malformed = (
        tet + ',"provenance":{"ell":5,"bogus":[1]}}',
        tet + ',"provenance":{"ell":0}}',
        tet + ',"provenance":{' + plane + "}}",
        tet + ',"provenance":{' + plane + ',"sign":0}}',
        tet + ',"provenance":null}',
        tri + ',"provenance":{' + plane + ',"sign":1}}',
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
        1, "error: <file>:1: provenance ell 5 is not the recorded ell 1\n")
    for vertices in ("[[5,5,5],[5,6,6],[6,5,6],[6,6,5]]", "[[0,0,0],[0,-1,1],[1,-1,0],[1,0,1]]"):
        bad = '{"kind":"tetrahedron","vertices":%s,"side_sq":2,"ell":1,"provenance":{"ell":1}}' % vertices
        assert verify_lines(capsys, tmp_path, bad) == (
            1, f"error: <file>:1: vertices {json.loads(vertices)} are not a sorted member of T0(1)\n")


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
    mismatched = {
        # A unit-cube triangle under a plane it does not come from.
        '{"kind":"triangle","p":[1,1,0],"q":[1,0,1],"side_sq":2,'
        '"provenance":{"quad":[7,7,7,7],"r":0,"s":-2,"m":5,"n":3}}':
            "provenance (r, s) = (0, -2) is not (0, -14), the (r, s) of its quad",
        '{"kind":"triangle","p":[1,-1,0],"q":[0,-1,1],"side_sq":2,'
        '"provenance":{"quad":[1,1,1,1],"r":0,"s":-2,"m":0,"n":1}}':
            "provenance (m, n) = (0, 1) gives p = (-1, 0, 1), q = (-1, 1, 0)",
        tet % (plane.replace('"m":3,"n":0', '"m":0,"n":3') % 1, up): "provenance gives the vertices ",
        tet % (plane % -1, up): "provenance gives the vertices ",
        normals % (faces_down, plane % 1): "provenance gives the faces ",
        tet % (plane.replace("[19,41,151,91]", "[41,19,151,91]") % 1, up): "provenance (r, s) = (-11, 61) is not ",
        tet % (plane.replace('"m":3,"n":0', '"m":2,"n":1') % 1, up): "zeta(2, 1) = 3 is not a positive",
        # k = 1: the only apex is on side 1.
        '{"kind":"tetrahedron","vertices":[[0,-1,1],[0,0,0],[1,-1,0],[1,0,1]],"side_sq":2,"ell":1,'
        '"provenance":{"quad":[1,1,1,1],"r":0,"s":-2,"m":1,"n":0,"sign":-1}}':
            "provenance (m, n) = (1, 0) has no apex on side -1",
    }
    for bad, reason in mismatched.items():
        code, err = verify_lines(capsys, tmp_path, good[0], bad)
        assert code == 1 and err.startswith(f"error: <file>:2: {reason}"), (bad, err)


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
    for bad, why in (('{"kind":"triple","m":8,"n":3,"k":7,"u":3,"v":3,"form":2}', "is not form 2"),
                     ('{"kind":"triple","m":8,"n":3,"k":7,"u":2,"v":3,"form":9}', "form must be 1 or 2"),
                     ('{"kind":"triple","m":8,"n":3,"k":7,"u":2,"v":3,"form":1}', "is not form 1"),
                     ('{"kind":"triple","m":8,"n":3,"k":7,"u":2,"v":3}', "malformed record ('form')")):
        path.write_text(good + "\n" + bad + "\n")
        assert main(["verify", "--file", str(path)]) == 1, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:2: " in captured.err and why in captured.err, (bad, captured.err)
    # Form 1 of (u, v) = (2, 3) is (5, 8); u == v is accepted, and a triple
    # without u, v and form is checked on (m, n, k) alone.
    path.write_text(good + "\n"
                    + '{"kind":"triple","m":5,"n":8,"k":7,"u":2,"v":3,"form":1}\n'
                    + '{"kind":"triple","m":0,"n":9,"k":9,"u":3,"v":3,"form":1}\n'
                    + '{"kind":"triple","m":8,"n":3,"k":7}\n')
    code, out = run(capsys, "verify", "--file", str(path))
    assert code == 0
    assert records(out) == [{"kind": "count", "what": "verified_records", "value": 4}]


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
                '{"kind":"tetrahedron","vertices":[[0,0,0],[1,1,0],[1,0,1],[0,1,1]],"side_sq":2,"ell":-1}',
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
    # The same records with integer fields verify, and so do pairs with m = 0.
    path.write_text(good + "\n"
                    + '{"kind":"normal-set","faces":[[1,1,1,1],' + normals + "}\n"
                    + '{"kind":"tetrahedron","vertices":[[0,0,0],[1,1,0],[1,0,1],[0,1,1]],'
                    '"side_sq":2,"ell":1}\n'
                    + '{"kind":"pair","m":0,"n":7,"k":7}\n')
    code, out = run(capsys, "verify", "--file", str(path))
    assert code == 0
    assert records(out) == [{"kind": "count", "what": "verified_records", "value": 4}]


def test_verify_reads_stdin():
    env = {**os.environ, "PYTHONHASHSEED": "0"}
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
        capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


def test_star_import_and_unique_exports():
    # A name deleted from the package but left in __all__ breaks the star import.
    proc = subprocess.run(
        [sys.executable, "-c", "from ztetra import *; import ztetra; "
         "print(len(ztetra.__all__) == len(set(ztetra.__all__)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


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
            env={**os.environ, "PYTHONHASHSEED": hash_seed}, capture_output=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_closed_output_pipe_is_quiet():
    # The stream exceeds the pipe buffer, so the writer is still busy
    # when the reader goes away; that must not produce a traceback.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ztetra", "triples", "--kmax", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
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
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait()
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(b'{"ell":555,"kind":"tetrahedron"')
    assert code == 1
    assert err == b""
