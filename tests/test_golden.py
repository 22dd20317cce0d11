"""Golden stdout: byte-identical CLI output for a fixed set of commands.

Each command's stdout is pinned by its SHA-256.  The set covers every
producer the pipeline feeds (number theory, the Eisenstein layer, plane
generators and triangles, completion with face normals, the origin
enumeration and its count, and the grid counts), so a refactor of any
layer that changes a single output byte fails here.  A deliberate
change of output format must update the digests in the same commit.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from ztetra.cli import main

GOLDEN = [
    ("solve3d2 --d 133", "c4ed7e669c19684f2d6461231b6b0d73166b61030142e9136f83f0d0268a615b"),
    ("omega --k 91", "929d72ec9f781087c07188c0440bebfef0475ee7fc3cc66c6456624415623f2a"),
    ("triples --kmax 300", "ec2f5bbf35daa85cca82510eb04e9347b250d909215e35b8fc88295aa1241908"),
    ("triangles --quad 1,1,1,1 --m 2 --n 1",
     "e74dcb1d5f29929a1deb32bc23d18a34ab1eb23320861a67df40b40f0b4f7362"),
    ("triangles --quad 19,41,151,91 --m 5 --n -3",
     "fc35665a928328064ff99e51170f68e38936b3dcae357156faabe5657b621e8f"),
    ("complete --quad 1,1,1,1 --m 3 --n 0 --with-normals",
     "7af0f72359d07481712953d038be155d04b8a0e401126df4e9accb46b95210fb"),
    ("complete --quad 1,1,1,1 --m 8 --n 3 --with-normals",
     "567aec4c2cecb02c58a7d2f459526379203f277565fed43df3b0a5ae3bab20d0"),
    ("complete --quad 19,41,151,91 --m 3 --n 0 --with-normals",
     "fc80cf2a7101b98f003c8edb2f49ac74c10f23125b4ddf26c26426b06e1e9e09"),
    ("complete --quad 19,41,151,91 --m 8 --n 3 --with-normals",
     "9943ba2ee03b9555b43bd031462275225c10686b10d85bf8e7e4d7c8d39f9172"),
    ("enumerate-t0 --ell 15", "73f54b12a4c782f162b933c010865d72c71f667fafe65245b75122ce5ef5c8c5"),
    ("enumerate-t0 --ell 165", "4dbc653919632a8da90dcd9987ad7edb3b2d219c72acea5746e7e792ef90bf6c"),
    ("enumerate-t0 --ell 555", "90b32df73c12e621976e599ff3205853f7dfc5961e670f941964632ddc837f75"),
    ("enumerate-t0 --ell 665", "6b42149593444594682441ffc700f9d8f50b600152952e6edfddca4d6b107793"),
    ("enumerate-t0 --ell 630", "1b36420bc9f97b41866cea27deb61c38c79ca730ec0acaaabb6fcb0c0eb2d4dd"),
    ("enumerate-t0 --ell 429", "7fda6328c21df081d03ec3b68a3c442f5973e7122585782e164f9c8b41d4bdca"),
    ("enumerate-t0 --ell 555 --count-only",
     "bf98beca58aec744d43056e0a121f31a4bc16ab9dd8b9f7e87bbd8c6cd9d85eb"),
    ("grid-count --n 3 --shape tetra", "5baa21b5ef96dc0a71fab72383cdd76394d9f62fab37d4a5e73deb745fc7331c"),
    ("grid-count --n 3 --shape triangle",
     "bcab59cc4dfca288b2605018f2fb3efd4e04707bf32e75a09b671bf8f95b7424"),
    ("grid-count --n 3 --shape tetra --format csv",
     "d590b5c4ea719ad245c7f8639372dbc5e6e3a7076bafc68527015807f0242d1a"),
    # Past the grid scans' reach: 1,761,882 tetrahedra and 22,003,808 triangles in {0..30}^3.
    ("grid-count --n 30 --shape tetra", "c301101f65241b2e63c47f9c70cdd5f7474b0501da7ebb0830e365e978bc7f4e"),
    ("grid-count --n 30 --shape triangle",
     "e4c25446b89bc079dce3c9e66b6b973feaffb4169c31235b417ef3e1377870b7"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_matches_the_golden_digest(command, digest):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(command.split())
    assert code == 0, command
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, command


# Diff records carry lists the commands above never emit: b-file mismatches
# and missing grid sizes at both offsets, and the missing tetrahedra of an
# oracle comparison.  Each is pinned the same way.
BFILE = "0 0\n1 5\n2 18\n"  # n = 1 mismatches at offset 0; n = 3 is missing there


def _stdout_digest(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_bfile_diff_records_match_the_golden_digest(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text(BFILE)
    code, digest = _stdout_digest(["grid-count", "--n", "3", "--shape", "tetra", "--bfile", str(path)])
    assert code == 0
    assert digest == "f3a3d6847504b7d7fa99dbe122c946ceb2df3b7e21b6a0d3f853703ee72260a4"


def test_oracle_diff_record_matches_the_golden_digest(monkeypatch):
    from ztetra import cli

    full = cli.enumerate_t0
    monkeypatch.setattr(cli, "enumerate_t0", lambda ell: sorted(full(ell))[1:])
    code, digest = _stdout_digest(["oracle-compare", "--ell", "3"])
    assert code == 1
    assert digest == "36ed289b5a9c25b26d335c4ec535f025694002a6bbabb44443749fadee0b68ea"


def test_verify_count_record_matches_the_golden_digest(tmp_path):
    path = tmp_path / "t0.jsonl"
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["enumerate-t0", "--ell", "15"]) == 0
    path.write_text(out.getvalue())
    code, digest = _stdout_digest(["verify", "--file", str(path)])
    assert code == 0
    assert digest == "a9ac1de0da19e010041cec21540d5f4abc596a3a88240188f60aa15054e22e29"
