"""Seeded inputs for the four workloads, and the check for each operation.

A run repeats passes for about its time.  A pass draws its inputs
from ``random.Random(f"{workload}/{seed}/{pass}")``, stratified so that
every pass has the same mix of small, middle and large inputs; this
keeps medians and throughput comparable across seeds.  The oracle
workload repeats its first pass (repeated inputs a cache could use);
the others draw fresh inputs every pass.

Nothing here imports ztetra: the program only ever sees the inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks


@dataclass
class Op:
    """One operation: a CLI invocation (argv) or a library call (fn, arg).

    expect holds what the checker needs and is never shown to the program.
    """

    fn: str
    arg: int
    argv: list[str] | None = None
    expect: dict = field(default_factory=dict)

    def describe(self) -> dict:
        out = {"fn": self.fn, "arg": self.arg}
        if self.argv is not None:
            out["argv"] = self.argv
        out.update({k: v for k, v in self.expect.items() if k != "path"})
        return out


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# --- t0-enumerate -------------------------------------------------------------
# Odd-rich composites ell in [150, 700] (at least 8 odd divisors), in
# three classes of near-equal |T0(ell)| and enumeration time.  A pass
# runs one small, two middle and one large enumeration, so the median
# operation always comes from the middle class.  The counts, as
# enumerate_t0 returns them at the commit that added this benchmark, are
# part of the output check; |T0(2m)| = |T0(m)| holds throughout.
T0_CLASSES: tuple[dict[int, int], ...] = (
    {165: 3640, 189: 3816, 330: 3640, 378: 3816, 660: 3640},
    {315: 8568, 429: 7800, 630: 8568},
    {555: 10920, 609: 11160, 621: 10600, 627: 10920, 665: 10584},
)


def t0_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    rng = pass_rng("t0-enumerate", seed, index)
    small, middle, large = T0_CLASSES
    picks = [rng.choice(sorted(small)), *rng.sample(sorted(middle), 2), rng.choice(sorted(large))]
    counts = {**small, **middle, **large}
    ops = [Op("enumerate-t0", ell, ["enumerate-t0", "--ell", str(ell)], {"count": counts[ell]}) for ell in picks]
    rng.shuffle(ops)
    return ops


def t0_check(op: Op, stdout: str) -> int:
    return checks.check_t0_output(stdout, op.arg, op.expect["count"])


# --- arith --------------------------------------------------------------------

def random_prime(rng: random.Random, low: int, high: int, residue: tuple[int, int] | None = None) -> int:
    """A prime in [low, high], optionally congruent to residue[0] mod residue[1]."""
    while True:
        n = rng.randint(low, high) | 1
        if residue is not None:
            n += (residue[0] - n) % residue[1]
        if low <= n <= high and checks.is_prime(n):
            return n


def prime_powers(*primes: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in primes:
        out[p] = out.get(p, 0) + 1
    return out


def slices(low: int, high: int, count: int) -> list[tuple[int, int]]:
    """`count` consecutive equal slices [lo, hi] of [low, high]."""
    width = (high - low) / count
    return [(int(low + i * width), int(low + (i + 1) * width) - 1) for i in range(count)]


def strata(rng: random.Random, low: int, high: int, count: int, odd: bool = False) -> list[int]:
    """One draw from each of `count` equal slices of [low, high]."""
    draws = [rng.randint(lo, hi) for lo, hi in slices(low, high, count)]
    return [v | 1 for v in draws] if odd else draws


def arith_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    """Per pass: 16 integers in [1e11, 1e12] through factorize,
    count_representations and is_loeschian; 8 solve_two_q; 3
    solve_three_d2; 3 omega; one primitive_triples.

    Half the integers are primes, one from each eighth of the range; the
    other half are products p*q of two primes with p from each eighth of
    [1e5, 1e6].  Trial division costs about sqrt(n) on a
    prime and p on such a product, so every pass has the same spread of
    costs.
    """
    rng = pass_rng("arith", seed, index)
    ops = []
    numbers = [(n, {n: 1}) for n in (random_prime(rng, lo, hi) for lo, hi in slices(10**11, 10**12, 8))]
    for lo, hi in slices(10**5, 10**6, 8):
        p = random_prime(rng, lo, hi)
        q = random_prime(rng, -(-10**11 // p), 10**12 // p)
        numbers.append((p * q, prime_powers(p, q)))
    for n, factors in numbers:
        kind = "prime" if factors == {n: 1} else "semiprime"
        for fn in ("factorize", "count_representations", "is_loeschian"):
            ops.append(Op(fn, n, expect={"factors": factors, "kind": kind}))
    # q = 2*p1*p2, so solve_two_q has a solution count known from p1, p2.
    for lo in strata(rng, 5 * 10**8, 25 * 10**8, 8):
        p1 = random_prime(rng, 10**4, 10**5, (1, 6))
        p2 = random_prime(rng, -(-lo // p1), 2 * lo // p1, (1, 6) if rng.random() < 0.75 else (5, 6))
        ops.append(Op("solve_two_q", 2 * p1 * p2, expect={"half_factors": prime_powers(p1, p2)}))
    ops += [Op("solve_three_d2", d) for d in strata(rng, 801, 2001, 3, odd=True)]
    ops += [Op("omega", k) for k in strata(rng, 10**5, 10**6, 3)]
    ops.append(Op("primitive_triples", rng.randint(98_000, 102_000)))
    rng.shuffle(ops)
    return ops


def arith_check(op: Op, result) -> int:
    if op.fn == "factorize":
        return checks.check_factorize(op.arg, result, op.expect["factors"])
    if op.fn == "count_representations":
        return checks.check_count_representations(op.arg, result, op.expect["factors"])
    if op.fn == "is_loeschian":
        return checks.check_is_loeschian(op.arg, result, op.expect["factors"])
    if op.fn == "solve_two_q":
        return checks.check_solve_two_q(op.arg, result, op.expect["half_factors"])
    if op.fn == "solve_three_d2":
        return checks.check_solve_three_d2(op.arg, result)
    if op.fn == "omega":
        return checks.check_omega(op.arg, result)
    return checks.check_primitive_triples(op.arg, result)


# --- oracle -------------------------------------------------------------------
# ell in [30, 70] divisible by 3, 5 or 7, one per band: the bands share
# odd divisors, and every pass of a run repeats the same inputs.  Each
# band groups ells of similar compare cost.  The first band costs well
# below brute_tetrahedra_grid(8) and the second well above it, so the
# median operation of a pass is always that fixed grid scan.
ORACLE_ELLS = ((30, 36, 40), (45, 49, 50, 51, 54, 56), (55, 57, 60), (63, 65, 66, 69, 70))
# Shape counts the grid referees return at the commit that added this
# benchmark; the output is exact, so any change in them is a defect.
GRID_TETRAHEDRA = {7: 2116, 8: 3792, 9: 6398, 10: 10290}
GRID_TRIANGLES = {4: 1264, 5: 3448, 6: 7792}


def oracle_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    rng = pass_rng("oracle", seed, 0)
    ops = [Op("compare_t0", rng.choice(band)) for band in ORACLE_ELLS]
    ops += [Op("brute_tetrahedra_grid", n, expect={"count": c}) for n, c in GRID_TETRAHEDRA.items()]
    ops += [Op("brute_triangles_grid", n, expect={"count": c}) for n, c in GRID_TRIANGLES.items()]
    rng.shuffle(ops)
    return ops


def oracle_check(op: Op, result) -> int:
    if op.fn == "compare_t0":
        return checks.check_compare_t0(op.arg, result)
    corners = 4 if op.fn == "brute_tetrahedra_grid" else 3
    return checks.check_shapes(result, op.expect["count"], corners=corners, n=op.arg)


# --- verify -------------------------------------------------------------------
# The regular tetrahedron inscribed in the unit cube, and the outward
# normal of the face opposite each vertex (all of the form 3*1^2).
CUBE_TETRA = ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1))
CUBE_NORMALS = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))
VERIFY_GROUPS = 1000   # tetrahedra per file; each brings 9 records
VERIFY_FILES = 6       # files per pass


def signed_permutation(rng: random.Random):
    axes = rng.sample(range(3), 3)
    signs = [rng.choice((1, -1)) for _ in range(3)]
    return lambda v: tuple(signs[i] * v[axes[i]] for i in range(3))


def quaternion_rotation(rng: random.Random):
    """x -> R x with R = N * (a rotation), N = w^2+x^2+y^2+z^2 odd.

    |R v|^2 = N^2 |v|^2, so R maps (1, 1, 1) to a solution of
    a^2 + b^2 + c^2 = 3 N^2 and keeps the cube normals orthogonal.
    """
    while True:
        w, x, y, z = (rng.randint(-40, 40) for _ in range(4))
        norm = w * w + x * x + y * y + z * z
        if norm % 2:
            break
    rows = (
        (w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z),
    )
    return norm, lambda v: tuple(sum(r[i] * v[i] for i in range(3)) for r in rows)


def verify_group(rng: random.Random) -> list[dict]:
    """A tetrahedron, its four faces, a normal set, a quadruple, a pair and a triple."""
    s = rng.randint(1, 10**4)
    g = signed_permutation(rng)
    t = [rng.randint(-10**6, 10**6) for _ in range(3)]
    verts = [[s * c + t[i] for i, c in enumerate(g(v))] for v in CUBE_TETRA]
    side_sq = 2 * s * s
    out = [{"kind": "tetrahedron", "vertices": verts, "side_sq": side_sq, "ell": s}]
    for i in range(4):
        w1, w2, w3 = (v for j, v in enumerate(verts) if j != i)
        out.append({"kind": "triangle", "p": [b - a for a, b in zip(w1, w2)],
                    "q": [b - a for a, b in zip(w1, w3)], "side_sq": side_sq})
    norm, rot = quaternion_rotation(rng)
    out.append({"kind": "normal-set", "faces": [list(rot(g(nrm))) + [norm] for nrm in CUBE_NORMALS]})
    a, b, c = rot(g((1, 1, 1)))
    out.append({"kind": "quadruple", "a": a, "b": b, "c": c, "d": norm, "q": a * a + b * b})
    u, v = rng.randint(1, 1000), rng.randint(1, 1000)
    k = checks.zeta(u, v)
    out.append({"kind": "pair", "m": v * v - u * u, "n": 2 * u * v - u * u, "k": k})
    if rng.random() < 0.5:
        m, n, form = v * v - u * u, 2 * u * v - u * u, 1
    else:
        m, n, form = 2 * u * v - u * u, 2 * u * v - v * v, 2
    out.append({"kind": "triple", "m": m, "n": n, "k": k, "u": u, "v": v, "form": form})
    return out


def write_verify_file(rng: random.Random, path: Path, groups: int) -> int:
    lines = [json.dumps(rec, separators=(",", ":")) for _ in range(groups) for rec in verify_group(rng)]
    path.write_text("\n".join(lines) + "\n")
    return len(lines)


def verify_pass(seed: int, index: int, workdir: Path) -> list[Op]:
    rng = pass_rng("verify", seed, index)
    ops = []
    for i in range(VERIFY_FILES):
        path = workdir / f"verify-{seed}-{index}-{i}.jsonl"
        records = write_verify_file(rng, path, VERIFY_GROUPS)
        ops.append(Op("verify", records, ["verify", "--file", str(path)], {"records": records, "path": path}))
    return ops


def verify_check(op: Op, stdout: str) -> int:
    return checks.check_verify_output(stdout, op.expect["records"])


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool          # CLI invocations, else library calls in one child
    make_pass: object  # (seed, index, workdir) -> list[Op]
    check: object      # (op, stdout text or result) -> items
    item: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("t0-enumerate", True, t0_pass, t0_check, "emitted tetrahedron"),
        Workload("arith", False, arith_pass, arith_check, "completed library call"),
        Workload("oracle", False, oracle_pass, oracle_check, "shape found by a referee"),
        Workload("verify", True, verify_pass, verify_check, "verified record"),
    )
}
