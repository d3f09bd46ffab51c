"""Seeded op lists for the three workloads.

An op is one real command line for the ``matrix-census`` CLI, plus what the
harness knows about its input from having built it (the invariant factors a
matrix was conjugated from, whether a polynomial was drawn irreducible).
The checks in ``checks.py`` use that knowledge; the program receives only the
argv.  Everything here is computed before any timing starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import ref

# census: `verify` in the default mode (both) with one census worker.
# 65536 + 19683 + 625 + 2401 + 4096 + 6561 = 98902 matrices per pass.
CENSUS_CELLS = ((2, 4), (3, 3), (5, 2), (7, 2), (8, 2), (9, 2))
# The default worker count, os.cpu_count() threads, is not timed here: on a
# 2-vCPU VM the threaded census took 2.2 s in some runs and 4.7 s in others,
# minutes apart, as the second core came and went, which no run length
# steadies.  The traced run reports the pool against one worker instead
# (census.pool_speedup).
CENSUS_THREADS = 1

# partition: `verify --mode formula`; 4096 + 3125 + 1024 + 729 = 8974
# polynomials per pass and no matrix enumeration.
PARTITION_CELLS = ((8, 4), (5, 5), (2, 10), (3, 6))

ALGEBRA_FIELDS = (2, 3, 5, 9, 31, 101, 256)

# `rcf` finds each invariant factor by scanning candidate vectors in index
# order, about q^(r-1) trials for r invariant factors (exactly
# 1 + q + ... + q^(r-1) on the inputs built here, see _scan_is_exact).
# Non-cyclic inputs keep q^(r-1) below this cap, so one op stays well under
# a second while the scan still dominates its cost.
RCF_SCAN_CAP = 30_000

# `centralizer` counts units by walking all q^dim span elements; the default
# budget of 2^20 took 33 s on one 6x6 matrix over GF(9).
CENTRALIZER_BUDGET = 4096

# Python refuses int -> str conversion past this many digits; `count --n`
# draws whose result would be longer fail today (exit 1).  They are run once
# per run as a defect probe, outside the timed op list, which must not fail.
INT_STR_DIGITS = 4300
# `count --n` draws n up to this, per field.
COUNT_N_TOP = {2: 160, 101: 60}

# Sizes per op class, cycled over ALGEBRA_FIELDS on a fixed grid, so the seed
# draws contents and order but every seed does the same amount of work.
# GF(256) has no dense tables, so its matrices and polynomials stay small.
RCF_N = (4, 6, 8)
NONCYCLIC_N = (5, 6, 7, 8)
CENTRALIZER_N = (3, 4, 5, 6)
ORBIT_N = (2, 4, 6)
SMALL_FIELD_CAP_N = 4  # largest matrix over GF(256)
FACTOR_DEGREES = {2: (16, 40, 64, 96, 128, 200), 3: (10, 20, 30, 40, 60),
                  5: (10, 20, 30, 40), 9: (8, 16, 24, 30),
                  31: (8, 16, 24, 30), 101: (8, 16, 24, 30),
                  256: (4, 6, 8, 10)}
COUNT_POLY_DEGREES = {2: (12, 24, 40), 3: (8, 16, 24), 5: (6, 12, 20),
                      9: (6, 10, 16), 31: (4, 8, 12), 101: (4, 8, 12),
                      256: (3, 4, 6)}

# 300 ops: with 200, which ops sat next to the 90th percentile moved with
# the seed enough to spread op_p90_ms by 9% over ten seeds.
ALGEBRA_MIX = (("rcf", 70), ("rcf_noncyclic", 35), ("centralizer", 60),
               ("orbit", 30), ("factor", 60), ("count_poly", 30),
               ("count_n", 15))


@dataclass
class Op:
    kind: str           # op class; the CLI command is argv[0]
    argv: list
    q: int
    info: dict = field(default_factory=dict)  # what the harness built

    @property
    def key(self) -> tuple:
        return tuple(self.argv)


def census_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = [Op("verify", ["verify", "--q", str(q), "--n", str(n),
                         "--threads", str(CENSUS_THREADS),
                         "--seed", str(rng.randrange(1000))], q, {"n": n})
           for q, n in CENSUS_CELLS]
    rng.shuffle(ops)
    return ops


def partition_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = [Op("verify", ["verify", "--q", str(q), "--n", str(n),
                         "--mode", "formula",
                         "--seed", str(rng.randrange(1000))], q, {"n": n})
           for q, n in PARTITION_CELLS]
    rng.shuffle(ops)
    return ops


def _scan_is_exact(F, M, factors) -> bool:
    """Whether rcf's vector scan takes exactly 1 + q + ... + q^(r-1) trials
    on M: e_0 generates the largest cyclic piece and e_1, ..., e_{r-1}
    complete its Krylov space to a basis.  Otherwise the scan runs on past
    q^(r-1), up to q^r trials or more."""
    n = len(M)
    vecs = [[int(i == 0) for i in range(n)]]
    for _ in range(max(len(f) for f in factors) - 2):
        vecs.append(ref.mat_vec(F, M, vecs[-1]))
    vecs += [[int(i == j) for i in range(n)] for j in range(1, len(factors))]
    return ref.rank(F, vecs) == n


def _matrix_op(kind, cmd, F, factors, rng, extra=()) -> Op:
    """P D P^-1 for D the companion blocks of the invariant factors, with P
    random; rcf inputs are redrawn until the scan cost is exact."""
    D = ref.block_diagonal([ref.companion(F, f) for f in factors])
    while True:
        P, Pi = ref.random_invertible(F, len(D), rng)
        M = ref.mat_mul(F, ref.mat_mul(F, P, D), Pi)
        if cmd != "rcf" or _scan_is_exact(F, M, factors):
            break
    charpoly = [1]
    for f in factors:
        charpoly = ref.poly_mul(F, charpoly, f)
    return Op(kind, [cmd, "--q", str(F.q), "--matrix", ref.format_matrix(M),
                     *extra], F.q,
              {"matrix": M, "invariant_degrees": [len(f) - 1 for f in factors],
               "charpoly": charpoly})


def _noncyclic_factors(F, n, rng) -> list:
    """r invariant factors h, ..., h, h*g with h linear and r as large as the
    scan cap allows."""
    r = 1
    while r < n - 1 and F.q ** r <= RCF_SCAN_CAP:
        r += 1
    h = [F.neg(rng.randrange(F.q)), 1]
    g = ref.random_monic(F, n - r, rng)
    return [h] * (r - 1) + [ref.poly_mul(F, h, g)]


def _reducible(F, n, rng) -> list:
    while True:
        f = ref.random_monic(F, n, rng)
        if not ref.is_irreducible(F, f):
            return f


def _factor_shape(d) -> list:
    """[(degree, multiplicity)] of total degree d: one factor of degree d/2,
    one of d/4, a square, and linear factors for the rest.  Distinct
    degrees fix the distinct-degree work, so every seed costs the same."""
    big, mid = d // 2, d // 4
    sq = (d - big - mid) // 2
    shape = [(big, 1), (mid, 1), (sq, 2)] + [(1, 1)] * (d - big - mid - 2 * sq)
    return [(e, m) for e, m in shape if e]


def _shaped_poly(F, d, rng) -> list:
    while True:
        parts = [(ref.random_irreducible(F, e, rng), m)
                 for e, m in _factor_shape(d)]
        if len({tuple(f) for f, _ in parts}) == len(parts):
            break
    out = [1]
    for f, m in parts:
        out = ref.poly_mul(F, out, ref.poly_pow(F, f, m))
    return out


def _matrix_n(q, sizes, i):
    n = sizes[i // len(ALGEBRA_FIELDS) % len(sizes)]
    return min(n, SMALL_FIELD_CAP_N) if q == 256 else n


def _algebra_op(kind, i, fields, rng) -> Op:
    q = ALGEBRA_FIELDS[i % len(ALGEBRA_FIELDS)]
    F = fields[q]
    seed_arg = ["--seed", str(rng.randrange(1000))]
    if kind == "rcf":
        n = _matrix_n(q, RCF_N, i)
        return _matrix_op(kind, "rcf", F, [ref.random_monic(F, n, rng)], rng)
    if kind == "rcf_noncyclic":
        n = _matrix_n(q, NONCYCLIC_N, i)
        return _matrix_op(kind, "rcf", F, _noncyclic_factors(F, n, rng), rng)
    if kind == "centralizer":
        # three shapes in turn: non-cyclic; cyclic with an irreducible
        # charpoly (closed-form unit count); cyclic with a reducible one
        # (unit count by span walk when q^n is within the budget)
        n = _matrix_n(q, CENTRALIZER_N, i)
        factors = [(_noncyclic_factors(F, n, rng)),
                   [ref.random_irreducible(F, n, rng)],
                   [_reducible(F, n, rng)]][i % 3]
        return _matrix_op(kind, "centralizer", F, factors, rng,
                          ("--budget", str(CENTRALIZER_BUDGET)))
    if kind == "orbit":
        n = _matrix_n(q, ORBIT_N, i)
        return _matrix_op(kind, "orbit", F,
                          [ref.random_irreducible(F, n, rng)], rng)
    if kind == "factor":
        degrees = FACTOR_DEGREES[q]
        f = _shaped_poly(F, degrees[i // len(ALGEBRA_FIELDS) % len(degrees)],
                         rng)
        # a non-monic input exercises the leading-coefficient path
        lead = rng.randrange(1, q)
        f = [F.mul(lead, c) for c in f]
        return Op(kind, ["factor", "--q", str(q), "--poly", ref.format_poly(f),
                         *seed_arg], q, {"poly": f})
    if kind == "count_poly":
        degrees = COUNT_POLY_DEGREES[q]
        d = degrees[i // len(ALGEBRA_FIELDS) % len(degrees)]
        irreducible = i % 2 == 0
        f = (ref.random_irreducible(F, d, rng) if irreducible
             else _reducible(F, d, rng))
        return Op(kind, ["count", "--q", str(q), "--poly", ref.format_poly(f),
                         *seed_arg], q, {"poly": f, "irreducible": irreducible})
    raise ValueError(kind)


def _count_n_op(q, n) -> Op:
    return Op("count_n", ["count", "--q", str(q), "--n", str(n)], q, {"n": n})


def count_n_fits(q: int) -> int:
    """Largest n whose `count --n` result prints in INT_STR_DIGITS digits."""
    n = 1
    while ref.irreducible_count(q, n + 1) < 10 ** INT_STR_DIGITS:
        n += 1
    return n


def algebra_ops(seed: int) -> tuple:
    """(timed op list, over-limit `count --n` probe ops)."""
    rng = random.Random(seed)
    fields = {q: ref.RefField(q) for q in ALGEBRA_FIELDS}
    fits = {q: count_n_fits(q) for q in COUNT_N_TOP}
    ops = []
    for kind, count in ALGEBRA_MIX:
        if kind == "count_n":
            qs = sorted(COUNT_N_TOP)
            ops.extend(_count_n_op(q, rng.randint(2, fits[q]))
                       for q in (qs[i % len(qs)] for i in range(count)))
            continue
        ops.extend(_algebra_op(kind, i, fields, rng) for i in range(count))
    rng.shuffle(ops)
    probes = [_count_n_op(q, rng.randint(fits[q] + 1, top))
              for q, top in sorted(COUNT_N_TOP.items())]
    return ops, probes


def make_ops(workload: str, seed: int) -> tuple:
    """(timed op list, probe ops) for the named workload."""
    if workload == "census":
        return census_ops(seed), []
    if workload == "partition":
        return partition_ops(seed), []
    if workload == "algebra":
        return algebra_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("census", "partition", "algebra")

# Fields each workload constructs; their construction is part of set-up.
WORKLOAD_FIELDS = {
    "census": tuple(sorted({q for q, _ in CENSUS_CELLS})),
    "partition": tuple(sorted({q for q, _ in PARTITION_CELLS})),
    "algebra": ALGEBRA_FIELDS,
}
