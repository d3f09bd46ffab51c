"""Exact counts of matrices by characteristic polynomial.

Two independent routes to every count: closed-form products (gl_order,
count_irreducible_case, count_with_charpoly) and a brute-force census that
enumerates every matrix and tallies characteristic polynomials.  The census
walks leading blocks, one new column and row at a time, through the Krylov
vectors (once per column) and Berkowitz step (once per row) of
``SquareMatrix.charpoly``.  The last row goes by linearity: the step is
affine in that row, so n + 1 steps per column give the keys of all q^n
rows under it.  Tests check the census against cofactor expansion.  It
shares no code with the closed forms, which depend only on the
factorization type of the charpoly, the (degree, multiplicity) pairs of its
irreducible factors (Gerstenhaber; Reiner, Illinois J. Math. 5, 1961), so
agreement between the two routes is a genuine cross-check.  The partition
check evaluates the closed form once per distinct type.

All counts are exact integers and are computed with integers only.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple

from .centralizer import _green, gl_order
from .errors import within_budget
from .factor import _factorization_type, is_irreducible
from .field import FieldSpec
from .matrix import SquareMatrix, _berkowitz_step, _krylov
from .poly import Polynomial, monic_polys

DEFAULT_ENUMERATION_BUDGET = 2 ** 26


# entries: Polynomial -> exact count, canonically ordered
CensusReport = namedtuple("CensusReport", "q n entries total")

# entries: Polynomial -> closed-form count, canonically ordered;
# irreducible: frozenset of the irreducible polynomials among the entries
PartitionReport = namedtuple(
    "PartitionReport", "q n entries lhs_total rhs_total equal irreducible")

OrbitStabilizerReport = namedtuple(
    "OrbitStabilizerReport", "matrix charpoly gl_order stabilizer_order "
    "orbit_size formula_count consistent")


def count_irreducible_case(q: int, n: int) -> int:
    """Matrices with a prescribed irreducible characteristic polynomial:
    prod_{i=1}^{n-1} (q^n - q^i), independent of which irreducible it is."""
    if not isinstance(q, int) or q < 2:
        raise ValueError("field order must be an integer >= 2")
    if not isinstance(n, int) or n < 1:
        raise ValueError("dimension must be a positive integer")
    qn = q ** n
    out = 1
    for i in range(1, n):
        out *= qn - q ** i
    return out


def count_with_charpoly(g: Polynomial) -> int:
    """Number of deg(g) x deg(g) matrices whose charpoly is the monic g.

    Computed from the factorization type of g by the all-integer
    rearrangement gl(q,n) * q^(sum d_i n_i^2 - n) / prod gl(q^d_i, n_i),
    which must divide exactly.
    """
    if g.is_zero or g.degree < 1:
        raise ValueError("characteristic polynomial must have degree >= 1")
    if not g.is_monic:
        raise ValueError("characteristic polynomial must be monic")
    return _count_from_type(g.field.q, g.degree,
                            _factorization_type(g.field, g.coeff_indices))


def _count_from_type(q: int, n: int, ftype) -> int:
    """count_with_charpoly for a degree-n charpoly of factorization type
    ftype: one (degree d, multiplicity m) pair per irreducible factor."""
    if sum(d * m for d, m in ftype) != n:
        raise RuntimeError(
            f"factorization type {ftype} does not have degree {n}")
    num = gl_order(q, n) * q ** (sum(d * m * m for d, m in ftype) - n)
    den = 1
    for d, m in ftype:
        den *= gl_order(q ** d, m)
    if num % den:
        raise RuntimeError(
            f"count formula does not divide exactly: {num} / {den}")
    return num // den


def _census_tally(field: FieldSpec, n: int) -> dict:
    """Tally charpoly coefficient tuples (descending) over every n x n
    matrix, extending leading blocks one column and row at a time; the
    Krylov vectors A^k*C of a new column C serve all q^(i+1) rows under it.

    The Berkowitz step is affine in row i, so at the last row the q^n keys
    under a column are base + sum_j a[i][j] * U_j, with base the step at the
    zero row and U_j the step at the unit row e_j minus base: n + 1 steps
    per column, then one vector addition per key."""
    add, sub, mul, neg = field.add, field.sub, field.mul, field.neg
    a = [0] * (n * n)
    values = range(field.q)
    tally = Counter()

    def walk(i, p):
        row = slice(i * n, i * n + i + 1)  # row i, columns 0..i
        col = slice(i, i * n, n)  # column i, rows 0..i-1
        for above in itertools.product(values, repeat=i):
            a[col] = above
            ks = _krylov(add, mul, a, n, above, i)
            if i < n - 1:
                for left in itertools.product(values, repeat=i + 1):
                    a[row] = left
                    walk(i + 1, _berkowitz_step(add, mul, neg, a, n, i, p, ks))
                continue
            a[row] = [0] * (i + 1)
            base = _berkowitz_step(add, mul, neg, a, n, i, p, ks)
            keys = [tuple(base)]
            for j in range(i + 1):
                a[row] = [int(t == j) for t in range(i + 1)]
                unit = _berkowitz_step(add, mul, neg, a, n, i, p, ks)
                u = list(map(sub, unit, base))
                grown = list(keys)  # a[i][j] = 0 keeps each key
                for v in values[1:]:
                    d = [mul(v, x) for x in u]
                    grown += [tuple(map(add, k, d)) for k in keys]
                keys = grown
            tally.update(keys)

    walk(0, [1])
    return tally


def census_bruteforce(spec: FieldSpec, n: int, *,
                      budget: int = DEFAULT_ENUMERATION_BUDGET,
                      threads: int = 1) -> CensusReport:
    """Enumerate every n x n matrix and tally charpolys.

    The walk is serial.  ``threads`` is accepted for compatibility and not
    used: the kernel is pure Python, so under the interpreter lock a thread
    pool ran slower than one thread.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("dimension must be a positive integer")
    total = within_budget(spec.q, n * n, budget,
                          "census of {} matrices exceeds the budget {}")
    tally = _census_tally(spec, n)
    polys = sorted(
        (Polynomial._raw(spec, list(reversed(key))) for key in tally),
        key=Polynomial.sort_key)
    entries = {g: tally[tuple(reversed(g.coeff_indices))] for g in polys}
    got = sum(entries.values())
    if got != total:
        raise RuntimeError(f"census tallied {got} of {total} matrices")
    return CensusReport(spec.q, n, entries, got)


def verify_partition(spec: FieldSpec, n: int, *,
                     budget: int = DEFAULT_ENUMERATION_BUDGET
                     ) -> PartitionReport:
    """Sum the closed-form count over every monic degree-n polynomial and
    compare with q^(n^2).  No matrix enumeration is involved; each
    polynomial's factorization type is read without equal-degree splitting,
    and the count is computed once per distinct type."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("dimension must be a positive integer")
    q = spec.q
    within_budget(q, n, budget, "{} monic polynomials exceed the budget {}")
    entries = {}
    irreducible = set()
    by_type = {}
    for g in monic_polys(spec, n):
        ftype = _factorization_type(spec, g.coeff_indices)
        count = by_type.get(ftype)
        if count is None:
            count = by_type[ftype] = _count_from_type(q, n, ftype)
        entries[g] = count
        if ftype == ((n, 1),):
            irreducible.add(g)
    entries = dict(sorted(entries.items(), key=lambda kv: kv[0].sort_key()))
    lhs = sum(entries.values())
    rhs = q ** (n * n)
    return PartitionReport(q, n, entries, lhs, rhs, lhs == rhs,
                           frozenset(irreducible))


def orbit_stabilizer_report(M: SquareMatrix) -> OrbitStabilizerReport:
    """Conjugation-orbit bookkeeping for a matrix with irreducible charpoly."""
    f = M.charpoly()
    if not is_irreducible(f):
        raise ValueError(
            "orbit report requires an irreducible characteristic polynomial")
    q = M.field.q
    n = M.n
    stab = _green(q, ((f, 1),))[1]  # q^n - 1: C(M) = F[M] is a field
    glo = gl_order(q, n)
    if glo % stab:
        raise RuntimeError(
            f"stabilizer order {stab} does not divide |GL_{n}({q})| = {glo}")
    orbit = glo // stab
    formula = count_irreducible_case(q, n)
    return OrbitStabilizerReport(
        M, f, glo, stab, orbit, formula, orbit == formula)
