"""Centralizer algebras C(M) = {X : MX = XM} and invariant subspaces.

The centralizer is computed as the kernel of the commutator map, an n^2 by
n^2 linear system; the basis comes out of the deterministic elimination in
echelon form.  Unit counting has a closed-form fast path when the
characteristic polynomial is irreducible (the centralizer is then a field
with q^n - 1 units) and an exhaustive span walk otherwise, guarded by a
budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import BudgetError
from .factor import is_irreducible
from .matrix import SquareMatrix, _reduce_mod, nullspace, row_echelon

DEFAULT_SPAN_BUDGET = 2 ** 20


@dataclass(frozen=True)
class CentralizerDescription:
    basis: tuple  # SquareMatrix tuple, echelonized over the n^2 coordinates
    dimension: int
    order: int


def centralizer(M: SquareMatrix) -> CentralizerDescription:
    """Solve MX - XM = 0; the solution space as an echelonized basis."""
    field = M.field
    n = M.n
    n2 = n * n
    add, sub = field.add, field.sub
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * n2
            for k in range(n):
                c = M.entry_index(i, k)
                if c:
                    row[k * n + j] = add(row[k * n + j], c)
                c = M.entry_index(k, j)
                if c:
                    row[i * n + k] = sub(row[i * n + k], c)
            rows.append(row)
    basis = nullspace(field, rows, n2)
    mats = tuple(SquareMatrix._raw(field, n, v) for v in basis)
    d = len(mats)
    return CentralizerDescription(mats, d, field.q ** d)


def _rank_of_flat(field, flat, n) -> int:
    rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
    _, pivots = row_echelon(field, rows)
    return len(pivots)


def centralizer_unit_count(M: SquareMatrix, *,
                           budget: int = DEFAULT_SPAN_BUDGET,
                           force_enumeration: bool = False) -> int:
    """Number of invertible elements of C(M).

    q^n - 1 when charpoly(M) is irreducible; otherwise every element of the
    span of the centralizer basis is enumerated and tested for full rank.
    """
    return _unit_count(M, None, budget, force_enumeration)


def _unit_count(M, desc, budget, force_enumeration=False) -> int:
    """centralizer_unit_count, with desc = centralizer(M) if already solved
    (None to solve it only when the span walk needs it)."""
    field = M.field
    q = field.q
    n = M.n
    if not force_enumeration and is_irreducible(M.charpoly()):
        return q ** n - 1
    if desc is None:
        desc = centralizer(M)
    d = desc.dimension
    total = q ** d
    if total > budget:
        raise BudgetError(
            f"centralizer span of size {q}^{d} = {total} exceeds the "
            f"budget {budget}")
    bases = [b.flat_indices for b in desc.basis]
    add = field.add
    n2 = n * n
    cur = [0] * n2
    digits = [0] * d
    count = 0
    for step in range(total):
        if step:
            j = 0
            while True:
                digits[j] += 1
                bj = bases[j]
                for t in range(n2):
                    if bj[t]:
                        cur[t] = add(cur[t], bj[t])
                if digits[j] == q:
                    digits[j] = 0
                    j += 1
                else:
                    break
        if _rank_of_flat(field, cur, n) == n:
            count += 1
    return count


def is_polynomial_centralizer(M: SquareMatrix) -> bool:
    """Whether C(M) is exactly the polynomial algebra generated by M."""
    return _is_polynomial_centralizer(M, centralizer(M))


def _is_polynomial_centralizer(M, desc) -> bool:
    """is_polynomial_centralizer with desc = centralizer(M) already solved:
    F[M] lies in C(M) and has dimension deg minpoly(M), so they are equal
    exactly when the dimensions are."""
    return desc.dimension == M.minpoly().degree


@functools.lru_cache(maxsize=None)
def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of an n-dimensional space over GF(q)."""
    if r < 0 or r > n:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise RuntimeError(
            f"Gaussian binomial [{n} {r}]_{q} is not an integer")
    return num // den


def invariant_subspaces(M: SquareMatrix, dimension_cap: int | None = None, *,
                        max_subspaces: int = DEFAULT_SPAN_BUDGET) -> list:
    """All nontrivial proper M-invariant subspaces, one canonical (reduced
    echelon) basis per subspace, ordered by dimension then basis encoding.

    The count of candidate subspaces is checked against the budget first, so
    this is practical only for small q and n.
    """
    import itertools

    field = M.field
    q = field.q
    n = M.n
    cap = n - 1 if dimension_cap is None else min(dimension_cap, n - 1)
    candidates = sum(gaussian_binomial(n, r, q) for r in range(1, cap + 1))
    if candidates > max_subspaces:
        raise BudgetError(
            f"{candidates} candidate subspaces exceed the budget "
            f"{max_subspaces}")
    out = []
    for r in range(1, cap + 1):
        for pivots in itertools.combinations(range(n), r):
            free_pos = []
            pivot_set = set(pivots)
            for i, pc in enumerate(pivots):
                for j in range(pc + 1, n):
                    if j not in pivot_set:
                        free_pos.append((i, j))
            for values in itertools.product(range(q), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), v in zip(free_pos, values):
                    rows[i][j] = v
                if not any(any(_reduce_mod(field, M.apply(v), rows, pivots))
                           for v in rows):
                    out.append(tuple(tuple(v) for v in rows))
    return out
