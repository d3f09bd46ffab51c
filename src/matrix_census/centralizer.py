"""Centralizer algebras C(M) = {X : MX = XM} and invariant subspaces.

The centralizer is computed as the kernel of the commutator map, an n^2 by
n^2 linear system; the basis comes out of the deterministic elimination in
echelon form.  Units are counted by closed forms without that system: q^n - 1
when the characteristic polynomial is irreducible (the centralizer is then a
field), and otherwise a product over the elementary divisors of the rational
canonical form.  The unit-count budget caps the reported |C(M)| and bounds
no work.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .canonical import rcf
from .errors import BudgetError
from .factor import factorize, is_irreducible
from .matrix import SquareMatrix, _reduce_mod, nullspace

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


def centralizer_unit_count(M: SquareMatrix, *,
                           budget: int = DEFAULT_SPAN_BUDGET) -> int:
    """Number of invertible elements of C(M).

    q^n - 1 when charpoly(M) is irreducible, as C(M) is then a field.
    Otherwise C(M) splits over the monic irreducibles f dividing the
    charpoly.  With Q = q^deg f, the exponents of M's elementary divisors
    f^e forming the partition lambda, S = sum of min(a, b) over pairs of
    parts and m_i the number of parts equal to i, the units at f number
    Q^(S - sum_i m_i(m_i+1)/2) * prod_i prod_{j<=m_i} (Q^j - 1) (Green,
    Trans. AMS 80, 1955; Macdonald, *Symmetric Functions and Hall
    Polynomials*, ch. IV), and dim C(M) = sum_f deg f * S (Frobenius).
    The count is refused when |C(M)| = q^dim exceeds the budget.
    """
    q = M.field.q
    chi = M.charpoly()
    if is_irreducible(chi):
        return q ** M.n - 1
    parts = {f: [] for f, _ in factorize(chi).factors}
    for block in rcf(M).blocks:  # each block is f^e for one f
        f = next(f for f in parts if (block % f).is_zero)
        parts[f].append(block.degree // f.degree)
    d = 0
    units = 1
    for f, lam in parts.items():
        Q = q ** f.degree
        s = sum(min(a, b) for a in lam for b in lam)
        d += f.degree * s
        mults = Counter(lam).values()
        units *= Q ** (s - sum(m * (m + 1) // 2 for m in mults))
        for m in mults:
            for j in range(1, m + 1):
                units *= Q ** j - 1
    total = q ** d
    if total > budget:
        raise BudgetError(
            f"centralizer span of size {q}^{d} = {total} exceeds the "
            f"budget {budget}")
    return units


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
