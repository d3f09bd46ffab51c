"""Centralizer algebras C(M) = {X : MX = XM} and their unit groups.

The centralizer's basis is computed as the kernel of the commutator map, an
n^2 by n^2 linear system, in deterministic echelon form.  Its invariants need
no such solve.  Whether C(M) = F[M] is read from the degree of the minimal
polynomial.  Units are counted by closed forms: q^n - 1 when the
characteristic polynomial is irreducible (the centralizer is then a field),
and otherwise Green's product over the (irreducible, exponent) pairs that
``rcf`` records for its blocks, built from ``gl_order``.  The unit-count
budget caps the reported |C(M)| and bounds no work.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .canonical import rcf
from .errors import within_budget
from .factor import is_irreducible
from .matrix import SquareMatrix, nullspace

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


@functools.lru_cache(maxsize=None)
def gl_order(q: int, n: int) -> int:
    """|GL_n(GF(q))| = prod_{k=0}^{n-1} (q^n - q^k), the units of the
    centralizer of an n x n scalar matrix."""
    if not isinstance(q, int) or q < 2:
        raise ValueError("field order must be an integer >= 2")
    if not isinstance(n, int) or n < 1:
        raise ValueError("dimension must be a positive integer")
    qn = q ** n
    out = 1
    for k in range(n):
        out *= qn - q ** k
    return out


def centralizer_unit_count(M: SquareMatrix, *,
                           budget: int = DEFAULT_SPAN_BUDGET) -> int:
    """Number of invertible elements of C(M).

    q^n - 1 when charpoly(M) is irreducible, as C(M) is then a field.
    Otherwise C(M) splits over the monic irreducibles f dividing the
    charpoly.  With Q = q^deg f, the exponents of M's elementary divisors
    f^e forming the partition lambda, S = sum of min(a, b) over pairs of
    parts and m_i the number of parts equal to i, the units at f number
    Q^(S - sum_i m_i^2) * prod_i |GL_{m_i}(Q)| (Green, Trans. AMS 80,
    1955; Macdonald, *Symmetric Functions and Hall Polynomials*, ch. IV),
    and dim C(M) = sum_f deg f * S (Frobenius).  The pairs (f, e) are
    rcf(M).prime_powers, where the pairs of one f are adjacent.  The count
    is refused when |C(M)| = q^dim exceeds the budget.
    """
    q = M.field.q
    if is_irreducible(M.charpoly()):
        return q ** M.n - 1
    d = 0
    units = 1
    for f, pairs in itertools.groupby(rcf(M).prime_powers, lambda p: p[0]):
        lam = [e for _, e in pairs]
        Q = q ** f.degree
        s = sum(min(a, b) for a in lam for b in lam)
        d += f.degree * s
        mults = Counter(lam).values()
        units *= Q ** (s - sum(m * m for m in mults))
        for m in mults:
            units *= gl_order(Q, m)
    within_budget(q, d, budget,
                  "centralizer span of size {} exceeds the budget {}")
    return units


def is_polynomial_centralizer(M: SquareMatrix) -> bool:
    """Whether C(M) is exactly the polynomial algebra F[M].

    F[M] lies in C(M) and dim F[M] = deg minpoly(M) <= n <= dim C(M), so
    the two are equal only when deg minpoly(M) = n; and a cyclic M has
    dim C(M) = n (Gantmacher, *The Theory of Matrices* I, ch. VIII).  So
    C(M) = F[M] exactly when deg minpoly(M) = n, with no commutator solve.
    """
    return M.minpoly().degree == M.n
