"""Centralizer algebras C(M) = {X : MX = XM} and their unit groups.

Everything is read off one ``rcf``: the basis from its blocks and transition
(Gantmacher, *The Theory of Matrices* I, ch. VIII), whose Krylov columns it
combines and extends, the dimension and units from Green's closed form over
the (irreducible, exponent) pairs it records for its blocks, built from
``gl_order``.  When the characteristic polynomial is irreducible, C(M) is
the field F[M] with q^n - 1 units.  The unit-count budget caps the reported
|C(M)| and bounds no work.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .canonical import rcf
from .errors import within_budget
from .factor import is_irreducible
from .matrix import SquareMatrix, _combine, _krylov, row_echelon

DEFAULT_SPAN_BUDGET = 2 ** 20


@dataclass(frozen=True)
class CentralizerDescription:
    basis: tuple  # SquareMatrix tuple, echelonized over the n^2 coordinates
    dimension: int
    order: int
    unit_count: int


def centralizer(M: SquareMatrix) -> CentralizerDescription:
    """C(M) from one rcf: its basis, dimension, order and unit count.

    With blocks b_i and P^-1 M P = D, C(M) = P C(D) P^-1.  Block (j, i) of
    an element of C(D) is a map of F[x]-modules F[x]/(b_i) -> F[x]/(b_j);
    it sends 1 to a multiple of b_j / g, g = gcd(b_i, b_j), so the maps
    1 -> x^t b_j / g, t < deg g, span them, and column k of one is
    x^(t+k) b_j / g mod b_j.  Times P that column is M^(t+k) (b_j / g)(M)
    u_j, for u_j the first column of block j in P, whose columns are u_j's
    Krylov vectors and combine to (b_j / g)(M) u_j.  Echelonized with the
    n^2 coordinates reversed, the conjugates give the one reduced echelon
    basis with their pivots: the kernel basis of X -> MX - XM, listed by
    free coordinate.
    """
    field, n = M.field, M.n
    form = rcf(M)
    d, units = _green(field.q, form.prime_powers)
    P = form.transition
    Pinv = P.invert()
    offsets = list(itertools.accumulate(
        (b.degree for b in form.blocks), initial=0))
    vecs = []
    for (f, ej), oj in zip(form.prime_powers, offsets):
        ujs = [P.flat_indices[k::n] for k in range(oj, oj + f.degree * ej)]
        for (fi, ei), oi in zip(form.prime_powers, offsets):
            if fi != f:  # coprime blocks: g = 1
                continue
            m = min(ei, ej)
            cols = _krylov(field.add, field.mul, M.flat_indices, n,
                           _combine(field, ujs, (f ** (ej - m)).coeff_indices),
                           f.degree * (m + ei) - 1)
            for t in range(f.degree * m):
                Z = [0] * (n * n)  # P times the map: block i's columns
                for k, col in enumerate(cols[t:t + f.degree * ei], oi):
                    Z[k::n] = col
                vecs.append(
                    (SquareMatrix._raw(field, n, Z) * Pinv).flat_indices[::-1])
    rref, pivots = row_echelon(field, vecs)
    if not len(pivots) == len(vecs) == d:
        raise RuntimeError(
            f"centralizer basis of rank {len(pivots)} from {len(vecs)} "
            f"conjugates, not Green's dimension {d}")
    basis = tuple(SquareMatrix._raw(field, n, v[::-1]) for v in reversed(rref))
    return CentralizerDescription(basis, d, field.q ** d, units)


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


def _green(q: int, prime_powers) -> tuple:
    """(dim C(M), number of units of C(M)) from rcf(M).prime_powers.

    C(M) splits over the monic irreducibles f dividing the charpoly.  With
    Q = q^deg f, the exponents of M's elementary divisors f^e forming the
    partition lambda, S = sum of min(a, b) over pairs of parts and m_i the
    number of parts equal to i, the units at f number
    Q^(S - sum_i m_i^2) * prod_i |GL_{m_i}(Q)| (Green, Trans. AMS 80,
    1955; Macdonald, *Symmetric Functions and Hall Polynomials*, ch. IV),
    and dim C(M) = sum_f deg f * S (Frobenius).  The pairs of one f are
    adjacent in prime_powers.
    """
    d = 0
    units = 1
    for f, pairs in itertools.groupby(prime_powers, lambda p: p[0]):
        lam = [e for _, e in pairs]
        Q = q ** f.degree
        s = sum(min(a, b) for a in lam for b in lam)
        d += f.degree * s
        mults = Counter(lam).values()
        units *= Q ** (s - sum(m * m for m in mults))
        for m in mults:
            units *= gl_order(Q, m)
    return d, units


def centralizer_unit_count(M: SquareMatrix, *,
                           budget: int = DEFAULT_SPAN_BUDGET) -> int:
    """Number of invertible elements of C(M).

    q^n - 1 when charpoly(M) is irreducible, as C(M) is then a field, and
    otherwise Green's closed form over the rcf blocks (``_green``).  The
    count is refused when |C(M)| = q^dim exceeds the budget.
    """
    q = M.field.q
    if is_irreducible(M.charpoly()):
        return q ** M.n - 1
    d, units = _green(q, rcf(M).prime_powers)
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
