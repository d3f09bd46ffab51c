"""Rational canonical form, similarity testing, and cyclic-vector machinery.

``rcf`` decomposes the space into cyclic pieces by repeatedly extracting a
vector of maximal order modulo the part already captured, correcting it so the
new piece meets the old ones trivially, then splitting each cyclic piece into
prime-power blocks.  Blocks are sorted by (irreducible base in canonical
polynomial order, descending exponent), so two matrices are similar exactly
when their block lists are equal.

The transition matrix P always satisfies P^-1 M P = block diagonal of
companion matrices; rcf re-checks this identity on every call in test builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factor import factorize
from .field import FieldElement, FieldSpec
from .matrix import (SquareMatrix, _conductor, _order_lcm, poly_times_vector,
                     row_echelon)
from .poly import Polynomial


@dataclass(frozen=True)
class RationalCanonicalForm:
    blocks: tuple
    transition: SquareMatrix
    dimension: int


def companion(f: Polynomial) -> SquareMatrix:
    """Companion matrix: ones on the subdiagonal, -c_i down the last column."""
    if f.is_zero or f.degree < 1:
        raise ValueError("companion matrix needs degree >= 1")
    if not f.is_monic:
        raise ValueError("companion matrix needs a monic polynomial")
    field = f.field
    n = f.degree
    neg = field.neg
    flat = [0] * (n * n)
    cs = f.coeff_indices
    for i in range(n):
        flat[i * n + (n - 1)] = neg(cs[i])
    for i in range(n - 1):
        flat[(i + 1) * n + i] = 1
    return SquareMatrix._raw(field, n, flat)


def companion_block_diagonal(field: FieldSpec, blocks) -> SquareMatrix:
    """Block-diagonal matrix of companion matrices of the given polynomials."""
    mats = [companion(b) for b in blocks]
    n = sum(m.n for m in mats)
    flat = [0] * (n * n)
    off = 0
    for m in mats:
        for i in range(m.n):
            for j in range(m.n):
                flat[(off + i) * n + (off + j)] = m.entry_index(i, j)
        off += m.n
    return SquareMatrix._raw(field, n, flat)


def vector_order(M: SquareMatrix, v) -> Polynomial:
    """Monic generator of the annihilator {f : f(M) v = 0}."""
    v = [c.index if isinstance(c, FieldElement) else c for c in v]
    return Polynomial._raw(M.field, _conductor(M, v, [], [])[0])


def _solve_columns(field, cols, target):
    """Coefficients a with sum(a_t * cols[t]) = target, or None."""
    if not cols:
        return [] if not any(target) else None
    n = len(cols[0])
    aug = [[cols[t][i] for t in range(len(cols))] + [target[i]]
           for i in range(n)]
    rref, pivots = row_echelon(field, aug)
    m = len(cols)
    if m in pivots:
        return None  # inconsistent
    out = [0] * m
    for row, pc in zip(rref, pivots):
        out[pc] = row[m]
    return out


def rcf(M: SquareMatrix) -> RationalCanonicalForm:
    field = M.field
    n = M.n
    q = field.q
    gens = []          # (generator vector, invariant factor)
    wcols = []         # Krylov columns of the captured generators
    wrref, wpivots = [], []

    while len(wcols) < n:
        target = _order_lcm(M, wrref, wpivots, n - len(wcols))
        tdeg = target.degree

        # first vector (by matrix-index encoding) whose conductor hits tdeg
        chosen = None
        for vi in range(1, q ** n):
            v = []
            t = vi
            for _ in range(n):
                v.append(t % q)
                t //= q
            coeffs, kry = _conductor(M, v, wrref, wpivots)
            if len(coeffs) - 1 == tdeg:
                chosen = (v, coeffs, kry)
                break
        assert chosen is not None, "no vector of maximal conductor found"
        v, coeffs, kry = chosen
        f = Polynomial._raw(field, list(coeffs))
        assert f == target or f.degree == tdeg

        # express f(M) v over the captured columns and correct v so that
        # f(M) v = 0 exactly
        add, mul = field.add, field.mul
        u = [0] * n
        for t, c in enumerate(coeffs):
            if c:
                kv = kry[t]
                for s in range(n):
                    if kv[s]:
                        u[s] = add(u[s], mul(c, kv[s]))
        if any(u):
            a = _solve_columns(field, wcols, u)
            assert a is not None, "conductor image escaped the captured space"
            pos = 0
            for gv, gf in gens:
                d = gf.degree
                gpoly = Polynomial._raw(field, list(a[pos:pos + d]))
                pos += d
                quo, rem = divmod(gpoly, f)
                assert rem.is_zero, "maximal-conductor invariant violated"
                corr = poly_times_vector(quo, M, gv)
                v = [field.sub(x, y) for x, y in zip(v, corr)]
            coeffs2, kry = _conductor(M, v, [], [])
            assert len(coeffs2) - 1 == f.degree
            f = Polynomial._raw(field, list(coeffs2))

        gens.append((list(v), f))
        cur = list(v)
        for _ in range(f.degree):
            wcols.append(list(cur))
            cur = list(M.apply(cur))
        wrref, wpivots = row_echelon(field, [list(c) for c in wcols])
        assert len(wpivots) == len(wcols), "cyclic pieces are not independent"

    # split each invariant factor into prime-power blocks
    records = []
    for gv, gf in gens:
        fact = factorize(gf)
        for base, e in fact.factors:
            ppow = base ** e
            u = poly_times_vector(gf // ppow, M, gv)
            records.append((base, e, ppow, u))
    records.sort(key=lambda r: (r[0].sort_key(), -r[1]))

    cols = []
    blocks = []
    for base, e, ppow, u in records:
        blocks.append(ppow)
        cur = list(u)
        for _ in range(ppow.degree):
            cols.append(list(cur))
            cur = list(M.apply(cur))
    flat = [0] * (n * n)
    for t, c in enumerate(cols):
        for i in range(n):
            flat[i * n + t] = c[i]
    P = SquareMatrix._raw(field, n, flat)
    if __debug__:
        D = companion_block_diagonal(field, blocks)
        assert P.invert() * M * P == D, "transition identity failed"
    return RationalCanonicalForm(tuple(blocks), P, n)


def are_similar(A: SquareMatrix, B: SquareMatrix):
    """(True, Q) with Q^-1 A Q = B when similar, else (False, None)."""
    if A.field != B.field or A.n != B.n:
        raise ValueError("matrices of different shape or field")
    ra = rcf(A)
    rb = rcf(B)
    if ra.blocks != rb.blocks:
        return False, None
    Q = ra.transition * rb.transition.invert()
    if __debug__:
        assert Q.invert() * A * Q == B
    return True, Q
