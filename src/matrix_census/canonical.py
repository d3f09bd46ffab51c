"""Rational canonical form, similarity testing, and cyclic-vector machinery.

``rcf`` decomposes the space into cyclic pieces, each generated by a vector
of maximal order modulo the part already captured: a sum of prime-power parts
cut from the basis vectors, corrected so the new piece meets the old ones
trivially.  Each cyclic piece is split into prime-power blocks, sorted by
(irreducible base in canonical polynomial order, descending exponent), so two
matrices are similar exactly when their block lists are equal.  The
(base, exponent) pair of each block is kept alongside, in the same order.

The transition matrix P always satisfies P^-1 M P = block diagonal of
companion matrices; rcf re-checks this identity on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .factor import factorize
from .field import FieldSpec
from .matrix import (SquareMatrix, _basis_conductors, _conductor, _solve,
                     poly_times_vector, row_echelon)
from .poly import Polynomial


@dataclass(frozen=True)
class RationalCanonicalForm:
    blocks: tuple
    transition: SquareMatrix
    dimension: int
    prime_powers: tuple  # (monic irreducible f, e) with f^e each block


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
    return _conductor(M, v, [], [])


def _krylov_columns(M, v, d: int) -> list:
    """[v, M v, ..., M^(d-1) v] for d >= 1, as lists."""
    cols = [list(v)]
    for _ in range(d - 1):
        cols.append(list(M.apply(cols[-1])))
    return cols


def _maximal_vector(M, wrref, wpivots, cap):
    """(v, f, factorize(f)), f the order of M on the quotient by span(W) and
    v of conductor f there.  Each prime power of f is owned by the first e_i
    whose conductor c_i it divides; e_i adds (c_i / what it owns)(M) e_i, and
    parts of coprime conductors sum to one of conductor their product."""
    field = M.field
    conds, f = _basis_conductors(M, wrref, wpivots, cap)
    fact = factorize(f)
    owned = [Polynomial.one(field)] * len(conds)
    for base, e in fact.factors:
        ppow = base ** e
        i = next(i for i, (_, c) in enumerate(conds) if (c % ppow).is_zero)
        owned[i] = owned[i] * ppow
    v = [0] * M.n
    for (e_i, c), own in zip(conds, owned):
        if own.degree:
            part = poly_times_vector(c // own, M, e_i)
            v = [field.add(x, y) for x, y in zip(v, part)]
    return v, f, fact


def rcf(M: SquareMatrix) -> RationalCanonicalForm:
    """Prime-power companion blocks of M in canonical order, and P with
    P^-1 M P their block diagonal.  Maximal vectors are built as in
    Giesbrecht, *Nearly optimal algorithms for canonical matrix forms*
    (SIAM J. Comput. 24, 1995): polynomially many field operations."""
    field = M.field
    n = M.n
    gens = []          # (generator vector, invariant factor, its factorization)
    wcols = []         # Krylov columns of the captured generators
    wrref, wpivots = [], []

    while len(wcols) < n:
        v, f, fact = _maximal_vector(M, wrref, wpivots, n - len(wcols))

        # express f(M) v over the captured columns and correct v so that
        # f(M) v = 0 exactly; v keeps its order f modulo span(W)
        u = poly_times_vector(f, M, v)
        if any(u):
            # W's columns are independent (checked below), so None means
            # that u lies outside their span
            a = _solve(field, [[c[i] for c in wcols] for i in range(n)],
                       [[c] for c in u])
            if a is None:
                raise RuntimeError(
                    "conductor image escaped the captured space")
            pos = 0
            for gv, gf, _ in gens:
                d = gf.degree
                gpoly = Polynomial._raw(field, [r[0] for r in a[pos:pos + d]])
                pos += d
                quo, rem = divmod(gpoly, f)
                if not rem.is_zero:
                    raise RuntimeError("maximal-conductor invariant violated")
                corr = poly_times_vector(quo, M, gv)
                v = [field.sub(x, y) for x, y in zip(v, corr)]

        gens.append((v, f, fact))
        wcols.extend(_krylov_columns(M, v, f.degree))
        wrref, wpivots = row_echelon(field, wcols)
        if len(wpivots) != len(wcols):
            raise RuntimeError("cyclic pieces are not independent")

    # split each invariant factor into prime-power blocks
    records = []
    for gv, gf, fact in gens:
        for base, e in fact.factors:
            ppow = base ** e
            u = poly_times_vector(gf // ppow, M, gv)
            records.append((base, e, ppow, u))
    records.sort(key=lambda r: (r[0].sort_key(), -r[1]))

    cols = []
    blocks = []
    for base, e, ppow, u in records:
        blocks.append(ppow)
        cols.extend(_krylov_columns(M, u, ppow.degree))
    flat = [0] * (n * n)
    for t, c in enumerate(cols):
        for i in range(n):
            flat[i * n + t] = c[i]
    P = SquareMatrix._raw(field, n, flat)
    # P^-1 M P = D, with a singular P an internal fault too
    if not P.det() or M * P != P * companion_block_diagonal(field, blocks):
        raise RuntimeError("transition identity failed")
    return RationalCanonicalForm(tuple(blocks), P, n,
                                 tuple((f, e) for f, e, _, _ in records))


def are_similar(A: SquareMatrix, B: SquareMatrix):
    """(True, Q) with Q^-1 A Q = B when similar, else (False, None)."""
    if A.field != B.field or A.n != B.n:
        raise ValueError("matrices of different shape or field")
    ra = rcf(A)
    rb = rcf(B)
    if ra.blocks != rb.blocks:
        return False, None
    Q = ra.transition * rb.transition.invert()  # invertible, as both are
    if A * Q != Q * B:
        raise RuntimeError("similarity witness failed")
    return True, Q
