"""Rational canonical form and cyclic-vector machinery.

``rcf`` decomposes the space into cyclic pieces, each generated by a vector
of maximal order modulo the part already captured: a sum of prime-power parts
cut from the basis vectors, corrected so the new piece meets the old ones
trivially, with every such vector combined from Krylov vectors in hand.  Each
cyclic piece is split into prime-power blocks, sorted by (irreducible base in
canonical polynomial order, descending exponent), so two matrices are similar
exactly when their block lists are equal.  The (base, exponent) pair of each
block is kept alongside, in the same order.

The transition matrix P always satisfies P^-1 M P = block diagonal of
companion matrices; rcf re-checks this identity on every call.
"""

from __future__ import annotations

from collections import namedtuple

from .factor import factorize
from .field import FieldSpec
from .matrix import (SquareMatrix, _basis_conductors, _combine, _krylov,
                     _solve, row_echelon)
from .poly import Polynomial


# prime_powers: (monic irreducible f, e) with f^e each block, in order
RationalCanonicalForm = namedtuple(
    "RationalCanonicalForm", "blocks transition dimension prime_powers")


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


def _maximal_vector(M, wrref, wpivots):
    """(v, f, factorize(f)), f the order of M on the quotient by span(W) and
    v of conductor f there.  Each prime power of f is owned by the first e_i
    whose conductor c_i it divides; e_i adds (c_i / what it owns)(M) e_i, and
    parts of coprime conductors sum to one of conductor their product."""
    field = M.field
    conds, f = _basis_conductors(M, wrref, wpivots)
    fact = factorize(f)
    owned = [Polynomial.one(field)] * len(conds)
    for base, e in fact.factors:
        ppow = base ** e
        i = next(i for i, (c, _) in enumerate(conds) if (c % ppow).is_zero)
        owned[i] = owned[i] * ppow
    v = [0] * M.n
    for (c, ks), own in zip(conds, owned):
        if own.degree:
            part = _combine(field, ks, (c // own).coeff_indices)
            v = [field.add(x, y) for x, y in zip(v, part)]
    return v, f, fact


def rcf(M: SquareMatrix) -> RationalCanonicalForm:
    """Prime-power companion blocks of M in canonical order, and P with
    P^-1 M P their block diagonal.  Maximal vectors are built as in
    Giesbrecht, *Nearly optimal algorithms for canonical matrix forms*
    (SIAM J. Comput. 24, 1995): polynomially many field operations."""
    field, n = M.field, M.n
    gens = []          # (v, M v, ..., M^d v; degree-d factor; factorization)
    wcols = []         # Krylov columns of the captured generators
    wrref, wpivots = [], []

    while len(wcols) < n:
        v, f, fact = _maximal_vector(M, wrref, wpivots)
        d = f.degree
        ks = _krylov(field.add, field.mul, M.flat_indices, n, v, d + 1)

        # express f(M) v over the captured columns and correct v so that
        # f(M) v = 0 exactly; v keeps its order f modulo span(W)
        u = _combine(field, ks, f.coeff_indices)
        if any(u):
            # W's columns are independent (checked below), so None means
            # that u lies outside their span
            a = _solve(field, [[c[i] for c in wcols] for i in range(n)],
                       [[c] for c in u])
            if a is None:
                raise RuntimeError(
                    "conductor image escaped the captured space")
            pos = 0
            for gks, gf, _ in gens:
                gd = gf.degree
                gpoly = Polynomial._raw(field, [r[0] for r in a[pos:pos + gd]])
                pos += gd
                quo, rem = divmod(gpoly, f)
                if not rem.is_zero:
                    raise RuntimeError("maximal-conductor invariant violated")
                corr = _combine(field, gks, quo.coeff_indices)
                v = [field.sub(x, y) for x, y in zip(v, corr)]
            ks = _krylov(field.add, field.mul, M.flat_indices, n, v, d + 1)

        gens.append((ks, f, fact))
        wcols.extend(ks[:d])
        wrref, wpivots = row_echelon(field, wcols)
        if len(wpivots) != len(wcols):
            raise RuntimeError("cyclic pieces are not independent")

    # split each invariant factor g into prime-power blocks; block f^e's
    # columns M^s (g / f^e)(M) v, s < deg f^e, have degree below deg g in M
    records = []
    for gks, gf, fact in gens:
        for base, e in fact.factors:
            ppow = base ** e
            cof = (gf // ppow).coeff_indices
            records.append((base, e, ppow, [
                _combine(field, gks, (0,) * s + cof)
                for s in range(ppow.degree)]))
    records.sort(key=lambda r: (r[0].sort_key(), -r[1]))
    blocks = [ppow for _, _, ppow, _ in records]
    cols = [c for *_, bcols in records for c in bcols]
    P = SquareMatrix._raw(field, n, [c[i] for i in range(n) for c in cols])
    # P^-1 M P = D, with a singular P (column rank below n) a fault too
    if (len(row_echelon(field, cols)[1]) < n
            or M * P != P * companion_block_diagonal(field, blocks)):
        raise RuntimeError("transition identity failed")
    return RationalCanonicalForm(tuple(blocks), P, n,
                                 tuple((f, e) for f, e, _, _ in records))

