"""Square matrices over a FieldSpec.

Entries are stored as a flat tuple of element indices, row major.  The
characteristic polynomial is computed by the division-free Berkowitz
recurrence, so it is exact for every field size; the determinant is recovered
from it as (-1)^n * charpoly(0).

``_krylov`` is the one matrix-vector loop (v, M v, M^2 v, ... on a leading
block).  ``_combine`` is the one row-combination loop: it takes g(M) v from
those vectors, not by multiplying again, and each row of a matrix product
as a combination of the rows of the right factor.

``_reduce_mod`` is the one row-subtraction loop: ``row_echelon`` (on plain
lists of row vectors, for the canonical form, the centralizer basis and
``_solve``) and the conductor both take their pivot rows from it through
``_pivot_row``.  A row space has one reduced echelon form, so
``row_echelon``'s result does not depend on the order of its input rows.
"""

from __future__ import annotations

import bisect
import operator

from .errors import ParseError, SingularMatrixError
from .field import FieldSpec, power
from .poly import Polynomial


class SquareMatrix:
    __slots__ = ("field", "n", "_e")

    def __init__(self, field: FieldSpec, rows):
        rows = list(rows)
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must have positive dimension")
        flat = []
        for r in rows:
            r = list(r)
            if len(r) != n:
                raise ValueError(f"expected {n} entries per row, got {len(r)}")
            for c in r:
                flat.append(field._index(c, "entry"))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_e", tuple(flat))

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    @classmethod
    def _raw(cls, field, n: int, flat) -> "SquareMatrix":
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "_e", tuple(flat))
        return obj

    @classmethod
    def zero(cls, field, n: int) -> "SquareMatrix":
        return cls._raw(field, n, (0,) * (n * n))

    @classmethod
    def identity(cls, field, n: int) -> "SquareMatrix":
        return cls.diagonal(field, [1] * n)

    @classmethod
    def scalar(cls, field, n: int, c) -> "SquareMatrix":
        return cls.diagonal(field, [c] * n)

    @classmethod
    def diagonal(cls, field, entries) -> "SquareMatrix":
        entries = [field._index(c, "entry") for c in entries]
        n = len(entries)
        flat = [0] * (n * n)
        for i, c in enumerate(entries):
            flat[i * n + i] = c
        return cls._raw(field, n, flat)

    @property
    def flat_indices(self) -> tuple:
        return self._e

    def entry_index(self, i: int, j: int) -> int:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return self._e[i * self.n + j]

    def _check(self, other):
        if not isinstance(other, SquareMatrix):
            raise TypeError(f"expected a SquareMatrix, got {other!r}")
        if other.field != self.field or other.n != self.n:
            raise ValueError("matrices of different shape or field")

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check(other)
        add = self.field.add
        return SquareMatrix._raw(
            self.field, self.n,
            [add(a, b) for a, b in zip(self._e, other._e)])

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check(other)
        sub = self.field.sub
        return SquareMatrix._raw(
            self.field, self.n,
            [sub(a, b) for a, b in zip(self._e, other._e)])

    def __neg__(self):
        neg = self.field.neg
        return SquareMatrix._raw(self.field, self.n, [neg(a) for a in self._e])

    def __mul__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check(other)
        n, field = self.n, self.field
        a, b = self._e, other._e
        brows = [b[t:t + n] for t in range(0, n * n, n)]
        return SquareMatrix._raw(field, n, [
            c for i in range(0, n * n, n)
            for c in _combine(field, brows, a[i:i + n])])

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("matrix exponent must be a nonnegative integer")
        return power(operator.mul, self, e,
                     SquareMatrix.identity(self.field, self.n))

    def charpoly(self) -> Polynomial:
        """det(xI - M), monic of degree n, by the Berkowitz recurrence."""
        desc = _berkowitz(self.field, self._e, self.n)
        return Polynomial._raw(self.field, list(reversed(desc)))

    def minpoly(self) -> Polynomial:
        """Least common multiple of the orders of the standard basis vectors."""
        return _basis_conductors(self, [], [])[1]

    def det(self) -> int:
        """(-1)^n times the constant term of the characteristic polynomial."""
        c0 = self.charpoly().coeff_indices[0]
        return self.field.neg(c0) if self.n % 2 else c0

    def invert(self) -> "SquareMatrix":
        n = self.n
        x = _solve(self.field, [self._e[i * n:(i + 1) * n] for i in range(n)],
                   [[int(i == j) for j in range(n)] for i in range(n)])
        if x is None:
            raise SingularMatrixError("matrix is singular")
        return SquareMatrix._raw(self.field, n, [c for row in x for c in row])

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return (self.field, self.n, self._e) == (other.field, other.n, other._e)

    def __hash__(self):
        return hash((self.field, self.n, self._e))

    def __str__(self):
        return format_matrix(self)

    def __repr__(self):
        return f"SquareMatrix({self.field}, {format_matrix(self)!r})"


def _berkowitz(field: FieldSpec, flat, n: int) -> list:
    """Characteristic polynomial coefficients, descending, leading first."""
    add, mul, neg = field.add, field.mul, field.neg
    p = [1]
    for i in range(n):
        ks = _krylov(add, mul, flat, n, flat[i:i * n:n], i)
        p = _berkowitz_step(add, mul, neg, flat, n, i, p, ks)
    return p


def _krylov(add, mul, flat, n: int, v, count: int) -> list:
    """[v, A*v, ..., A^(count-1)*v] as lists, [] at count = 0, for A the
    leading len(v) x len(v) block of the row-major n x n ``flat``: the
    package's one matrix-vector loop."""
    m = len(v)
    ks = [list(v)] if count else []
    for _ in range(count - 1):
        w, nw = ks[-1], []
        for u in range(m):
            uo = u * n
            s = 0
            for t in range(m):
                wt = w[t]
                if wt:
                    s = add(s, mul(flat[uo + t], wt))
            nw.append(s)
        ks.append(nw)
    return ks


def _combine(field, vecs, coeffs) -> list:
    """sum_k coeffs[k] * vecs[k], for len(coeffs) <= len(vecs): g(M) v from
    the Krylov vectors [v, M v, ...] of v and g's ascending coefficients."""
    add, mul = field.add, field.mul
    out = [0] * len(vecs[0])
    for c, w in zip(coeffs, vecs):
        if c:
            for t, wt in enumerate(w):
                if wt:
                    out[t] = add(out[t], mul(c, wt))
    return out


def _berkowitz_step(add, mul, neg, flat, n: int, i: int, p: list,
                    ks: list) -> list:
    """One step of the Berkowitz recurrence on the row-major n x n ``flat``:
    the descending charpoly of its leading (i+1) x (i+1) block, from ``p``,
    that of the leading i x i block, and ``ks``, as _berkowitz passes it.
    Reads only row i, columns 0..i, so blocks differing there share ``ks``."""
    ro = i * n
    col = [1, neg(flat[ro + i])]
    for w in ks:
        s = 0
        for t in range(i):
            wt = w[t]
            if wt:
                s = add(s, mul(flat[ro + t], wt))
        col.append(neg(s))
    # the first i + 2 coefficients of the convolution of col with p, which
    # has i + 1; term t = 0 is col[s] * p[0] = col[s], as p is monic
    np_ = [1]
    for s in range(1, i + 2):
        acc = col[s]
        for t in range(1, min(s, i) + 1):
            pv = p[t]
            if pv:
                acc = add(acc, mul(col[s - t], pv))
        np_.append(acc)
    return np_


def _reduce_mod(field, vec, rows, pivots):
    """vec reduced to 0 at every pivot, given that each row is 1 at its own
    pivot and 0 at the pivots of the rows before it: the module's one
    row-subtraction loop, which every elimination here goes through."""
    sub, mul = field.sub, field.mul
    cur = list(vec)
    for row, pc in zip(rows, pivots):
        c = cur[pc]
        if c:
            for t, rv in enumerate(row):
                if rv:
                    cur[t] = sub(cur[t], mul(c, rv))
    return cur


def _pivot_row(field, vec, rows, pivots, width):
    """(vec reduced by _reduce_mod, pivot): the pivot is its first nonzero
    entry among the first ``width``, where the row is scaled to 1, or None
    when there is none and the reduced vec is returned as it is."""
    cur = _reduce_mod(field, vec, rows, pivots)
    for p in range(width):
        c = cur[p]
        if c:
            if c != 1:
                ic, mul = field.inv(c), field.mul
                cur = [mul(x, ic) for x in cur]
            return cur, p
    return cur, None


def _conductor(M, v, wrref, wpivots):
    """(f, [v, M v, ..., M^deg f v]) for f the order of v in the quotient by
    span(W), given by the RREF rows of W: the monic minimal f with f(M) v in
    span(W).  With W empty f is the order of v; the zero vector has order 1."""
    field, n = M.field, M.n
    # W's rows, then one [residual | combination over Krylov powers] row per
    # power M^j v that is independent of those before it, normalised at its
    # pivot among the residual's n entries; W's shorter rows leave the
    # combination alone
    rows, pivots = list(wrref), list(wpivots)
    ks = [list(v)]  # M^j v for j so far
    for j in range(n + 1):
        comb = [0] * (n + 1)
        comb[j] = 1
        cur, pivot = _pivot_row(field, ks[j] + comb, rows, pivots, n)
        if pivot is None:
            # sum(cur[n + t] M^t v) lies in span(W) and cur[n + j] = 1, so
            # the combination is the monic conductor itself
            return Polynomial._raw(field, cur[n:]), ks
        rows.append(cur)
        pivots.append(pivot)
        ks.append(_krylov(field.add, field.mul, M._e, n, ks[j], 2)[1])


def _basis_conductors(M, wrref, wpivots):
    """([_conductor(M, e_i, W)], the lcm of those conductors), the lcm
    being the order of M on the quotient by span(W); stops once its degree
    is the quotient's dimension."""
    n = M.n
    conds = []
    lcm = Polynomial.one(M.field)
    for i in range(n):
        c, ks = _conductor(M, [int(t == i) for t in range(n)], wrref, wpivots)
        conds.append((c, ks))
        lcm = (lcm * c) // lcm.gcd(c)
        if lcm.degree == n - len(wpivots):
            break
    return conds, lcm


def row_echelon(field: FieldSpec, rows):
    """Reduced row echelon form: (nonzero rows, ascending pivot columns).
    Each row is brought to a pivot row by the rows kept so far
    (_pivot_row), cleared out of the kept rows nonzero at its pivot and
    inserted in pivot order.  A row space has one such form, so the order
    of the input rows does not change the result."""
    rref, pivots = [], []
    for r in rows:
        cur, p = _pivot_row(field, r, rref, pivots, len(r))
        if p is None:
            continue
        for i, row in enumerate(rref):
            if row[p]:
                rref[i] = _reduce_mod(field, row, [cur], [p])
        k = bisect.bisect(pivots, p)
        rref.insert(k, cur)
        pivots.insert(k, p)
    return rref, pivots


def _solve(field: FieldSpec, a_rows, b_rows):
    """The rows of X with A X = B, for A with m columns, or None unless the
    echelon form of [A | B] has pivots exactly 0..m-1: A has rank m and
    each column of B lies in A's column space."""
    m = len(a_rows[0])
    rref, pivots = row_echelon(
        field, [[*a, *b] for a, b in zip(a_rows, b_rows)])
    if pivots != list(range(m)):
        return None
    return [row[m:] for row in rref]


def format_matrix(M: SquareMatrix) -> str:
    """Rows joined by ';', entries by ',', each entry an element index."""
    n = M.n
    return ";".join(
        ",".join(str(c) for c in M._e[i * n:(i + 1) * n]) for i in range(n))


def parse_matrix(text: str, field: FieldSpec) -> SquareMatrix:
    rows_text = text.split(";")
    n = len(rows_text)
    offset = 0
    rows = []
    for rt in rows_text:
        entries = rt.split(",")
        if len(entries) != n:
            raise ParseError(
                f"expected {n} entries per row, got {len(entries)}", offset)
        row = []
        for et in entries:
            at = offset + (len(et) - len(et.lstrip()))
            s = et.strip()
            if not s or not all(ch.isdigit() for ch in s):
                raise ParseError(f"bad entry {s!r}", at)
            v = int(s)
            if v >= field.q:
                raise ParseError(
                    f"entry {v} out of range [0, {field.q})", at)
            row.append(v)
            offset += len(et) + 1
        rows.append(row)
    return SquareMatrix(field, rows)
