"""Shared helpers: seeded generators and a session-wide census cache."""

import itertools
import random

import pytest

import matrix_census as mc
from matrix_census.matrix import _berkowitz_step, _krylov


def make_rng(seed):
    return random.Random(seed)


def _from_flat(spec, n, flat):
    return mc.SquareMatrix(spec, [flat[i * n:(i + 1) * n] for i in range(n)])


def rand_matrix(spec, n, rng):
    """Uniform random n x n matrix over the field."""
    return _from_flat(spec, n, [rng.randrange(spec.q) for _ in range(n * n)])


def all_matrices(spec, n):
    """Every n x n matrix over the field."""
    for flat in itertools.product(range(spec.q), repeat=n * n):
        yield _from_flat(spec, n, flat)


def rand_invertible(spec, n, rng):
    """Rejection-sampled invertible matrix."""
    while True:
        M = rand_matrix(spec, n, rng)
        if M.det() != 0:
            return M


def rand_poly(spec, degree, rng, monic=True):
    """Random polynomial of exactly the given degree."""
    coeffs = [rng.randrange(spec.q) for _ in range(degree)]
    lead = 1 if monic else rng.randrange(1, spec.q)
    return mc.Polynomial(spec, coeffs + [lead])


def _divides(field, g, f):
    """Whether the monic coefficient list g divides f, by long division
    through the field's ops alone, not the package's polynomial kernel."""
    rem, dg = list(f), len(g) - 1
    for i in range(len(f) - 1 - dg, -1, -1):
        c = rem[i + dg]
        if c:
            for j, y in enumerate(g):
                rem[i + j] = field.sub(rem[i + j], field.mul(c, y))
    return not any(rem)


def brute_irreducible(f):
    """Trial division by every monic polynomial of degree <= deg(f)/2: the
    reference for the package's irreducibility test."""
    d = f.degree
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for g in mc.monic_polys(f.field, e):
            if _divides(f.field, g.coeff_indices, f.coeff_indices):
                return False
    return True


def poly_det(field, rows):
    """Cofactor expansion along the first row, entries are polynomials."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = mc.Polynomial.zero(field)
    for j in range(n):
        minor = [[rows[i][jj] for jj in range(n) if jj != j]
                 for i in range(1, n)]
        term = rows[0][j] * poly_det(field, minor)
        if j % 2:
            total = total - term
        else:
            total = total + term
    return total


def charpoly_by_cofactors(M):
    """det(x*I - M) by cofactor expansion in the polynomial ring: the
    reference for the package's Berkowitz charpoly, sharing none of it."""
    field, n = M.field, M.n
    x = mc.Polynomial.x(field)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = mc.Polynomial(field, [field.neg(M.entry_index(i, j))])
            if i == j:
                cell = cell + x
            row.append(cell)
        rows.append(row)
    return poly_det(field, rows)


def evaluate_poly(f, M):
    """f(M) by Horner on textbook matrix products (mat_product): the
    Cayley-Hamilton reference, sharing none of the package's Krylov or
    row-combination kernels."""
    if f.field != M.field:
        raise ValueError("polynomial and matrix over different fields")
    acc = mc.SquareMatrix.zero(M.field, M.n)
    for c in reversed(f.coeff_indices):
        acc = mat_product(acc, M) + mc.SquareMatrix.scalar(M.field, M.n, c)
    return acc


def gauss_jordan(field, rows):
    """(nonzero rows, pivot columns) of the reduced row echelon form by a
    column sweep: pivot on the first remaining row nonzero in each column
    and clear that column in every other row.  The reference for the
    package's row_echelon, sharing none of its elimination."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        sel = next((i for i in range(len(pivots), len(rows)) if rows[i][col]),
                   None)
        if sel is None:
            continue
        r = len(pivots)
        rows[r], rows[sel] = rows[sel], rows[r]
        ic = field.inv(rows[r][col])
        rows[r] = [field.mul(c, ic) for c in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and c:
                rows[i] = [field.sub(x, field.mul(c, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def mat_product(A, B):
    """A * B by the textbook triple loop over entry_index: the reference
    for the package's matrix product."""
    field, n = A.field, A.n
    flat = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for t in range(n):
                acc = field.add(acc, field.mul(A.entry_index(i, t),
                                               B.entry_index(t, j)))
            flat.append(acc)
    return _from_flat(field, n, flat)


def census_rowwise(field, n):
    """Charpoly coefficient tuples (descending) tallied over every n x n
    matrix by one Berkowitz step per matrix at every row: the reference for
    the census's last row by linearity.  It walks leading blocks as the
    census does, through the package's _krylov and _berkowitz_step, which
    the cofactor route checks."""
    add, mul, neg = field.add, field.mul, field.neg
    a = [0] * (n * n)
    values = range(field.q)
    tally = {}

    def walk(i, p):
        row = slice(i * n, i * n + i + 1)  # row i, columns 0..i
        col = slice(i, i * n, n)  # column i, rows 0..i-1
        for above in itertools.product(values, repeat=i):
            a[col] = above
            ks = _krylov(add, mul, a, n, above, i)
            for left in itertools.product(values, repeat=i + 1):
                a[row] = left
                block = _berkowitz_step(add, mul, neg, a, n, i, p, ks)
                if i == n - 1:
                    key = tuple(block)
                    tally[key] = tally.get(key, 0) + 1
                else:
                    walk(i + 1, block)

    walk(0, [1])
    return tally


def mat_vec(M, v):
    """M times the column vector v of element indices, entry by entry."""
    field, n = M.field, M.n
    out = []
    for i in range(n):
        acc = 0
        for j in range(n):
            acc = field.add(acc, field.mul(M.entry_index(i, j), v[j]))
        out.append(acc)
    return tuple(out)


def rand_irreducible_charpoly_matrix(spec, n, rng):
    """Rejection-sampled matrix whose charpoly is irreducible."""
    while True:
        M = rand_matrix(spec, n, rng)
        if mc.is_irreducible(M.charpoly()):
            return M


@pytest.fixture(scope="session")
def census_cache():
    """Memoized full censuses so acceptance checks share one enumeration."""
    cache = {}

    def get(q, n):
        key = (q, n)
        if key not in cache:
            cache[key] = mc.census_bruteforce(mc.field_from_order(q), n)
        return cache[key]

    return get
