"""Shared helpers: seeded generators and a session-wide census cache."""

import itertools
import random

import pytest

import matrix_census as mc


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


def brute_irreducible(f):
    """Trial division by every monic polynomial of degree <= deg(f)/2: the
    reference for the package's irreducibility test."""
    d = f.degree
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for g in mc.monic_polys(f.field, e):
            if (f % g).is_zero:
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
    """f(M) by Horner on matrix products: the Cayley-Hamilton reference,
    sharing none of the package's Krylov kernel."""
    if f.field != M.field:
        raise ValueError("polynomial and matrix over different fields")
    acc = mc.SquareMatrix.zero(M.field, M.n)
    for c in reversed(f.coeff_indices):
        acc = acc * M + mc.SquareMatrix.scalar(M.field, M.n, c)
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
