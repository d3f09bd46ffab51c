"""Matrix arithmetic and exact linear algebra.  The characteristic
polynomial is cross-checked against an independent cofactor expansion of
det(x*I - M) computed in the polynomial ring."""

import itertools

import pytest

import matrix_census as mc
from matrix_census.errors import SingularMatrixError
from matrix_census.matrix import _berkowitz_step, _krylov, row_echelon
from matrix_census.poly import Polynomial

from conftest import (all_matrices, charpoly_by_cofactors, evaluate_poly,
                      gauss_jordan, make_rng, mat_product, poly_det,
                      rand_invertible, rand_matrix, rand_poly)


F2 = mc.make_field(2)
F3 = mc.make_field(3)
F4 = mc.make_field(2, 2)
F9 = mc.make_field(3, 2)
F31 = mc.make_field(31)
F256 = mc.make_field(2, 8)
ELIMINATION_FIELDS = (F2, F3, F4, F9, F31, F256)
M_ = mc.SquareMatrix


def test_constructors_and_entry_access():
    Z = mc.SquareMatrix.zero(F3, 2)
    assert Z.flat_indices == (0, 0, 0, 0)
    I = mc.SquareMatrix.identity(F3, 2)
    assert I.flat_indices == (1, 0, 0, 1)
    S = mc.SquareMatrix.scalar(F3, 2, 2)
    assert S.flat_indices == (2, 0, 0, 2)
    D = mc.SquareMatrix.diagonal(F3, [1, 2])
    assert D.flat_indices == (1, 0, 0, 2)
    A = M_(F3, [[0, 1], [2, 0]])
    assert A.entry_index(0, 1) == 1 and A.entry_index(1, 0) == 2
    assert A.flat_indices == (0, 1, 2, 0)


def test_ring_axioms_random():
    rng = make_rng(5)
    for field, n in ((F2, 3), (F3, 2), (F9, 2), (F4, 3)):
        I = mc.SquareMatrix.identity(field, n)
        two = mc.SquareMatrix.scalar(field, n, field.add(1, 1))
        for _ in range(25):
            A = rand_matrix(field, n, rng)
            B = rand_matrix(field, n, rng)
            C = rand_matrix(field, n, rng)
            assert A + B == B + A
            assert (A + B) + C == A + (B + C)
            assert (A * B) * C == A * (B * C)
            assert A * (B + C) == A * B + A * C
            assert (B + C) * A == B * A + C * A
            assert A - A == mc.SquareMatrix.zero(field, n)
            assert A * I == A and I * A == A
            assert two * A == A + A


def test_known_products_and_inverse():
    A = M_(F2, [[0, 1], [1, 1]])
    assert (A * A) == M_(F2, [[1, 1], [1, 0]])
    assert A.invert() == M_(F2, [[1, 1], [1, 0]])
    assert A * A.invert() == mc.SquareMatrix.identity(F2, 2)
    assert A ** 2 == A * A
    assert A ** 5 == A * A * A * A * A
    assert A ** 0 == mc.SquareMatrix.identity(F2, 2)
    with pytest.raises(ValueError):
        A ** -1


def test_charpoly_exhaustive_2x2_against_cofactors():
    for field in (F2, F3):
        for A in all_matrices(field, 2):
            assert A.charpoly() == charpoly_by_cofactors(A)


def test_charpoly_random_against_cofactors():
    rng = make_rng(11)
    for field, n in ((F2, 3), (F2, 4), (F3, 3), (F4, 3), (F9, 2), (F3, 5)):
        for _ in range(12):
            A = rand_matrix(field, n, rng)
            f = A.charpoly()
            assert f.is_monic and f.degree == n
            assert f == charpoly_by_cofactors(A)


def test_krylov_matches_plain_matrix_powers():
    # _krylov(.., v, count) is [A^k * v for k < count] for A the leading
    # len(v) x len(v) block, [] at count 0 and [v] at count 1; rebuilt here
    # with plain field-op loops.  With n = m + 2 the vector is shorter than
    # n, which leaves rows and columns outside the block, and it must not
    # read them
    rng = make_rng(31)
    for field in (F2, F9, mc.make_field(101)):
        add, mul, neg = field.add, field.mul, field.neg
        for m in range(6):
            n = m + 2
            for count in range(m + 2):
                flat = [rng.randrange(field.q) for _ in range(n * n)]
                want, v = [], [rng.randrange(field.q) for _ in range(m)]
                v0 = tuple(v)
                for _ in range(count):
                    want.append(v)
                    nv = []
                    for u in range(m):
                        s = 0
                        for t in range(m):
                            s = add(s, mul(flat[u * n + t], v[t]))
                        nv.append(s)
                    v = nv
                assert _krylov(add, mul, flat, n, v0, count) == want
        # nothing at i = 0, so the first step's column is [1, -a00]
        flat = [rng.randrange(1, field.q)]
        assert _krylov(add, mul, flat, 1, [], 0) == []
        assert _berkowitz_step(add, mul, neg, flat, 1, 0, [1], []) == \
            [1, neg(flat[0])]


def test_charpoly_1x1_and_companion():
    assert M_(F3, [[2]]).charpoly() == mc.parse_poly("x+1", F3)
    A = M_(F2, [[0, 1], [1, 1]])
    assert mc.format_poly(A.charpoly()) == "x^2+x+1"


def test_cayley_hamilton():
    rng = make_rng(13)
    for field, n in ((F2, 4), (F3, 3), (F9, 2), (F4, 3)):
        for _ in range(15):
            A = rand_matrix(field, n, rng)
            assert evaluate_poly(A.charpoly(), A) == \
                mc.SquareMatrix.zero(field, n)


def test_charpoly_similarity_invariant():
    rng = make_rng(17)
    for field, n in ((F2, 3), (F3, 3), (F4, 2)):
        for _ in range(15):
            A = rand_matrix(field, n, rng)
            P = rand_invertible(field, n, rng)
            B = P.invert() * A * P
            assert B.charpoly() == A.charpoly()
            assert B.minpoly() == A.minpoly()


def test_minpoly_divides_charpoly_and_is_minimal():
    rng = make_rng(19)
    for field, n in ((F2, 3), (F2, 4), (F3, 3), (F9, 2)):
        for _ in range(15):
            A = rand_matrix(field, n, rng)
            mp = A.minpoly()
            cp = A.charpoly()
            assert mp.is_monic
            assert (cp % mp).is_zero
            assert evaluate_poly(mp, A) == mc.SquareMatrix.zero(field, n)
            # dropping any irreducible factor must stop killing A
            for g, _ in mc.factorize(mp).factors:
                smaller = mp // g
                if smaller.degree >= 0 and not smaller.degree == 0:
                    assert evaluate_poly(smaller, A) != \
                        mc.SquareMatrix.zero(field, n)
    assert mc.SquareMatrix.identity(F3, 3).minpoly() == \
        mc.parse_poly("x+2", F3)
    assert mc.SquareMatrix.zero(F3, 3).minpoly() == mc.parse_poly("x", F3)


def test_det_multiplicative_and_matches_cofactors():
    rng = make_rng(23)
    for field, n in ((F2, 3), (F3, 2), (F3, 3), (F9, 2)):
        for _ in range(15):
            A = rand_matrix(field, n, rng)
            B = rand_matrix(field, n, rng)
            assert field.mul(A.det(), B.det()) == (A * B).det()
            rows = [[Polynomial(field, [A.entry_index(i, j)])
                     for j in range(n)] for i in range(n)]
            expect = poly_det(field, rows)
            if expect.is_zero:
                assert A.det() == 0
            else:
                assert expect.coeff_indices == (A.det(),)
    assert mc.SquareMatrix.identity(F3, 4).det() == 1
    assert M_(F3, [[2]]).det() == 2


def _rank_deficient(field, m, k, rank, rng):
    """m rows of length k spanning at most ``rank`` dimensions, with zero
    rows and repeats among them."""
    basis = [[rng.randrange(field.q) for _ in range(k)] for _ in range(rank)]
    rows = []
    for _ in range(m):
        row = [0] * k
        for b in basis:
            c = rng.randrange(field.q)
            row = [field.add(x, field.mul(c, y)) for x, y in zip(row, b)]
        rows.append(row)
    rows[rng.randrange(m)] = [0] * k
    rows.append(list(rng.choice(rows)))
    rng.shuffle(rows)
    return rows


def test_row_echelon_shape():
    rng = make_rng(31)
    for field in ELIMINATION_FIELDS:
        for _ in range(15):
            rows = [[rng.randrange(field.q) for _ in range(4)]
                    for _ in range(3)]
            red, pivots = row_echelon(field, rows)
            assert (red, pivots) == gauss_jordan(field, rows)
            assert pivots == sorted(pivots)
            for r, p in enumerate(pivots):
                assert red[r][p] == 1
                for other in range(len(pivots)):
                    if other != r:
                        assert red[other][p] == 0
            # re-reducing is a fixed point
            again, pivots2 = row_echelon(field, red)
            assert again == red and pivots2 == pivots
    # the reduced echelon form of a row space is unique, so the package's
    # insertion into a reduced set must equal the column sweep row for row
    assert row_echelon(F2, []) == gauss_jordan(F2, []) == ([], [])
    for field in ELIMINATION_FIELDS:
        cases = [[[rng.randrange(field.q) for _ in range(k)]
                  for _ in range(m)]
                 for m, k in ((7, 3), (5, 5), (3, 8), (1, 4), (4, 1))]
        # _solve's [A | B], and again with A's last row a copy of its first
        for n in (2, 4, 6):
            a = rand_matrix(field, n, rng).flat_indices
            b = rand_matrix(field, n, rng).flat_indices
            ab = [a[i * n:(i + 1) * n] + b[i * n:(i + 1) * n]
                  for i in range(n)]
            cases += [ab, ab[:-1] + [ab[0][:n] + ab[-1][n:]]]
        cases.append([[0] * 4, [0] * 4])
        cases.extend(_rank_deficient(field, m, k, r, rng)
                     for m, k, r in ((6, 4, 2), (5, 7, 3), (8, 8, 1),
                                     (3, 5, 0)))
        for rows in cases:
            expected = gauss_jordan(field, rows)
            assert row_echelon(field, rows) == expected, (field, rows)
        # every order of the input rows gives the same form
        for m, k, r in ((4, 4, 3), (4, 5, 4), (5, 3, 2)):
            rows = _rank_deficient(field, m, k, r, rng)[:5]
            expected = gauss_jordan(field, rows)
            for perm in itertools.permutations(rows):
                assert row_echelon(field, perm) == expected, (field, perm)


def test_product_matches_triple_loop():
    rng = make_rng(59)
    for field in ELIMINATION_FIELDS:
        for n in range(1, 8):
            for _ in range(3):
                A = rand_matrix(field, n, rng)
                B = rand_matrix(field, n, rng)
                assert A * B == mat_product(A, B)
            # sparse factors take the product's zero-skipping paths
            Z = mc.SquareMatrix.zero(field, n)
            D = mc.SquareMatrix.diagonal(
                field, [rng.randrange(field.q) for _ in range(n)])
            assert A * Z == Z == Z * A
            assert A * D == mat_product(A, D) and D * A == mat_product(D, A)


def test_invert_round_trip_and_singular():
    rng = make_rng(37)
    for field, n in ((F2, 3), (F3, 3), (F9, 2), (F4, 4)):
        I = mc.SquareMatrix.identity(field, n)
        for _ in range(10):
            A = rand_invertible(field, n, rng)
            assert A * A.invert() == I
            assert A.invert() * A == I
    with pytest.raises(SingularMatrixError):
        mc.SquareMatrix.zero(F3, 2).invert()
    with pytest.raises(SingularMatrixError):
        M_(F2, [[1, 1], [1, 1]]).invert()


def test_parse_format_round_trip():
    rng = make_rng(43)
    for field, n in ((F2, 2), (F3, 3), (F9, 2)):
        for _ in range(10):
            A = rand_matrix(field, n, rng)
            assert mc.parse_matrix(mc.format_matrix(A), field) == A
    assert mc.format_matrix(M_(F2, [[0, 1], [1, 1]])) == "0,1;1,1"
    A = mc.parse_matrix(" 0 , 1 ; 1 , 1 ", F2)
    assert A == M_(F2, [[0, 1], [1, 1]])


def test_parse_matrix_errors():
    for text in ("", "0,1;1", "0,1;1,1;", "0,x;1,1", "0,1,1;1,1,1",
                 "0,3;1,1"):
        with pytest.raises(mc.ParseError):
            mc.parse_matrix(text, F2)


def test_matrix_equality_and_hash():
    A = M_(F2, [[0, 1], [1, 1]])
    B = M_(F2, [[0, 1], [1, 1]])
    assert A == B and hash(A) == hash(B)
    assert A != M_(F2, [[1, 1], [1, 1]])
    assert A != M_(F3, [[0, 1], [1, 1]])
    assert A != "0,1;1,1"


def test_mixed_field_matrix_ops_rejected():
    with pytest.raises(ValueError):
        M_(F2, [[1, 0], [0, 1]]) + M_(F3, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        M_(F2, [[1, 0], [0, 1]]) * M_(F3, [[1, 0], [0, 1]])
