"""Companion matrices, rational canonical form, and similarity testing."""

import hashlib
import sys
from collections import Counter

import pytest

import matrix_census as mc
from matrix_census import canonical as canonical_mod
from matrix_census import matrix as matrix_mod
from matrix_census.poly import Polynomial

from conftest import (all_matrices, evaluate_poly, make_rng, mat_vec,
                      rand_invertible, rand_matrix, rand_poly)


F2 = mc.make_field(2)
F3 = mc.make_field(3)
F4 = mc.make_field(2, 2)
F9 = mc.make_field(3, 2)
M_ = mc.SquareMatrix


def _product(field, polys):
    out = Polynomial.one(field)
    for g in polys:
        out = out * g
    return out


def test_companion_known_layout():
    C = mc.companion(mc.parse_poly("x^2+x+1", F2))
    assert C == M_(F2, [[0, 1], [1, 1]])
    # last column carries the negated coefficients, subdiagonal is ones
    C = mc.companion(mc.parse_poly("x^3+2*x+1", F3))
    assert C == M_(F3, [[0, 0, 2], [1, 0, 1], [0, 1, 0]])


def test_companion_charpoly_and_minpoly_round_trip():
    rng = make_rng(47)
    for field in (F2, F3, F9):
        for _ in range(25):
            f = rand_poly(field, rng.randrange(1, 6), rng)
            C = mc.companion(f)
            assert C.charpoly() == f
            assert C.minpoly() == f
    with pytest.raises(ValueError):
        mc.companion(mc.parse_poly("2*x+1", F3))  # not monic
    with pytest.raises(ValueError):
        mc.companion(mc.parse_poly("1", F3))      # degree zero


def test_companion_block_diagonal():
    f = mc.parse_poly("x^2+x+1", F2)
    g = mc.parse_poly("x+1", F2)
    D = mc.companion_block_diagonal(F2, [f, g])
    assert D == M_(F2, [[0, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert D.charpoly() == f * g


def test_vector_order_of_companion_basis():
    # _conductor with nothing captured gives the order of v
    rng = make_rng(53)
    for field in (F2, F3, F9):
        for _ in range(15):
            f = rand_poly(field, rng.randrange(1, 5), rng)
            C = mc.companion(f)
            e0 = [1] + [0] * (f.degree - 1)
            assert matrix_mod._conductor(C, e0, [], [])[0] == f
    # the order annihilates and is minimal among monic divisors
    A = M_(F3, [[1, 0, 1], [2, 1, 1], [1, 1, 1]])
    for v in ([1, 0, 0], [0, 1, 0], [1, 2, 2]):
        order = matrix_mod._conductor(A, v, [], [])[0]
        assert order.is_monic
        assert mat_vec(evaluate_poly(order, A), v) == (0, 0, 0)
        for g, _ in mc.factorize(order).factors:
            smaller = order // g
            if smaller.degree >= 1 or smaller == Polynomial.one(F3):
                assert mat_vec(evaluate_poly(smaller, A), v) != (0, 0, 0)


def test_rcf_small_known_forms():
    # zero matrix: n one-dimensional nilpotent blocks
    form = mc.rcf(mc.SquareMatrix.zero(F2, 2))
    assert [mc.format_poly(b) for b in form.blocks] == ["x", "x"]
    # identity over GF(2): two blocks of x+1
    form = mc.rcf(mc.SquareMatrix.identity(F2, 2))
    assert [mc.format_poly(b) for b in form.blocks] == ["x+1", "x+1"]
    # nilpotent Jordan block is cyclic: single block x^2
    form = mc.rcf(M_(F2, [[0, 1], [0, 0]]))
    assert [mc.format_poly(b) for b in form.blocks] == ["x^2"]
    # distinct eigenvalues: one block per irreducible factor
    form = mc.rcf(mc.SquareMatrix.diagonal(F3, [1, 2]))
    assert sorted(mc.format_poly(b) for b in form.blocks) == ["x+1", "x+2"]
    # companion of an irreducible cubic stays one block
    f = mc.parse_poly("x^3+x+1", F2)
    form = mc.rcf(mc.companion(f))
    assert form.blocks == (f,)


def test_rcf_blocks_are_prime_powers_and_multiply_to_charpoly():
    rng = make_rng(59)
    for field, n in ((F2, 4), (F3, 3), (F4, 3), (F9, 2), (F2, 6)):
        for _ in range(20):
            A = rand_matrix(field, n, rng)
            form = mc.rcf(A)
            assert form.dimension == n
            assert _product(field, form.blocks) == A.charpoly()
            assert len(form.prime_powers) == len(form.blocks)
            for b, (f, e) in zip(form.blocks, form.prime_powers):
                fact = mc.factorize(b)
                assert list(fact.factors) == [(f, e)]  # one irreducible
                assert f.is_monic and mc.is_irreducible(f)
                assert f ** e == b
            keys = [(f.sort_key(), -e) for f, e in form.prime_powers]
            assert keys == sorted(keys)


def test_rcf_transition_conjugates():
    rng = make_rng(61)
    for field, n in ((F2, 4), (F3, 3), (F9, 2), (F4, 2), (F2, 5)):
        for _ in range(15):
            A = rand_matrix(field, n, rng)
            form = mc.rcf(A)
            D = mc.companion_block_diagonal(field, form.blocks)
            P = form.transition
            assert P.det() != 0
            assert A * P == P * D


def test_rcf_blocks_conjugation_invariant():
    rng = make_rng(67)
    for field, n in ((F2, 4), (F3, 3), (F4, 2)):
        for _ in range(15):
            A = rand_matrix(field, n, rng)
            P = rand_invertible(field, n, rng)
            B = P.invert() * A * P
            assert mc.rcf(B).blocks == mc.rcf(A).blocks


def test_rcf_fixed_point_on_block_diagonals():
    rng = make_rng(71)
    for field in (F2, F3):
        for _ in range(10):
            blocks = []
            total = 0
            while total < 4:
                f = rand_poly(field, rng.randrange(1, 3), rng)
                fact = mc.factorize(f)
                if len(fact.factors) != 1:
                    continue
                blocks.append(f)
                total += f.degree
            D = mc.companion_block_diagonal(field, blocks)
            got = sorted(g.sort_key() for g in mc.rcf(D).blocks)
            want = sorted(g.sort_key() for g in blocks)
            assert got == want


def test_are_similar():
    # conjugates have equal blocks, and the two transitions give Q with
    # A Q = Q B; different invariant factors give different blocks
    rng = make_rng(73)
    for field, n in ((F2, 3), (F3, 3), (F9, 2)):
        for _ in range(10):
            A = rand_matrix(field, n, rng)
            P = rand_invertible(field, n, rng)
            B = P.invert() * A * P
            ra, rb = mc.rcf(A), mc.rcf(B)
            assert ra.blocks == rb.blocks
            Q = ra.transition * rb.transition.invert()
            assert Q.det() != 0
            assert A * Q == Q * B
    A = mc.SquareMatrix.zero(F2, 2)          # blocks x, x
    B = M_(F2, [[0, 1], [0, 0]])             # block x^2
    assert mc.rcf(A).blocks != mc.rcf(B).blocks


def test_rcf_exhaustive_small():
    # every 2x2 over GF(2), GF(3) and GF(4), and every 3x3 over GF(2): the
    # transition conjugates and the blocks multiply to the charpoly.  Some
    # maximal vectors are sums over two basis vectors, e.g. for diag(0,1)
    # over GF(2), where e_0 has order x and e_1 order x+1.  The digest pins
    # every block, transition and prime power byte for byte, so a rewrite
    # of rcf's internals must reproduce them
    digest = hashlib.sha256()
    for field, n in ((F2, 2), (F3, 2), (F4, 2), (F2, 3)):
        for A in all_matrices(field, n):
            form = mc.rcf(A)
            D = mc.companion_block_diagonal(field, form.blocks)
            assert form.transition.det() != 0
            assert A * form.transition == form.transition * D
            assert _product(field, form.blocks) == A.charpoly()
            digest.update(repr((
                [b.coeff_indices for b in form.blocks],
                form.transition.flat_indices,
                [(f.coeff_indices, e) for f, e in form.prime_powers],
            )).encode())
    assert digest.hexdigest() == (
        "e24a021e532585491a382d2a0de5fe77822ff2a1655a2e2a62fedd03d6015835")


def test_rcf_conductor_calls_are_polynomial(monkeypatch):
    # the maximal vectors come from the basis vectors' conductors, so rcf
    # needs at most n^2 of them; a scan of GF(q)^n would need thousands
    calls = []
    real = matrix_mod._conductor

    def counted(*args):
        calls.append(args)
        assert len(calls) <= limit, "too many conductor calls"
        return real(*args)

    monkeypatch.setattr(matrix_mod, "_conductor", counted)
    cases = [
        (mc.make_field(101), [0, 0, 0, 1], ["x", "x", "x", "x+100"]),
        (mc.make_field(2, 8), [0, 0, 1, 1], ["x", "x", "x+1", "x+1"]),
        (mc.make_field(31), [1, 1, 1, 1, 2],
         ["x+29", "x+30", "x+30", "x+30", "x+30"]),
    ]
    for field, diag, want in cases:
        limit = len(diag) ** 2
        calls.clear()
        form = mc.rcf(mc.SquareMatrix.diagonal(field, diag))
        assert [mc.format_poly(b) for b in form.blocks] == want


def test_rcf_refuses_a_singular_transition(monkeypatch):
    # x listed twice for x^2 makes two equal columns; M P = P D still holds,
    # both sides being 0, so only P's rank shows the fault
    x = mc.parse_poly("x", F2)
    monkeypatch.setattr(canonical_mod, "factorize",
                        lambda f: mc.Factorization(1, ((x, 1), (x, 1))))
    with pytest.raises(RuntimeError, match="transition identity failed"):
        mc.rcf(mc.companion(x * x))


def test_rcf_reuses_its_krylov_vectors(monkeypatch):
    # outside _conductor, rcf's matrix-vector products are one Krylov run
    # per generator, n in all, and a rerun per corrected generator; every
    # other vector is combined from those, and no Berkowitz charpoly runs
    rng = make_rng(1)  # as random.seed(1), then randrange(2) row by row
    n = 40
    M = M_(F2, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
    products = Counter()
    real_krylov = matrix_mod._krylov

    def krylov(*args):
        products[sys._getframe(1).f_code.co_name] += max(args[-1] - 1, 0)
        return real_krylov(*args)

    for mod in (matrix_mod, canonical_mod):
        monkeypatch.setattr(mod, "_krylov", krylov, raising=False)
    form = mc.rcf(M)
    assert sum(b.degree for b in form.blocks) == n
    assert products["_conductor"] and not products["_berkowitz"]
    rest = {k: c for k, c in products.items() if k != "_conductor"}
    assert sum(rest.values()) <= 2 * n, rest
