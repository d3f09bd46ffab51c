"""Centralizer algebras and their unit groups, cross-checked against
whole-space enumeration where feasible and against the commutator solve, an
n^2 by n^2 kernel kept here as the oracle; and, through test-side oracles,
the subspace counts and invariant subspaces behind the paper's hypothesis."""

import importlib
import itertools
import os
import subprocess
import sys
import textwrap

import pytest

import matrix_census as mc
from matrix_census.errors import BudgetError
from matrix_census.matrix import _reduce_mod, row_echelon

from conftest import (all_matrices, evaluate_poly, gauss_jordan, make_rng,
                      mat_vec, rand_invertible, rand_matrix)


F2 = mc.make_field(2)
F3 = mc.make_field(3)
F4 = mc.make_field(2, 2)
F8 = mc.make_field(2, 3)
F9 = mc.make_field(3, 2)
M_ = mc.SquareMatrix
# the package binds the name `centralizer` to the function, not the module
centralizer_module = importlib.import_module("matrix_census.centralizer")


def _enumerate_commuting(M):
    """All matrices commuting with M, by scanning the whole matrix space."""
    return [X for X in all_matrices(M.field, M.n) if X * M == M * X]


def nullspace(field, rows, ncols):
    """Deterministic echelonized basis of {v : R v = 0} for the given rows:
    one vector per free column of R's reduced echelon form, in ascending
    order, 1 there and 0 at every other free column.  Built on the
    test-side gauss_jordan, so it shares no elimination with centralizer."""
    rref, pivots = gauss_jordan(field, rows)
    neg = field.neg
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [0] * ncols
        v[j] = 1
        for r, pc in enumerate(pivots):
            if rref[r][j]:
                v[pc] = neg(rref[r][j])
        basis.append(tuple(v))
    return basis


def commutator_kernel(M):
    """The kernel of X -> MX - XM, an n^2 by n^2 system, by nullspace: the
    oracle for mc.centralizer's basis, flat row-major tuples."""
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
    return nullspace(field, rows, n2)


def _gcd_dimension(M):
    """sum over pairs of rcf blocks of deg gcd(b_i, b_j), the dimension of
    C(M) (Frobenius)."""
    blocks = mc.rcf(M).blocks
    return sum(a.gcd(b).degree for a in blocks for b in blocks)


def _span_unit_count(M):
    """Units of C(M) by walking its whole span: sum_j c_j * B_j over every
    c in GF(q)^d, with B the commutator kernel's basis, each tested for full
    rank.  The oracle for Green's closed form."""
    field, n = M.field, M.n
    add, mul = field.add, field.mul
    basis = commutator_kernel(M)
    units = 0
    for c in itertools.product(range(field.q), repeat=len(basis)):
        flat = [0] * (n * n)
        for cj, bj in zip(c, basis):
            if cj:
                flat = [add(x, mul(cj, y)) for x, y in zip(flat, bj)]
        _, pivots = row_echelon(field, [flat[i * n:(i + 1) * n]
                                        for i in range(n)])
        units += len(pivots) == n
    return units


def gaussian_binomial(n, r, q):
    """Number of r-dimensional subspaces of an n-dimensional space over
    GF(q)."""
    if r < 0 or r > n:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise RuntimeError(
            f"Gaussian binomial [{n} {r}]_{q} is not an integer")
    return num // den


def invariant_subspaces(M, dimension_cap=None, *,
                        max_subspaces=mc.DEFAULT_SPAN_BUDGET):
    """All nontrivial proper M-invariant subspaces, one canonical (reduced
    echelon) basis per subspace, ordered by dimension then basis encoding:
    every reduced echelon basis is tried, so only small q and n are
    practical, and the count of candidates is checked against the budget
    first."""
    field = M.field
    q = field.q
    n = M.n
    cap = n - 1 if dimension_cap is None else min(dimension_cap, n - 1)
    candidates = sum(gaussian_binomial(n, r, q) for r in range(1, cap + 1))
    if candidates > max_subspaces:
        raise BudgetError(
            f"{candidates} candidate subspaces exceed the budget "
            f"{max_subspaces}")
    out = []
    for r in range(1, cap + 1):
        for pivots in itertools.combinations(range(n), r):
            free_pos = []
            pivot_set = set(pivots)
            for i, pc in enumerate(pivots):
                for j in range(pc + 1, n):
                    if j not in pivot_set:
                        free_pos.append((i, j))
            for values in itertools.product(range(q), repeat=len(free_pos)):
                rows = [[0] * n for _ in range(r)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), v in zip(free_pos, values):
                    rows[i][j] = v
                if not any(
                        any(_reduce_mod(field, mat_vec(M, v), rows, pivots))
                        for v in rows):
                    out.append(tuple(tuple(v) for v in rows))
    return out


def test_centralizer_against_full_enumeration():
    cases = [
        M_(F2, [[0, 1], [1, 1]]),
        M_(F2, [[0, 1], [0, 0]]),
        mc.SquareMatrix.identity(F2, 2),
        M_(F3, [[1, 0], [0, 2]]),
        M_(F3, [[0, 1], [1, 1]]),
        M_(F2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]]),
        mc.SquareMatrix.zero(F4, 2),
        mc.SquareMatrix.diagonal(F4, [1, 2]),
        M_(F4, [[3, 1], [0, 3]]),
    ]
    for M in cases:
        desc = mc.centralizer(M)
        commuting = _enumerate_commuting(M)
        assert desc.order == len(commuting)
        assert desc.order == M.field.q ** desc.dimension
        units = sum(1 for X in commuting if X.det() != 0)
        assert mc.centralizer_unit_count(M) == units
        for B in desc.basis:
            assert B * M == M * B


def test_centralizer_known_values():
    C = mc.companion(mc.parse_poly("x^2+x+1", F2))
    desc = mc.centralizer(C)
    assert desc.dimension == 2 and desc.order == 4
    assert mc.centralizer_unit_count(C) == 3
    I = mc.SquareMatrix.identity(F2, 2)
    desc = mc.centralizer(I)
    assert desc.dimension == 4 and desc.order == 16
    assert mc.centralizer_unit_count(I) == 6  # |GL_2(GF(2))|
    N = mc.companion(mc.parse_poly("x^2", F2))
    desc = mc.centralizer(N)
    assert desc.dimension == 2 and desc.order == 4
    assert mc.centralizer_unit_count(N) == 2


def test_centralizer_contains_polynomials_in_m():
    rng = make_rng(79)
    for field, n in ((F2, 3), (F3, 3), (F4, 2)):
        for _ in range(10):
            M = rand_matrix(field, n, rng)
            desc = mc.centralizer(M)
            assert desc.dimension >= M.minpoly().degree
            # every power of M commutes and lies in the basis span
            rows = [list(B.flat_indices) for B in desc.basis]
            _, pivots = row_echelon(field, [list(r) for r in rows])
            span_rank = len(pivots)
            for e in range(n):
                with_power = rows + [list((M ** e).flat_indices)]
                _, pivots2 = row_echelon(field, with_power)
                assert len(pivots2) == span_rank


def test_unit_count_fast_path_matches_enumeration():
    rng = make_rng(83)
    for field, n in ((F2, 2), (F2, 3), (F3, 2), (F2, 4)):
        for _ in range(8):
            M = rand_matrix(field, n, rng)
            if not mc.is_irreducible(M.charpoly()):
                continue
            assert mc.centralizer_unit_count(M) == _span_unit_count(M) \
                == field.q ** n - 1


def test_unit_count_matches_span_walk_on_every_small_matrix():
    for field, n in ((F2, 2), (F3, 2), (F4, 2), (F2, 3)):
        for M in all_matrices(field, n):
            units = _span_unit_count(M)
            assert mc.centralizer_unit_count(M) == units, M
            assert mc.centralizer(M).unit_count == units, M


def test_centralizer_basis_is_the_commutator_kernel_on_every_small_matrix():
    # byte for byte: the basis the envelope prints is the solve's
    for field, n in ((F2, 2), (F3, 2), (F4, 2), (F2, 3)):
        for M in all_matrices(field, n):
            desc = mc.centralizer(M)
            assert [B.flat_indices for B in desc.basis] == \
                commutator_kernel(M), M
            assert desc.dimension == _gcd_dimension(M), M


def test_centralizer_basis_is_the_commutator_kernel_on_larger_matrices():
    rng = make_rng(7)
    for field, n in ((mc.make_field(5), 6), (F9, 5), (F2, 8)):
        for M in (rand_matrix(field, n, rng), mc.SquareMatrix.zero(field, n),
                  mc.SquareMatrix.scalar(field, n, 2)):
            desc = mc.centralizer(M)
            assert [B.flat_indices for B in desc.basis] == \
                commutator_kernel(M), M
            assert desc.dimension == _gcd_dimension(M), M


def test_centralizer_of_a_random_30x30_matrix():
    # the commutator solve takes about 20 s here; the rcf route well under 1
    rng = make_rng(1)
    M = M_(F2, [[rng.randrange(2) for _ in range(30)] for _ in range(30)])
    desc = mc.centralizer(M)
    assert desc.dimension == len(desc.basis) == _gcd_dimension(M)
    for B in desc.basis:
        assert B * M == M * B
    assert desc.unit_count == mc.centralizer_unit_count(
        M, budget=2 ** desc.dimension)


def test_centralizer_basis_checks_survive_optimize():
    # assert statements vanish under -O; the rank and dimension check must
    # not: a wrong Green dimension, then conjugates that are all zero
    script = textwrap.dedent("""
        import importlib
        import sys
        import matrix_census as mc

        cz = importlib.import_module("matrix_census.centralizer")

        if __debug__:
            sys.exit("not running under -O")
        M = mc.parse_matrix("1,0;0,1", mc.make_field(2))
        real_green = cz._green
        cz._green = lambda q, pp: (5, 6)
        try:
            cz.centralizer(M)
        except RuntimeError as exc:
            print(exc)
        cz._green = real_green
        cz._combine = lambda field, vecs, coeffs: [0] * len(vecs[0])
        try:
            cz.centralizer(M)
        except RuntimeError as exc:
            print(exc)
    """)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "centralizer basis of rank 4 from 4 conjugates, not Green's "
        "dimension 5",
        "centralizer basis of rank 0 from 4 conjugates, not Green's "
        "dimension 4"]


def test_unit_count_matches_span_walk_over_gf8_and_gf9():
    # scalar, diagonal and Jordan shapes, where a digit walk that adds each
    # basis matrix once per step would reach only the GF(p)-multiples
    for field in (F8, F9):
        q = field.q
        cases = [
            (mc.SquareMatrix.scalar(field, 2, 3), mc.gl_order(q, 2)),
            (mc.SquareMatrix.diagonal(field, [1, 2]), (q - 1) ** 2),
            (mc.SquareMatrix.diagonal(field, [1, 2, 5]), (q - 1) ** 3),
            (M_(field, [[4, 1], [0, 4]]), q * (q - 1)),
            (M_(field, [[4, 1, 0], [0, 4, 1], [0, 0, 4]]), q * q * (q - 1)),
        ]
        for M, units in cases:
            assert mc.centralizer_unit_count(M) == _span_unit_count(M) \
                == units


def test_unit_count_dimension_matches_commutator_solve():
    # the closed form's dimension sets where the budget refuses, so it must
    # equal the dimension of the commutator kernel exactly
    rng = make_rng(91)
    cases = [rand_matrix(field, n, rng)
             for field, n in ((F2, 4), (F2, 6), (F3, 3), (F4, 3), (F9, 3))
             for _ in range(6)]
    blocks = {F2: ["x+1", "x+1", "x^2+1", "x^2+x+1", "x^2+x+1", "x"],
              F3: ["x", "x", "x^2", "x+1", "x^2+1"],
              F4: ["x+2", "x^2+2", "x^2+x+2", "x+3"]}
    for field, texts in blocks.items():
        D = mc.companion_block_diagonal(
            field, [mc.parse_poly(t, field) for t in texts])
        P = rand_invertible(field, D.n, rng)
        cases.append(P * D * P.invert())
    for M in cases:
        if mc.is_irreducible(M.charpoly()):
            continue
        q, d = M.field.q, len(commutator_kernel(M))
        mc.centralizer_unit_count(M, budget=q ** d)
        with pytest.raises(BudgetError):
            mc.centralizer_unit_count(M, budget=q ** d - 1)


def test_unit_count_of_a_random_20x20_matrix():
    # cyclic, of charpoly type (1,4)(16,1): 2^20 centralizer elements, which
    # a span walk under the default budget would visit one by one
    rng = make_rng(1)
    M = M_(F2, [[rng.randrange(2) for _ in range(20)] for _ in range(20)])
    assert mc.centralizer_unit_count(M) == 2 ** 3 * (2 ** 16 - 1)


def test_unit_count_budget():
    I = mc.SquareMatrix.identity(F3, 3)  # centralizer order 3^9
    with pytest.raises(BudgetError):
        mc.centralizer_unit_count(I, budget=3 ** 8)
    assert mc.centralizer_unit_count(I, budget=3 ** 9) == mc.gl_order(3, 3)


def test_is_polynomial_centralizer():
    # cyclic matrices: centralizer is exactly the polynomials in M
    rng = make_rng(89)
    for field in (F2, F3):
        for _ in range(10):
            f = mc.Polynomial(field,
                              [rng.randrange(field.q) for _ in range(3)] + [1])
            C = mc.companion(f)
            assert mc.is_polynomial_centralizer(C)
    # the nilpotent companion of x^2 is cyclic, with reducible charpoly
    N = mc.companion(mc.parse_poly("x^2", F2))
    assert mc.is_polynomial_centralizer(N)
    # scalar matrices in dimension >= 2 are not
    assert not mc.is_polynomial_centralizer(mc.SquareMatrix.identity(F2, 2))
    assert not mc.is_polynomial_centralizer(mc.SquareMatrix.zero(F3, 3))


def test_is_polynomial_centralizer_against_enumeration():
    # oracle: the commuting matrices found by scanning the whole space,
    # against {f(M) : deg f < n}
    rng = make_rng(97)
    cases = [M for field in (F2, F3) for M in all_matrices(field, 2)]
    cases += [rand_matrix(F2, 3, rng) for _ in range(12)]
    cases += [mc.SquareMatrix.identity(F2, 3),
              mc.SquareMatrix.diagonal(F2, [0, 0, 1])]
    for M in cases:
        field, n = M.field, M.n
        commuting = set(_enumerate_commuting(M))
        polys = {evaluate_poly(mc.Polynomial(field, list(cs)), M)
                 for cs in itertools.product(range(field.q), repeat=n)}
        assert mc.is_polynomial_centralizer(M) == (commuting == polys)


def test_is_polynomial_centralizer_solves_no_commutator_system(monkeypatch):
    # the oracle compares the commutator kernel's dimension with deg minpoly;
    # the function itself must answer without that kernel
    rng = make_rng(101)
    cases = [rand_matrix(field, n, rng)
             for field, n in ((F2, 4), (F3, 3), (F4, 3), (F9, 3))
             for _ in range(6)]
    blocks = {F2: ["x+1", "x+1", "x^2+x+1"], F3: ["x", "x", "x^2+1"],
              F4: ["x+2", "x^2+x+2", "x^2+x+2"], F9: ["x+2", "x+2", "x+5"]}
    for field, texts in blocks.items():  # repeated blocks: not cyclic
        D = mc.companion_block_diagonal(
            field, [mc.parse_poly(t, field) for t in texts])
        P = rand_invertible(field, D.n, rng)
        cases.append(P * D * P.invert())
    rng = make_rng(1)
    cases.append(
        M_(F2, [[rng.randrange(2) for _ in range(20)] for _ in range(20)]))
    expected = [len(commutator_kernel(M)) == M.minpoly().degree
                for M in cases]
    assert expected[-1] and expected[-5:-1] == [False] * 4

    def no_solve(M):
        raise AssertionError("commutator system solved")
    monkeypatch.setattr(centralizer_module, "centralizer", no_solve)
    assert [mc.is_polynomial_centralizer(M) for M in cases] == expected


def test_gaussian_binomial_values():
    # subspace counts, small cases countable by hand
    assert gaussian_binomial(1, 0, 2) == 1
    assert gaussian_binomial(1, 1, 2) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(2, 1, 3) == 4
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    for n in range(5):
        for r in range(n + 1):
            assert gaussian_binomial(n, r, 3) == \
                gaussian_binomial(n, n - r, 3)
    assert gaussian_binomial(4, 0, 5) == 1
    # out-of-range dimensions count zero subspaces
    assert gaussian_binomial(2, 3, 2) == 0
    assert gaussian_binomial(2, -1, 2) == 0


def test_invariant_subspaces_of_zero_matrix_count_all_subspaces():
    # only nontrivial proper subspaces are listed; everything is invariant
    # under the zero matrix
    Z = mc.SquareMatrix.zero(F2, 3)
    subs = invariant_subspaces(Z)
    by_dim = {}
    for basis in subs:
        by_dim[len(basis)] = by_dim.get(len(basis), 0) + 1
    assert by_dim == {1: gaussian_binomial(3, 1, 2),
                      2: gaussian_binomial(3, 2, 2)}
    assert len(set(subs)) == len(subs)


def test_invariant_subspaces_empty_iff_charpoly_irreducible():
    for field, text in ((F2, "x^2+x+1"), (F3, "x^2+1"), (F2, "x^3+x+1")):
        C = mc.companion(mc.parse_poly(text, field))
        assert invariant_subspaces(C) == []
    # exhaustive equivalence over all 2x2 matrices
    for field in (F2, F3):
        for M in all_matrices(field, 2):
            empty = not invariant_subspaces(M)
            assert empty == mc.is_irreducible(M.charpoly())


def test_invariant_lines_of_diagonal():
    # diagonal(0, 1) over GF(2): the two eigenvector lines are invariant,
    # the line through (1, 1) is not
    D = mc.SquareMatrix.diagonal(F2, [0, 1])
    subs = invariant_subspaces(D)
    assert sorted(subs) == [((0, 1),), ((1, 0),)]


def test_invariant_subspaces_are_invariant():
    rng = make_rng(97)
    for field, n in ((F2, 3), (F3, 2), (F2, 4)):
        for _ in range(6):
            M = rand_matrix(field, n, rng)
            for basis in invariant_subspaces(M):
                if not basis:
                    continue
                rows = [list(v) for v in basis]
                rref, pivots = row_echelon(field, rows)
                for v in basis:
                    image = list(mat_vec(M, v))
                    # reduce the image against the subspace rows
                    for r, p in enumerate(pivots):
                        c = image[p]
                        if c:
                            for t in range(n):
                                image[t] = field.sub(
                                    image[t], field.mul(c, rref[r][t]))
                    assert not any(image)


def test_invariant_subspace_lattice_of_jordan_block():
    # companion of x^2 over GF(2): exactly one proper nontrivial subspace,
    # the kernel
    N = mc.companion(mc.parse_poly("x^2", F2))
    subs = invariant_subspaces(N)
    assert len(subs) == 1 and len(subs[0]) == 1
    assert mat_vec(N, subs[0][0]) == (0, 0)


def test_invariant_subspaces_dimension_cap_and_budget():
    Z = mc.SquareMatrix.zero(F2, 3)
    only_lines = invariant_subspaces(Z, dimension_cap=1)
    assert sorted(len(b) for b in only_lines) == [1] * 7
    with pytest.raises(BudgetError):
        invariant_subspaces(mc.SquareMatrix.zero(F3, 4), max_subspaces=10)


def test_centralizer_dimension_law():
    # dimension >= n always, equality exactly when minpoly = charpoly
    rng = make_rng(131)
    for field, n in ((F2, 2), (F2, 3), (F3, 2), (F3, 3), (F4, 2)):
        for _ in range(12):
            M = rand_matrix(field, n, rng)
            desc = mc.centralizer(M)
            assert desc.dimension >= n
            assert (desc.dimension == n) == (M.minpoly() == M.charpoly())


def test_centralizer_span_is_field_when_charpoly_irreducible():
    # every nonzero combination of the basis is invertible, and the units
    # are exactly order - 1
    import itertools
    rng = make_rng(137)
    seen = 0
    while seen < 6:
        field, n = (F2, 3) if seen % 2 else (F3, 2)
        M = rand_matrix(field, n, rng)
        if not mc.is_irreducible(M.charpoly()):
            continue
        seen += 1
        desc = mc.centralizer(M)
        assert desc.order == field.q ** n
        for coeffs in itertools.product(range(field.q),
                                        repeat=desc.dimension):
            X = mc.SquareMatrix.zero(field, n)
            for c, B in zip(coeffs, desc.basis):
                X = X + mc.SquareMatrix.scalar(field, n, c) * B
            if any(coeffs):
                assert X.det() != 0
        assert mc.centralizer_unit_count(M) == desc.order - 1


def test_rank_kernel_and_nullspace():
    rng = make_rng(29)
    for field, n in ((F2, 3), (F3, 3), (F4, 2), (F2, 5)):
        for _ in range(15):
            A = rand_matrix(field, n, rng)
            rows = [A.flat_indices[i * n:(i + 1) * n] for i in range(n)]
            rank = len(row_echelon(field, rows)[1])
            kernel = nullspace(field, rows, n)
            assert rank + len(kernel) == n
            assert (rank == n) == (A.det() != 0)
            for v in kernel:
                assert mat_vec(A, v) == (0,) * n
            # kernel vectors are linearly independent
            rows, pivots = row_echelon(field, [list(v) for v in kernel])
            live = [r for r in rows if any(r)]
            assert len(live) == len(kernel)


def test_nullspace_function():
    # one relation: columns 0 and 1 sum to column 2
    rows = [[1, 1, 1], [0, 1, 1]]
    basis = nullspace(F2, rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) % 2 == 0
