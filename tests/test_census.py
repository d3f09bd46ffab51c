"""Counting formulas against the brute-force census and against each other."""

import os
import random
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction
from types import SimpleNamespace

import pytest

import matrix_census as mc
from matrix_census import census as census_mod, factor
from matrix_census.errors import BudgetError
from matrix_census.poly import Polynomial
from conftest import all_matrices, charpoly_by_cofactors
from test_acceptance import GRID


F2 = mc.make_field(2)
F3 = mc.make_field(3)
F4 = mc.make_field(2, 2)
F5 = mc.make_field(5)


def f_product(u, v):
    """The partial product prod_{i=1}^{v} (1 - u^-i), exact: the rational
    form that the integer counts are checked against."""
    out = Fraction(1)
    for i in range(1, v + 1):
        out *= 1 - Fraction(1, u ** i)
    return out


def test_f_product_values():
    assert f_product(2, 0) == 1
    assert f_product(2, 1) == Fraction(1, 2)
    assert f_product(2, 2) == Fraction(3, 8)
    assert f_product(3, 1) == Fraction(2, 3)
    assert f_product(3, 2) == Fraction(2, 3) * Fraction(8, 9)


def test_gl_order_values():
    assert mc.gl_order(2, 1) == 1
    assert mc.gl_order(2, 2) == 6
    assert mc.gl_order(2, 3) == 168
    assert mc.gl_order(3, 2) == 48
    assert mc.gl_order(4, 2) == 180
    # counted directly: invertible = all nonzero rows, second row off the
    # line of the first
    assert mc.gl_order(2, 2) == (4 - 1) * (4 - 2)
    assert mc.gl_order(5, 2) == (25 - 1) * (25 - 5)
    with pytest.raises(ValueError):
        mc.gl_order(2, 0)
    with pytest.raises(ValueError):
        mc.gl_order(1, 2)


def test_gl_order_matches_enumeration():
    for field, n in ((F2, 2), (F3, 2), (F2, 3)):
        count = sum(M.det() != 0 for M in all_matrices(field, n))
        assert count == mc.gl_order(field.q, n)


def test_count_irreducible_case_values():
    assert mc.count_irreducible_case(2, 1) == 1
    assert mc.count_irreducible_case(2, 2) == 2
    assert mc.count_irreducible_case(2, 3) == 24   # (8-2)(8-4)
    assert mc.count_irreducible_case(2, 4) == 1344  # (16-2)(16-4)(16-8)
    assert mc.count_irreducible_case(3, 2) == 6    # (9-3)
    assert mc.count_irreducible_case(5, 2) == 20   # (25-5)


def test_count_with_charpoly_small_cases():
    assert mc.count_with_charpoly(mc.parse_poly("x^2", F2)) == 4
    assert mc.count_with_charpoly(mc.parse_poly("x^2+x", F2)) == 6
    assert mc.count_with_charpoly(mc.parse_poly("x^2+x+1", F2)) == 2
    assert mc.count_with_charpoly(mc.parse_poly("x^2+1", F2)) == 4
    # degree 1: a 1x1 matrix is its own story, exactly one per polynomial
    assert mc.count_with_charpoly(mc.parse_poly("x+1", F3)) == 1


def test_count_with_charpoly_agrees_with_irreducible_formula():
    for field, n in ((F2, 2), (F2, 3), (F3, 2), (F4, 2), (F2, 4)):
        for g in mc.monic_polys(field, n):
            if mc.is_irreducible(g):
                assert mc.count_with_charpoly(g) == \
                    mc.count_irreducible_case(field.q, n)


def test_counts_match_rational_forms():
    # the integer products against their rational forms, built from
    # f_product(u, v) = prod_{i=1}^{v} (1 - u^-i)
    for q, n in GRID + [(4, 3)]:
        field = mc.field_from_order(q)
        glo = mc.gl_order(q, n)
        assert glo == q ** (n * n) * f_product(q, n)
        assert mc.count_irreducible_case(q, n) * (q ** n - 1) == glo
        for g in mc.monic_polys(field, n):
            rational = Fraction(q ** (n * n - n)) * f_product(q, n)
            for f, m in mc.factorize(g).factors:
                rational /= f_product(q ** f.degree, m)
            assert mc.count_with_charpoly(g) == rational, mc.format_poly(g)


def test_count_with_charpoly_input_validation():
    with pytest.raises(ValueError):
        mc.count_with_charpoly(mc.parse_poly("2*x+1", F3))  # not monic
    with pytest.raises(ValueError):
        mc.count_with_charpoly(mc.parse_poly("1", F2))      # degree 0
    with pytest.raises(ValueError):
        mc.count_with_charpoly(Polynomial.zero(F2))


def test_census_bruteforce_gf2_n2_exact_table():
    rep = mc.census_bruteforce(F2, 2)
    table = {mc.format_poly(g): c for g, c in rep.entries.items()}
    assert table == {"x^2": 4, "x^2+x": 6, "x^2+1": 4, "x^2+x+1": 2}
    assert rep.total == 16
    assert rep.q == 2 and rep.n == 2


def test_census_bruteforce_gf3_n2():
    rep = mc.census_bruteforce(F3, 2)
    assert rep.total == 81
    assert sum(rep.entries.values()) == 81
    for g, c in rep.entries.items():
        if mc.is_irreducible(g):
            assert c == 6
    assert len(rep.entries) == 9


def test_census_bruteforce_n1():
    rep = mc.census_bruteforce(F5, 1)
    assert rep.total == 5
    assert all(c == 1 for c in rep.entries.values())
    got = sorted(mc.format_poly(g) for g in rep.entries)
    assert got == sorted(f"x+{a}" if a else "x" for a in range(5))


def test_census_entries_ordered_canonically():
    rep = mc.census_bruteforce(F3, 2)
    keys = [g.sort_key() for g in rep.entries]
    assert keys == sorted(keys)


def test_census_matches_direct_charpoly_loop():
    # independent route: det(x*I - M) by cofactor expansion per matrix,
    # which shares no code with the census's Berkowitz walk.  GF(4) adds by
    # XOR, GF(9) by Zech logarithms, and GF(2053) is a prime field of more
    # than 1024 elements
    F9 = mc.make_field(3, 2)
    F2053 = mc.make_field(2053)
    for field, n in ((F2, 2), (F3, 2), (F2, 3), (F4, 2), (F9, 2),
                     (F2053, 1)):
        direct = {}
        for M in all_matrices(field, n):
            g = charpoly_by_cofactors(M)
            direct[g] = direct.get(g, 0) + 1
        rep = mc.census_bruteforce(field, n)
        assert rep.entries == direct


def test_census_shares_krylov_vectors_per_column(monkeypatch):
    # the Krylov vectors depend only on the leading i x i block and the new
    # column above row i, so the walk computes them at most
    # sum_{i<n} q^(i^2+i) times, while each of the sum_{i<n} q^((i+1)^2)
    # leading blocks still takes its own step
    krylov_calls = steps = 0
    real_krylov, real_step = census_mod._krylov, census_mod._berkowitz_step

    def krylov(*args):
        nonlocal krylov_calls
        krylov_calls += 1
        return real_krylov(*args)

    def step(*args):
        nonlocal steps
        steps += 1
        return real_step(*args)

    monkeypatch.setattr(census_mod, "_krylov", krylov)
    monkeypatch.setattr(census_mod, "_berkowitz_step", step)
    rep = mc.census_bruteforce(F2, 4)
    assert rep.total == 2 ** 16
    assert krylov_calls <= sum(2 ** (i * i + i) for i in range(4)) == 4165
    assert steps == sum(2 ** ((i + 1) ** 2) for i in range(4)) == 66066


def test_census_threads_agree():
    base = mc.census_bruteforce(F2, 3, threads=1)
    for threads in (2, 3):
        rep = mc.census_bruteforce(F2, 3, threads=threads)
        assert rep.entries == base.entries and rep.total == base.total


def test_census_starts_no_thread(monkeypatch):
    # threads is accepted but unused: 19683 matrices, one serial walk
    def refuse(self):
        raise AssertionError("census started a thread")

    base = mc.census_bruteforce(F3, 3, threads=1)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    rep = mc.census_bruteforce(F3, 3, threads=2)
    assert rep.entries == base.entries and rep.total == base.total


def test_published_count_checks_survive_optimize():
    # assert statements vanish under -O; these checks must not
    script = textwrap.dedent("""
        import sys
        import matrix_census as mc
        from matrix_census import canonical, census, factor

        if __debug__:
            sys.exit("not running under -O")
        F2 = mc.make_field(2)
        real_tally = census._census_tally

        def lossy_tally(field, n):
            tally = real_tally(field, n)
            tally[next(iter(tally))] -= 1
            return tally

        census._census_tally = lossy_tally
        try:
            census.census_bruteforce(F2, 2)
        except RuntimeError as exc:
            print("census:", exc)
        # a degree-3 charpoly reported as the square of a quadratic
        census._factorization_type = lambda field, f: ((2, 2),)
        try:
            census.count_with_charpoly(mc.parse_poly("x^3+x+1", F2))
        except RuntimeError as exc:
            print("count:", exc)
        # a wrong |GL_1(4)| of 4 does not divide |GL_2(2)| * 2^0 = 6
        real_gl_order = census.gl_order
        census.gl_order = lambda q, n: 4 if q == 4 else real_gl_order(q, n)
        try:
            census._count_from_type(2, 2, ((2, 1),))
        except RuntimeError as exc:
            print("divide:", exc)
        census.gl_order = real_gl_order
        # a stabilizer order of 5 does not divide |GL_2(2)| = 6
        census._green = lambda q, prime_powers: (1, 5)
        try:
            census.orbit_stabilizer_report(mc.parse_matrix("0,1;1,1", F2))
        except RuntimeError as exc:
            print("orbit:", exc)
        # with mu = 1 throughout, the degree-3 necklace sum is 8 + 2 = 10
        factor._moebius = lambda d: 1
        try:
            factor.count_monic_irreducibles(F2, 3)
        except RuntimeError as exc:
            print("necklace:", exc)
        # diag(0,1) has order x^2+x, but e_0 alone has order x, so its
        # Krylov columns e_0, 0 are dependent
        f = mc.parse_poly("x^2+x", F2)
        fact = mc.factorize(f)
        real_maximal_vector = canonical._maximal_vector
        canonical._maximal_vector = lambda M, wrref, wpivots: (
            [1, 0], f, fact)
        try:
            mc.rcf(mc.SquareMatrix.diagonal(F2, [0, 1]))
        except RuntimeError as exc:
            print("rcf:", exc)
        canonical._maximal_vector = real_maximal_vector
        # a wrong block diagonal fails P^-1 M P = D
        canonical.companion_block_diagonal = (
            lambda field, blocks: mc.SquareMatrix.zero(field, 2))
        try:
            mc.rcf(mc.parse_matrix("0,1;1,1", F2))
        except RuntimeError as exc:
            print("transition:", exc)
        # x + 1 has a nonzero derivative, so it is no square over GF(2)
        try:
            factor._pth_root(F2, mc.parse_poly("x+1", F2).coeff_indices)
        except RuntimeError as exc:
            print("root:", exc)
        # x^3+x+1 reported as squarefree part of multiplicity 2
        factor._squarefree_parts = lambda field, g: [(g, 2)]
        try:
            mc.factorize(mc.parse_poly("x^3+x+1", F2))
        except RuntimeError as exc:
            print("factorize:", exc)
        cubic = mc.parse_poly("x^3+x+1", F2).coeff_indices
        try:
            factor._factorization_type(F2, cubic)
        except RuntimeError as exc:
            print("type:", exc)
        # x^3+x+1 reported as a product of quadratics
        factor._distinct_degree = lambda field, v: iter([(2, v)])
        try:
            factor._factorization_type(F2, cubic)
        except RuntimeError as exc:
            print("degree:", exc)
    """)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "census", "count", "divide", "orbit", "necklace", "rcf", "transition",
        "root", "factorize", "type", "degree"]
    assert lines[1:3] == [
        "count: factorization type ((2, 2),) does not have degree 3",
        "divide: count formula does not divide exactly: 6 / 4"]
    assert lines[5:] == [
        "rcf: cyclic pieces are not independent",
        "transition: transition identity failed",
        "root: not a p-th power",
        "factorize: factorization does not reconstruct input",
        "type: factorization type does not reconstruct input",
        "degree: distinct-degree product of degree 3 is not a product of "
        "degree-2 factors"]


def test_census_budget():
    with pytest.raises(BudgetError):
        mc.census_bruteforce(F2, 9)
    with pytest.raises(BudgetError):
        mc.census_bruteforce(F3, 2, budget=80)
    assert mc.census_bruteforce(F3, 2, budget=81).total == 81
    with pytest.raises(ValueError):
        mc.census_bruteforce(F2, 0)


def test_verify_partition():
    for field, n in ((F2, 2), (F2, 3), (F3, 2), (F4, 2), (F5, 2), (F2, 4)):
        rep = mc.verify_partition(field, n)
        assert rep.equal
        assert rep.lhs_total == rep.rhs_total == field.q ** (n * n)
        assert len(rep.entries) == field.q ** n
        assert sum(rep.entries.values()) == rep.lhs_total
        assert rep.irreducible == {g for g in rep.entries
                                   if mc.is_irreducible(g)}
        assert len(rep.irreducible) == mc.count_monic_irreducibles(field, n)


def test_partition_and_count_check_the_type_reconstructs(monkeypatch):
    # a distinct-degree split that loses its last product must not yield a
    # count, under python -O as well (see the -O test above)
    real = factor._distinct_degree
    monkeypatch.setattr(factor, "_distinct_degree",
                        lambda field, v: iter(list(real(field, v))[:-1]))
    # the type check fires before _count_from_type's degree check would
    with pytest.raises(RuntimeError, match="does not reconstruct input"):
        mc.verify_partition(F3, 2)
    with pytest.raises(RuntimeError, match="does not reconstruct input"):
        mc.count_with_charpoly(mc.parse_poly("x^3+x+1", F2))


def test_verify_partition_counts_once_per_type(monkeypatch):
    # the partition route reads factorization types: it runs no
    # equal-degree splitting, makes no generator, and evaluates the closed
    # form once per distinct type
    types = {tuple(sorted((f.degree, m) for f, m in mc.factorize(g).factors))
             for g in mc.monic_polys(F3, 4)}
    calls = {"split": 0, "rng": 0, "count": 0}

    def counted(key, real):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(factor, "_edf_split",
                        counted("split", factor._edf_split))
    monkeypatch.setattr(factor, "random", SimpleNamespace(
        Random=counted("rng", random.Random)))
    monkeypatch.setattr(census_mod, "_count_from_type",
                        counted("count", census_mod._count_from_type))
    assert mc.verify_partition(F3, 4).equal
    assert calls == {"split": 0, "rng": 0, "count": len(types)}
    # the counters see factorize's splitter: x^2+1 = (x+2)(x+3) over GF(5)
    mc.factorize(mc.parse_poly("x^2+1", F5))
    assert calls["split"] >= 1 and calls["rng"] == 1


def test_verify_partition_budget():
    with pytest.raises(BudgetError):
        mc.verify_partition(F2, 40)


def test_partition_matches_census_per_polynomial(census_cache):
    # (GF(2), 4) shares Krylov vectors three columns deep, and (GF(4), 3)
    # shares them under XOR table arithmetic
    for field, n in ((F2, 2), (F3, 2), (F2, 3), (F2, 4), (F4, 3)):
        census = census_cache(field.q, n)
        partition = mc.verify_partition(field, n)
        assert census.entries == partition.entries


def test_orbit_stabilizer_report_known():
    M = mc.companion(mc.parse_poly("x^2+x+1", F2))
    rep = mc.orbit_stabilizer_report(M)
    assert rep.gl_order == 6
    assert rep.stabilizer_order == 3
    assert rep.orbit_size == 2
    assert rep.formula_count == 2
    assert rep.consistent
    M = mc.companion(mc.parse_poly("x^3+x+1", F2))
    rep = mc.orbit_stabilizer_report(M)
    assert rep.gl_order == 168
    assert rep.stabilizer_order == 7
    assert rep.orbit_size == 24
    assert rep.formula_count == 24
    assert rep.consistent


def test_orbit_size_matches_explicit_conjugation_orbit():
    # walk the actual conjugation orbit over all of GL for a small case
    M = mc.companion(mc.parse_poly("x^2+1", F3))
    seen = set()
    for P in all_matrices(F3, 2):
        if P.det() != 0:
            seen.add(P.invert() * M * P)
    rep = mc.orbit_stabilizer_report(M)
    assert len(seen) == rep.orbit_size == 6


def test_orbit_stabilizer_requires_irreducible():
    with pytest.raises(ValueError):
        mc.orbit_stabilizer_report(mc.SquareMatrix.identity(F2, 2))


def test_result_records_are_immutable():
    M = mc.companion(mc.parse_poly("x^2+x+1", F2))
    records = [mc.census_bruteforce(F2, 2), mc.verify_partition(F2, 2),
               mc.orbit_stabilizer_report(M), mc.rcf(M), mc.centralizer(M),
               mc.factorize(M.charpoly())]
    assert len({type(r) for r in records}) == 6
    for rec in records:
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)


def _slow_count(field, g):
    return sum(M.charpoly() == g for M in all_matrices(field, g.degree))


def test_count_with_charpoly_reducible_cross_check():
    # a handful of reducible polynomials, counted the hard way
    cases = [
        (F2, "x^3+x^2+x"),
        (F2, "x^3"),
        (F3, "x^2+2*x"),
        (F3, "x^2"),
        (F4, "x^2+2*x"),
    ]
    for field, text in cases:
        g = mc.parse_poly(text, field)
        assert mc.count_with_charpoly(g) == _slow_count(field, g)
