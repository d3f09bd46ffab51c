"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS or FAIL verdict line.  Every comparison is exact; there are no
tolerances anywhere."""

import json

import matrix_census as mc
import matrix_census.cli as cli
from matrix_census.poly import Polynomial

from conftest import (all_matrices, make_rng, rand_invertible, rand_matrix,
                      rand_irreducible_charpoly_matrix)


GRID = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]


def _verdict(capsys, num, desc, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {num}] FAIL {desc}")
        raise
    with capsys.disabled():
        print(f"[criterion {num}] PASS {desc}")


def test_criterion_1_irreducible_count_exact(capsys, census_cache):
    def check():
        for q, n in GRID:
            field = mc.field_from_order(q)
            census = census_cache(q, n)
            expected = 1
            for i in range(1, n):
                expected *= q ** n - q ** i
            irreducibles = [g for g in mc.monic_polys(field, n)
                            if mc.is_irreducible(g)]
            assert irreducibles
            for g in irreducibles:
                assert census.entries.get(g, 0) == expected, (q, n,
                                                              mc.format_poly(g))
            code = cli.run(["verify", "--q", str(q), "--n", str(n),
                            "--mode", "both", "--repro"])
            out = capsys.readouterr().out
            assert code == 0
            assert json.loads(out)["result"]["pass"] is True
    _verdict(capsys, 1, "census equals the irreducible-case product on "
             "every monic irreducible over the full grid", check)


def test_criterion_2_general_formula_exact(capsys, census_cache):
    def check():
        for q, n in GRID:
            field = mc.field_from_order(q)
            census = census_cache(q, n)
            for g in mc.monic_polys(field, n):
                assert census.entries.get(g, 0) == mc.count_with_charpoly(g), \
                    (q, n, mc.format_poly(g))
    _verdict(capsys, 2, "census equals the closed-form count on every "
             "monic polynomial over the full grid", check)


def test_criterion_3_partition_identity(capsys):
    def check():
        for q in (2, 3, 4, 5, 7, 8, 9):
            field = mc.field_from_order(q)
            for n in range(1, 6):
                rep = mc.verify_partition(field, n)
                assert rep.equal, (q, n)
                assert rep.lhs_total == q ** (n * n)
    _verdict(capsys, 3, "counts over all monic polynomials sum to q^(n^2) "
             "for q in {2,3,4,5,7,8,9}, n up to 5", check)


def test_criterion_4_orbit_stabilizer_consistency(capsys):
    def check():
        rng = make_rng(20260822)
        combos = [(q, n) for q in (2, 3, 4, 5, 7, 8, 9)
                  for n in range(2, 7) if q ** n <= 81]
        for i in range(100):
            q, n = combos[i % len(combos)]
            field = mc.field_from_order(q)
            M = rand_irreducible_charpoly_matrix(field, n, rng)
            rep = mc.orbit_stabilizer_report(M)
            assert rep.consistent
            assert rep.stabilizer_order == q ** n - 1
            assert rep.orbit_size * (q ** n - 1) == rep.gl_order
            assert rep.orbit_size == mc.count_irreducible_case(q, n)
            assert rep.formula_count == rep.orbit_size
    _verdict(capsys, 4, "orbit-stabilizer reports consistent on 100 random "
             "matrices with irreducible charpoly", check)


def test_criterion_5_polynomial_centralizer(capsys):
    def check():
        rng = make_rng(5150)
        combos = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]
        for i in range(60):
            q, n = combos[i % len(combos)]
            field = mc.field_from_order(q)
            M = rand_irreducible_charpoly_matrix(field, n, rng)
            assert mc.is_polynomial_centralizer(M)
            assert mc.centralizer(M).order == q ** n
        # the converse fails: this cyclic nilpotent matrix has a polynomial
        # centralizer with visibly reducible charpoly
        F2 = mc.make_field(2)
        N = mc.companion(mc.parse_poly("x^2", F2))
        assert mc.is_polynomial_centralizer(N)
        fact = mc.factorize(N.charpoly())
        assert not mc.is_irreducible(N.charpoly())
        assert fact.factors == ((Polynomial.x(F2), 2),)
    _verdict(capsys, 5, "irreducible charpoly forces a polynomial "
             "centralizer of order q^n; the companion of x^2 over GF(2) is "
             "a reducible-charpoly counterexample to the converse", check)


def test_criterion_6_rcf_properties(capsys):
    def check():
        rng = make_rng(606)
        sizes = [(q, n) for q in (2, 3, 4) for n in range(2, 6)]
        for i in range(500):
            q, n = sizes[i % len(sizes)]
            field = mc.field_from_order(q)
            M = rand_matrix(field, n, rng)
            P = rand_invertible(field, n, rng)
            B = P.invert() * M * P
            form_m = mc.rcf(M)
            form_b = mc.rcf(B)
            assert form_b.blocks == form_m.blocks
            prod = Polynomial.one(field)
            for blk in form_m.blocks:
                prod = prod * blk
            assert prod == M.charpoly()
            D = mc.companion_block_diagonal(field, form_m.blocks)
            assert M * form_m.transition == form_m.transition * D
        # exhaustive: irreducible charpoly means a single companion block
        F2 = mc.make_field(2)
        for n in (2, 3):
            for M in all_matrices(F2, n):
                g = M.charpoly()
                if mc.is_irreducible(g):
                    assert mc.rcf(M).blocks == (g,)
    _verdict(capsys, 6, "canonical blocks are conjugation-invariant, "
             "multiply to the charpoly, and the transition matrix verifies; "
             "irreducible charpoly gives the single companion block "
             "exhaustively over GF(2)", check)


def test_criterion_7_factorization_soundness(capsys):
    def check():
        rng = make_rng(707)
        fields = [mc.field_from_order(q) for q in (2, 3, 4, 5, 9)]
        for i in range(1000):
            field = fields[i % len(fields)]
            degree = rng.randrange(1, 9)
            coeffs = [rng.randrange(field.q) for _ in range(degree)]
            lead = rng.randrange(1, field.q)
            f = Polynomial(field, coeffs + [lead])
            fact = mc.factorize(f)
            assert fact.expand(field) == f
            for g, m in fact.factors:
                assert m >= 1 and g.is_monic
                assert mc.is_irreducible(g)
        for q in (2, 3, 5):
            field = mc.field_from_order(q)
            for n in range(1, 9):
                formula = mc.count_monic_irreducibles(field, n)
                if q ** n <= 6561:
                    scanned = sum(1 for g in mc.monic_polys(field, n)
                                  if mc.is_irreducible(g))
                    assert scanned == formula, (q, n)
                total = sum(d * mc.count_monic_irreducibles(field, d)
                            for d in range(1, n + 1) if n % d == 0)
                assert total == q ** n, (q, n)
    _verdict(capsys, 7, "1000 random factorizations reconstruct with "
             "irreducible factors; necklace counts match exhaustive scans "
             "and the divisor-sum identity for n up to 8", check)


def test_criterion_8_deterministic_envelopes(capsys):
    def check():
        invocations = [
            ["count", "--q", "2", "--n", "2", "--poly", "x^2+x+1",
             "--repro"],
            ["count", "--q", "4", "--n", "2", "--poly", "x^2+x", "--seed",
             "5", "--repro"],
            ["count", "--q", "3", "--n", "3", "--repro"],
            ["verify", "--q", "2", "--n", "2", "--mode", "both", "--seed",
             "1", "--threads", "2", "--repro"],
            ["verify", "--q", "3", "--n", "2", "--mode", "formula",
             "--repro"],
            ["rcf", "--q", "3", "--matrix", "1,0,1;2,1,1;1,1,1", "--repro"],
            ["centralizer", "--q", "2", "--matrix", "0,1;1,1", "--repro"],
            ["factor", "--q", "5", "--poly", "x^4+x^2+3", "--seed", "9",
             "--repro"],
            ["orbit", "--q", "2", "--matrix", "0,1,0;0,0,1;1,1,0",
             "--repro"],
        ]
        transcripts = []
        for _ in range(2):
            lines = []
            for argv in invocations:
                code = cli.run(list(argv))
                captured = capsys.readouterr()
                assert captured.err == ""
                assert code == 0
                lines.append(captured.out)
            transcripts.append("".join(lines))
        assert transcripts[0] == transcripts[1]
        assert all(json.loads(line)["timing_ms"] == 0
                   for line in transcripts[0].splitlines())
    _verdict(capsys, 8, "two identically seeded runs of every command "
             "produce byte-identical envelopes", check)
