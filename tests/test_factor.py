"""Factorization into monic irreducibles, irreducibility testing, and the
necklace count of monic irreducibles, cross-checked by exhaustive scans."""

import pytest

import matrix_census as mc
from matrix_census import factor
from matrix_census.poly import Polynomial, _divmod, _gcd, _pow, _sub

from conftest import brute_irreducible, make_rng, rand_poly


F2 = mc.make_field(2)
F3 = mc.make_field(3)
F4 = mc.make_field(2, 2)
F5 = mc.make_field(5)
F9 = mc.make_field(3, 2)
F31 = mc.make_field(31)
F101 = mc.make_field(101)
F256 = mc.make_field(2, 8)


def P(field, *coeffs):
    return Polynomial(field, list(coeffs))


def test_is_irreducible_matches_trial_division():
    for field, dmax in ((F2, 6), (F3, 4), (F4, 3), (F5, 4), (F9, 3)):
        for d in range(1, dmax + 1):
            for f in mc.monic_polys(field, d):
                assert mc.is_irreducible(f) == brute_irreducible(f)


def test_is_irreducible_edge_cases():
    assert mc.is_irreducible(P(F2, 0, 1))            # x
    assert mc.is_irreducible(P(F3, 2, 2))            # non-monic degree 1
    assert not mc.is_irreducible(P(F3, 2))           # constants
    with pytest.raises(ValueError):
        mc.is_irreducible(Polynomial.zero(F3))


def test_char2_square_splits():
    f = mc.parse_poly("x^4+x^2+1", F2)  # (x^2+x+1)^2
    fact = mc.factorize(f)
    assert fact.leading == 1
    assert [(mc.format_poly(g), m) for g, m in fact.factors] == \
        [("x^2+x+1", 2)]
    assert fact.expand(F2) == f


def test_pth_power_multiplicities():
    g = P(F3, 2, 1)  # x + 2
    f = g * g * g    # derivative vanishes, cube root path
    fact = mc.factorize(f)
    assert fact.factors == ((g, 3),)
    h = P(F2, 1, 1, 1)
    f = (h * h) * P(F2, 0, 1)  # (x^2+x+1)^2 * x
    fact = mc.factorize(f)
    assert dict(fact.factors) == {h: 2, P(F2, 0, 1): 1}


def test_factorize_reconstructs_random_inputs():
    rng = make_rng(101)
    for field in (F2, F3, F4, F5, F9):
        for _ in range(40):
            f = rand_poly(field, rng.randrange(1, 8), rng, monic=False)
            fact = mc.factorize(f)
            assert fact.expand(field) == f
            assert fact.leading == f.leading
            for g, m in fact.factors:
                assert g.is_monic and m >= 1
                assert mc.is_irreducible(g)
            # multiplicity is the exact valuation
            for g, m in fact.factors:
                h, count = f.monic(), 0
                while (h % g).is_zero:
                    h = h // g
                    count += 1
                assert count == m


def test_factorize_products_of_known_factors():
    rng = make_rng(103)
    for field in (F2, F3, F9):
        irreducibles = [g for g in mc.monic_polys(field, 1)]
        irreducibles += [g for g in mc.monic_polys(field, 2)
                         if mc.is_irreducible(g)]
        for _ in range(30):
            chosen = {}
            f = Polynomial.one(field)
            for _ in range(rng.randrange(1, 4)):
                g = rng.choice(irreducibles)
                m = rng.randrange(1, 3)
                chosen[g] = chosen.get(g, 0) + m
                f = f * g ** m
            fact = mc.factorize(f)
            assert dict(fact.factors) == chosen


def test_factorize_canonical_order_and_seed_independence():
    rng = make_rng(107)
    for field in (F2, F5, F9):
        for _ in range(15):
            f = rand_poly(field, rng.randrange(2, 8), rng)
            base = mc.factorize(f, seed=0)
            keys = [g.sort_key() for g, _ in base.factors]
            assert keys == sorted(keys)
            for seed in (1, 999, 2 ** 61):
                assert mc.factorize(f, seed=seed) == base


def test_factorize_degree_zero_and_errors():
    fact = mc.factorize(P(F3, 2))
    assert fact.factors == () and fact.leading == 2
    assert fact.expand(F3) == P(F3, 2)
    with pytest.raises(ValueError):
        mc.factorize(Polynomial.zero(F3))


def test_factorization_degree_property():
    f = mc.parse_poly("x^4+x^2+1", F2)
    assert mc.factorize(f).degree == 4
    assert mc.factorize(P(F3, 2)).degree == 0


def test_count_monic_irreducibles_frozen_values():
    # counted directly: the irreducibles over GF(2) up to degree 4 are
    # x, x+1; x^2+x+1; x^3+x+1, x^3+x^2+1; and three quartics
    assert mc.count_monic_irreducibles(F2, 1) == 2
    assert mc.count_monic_irreducibles(F2, 2) == 1
    assert mc.count_monic_irreducibles(F2, 3) == 2
    assert mc.count_monic_irreducibles(F2, 4) == 3
    assert mc.count_monic_irreducibles(F3, 1) == 3
    assert mc.count_monic_irreducibles(F3, 2) == 3   # (9 - 3) / 2
    assert mc.count_monic_irreducibles(F5, 2) == 10  # (25 - 5) / 2
    assert mc.count_monic_irreducibles(F4, 3) == 20  # (64 - 4) / 3
    with pytest.raises(ValueError):
        mc.count_monic_irreducibles(F2, 0)


def test_count_matches_exhaustive_scan():
    # over GF(2), all 2^d monic polynomials of each degree d <= 12 go through
    # the kernel's packed path
    for field, dmax in ((F2, 12), (F3, 4), (F4, 3), (F5, 3)):
        for d in range(1, dmax + 1):
            scanned = sum(1 for f in mc.monic_polys(field, d)
                          if mc.is_irreducible(f))
            assert scanned == mc.count_monic_irreducibles(field, d)


def test_count_satisfies_divisor_sum_identity():
    # every element of GF(q^n) has a minimal polynomial of degree dividing n,
    # so sum over d | n of d * (number of degree-d irreducibles) = q^n
    for field in (F2, F3, F5, F9):
        for n in range(1, 9):
            total = sum(d * mc.count_monic_irreducibles(field, d)
                        for d in range(1, n + 1) if n % d == 0)
            assert total == field.q ** n


def test_factorize_and_irreducibility_use_no_polynomial_arithmetic(monkeypatch):
    rng = make_rng(29)
    inputs = []
    for field in (F2, F3, F4, F9):
        for _ in range(10):
            g = rand_poly(field, rng.randrange(1, 5), rng, monic=False)
            h = rand_poly(field, rng.randrange(0, 4), rng)
            inputs.append(g * h * h)  # often not squarefree

    def refuse(*args):
        raise AssertionError("Polynomial arithmetic inside the factorizer")

    for name in ("__mul__", "__divmod__", "__pow__", "gcd"):
        monkeypatch.setattr(Polynomial, name, refuse)
    for g in inputs:
        fact = mc.factorize(g)
        assert fact.degree == g.degree
        assert mc.is_irreducible(g) == (fact.factors == ((g.monic(), 1),))


def _powmod_distinct_degree(field, v):
    """The distinct-degree loop before Berlekamp's Q: one powmod
    x^(q^d) mod v per degree, with h reduced modulo v after each factor."""
    q = field.q
    x = h = [0, 1]
    d = 1
    while 2 * d < len(v):
        h = _pow(field, h, q, v)
        g = _gcd(field, v, _sub(field, h, x))
        if len(g) > 1:
            yield d, g
            v = _divmod(field, v, g)[0]
            h = _divmod(field, h, v)[1]
        d += 1
    if len(v) > 1:
        yield len(v) - 1, v


def _irreducible(field, degree, rng):
    """A seeded monic irreducible, found by the powmod reference."""
    while True:
        f = rand_poly(field, degree, rng).coeff_indices
        if next(_powmod_distinct_degree(field, f))[0] == degree:
            return f


def test_distinct_degree_matches_the_powmod_loop():
    rng = make_rng(211)
    for field in (F3, F4, F5, F9, F31, F101, F256):
        squarefree, other = [], []
        for _ in range(6):
            f = rand_poly(field, rng.randrange(1, 41), rng)
            squarefree_f = f.gcd(f.derivative()).degree == 0
            (squarefree if squarefree_f else other).append(f.coeff_indices)
        # small factors first: the loop loses them early and stops early
        for _ in range(2):
            f = Polynomial.one(field)
            for _ in range(rng.randrange(2, 6)):
                f = f * rand_poly(field, rng.randrange(1, 4), rng)
            f = f * rand_poly(field, rng.randrange(1, 25), rng)
            if f.gcd(f.derivative()).degree == 0:
                squarefree.append(f.coeff_indices)
            else:
                other.append(f.coeff_indices)
        # an irreducible runs every step
        squarefree.append(_irreducible(field, rng.randrange(8, 17), rng))
        # squares: only the first yield counts, as in Ben-Or's test
        for _ in range(3):
            g = rand_poly(field, rng.randrange(1, 16), rng)
            h = rand_poly(field, rng.randrange(1, 12), rng)
            other.append((g * h * h).coeff_indices)
        for f in squarefree:
            assert list(factor._distinct_degree(field, f)) == \
                list(_powmod_distinct_degree(field, f))
        for f in other:
            assert next(factor._distinct_degree(field, f)) == \
                next(_powmod_distinct_degree(field, f))


def test_distinct_degree_powmods_once_past_gf2(monkeypatch):
    # over q > 2 only x^q is a powmod, every later step is a product with
    # Berlekamp's Q; GF(2) keeps its packed square at each of the 15 steps
    seen = []

    def counted(*args):
        seen.append(args)
        return _pow(*args)

    monkeypatch.setattr(factor, "_pow", counted)
    rng = make_rng(223)
    for field, calls in ((F101, 1), (F2, 15)):
        f = _irreducible(field, 30, rng)
        seen.clear()
        assert list(factor._distinct_degree(field, f)) == [(30, f)]
        assert len(seen) == calls


def _type_of(fact):
    return tuple(sorted((f.degree, m) for f, m in fact.factors))


def test_factorization_type_matches_factorize():
    F8 = mc.make_field(2, 3)
    for field, dmax in ((F2, 10), (F3, 6), (F4, 5), (F5, 4), (F8, 3), (F9, 3)):
        for d in range(1, dmax + 1):
            for f in mc.monic_polys(field, d):
                assert factor._factorization_type(field, f.coeff_indices) == \
                    _type_of(mc.factorize(f)), mc.format_poly(f)
    # seeded products of distinct irreducibles in a fixed shape: two factors
    # of one degree, squares, and cubes, which over GF(9) are p-th powers
    rng = make_rng(227)
    for field, shape in (
            (F101, ((8, 1), (4, 1), (4, 1), (3, 2), (2, 3), (1, 2))),
            (F9, ((4, 2), (3, 1), (3, 1), (2, 3), (1, 3), (1, 1)))):
        for _ in range(2):
            f = Polynomial.one(field)
            chosen = set()
            for d, m in shape:
                g = _irreducible(field, d, rng)
                while g in chosen:
                    g = _irreducible(field, d, rng)
                chosen.add(g)
                f = f * Polynomial(field, list(g)) ** m
            assert f.degree == {F101: 30, F9: 24}[field]
            assert factor._factorization_type(field, f.coeff_indices) == \
                _type_of(mc.factorize(f)) == tuple(sorted(shape))
