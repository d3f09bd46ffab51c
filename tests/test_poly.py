"""Polynomial ring operations, parsing, and formatting."""

import itertools

import pytest

import matrix_census as mc
from matrix_census.poly import Polynomial, _divmod, _gcd, _mul, _pow

from conftest import make_rng, rand_poly


F2 = mc.make_field(2)
F3 = mc.make_field(3)
F4 = mc.make_field(2, 2)
F9 = mc.make_field(3, 2)


def P(field, *coeffs):
    """Polynomial from ascending coefficient indices."""
    return Polynomial(field, list(coeffs))


def test_construction_strips_trailing_zeros():
    f = P(F3, 1, 2, 0, 0)
    assert f.coeff_indices == (1, 2)
    assert f.degree == 1
    assert P(F3).is_zero and P(F3, 0, 0).is_zero
    assert P(F3).degree == mc.NEG_INF


def test_construction_accepts_elements_and_reduces_ints():
    # elements are indices
    f = Polynomial(F3, [2, 4])  # 4 reduces to 1 mod 3
    assert f.coeff_indices == (2, 1)
    with pytest.raises(ValueError):
        Polynomial(F9, [9])  # extension fields take indices, not residues
    g = Polynomial(F9, [8])
    assert g.coeff_indices == (8,)
    with pytest.raises(ValueError):
        Polynomial(F3, ["2"])


def test_classmethod_constructors():
    assert Polynomial.zero(F3).is_zero
    assert Polynomial.one(F3).coeff_indices == (1,)
    assert Polynomial.x(F3).coeff_indices == (0, 1)


def test_degree_and_monic_flags():
    assert P(F3, 2).degree == 0
    assert P(F3, 0, 0, 1).degree == 2
    assert P(F3, 0, 0, 1).is_monic
    assert not P(F3, 0, 0, 2).is_monic
    assert not P(F3).is_monic
    assert P(F3, 1, 2).leading == 2
    assert P(F9, 1, 7).leading == 7


def test_ring_axioms_random():
    rng = make_rng(7)
    for field in (F2, F3, F9):
        for _ in range(60):
            f = rand_poly(field, rng.randrange(0, 5), rng, monic=False)
            g = rand_poly(field, rng.randrange(0, 5), rng, monic=False)
            h = rand_poly(field, rng.randrange(0, 5), rng, monic=False)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f - f == Polynomial.zero(field)
            assert f + (-f) == Polynomial.zero(field)
            assert f * Polynomial.one(field) == f


def test_multiplication_against_convolution():
    rng = make_rng(11)
    for _ in range(40):
        f = rand_poly(F3, rng.randrange(0, 5), rng, monic=False)
        g = rand_poly(F3, rng.randrange(0, 5), rng, monic=False)
        fa, ga = f.coeff_indices, g.coeff_indices
        out = [0] * (len(fa) + len(ga))
        for i, a in enumerate(fa):
            for j, b in enumerate(ga):
                out[i + j] = (out[i + j] + a * b) % 3
        assert (f * g).coeff_indices == Polynomial(F3, out).coeff_indices


def test_divmod_invariant():
    rng = make_rng(13)
    for field in (F2, F3, F4):
        for _ in range(80):
            f = rand_poly(field, rng.randrange(0, 7), rng, monic=False)
            g = rand_poly(field, rng.randrange(1, 4), rng, monic=False)
            quo, rem = divmod(f, g)
            assert quo * g + rem == f
            assert rem.is_zero or rem.degree < g.degree
            assert f // g == quo and f % g == rem


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P(F2, 1, 1), Polynomial.zero(F2))


def test_gcd_known_value():
    # x^2+x = x(x+1) and x^2+1 = (x+1)^2 over GF(2) share exactly x+1.
    a = P(F2, 0, 1, 1)
    b = P(F2, 1, 0, 1)
    assert a.gcd(b) == P(F2, 1, 1)


def test_gcd_properties():
    rng = make_rng(17)
    for field in (F2, F3, F9):
        for _ in range(50):
            d = rand_poly(field, rng.randrange(0, 3), rng)
            f = d * rand_poly(field, rng.randrange(0, 4), rng, monic=False)
            g = d * rand_poly(field, rng.randrange(0, 4), rng, monic=False)
            got = f.gcd(g)
            if f.is_zero and g.is_zero:
                assert got.is_zero
                continue
            assert got.is_monic
            assert (f % got).is_zero and (g % got).is_zero
            assert (got % d).is_zero  # common divisors divide the gcd
    assert Polynomial.zero(F2).gcd(Polynomial.zero(F2)).is_zero
    assert P(F3, 0, 2).gcd(Polynomial.zero(F3)) == P(F3, 0, 1)


def test_pow_plain_and_modular():
    f = P(F3, 1, 1)
    assert f ** 0 == Polynomial.one(F3)
    assert f ** 3 == f * f * f
    m = P(F3, 1, 0, 1)
    assert pow(f, 5, m) == (f ** 5) % m
    # x^(q^n) = x mod f for irreducible f (here x^2+1 over GF(3), q^n = 9)
    x = Polynomial.x(F3)
    assert pow(x, 9, m) == x % m
    assert pow(f, 0, m) == Polynomial.one(F3)
    # every residue modulo a unit is 0, e = 0 included, as pow(3, 0, 1) == 0
    unit = P(F3, 2)
    for e in (0, 1, 2):
        assert pow(x, e, unit).is_zero
    g = P(F3, 2, 0, 0, 1)  # x^3 + 2 = 2x + 2 mod x^2 + 1
    assert pow(g, 1, m) == P(F3, 2, 2)
    with pytest.raises(ValueError):
        f ** -1
    with pytest.raises(ZeroDivisionError):
        pow(f, 2, Polynomial.zero(F3))


def test_evaluation_horner_matches_direct():
    rng = make_rng(19)
    for field in (F3, F9):
        for _ in range(30):
            f = rand_poly(field, rng.randrange(0, 5), rng, monic=False)
            g = rand_poly(field, rng.randrange(0, 5), rng, monic=False)
            a = rng.randrange(field.q)
            direct = 0
            for i, c in enumerate(f.coeff_indices):
                direct = field.add(direct, field.mul(c, field.pow(a, i)))
            assert f(a) == direct
            # evaluation is a ring homomorphism
            assert (f + g)(a) == field.add(f(a), g(a))
            assert (f * g)(a) == field.mul(f(a), g(a))
    with pytest.raises(TypeError):
        P(F3, 1, 1)(None)  # evaluation points are element indices
    with pytest.raises(ValueError):
        P(F3, 1, 1)(3)


def test_monic():
    f = P(F3, 1, 2)
    assert f.monic() == P(F3, 2, 1)
    assert f.monic().is_monic
    # zero passes through so gcd(0, 0) can stay 0
    assert Polynomial.zero(F3).monic().is_zero


def test_derivative_rules():
    rng = make_rng(23)
    for field in (F2, F3, F9):
        for _ in range(40):
            f = rand_poly(field, rng.randrange(0, 6), rng, monic=False)
            g = rand_poly(field, rng.randrange(0, 6), rng, monic=False)
            assert (f * g).derivative() == \
                f.derivative() * g + f * g.derivative()
            assert (f + g).derivative() == f.derivative() + g.derivative()
    # p-th powers have zero derivative
    assert (P(F2, 1, 1) * P(F2, 1, 1)).derivative().is_zero
    assert P(F3, 0, 0, 0, 1).derivative().is_zero  # x^3 over GF(3)


def test_monic_polys_enumeration():
    for field, d in ((F2, 3), (F3, 2), (F4, 1)):
        polys = list(mc.monic_polys(field, d))
        assert len(polys) == field.q ** d
        assert len(set(polys)) == len(polys)
        assert all(g.is_monic and g.degree == d for g in polys)
    # degree 0: just the constant 1
    assert list(mc.monic_polys(F3, 0)) == [Polynomial.one(F3)]


def test_sort_key_orders_by_degree_first():
    polys = [P(F3, 2, 1), P(F3, 1), P(F3, 0, 0, 1), P(F3, 0, 1)]
    ordered = sorted(polys, key=Polynomial.sort_key)
    degrees = [g.degree for g in ordered]
    assert degrees == sorted(degrees)
    assert ordered[0] == P(F3, 1)
    assert ordered[-1] == P(F3, 0, 0, 1)
    # all monic quadratics over GF(2): ascending coefficient tuples compare
    # lexicographically, constant coefficient first
    quads = sorted(mc.monic_polys(F2, 2), key=Polynomial.sort_key)
    assert [mc.format_poly(g) for g in quads] == \
        ["x^2", "x^2+x", "x^2+1", "x^2+x+1"]


def test_format_examples():
    assert mc.format_poly(P(F2, 1, 1, 1)) == "x^2+x+1"
    assert mc.format_poly(P(F3, 0, 1, 0, 2)) == "2*x^3+x"
    assert mc.format_poly(P(F3, 2)) == "2"
    assert mc.format_poly(Polynomial.zero(F3)) == "0"
    assert mc.format_poly(Polynomial.x(F3)) == "x"
    assert mc.format_poly(P(F9, 5, 1)) == "x+5"


def test_parse_round_trip_exhaustive_small():
    for field, d in ((F2, 4), (F3, 3), (F9, 2)):
        for idxs in itertools.product(range(field.q), repeat=d):
            f = Polynomial(field, list(idxs))
            assert mc.parse_poly(mc.format_poly(f), field) == f


def test_parse_accepts_spaces_and_repeated_terms():
    assert mc.parse_poly(" x^2 + x + 1 ", F2) == P(F2, 1, 1, 1)
    assert mc.parse_poly("x+x", F2).is_zero  # coefficients add in the field
    assert mc.parse_poly("x+x", F3) == P(F3, 0, 2)
    assert mc.parse_poly("2*x^2+2*x^2", F3) == P(F3, 0, 0, 1)
    # coefficient literals are canonical indices, not arbitrary residues
    with pytest.raises(mc.ParseError):
        mc.parse_poly("3", F2)


def test_parse_errors_carry_positions():
    cases = [
        ("", "empty polynomial text", 0),
        ("x^", "expected an exponent", 2),
        ("2x", "coefficient 2 out of range [0, 2)", 0),
        ("x^2+", "trailing +", 3),
        ("*x", "expected a term", 0),
        ("x^2++1", "expected a term", 4),
        ("y", "expected a term", 0),
        ("x^-1", "expected an exponent", 2),
        ("1x", "expected + between terms", 1),
        ("x 1", "expected + between terms", 2),  # positions count spaces
        ("1*", "expected x after *", 2),         # the end of the text
        ("1 * y", "expected x after *", 4),
    ]
    for text, message, position in cases:
        with pytest.raises(mc.ParseError) as info:
            mc.parse_poly(text, F2)
        assert info.value.position == position, text
        assert str(info.value) == f"{message} (at position {position})"
    assert mc.parse_poly("8*x", F9) == P(F9, 0, 8)  # indices up to q-1 parse
    with pytest.raises(mc.ParseError):
        mc.parse_poly("9*x", F9)


def test_parse_degree_cap():
    with pytest.raises(mc.ParseError):
        mc.parse_poly("x^65537", F2)


def test_hash_and_equality_across_fields():
    assert P(F2, 1, 1) == P(F2, 1, 1)
    assert P(F2, 1, 1) != P(F3, 1, 1)
    assert hash(P(F2, 1, 1)) == hash(P(F2, 1, 1))
    assert P(F2, 1, 1) != "x+1"


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(ValueError):
        P(F2, 1, 1) + P(F3, 1, 1)
    with pytest.raises(TypeError):
        P(F2, 1, 1) + 1


def _convolution(field, a, b):
    """The product of two coefficient lists, one coefficient at a time."""
    out = []
    for k in range(len(a) + len(b) - 1):
        c = 0
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            c = field.add(c, field.mul(a[i], b[k - i]))
        out.append(c)
    while out and out[-1] == 0:
        out.pop()
    return out


def test_list_kernel_matches_convolution_and_division_invariant():
    rng = make_rng(23)
    fields = (F2, F3, F4, F9, mc.make_field(101), mc.make_field(2, 8))
    for field in fields:
        for _ in range(40):
            # random lengths include the empty list, the zero polynomial;
            # divisors have any nonzero leading coefficient
            a = rand_poly(field, rng.randrange(9), rng, monic=False) \
                if rng.randrange(6) else P(field)
            b = rand_poly(field, rng.randrange(0, 6), rng, monic=False)
            ac, bc = a.coeff_indices, b.coeff_indices
            assert _mul(field, ac, bc) == _convolution(field, ac, bc)
            assert _mul(field, ac, ()) == _mul(field, (), bc) == []
            quot, rem = _divmod(field, ac, bc)
            assert len(rem) < len(bc)
            assert not quot or quot[-1] != 0
            assert not rem or rem[-1] != 0
            prod = _convolution(field, quot, bc)
            recon = [field.add(x, y) for x, y in itertools.zip_longest(
                prod, rem, fillvalue=0)]
            while recon and recon[-1] == 0:
                recon.pop()
            assert recon == list(ac)
        with pytest.raises(ZeroDivisionError):
            _divmod(field, (1,), ())


# A schoolbook oracle for GF(2)[x] on 0/1 coefficient lists, one XOR per
# coefficient pair: the reference for the kernel's packed GF(2) path.

def _trimmed(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _school_mul2(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] ^= y
    return _trimmed(out)


def _school_divmod2(a, b):
    rem, db = list(a), len(b) - 1
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        if rem[i + db]:
            quot[i] = 1
            for j, y in enumerate(b):
                rem[i + j] ^= y
    return _trimmed(quot), _trimmed(rem[:db])


def _school_gcd2(a, b):
    while b:
        a, b = b, _school_divmod2(a, b)[1]
    return list(a)


def _school_pow2(a, e, mod=None):
    out = [1] if mod is None else _school_divmod2([1], mod)[1]
    for _ in range(e):
        out = _school_mul2(out, a)
        if mod is not None:
            out = _school_divmod2(out, mod)[1]
    return out


def _rand2(rng, top):
    """A random GF(2) coefficient list of degree 0..top, or zero."""
    if not rng.randrange(8):
        return []
    return [rng.randrange(2) for _ in range(rng.randrange(top + 1))] + [1]


def test_gf2_kernel_matches_schoolbook_oracle():
    rng = make_rng(31)
    for trial in range(60):
        a, b = _rand2(rng, 300), _rand2(rng, 300)
        # the same list twice takes the kernel's squaring path
        c = a if trial % 5 == 0 else _rand2(rng, 300)
        args = [list(a), tuple(b), list(c)]
        assert _mul(F2, a, c) == _school_mul2(a, c)
        assert _gcd(F2, a, b) == _school_gcd2(a, b)
        if b:
            assert _divmod(F2, a, b) == _school_divmod2(a, b)
        e = rng.randrange(4)
        assert _pow(F2, a[:80], e) == _school_pow2(a[:80], e)
        if b:
            e = rng.randrange(12)
            assert _pow(F2, a, e, b) == _school_pow2(a, e, b)
        # no kernel function changes its arguments
        assert args == [a, tuple(b), c]


def test_gf2_kernel_edge_cases():
    x5 = [1] + [0] * 4999 + [1]  # x^5000 + 1
    x10 = [1] + [0] * 9999 + [1]
    # 10001 coefficients is past the 4300-digit int/str limit; base-2
    # conversion is not subject to it
    assert _mul(F2, x5, x5) == _pow(F2, x5, 2) == x10
    y = [1, 1] + [0] * 4998 + [1]  # x^5000 + x + 1
    assert _mul(F2, x5, y) == _school_mul2(x5, y)
    assert _divmod(F2, x10, x5) == (x5, [])
    assert _gcd(F2, x10, x5) == x5
    assert _pow(F2, [0, 1], 10000, x5) == [1]  # x^10000 = 1 mod x^5000 + 1
    one, x = [1], [0, 1]
    assert _pow(F2, [], 0) == one and _pow(F2, [], 3) == []
    assert _pow(F2, [], 2, x) == []
    for a in ([], one, x):
        assert _mul(F2, a, []) == _mul(F2, [], a) == []
        assert _gcd(F2, a, []) == _gcd(F2, [], a) == a
        assert _pow(F2, a, 0, [1, 1]) == one
        # every residue modulo a unit is 0, e = 0 included
        for e in (0, 1, 2):
            assert _pow(F2, a, e, one) == []
        with pytest.raises(ZeroDivisionError):
            _divmod(F2, a, [])
        with pytest.raises(ZeroDivisionError):
            _pow(F2, a, 2, [])
    for b in (one, x, x10):
        assert _divmod(F2, [], b) == ([], [])
