"""Field construction and arithmetic, checked against direct integer
arithmetic for prime fields and against the field axioms everywhere."""

import pytest

import matrix_census as mc
from matrix_census import field as field_mod
from matrix_census.errors import BudgetError, within_budget

from conftest import brute_irreducible, make_rng


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(-3, 40):
        assert mc.is_prime(n) == (n in primes)
    assert mc.is_prime(1009)
    assert not mc.is_prime(1001)  # 7 * 11 * 13


def test_prime_field_matches_integer_mod_p():
    for p in (2, 3, 5, 7, 13):
        F = mc.make_field(p)
        assert F.q == p and F.k == 1 and F.modulus is None
        for a in range(p):
            for b in range(p):
                assert F.add(a, b) == (a + b) % p
                assert F.sub(a, b) == (a - b) % p
                assert F.mul(a, b) == (a * b) % p
            assert F.neg(a) == (-a) % p
            if a:
                assert F.mul(a, F.inv(a)) == 1


def test_extension_moduli_are_first_in_scan_order():
    # x^2+x+1 is the only irreducible quadratic over GF(2).
    assert mc.make_field(2, 2).modulus == (1, 1, 1)
    # Over GF(3) the scan hits x^2+1 before x^2+x+2 and x^2+2x+2.
    assert mc.make_field(3, 2).modulus == (1, 0, 1)
    # Over GF(2) the scan hits x^3+x+1 before x^3+x^2+1.
    assert mc.make_field(2, 3).modulus == (1, 1, 0, 1)
    # Every modulus is the first polynomial of the scan that trial division
    # accepts.
    for p in (2, 3, 5, 7, 11, 13, 17, 31, 61):
        F = mc.make_field(p)
        k = 2
        while p ** k <= 4096:
            first = next(g for g in mc.monic_polys(F, k)
                         if brute_irreducible(g))
            assert mc.make_field(p, k).modulus == first.coeff_indices, (p, k)
            k += 1


def test_modulus_is_irreducible_no_roots():
    # A quadratic or cubic with no roots in the base field is irreducible.
    for p, k in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3)):
        F = mc.make_field(p, k)
        mod = F.modulus
        assert len(mod) == k + 1 and mod[-1] == 1
        for a in range(p):
            value = sum(c * a ** i for i, c in enumerate(mod)) % p
            assert value != 0


def test_gf4_multiplication_table():
    F = mc.make_field(2, 2)
    t = 2  # the residue of x
    assert F.mul(t, t) == 3          # x^2 = x + 1
    assert F.mul(t, 3) == 1          # x * (x + 1) = x^2 + x = 1
    assert F.mul(3, 3) == t          # (x + 1)^2 = x
    assert F.inv(t) == 3 and F.inv(3) == t


# Independent reference arithmetic: coefficient vectors over GF(p), reduced
# by F.modulus with schoolbook long division.

def _ref_vec(F, a):
    return [a // F.p ** i % F.p for i in range(F.k)]


def _ref_index(F, v):
    return sum(c * F.p ** i for i, c in enumerate(v))


def _ref_mul(F, a, b):
    p, k, mod = F.p, F.k, F.modulus
    va, vb = _ref_vec(F, a), _ref_vec(F, b)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(va):
        for j, y in enumerate(vb):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for j in range(k + 1):
            prod[top - k + j] = (prod[top - k + j] - c * mod[j]) % p
    return _ref_index(F, prod[:k])


def _ref_pow(F, a, e):
    r = 1
    for _ in range(e):
        r = _ref_mul(F, r, a)
    return r


EXTENSIONS = ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (3, 5), (2, 8))


@pytest.mark.parametrize("p,k", EXTENSIONS)
def test_extension_ops_match_schoolbook_reference(p, k):
    F = mc.FieldSpec(p, k)
    q = F.q
    vecs = [_ref_vec(F, a) for a in range(q)]
    for a in range(q):
        va = vecs[a]
        for b in range(q):
            vb = vecs[b]
            assert F.add(a, b) == _ref_index(
                F, [(x + y) % p for x, y in zip(va, vb)])
            assert F.sub(a, b) == _ref_index(
                F, [(x - y) % p for x, y in zip(va, vb)])
            assert F.mul(a, b) == _ref_mul(F, a, b)
        assert F.neg(a) == _ref_index(F, [(-x) % p for x in va])
        if a:
            assert _ref_mul(F, a, F.inv(a)) == 1
        else:
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        assert F.pow(a, p) == _ref_pow(F, a, p)  # the Frobenius map
        for e in (0, 1, 2, q - 1, q + 1, 3 * q - 2):
            expected = _ref_pow(F, a, e % (q - 1)) if a else int(e == 0)
            assert F.pow(a, e) == expected


@pytest.mark.parametrize("p,k", EXTENSIONS)
def test_primitive_element_is_smallest_of_full_order(p, k):
    F = mc.FieldSpec(p, k)
    n1 = F.q - 1

    def order(a):
        r, e = a, 1
        while r != 1:
            r, e = _ref_mul(F, r, a), e + 1
        return e

    assert order(F.primitive) == n1
    assert all(order(c) < n1 for c in range(1, F.primitive))


def test_residue_of_x_is_not_always_primitive():
    # x^8+x^4+x^3+x+1 and x^2+1 are irreducible but not primitive
    assert mc.make_field(2, 8).primitive == 3    # x + 1; x has order 51
    assert mc.make_field(3, 2).primitive == 4    # x + 1; x has order 4
    assert mc.make_field(2, 3).primitive == 2    # x
    assert mc.make_field(5).primitive is None


def test_gf9_coeff_encoding():
    # c0 + c1 * x has index c0 + c1 * 3, and x has index 3
    F = mc.make_field(3, 2)
    assert F.add(2, 3) == 5
    for c0 in range(3):
        for c1 in range(3):
            assert F.add(c0, F.mul(c1, 3)) == _ref_index(F, (c0, c1))


def test_gf3_inverse_table():
    F = mc.make_field(3)
    assert F.inv(1) == 1
    assert F.inv(2) == 2  # 2 * 2 = 4 = 1 mod 3
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def _check_axioms(F, triples):
    for a, b, c in triples:
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        assert F.add(a, 0) == a and F.mul(a, 1) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_field_axioms_exhaustive_small():
    for p, k in ((2, 1), (2, 2), (3, 1), (2, 3), (3, 2)):
        F = mc.make_field(p, k)
        q = F.q
        _check_axioms(F, [(a, b, c) for a in range(q) for b in range(q)
                          for c in range(q)])


def test_field_axioms_random_larger():
    rng = make_rng(42)
    for p, k in ((5, 3), (2, 7), (7, 2), (3, 4), (113, 1)):
        F = mc.make_field(p, k)
        triples = [(rng.randrange(F.q), rng.randrange(F.q), rng.randrange(F.q))
                   for _ in range(200)]
        _check_axioms(F, triples)


def test_multiplicative_order_divides_group_order():
    for p, k in ((2, 2), (3, 2), (2, 4), (5, 1)):
        F = mc.make_field(p, k)
        for a in range(1, F.q):
            assert F.pow(a, F.q - 1) == 1
            assert F.mul(F.pow(a, F.q - 2), a) == 1


def test_frobenius_is_field_automorphism():
    for p, k in ((2, 3), (3, 2), (5, 2)):
        F = mc.make_field(p, k)

        def frob(a):
            return F.pow(a, p)

        for a in range(F.q):
            for b in range(F.q):
                assert frob(F.add(a, b)) == F.add(frob(a), frob(b))
                assert frob(F.mul(a, b)) == F.mul(frob(a), frob(b))
        # k-fold iteration is the identity
        for a in range(F.q):
            b = a
            for _ in range(k):
                b = frob(b)
            assert b == a
        # prime subfield, the indices below p, is fixed pointwise
        for c in range(p):
            assert frob(c) == c


def test_generator_is_root_of_modulus():
    for p, k in ((2, 2), (3, 2), (2, 4), (5, 2)):
        F = mc.make_field(p, k)
        x = _ref_index(F, (0, 1))  # the residue of x
        acc, power = 0, 1
        for c in F.modulus:
            acc = F.add(acc, F.mul(power, c))
            power = F.mul(power, x)
        assert acc == 0


def test_element_index_range_checked():
    F = mc.make_field(3, 2)
    for bad in (9, -1):
        with pytest.raises(ValueError, match="coefficient index"):
            mc.Polynomial(F, [bad])
        with pytest.raises(ValueError, match="entry index"):
            mc.SquareMatrix(F, [[bad]])
        with pytest.raises(ValueError):
            mc.Polynomial(F, [1, 1])(bad)
    with pytest.raises(ValueError, match="entry index 9 out of range"):
        mc.SquareMatrix.scalar(F, 2, 9)
    with pytest.raises(ValueError, match="bad entry"):
        mc.SquareMatrix.diagonal(F, [1.0])
    # over a prime field an int names its residue
    assert mc.Polynomial(mc.make_field(3), [-1, 4]).coeff_indices == (2, 1)
    assert mc.SquareMatrix(mc.make_field(3), [[5]]).flat_indices == (2,)


def test_large_field_beyond_table_cap_still_works():
    F = mc.make_field(2053)  # prime above the old 1024-element table cap
    assert F.mul(2052, 2052) == (2052 * 2052) % 2053


def test_field_order_budget():
    with pytest.raises(BudgetError):
        mc.make_field(2, 21)  # 2^21 elements over the default budget
    F = mc.make_field(2, 21, max_order=2 ** 22)
    assert F.q == 2 ** 21
    a = _ref_index(F, (0, 1))  # x
    assert F.mul(a, a) == _ref_index(F, (0, 0, 1))


def test_within_budget_checks_the_value_and_a_lower_bound():
    message = "size {} exceeds the budget {}"
    assert within_budget(3, 4, 81, message) == 81
    with pytest.raises(BudgetError) as info:
        within_budget(3, 4, 80, message)
    assert str(info.value) == "size 3^4 = 81 exceeds the budget 80"
    # 2^71 = 2^(bits of 80 + 64) is refused without computing it
    with pytest.raises(BudgetError) as info:
        within_budget(2, 71, 80, message)
    assert str(info.value) == "size 2^71 exceeds the budget 80"
    with pytest.raises(BudgetError) as info:
        within_budget(2, 70, 80, message)
    assert str(info.value) == f"size 2^70 = {2 ** 70} exceeds the budget 80"


def test_extension_field_above_log_table_cap_is_refused():
    # named with its modulus and no tables; refused at the first arithmetic,
    # before any table allocation, and again at every later one
    for p, k, modulus in ((2, 25, (1, 0, 0, 1) + (0,) * 21 + (1,)),
                          (3, 16, (1, 0, 1, 1) + (0,) * 12 + (1,))):
        F = mc.FieldSpec(p, k, max_order=p ** k)
        assert F.modulus == modulus
        assert "_exp" not in vars(F)
        for name in ("mul", "add", "primitive"):
            with pytest.raises(BudgetError, match="log-table cap"):
                getattr(F, name)
        assert "_exp" not in vars(F)
    F = mc.FieldSpec(16777259, max_order=2 ** 25)  # prime fields have no tables
    assert F.mul(16777258, 16777258) == 1


def test_extension_tables_are_built_on_first_arithmetic():
    F = mc.FieldSpec(2, 20)
    assert "_exp" not in vars(F) and "mul" not in vars(F)
    a = _ref_index(F, (0, 1))  # x
    assert F.mul(a, a) == _ref_index(F, (0, 0, 1))
    assert "_exp" in vars(F)
    assert F.mul(F.primitive, F.inv(F.primitive)) == 1


def test_huge_extension_degree_is_refused_without_computing_the_order():
    with pytest.raises(BudgetError, match=r"2\^100000 exceeds the budget"):
        mc.make_field(2, 100000)


def test_huge_prime_is_refused_before_the_primality_test(monkeypatch):
    def never(n):
        raise AssertionError("primality test on an over-budget order")

    monkeypatch.setattr(field_mod, "is_prime", never)
    with pytest.raises(BudgetError, match="exceeds the budget"):
        mc.make_field(1000000000000000003)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        mc.make_field(4)  # not prime
    with pytest.raises(ValueError):
        mc.make_field(2, 0)
    with pytest.raises(ValueError):
        mc.make_field(1)


def test_field_from_order():
    F = mc.field_from_order(8)
    assert (F.p, F.k) == (2, 3)
    F = mc.field_from_order(9)
    assert (F.p, F.k) == (3, 2)
    F = mc.field_from_order(7)
    assert (F.p, F.k) == (7, 1)
    with pytest.raises(ValueError):
        mc.field_from_order(6)
    with pytest.raises(ValueError):
        mc.field_from_order(1)


def test_make_field_caches_instances():
    assert mc.make_field(3, 2) is mc.make_field(3, 2)
    assert mc.make_field(3) is mc.field_from_order(3)


def test_field_spec_equality_and_hash():
    F = mc.make_field(2, 2)
    G = mc.make_field(2, 2)
    assert F == G and hash(F) == hash(G)
    assert F != mc.make_field(2)


def test_huge_order_is_refused_before_the_prime_power_test(monkeypatch):
    def never(q):
        raise AssertionError("prime-power test on an over-budget order")

    monkeypatch.setattr(field_mod, "_prime_power", never)
    with pytest.raises(BudgetError, match="exceeds the budget"):
        mc.field_from_order(1000000000000000003)


def test_trial_division_against_brute_force():
    def naive_prime(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(1, 700):
        found = list(field_mod._trial_division(n))
        assert [p for p, _ in found] == \
            [p for p in range(2, n + 1) if n % p == 0 and naive_prime(p)]
        prod = 1
        for p, e in found:
            prod *= p ** e
            assert n % p ** e == 0 and (n // p ** e) % p
        assert prod == n
        if n >= 2:
            assert mc.is_prime(n) == naive_prime(n)
            if len(found) == 1:
                assert field_mod._prime_power(n) == found[0]
            else:
                with pytest.raises(ValueError):
                    field_mod._prime_power(n)
