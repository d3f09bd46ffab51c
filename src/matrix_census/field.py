"""Exact arithmetic in GF(p) and GF(p^k).

Elements are canonically encoded as integers in [0, q): the element with
coefficient vector (c_0, ..., c_{k-1}) over GF(p) has index sum(c_i * p**i).
``FieldSpec`` operates directly on these indices, and every layer above it
(polynomials, matrices, the census) computes through its bound ops.

For an extension field the modulus is the first monic irreducible polynomial
of degree k in the ascending scan of coefficient vectors, so two constructions
of GF(p^k) always agree on the representation.  The scan runs the package's
one irreducibility test, Ben-Or's in ``factor``, over GF(p) on bare coefficient
lists.  Over GF(2) the polynomial kernel packs each candidate into one int,
so Ben-Or's products and reductions are shifts and XORs on whole machine
words; over an odd p they cost one field operation per coefficient pair.
Only ``max_order`` bounds the scan.

Prime fields compute on the indices modulo p.  Every extension field computes
through log/antilog tables of size O(q) over its primitive element g, the
smallest index of multiplicative order q - 1 (the residue of x is often not
primitive: under the canonical modulus of GF(256) it has order 51).  A
product is exp[log a + log b].  For p = 2 the index encoding is binary, so a
sum is the XOR of the indices; for odd p a sum goes through the Zech
logarithm zech[i] = log(1 + g^i) (Lidl and Niederreiter, *Finite Fields*,
ch. 9).  The tables are built once per field, in O(q) steps, on its first
arithmetic call, and hold 4-byte ints; naming a field costs only its modulus
search.
"""

from __future__ import annotations

import functools
import operator

from .errors import BudgetError, TableCapError, within_budget

DEFAULT_FIELD_ORDER_BUDGET = 2 ** 20

# Hard cap on the order of an extension field, whatever max_order allows: its
# log tables take about 24 bytes per element (400 MB at the cap), and their
# 4-byte entries must hold 2q - 3.
_LOG_TABLE_CAP = 2 ** 24

# What FieldSpec._bind_logs sets on an extension field, on first access.
_LAZY = frozenset("add sub mul neg inv primitive _exp _log".split())


def _trial_division(n: int):
    """Yield (p, e) for each prime p with p^e exactly dividing n >= 1, in
    ascending order, by trial division by 2 and then by odd numbers."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            yield d, e
        d += 1 if d == 2 else 2
    if n > 1:
        yield n, 1


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    return n >= 2 and next(_trial_division(n)) == (n, 1)


def power(mul, a, e: int, one):
    """a**e under the product mul, by square-and-multiply, e >= 0.  The
    identity one is returned for e = 0 and never multiplied."""
    r = None
    while e:
        if e & 1:
            r = a if r is None else mul(r, a)
        e >>= 1
        if e:
            a = mul(a, a)
    return one if r is None else r


def _ints(n: int):
    """n zeros packed as 4-byte ints, indexed like a list."""
    return memoryview(bytearray(4 * n)).cast("i")


def _shift_ops(p: int, k: int, modulus: tuple):
    """(xtime, mul) on element indices of GF(p)[x]/(modulus), for building
    the log tables: xtime(a) = x * a costs O(1) integer operations per
    nonzero low coefficient of the modulus; mul(a, b) is the polynomial
    kernel's product and remainder, on the packed int itself over GF(2)
    and on the base-p digits otherwise."""
    # imported here because poly imports this module
    from .poly import _divmod, _divmod2, _mul, _mul2, _trim
    if p == 2:
        top = 1 << k
        red = sum(c << i for i, c in enumerate(modulus))

        def xtime(a):
            a <<= 1
            return a ^ red if a & top else a

        return xtime, lambda a, b: _divmod2(_mul2(a, b), red)[1]

    prime = FieldSpec(p, max_order=p)
    weights = [p ** i for i in range(k)]
    terms = [(weights[i], m) for i, m in enumerate(modulus[:k]) if m]

    def xtime(a):
        top, a = divmod(a, weights[-1])
        a *= p
        # subtract top * (modulus - x^k), one nonzero digit at a time
        for w, m in terms:
            d = a // w % p
            a += ((d - top * m) % p - d) * w
        return a

    def mul(a, b):
        a, b = (_trim([c // w % p for w in weights]) for c in (a, b))
        rem = _divmod(prime, _mul(prime, a, b), modulus)[1]
        return sum(map(operator.mul, rem, weights))

    return xtime, mul


def _log_tables(p: int, k: int, modulus: tuple):
    """(g, exp, log) for GF(p)[x]/(modulus): g is the smallest element index
    of multiplicative order q - 1, exp[i] = g^i for 0 <= i < q - 1 and
    log[exp[i]] = i."""
    q = p ** k
    n1 = q - 1
    xtime, mul = _shift_ops(p, k, modulus)
    # indices below p are the prime field, of order dividing p - 1
    primes = [r for r, _ in _trial_division(n1)]
    g = next(c for c in range(p, q)
             if all(power(mul, c, n1 // r, 1) != 1 for r in primes))
    # Walk the powers of x (index p), O(1) per step, over the u cosets of
    # the subgroup <x> of order d.  With g^u = x^v, x = g^s for
    # s = u * v^-1 mod d, so h * x^j = g^(r + s*j) in the coset of h = g^r.
    d = n1
    for r in primes:
        while d % r == 0 and power(mul, p, d // r, 1) == 1:
            d //= r
    u = n1 // d
    gu = power(mul, g, u, 1)
    a, v = 1, 0
    while a != gu:
        a = xtime(a)
        v += 1
    s = u * pow(v, -1, d)
    exp = _ints(n1)
    log = _ints(q)  # zero has no logarithm; see _bind_logs
    h = 1
    for r in range(u):
        a, i = h, r
        for _ in range(d):
            exp[i] = a
            log[a] = i
            a = xtime(a)
            i += s
            if i >= n1:
                i -= n1
        h = mul(h, g)
    return g, exp, log


def _check_order(p: int, k: int, max_order: int) -> int:
    """q = p**k, once GF(p^k) is checked to exist within the budget."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"characteristic must be prime, got {p!r}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"extension degree must be a positive integer, got {k!r}")
    # the budget comes before the primality test, whose cost grows with p
    q = within_budget(p, k, max_order, "field order {} exceeds the budget {}")
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p!r}")
    return q


def _find_modulus(p: int, k: int) -> tuple:
    """First monic irreducible of degree k in the ascending coefficient scan."""
    # imported here because both modules import this one
    from .factor import _is_irreducible
    from .poly import _monic_coeffs
    prime = FieldSpec(p, max_order=p)
    return next(tuple(cs) for cs in _monic_coeffs(p, k)
                if _is_irreducible(prime, cs))


class FieldSpec:
    """The field GF(p^k) with its canonical integer element encoding.

    ``add``, ``sub``, ``mul``, ``neg`` and ``inv`` are callables taking and
    returning element indices, bound once and never changed, so instances
    are safe to share.  Prime fields use modular arithmetic, bound at
    construction.  Extension fields use log/antilog tables over
    ``primitive``, the smallest element index of multiplicative order q - 1
    (None for prime fields).  The tables cost O(q) time and about 24 bytes
    per element, so they are built on the first access to any of these
    attributes, and there an extension field above ``_LOG_TABLE_CAP`` raises
    ``BudgetError``; ``max_order`` is checked at construction.
    """

    def __init__(self, p: int, k: int = 1, *,
                 max_order: int = DEFAULT_FIELD_ORDER_BUDGET):
        self.p = p
        self.k = k
        self.q = _check_order(p, k, max_order)
        self.modulus = None if k == 1 else _find_modulus(p, k)
        if k == 1:
            self.primitive = None
            self._bind_modular()

    def __getattr__(self, name):
        # Runs only while an extension field's tables are unbuilt: binding
        # them sets every name in _LAZY, so later lookups never reach here.
        if name not in _LAZY:
            raise AttributeError(name)
        self._bind_logs()
        return self.__dict__[name]

    def _bind_modular(self):
        p = self.p
        self.add = lambda a, b, _p=p: (a + b) % _p
        self.sub = lambda a, b, _p=p: (a - b) % _p
        self.mul = lambda a, b, _p=p: (a * b) % _p
        self.neg = lambda a, _p=p: (-a) % _p

        def inv(a, _p=p):
            if a == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return pow(a, _p - 2, _p)

        self.inv = inv

    def _bind_logs(self):
        p, k, q = self.p, self.k, self.q
        if q > _LOG_TABLE_CAP:
            raise TableCapError(
                f"field order {p}^{k} = {q} exceeds the log-table cap "
                f"{_LOG_TABLE_CAP} for extension fields")
        n1 = q - 1
        half = n1 // 2  # for odd p, g^half = -1
        g, powers, log = _log_tables(p, k, self.modulus)
        # exp holds g^i for 0 <= i <= 2(q - 2), so a sum of two logs needs no
        # reduction, then a tail of zeros.  log[0] = 2q - 3 puts every sum
        # involving it in that tail, so mul and neg need no zero test.
        zero_log = 2 * n1 - 1
        log[0] = zero_log
        exp = _ints(4 * n1 - 1)
        exp[:n1] = powers
        exp[n1:2 * n1 - 1] = powers[:-1]
        # For odd p, zech[i] = log(1 + g^i), and zero_log where 1 + g^i = 0
        # (i = half).  Adding 1 changes digit 0 only, so each entry is O(1).
        zech = _ints(n1 if p > 2 else 0)
        for i in range(len(zech)):
            e = powers[i]
            if e == p - 1:
                zech[i] = zero_log
            else:
                zech[i] = log[e + 1 if e % p != p - 1 else e + 1 - p]
        self.primitive = g
        self._exp, self._log = exp, log

        def inv(a):
            if a == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return exp[n1 - log[a]]

        self.mul = lambda a, b: exp[log[a] + log[b]]
        self.inv = inv
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = lambda a: a
            return

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            # a negative index wraps: zech is indexed mod q - 1
            return exp[la + zech[log[b] - la]]

        def sub(a, b):
            if not b:
                return a
            if not a:
                return exp[log[b] + half]
            la = log[a]
            return exp[la + zech[(log[b] + half - la) % n1]]

        self.add, self.sub = add, sub
        self.neg = lambda a: exp[log[a] + half]

    def pow(self, a: int, e: int) -> int:
        """a**e on element indices, e a nonnegative integer."""
        if e < 0:
            raise ValueError("exponent must be nonnegative; use inv() first")
        if self.k == 1:
            return pow(a, e, self.p)
        if not a:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def _index(self, c, what: str) -> int:
        """The int c as an element index: reduced mod p over a prime field,
        required to lie in [0, q) over an extension.  Anything else is a
        ValueError that calls c the caller's ``what`` ("entry", ...)."""
        if not isinstance(c, int):
            raise ValueError(f"bad {what} {c!r}")
        if self.k == 1:
            return c % self.p
        if 0 <= c < self.q:
            return c
        raise ValueError(f"{what} index {c} out of range [0, {self.q})")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __str__(self):
        return f"GF({self.q})"

    def __repr__(self):
        if self.k == 1:
            return f"FieldSpec(p={self.p})"
        return f"FieldSpec(p={self.p}, k={self.k})"


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, k: int, max_order: int) -> FieldSpec:
    return FieldSpec(p, k, max_order=max_order)


def make_field(p: int, k: int = 1, *,
               max_order: int = DEFAULT_FIELD_ORDER_BUDGET) -> FieldSpec:
    """GF(p^k) with the canonical modulus; instances are cached."""
    return _cached_field(p, k, max_order)


def _prime_power(q: int) -> tuple:
    """(p, k) with q = p**k and p prime."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field order must be an integer >= 2, got {q!r}")
    p, k = next(_trial_division(q))
    if p ** k != q:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def field_from_order(q: int, *,
                     max_order: int = DEFAULT_FIELD_ORDER_BUDGET) -> FieldSpec:
    """GF(q) for a prime power q, decomposing q as p^k."""
    # the budget comes before the prime-power test, whose cost grows with q
    if isinstance(q, int) and q > max_order:
        raise BudgetError(f"field order {q} exceeds the budget {max_order}")
    p, k = _prime_power(q)
    return make_field(p, k, max_order=max_order)
