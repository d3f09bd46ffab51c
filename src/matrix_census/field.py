"""Exact arithmetic in GF(p) and GF(p^k).

Elements are canonically encoded as integers in [0, q): the element with
coefficient vector (c_0, ..., c_{k-1}) over GF(p) has index sum(c_i * p**i).
``FieldSpec`` operates directly on these indices (the representation used by
the enumeration kernels); ``FieldElement`` is a thin immutable wrapper for
callers that prefer operator syntax.

For an extension field the modulus is the first monic irreducible polynomial
of degree k in the ascending scan of coefficient vectors, so two constructions
of GF(p^k) always agree on the representation.
"""

from __future__ import annotations

import functools

from .errors import BudgetError, ParseError

DEFAULT_FIELD_ORDER_BUDGET = 2 ** 20

# Extension fields up to this order bind their ops to dense tables at
# construction: decode/encode arithmetic is far slower than a lookup, while
# over a prime field the modular ops are as fast as the tables.
_EAGER_TABLE_CAP = 128
# Hard cap for the flat tables handed to table-driven kernels.
_TABLE_CAP = 1024


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Helpers on polynomials over GF(p) represented as lists of ints, ascending
# powers, no trailing zeros.  Used for the modulus search and for element
# arithmetic in extension fields.

def _pp_norm(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pp_mul(f: list, g: list, p: int) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = (out[i + j] + a * b) % p
    return _pp_norm(out)


def _pp_rem(f: list, g: list, p: int) -> list:
    # g must be monic
    assert g and g[-1] == 1
    r = list(f)
    dg = len(g) - 1
    while len(r) - 1 >= dg and r:
        c = r[-1]
        if c:
            off = len(r) - 1 - dg
            for j in range(dg):
                r[off + j] = (r[off + j] - c * g[j]) % p
        r.pop()
    return _pp_norm(r)


def _pp_is_irreducible(f: list, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg < 1:
        return False
    if f[0] == 0:
        return deg == 1
    for d in range(1, deg // 2 + 1):
        g = [0] * d + [1]
        for v in range(p ** d):
            t = v
            for i in range(d):
                g[i] = t % p
                t //= p
            if not _pp_rem(f, g, p):
                return False
    return True


class FieldSpec:
    """The field GF(p^k) with its canonical integer element encoding.

    ``add``, ``sub``, ``mul``, ``neg`` and ``inv`` are callables taking and
    returning element indices.  Prime fields use modular arithmetic; small
    extension fields use dense table lookups.  The ops never change after
    construction, so instances are safe to share.
    """

    def __init__(self, p: int, k: int = 1, *,
                 max_order: int = DEFAULT_FIELD_ORDER_BUDGET):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"extension degree must be a positive integer, got {k!r}")
        q = p ** k
        if q > max_order:
            raise BudgetError(
                f"field order {p}^{k} = {q} exceeds the budget {max_order}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = None if k == 1 else self._find_modulus(p, k)
        self._tables = None
        self._bind_ops()
        if k > 1 and q <= _EAGER_TABLE_CAP:
            self._bind_tables()

    @staticmethod
    def _find_modulus(p: int, k: int) -> tuple:
        """First monic irreducible of degree k in the ascending coefficient scan."""
        for v in range(p ** k):
            coeffs = []
            t = v
            for _ in range(k):
                coeffs.append(t % p)
                t //= p
            coeffs.append(1)
            if _pp_is_irreducible(coeffs, p):
                return tuple(coeffs)
        raise AssertionError("no irreducible modulus found")  # unreachable

    def _bind_ops(self):
        p, k, q = self.p, self.k, self.q
        if k == 1:
            self.add = lambda a, b, _p=p: (a + b) % _p
            self.sub = lambda a, b, _p=p: (a - b) % _p
            self.mul = lambda a, b, _p=p: (a * b) % _p
            self.neg = lambda a, _p=p: (-a) % _p

            def inv(a, _p=p):
                if a == 0:
                    raise ZeroDivisionError("inverse of zero field element")
                return pow(a, _p - 2, _p)

            self.inv = inv
            return

        mod = list(self.modulus)

        def decode(a, _p=p, _k=k):
            out = []
            for _ in range(_k):
                out.append(a % _p)
                a //= _p
            return out

        def encode(cs, _p=p):
            v = 0
            for c in reversed(cs):
                v = v * _p + c
            return v

        def add(a, b):
            ca, cb = decode(a), decode(b)
            return encode([(x + y) % p for x, y in zip(ca, cb)])

        def sub(a, b):
            ca, cb = decode(a), decode(b)
            return encode([(x - y) % p for x, y in zip(ca, cb)])

        def mul(a, b):
            prod = _pp_mul(_pp_norm(decode(a)), _pp_norm(decode(b)), p)
            r = _pp_rem(prod, mod, p)
            return encode(r + [0] * (k - len(r)))

        def neg(a):
            return encode([(-x) % p for x in decode(a)])

        def inv(a, _q=q):
            if a == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return self.pow(a, _q - 2)

        self.add, self.sub, self.mul, self.neg, self.inv = add, sub, mul, neg, inv

    def _bind_tables(self):
        """Rebind the element ops to lookups in the flat tables."""
        add_flat, mul_flat, neg_list = self.index_tables()
        q = self.q
        inv_list = [0] + [self.inv(a) for a in range(1, q)]
        self.add = lambda a, b, _t=add_flat, _q=q: _t[a * _q + b]
        self.mul = lambda a, b, _t=mul_flat, _q=q: _t[a * _q + b]
        self.neg = lambda a, _t=neg_list: _t[a]

        def sub(a, b, _t=add_flat, _n=neg_list, _q=q):
            return _t[a * _q + _n[b]]

        def inv(a, _t=inv_list):
            if a == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return _t[a]

        self.sub = sub
        self.inv = inv

    def index_tables(self):
        """Flat (add, mul, neg) lookup tables for table-driven kernels.

        Built on first use and cached; the element ops are left as they are.
        """
        if self._tables is None:
            q = self.q
            if q > _TABLE_CAP:
                raise BudgetError(
                    f"field order {q} too large for table-driven "
                    f"enumeration (cap {_TABLE_CAP})")
            add, mul = self.add, self.mul
            self._tables = (
                [add(a, b) for a in range(q) for b in range(q)],
                [mul(a, b) for a in range(q) for b in range(q)],
                [self.neg(a) for a in range(q)])
        return self._tables

    def pow(self, a: int, e: int) -> int:
        """a**e on element indices, e a nonnegative integer."""
        if e < 0:
            raise ValueError("exponent must be nonnegative; use inv() first")
        result = 1
        mul = self.mul
        while e:
            if e & 1:
                result = mul(result, a)
            a = mul(a, a)
            e >>= 1
        return result

    def frobenius(self, a: int) -> int:
        """The p-th power map a -> a**p (identity on the prime field)."""
        if self.k == 1:
            return a
        return self.pow(a, self.p)

    def coeffs_of(self, a: int) -> tuple:
        """Coefficient vector (c_0, ..., c_{k-1}) of the element with index a."""
        if not 0 <= a < self.q:
            raise ValueError(f"element index {a} out of range [0, {self.q})")
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def index_of(self, coeffs) -> int:
        """Index of the element with the given coefficient vector (mod p)."""
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.k:
            raise ValueError(f"expected at most {self.k} coefficients, got {len(cs)}")
        v = 0
        for c in reversed(cs):
            v = v * self.p + c
        return v

    # Element-level conveniences.

    def element(self, index: int) -> "FieldElement":
        return FieldElement(self, index)

    def from_coeffs(self, coeffs) -> "FieldElement":
        return FieldElement(self, self.index_of(coeffs))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def gen(self) -> "FieldElement":
        """The residue of x in GF(p)[x]/(modulus); for k = 1 just 1."""
        return FieldElement(self, self.p if self.k > 1 else 1)

    def elements(self):
        for i in range(self.q):
            yield FieldElement(self, i)

    def parse_element(self, text: str) -> int:
        """Element text format: the decimal index in [0, q)."""
        try:
            v = int(text.strip())
        except ValueError:
            raise ParseError(f"not an element literal: {text!r}", 0) from None
        if not 0 <= v < self.q:
            raise ParseError(f"element {v} out of range [0, {self.q})", 0)
        return v

    def format_element(self, a: int) -> str:
        return str(a)

    def __eq__(self, other):
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


class FieldElement:
    """An element of a FieldSpec, identified by its canonical index."""

    __slots__ = ("field", "index")

    def __init__(self, field: FieldSpec, index: int):
        if not isinstance(index, int) or not 0 <= index < field.q:
            raise ValueError(f"element index {index!r} out of range [0, {field.q})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> tuple:
        return self.field.coeffs_of(self.index)

    def _check(self, other):
        if other.field != self.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.field.add(self.index, other.index))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.field.sub(self.index, other.index))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.index, other.index))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field,
                            self.field.mul(self.index, self.field.inv(other.index)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.index))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.index, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.index))

    def frobenius(self) -> "FieldElement":
        return FieldElement(self.field, self.field.frobenius(self.index))

    def __bool__(self):
        return self.index != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.index == other.index

    def __hash__(self):
        return hash((self.field, self.index))

    def __str__(self):
        return str(self.index)

    def __repr__(self):
        return f"FieldElement({self.field}, {self.index})"


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, k: int, max_order: int) -> FieldSpec:
    return FieldSpec(p, k, max_order=max_order)


def make_field(p: int, k: int = 1, *,
               max_order: int = DEFAULT_FIELD_ORDER_BUDGET) -> FieldSpec:
    """GF(p^k) with the canonical modulus; instances are cached."""
    return _cached_field(p, k, max_order)


def field_from_order(q: int, *,
                     max_order: int = DEFAULT_FIELD_ORDER_BUDGET) -> FieldSpec:
    """GF(q) for a prime power q, decomposing q as p^k."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field order must be an integer >= 2, got {q!r}")
    p = q
    for d in range(2, q):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    k = 0
    t = q
    while t % p == 0:
        t //= p
        k += 1
    if t != 1:
        raise ValueError(f"{q} is not a prime power")
    return make_field(p, k, max_order=max_order)
