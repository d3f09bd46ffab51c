"""Univariate polynomials over a FieldSpec.

Coefficients are stored as a tuple of element indices, ascending powers, with
no trailing zeros (the zero polynomial is the empty tuple).  The degree of the
zero polynomial is the sentinel ``NEG_INF`` so degree comparisons behave in
arithmetic without a fake -1.

The arithmetic lives in this module's list-level kernel (``_add``, ``_sub``,
``_mul``, ``_divmod``, ``_gcd``, ``_pow`` and their helpers), which works on
bare coefficient sequences through the field's bound ops.  ``Polynomial`` is
the API boundary: its operators check their operands, call the kernel and
wrap the result.  ``factor`` runs its whole pipeline on the kernel and builds
``Polynomial`` objects only for its results.

Over GF(2) the kernel's ``_mul``, ``_divmod``, ``_gcd`` and ``_pow`` pack
their operands into one Python int, bit i holding the coefficient of x^i,
and unpack each result once (von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 8-9).  In that form a sum is an XOR, a product XORs shifted
copies of one operand, a square spreads the bits apart, and reduction and
Euclid are ``a ^= b << s`` loops.  Packing converts only through base 2
(``int(s, 2)`` and ``bin``), which the int/str digit limit does not cover.

Over an odd prime field ``_mul`` and ``_divmod`` pack by Kronecker
substitution (von zur Gathen and Gerhard, sec. 8.4; Harvey, J. Symbolic
Comput. 44, 2009): slot i of one int, a fixed number of bytes wide, holds the
coefficient of x^i as a nonnegative integer not yet reduced modulo p.  A
slot is as wide as the largest value it can reach.  A product's slots hold
sums of min(len a, len b) products of at most (p - 1)^2 each; it is one
big-int multiply, unpacked with one ``% p`` per slot.  A division's slots
hold at most (p - 1) + min(steps, deg b) * (p - 1)^2: it runs long division
on the packed dividend with lazy reduction, each step reading the top slot
modulo p and adding (p - c) times the divisor, shifted, so nothing is
subtracted and no borrow crosses a slot; the remainder is unpacked once.
``_gcd`` and ``_pow`` reach both through ``_divmod`` and ``_mul``.  Slots of
1, 2, 4 or 8 bytes convert through ``array`` in C, wider ones (p near 2^32
and beyond) byte string by byte string, so every prime packs.
``_row_combiner`` packs a matrix's rows once in the same form, for the
Frobenius step h Q in ``factor``.  Operands below the measured crossovers
``_PACK_MUL_MIN`` and ``_PACK_DIV_PAIRS`` stay on the coefficient loops,
which are faster there.
Extension fields run the coefficient loops through their log/Zech tables.
"""

from __future__ import annotations

import operator
import sys
from array import array

from .errors import ParseError
from .field import FieldSpec, power

NEG_INF = float("-inf")

_MAX_PARSE_DEGREE = 1 << 16

# Over an odd prime field a product packs when both operands have more than
# _PACK_MUL_MIN coefficients, and a division when its loop would take more
# than _PACK_DIV_PAIRS coefficient pairs, steps * deg(b).  Below these the
# coefficient loops are faster; they also skip zero coefficients, which a
# product with a short or sparse operand has many of.
_PACK_MUL_MIN = 6
_PACK_DIV_PAIRS = 32


# The list-level kernel.  A coefficient list is a sequence of element indices,
# ascending powers, with no trailing zeros, as in Polynomial._c.  Apart from
# _trim, these functions leave their arguments unchanged; a result may be an
# argument itself, so callers do not modify results in place either.


def _trim(cs: list) -> list:
    """cs without its trailing zeros, popped in place."""
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add(field: FieldSpec, a, b) -> list:
    add = field.add
    out = [add(x, y) for x, y in zip(a, b)]
    n = len(out)
    out.extend(a[n:])
    out.extend(b[n:])
    return _trim(out)


def _sub(field: FieldSpec, a, b) -> list:
    sub = field.sub
    out = [sub(x, y) for x, y in zip(a, b)]
    n = len(out)
    out.extend(a[n:])
    out.extend(sub(0, y) for y in b[n:])
    return _trim(out)


def _mul(field: FieldSpec, a, b) -> list:
    """The product, packed over GF(2) and past _PACK_MUL_MIN over odd prime
    fields, else by the schoolbook loop; over a field it needs no trimming."""
    if not a or not b:
        return []
    if field.q == 2:
        return _unpack(_mul2(_pack(a), _pack(b)))
    if len(a) > _PACK_MUL_MIN < len(b) and field.k == 1:
        return _mulp(a, b, field.p)
    add, mul = field.add, field.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = add(out[i + j], mul(ca, cb))
    return out


def _divmod(field: FieldSpec, a, b) -> tuple:
    """(quotient, remainder) of a by nonzero b, by long division."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    steps = len(a) - db
    if steps <= 0:
        return [], a
    if field.q == 2:
        quot, rem = _divmod2(_pack(a), _pack(b))
        return _unpack(quot), _unpack(rem)
    if steps * db > _PACK_DIV_PAIRS and field.k == 1:
        return _divmodp(a, b, field.p)
    a = list(a)
    sub, mul = field.sub, field.mul
    invlead = field.inv(b[-1])
    quot = [0] * steps
    for i in range(steps - 1, -1, -1):
        c = a[i + db]
        if c:
            if invlead != 1:
                c = mul(c, invlead)
            quot[i] = c
            for j in range(db):
                if b[j]:
                    a[i + j] = sub(a[i + j], mul(c, b[j]))
    del a[db:]
    return quot, _trim(a)


def _monic(field: FieldSpec, a):
    """a scaled to leading coefficient 1; a itself when zero or monic."""
    if not a or a[-1] == 1:
        return a
    mul, c = field.mul, field.inv(a[-1])
    return [mul(x, c) for x in a]


def _gcd(field: FieldSpec, a, b):
    """The monic greatest common divisor, by Euclid (gcd(0, 0) = 0)."""
    if field.q == 2:
        a, b = _pack(a), _pack(b)
        while b:
            a, b = b, _divmod2(a, b)[1]
        return _unpack(a)
    while b:
        a, b = b, _divmod(field, a, b)[1]
    return _monic(field, a)


def _pow(field: FieldSpec, a, e: int, mod=None) -> list:
    """a**e by square-and-multiply, reduced modulo mod unless it is None."""
    if mod is None:
        if field.q == 2:
            return _unpack(power(_mul2, _pack(a), e, 1))
        return power(lambda u, v: _mul(field, u, v), a, e, [1])
    if not mod:
        raise ZeroDivisionError("zero modulus")
    # every residue modulo a unit is 0, so e = 0 gives 1 % mod as well
    if field.q == 2:
        m = _pack(mod)
        return _unpack(power(lambda u, v: _divmod2(_mul2(u, v), m)[1],
                             _divmod2(_pack(a), m)[1], e, _divmod2(1, m)[1]))
    return power(lambda u, v: _divmod(field, _mul(field, u, v), mod)[1],
                 _divmod(field, a, mod)[1], e, _divmod(field, [1], mod)[1])


# GF(2) polynomials packed into ints: bit i is the coefficient of x^i.

_DIGITS = bytes.maketrans(b"\0\1", b"01")
_BITS = bytes.maketrans(b"01", b"\0\1")


def _pack(a) -> int:
    return int(bytes(a[::-1]).translate(_DIGITS), 2) if a else 0


def _unpack(x: int) -> list:
    return list(bin(x)[:1:-1].encode().translate(_BITS)) if x else []


def _mul2(x: int, y: int) -> int:
    """The product of packed x and y: a square spreads the bits of x apart,
    any other product XORs y shifted to each set bit of the shorter x."""
    if x == y:
        return int("0".join(bin(x)[2:]), 2)
    if x.bit_length() > y.bit_length():
        x, y = y, x
    out = 0
    for i, bit in enumerate(bin(x)[:1:-1]):
        if bit == "1":
            out ^= y << i
    return out


def _divmod2(a: int, b: int) -> tuple:
    """(quotient, remainder) of packed a by nonzero packed b."""
    db = b.bit_length()
    quot = 0
    while (s := a.bit_length() - db) >= 0:
        quot |= 1 << s
        a ^= b << s
    return quot, a


# Odd prime fields: a coefficient list packed into one int of fixed-width
# byte slots, slot i holding the coefficient of x^i, possibly unreduced.

_TYPECODES = {array(t).itemsize: t for t in "BHIQ"}


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for values up to bound >= 1: 1, 2, 4 or 8, whose
    arrays convert in C, or else as many as bound needs."""
    n = (bound.bit_length() + 7) // 8
    return n if n > 8 else 1 << (n - 1).bit_length()


def _pack_slots(a, w: int) -> int:
    """The coefficients a, each below 2^(8 w), in slots of w bytes."""
    tc = _TYPECODES.get(w)
    if tc is None:
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a),
                              "little")
    arr = array(tc, a)
    if sys.byteorder == "big":
        arr.byteswap()
    return int.from_bytes(arr, "little")


def _unpack_slots(x: int, n: int, w: int, p: int) -> list:
    """The n slots of width w in x, each reduced modulo p."""
    data = x.to_bytes(n * w, "little")
    tc = _TYPECODES.get(w)
    if tc is None:
        return [int.from_bytes(data[i:i + w], "little") % p
                for i in range(0, n * w, w)]
    arr = array(tc, data)
    if sys.byteorder == "big":
        arr.byteswap()
    return [c % p for c in arr]


def _mulp(a, b, p: int) -> list:
    """The product of nonzero a and b over GF(p): one multiply of the
    packed operands, whose slots hold sums of min(len a, len b) products."""
    w = _slot_bytes(min(len(a), len(b)) * (p - 1) ** 2)
    x = _pack_slots(a, w)
    return _unpack_slots(x * (x if a is b else _pack_slots(b, w)),
                         len(a) + len(b) - 1, w, p)


def _divmodp(a, b, p: int) -> tuple:
    """(quotient, remainder) of a by b over GF(p), len(a) >= len(b), by
    long division on packed a with lazy reduction.  Step i reads the top
    slot s, removes it and adds (p - c) mod p times b less its leading term,
    shifted by i, for c = s * lead^-1 mod p: nothing is subtracted below the
    top, so no borrow crosses a slot, and a slot gets at most
    min(steps, deg b) such terms of at most (p - 1)^2 each."""
    db = len(b) - 1
    steps = len(a) - db
    w = _slot_bytes(p - 1 + min(steps, db) * (p - 1) ** 2)
    bits = 8 * w
    x = _pack_slots(a, w)
    low = _pack_slots(b[:db], w)
    inv = pow(b[-1], p - 2, p)
    quot = [0] * steps
    for i in range(steps - 1, -1, -1):
        top = x >> bits * (i + db)
        c = top * inv % p
        quot[i] = c
        x += (-c % p * low - (top << bits * db)) << bits * i
    return quot, _trim(_unpack_slots(x, db, w, p))


def _row_combiner(p: int, rows):
    """h -> sum_j h[j] * rows[j] over GF(p), for len(h) <= len(rows), with
    the rows packed once: multiply-adds of packed ints and one unpack."""
    w = _slot_bytes(len(rows) * (p - 1) ** 2)
    packed = [_pack_slots(r, w) for r in rows]
    n = len(rows[0])
    return lambda h: _unpack_slots(sum(map(operator.mul, h, packed)), n, w, p)


def _derivative(field: FieldSpec, a) -> list:
    mul, p = field.mul, field.p
    return _trim([mul(c, i % p) for i, c in enumerate(a)][1:])


class Polynomial:
    __slots__ = ("field", "_c")

    def __init__(self, field: FieldSpec, coeffs=()):
        cs = [field._index(c, "coefficient") for c in coeffs]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_c", tuple(_trim(cs)))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, field, coeffs: list) -> "Polynomial":
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "_c", tuple(_trim(coeffs)))
        return obj

    @classmethod
    def zero(cls, field) -> "Polynomial":
        return cls._raw(field, [])

    @classmethod
    def one(cls, field) -> "Polynomial":
        return cls._raw(field, [1])

    @classmethod
    def x(cls, field) -> "Polynomial":
        return cls._raw(field, [0, 1])

    @property
    def degree(self):
        return len(self._c) - 1 if self._c else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    @property
    def coeff_indices(self) -> tuple:
        return self._c

    @property
    def leading(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected a Polynomial, got {other!r}")
        if other.field != self.field:
            raise ValueError("polynomials over different fields")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial._raw(self.field, _add(self.field, self._c, other._c))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial._raw(self.field, _sub(self.field, self._c, other._c))

    def __neg__(self):
        neg = self.field.neg
        return Polynomial._raw(self.field, [neg(c) for c in self._c])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial._raw(self.field, _mul(self.field, self._c, other._c))

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        quot, rem = _divmod(self.field, self._c, other._c)
        return Polynomial._raw(self.field, quot), Polynomial._raw(self.field, rem)

    def __floordiv__(self, other):
        r = self.__divmod__(other)
        return r[0] if r is not NotImplemented else NotImplemented

    def __mod__(self, other):
        r = self.__divmod__(other)
        return r[1] if r is not NotImplemented else NotImplemented

    def __pow__(self, e: int, mod: "Polynomial | None" = None):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if mod is not None:
            self._check(mod)
            mod = mod._c
        return Polynomial._raw(self.field, _pow(self.field, self._c, e, mod))

    def __call__(self, x: int) -> int:
        """The value at the element with index x, by Horner."""
        if not isinstance(x, int):
            raise TypeError(f"evaluation point must be an index, got {x!r}")
        if not 0 <= x < self.field.q:
            raise ValueError(
                f"evaluation point {x} out of range [0, {self.field.q})")
        add, mul = self.field.add, self.field.mul
        acc = 0
        for c in reversed(self._c):
            acc = add(mul(acc, x), c)
        return acc

    def monic(self) -> "Polynomial":
        cs = _monic(self.field, self._c)
        return self if cs is self._c else Polynomial._raw(self.field, cs)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor (gcd(0, 0) = 0)."""
        self._check(other)
        return Polynomial._raw(self.field, _gcd(self.field, self._c, other._c))

    def derivative(self) -> "Polynomial":
        return Polynomial._raw(self.field, _derivative(self.field, self._c))

    def sort_key(self):
        """Canonical order: (degree, coefficient indices low power to high)."""
        return (len(self._c), self._c)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self._c == other._c

    def __hash__(self):
        return hash((self.field, self._c))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({self.field}, {format_poly(self)!r})"


def monic_polys(field: FieldSpec, degree: int):
    """Yield every monic polynomial of the given degree, in index order."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    for cs in _monic_coeffs(field.q, degree):
        yield Polynomial._raw(field, cs)


def _monic_coeffs(q: int, degree: int):
    """The coefficient lists of monic_polys over a field of order q."""
    for v in range(q ** degree):
        cs = []
        t = v
        for _ in range(degree):
            cs.append(t % q)
            t //= q
        cs.append(1)
        yield cs


def format_poly(f: Polynomial) -> str:
    """Descending powers, zero terms omitted, unit coefficients implicit."""
    if f.is_zero:
        return "0"
    parts = []
    cs = f.coeff_indices
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("x" if c == 1 else f"{c}*x")
        else:
            parts.append(f"x^{e}" if c == 1 else f"{c}*x^{e}")
    return "+".join(parts)


def parse_poly(text: str, field: FieldSpec) -> Polynomial:
    """Parse the sum-of-terms format: terms c*x^e, x^e, x, or c joined by +."""
    stripped = [(i, ch) for i, ch in enumerate(text) if not ch.isspace()]
    if not stripped:
        raise ParseError("empty polynomial text", 0)
    chars = [ch for _, ch in stripped]
    positions = [i for i, _ in stripped]
    n = len(chars)
    pos = 0

    def fail(msg, at):
        raise ParseError(msg, positions[at] if at < n else len(text))

    def read_int(what):
        nonlocal pos
        start = pos
        while pos < n and chars[pos].isdigit():
            pos += 1
        if pos == start:
            fail(f"expected {what}", start)
        return int("".join(chars[start:pos])), start

    coeffs = {}
    add = field.add
    while True:
        if pos < n and chars[pos].isdigit():
            c, at = read_int("a coefficient")
            if c >= field.q:
                fail(f"coefficient {c} out of range [0, {field.q})", at)
            if pos < n and chars[pos] == "*":
                pos += 1
                if pos >= n or chars[pos] != "x":
                    fail("expected x after *", pos)
            else:
                coeffs[0] = add(coeffs.get(0, 0), c)
                c = None
        elif pos < n and chars[pos] == "x":
            c = 1
        else:
            fail("expected a term", pos)
        if c is not None:
            # at an x
            pos += 1
            e = 1
            if pos < n and chars[pos] == "^":
                pos += 1
                e, at = read_int("an exponent")
                if e > _MAX_PARSE_DEGREE:
                    fail(f"exponent {e} too large", at)
            coeffs[e] = add(coeffs.get(e, 0), c)
        if pos == n:
            break
        if chars[pos] != "+":
            fail("expected + between terms", pos)
        pos += 1
        if pos == n:
            fail("trailing +", pos - 1)

    top = max(coeffs)
    out = [coeffs.get(i, 0) for i in range(top + 1)]
    return Polynomial._raw(field, out)
