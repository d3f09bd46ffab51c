"""Univariate polynomials over a FieldSpec.

Coefficients are stored as a tuple of element indices, ascending powers, with
no trailing zeros (the zero polynomial is the empty tuple).  The degree of the
zero polynomial is the sentinel ``NEG_INF`` so degree comparisons behave in
arithmetic without a fake -1.
"""

from __future__ import annotations

import operator

from .errors import ParseError
from .field import FieldSpec, power

NEG_INF = float("-inf")

_MAX_PARSE_DEGREE = 1 << 16


class Polynomial:
    __slots__ = ("field", "_c")

    def __init__(self, field: FieldSpec, coeffs=()):
        cs = [field._index(c, "coefficient") for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_c", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, field, coeffs: list) -> "Polynomial":
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "_c", tuple(coeffs))
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
        add = self.field.add
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Polynomial._raw(self.field, out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        sub = self.field.sub
        a, b = self._c, other._c
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
        return Polynomial._raw(self.field, out)

    def __neg__(self):
        neg = self.field.neg
        return Polynomial._raw(self.field, [neg(c) for c in self._c])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        a, b = self._c, other._c
        if not a or not b:
            return Polynomial.zero(self.field)
        add, mul = self.field.add, self.field.mul
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = add(out[i + j], mul(ca, cb))
        return Polynomial._raw(self.field, out)

    def scale(self, c: int) -> "Polynomial":
        """Multiply by the constant with index c."""
        mul = self.field.mul
        return Polynomial._raw(self.field, [mul(x, c) for x in self._c])

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        a, b = list(self._c), other._c
        db = len(b) - 1
        if len(a) - 1 < db:
            return Polynomial.zero(field), Polynomial._raw(field, a)
        sub, mul = field.sub, field.mul
        invlead = field.inv(b[-1])
        quot = [0] * (len(a) - db)
        for i in range(len(a) - 1 - db, -1, -1):
            c = mul(a[i + db], invlead)
            quot[i] = c
            if c:
                for j in range(db):
                    a[i + j] = sub(a[i + j], mul(c, b[j]))
            a[i + db] = 0
        return Polynomial._raw(field, quot), Polynomial._raw(field, a)

    def __floordiv__(self, other):
        r = self.__divmod__(other)
        return r[0] if r is not NotImplemented else NotImplemented

    def __mod__(self, other):
        r = self.__divmod__(other)
        return r[1] if r is not NotImplemented else NotImplemented

    def __pow__(self, e: int, mod: "Polynomial | None" = None):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        one = Polynomial.one(self.field)
        if mod is None:
            return power(operator.mul, self, e, one)
        self._check(mod)
        if mod.is_zero:
            raise ZeroDivisionError("zero modulus")
        return power(lambda a, b: a * b % mod, self % mod, e, one)

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
        if self.is_zero or self._c[-1] == 1:
            return self
        return self.scale(self.field.inv(self._c[-1]))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor (gcd(0, 0) = 0)."""
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def derivative(self) -> "Polynomial":
        mul = self.field.mul
        p = self.field.p
        out = [mul(c, i % p) for i, c in enumerate(self._c)][1:]
        return Polynomial._raw(self.field, out)

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
    if degree == 0:
        yield Polynomial.one(field)
        return
    q = field.q
    for v in range(q ** degree):
        cs = []
        t = v
        for _ in range(degree):
            cs.append(t % q)
            t //= q
        cs.append(1)
        yield Polynomial._raw(field, cs)


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
