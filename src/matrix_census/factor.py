"""Irreducibility testing and complete factorization over GF(q).

The pipeline is classical: squarefree decomposition (with p-th root
extraction when the derivative vanishes), then distinct-degree splitting by
Frobenius powers, then Cantor-Zassenhaus equal-degree splitting (von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 14).  Splitting uses a
seeded deterministic generator, and the factor list is sorted into the
canonical polynomial order, so the result is independent of the seed.

Every stage works on coefficient lists through the list-level kernel in
``poly``.  ``Polynomial`` is the API boundary: ``factorize`` and
``is_irreducible`` take one and convert only at entry and exit.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .field import FieldSpec, _trial_division
from .poly import (Polynomial, _add, _derivative, _divmod, _gcd, _monic,
                   _mul, _pow, _sub, _trim)


# leading: index of the leading coefficient;
# factors: ((monic irreducible Polynomial, multiplicity), ...)
class Factorization(namedtuple("Factorization", "leading factors")):
    __slots__ = ()

    def expand(self, field: FieldSpec) -> Polynomial:
        """The product leading * f^m over the factors, in GF(q)[x]."""
        out = [self.leading]
        for f, m in self.factors:
            out = _mul(field, out, _pow(field, f.coeff_indices, m))
        return Polynomial._raw(field, out)

    @property
    def degree(self) -> int:
        return sum(f.degree * m for f, m in self.factors)


def is_irreducible(f: Polynomial) -> bool:
    """Ben-Or's test: gcd(x^(q^i) - x, f) = 1 for i = 1, ..., deg(f)/2,
    which is when the distinct-degree split first yields degree deg(f).

    A reducible f has a factor of degree i <= deg(f)/2, which divides
    x^(q^i) - x; most reducible inputs fail at a small i (Ben-Or, FOCS 1981;
    Gao and Panario, FoCM 1997).
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no irreducibility status")
    return _is_irreducible(f.field, f.coeff_indices)


def _is_irreducible(field: FieldSpec, f) -> bool:
    """is_irreducible on the coefficient list of a nonzero polynomial."""
    return (len(f) > 1 and
            next(_distinct_degree(field, _monic(field, f)))[0] == len(f) - 1)


def _pth_root(field: FieldSpec, f) -> list:
    """Inverse of g -> g^p for f with zero derivative (perfect-field case)."""
    p = field.p
    if any(c for i, c in enumerate(f) if i % p):
        raise RuntimeError("not a p-th power")
    e = p ** (field.k - 1)
    return [field.pow(c, e) for c in f[::p]]


def _squarefree_parts(field: FieldSpec, f) -> list:
    """[(monic squarefree part, multiplicity)] for monic f, any degree."""
    if len(f) < 2:
        return []
    parts = []
    c = _gcd(field, f, _derivative(field, f))  # f when the derivative vanishes
    w = _divmod(field, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _gcd(field, w, c)
        z = _divmod(field, w, y)[0]
        if len(z) > 1:
            parts.append((z, i))
        w = y
        c = _divmod(field, c, y)[0]
        i += 1
    if len(c) > 1:
        p = field.p
        parts.extend((g, m * p) for g, m in
                     _squarefree_parts(field, _pth_root(field, c)))
    return parts


def _distinct_degree(field: FieldSpec, v):
    """Yield (d, product of the irreducible factors of degree d) for monic
    squarefree v, d ascending.  For any monic v the first d is deg(v)
    exactly when v is irreducible."""
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


def _edf_split(field: FieldSpec, u, d: int, rng: random.Random) -> list:
    """One proper monic factor of u, a product of >= 2 irreducibles of degree d."""
    q = field.q
    D = len(u) - 1
    if field.p == 2:
        steps = field.k * d - 1
        while True:
            r = _trim([rng.randrange(q) for _ in range(D)])
            acc = _divmod(field, r, u)[1]
            cur = acc
            for _ in range(steps):
                cur = _pow(field, cur, 2, u)
                acc = _add(field, acc, cur)
            g = _gcd(field, acc, u)
            if 1 < len(g) <= D:
                return g
    else:
        e = (q ** d - 1) // 2
        while True:
            r = _trim([rng.randrange(q) for _ in range(D)])
            g = _gcd(field, _sub(field, _pow(field, r, e, u), [1]), u)
            if 1 < len(g) <= D:
                return g


def _equal_degree(field: FieldSpec, prod, d: int, rng: random.Random) -> list:
    out = []
    stack = [_monic(field, prod)]
    while stack:
        u = stack.pop()
        if len(u) - 1 == d:
            out.append(u)
            continue
        g = _edf_split(field, u, d, rng)
        stack.append(_monic(field, g))
        stack.append(_monic(field, _divmod(field, u, g)[0]))
    return out


def factorize(g: Polynomial, seed: int = 0) -> Factorization:
    """Complete factorization into monic irreducibles with multiplicities."""
    if g.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    field = g.field
    rng = random.Random(seed)
    found = []
    for part, mult in _squarefree_parts(field, _monic(field, g.coeff_indices)):
        for d, prod_d in _distinct_degree(field, part):
            for f in _equal_degree(field, prod_d, d, rng):
                found.append((Polynomial._raw(field, f), mult))
    found.sort(key=lambda t: t[0].sort_key())
    fact = Factorization(g.leading, tuple(found))
    if fact.expand(field) != g:
        raise RuntimeError("factorization does not reconstruct input")
    return fact


def count_monic_irreducibles(field: FieldSpec, n: int) -> int:
    """Necklace count (1/n) sum over d | n of mu(d) q^(n/d)."""
    if n < 1:
        raise ValueError("degree must be a positive integer")
    q = field.q
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            mu = _moebius(d)
            if mu:
                total += mu * q ** (n // d)
    if total % n:
        raise RuntimeError(
            f"necklace sum {total} for degree {n} is not divisible by {n}")
    return total // n


def _moebius(d: int) -> int:
    mu = 1
    for _, e in _trial_division(d):
        if e > 1:
            return 0
        mu = -mu
    return mu
