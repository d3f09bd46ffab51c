"""Irreducibility testing and complete factorization over GF(q).

The pipeline is classical: squarefree decomposition (with p-th root
extraction when the derivative vanishes), then distinct-degree splitting by
Frobenius powers, then Cantor-Zassenhaus equal-degree splitting.  Splitting
uses a seeded deterministic generator, and the factor list is sorted into the
canonical polynomial order, so the result is independent of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .field import FieldSpec, _trial_division
from .poly import Polynomial


@dataclass(frozen=True)
class Factorization:
    leading: int  # index of the leading coefficient
    factors: tuple  # ((monic irreducible Polynomial, multiplicity), ...)

    def expand(self, field: FieldSpec) -> Polynomial:
        """The product leading * f^m over the factors, in GF(q)[x]."""
        out = Polynomial._raw(field, [self.leading])
        for f, m in self.factors:
            out = out * pow(f, m)
        return out

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
    if f.degree == 0:
        return False
    return next(_distinct_degree(f.monic()))[0] == f.degree


def _pth_root(f: Polynomial) -> Polynomial:
    """Inverse of g -> g^p for f with zero derivative (perfect-field case)."""
    field = f.field
    p, k = field.p, field.k
    cs = f.coeff_indices
    out = []
    e = p ** (k - 1)
    for i in range(0, len(cs), p):
        out.append(field.pow(cs[i], e))
    if any(c for i, c in enumerate(cs) if i % p):
        raise RuntimeError("not a p-th power")
    return Polynomial._raw(field, out)


def _squarefree_parts(f: Polynomial) -> list:
    """[(monic squarefree part, multiplicity)] for monic f, any degree."""
    if f.degree < 1:
        return []
    p = f.field.p
    parts = []
    c = f.gcd(f.derivative())  # f itself when the derivative vanishes
    w = f // c
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w // y
        if z.degree > 0:
            parts.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        parts.extend((g, m * p) for g, m in _squarefree_parts(_pth_root(c)))
    return parts


def _distinct_degree(v: Polynomial):
    """Yield (d, product of the irreducible factors of degree d) for monic
    squarefree v, d ascending.  For any monic v the first d is deg(v)
    exactly when v is irreducible."""
    q = v.field.q
    x = Polynomial.x(v.field)
    h = x
    d = 1
    while 2 * d <= v.degree:
        h = pow(h, q, v)
        g = v.gcd(h - x)
        if g.degree > 0:
            yield d, g
            v = v // g
            h = h % v
        d += 1
    if v.degree > 0:
        yield v.degree, v


def _edf_split(u: Polynomial, d: int, rng: random.Random) -> Polynomial:
    """One proper monic factor of u, a product of >= 2 irreducibles of degree d."""
    field = u.field
    q = field.q
    D = u.degree
    if field.p == 2:
        steps = field.k * d - 1
        while True:
            r = Polynomial._raw(field, [rng.randrange(q) for _ in range(D)])
            acc = r % u
            cur = acc
            for _ in range(steps):
                cur = pow(cur, 2, u)
                acc = acc + cur
            g = acc.gcd(u)
            if 0 < g.degree < D:
                return g
    else:
        e = (q ** d - 1) // 2
        one = Polynomial.one(field)
        while True:
            r = Polynomial._raw(field, [rng.randrange(q) for _ in range(D)])
            s = pow(r, e, u)
            g = (s - one).gcd(u)
            if 0 < g.degree < D:
                return g


def _equal_degree(prod: Polynomial, d: int, rng: random.Random) -> list:
    out = []
    stack = [prod.monic()]
    while stack:
        u = stack.pop()
        if u.degree == d:
            out.append(u)
            continue
        g = _edf_split(u, d, rng)
        stack.append(g.monic())
        stack.append((u // g).monic())
    return out


def factorize(g: Polynomial, seed: int = 0) -> Factorization:
    """Complete factorization into monic irreducibles with multiplicities."""
    if g.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    lead = g.leading
    m = g.monic()
    rng = random.Random(seed)
    found = []
    for part, mult in _squarefree_parts(m):
        for d, prod_d in _distinct_degree(part):
            for f in _equal_degree(prod_d, d, rng):
                found.append((f, mult))
    found.sort(key=lambda t: t[0].sort_key())
    fact = Factorization(lead, tuple(found))
    if fact.expand(g.field) != g:
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
