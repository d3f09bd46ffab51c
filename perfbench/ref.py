"""Reference arithmetic over GF(q) for generating inputs and checking outputs.

This is the benchmark's own implementation, written without the package under
test, so a check never re-runs the function whose output it judges.  Field
elements use the package's documented index encoding: the element with
coefficients (c_0, ..., c_{k-1}) over GF(p) has index sum(c_i * p^i), and
GF(p^k) is built on the first monic irreducible of degree k in ascending
coefficient order.  Polynomials are coefficient lists, ascending, with no
trailing zeros; matrices are lists of rows.
"""

from __future__ import annotations


def prime_power(q: int) -> tuple:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, t = 0, q
    while t % p == 0:
        t //= p
        k += 1
    if t != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def _pp_mulmod(a: list, b: list, mod: list, p: int) -> list:
    """Product of two GF(p) coefficient lists, reduced by the monic mod."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    k = len(mod) - 1
    for top in range(len(out) - 1, k - 1, -1):
        c = out[top]
        if c:
            for j in range(k + 1):
                out[top - k + j] = (out[top - k + j] - c * mod[j]) % p
    return (out + [0] * k)[:k]


def _digits(v: int, p: int, k: int) -> list:
    out = []
    for _ in range(k):
        out.append(v % p)
        v //= p
    return out


def _undigits(cs: list, p: int) -> int:
    v = 0
    for c in reversed(cs):
        v = v * p + c
    return v


class RefField:
    """GF(q) on element indices, with log/antilog tables for extensions."""

    def __init__(self, q: int):
        p, k = prime_power(q)
        self.p, self.k, self.q = p, k, q
        self.modulus = None
        if k == 1:
            return
        self.modulus = next(
            m for m in (_digits(v, p, k) + [1] for v in range(p ** k))
            if self._irreducible_over_prime(m))
        for g in range(2, q):
            exp = [1]
            cur = _digits(1, p, k)
            gd = _digits(g, p, k)
            for _ in range(q - 2):
                cur = _pp_mulmod(cur, gd, self.modulus, p)
                exp.append(_undigits(cur, p))
            if len(set(exp)) == q - 1:
                break
        self._exp = exp + exp
        self._log = [0] * q
        for i, e in enumerate(exp):
            self._log[e] = i
        if p != 2:
            self._add = [[_undigits([(x + y) % p for x, y in zip(
                _digits(a, p, k), _digits(b, p, k))], p) for b in range(q)]
                for a in range(q)]

    def _irreducible_over_prime(self, m: list) -> bool:
        """Trial division by every monic polynomial of degree <= k/2."""
        p, k = self.p, len(m) - 1
        Fp = RefField(p)
        return all(poly_divmod(Fp, m, _digits(v, p, d) + [1])[1]
                   for d in range(1, k // 2 + 1) for v in range(p ** d))

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self._add[a][b]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if self.p == 2:
            return a
        return _undigits([-c % self.p for c in _digits(a, self.p, self.k)],
                         self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]


# ----------------------------------------------------------------------------
# Polynomials

def trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(F: RefField, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return trim(out)


def poly_sub(F: RefField, a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return trim([F.sub(x, y) for x, y in zip(a, b)])


def poly_divmod(F: RefField, a: list, b: list) -> tuple:
    r = trim(list(a))
    db = len(b) - 1
    if len(r) - 1 < db:
        return [], r
    il = F.inv(b[-1])
    quo = [0] * (len(r) - db)
    for i in range(len(r) - 1 - db, -1, -1):
        c = F.mul(r[i + db], il)
        quo[i] = c
        if c:
            for j in range(db + 1):
                r[i + j] = F.sub(r[i + j], F.mul(c, b[j]))
    return trim(quo), trim(r[:db])


def poly_monic(F: RefField, a: list) -> list:
    il = F.inv(a[-1])
    return [F.mul(c, il) for c in a]


def poly_gcd(F: RefField, a: list, b: list) -> list:
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    return poly_monic(F, a) if a else a


def poly_pow(F: RefField, a: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = poly_mul(F, out, a)
    return out


def _gf2_mulmod(a: int, b: int, f: int, df: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> df & 1:
            a ^= f
    return out


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def is_irreducible(F: RefField, f: list) -> bool:
    """Ben-Or's test: f of degree n is irreducible exactly when
    gcd(x^(q^m) - x, f) = 1 for every m <= n/2.  Over GF(2) the polynomials
    are packed into ints."""
    n = len(f) - 1
    if n < 1:
        return False
    f = poly_monic(F, f)
    if F.q == 2:
        fi = sum(1 << i for i, c in enumerate(f) if c)
        h = 2
        for _ in range(n // 2):
            h = _gf2_mulmod(h, h, fi, n)
            if _gf2_gcd(fi, h ^ 2) != 1:
                return False
        return True
    x = [0, 1]
    h = x
    for _ in range(n // 2):
        base, e, acc = h, F.q, [1]
        while e:
            if e & 1:
                acc = poly_divmod(F, poly_mul(F, acc, base), f)[1]
            e >>= 1
            if e:
                base = poly_divmod(F, poly_mul(F, base, base), f)[1]
        h = acc
        if len(poly_gcd(F, poly_sub(F, h, x), f)) != 1:
            return False
    return True


def random_monic(F: RefField, degree: int, rng) -> list:
    return [rng.randrange(F.q) for _ in range(degree)] + [1]


def random_irreducible(F: RefField, degree: int, rng) -> list:
    while True:
        f = random_monic(F, degree, rng)
        if is_irreducible(F, f):
            return f


def format_poly(f: list) -> str:
    """The package's polynomial text format, descending, unit coefficients
    implicit."""
    parts = []
    for e in range(len(f) - 1, -1, -1):
        c = f[e]
        if not c:
            continue
        mono = "" if e == 0 else "x" if e == 1 else f"x^{e}"
        if not mono:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(parts) or "0"


def parse_poly(text: str) -> list:
    """Inverse of format_poly for the output the package prints."""
    out = {}
    for term in text.split("+"):
        coef, _, mono = term.rpartition("*") if "*" in term else (
            ("", "", term) if "x" in term else (term, "", ""))
        c = int(coef) if coef else 1
        e = 0 if not mono else 1 if mono == "x" else int(mono[2:])
        out[e] = c
    top = max(out)
    return trim([out.get(i, 0) for i in range(top + 1)])


# ----------------------------------------------------------------------------
# Matrices

def mat_vec(F: RefField, A: list, v: list) -> list:
    out = []
    for row in A:
        s = 0
        for x, y in zip(row, v):
            if x and y:
                s = F.add(s, F.mul(x, y))
        out.append(s)
    return out


def mat_mul(F: RefField, A: list, B: list) -> list:
    cols = list(zip(*B))
    out = []
    for row in A:
        out_row = []
        for col in cols:
            s = 0
            for x, y in zip(row, col):
                if x and y:
                    s = F.add(s, F.mul(x, y))
            out_row.append(s)
        out.append(out_row)
    return out


def rref(F: RefField, rows: list) -> tuple:
    """(reduced nonzero rows, pivot columns) by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        ic = F.inv(rows[r][col])
        rows[r] = [F.mul(c, ic) for c in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != r and c:
                rows[i] = [F.sub(x, F.mul(c, y))
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(F: RefField, rows: list) -> int:
    return len(rref(F, rows)[1])


def mat_inv(F: RefField, A: list):
    """Inverse of A, or None when A is singular."""
    n = len(A)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(A)]
    red, pivots = rref(F, aug)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return [row[n:] for row in red[:n]]


def random_invertible(F: RefField, n: int, rng) -> tuple:
    while True:
        P = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        Pi = mat_inv(F, P)
        if Pi is not None:
            return P, Pi


def companion(F: RefField, f: list) -> list:
    """Ones on the subdiagonal, -f_i down the last column."""
    n = len(f) - 1
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        C[i][n - 1] = F.neg(f[i])
    for i in range(n - 1):
        C[i + 1][i] = 1
    return C


def block_diagonal(blocks: list) -> list:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def format_matrix(A: list) -> str:
    return ";".join(",".join(map(str, row)) for row in A)


def parse_matrix(text: str) -> list:
    return [[int(c) for c in row.split(",")] for row in text.split(";")]


# ----------------------------------------------------------------------------
# Closed forms, computed here from their definitions

def gl_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def irreducible_count(q: int, n: int) -> int:
    """Matrices with a given irreducible charpoly: prod (q^n - q^i), i < n."""
    out = 1
    for i in range(1, n):
        out *= q ** n - q ** i
    return out


def charpoly_count(q: int, shape: list) -> int:
    """Matrices with charpoly prod f_i^m_i, from the factor shape [(d_i, m_i)]:
    q^(n^2 - n) prod_{j<=n} (1 - q^-j) / prod_i prod_{j<=m_i} (1 - q^(-d_i j)),
    evaluated with exact fractions."""
    from fractions import Fraction
    n = sum(d * m for d, m in shape)
    out = Fraction(q) ** (n * n - n)
    for j in range(1, n + 1):
        out *= 1 - Fraction(1, q ** j)
    for d, m in shape:
        for j in range(1, m + 1):
            out /= 1 - Fraction(1, q ** (d * j))
    if out.denominator != 1:
        raise ArithmeticError("charpoly count is not an integer")
    return out.numerator


def centralizer_dimension(degrees: list) -> int:
    """dim C(M) for invariant factors of the given degrees, each dividing the
    next: sum over i, j of deg gcd(f_i, f_j) = sum_i (2(r - i) + 1) deg f_i
    with i = 1..r (Frobenius)."""
    r = len(degrees)
    return sum((2 * (r - i) + 1) * d for i, d in enumerate(degrees, 1))
