"""Per-op correctness checks, computed with the benchmark's own arithmetic.

``check(op, rc, out, err, F)`` returns None when the op's output is right and
a one-line reason when it is not.  A non-zero exit is a failure: every op in a
timed list is one the CLI should answer.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import ref


@contextmanager
def _unlimited_int_str():
    """Lift Python's int <-> str digit limit while checking, so a count longer
    than the default limit can still be read back.  Never active while the
    program runs."""
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(old)


def _poly_product(F, factors) -> list:
    out = [1]
    for f, m in factors:
        out = ref.poly_mul(F, out, ref.poly_pow(F, f, m))
    return out


def _factor_list_error(F, pairs, target) -> str | None:
    """Pairs of (monic irreducible, multiplicity) must expand to target."""
    for f, m in pairs:
        if m < 1 or not f or f[-1] != 1:
            return f"factor {ref.format_poly(f)}^{m} is not a monic power"
        if not ref.is_irreducible(F, f):
            return f"factor {ref.format_poly(f)} is reducible"
    if _poly_product(F, pairs) != target:
        return "factors do not expand to the input"
    return None


def _check_verify(op, res, F):
    q, n = op.q, op.info["n"]
    want = q ** (n * n)
    if res["pass"] is not True:
        return "pass is not true"
    if int(res["total"]) != want or int(res["expected_total"]) != want:
        return f"total {res['total']} is not {q}^{n * n}"
    if res["mismatches"]:
        return "mismatches reported"
    return None


def _check_rcf(op, res, F):
    M = op.info["matrix"]
    n = len(M)
    blocks = [ref.parse_poly(b) for b in res["blocks"]]
    P = ref.parse_matrix(res["transition"])
    if res["dimension"] != n or len(P) != n or any(len(r) != n for r in P):
        return "transition has the wrong shape"
    if any(not b or b[-1] != 1 or len(b) < 2 for b in blocks):
        return "a block is not monic of degree >= 1"
    if _poly_product(F, [(b, 1) for b in blocks]) != op.info["charpoly"]:
        return "product of blocks is not the charpoly"
    if ref.rank(F, P) != n:
        return "transition is singular"
    D = ref.block_diagonal([ref.companion(F, b) for b in blocks])
    if ref.mat_mul(F, M, P) != ref.mat_mul(F, P, D):
        return "M P != P D"
    return None


def _check_centralizer(op, res, F):
    M = op.info["matrix"]
    q, n = op.q, len(M)
    degrees = op.info["invariant_degrees"]
    basis = [ref.parse_matrix(b) for b in res["basis"]]
    dim = res["dimension"]
    if dim != len(basis) or dim != ref.centralizer_dimension(degrees):
        return f"dimension {dim} is wrong"
    for X in basis:
        if ref.mat_mul(F, M, X) != ref.mat_mul(F, X, M):
            return "a basis element does not commute with M"
    if ref.rank(F, [sum(X, []) for X in basis]) != dim:
        return "basis is linearly dependent"
    if int(res["order"]) != q ** dim:
        return "order is not q^dim"
    if res["is_polynomial_centralizer"] != (len(degrees) == 1):
        return "is_polynomial_centralizer is wrong"
    units = res["unit_count"]
    if ref.is_irreducible(F, op.info["charpoly"]):
        if units is None or int(units) != q ** n - 1:
            return "unit count of a field centralizer is not q^n - 1"
    elif (units is None) != (q ** dim > int(op.argv[op.argv.index(
            "--budget") + 1])):
        return "unit count missing within budget, or present beyond it"
    return None


def _check_orbit(op, res, F):
    q, n = op.q, len(op.info["matrix"])
    gl = ref.gl_order(q, n)
    stab = int(res["stabilizer_order"])
    if res["charpoly"] != ref.format_poly(op.info["charpoly"]):
        return "charpoly is wrong"
    if int(res["gl_order"]) != gl:
        return "gl_order is wrong"
    if stab != q ** n - 1 or int(res["orbit_size"]) * stab != gl:
        return "orbit x stabilizer != |GL_n(q)|"
    if int(res["formula_count"]) != ref.irreducible_count(q, n):
        return "formula_count is wrong"
    if res["consistent"] is not True:
        return "consistent is not true"
    return None


def _check_factor(op, res, F):
    f = op.info["poly"]
    lead = int(res["leading"])
    if lead != f[-1]:
        return "leading coefficient is wrong"
    pairs = [(ref.parse_poly(t), m) for t, m in res["factors"]]
    monic = [F.mul(F.inv(lead), c) for c in f]
    return _factor_list_error(F, pairs, monic)


def _check_count_poly(op, res, F):
    q, f = op.q, op.info["poly"]
    pairs = [(ref.parse_poly(t), m) for t, m in res["factorization"]]
    err = _factor_list_error(F, pairs, f)
    if err:
        return err
    count = int(res["count"])
    irreducible = len(pairs) == 1 and pairs[0][1] == 1
    if res["formula"] != ("theorem1" if irreducible else "general"):
        return "formula label is wrong"
    if op.info["irreducible"]:
        if not irreducible:
            return "an irreducible input was factored"
        if count != ref.irreducible_count(q, len(f) - 1):
            return "count is not prod (q^n - q^i)"
    if count != ref.charpoly_count(q, [(len(g) - 1, m) for g, m in pairs]):
        return "count disagrees with the charpoly formula"
    return None


def _check_count_n(op, res, F):
    if res["formula"] != "theorem1" or res["factorization"] is not None:
        return "count --n must report the theorem1 form"
    if int(res["count"]) != ref.irreducible_count(op.q, op.info["n"]):
        return "count is not prod (q^n - q^i)"
    return None


CHECKS = {
    "verify": _check_verify,
    "rcf": _check_rcf,
    "rcf_noncyclic": _check_rcf,
    "centralizer": _check_centralizer,
    "orbit": _check_orbit,
    "factor": _check_factor,
    "count_poly": _check_count_poly,
    "count_n": _check_count_n,
}


def check(op, rc: int, out: str, err: str, F) -> str | None:
    """None when the op succeeded with a correct result, else the reason."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[:160]}"
    try:
        env = json.loads(out)
        if env["command"] != op.argv[0]:
            return f"command {env['command']!r} is not {op.argv[0]!r}"
        field = env["params"]["field"]
        modulus = F.modulus and ref.format_poly(F.modulus)
        if field["q"] != op.q or field["modulus"] != modulus:
            return "the envelope names another field"
        with _unlimited_int_str():
            return CHECKS[op.kind](op, env["result"], F)
    except (ArithmeticError, ValueError, KeyError, TypeError,
            IndexError) as exc:
        return f"malformed output: {exc!r}"[:200]
