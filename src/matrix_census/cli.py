"""Command-line interface.

Every successful invocation prints exactly one JSON envelope on stdout:

    {"schema_version": "1", "command": ..., "params": ..., "result": ...,
     "timing_ms": ...}

Counts are serialized as decimal strings so no output value is ever clamped
to a machine integer.  Errors go to stderr as a single ``error:<kind>:...``
line with exit code 1 (domain), 2 (usage) or 3 (budget).  Kind ``internal``,
also exit 1, means a published count failed its own consistency check, and
nothing is printed on stdout.  ``--repro`` pins timing_ms to 0 so output is
byte-stable for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .canonical import rcf
from .centralizer import (DEFAULT_SPAN_BUDGET, centralizer,
                          centralizer_unit_count, is_polynomial_centralizer)
from .census import (DEFAULT_ENUMERATION_BUDGET, _count_from_factors,
                     census_bruteforce, count_irreducible_case,
                     orbit_stabilizer_report, verify_partition)
from .errors import BudgetError, ParseError
from .factor import factorize
from .field import (DEFAULT_FIELD_ORDER_BUDGET, _prime_power, is_prime,
                    make_field)
from .matrix import format_matrix, parse_matrix
from .poly import Polynomial, format_poly, parse_poly


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    top = _Parser(
        prog="matrix-census",
        description="Exact matrix counts over finite fields by "
                    "characteristic polynomial.",
        epilog="Text formats: field elements are decimal indices in [0, q); "
               "polynomials are sums like x^2+2*x+1; matrices are rows "
               "joined by ';' with ',' between entries, e.g. 0,1;1,1.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, matrix=False, poly=False, needs_n=False):
        p.add_argument("--q", type=int, required=True,
                       help="field order (prime, or prime power without --k)")
        p.add_argument("--k", type=int, default=None,
                       help="extension degree over the prime field")
        if needs_n:
            p.add_argument("--n", type=int, default=None,
                           help="matrix dimension")
        if matrix:
            p.add_argument("--matrix", required=True,
                           help="matrix text, rows ';'-separated")
        if poly is not False:
            p.add_argument("--poly", required=(poly == "required"),
                           help="polynomial text")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the factorization splitter")
        p.add_argument("--field-budget", type=int,
                       default=DEFAULT_FIELD_ORDER_BUDGET,
                       help="largest permitted field order")
        p.add_argument("--repro", action="store_true",
                       help="pin timing_ms to 0 for byte-stable output")
        return p

    p = sub.add_parser("count", help="count matrices with a given charpoly")
    common(p, poly=True, needs_n=True)

    p = sub.add_parser("verify", help="check census against closed forms")
    common(p, needs_n=True)
    p.add_argument("--mode", choices=("formula", "bruteforce", "both"),
                   default="both")
    p.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET,
                   help="enumeration budget")
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in params.threads; the census runs in one "
                        "thread")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv prints the count table instead of the envelope")

    p = sub.add_parser("rcf", help="rational canonical form")
    common(p, matrix=True)

    p = sub.add_parser("centralizer", help="centralizer of a matrix")
    common(p, matrix=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SPAN_BUDGET,
                   help="largest centralizer order whose unit count is "
                        "reported")

    p = sub.add_parser("factor", help="factor a polynomial")
    common(p, poly="required")

    p = sub.add_parser("orbit", help="orbit/stabilizer report for a matrix "
                                     "with irreducible charpoly")
    common(p, matrix=True)
    return top


def _resolve_field(args):
    """The field named by --q and --k, checked against --field-budget."""
    q, k = args.q, args.k
    if k is not None and k < 1:
        raise _UsageError("--k must be a positive integer")
    # the order is at least q: a huge q is refused before the primality and
    # prime-power tests, whose cost grows with q
    if q > args.field_budget:
        raise BudgetError(
            f"field order {q} exceeds the budget {args.field_budget}")
    if k is None:
        try:
            p, k = _prime_power(q)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    elif not is_prime(q):
        raise _UsageError("--q must be prime when --k is given")
    else:
        p = q
    return make_field(p, k, max_order=args.field_budget)


def _field_params(field):
    # the modulus coefficients are prime-field indices, so need no arithmetic
    mod = (None if field.modulus is None
           else format_poly(Polynomial._raw(field, list(field.modulus))))
    return {"p": field.p, "k": field.k, "q": field.q, "modulus": mod}


def _decimal(n: int) -> str:
    """str(n) for an int of any length.  Python 3.11 refuses int -> str past
    sys.get_int_max_str_digits() digits (4300 by default); the limit is
    lifted for this conversion only."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # Python < 3.10.7 has no limit
        return str(n)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_count(args):
    field = _resolve_field(args)
    params = {"field": _field_params(field), "seed": args.seed}
    if args.poly is None:  # needs q only, so the field's tables are not built
        if args.n is None:
            raise _UsageError("count needs --n when --poly is omitted")
        if args.n < 1:
            raise _UsageError("--n must be a positive integer")
        params.update(n=args.n, poly=None)
        result = {
            "count": _decimal(count_irreducible_case(field.q, args.n)),
            "formula": "theorem1",
            "factorization": None,
        }
        return params, result
    g = parse_poly(args.poly, field)
    if args.n is not None and args.n != g.degree:
        raise ValueError(
            f"--n {args.n} does not match the polynomial degree {g.degree}")
    if g.degree < 1 or not g.is_monic:
        raise ValueError("count needs a monic polynomial of degree >= 1")
    fact = factorize(g, seed=args.seed)
    irred = len(fact.factors) == 1 and fact.factors[0][1] == 1
    count = _count_from_factors(field.q, g.degree, fact.factors)
    params.update(n=g.degree, poly=format_poly(g))
    result = {
        "count": _decimal(count),
        "formula": "theorem1" if irred else "general",
        "factorization": [[format_poly(f), m] for f, m in fact.factors],
    }
    return params, result


def _cmd_verify(args):
    field = _resolve_field(args)
    if args.n is None:
        raise _UsageError("verify needs --n")
    if args.n < 1:
        raise _UsageError("--n must be a positive integer")
    if args.threads < 1:
        raise _UsageError("--threads must be a positive integer")
    n = args.n
    params = {"field": _field_params(field), "n": n, "mode": args.mode,
              "seed": args.seed, "budget": args.budget,
              "threads": args.threads}
    q = field.q
    mismatches = []
    census = None
    partition = None
    if args.mode in ("bruteforce", "both"):
        census = census_bruteforce(field, n, budget=args.budget,
                                   threads=args.threads)
    if args.mode in ("formula", "both"):
        partition = verify_partition(field, n, budget=args.budget,
                                     seed=args.seed)
    # computed only once a budget check has bounded it
    expected_total = q ** (n * n)
    if args.mode == "formula":
        ok = partition.equal
        total = partition.lhs_total
        if not ok:
            mismatches.append({
                "charpoly": None,
                "census": None,
                "formula": _decimal(partition.lhs_total),
                "expected": _decimal(partition.rhs_total)})
    elif args.mode == "bruteforce":
        total = census.total
        ok = total == expected_total
    else:
        total = census.total
        ok = total == expected_total and partition.equal
        irreducible_count = count_irreducible_case(q, n)
        for g, formula_count in partition.entries.items():
            got = census.entries.get(g, 0)
            row_ok = got == formula_count
            if g in partition.irreducible:
                row_ok = row_ok and got == irreducible_count
            if not row_ok:
                ok = False
                mismatches.append({
                    "charpoly": format_poly(g),
                    "census": _decimal(got),
                    "formula": _decimal(formula_count)})
        for g in census.entries:
            if g not in partition.entries:
                ok = False
                mismatches.append({
                    "charpoly": format_poly(g),
                    "census": _decimal(census.entries[g]),
                    "formula": None})
    result = {"pass": ok, "total": _decimal(total),
              "expected_total": _decimal(expected_total),
              "mismatches": mismatches}
    return params, result, census, partition


def _verify_csv(mode, census, partition) -> str:
    """The count table of `verify --format csv`: one row per charpoly."""
    polys = (partition if mode != "bruteforce" else census).entries
    lines = [{"formula": "charpoly,formula",
              "bruteforce": "charpoly,census",
              "both": "charpoly,census,formula"}[mode]]
    for g in polys:
        cells = [format_poly(g)]
        if census is not None:
            cells.append(_decimal(census.entries.get(g, 0)))
        if partition is not None:
            cells.append(_decimal(partition.entries[g]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _matrix_input(args):
    """(M, params) for a matrix command: M parsed from --matrix over the
    field of --q and --k, and the params every such command echoes."""
    field = _resolve_field(args)
    M = parse_matrix(args.matrix, field)
    params = {"field": _field_params(field), "n": M.n,
              "matrix": format_matrix(M), "seed": args.seed}
    return M, params


def _cmd_rcf(args):
    M, params = _matrix_input(args)
    form = rcf(M)
    result = {
        "blocks": [format_poly(b) for b in form.blocks],
        "transition": format_matrix(form.transition),
        "dimension": form.dimension,
    }
    return params, result


def _cmd_centralizer(args):
    M, params = _matrix_input(args)
    params["budget"] = args.budget
    desc = centralizer(M)
    try:
        units = centralizer_unit_count(M, budget=args.budget)
    except BudgetError:
        units = None
    result = {
        "dimension": desc.dimension,
        "order": _decimal(desc.order),
        "basis": [format_matrix(b) for b in desc.basis],
        "unit_count": None if units is None else _decimal(units),
        "is_polynomial_centralizer": is_polynomial_centralizer(M),
    }
    return params, result


def _cmd_factor(args):
    field = _resolve_field(args)
    g = parse_poly(args.poly, field)
    fact = factorize(g, seed=args.seed)
    params = {"field": _field_params(field), "poly": format_poly(g),
              "seed": args.seed}
    result = {
        "leading": str(fact.leading),
        "factors": [[format_poly(f), m] for f, m in fact.factors],
    }
    return params, result


def _cmd_orbit(args):
    M, params = _matrix_input(args)
    report = orbit_stabilizer_report(M)
    result = {
        "charpoly": format_poly(report.charpoly),
        "gl_order": _decimal(report.gl_order),
        "stabilizer_order": _decimal(report.stabilizer_order),
        "orbit_size": _decimal(report.orbit_size),
        "formula_count": _decimal(report.formula_count),
        "consistent": report.consistent,
    }
    return params, result


def _emit(command, params, result, started, repro):
    ms = 0 if repro else int((time.perf_counter() - started) * 1000)
    envelope = {
        "schema_version": "1",
        "command": command,
        "params": params,
        "result": result,
        "timing_ms": ms,
    }
    sys.stdout.write(
        json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n")


def run(argv=None) -> int:
    parser = _build_parser()
    started = time.perf_counter()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse -h or similar
            return int(exc.code or 0)
        if args.command == "count":
            params, result = _cmd_count(args)
        elif args.command == "verify":
            params, result, census, partition = _cmd_verify(args)
            if args.format == "csv":
                sys.stdout.write(_verify_csv(args.mode, census, partition))
                return 0 if result["pass"] else 1
            _emit("verify", params, result, started, args.repro)
            return 0 if result["pass"] else 1
        elif args.command == "rcf":
            params, result = _cmd_rcf(args)
        elif args.command == "centralizer":
            params, result = _cmd_centralizer(args)
        elif args.command == "factor":
            params, result = _cmd_factor(args)
        elif args.command == "orbit":
            params, result = _cmd_orbit(args)
        else:  # pragma: no cover
            raise _UsageError(f"unknown command {args.command!r}")
        _emit(args.command, params, result, started, args.repro)
        return 0
    except _UsageError as exc:
        sys.stderr.write(f"error:usage:{exc}\n")
        return 2
    except ParseError as exc:
        sys.stderr.write(f"error:usage:{exc}\n")
        return 2
    except BudgetError as exc:
        sys.stderr.write(f"error:budget:{exc}\n")
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error:domain:{exc}\n")
        return 1
    except RuntimeError as exc:
        sys.stderr.write(f"error:internal:{exc}\n")
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
