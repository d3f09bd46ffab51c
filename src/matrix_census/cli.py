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
from .centralizer import DEFAULT_SPAN_BUDGET, centralizer
from .census import (DEFAULT_ENUMERATION_BUDGET, _count_from_type,
                     census_bruteforce, count_irreducible_case,
                     orbit_stabilizer_report, verify_partition)
from .errors import BudgetError, ParseError, TableCapError
from .factor import factorize
from .field import (DEFAULT_FIELD_ORDER_BUDGET, field_from_order, is_prime,
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

    def common(name, handler, about, matrix=False, poly=False,
               needs_n=False):
        p = sub.add_parser(name, help=about)
        p.set_defaults(handler=handler)
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

    common("count", _cmd_count, "count matrices with a given charpoly",
           poly=True, needs_n=True)

    p = common("verify", _cmd_verify, "check census against closed forms",
               needs_n=True)
    p.add_argument("--mode", choices=("formula", "bruteforce", "both"),
                   default="both")
    p.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET,
                   help="enumeration budget")
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in params.threads; the census runs in one "
                        "thread")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="csv prints the count table instead of the envelope")

    common("rcf", _cmd_rcf, "rational canonical form", matrix=True)

    p = common("centralizer", _cmd_centralizer, "centralizer of a matrix",
               matrix=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SPAN_BUDGET,
                   help="largest centralizer order whose unit count is "
                        "reported")

    common("factor", _cmd_factor, "factor a polynomial", poly="required")
    common("orbit", _cmd_orbit, "orbit/stabilizer report for a matrix with "
                                "irreducible charpoly", matrix=True)
    return top


def _with_flag(flag, exc):
    """exc, a BudgetError, naming the flag that raises its budget; the
    log-table cap has no flag."""
    if isinstance(exc, TableCapError):
        return exc
    return BudgetError(f"{exc}; raise it with {flag}")


def _resolve_field(args):
    """The field named by --q and --k, checked against --field-budget."""
    q, k, budget = args.q, args.k, args.field_budget
    try:
        if k is None:
            try:
                return field_from_order(q, max_order=budget)
            except ValueError as exc:
                raise _UsageError(str(exc)) from None
        if k < 1:
            raise _UsageError("--k must be a positive integer")
        # the order is at least q: a huge q is refused before the primality
        # test, whose cost grows with q
        if q > budget:
            raise BudgetError(f"field order {q} exceeds the budget {budget}")
        if not is_prime(q):
            raise _UsageError("--q must be prime when --k is given")
        return make_field(q, k, max_order=budget)
    except BudgetError as exc:
        raise _with_flag("--field-budget", exc) from None


def _field_params(field):
    mod = (None if field.modulus is None
           else format_poly(Polynomial(field, field.modulus)))
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
    if args.n is not None and args.n < 1:
        raise _UsageError("--n must be a positive integer")
    params = {"field": _field_params(field), "seed": args.seed}
    if args.poly is None:  # needs q only, so the field's tables are not built
        if args.n is None:
            raise _UsageError("count needs --n when --poly is omitted")
        params.update(n=args.n, poly=None)
        result = {
            "count": _decimal(count_irreducible_case(field.q, args.n)),
            "formula": "theorem1",
            "factorization": None,
        }
        return params, result, None
    g = parse_poly(args.poly, field)
    if g.degree < 1 or not g.is_monic:
        raise ValueError("count needs a monic polynomial of degree >= 1")
    if args.n is not None and args.n != g.degree:
        raise ValueError(
            f"--n {args.n} does not match the polynomial degree {g.degree}")
    fact = factorize(g, seed=args.seed)
    irred = len(fact.factors) == 1 and fact.factors[0][1] == 1
    count = _count_from_type(field.q, g.degree,
                             [(f.degree, m) for f, m in fact.factors])
    params.update(n=g.degree, poly=format_poly(g))
    result = {
        "count": _decimal(count),
        "formula": "theorem1" if irred else "general",
        "factorization": [[format_poly(f), m] for f, m in fact.factors],
    }
    return params, result, None


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
    census = partition = None
    try:
        if args.mode != "formula":
            census = census_bruteforce(field, n, budget=args.budget)
        if args.mode != "bruteforce":
            partition = verify_partition(field, n, budget=args.budget)
    except BudgetError as exc:
        raise _with_flag("--budget", exc) from None
    # computed only once a budget check has bounded it
    expected_total = q ** (n * n)
    mismatches = []
    if census is None:
        total = partition.lhs_total
        if not partition.equal:
            mismatches.append({
                "charpoly": None,
                "census": None,
                "formula": _decimal(partition.lhs_total),
                "expected": _decimal(partition.rhs_total)})
    else:
        total = census.total
        if partition is not None:
            irreducible_count = count_irreducible_case(q, n)
            # the formula's charpolys in order, then any only the census found
            for g in {**partition.entries, **census.entries}:
                got = census.entries.get(g, 0)
                want = partition.entries.get(g)
                if got != want or (g in partition.irreducible
                                   and got != irreducible_count):
                    mismatches.append({
                        "charpoly": format_poly(g),
                        "census": _decimal(got),
                        "formula": None if want is None else _decimal(want)})
    ok = (not mismatches and (partition is None or partition.equal)
          and (census is None or total == expected_total))
    result = {"pass": ok, "total": _decimal(total),
              "expected_total": _decimal(expected_total),
              "mismatches": mismatches}
    table = (_verify_csv(args.mode, census, partition)
             if args.format == "csv" else None)
    return params, result, table


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
    return params, result, None


def _cmd_centralizer(args):
    M, params = _matrix_input(args)
    params["budget"] = args.budget
    desc = centralizer(M)
    # C(M) is a field exactly when every nonzero element is a unit; only a
    # centralizer that is not one has its unit count capped by --budget
    is_field = desc.unit_count == desc.order - 1
    result = {
        "dimension": desc.dimension,
        "order": _decimal(desc.order),
        "basis": [format_matrix(b) for b in desc.basis],
        "unit_count": (None if not is_field and desc.order > args.budget
                       else _decimal(desc.unit_count)),
        "is_polynomial_centralizer": desc.dimension == M.n,
    }
    return params, result, None


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
    return params, result, None


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
    return params, result, None


# built once, at import: run() only parses, so a process that runs many
# commands builds the six subparsers once
_PARSER = _build_parser()


def _envelope(command, params, result, started, repro) -> str:
    ms = 0 if repro else int((time.perf_counter() - started) * 1000)
    envelope = {
        "schema_version": "1",
        "command": command,
        "params": params,
        "result": result,
        "timing_ms": ms,
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"


def run(argv=None) -> int:
    """Run one command on argv (sys.argv[1:] if None); return its exit code.

    It may be called any number of times in one process.  The parser is
    built once, at import, and each call only parses, into a fresh
    namespace, so no call sees another's flags.
    """
    started = time.perf_counter()
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:  # argparse -h or similar
            return int(exc.code or 0)
        for flag in ("--budget", "--field-budget"):
            if getattr(args, flag[2:].replace("-", "_"), 0) < 0:
                raise _UsageError(f"{flag} must be a nonnegative integer")
        # every handler returns the envelope's params and result, and text
        # to print in its place or None; a failed check exits 1
        params, result, text = args.handler(args)
        if text is None:
            text = _envelope(args.command, params, result, started,
                             args.repro)
        sys.stdout.write(text)
        return 0 if result.get("pass", True) else 1
    except (_UsageError, ParseError) as exc:
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
