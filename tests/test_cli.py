"""Command-line interface: envelope schema, exit codes, output formats,
and byte-level determinism."""

import importlib
import json
import sys
import time
from pathlib import Path

import pytest

import matrix_census as mc
import matrix_census.cli as cli
from matrix_census import census as census_mod
from matrix_census import field as field_mod


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1, "exactly one envelope per invocation"
    return code, json.loads(lines[0])


def _check_envelope(doc, command):
    assert set(doc) == {"schema_version", "command", "params", "result",
                        "timing_ms"}
    assert doc["schema_version"] == "1"
    assert doc["command"] == command
    assert isinstance(doc["timing_ms"], int) and doc["timing_ms"] >= 0
    assert isinstance(doc["params"], dict)
    assert isinstance(doc["result"], dict)


def test_count_irreducible_poly(capsys):
    code, doc = run_json(capsys, "count", "--q", "2", "--n", "2",
                         "--poly", "x^2+x+1")
    assert code == 0
    _check_envelope(doc, "count")
    assert doc["result"]["count"] == "2"
    assert doc["result"]["formula"] == "theorem1"
    assert doc["result"]["factorization"] == [["x^2+x+1", 1]]
    assert doc["params"]["field"] == {"p": 2, "k": 1, "q": 2, "modulus": None}
    assert doc["params"]["poly"] == "x^2+x+1"


def test_count_reducible_poly(capsys):
    code, doc = run_json(capsys, "count", "--q", "2", "--n", "2",
                         "--poly", "x^2")
    assert code == 0
    assert doc["result"]["count"] == "4"
    assert doc["result"]["formula"] == "general"
    assert doc["result"]["factorization"] == [["x", 2]]


def test_count_without_poly_reports_irreducible_case(capsys):
    code, doc = run_json(capsys, "count", "--q", "2", "--n", "3")
    assert code == 0
    assert doc["result"]["count"] == "24"
    assert doc["result"]["formula"] == "theorem1"
    assert doc["result"]["factorization"] is None


def test_count_extension_field_params(capsys):
    code, doc = run_json(capsys, "count", "--q", "4", "--n", "2",
                         "--poly", "x^2+x")
    assert code == 0
    assert doc["params"]["field"] == {"p": 2, "k": 2, "q": 4,
                                      "modulus": "x^2+x+1"}
    assert doc["result"]["count"] == "20"
    code, doc = run_json(capsys, "count", "--q", "3", "--k", "2", "--n", "1",
                         "--poly", "x+5")
    assert code == 0
    assert doc["params"]["field"]["q"] == 9


def test_count_poly_dimension_mismatch(capsys):
    code, out, err = run_cli(capsys, "count", "--q", "2", "--n", "3",
                             "--poly", "x^2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:domain:")


def test_verify_both_passes(capsys):
    code, doc = run_json(capsys, "verify", "--q", "2", "--n", "2",
                         "--mode", "both")
    assert code == 0
    _check_envelope(doc, "verify")
    assert doc["result"]["pass"] is True
    assert doc["result"]["mismatches"] == []
    assert doc["result"]["total"] == "16"
    assert doc["result"]["expected_total"] == "16"


def test_verify_formula_mode(capsys):
    code, doc = run_json(capsys, "verify", "--q", "3", "--n", "2",
                         "--mode", "formula")
    assert code == 0
    assert doc["result"]["pass"] is True
    assert doc["result"]["total"] == "81"


def test_verify_bruteforce_mode(capsys):
    code, doc = run_json(capsys, "verify", "--q", "2", "--n", "3",
                         "--mode", "bruteforce")
    assert code == 0
    assert doc["result"]["pass"] is True
    assert doc["result"]["total"] == "512"


def test_verify_budget_exceeded(capsys):
    # from --n 119, 2^(n*n) has more than the 4300 digits Python prints, and
    # at --n 40000 it takes hundreds of MB: refused without computing it
    for argv in (("--n", "9", "--mode", "bruteforce"),
                 ("--n", "119", "--mode", "bruteforce"),
                 ("--n", "120"),
                 ("--n", "40000", "--mode", "formula")):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--q", "2", *argv,
                                 "--threads", "1")
        assert time.perf_counter() - started < 1, argv
        assert code == 3, argv
        assert out == ""
        assert err.startswith("error:budget:")
        assert err.count("\n") == 1 and len(err) < 200, argv


def _corrupt_formula(monkeypatch):
    """Shift every closed-form count by one, as a wrong formula would."""
    real = census_mod._count_from_type
    monkeypatch.setattr(census_mod, "_count_from_type",
                        lambda q, n, ftype: real(q, n, ftype) + 1)


def test_verify_corrupted_formula_fails(capsys, monkeypatch):
    # the exit code must faithfully follow the pass flag
    _corrupt_formula(monkeypatch)
    code, doc = run_json(capsys, "verify", "--q", "2", "--n", "2",
                         "--mode", "both")
    assert code == 1
    assert doc["result"]["pass"] is False
    assert doc["result"]["mismatches"]
    sample = doc["result"]["mismatches"][0]
    assert sample["census"] != sample["formula"]


def test_verify_corrupted_formula_mode_formula(capsys, monkeypatch):
    _corrupt_formula(monkeypatch)
    code, doc = run_json(capsys, "verify", "--q", "2", "--n", "2",
                         "--mode", "formula")
    assert code == 1
    assert doc["result"]["pass"] is False
    # one whole-table row: the per-charpoly rows need the census
    assert doc["result"]["mismatches"] == [
        {"charpoly": None, "census": None, "formula": "20",
         "expected": "16"}]


def test_verify_flags_a_charpoly_only_the_census_found(capsys, monkeypatch):
    # a census row the formula lacks comes after the formula's own rows
    field = mc.make_field(2)
    real = census_mod.census_bruteforce(field, 2)
    stray = {**real.entries, mc.parse_poly("x^3", field): 1}
    monkeypatch.setattr(cli, "census_bruteforce", lambda *a, **kw:
                        real._replace(entries=stray))
    _corrupt_formula(monkeypatch)
    code, doc = run_json(capsys, "verify", "--q", "2", "--n", "2",
                         "--mode", "both")
    assert code == 1
    assert doc["result"]["pass"] is False
    rows = doc["result"]["mismatches"]
    assert [m["charpoly"] for m in rows] == [
        "x^2", "x^2+x", "x^2+1", "x^2+x+1", "x^3"]
    assert rows[-1] == {"charpoly": "x^3", "census": "1", "formula": None}


def test_verify_flags_theorem1_rows(capsys, monkeypatch):
    # only the irreducible charpolys are held to the irreducible-case count
    monkeypatch.setattr(cli, "count_irreducible_case",
                        lambda q, n: census_mod.count_irreducible_case(q, n)
                        + 1)
    code, doc = run_json(capsys, "verify", "--q", "3", "--n", "2",
                         "--mode", "both")
    assert code == 1
    flagged = [m["charpoly"] for m in doc["result"]["mismatches"]]
    assert flagged == ["x^2+1", "x^2+x+2", "x^2+2*x+2"]


def _big_int(text):
    # int() refuses strings past sys.get_int_max_str_digits() digits
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_count_longer_than_int_str_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, doc = run_json(capsys, "count", "--q", "2", "--n", "121")
    assert code == 0
    text = doc["result"]["count"]
    assert len(text) > 4300
    assert _big_int(text) == census_mod.count_irreducible_case(2, 121)
    code, doc = run_json(capsys, "count", "--q", "2", "--poly", "x^121+x+1")
    assert code == 0
    g = mc.parse_poly("x^121+x+1", mc.make_field(2))
    assert _big_int(doc["result"]["count"]) == census_mod.count_with_charpoly(g)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_verify_csv_output(capsys):
    code, out, err = run_cli(capsys, "verify", "--q", "2", "--n", "2",
                             "--mode", "both", "--format", "csv")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "charpoly,census,formula"
    assert lines[1:] == ["x^2,4,4", "x^2+x,6,6", "x^2+1,4,4", "x^2+x+1,2,2"]


def test_verify_csv_single_column_modes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "2",
                           "--mode", "formula", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "charpoly,formula"
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "2",
                           "--mode", "bruteforce", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "charpoly,census"


def test_rcf_command(capsys):
    code, doc = run_json(capsys, "rcf", "--q", "2", "--matrix", "0,1;1,1")
    assert code == 0
    _check_envelope(doc, "rcf")
    assert doc["result"]["blocks"] == ["x^2+x+1"]
    assert doc["result"]["dimension"] == 2
    assert doc["params"]["matrix"] == "0,1;1,1"


def test_centralizer_command(capsys):
    code, doc = run_json(capsys, "centralizer", "--q", "2",
                         "--matrix", "0,1;1,1")
    assert code == 0
    _check_envelope(doc, "centralizer")
    assert doc["result"]["dimension"] == 2
    assert doc["result"]["order"] == "4"
    assert doc["result"]["unit_count"] == "3"
    assert doc["result"]["is_polynomial_centralizer"] is True
    assert len(doc["result"]["basis"]) == 2


def test_centralizer_unit_count_null_over_budget(capsys):
    code, doc = run_json(capsys, "centralizer", "--q", "3",
                         "--matrix", "1,0,0;0,1,0;0,0,1",
                         "--budget", "100")
    assert code == 0
    assert doc["result"]["unit_count"] is None
    assert doc["result"]["dimension"] == 9


def test_centralizer_unit_count_over_extension_fields(capsys):
    # |GL_2(4)| for the zero matrix; q(q - 1) for a Jordan block over GF(9)
    for q, matrix, units in (("4", "0,0;0,0", "180"), ("9", "1,1;0,1", "72")):
        code, doc = run_json(capsys, "centralizer", "--q", q,
                             "--matrix", matrix)
        assert code == 0
        assert doc["result"]["unit_count"] == units


def test_centralizer_command_runs_one_rcf(capsys, monkeypatch):
    # every field of the result is read off one rcf, for a reducible and an
    # irreducible charpoly alike
    centralizer_mod = importlib.import_module("matrix_census.centralizer")
    calls = []

    def counted(M):
        calls.append(M)
        return mc.rcf(M)

    monkeypatch.setattr(centralizer_mod, "rcf", counted)
    monkeypatch.setattr(cli, "rcf", counted)
    for matrix, units in (("1,0,0;0,1,0;0,0,2", "96"),
                          ("0,0,2;1,0,1;0,1,0", "26")):  # x^3+2*x+1
        calls.clear()
        code, doc = run_json(capsys, "centralizer", "--q", "3",
                             "--matrix", matrix)
        assert code == 0 and doc["result"]["unit_count"] == units
        assert len(calls) == 1


def test_factor_command(capsys):
    code, doc = run_json(capsys, "factor", "--q", "2",
                         "--poly", "x^4+x^2+1")
    assert code == 0
    _check_envelope(doc, "factor")
    assert doc["result"]["factors"] == [["x^2+x+1", 2]]
    assert doc["result"]["leading"] == "1"


def test_orbit_command(capsys):
    code, doc = run_json(capsys, "orbit", "--q", "2", "--matrix", "0,1;1,1")
    assert code == 0
    _check_envelope(doc, "orbit")
    assert doc["result"]["gl_order"] == "6"
    assert doc["result"]["stabilizer_order"] == "3"
    assert doc["result"]["orbit_size"] == "2"
    assert doc["result"]["formula_count"] == "2"
    assert doc["result"]["consistent"] is True


def test_orbit_reducible_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "orbit", "--q", "2",
                             "--matrix", "0,0;0,0")
    assert code == 1
    assert err.startswith("error:domain:")


def test_failed_published_count_check_is_internal_error(capsys, monkeypatch):
    # a stabilizer order of 5 does not divide |GL_2(2)| = 6
    monkeypatch.setattr(census_mod, "_green",
                        lambda q, prime_powers: (1, 5))
    code, out, err = run_cli(capsys, "orbit", "--q", "2", "--matrix",
                             "0,1;1,1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:internal:") and "does not divide" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_usage_errors(capsys):
    cases = [
        ("count", "--q", "6", "--n", "2"),            # not a prime power
        ("count", "--q", "4", "--k", "2", "--n", "1",
         "--poly", "x"),                              # q must be prime with k
        ("count", "--q", "2"),                        # missing --n and --poly
        ("verify", "--q", "2"),                       # missing --n
        ("verify", "--q", "2", "--n", "0"),
        ("verify", "--q", "2", "--n", "2", "--threads", "0"),
        ("count", "--q", "2", "--n", "2", "--poly", "x^2+"),   # parse error
        ("rcf", "--q", "2", "--matrix", "0,1;1"),              # ragged rows
        ("count", "--q", "2", "--n", "2", "--poly", "x^2+x+2"),  # bad index
        ("count", "--q", "2", "--n", "-3", "--poly", "x"),  # --n checked first
        ("count", "--q", "1", "--n", "2"),            # field orders below 2
        ("count", "--q", "0", "--n", "2"),
        ("count", "--q", "-4", "--n", "2"),
        ("count", "--q", "2", "--k", "0", "--n", "2"),
        # a negative budget, on each command that takes one
        ("verify", "--q", "2", "--n", "2", "--budget", "-5"),
        ("centralizer", "--q", "2", "--matrix", "1,0;0,1", "--budget", "-1"),
        ("count", "--q", "2", "--n", "2", "--field-budget", "-1"),
        ("verify", "--q", "2", "--n", "2", "--field-budget", "-1"),
        ("rcf", "--q", "2", "--matrix", "0,1;1,1", "--field-budget", "-1"),
        ("centralizer", "--q", "2", "--matrix", "0,1;1,1",
         "--field-budget", "-1"),
        ("factor", "--q", "2", "--poly", "x^2", "--field-budget", "-1"),
        ("orbit", "--q", "2", "--matrix", "0,1;1,1", "--field-budget", "-1"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:usage:"), (argv, err)
        assert err.count("\n") == 1


def test_parse_error_position_reaches_stderr(capsys):
    code, out, err = run_cli(capsys, "factor", "--q", "2", "--poly", "1x")
    assert (code, out) == (2, "")
    assert err == "error:usage:expected + between terms (at position 1)\n"


def test_count_of_a_constant_poly_is_a_domain_error(capsys):
    # the monic degree >= 1 check comes before the --n match, so the degree
    # of the zero polynomial is never printed
    for poly in ("0", "1"):
        code, out, err = run_cli(capsys, "count", "--q", "2", "--n", "2",
                                 "--poly", poly)
        assert (code, out) == (1, "")
        assert err == ("error:domain:count needs a monic polynomial of "
                       "degree >= 1\n")


def test_unknown_flag_and_command_are_usage_errors(capsys):
    code, _, err = run_cli(capsys, "count", "--q", "2", "--n", "2",
                           "--frobnicate")
    assert code == 2 and err.startswith("error:usage:")
    code, _, err = run_cli(capsys, "transmogrify")
    assert code == 2 and err.startswith("error:usage:")


def test_help_exits_zero(capsys):
    code = cli.run(["--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "matrix-census" in out


def test_field_budget_flag(capsys):
    code, out, err = run_cli(capsys, "count", "--q", "2", "--k", "21",
                             "--n", "1", "--poly", "x")
    assert code == 3
    assert err.startswith("error:budget:")
    code, doc = run_json(capsys, "count", "--q", "2", "--k", "21", "--n", "1",
                         "--poly", "x", "--field-budget", str(2 ** 22))
    assert code == 0
    assert doc["result"]["count"] == "1"


def test_budget_errors_name_their_flag(capsys):
    # a size budget names the flag that raises it; the log-table cap has no
    # flag, and GF(2^25) passes both budgets and then meets it in the census
    cases = [(("count", "--q", "2", "--k", "21", "--n", "1"),
              "; raise it with --field-budget\n"),
             (("verify", "--q", "2", "--n", "6", "--threads", "1"),
              "; raise it with --budget\n"),
             (("verify", "--q", "2", "--n", "5", "--mode", "formula",
               "--budget", "10"), "; raise it with --budget\n"),
             (("verify", "--q", "2", "--k", "25", "--n", "1", "--threads",
               "1", "--field-budget", str(2 ** 25)),
              " exceeds the log-table cap 16777216 for extension fields\n")]
    for argv, tail in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("error:budget:") and err.endswith(tail), argv


def test_count_n_does_not_build_the_field(capsys):
    # 3^16 is above the log-table cap, and count --n needs only q
    budget = str(3 ** 16)
    code, doc = run_json(capsys, "count", "--q", "3", "--k", "16", "--n", "2",
                         "--field-budget", budget)
    assert code == 0
    assert doc["params"]["field"]["modulus"] == "x^16+x^3+x^2+1"
    assert doc["result"]["count"] == str(
        mc.count_irreducible_case(3 ** 16, 2))
    code, out, err = run_cli(capsys, "count", "--q", "3", "--k", "16",
                             "--poly", "x", "--field-budget", budget)
    assert code == 3
    assert err.startswith("error:budget:")


def test_field_budget_applies_to_the_modulus(capsys):
    q = 1048583  # a prime above the default field budget
    code, doc = run_json(capsys, "count", "--q", str(q), "--k", "2", "--n",
                         "2", "--field-budget", str(10 ** 13))
    assert code == 0
    assert doc["params"]["field"]["modulus"] == "x^2+1"
    assert doc["result"]["count"] == str(mc.count_irreducible_case(q ** 2, 2))


def test_huge_extension_degree_is_a_short_budget_error(capsys):
    code, out, err = run_cli(capsys, "count", "--q", "2", "--k", "100000",
                             "--n", "2")
    assert code == 3 and out == ""
    assert err.startswith("error:budget:") and len(err) < 200


def test_count_n_over_gf_2_64(capsys):
    code, doc = run_json(capsys, "count", "--q", "2", "--k", "64", "--n", "2",
                         "--field-budget", str(2 ** 64))
    assert code == 0
    assert doc["params"]["field"]["modulus"] == "x^64+x^4+x^3+x+1"
    assert doc["result"]["count"] == str(
        mc.count_irreducible_case(2 ** 64, 2))


def test_repro_pins_timing_and_output_is_byte_stable(capsys):
    outputs = set()
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify", "--q", "3", "--n", "2",
                                 "--mode", "both", "--seed", "7", "--repro")
        assert code == 0 and err == ""
        outputs.add(out)
    assert len(outputs) == 1
    doc = json.loads(out)
    assert doc["timing_ms"] == 0
    assert doc["params"]["seed"] == 7


def test_verify_threads_defaults_to_the_one_thread_the_census_uses(capsys):
    # --repro output must not depend on the host's CPU count
    code, out, err = run_cli(capsys, "verify", "--q", "2", "--n", "1",
                             "--repro")
    assert code == 0 and err == ""
    assert '"threads":1' in out


def test_seed_is_echoed_and_respected(capsys):
    code, doc = run_json(capsys, "factor", "--q", "5",
                         "--poly", "x^4+x^2+3", "--seed", "11")
    assert code == 0
    assert doc["params"]["seed"] == 11
    code, doc2 = run_json(capsys, "factor", "--q", "5",
                          "--poly", "x^4+x^2+3", "--seed", "999")
    assert doc["result"] == doc2["result"]  # canonical order hides the seed


def test_envelope_is_compact_single_line_sorted(capsys):
    code, out, err = run_cli(capsys, "count", "--q", "2", "--n", "2",
                             "--poly", "x^2", "--repro")
    assert out.endswith("\n") and out.count("\n") == 1
    body = out[:-1]
    assert ": " not in body and ", " not in body
    doc = json.loads(body)
    assert list(doc) == sorted(doc)


def test_main_entry_point(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 2  # no argv supplied


def test_huge_q_is_refused_before_any_primality_test(capsys, monkeypatch):
    def never(q):
        raise AssertionError("primality test on an over-budget q")

    monkeypatch.setattr(field_mod, "_prime_power", never)
    monkeypatch.setattr(cli, "is_prime", never)
    monkeypatch.setattr(field_mod, "is_prime", never)
    q = "1000000000000000003"  # prime
    for extra in ((), ("--k", "2")):
        code, out, err = run_cli(capsys, "count", "--q", q, "--n", "2",
                                 *extra)
        assert code == 3 and out == ""
        assert err == f"error:budget:field order {q} exceeds the budget " \
                      f"{mc.DEFAULT_FIELD_ORDER_BUDGET}; raise it with " \
                      f"--field-budget\n"
    # not a prime power either, but over the budget all the same
    code, _, err = run_cli(capsys, "count", "--q", str(2 ** 40 * 3), "--n",
                           "2")
    assert code == 3 and err.startswith("error:budget:")


def test_parser_accepts_every_benchmark_argv(monkeypatch):
    # the benchmark sends these command lines through cli.run; its files are
    # imported only, so a flag the parser drops fails here, not mid-run
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    parser = cli._PARSER  # the parser run() uses
    argvs = [op.argv for name in workloads.WORKLOADS
             for ops in workloads.make_ops(name, 201) for op in ops]
    assert argvs
    for argv in argvs:
        try:
            args = parser.parse_args(argv)
        except cli._UsageError as exc:
            pytest.fail(f"{' '.join(argv)}: {exc}")
        assert callable(args.handler), argv


# stdout, stderr and exit code of each invocation, with --repro, recorded
# from the implementation before a refactor that must not change them: the
# README examples of all six commands over GF(2), GF(3), GF(9) and GF(256),
# one usage, one domain and one budget error, two GF(2) factorizations (a
# degree-400 trinomial; a degree-70 product with square factors and five
# irreducibles of degree 10), the modulus search for GF(2^128), and three
# odd-p lines: a seeded degree-60 product over GF(101) and a seeded
# degree-30 product over GF(9), each with two distinct factors of one degree
# and one square factor, and the Ben-Or modulus search for GF(3^64); and
# three formula-mode csv tables, which pin every per-charpoly closed-form
# count over GF(2) at n = 4 (with (x+1)^4, whose squarefree part is found
# through a p-th root), GF(4) at n = 3 and GF(5) at n = 3.  verify's json
# lines pass --threads 1, its default, which params.threads echoes.
ENVELOPES = [json.loads(line) for line in (
    Path(__file__).with_name("envelopes.jsonl").read_text().splitlines())]


@pytest.mark.parametrize("argv,code,out,err", ENVELOPES,
                         ids=[case[0] for case in ENVELOPES])
def test_repro_output_is_pinned(capsys, argv, code, out, err):
    assert run_cli(capsys, *argv.split(), "--repro") == (code, out, err)


# stdout, stderr and exit code of --help and of each `<command> --help`, with
# COLUMNS=80, recorded under Python 3.11 from the parser as it was built on
# every call, before it was built once at import; argparse's own wording
# differs between Python versions (3.10 heads "optional arguments:")
HELP = [json.loads(line) for line in (
    Path(__file__).with_name("help.jsonl").read_text().splitlines())]


@pytest.mark.parametrize("argv,code,out,err", HELP,
                         ids=[case[0] for case in HELP])
def test_help_text_is_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv.split()) == (code, out, err)


def test_run_builds_no_parser(capsys, monkeypatch):
    def no_build():
        raise AssertionError("run() built a parser")

    monkeypatch.setattr(cli, "_build_parser", no_build)
    monkeypatch.setenv("COLUMNS", "80")
    argv, code, out, err = ENVELOPES[0]
    assert code == 0
    assert run_cli(capsys, *argv.split(), "--repro") == (code, out, err)
    assert run_cli(capsys, "count") == (
        2, "", "error:usage:the following arguments are required: --q\n")
    argv, code, out, err = HELP[0]
    assert run_cli(capsys, *argv.split()) == (code, out, err)


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    # each pair would show a flag, default or error leaking from the first
    # call into the second through the parser run() keeps between calls
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ("verify", "--q", "2", "--n", "2", "--format", "csv", "--repro"),
        ("verify", "--q", "2", "--n", "2", "--repro"),
        ("centralizer", "--q", "2", "--matrix", "1,0;0,1", "--budget", "7",
         "--repro"),
        ("centralizer", "--q", "2", "--matrix", "1,0;0,1", "--repro"),
        ("count", "--q", "2", "--n", "3", "--repro"),
        ("count", "--q", "2", "--poly", "x^2+x+1", "--repro"),
        ("rcf", "--q", "2", "--matrix", "0,1;1,1", "--extra"),
        ("rcf", "--q", "2", "--matrix", "0,1;1,1", "--repro"),
        ("--help",),
        ("factor", "--q", "3", "--poly", "x^2+1", "--repro"),
    ]
    first = [run_cli(capsys, *argv) for argv in sequence]
    assert [run_cli(capsys, *argv) for argv in sequence] == first
    codes = [code for code, _, _ in first]
    assert codes == [0, 0, 0, 0, 0, 0, 2, 0, 0, 0]
    csv, verify = first[0][1], json.loads(first[1][1])
    assert csv.startswith("charpoly,census,formula\n")
    assert verify["command"] == "verify" and verify["result"]["pass"]
    budgeted, default = (json.loads(first[i][1]) for i in (2, 3))
    assert budgeted["params"]["budget"] == 7
    assert budgeted["result"]["unit_count"] is None
    assert default["params"]["budget"] == 1048576 == mc.DEFAULT_SPAN_BUDGET
    assert default["result"]["unit_count"] == "6"
    by_n, by_poly = (json.loads(first[i][1]) for i in (4, 5))
    assert (by_n["params"]["n"], by_n["params"]["poly"]) == (3, None)
    assert by_n["result"]["count"] == "24"
    assert (by_poly["params"]["n"], by_poly["params"]["poly"]) == (
        2, "x^2+x+1")
    assert by_poly["result"]["count"] == "2"
    assert first[6] == (2, "", "error:usage:unrecognized arguments: --extra\n")
    assert json.loads(first[7][1])["result"]["blocks"] == ["x^2+x+1"]
    assert first[8] == tuple(HELP[0][1:])
    assert json.loads(first[9][1])["result"]["factors"] == [["x^2+1", 1]]
    assert all(err == "" for code, _, err in first if code == 0)
