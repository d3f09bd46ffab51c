"""Static checks on the package source."""

import ast
import importlib
import pathlib
import subprocess
import sys

import matrix_census

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "matrix_census"

# ``python -O`` strips every assert and every ``if __debug__:`` body, so a
# check that guards published output must be neither: it raises instead.


def _sources():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(path, path.read_text()) for path in paths]


def test_no_output_guarding_assert_in_src():
    found = [f"{path.name}:{node.lineno}"
             for path, text in _sources()
             for node in ast.walk(ast.parse(text, str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_debug_only_code_in_src():
    found = [f"{path.name}:{i}"
             for path, text in _sources()
             for i, line in enumerate(text.splitlines(), 1)
             if "__debug__" in line]
    assert found == []


def _traced_targets():
    # perfbench/spans.py's TARGETS, parsed, not imported
    spans = SRC.parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(), str(spans))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"])


def test_every_traced_target_resolves():
    # perfbench/spans.py wraps each (module, attribute) in TARGETS when a run
    # is traced; one that no longer resolves would crash that run
    targets = _traced_targets()
    assert targets
    missing = []
    for mod_name, attr, _ in targets:
        mod = importlib.import_module(f"matrix_census.{mod_name}")
        cls_name, _, name = attr.rpartition(".")
        owner = getattr(mod, cls_name) if cls_name else mod
        if not callable(vars(owner).get(name)):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_each_shared_kernel_has_one_home():
    # the lower bound that refuses a budget without computing b^e lives in
    # errors.within_budget, square-and-multiply in field.power, and the
    # polynomial product and division loops, with the GF(2) bit-spread
    # square and shift-and-XOR reduction and the odd-p slot packing, in the
    # list kernel of poly.py; the linear combination of vectors, which
    # factor's Frobenius step h Q takes over extension fields, in
    # matrix._combine
    homes = {"bit_length() + 64": ["errors.py"], "e >>= 1": ["field.py"],
             "out[i + j] = add(": ["poly.py"], "for j in range(db)": ["poly.py"],
             '"0".join(': ["poly.py"], "^= b << ": ["poly.py"],
             "from_bytes(": ["poly.py"], "to_bytes(": ["poly.py"],
             "out[t] = add(out[t], mul(c, ": ["matrix.py"]}
    for needle, files in homes.items():
        assert [path.name for path, text in _sources()
                if needle in text] == files, needle
    # one unpack of packed slots and one lazy-reduction add; factor's
    # Frobenius step h Q over odd prime fields calls poly._row_combiner,
    # which unpacks through _unpack_slots like the packed product and
    # division
    assert _enclosing_defs("% p for c in ") == [("poly.py", "_unpack_slots")]
    assert _enclosing_defs("-c % p * ") == [("poly.py", "_divmodp")]
    assert _enclosing_defs("_unpack_slots(") == [
        ("poly.py", "_unpack_slots"), ("poly.py", "_mulp"),
        ("poly.py", "_divmodp"), ("poly.py", "_row_combiner")]
    assert _enclosing_defs("_row_combiner(") == [
        ("factor.py", "_distinct_degree"), ("poly.py", "_row_combiner")]
    # the matrix-vector inner product is matrix._krylov's; the only other
    # such accumulation is Berkowitz's row i times those Krylov vectors
    assert [(path.name, text.count("add(s, mul(")) for path, text in _sources()
            if "add(s, mul(" in text] == [("matrix.py", 2)]
    # every row reduction in matrix.py subtracts through _reduce_mod, and
    # every row combination, the matrix product's rows too, accumulates in
    # _combine; poly.py's product and division loops are its own
    assert _enclosing_defs("] = sub(") == [("matrix.py", "_reduce_mod"),
                                           ("poly.py", "_divmod")]
    assert _enclosing_defs("] = add(out[") == [("matrix.py", "_combine"),
                                               ("poly.py", "_mul")]
    # the Berkowitz convolution with the previous charpoly is the step's
    # alone: the census's last row calls the step, not a copy of it
    assert _enclosing_defs("acc = add(acc, mul(col[") == [
        ("matrix.py", "_berkowitz_step")]


def _enclosing_defs(needle):
    """(file, name of the last def above the line) for each line of
    the package source holding the needle."""
    found = []
    for path, text in _sources():
        name = None
        for line in text.splitlines():
            head = line.lstrip()
            if head.startswith("def "):
                name = head[4:].partition("(")[0]
            if needle in line:
                found.append((path.name, name))
    return found


def test_every_exported_name_has_a_caller():
    # an exported name that no module of the package uses is surface that
    # no command needs; each exception gives its reason
    allowed = {
        # wrapped by perfbench/spans.py when a run is traced
        *(attr for _, attr, _ in _traced_targets()),
        # N_d, the number of monic irreducibles of degree d, for the
        # factorization-type counts
        "count_monic_irreducibles",
    }
    used = set()
    for path, text in _sources():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert set(matrix_census.__all__) - used - allowed == set()


def test_cli_import_loads_no_code_generator():
    # dataclasses pulls in inspect, ast, dis and tokenize, a large share of
    # a one-shot CLI process's start-up; -S keeps site .pth hooks out
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            "import matrix_census.cli; print(' '.join(sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    loaded = set(done.stdout.split())
    assert "matrix_census.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} \
        == set()
