"""Static checks on the package source."""

import ast
import importlib
import pathlib

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


def test_every_traced_target_resolves():
    # perfbench/spans.py wraps each (module, attribute) in TARGETS when a run
    # is traced; one that no longer resolves would crash that run.  The file
    # is parsed, not imported.
    spans = SRC.parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(), str(spans))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
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
    # square and shift-and-XOR reduction, in the list kernel of poly.py
    homes = {"bit_length() + 64": ["errors.py"], "e >>= 1": ["field.py"],
             "out[i + j] = add(": ["poly.py"], "for j in range(db)": ["poly.py"],
             '"0".join(': ["poly.py"], "^= b << ": ["poly.py"]}
    for needle, files in homes.items():
        assert [path.name for path, text in _sources()
                if needle in text] == files, needle
    # the matrix-vector inner product is matrix._krylov's; the only other
    # such accumulation is Berkowitz's row i times those Krylov vectors
    assert [(path.name, text.count("add(s, mul(")) for path, text in _sources()
            if "add(s, mul(" in text] == [("matrix.py", 2)]


def test_no_internal_apply_or_poly_times_vector_calls():
    # inside src/ every matrix-vector product goes through matrix._krylov;
    # SquareMatrix.apply and poly_times_vector validate a caller's vector
    # and wrap it, so the package itself calls neither
    found = [f"{path.name}:{node.lineno}"
             for path, text in _sources()
             for node in ast.walk(ast.parse(text, str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("apply", "poly_times_vector")]
    assert found == []
