"""Static checks on the package source."""

import ast
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
