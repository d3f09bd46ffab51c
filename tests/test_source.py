"""Static checks on the package source."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "matrix_census"


def _unguarded_asserts(node):
    """Assert statements under node that are not in an ``if __debug__:``
    body; ``python -O`` strips every assert, so only test-build
    cross-checks may be asserts."""
    if isinstance(node, ast.Assert):
        yield node
    debug = (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
             and node.test.id == "__debug__")
    for child in ast.iter_child_nodes(node):
        if not (debug and child in node.body):
            yield from _unguarded_asserts(child)


def test_no_output_guarding_assert_in_src():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in _unguarded_asserts(ast.parse(path.read_text(),
                                                      str(path)))]
    assert found == []
