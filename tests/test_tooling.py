import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hallforge"


def _nodes():
    """(file name, node) for every AST node of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_outside_gf():
    # `python -O` strips asserts, so results are guarded by raised errors;
    # gf.py keeps its internal preconditions
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert) and name != "gf.py"]
    assert found == []


def test_no_raised_assertion_error():
    # a failed check raises a package error that names what failed
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert found == []
