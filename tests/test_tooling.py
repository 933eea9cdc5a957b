import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hallforge"


def test_no_assert_outside_gf():
    # `python -O` strips asserts, so results are guarded by raised errors;
    # gf.py keeps its internal preconditions
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "gf.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
