import argparse
import ast
import collections
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import hallforge
from childenv import child_env
from hallforge import cli

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "hallforge"


def _nodes():
    """(file name, node) for every AST node of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert():
    # `python -O` strips asserts, so results and preconditions are guarded
    # by raised errors
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
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


# bench/tracing.py wraps the exact eliminator by its hallforge.hall path, so
# hall.py binds these three names without reading them
TRACER_BINDINGS = {("hall.py", "row_reduce"), ("hall.py", "matrix_rank"),
                   ("hall.py", "kernel_basis_exact")}


def test_no_unused_imports():
    # a name imported into a module and never read there is dead; the
    # package's __init__.py is exempt, since it imports its public names
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and (path.name, name) not in TRACER_BINDINGS:
                        found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == []


def test_every_caps_field_has_a_cli_flag():
    # a cap no user can set is dead configuration: with each --cap-* option
    # set to its own value, the registry's Caps holds exactly those values
    parser = argparse.ArgumentParser()
    cli.add_common(parser)
    flags = sorted(opt for action in parser._actions for opt in action.option_strings
                   if opt.startswith("--cap-"))
    values = {flag: 1000 + i for i, flag in enumerate(flags)}
    argv = ["--quiver", "kronecker"] + [str(x) for kv in values.items() for x in kv]
    _, hall = cli.build_context(parser.parse_args(argv))
    caps = dataclasses.asdict(hall.registry.caps)
    assert sorted(caps.values()) == sorted(values.values())


def test_child_processes_share_the_bytecode_setting(monkeypatch):
    # every subprocess a test starts gets its environment from `child_env`,
    # which passes PYTHONDONTWRITEBYTECODE through
    found = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "run" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "subprocess"):
                env = next((kw.value for kw in node.keywords if kw.arg == "env"), None)
                if not (isinstance(env, ast.Call) and isinstance(env.func, ast.Name)
                        and env.func.id == "child_env"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert child_env()["PYTHONDONTWRITEBYTECODE"] == "1"
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert "PYTHONDONTWRITEBYTECODE" not in child_env()


def test_backticked_dotted_names_resolve():
    # every `a.b` the package's modules and the README cite names something:
    # its first part is the package, one of its modules or a name a module
    # binds, and each further part an attribute of the one before
    modules = {info.name: importlib.import_module(f"hallforge.{info.name}")
               for info in pkgutil.iter_modules(hallforge.__path__)}
    roots = {"hallforge": hallforge, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            roots.setdefault(name, value)
    texts = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    texts.append((TESTS.parent / "README.md").read_text())
    cited = [name for text in texts
             for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)]

    def resolves(name):
        first, *rest = name.split(".")
        if first not in roots:
            return False
        owner = roots[first]
        for part in rest:
            if not hasattr(owner, part):
                return False
            owner = getattr(owner, part)
        return True

    assert cited and [name for name in cited if not resolves(name)] == []


def test_backticked_private_and_class_names_are_defined():
    # every bare `_name` or `CamelCase` name the package's sources and the
    # README cite is one the package defines (a def, a class or an assigned
    # name or attribute at any depth), so no citation outlives its code
    defined = set()
    for _, node in _nodes():
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    texts = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    texts.append((TESTS.parent / "README.md").read_text())
    cited = {name for text in texts
             for name in re.findall(r"`(_\w+|[A-Z][a-z0-9]+[A-Z]\w*)`", text)}
    assert cited and sorted(cited - defined) == []


def test_module_level_names_are_read():
    # every module-level def, class or assignment of the package is read
    # somewhere besides its binding: as a whole word elsewhere in the
    # package, the tests, the bench, the demos or the README
    root = TESTS.parent
    texts = [path.read_text() for folder in ("src", "tests", "bench", "demos")
             for path in sorted((root / folder).rglob("*.py"))]
    words = collections.Counter(re.findall(r"\w+", "\n".join(texts + [
        (root / "README.md").read_text()])))
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{path.name}:{name}" for name in names
                      if not name.startswith("__") and words[name] < 2]
    assert found == []
