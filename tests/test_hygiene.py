"""Source hygiene of the package, checked with the standard library only."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "skewcyclic"


def _imported_names(tree):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Every name the module reads, counting names inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        for sub in ast.walk(note) if note is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_no_unused_imports():
    """No module of the package but __init__ (which re-exports) imports a
    name it never uses."""
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(sources) > 5, PACKAGE
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree)
            if name not in used
        ]
    assert not unused, "unused imports:\n" + "\n".join(unused)
