"""src/vlafp holds only what the product calls.

Every top-level function and class of a package module must be read
somewhere outside its own body: by a name, an attribute or a string
constant that is exactly its identifier (segment() looks segmenters up by
name, and the benchmark's tracer names its patch sites so), in a package
module other than __init__.py, in scripts/ or in bench/. Tests do not
count as readers: a reference implementation that only tests call lives in
tests/oracles.py.

vlafp.autodiff is exempt while bench/tracing.py patches its
Tensor.backward.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vlafp"
EXEMPT = ("__init__.py", "autodiff.py")


def readers() -> list[Path]:
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return package + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def references(tree: ast.AST):
    """(identifier, line) of every name read, attribute read and identifier-like string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def unread_definitions() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in readers()}
    read: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in references(tree):
            read.setdefault(name, []).append((path, line))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = [
                (where, line)
                for where, line in read.get(node.name, [])
                if not (where == path and node.lineno <= line <= node.end_lineno)
            ]
            if not outside:
                unread.append(f"{path.stem}.{node.name}")
    return unread


def test_every_definition_has_a_reader_outside_tests():
    assert unread_definitions() == []
