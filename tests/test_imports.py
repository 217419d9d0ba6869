"""Every name a module of the package imports is used: read by the module,
listed in its `__all__`, or quoted in an annotation."""

import ast
from pathlib import Path

import emitlint

PACKAGE = Path(emitlint.__file__).resolve().parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, `from __future__` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *filter(None, (args.vararg, args.kwarg)))] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and \
                        isinstance(part.value, str):
                    used |= _used(ast.parse(part.value, mode="eval"))
    return used


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported(tree).items()
                   if name not in used]
    assert not unused, unused


def test_the_check_sees_reads_all_and_quoted_annotations():
    tree = ast.parse(
        "import os\nfrom a import B, C, D, E\n__all__ = ['C']\n"
        "def f(x: 'D') -> int:\n    return os.sep\n")
    used = _used(tree)
    assert {"os", "C", "D"} <= used
    assert not {"B", "E"} & used
