"""Every name a module of the package imports is used: read by the module,
listed in its `__all__`, or quoted in an annotation. Every private name a
module defines is read somewhere in the package."""

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


def _private_defined(tree: ast.Module) -> dict[str, int]:
    """Private name -> line of every module-level function, class and
    constant whose name starts with one `_`."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defined = [t.id for target in targets for t in ast.walk(target)
                       if isinstance(t, ast.Name)]
        else:
            continue
        for name in defined:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _unread_private(sources: dict[str, str]) -> list[str]:
    """"<module>:<line>: <name>" for each private module-level name that
    no module of sources reads, by name or as an attribute; importing it
    does not count."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        read |= _used(tree)
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    return [f"{name}:{line}: {private}"
            for name, tree in trees.items()
            for private, line in _private_defined(tree).items()
            if private not in read]


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_private_name_is_read_in_the_package():
    sources = _package_sources()
    assert len(sources) > 10
    unread = _unread_private(sources)
    assert not unread, unread


def test_the_private_check_sees_a_helper_left_behind():
    """A helper that only an import names, or that nothing names, is
    found; one read in another module, by name or as an attribute, is
    not."""
    sources = _package_sources()
    line = sources["scan.py"].count("\n") + 3
    sources["scan.py"] += "\n\ndef _count_code_lines(text, ranges):\n" \
        "    return 0\n"
    assert _unread_private(sources) == [f"scan.py:{line}: _count_code_lines"]
    unread = _unread_private({
        "a.py": "_A = 1\n_B, (_C, d) = 2, (3, 4)\n\n\ndef _f():\n"
                "    return _A\n\n\nclass _K:\n    pass\n",
        "b.py": "from a import _B, _f\nimport a\nx = a._C\n"})
    assert sorted(unread) == ["a.py:2: _B", "a.py:5: _f", "a.py:9: _K"]


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
