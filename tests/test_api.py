"""The package's public names, and the emitlint names the benchmark's traced
replay (perfbench/tracing.py) calls: a refactor that renames one or changes
its arity breaks these tests instead of the traced run."""

import ast
import importlib
import inspect
from pathlib import Path

import emitlint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_public_name_imports():
    for name in emitlint.__all__:
        assert hasattr(emitlint, name), name


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def _chain(node) -> list[str] | None:
    """['root', 'attr', ...] for a Name or a chain of attribute accesses."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return [node.id] + attrs[::-1]
    return None


def _traced_uses():
    """(dotted name, call node or None) for every use of an emitlint name."""
    tree = ast.parse(TRACING.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "emitlint":
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    uses = []
    for node in ast.walk(tree):
        target = node.func if isinstance(node, ast.Call) else node
        chain = _chain(target) if isinstance(target, (ast.Attribute,
                                                      ast.Name)) else None
        if chain and chain[0] in bound:
            dotted = ".".join([bound[chain[0]]] + chain[1:])
            uses.append((dotted, node if isinstance(node, ast.Call) else None))
    return uses


def test_names_the_traced_replay_calls_exist_with_their_arity():
    uses = _traced_uses()
    called = {dotted for dotted, call in uses if call is not None}
    assert {"emitlint.checks.iter_functions", "emitlint.checks.iter_emits",
            "emitlint.metrics.count_file_emits", "emitlint.parser.parse",
            "emitlint.cli.collect_source_files"} <= called
    for dotted, call in uses:
        obj = _resolve(dotted)
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        inspect.signature(obj).bind(
            *range(len(call.args)), **{k.arg: None for k in call.keywords})
