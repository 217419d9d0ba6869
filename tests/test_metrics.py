import weakref
from fractions import Fraction

from emitlint import metrics
from emitlint.metrics import FileAnalysis, compute_metrics
from emitlint.parser import parse_file

from helpers import SpanCounts, counted_emits, fixture_file, src


def _filler_contract(code_lines: int, emits: int, name="Filler") -> str:
    """Contract with an exact number of code lines, `emits` of which are emit
    statements inside one function."""
    lines = [f"contract {name} {{", "    event E(uint v);"]
    lines.append("    function f(uint v) public {")
    for _ in range(emits):
        lines.append("        emit E(v);")
    used = len(lines) + 2  # plus the two closing braces
    for i in range(code_lines - used):
        lines.append(f"        v = v + {i};")
    lines.append("    }")
    lines.append("}")
    assert len(lines) == code_lines
    return "\n".join(lines) + "\n"


def test_single_file_matches_corpus_median_shape():
    file = src(_filler_contract(100, 2))
    pm = compute_metrics([file])
    assert pm.total_code_loc == 100
    assert pm.total_emit_count == 2
    assert pm.emit_per_loc == Fraction(2, 100)
    assert f"{float(pm.emit_per_loc):.3f}" == "0.020"


def test_empty_project_all_zeros():
    pm = compute_metrics([])
    assert pm.file_count == 0
    assert pm.total_code_loc == 0
    assert pm.total_emit_count == 0
    assert pm.emit_per_loc == Fraction(0)


def test_three_file_totals():
    files = [
        src(_filler_contract(50, 5, "A"), "a.sol"),
        src(_filler_contract(20, 0, "B"), "b.sol"),
        src(_filler_contract(30, 1, "C"), "c.sol"),
    ]
    pm = compute_metrics(files)
    assert pm.file_count == 3
    assert pm.total_code_loc == 100
    assert pm.total_emit_count == 6
    assert pm.emit_per_loc == Fraction(6, 100)
    assert [f.emit_count for f in pm.per_file] == [5, 0, 1]
    assert pm.total_emit_count == sum(f.emit_count for f in pm.per_file)


def test_ast_method_used_on_clean_files():
    file = src(_filler_contract(30, 2))
    count, method = counted_emits(file)
    assert (count, method) == (2, "ast")


def test_regex_fallback_on_fatal_parse_error_same_count():
    """Dropping a semicolon flips the counting method without changing the
    result when emits live outside comments and strings."""
    clean = _filler_contract(30, 2)
    broken = clean.replace("v = v + 0;", "v = v + 0", 1)
    good_count, good_method = counted_emits(src(clean))
    bad_count, bad_method = counted_emits(src(broken, "broken.sol"))
    assert good_method == "ast"
    assert bad_method == "regex"
    assert good_count == bad_count == 2


def test_regex_fallback_excludes_commented_emits():
    text = """contract C {
    event E(uint v);
    function f(uint v) public {
        // emit E(0);
        emit E(v)
    }
}
"""
    count, method = counted_emits(src(text))
    assert method == "regex"  # missing semicolon is fatal
    assert count == 1


def test_zero_code_lines_file():
    pm = compute_metrics([src("// only a comment\n")])
    assert pm.per_file[0].code_loc == 0
    assert pm.per_file[0].emit_per_loc == Fraction(0)
    assert pm.emit_per_loc == Fraction(0)


def test_metrics_converts_no_node_position(monkeypatch):
    """Metrics read no node's span, so no position is converted at all on
    files without parse errors. A parse error keeps an eager Span; those
    are the only conversions on a file with parse warnings."""
    tree = [fixture_file("lint_tree", name) for name in ("a.sol", "b.sol")]
    token = fixture_file("realistic_token.sol")
    warnings = parse_file(token).parse_errors
    assert warnings and all(w.severity == "warning" for w in warnings)
    counts = SpanCounts(monkeypatch)
    compute_metrics(tree)
    assert counts.conversions == 0
    compute_metrics([token])
    assert counts.reads == 0
    assert counts.conversions == len(warnings)


def test_build_drops_the_lex_result_before_the_walks(monkeypatch):
    """`FileAnalysis.build` keeps only the comment and string ranges once
    the parse returns: at every function walk the lex result is gone, so
    no token column is alive through the walks, `count_loc` or the
    checks."""
    real_lex, real_walk = metrics.lex, metrics.walk_function
    lexed: list[weakref.ref] = []
    alive: list[bool] = []

    def recording_lex(file):
        result = real_lex(file)
        lexed.append(weakref.ref(result))
        return result

    def checking_walk(fn):
        alive.append(lexed[-1]() is not None)
        return real_walk(fn)

    monkeypatch.setattr(metrics, "lex", recording_lex)
    monkeypatch.setattr(metrics, "walk_function", checking_walk)
    analysis = FileAnalysis.build(src(_filler_contract(20, 2)))
    assert len(lexed) == 1 and analysis.emit_count == 2
    assert alive == [False]
