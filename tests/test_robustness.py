"""Seeded robustness sweep over token soup, mutated fixtures and mutated
snippets: every analysis runs on every input without raising, reports spans
inside the file, gives the same output twice, and on a parse with no errors
counts as many emits from the AST as the textual matcher finds outside
comments and strings."""

import random

from emitlint.checks import run_checks
from emitlint.evolution import FilePair, Revision, analyze_revision
from emitlint.metrics import compute_metrics, count_ast_emits
from emitlint.scan import extract_emits_regex
from emitlint.source import SourceFile, Span

from helpers import FIXTURES, snippet_corpus, spans_in, src

SEED = 20261018
SOUP_INPUTS = 600
MUTATED_INPUTS = 1340

_SOUP = (
    "pragma", "solidity", "^0.8.0", "import", '"./a.sol"', "contract", "C",
    "interface", "library", "abstract", "is", "{", "}", "(", ")", "[", "]",
    ";", ",", ".", "?", ":", "=", "+=", "++", "==", "=>", "&&", "-", "*",
    "function", "f", "public", "view", "returns", "modifier", "event", "E",
    "indexed", "emit", "uint", "address", "mapping", "memory", "storage",
    "if", "else", "for", "while", "return", "try", "catch", "assembly",
    "unchecked", "new", "x", "y", "msg.sender", "0", "42", "0x1", "'s'",
    "\"t\"", "// note\n", "/* block */", "\n", "emit E(x);", "uint x = y;",
)
_FRAGMENTS = ("{", "}", "(", ")", "[", "]", ";", "emit E(a[1], b);",
              "uint[2][] v;", "mapping(uint => uint[]) m;",
              "try c.f() returns (uint v) { emit A(v); } catch { emit B(); }",
              "pragma solidity ^0.8.0", "import \"./x.sol\"", "/*", "\"",
              "// c", "contract", "function g() public {", "x = y;")


def _soup(rng: random.Random) -> str:
    return " ".join(rng.choice(_SOUP) for _ in range(rng.randint(1, 60)))


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(4)
        pos = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:pos] + " " + rng.choice(_FRAGMENTS) + " " + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + rng.randint(1, 12):]
        elif op == 2 and ";" in text:
            # Drop one ';' (a directive's among them).
            cut = rng.choice([i for i, ch in enumerate(text) if ch == ";"])
            text = text[:cut] + text[cut + 1:]
        else:
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1),
                         lines[rng.randrange(len(lines))])
            text = "\n".join(lines)
    return text


def _inputs() -> list[str]:
    rng = random.Random(SEED)
    bases = [p.read_text(encoding="utf-8")
             for p in sorted(FIXTURES.rglob("*.sol"))]
    bases += [f.text for f in snippet_corpus()]
    texts = list(bases)
    texts += [_soup(rng) for _ in range(SOUP_INPUTS)]
    texts += [_mutate(rng, rng.choice(bases)) for _ in range(MUTATED_INPUTS)]
    return texts


def _inside(span: Span, file: SourceFile) -> bool:
    if not (1 <= span.start_line <= span.end_line <= len(file.line_starts)):
        return False
    lo = file.linecol_to_offset(span.start_line, span.start_col)
    hi = file.linecol_to_offset(span.end_line, span.end_col)
    return (0 <= lo <= hi <= len(file.text)
            and file.offset_to_linecol(lo) == span.start
            and file.offset_to_linecol(hi) == span.end)


def _analyze(before: SourceFile, after: SourceFile):
    checked = run_checks(after)
    metrics = compute_metrics([after])
    report = analyze_revision(
        Revision("r", None, (FilePair(after.path, before, after),)))
    return checked, metrics, report


def test_every_analysis_survives_seeded_damage():
    texts = _inputs()
    assert len(texts) >= 2000
    before = src("")
    clean = 0
    for i, text in enumerate(texts):
        after = src(text, f"in{i}.sol")
        checked, metrics, report = _analyze(before, after)
        assert repr(_analyze(before, after)) == \
            repr((checked, metrics, report)), i
        tree = checked.tree
        spans = spans_in([checked.analysis.unit, checked.diagnostics,
                          [(s.span, s.symbols) for s in tree.scopes],
                          tree.warnings, extract_emits_regex(after),
                          [ch.after_emit for ch in report.changes]])
        bad = [s for s in spans if not _inside(s, after)]
        assert not bad, (i, bad[:3])
        assert all(_inside(ch.before_emit.span, before)
                   for ch in report.changes if ch.before_emit), i
        unit = checked.analysis.unit
        if not unit.parse_errors:
            clean += 1
            regex = sum(1 for m in extract_emits_regex(after)
                        if not m.in_comment_or_string)
            assert count_ast_emits(unit) == regex, (i, text)
        before = after
    assert clean >= 100, clean
