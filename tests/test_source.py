from emitlint.source import SourceFile

from helpers import FIXTURES, reference_line_starts, snippet_corpus

# Only "\n" ends a line: a lone "\r" and U+2028 stay inside their line.
_STRESS = ("", "\ufeff", "\ufeff\n", "x", "contract C {}", "a\nb", "a\nb\n",
           "\n", "\n\n\n", "a\r\nb\r\n", "a\rb\r", "\r", "a\u2028b\n",
           "\u2028", "a\n\rb\r\n\n")


def test_line_index_equals_the_per_character_loop():
    texts = [p.read_text(encoding="utf-8")
             for p in sorted(FIXTURES.rglob("*.sol"))]
    texts += [f.text for f in snippet_corpus()]
    texts += _STRESS
    for text in texts:
        file = SourceFile.from_text("t.sol", text)
        assert file.text == text.removeprefix("\ufeff")
        assert file.line_starts == reference_line_starts(file.text), \
            repr(text)
