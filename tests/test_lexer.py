import random
from pathlib import Path

from emitlint.lexer import TokenKind, lex
from emitlint.source import SourceFile

from helpers import (
    FIXTURES, bench_tree, classify_word, front_end_inputs, is_elementary_type,
    reference_group_lex, reference_lex, reference_token_lex, snippet_corpus,
    span_text, src, sweep_inputs, with_token_spans,
)


def kinds(tokens):
    return [t.kind for t in tokens]


def test_empty_input_yields_no_tokens():
    assert lex(src("")).tokens == []


def test_emit_statement_tokens():
    toks = lex(src("emit Deposit(msg.sender, _id, msg.value);")).tokens
    # Hand-tokenized: emit Deposit ( msg . sender , _id , msg . value ) ;
    assert len(toks) == 14
    assert toks[0].kind == TokenKind.KEYWORD and toks[0].lexeme == "emit"
    assert toks[1].kind == TokenKind.IDENTIFIER and toks[1].lexeme == "Deposit"
    assert toks[2].kind == TokenKind.PUNCT and toks[2].lexeme == "("
    assert toks[-1].lexeme == ";"


def test_line_comment_dropped():
    toks = lex(src("uint x = 0x2A; // hi")).tokens
    # Hand-tokenized: uint x = 0x2A ;  (comment consumed)
    assert [t.lexeme for t in toks] == ["uint", "x", "=", "0x2A", ";"]
    assert kinds(toks) == [TokenKind.KEYWORD, TokenKind.IDENTIFIER,
                           TokenKind.OPERATOR, TokenKind.NUMBER,
                           TokenKind.PUNCT]


def test_block_comment_dropped_and_recorded():
    result = lex(src("uint /* note\n more */ x;"))
    assert [t.lexeme for t in result.tokens] == ["uint", "x", ";"]
    assert result.ranges == [(5, 21)]


def test_string_literals_both_quotes():
    toks = lex(src("emit E(\"a b\", 'c');")).tokens
    strings = [t for t in toks if t.kind == TokenKind.STRING]
    assert [t.lexeme for t in strings] == ['"a b"', "'c'"]


def test_string_escapes():
    toks = lex(src(r'x = "a\"b\\c";')).tokens
    strings = [t for t in toks if t.kind == TokenKind.STRING]
    assert len(strings) == 1
    assert strings[0].lexeme == r'"a\"b\\c"'


def test_unterminated_string_recovers_at_next_line():
    result = lex(src('uint a = "oops;\nuint b;'))
    assert [e.kind for e in result.errors] == ["UnterminatedString"]
    lexemes = [t.lexeme for t in result.tokens]
    assert "b" in lexemes  # tokenization continued on the next line


def test_unterminated_block_comment():
    result = lex(src("uint a; /* never closed"))
    assert [e.kind for e in result.errors] == ["UnterminatedComment"]
    assert [t.lexeme for t in result.tokens] == ["uint", "a", ";"]


def test_unexpected_characters_reported_once_per_run():
    result = lex(src("uint a; @#$ uint b;"))
    assert [e.kind for e in result.errors] == ["UnexpectedCharacter"]


def test_non_ascii_digits_are_unexpected_characters():
    """Solidity numbers are ASCII; a run of Arabic-Indic digits, alone or
    after an ASCII digit, is one lex error, not a number."""
    result = lex(src("uint x = \u0663\u0664; uint y = 1\u0663;"))
    assert [e.kind for e in result.errors] == ["UnexpectedCharacter"] * 2
    assert [t.lexeme for t in result.tokens
            if t.kind == TokenKind.NUMBER] == ["1"]


def test_operators_longest_match():
    toks = lex(src("a >>= b << c != d ** e")).tokens
    ops = [t.lexeme for t in toks if t.kind == TokenKind.OPERATOR]
    assert ops == [">>=", "<<", "!=", "**"]


def test_number_forms():
    toks = lex(src("x = 1_000 + 0xAb_c + 1e18 + 2.5;")).tokens
    nums = [t.lexeme for t in toks if t.kind == TokenKind.NUMBER]
    assert nums == ["1_000", "0xAb_c", "1e18", "2.5"]


def test_elementary_types_are_keywords():
    toks = lex(src("uint256 a; bytes32 b; address c; MyType d;")).tokens
    assert toks[0].kind == TokenKind.KEYWORD
    assert toks[3].kind == TokenKind.KEYWORD
    assert toks[6].kind == TokenKind.KEYWORD
    assert toks[9].kind == TokenKind.IDENTIFIER


def test_keywords_are_whole_words():
    """A type name followed by more word characters is one identifier, and
    an elementary type's digits are ASCII."""
    toks = lex(src("uint256x bytes33 ufixed128x18 $x uint8$ int\u0663")).tokens
    assert [(t.lexeme, t.kind) for t in toks] == [
        ("uint256x", TokenKind.IDENTIFIER), ("bytes33", TokenKind.IDENTIFIER),
        ("ufixed128x18", TokenKind.KEYWORD), ("$x", TokenKind.IDENTIFIER),
        ("uint8$", TokenKind.IDENTIFIER), ("int", TokenKind.KEYWORD)]
    assert not is_elementary_type("uint\u0663")
    assert not is_elementary_type("uint8\n")
    assert is_elementary_type("uint8")


def test_spans_reproduce_lexemes():
    file = src('contract C {\n    uint a = "x\\ny";\n    // c\n}\n')
    for tok in lex(file).tokens:
        assert file.text[tok.start:tok.end] == tok.lexeme
        span = file.span_from_offsets(tok.start, tok.end)
        assert span_text(file, span) == tok.lexeme


def test_tokens_ordered_and_nonoverlapping_with_reconstruction():
    """Concatenating lexemes and the skipped gaps reconstructs the input, and
    the gaps hold only whitespace and comments."""
    for file in snippet_corpus(12):
        result = lex(file)
        pos = 0
        rebuilt = []
        for tok in result.tokens:
            start, end = tok.start, tok.end
            assert start >= pos, "tokens overlap or are out of order"
            gap = file.text[pos:start]
            without_comments = gap
            for a, b in result.ranges:
                if pos <= a and b <= start:
                    without_comments = without_comments.replace(
                        file.text[a:b], "", 1)
            assert without_comments.strip() == ""
            rebuilt.append(gap)
            rebuilt.append(tok.lexeme)
            assert file.text[start:end] == tok.lexeme
            pos = end
        rebuilt.append(file.text[pos:])
        assert "".join(rebuilt) == file.text


def test_determinism():
    text = Path(__file__).read_text(encoding="utf-8")
    file = src(text.replace("\x00", ""), "self.sol")
    assert lex(file).tokens == lex(file).tokens


# Fragments that exercise every lexer rule and its edges: quotes and
# escapes (an escaped LF or CRLF continues a string), comment openers and
# closers, line endings, characters that start no token (form feed,
# vertical tab, NBSP, U+2028, NUL, '@#', a backtick), number prefixes, a
# non-ASCII digit, operators that share a prefix, every punctuation
# character (the class the token regex tries first), and punctuation or '$'
# glued to a word or a number.
_LEX_FRAGMENTS = (
    '"', "'", "\\", "\\\n", "\\\r\n", "/*", "*/", "//", "/", "*",
    "\n", "\r\n", "\r", "\t", " ", "\f", "\v", "\u00a0", "\u2028", "\x00",
    "@#", "$", "`", "0x", "0xAb_", "1e", "1e18", "2.5", ".5", "1_0", "\u0663",
    ">>=", "<<=", "=>", "**", "&&", "||", "!=", "=", "-", "~", "emit",
    "uint8", "x", "\u00e9",
    "(", ")", "[", "]", "{", "}", ";", ",", ".", "?", ":", "x.5", "1.", "a$b",
)


def _mutated_sources(bases: list[str], count: int, seed: int) -> list[str]:
    """Token soup, and windows of the bases with fragments spliced in; one
    in ten ends in a backslash."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        if rng.random() < 0.3:
            text = "".join(rng.choice(_LEX_FRAGMENTS)
                           for _ in range(rng.randint(0, 24)))
        else:
            base = rng.choice(bases)
            start = rng.randrange(len(base) + 1)
            text = base[start:start + rng.randint(0, 100)]
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(len(text) + 1)
                cut = rng.choice((0, 0, 1, 3))
                text = text[:i] + rng.choice(_LEX_FRAGMENTS) + text[i + cut:]
        if rng.random() < 0.1:
            text += "\\"
        texts.append(text)
    return texts


def test_master_regex_matches_reference_lexer():
    """Tokens (kind, lexeme, and the span of their offsets), errors, comment
    ranges and string ranges equal those of the hand-written reference
    lexer."""
    files = [SourceFile.load(p) for p in sorted(FIXTURES.rglob("*.sol"))]
    files += snippet_corpus()
    mutated = _mutated_sources([f.text for f in files], 20_000, seed=4)
    for fragment in _LEX_FRAGMENTS:
        assert any(fragment in text for text in mutated), repr(fragment)
    files += [src(text) for text in mutated]
    error_kinds = set()
    for file in files:
        expected = reference_lex(file)
        assert with_token_spans(file, lex(file)) == expected, repr(file.text)
        error_kinds.update(e.kind for e in expected.errors)
    assert error_kinds == {"UnterminatedString", "UnterminatedComment",
                           "UnexpectedCharacter"}


def test_each_lexeme_has_one_kind():
    """The parser and the kill scan test fixed tokens by lexeme alone; that
    is sound only while no lexeme lexes to two kinds. The sweep's inputs hold
    every fixture and snippet, token soup and mutated sources."""
    kind_of: dict[str, TokenKind] = {}
    for i, text in enumerate(sweep_inputs()):
        for tok in lex(src(text)).tokens:
            assert kind_of.setdefault(tok.lexeme, tok.kind) == tok.kind, \
                (i, tok)
    assert set(kind_of.values()) == set(TokenKind)
    assert len(kind_of) > 500, len(kind_of)


def test_lex_matches_the_per_class_group_lexer():
    """Tokens, errors, comment ranges and string ranges equal those of the
    lexer with one named alternative per class and `classify_word` per
    word, on the sweep, the edge cases and the perfbench corpora."""
    for file in front_end_inputs():
        assert lex(file) == reference_group_lex(file), repr(file.text[:200])


def test_word_kinds_follow_classify_word():
    """The keyword alternative in the token regex and `classify_word` are
    one rule: every word token's kind is what `classify_word` gives."""
    kinds = set()
    for file in front_end_inputs():
        for tok in lex(file).tokens:
            if tok.kind in (TokenKind.KEYWORD, TokenKind.IDENTIFIER):
                assert tok.kind == classify_word(tok.lexeme), tok
                kinds.add(tok.kind)
    assert kinds == {TokenKind.KEYWORD, TokenKind.IDENTIFIER}


def test_columns_match_the_token_building_lexer():
    """The three token columns and each token's end, its start plus its
    lexeme's length, equal, field by field, the Tokens that `lex` built
    before it kept columns, and the `tokens` view equals that list;
    errors, comment ranges and string ranges are equal too. Inputs: the
    front-end inputs, the fixtures, and both perfbench lint trees at seeds
    1-3."""
    files = front_end_inputs()
    files += [SourceFile.load(p) for p in sorted(FIXTURES.rglob("*.sol"))]
    files += [file for workload in ("project", "monolith")
              for seed in (1, 2, 3) for file in bench_tree(workload, seed)]
    for file in files:
        result, expected = lex(file), reference_token_lex(file)
        where = repr(file.text[:200])
        assert result.kinds == [tok.kind for tok in expected.tokens], where
        assert result.lexemes == [tok.lexeme for tok in expected.tokens], \
            where
        assert result.starts == [tok.start for tok in expected.tokens], where
        assert [start + len(lexeme) for start, lexeme in zip(
            result.starts, result.lexemes)] == \
            [tok.end for tok in expected.tokens], where
        assert result.tokens == expected.tokens, where
        assert (result.errors, result.ranges) == expected[1:], where


def test_equal_lexemes_of_a_lex_are_one_string_object():
    """`lex` keeps one string object per distinct lexeme, so a name or
    keyword used many times is stored once. Inputs: every fixture file and
    every text of the robustness sweep."""
    files = [SourceFile.load(p) for p in sorted(FIXTURES.rglob("*.sol"))]
    files += [src(text) for text in sweep_inputs()]
    repeated = 0
    for file in files:
        lexemes = lex(file).lexemes
        distinct = len(set(lexemes))
        assert len(set(map(id, lexemes))) == distinct, file.text[:200]
        repeated += len(lexemes) - distinct
    assert repeated > 10_000, repeated


def test_tokens_view_is_built_on_each_read():
    """`tokens` is a view of the columns, not a cache: each read is a new
    list, and it follows the columns."""
    result = lex(src("emit E(a);"))
    first = result.tokens
    assert first == result.tokens and first is not result.tokens
    result.lexemes[1] = "F"
    assert result.tokens[1].lexeme == "F" and first[1].lexeme == "E"
