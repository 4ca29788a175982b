"""Tokenizer unit tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SyntaxErrorSQL
from repro.sql.lexer import EOF, NUMBER, OP, PARAM, STRING, WORD, tokenize

from . import lexer_reference as reference


def kinds(sql):
    return [t.kind for t in tokenize(sql)][:-1]


def values(sql):
    return [t.value for t in tokenize(sql)][:-1]


class TestBasicTokens:
    def test_keywords_are_lowercased_words(self):
        assert values("SELECT FROM WhErE") == ["select", "from", "where"]

    def test_identifier_with_underscore_and_digits(self):
        assert values("tbl_1 _x a2b") == ["tbl_1", "_x", "a2b"]

    def test_quoted_identifier_preserves_case(self):
        tokens = tokenize('"MixedCase"')
        assert tokens[0].kind == WORD
        assert tokens[0].value == "MixedCase"

    def test_integer_and_float(self):
        assert values("42 3.14 .5 1e3 2.5e-2") == [42, 3.14, 0.5, 1000.0, 0.025]

    def test_number_types(self):
        tokens = tokenize("1 1.0")
        assert isinstance(tokens[0].value, int)
        assert isinstance(tokens[1].value, float)

    def test_string_literal(self):
        assert values("'hello'") == ["hello"]

    def test_string_with_doubled_quote(self):
        assert values("'it''s'") == ["it's"]

    def test_e_string_escapes(self):
        assert values(r"E'a\nb'") == ["a\nb"]

    def test_dollar_quoted_string(self):
        assert values("$$body text$$") == ["body text"]

    def test_tagged_dollar_quoted_string(self):
        assert values("$fn$x $$ y$fn$") == ["x $$ y"]


class TestOperators:
    def test_multi_char_operators(self):
        assert values("a::int") == ["a", "::", "int"]
        assert values("a <> b != c") == ["a", "<>", "b", "!=", "c"]
        assert values("x->'k'") == ["x", "->", "k"]
        assert values("x->>'k'") == ["x", "->>", "k"]
        assert values("a || b") == ["a", "||", "b"]
        assert values("j @> k") == ["j", "@>", "k"]
        assert values("name := 1") == ["name", ":=", 1]

    def test_json_path_operators(self):
        assert values("d #> p") == ["d", "#>", "p"]
        assert values("d #>> p") == ["d", "#>>", "p"]

    def test_regex_operators(self):
        assert values("a ~ b ~* c !~ d") == ["a", "~", "b", "~*", "c", "!~", "d"]


class TestParameters:
    def test_positional_parameter(self):
        tokens = tokenize("$1 $23")
        assert [t.kind for t in tokens[:-1]] == [PARAM, PARAM]
        assert [t.value for t in tokens[:-1]] == [1, 23]

    def test_named_parameter(self):
        tokens = tokenize(":key1")
        assert tokens[0].kind == PARAM
        assert tokens[0].value == "key1"

    def test_cast_is_not_named_parameter(self):
        assert values("a::text") == ["a", "::", "text"]


class TestComments:
    def test_line_comment(self):
        assert values("SELECT 1 -- comment\n+ 2") == ["select", 1, "+", 2]

    def test_block_comment(self):
        assert values("SELECT /* hi */ 1") == ["select", 1]

    def test_unterminated_block_comment(self):
        with pytest.raises(SyntaxErrorSQL):
            tokenize("SELECT /* oops")

    def test_unterminated_string(self):
        with pytest.raises(SyntaxErrorSQL):
            tokenize("SELECT 'oops")


class TestEdgeCases:
    def test_empty_input(self):
        assert tokenize("")[0].kind == EOF

    def test_whitespace_only(self):
        assert tokenize("  \n\t ")[0].kind == EOF

    def test_adjacent_punctuation(self):
        assert values("f(a,b)") == ["f", "(", "a", ",", "b", ")"]

    def test_unexpected_character(self):
        with pytest.raises(SyntaxErrorSQL):
            tokenize("SELECT \x01")


class TestSameAsTheReferenceLexer:
    """The regular-expression lexer gives the tokens (kind, value, position)
    and the errors of the character-by-character lexer it replaced, kept in
    ``tests/lexer_reference.py``. Drawn from pieces that meet at every
    boundary the lexers decide on, and from any text of ASCII characters
    and Unicode letters and decimal digits."""

    PIECES = ["select", "SeLeCt", "e", "E", "x_1", "_", "a$b", "é", "٣",
              "1", "42", "1.", ".5", "1.5", "1e3", "1E+2", "2.5e-2", "1e",
              "1..", "99999999999999999999", "'", "''", "'it''s'", "E'",
              "e'a\\nb'", "\\", "\\'", '"', '"Mixed"', "$", "$1", "$$",
              "$tag$", "$$x$$", ":", "::", ":=", ":name", "-", "--", "/",
              "/*", "*/", "*", "->>", "#>", "#", "@>", "<@", "<", ">", "=",
              "!", "!=", "~*", "|", "||", "(", ")", ",", ";", ".", "[", "]",
              "?", "%", " ", "\t", "\n", "\r", "\x0c", "\x01"]

    @staticmethod
    def outcome(lex, sql):
        try:
            return [(t.kind, t.value, t.pos) for t in lex(sql)]
        except Exception as exc:  # both must raise the same
            return (type(exc).__name__, str(exc))

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(st.sampled_from(PIECES), max_size=12).map("".join))
    def test_any_sequence_of_pieces(self, sql):
        assert self.outcome(tokenize, sql) == self.outcome(reference.tokenize, sql)

    @settings(max_examples=500, deadline=None)
    @given(st.text(st.characters(blacklist_categories=("No", "Nl", "Cs"))))
    def test_any_text(self, sql):
        assert self.outcome(tokenize, sql) == self.outcome(reference.tokenize, sql)
