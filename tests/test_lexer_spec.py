"""An executable spec of the lexer, compared with ``parser.tokenize``.

``reference_tokenize`` is written from the token grammar in the
``parser`` module docstring alone and reads the text one character at a
time; it shares no code with ``tokenize``.  A Hypothesis property draws
strings from pieces that sit on the edges of that grammar and requires
the same tokens, or the same ``SourceError``, from both.
"""
from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st
from test_parser import LEXER_CASES

from remodyc.parser import KEYWORDS, SourceError, tokenize

BLANKS = set(" \t\r")
DIGITS = set("0123456789")
WORD_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
WORD = WORD_START | DIGITS
OPERATORS = set(".='()^+-*/<>,")


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens as ``(kind, value, line, column)``; raises ``SourceError``."""
    tokens, i, line, column = [], 0, 1, 1

    def at(k: int) -> str:  # the character at k, or "" past the end
        return text[k : k + 1]

    def run(k: int, chars: set[str]) -> int:  # the end of a run of ``chars``
        while at(k) in chars:
            k += 1
        return k

    while True:
        c = at(i)
        if c in BLANKS:
            i, column = i + 1, column + 1
            continue
        if c == "\n":
            i, line, column = i + 1, line + 1, 1
            continue
        if c == "#" and "\n" in text[i:]:  # a comment ends at the newline
            end = text.index("\n", i)
            i, column = end, column + end - i
            continue
        if c in ("", "#"):  # the end, or a comment that runs to it
            return tokens + [("eof", "", line, column)]
        # ``d/dt`` and ``'s`` not followed by what ``\w`` matches, in any script
        op = next((t for t in ("d/dt", "'s") if text.startswith(t, i)
                   and not (at(i + len(t)).isalnum() or at(i + len(t)) == "_")), "")
        op = op or next((t for t in ("->", "<=", ">=") if text.startswith(t, i)), "")
        if op or c in OPERATORS:
            kind = value = op or c
        elif c == "[":
            close = text.find("]", i)
            if close < 0 or "\n" in text[i:close]:
                raise SourceError("unterminated unit bracket", line, column)
            kind, value = "unit", text[i : close + 1]
        elif c in WORD_START:
            value = text[i : run(i, WORD)]
            kind = "kw" if value in KEYWORDS else "ident"
        elif c in DIGITS:
            end = run(i, DIGITS)
            if at(end) == "." and at(end + 1) in DIGITS:
                end = run(end + 1, DIGITS)
            sign = end + 1 + (at(end + 1) in ("+", "-"))
            if at(end) in ("e", "E") and at(sign) in DIGITS:
                end = run(sign, DIGITS)
            kind, value = "number", text[i:end]
        else:
            raise SourceError(f"unexpected character {c!r}", line, column)
        tokens.append((kind, value[1:-1] if kind == "unit" else value, line, column))
        i, column = i + len(value), column + len(value)


def lexed(lexer, text: str):
    """The tokens as tuples, or the error as ``(line, column, message)``."""
    try:
        return [tuple(token) for token in lexer(text)]
    except SourceError as err:
        return (err.line, err.column, err.message)


@pytest.mark.parametrize("text", list(LEXER_CASES))
def test_reference_reads_the_lexer_table(text):
    expected = LEXER_CASES[text]
    assert lexed(reference_tokenize, text) == (
        expected if isinstance(expected, list) else tuple(expected)
    )


# Pieces on the edges of the grammar: the lookahead tokens and their
# prefixes, letters and digits of other scripts (``\w`` but not ASCII),
# number parts, units, blanks, line ends and comments.
PIECES = (
    "d/dt", "d", "/", "dt", "'s", "'", "s", "x", "_", "é", "٣", "²",
    "2", "0", ".", "5", "e", "E", "+", "-", ">", "<", "=", "[", "]", "km", "[m]",
    " ", "\t", "\r", "\n", "#", "# c", "(", ")", ",", "^", "*", "to", "my", "delta",
)


@settings(max_examples=400, deadline=None, report_multiple_bugs=False)
@given(st.lists(st.sampled_from(PIECES), max_size=14).map("".join))
@example("d/dt_")
@example("a # note")
@example("x [km\n]")
@example("1e+٣")
def test_tokenize_matches_the_reference(text):
    assert lexed(tokenize, text) == lexed(reference_tokenize, text)
