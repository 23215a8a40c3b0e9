"""The front end's observable output, pinned by digest.

Over the printed text of every ``modelgen`` seed in 0-599 and every model
under ``models/``, each digest covers one output of the lexer, parser,
printer or checker, in a fixed order: every token, every node's type and
position, the printed text, the rendered diagnostics, and what a seeded
set of single-character edits does to the lexer and the parser.  A change
to any of them, however small, changes its digest, so a rewrite of the
front end that keeps its behaviour keeps every digest.
"""
from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from modelgen import generate_model
from remodyc import ast
from remodyc.parser import SourceError, parse_model, pretty_print, tokenize
from remodyc.typecheck import check_model

MODELS = Path(__file__).resolve().parent.parent / "models"
SEEDS = range(600)
EDITS = 2000
# What an insertion puts in: brackets, comments, line ends, the two
# lookahead tokens, a letter outside ASCII, digits and operators.
INSERTS = ("[", "]", "#", "\r", "\n", "'s", "d/dt", "é", "0", "7", "e", ".", "-",
           ">", "=", "(", ")", "^", "/", ",", "'", " ")

DIGESTS = {
    "tokens": "0ef2f75512811eda83288b97f80450c9cac8a756a5bfe0b52637ced7f1664257",
    "nodes": "09f5fe1bc2da6074af62e3f129809a63bcf82b18156ec6ea0d5e78a59778b476",
    "printed": "28debd373003a1718c149632ca1d2b54655edf790280a81270cae97d0fcd519b",
    "diagnostics": "b72b64ad208a71a83b26c4dcfed07ac25b10754fab8f60193979f372fa7d8296",
    "edits": "fe4d31037d3276ad3b3551eea4832110460069e46c6339793e0197c68cba8aa8",
}


def corpus() -> list[tuple[str, str]]:
    texts = [(f"gen:{seed}", pretty_print(generate_model(seed))) for seed in SEEDS]
    texts += [(path.name, path.read_text()) for path in sorted(MODELS.glob("*.rmd"))]
    return texts


def preorder(node):
    """Every ``ast`` node under ``node`` (itself included), fields in order."""
    if isinstance(node, ast.Node):
        yield node
        for field in dataclasses.fields(node):
            if field.name != "pos":
                yield from preorder(getattr(node, field.name))
    elif isinstance(node, tuple):
        for item in node:
            yield from preorder(item)


def lexed(text: str):
    try:
        return [tuple(token) for token in tokenize(text)]
    except SourceError as err:
        return (err.message, err.line, err.column)


def parsed(text: str):
    try:
        model = parse_model(text)
    except SourceError as err:
        return (err.message, err.line, err.column)
    return [(type(node).__name__, node.pos) for node in preorder(model)]


def edited(texts: list[tuple[str, str]]) -> list[str]:
    """``EDITS`` texts, each one insertion from ``INSERTS`` or one deletion."""
    rng = random.Random(25)
    out = []
    for _ in range(EDITS):
        _, text = rng.choice(texts)
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5 and at < len(text):
            out.append(text[:at] + text[at + 1:])
        else:
            out.append(text[:at] + rng.choice(INSERTS) + text[at:])
    return out


def digest(items) -> str:
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(repr(item).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def texts():
    return corpus()


def test_tokens_are_pinned(texts):
    assert digest(lexed(text) for _, text in texts) == DIGESTS["tokens"]


def test_nodes_and_positions_are_pinned(texts):
    assert digest(parsed(text) for _, text in texts) == DIGESTS["nodes"]


def test_printed_text_is_pinned(texts):
    assert digest(pretty_print(parse_model(text)) for _, text in texts) == DIGESTS["printed"]


def test_diagnostics_are_pinned(texts):
    rendered = (
        [d.render(key) for d in check_model(parse_model(text))] for key, text in texts
    )
    assert digest(rendered) == DIGESTS["diagnostics"]


def test_errors_of_single_edits_are_pinned(texts):
    results = ((lexed(text), parsed(text)) for text in edited(texts))
    assert digest(results) == DIGESTS["edits"]
