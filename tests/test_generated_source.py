"""The Python source ``Engine()`` generates, pinned as text for the eggs
model and as a sha256 digest for every model in ``models/``.

A change to how tasks are compiled shows here as a text diff, to be read
in review beside the trace digests of ``test_golden_trace.py``, which say
whether it changed what a run computes.
"""
from __future__ import annotations

import hashlib
import textwrap
from pathlib import Path

import pytest

from remodyc.interp import Engine, parse_config
from remodyc.memory import InMemoryBackend
from remodyc.parser import parse_model

MODELS = Path(__file__).resolve().parent.parent / "models"


def engine(name: str) -> Engine:
    """An engine for ``models/<name>.rmd`` on its config; move_delta.rmd
    runs on move.cfg."""
    config = (MODELS / f"{name.removesuffix('_delta')}.cfg").read_text()
    model = parse_model((MODELS / f"{name}.rmd").read_text())
    return Engine(model, parse_config(config), InMemoryBackend())


# ``# cN`` ends a line that can fail and names its abort site; the other
# ``cN`` are stages, positions and non-finite constants bound by name.
EGGS_SOURCE = textwrap.dedent("""\
    def task_0(bases, events):
        vals = image.vals
        for b in bases:
            write_delta(b + 2, 86400.0)  # c20
    def task_1(bases, events):
        vals = image.vals
        for b in bases:
            write_delta(b + 2, 86400.0)  # c21
    def task_2(bases, events):
        vals = image.vals
        for b in bases:
            if (vals[b + 2] >= 864000.0):
                events.append(('become', b, 'Egg', c22))
    def task_3(bases, events):
        vals = image.vals
        for b in bases:
            t1 = (vals[b + 0] + 0.2)
            write(b + 0, (5.0 if 5.0 < t1 else t1))  # c23
    def task_4(bases, events):
        vals = image.vals
        for b in bases:
            t1 = heading(vals[b + 0], vals[b + 1], 0)
            t2 = cos(t1)  # c24
            engine.rng_state, t3 = rng.sample_uniform(engine.rng_state, 0.0, 0.005787037037037037)  # c25
            write_delta(b + 0, ((t2 * t3) * 86400.0))  # c26
            t4 = sin(t1)  # c27
            write_delta(b + 1, ((t4 * t3) * 86400.0))  # c28
    def task_5(bases, events):
        vals = image.vals
        for b in bases:
            t1 = patches[cell(vals[b + 0], vals[b + 1])]
            t2 = (vals[t1 + 0] * 0.25)
            t3 = (t2 if t2 < 0.3 else 0.3)
            u0 = (t3 if t3 > 0.0 else 0.0)
            write_delta(b + 3, (u0 - 0.15))  # c29
            write_delta(t1 + 0, (-u0))  # c30
    def task_6(bases, events):
        vals = image.vals
        for b in bases:
            t1 = floor((vals[b + 3] / 2.0))  # c31
            t2 = (t1 if t1 < 1.0 else 1.0)
            u0 = (t2 if t2 > 0.0 else 0.0)
            write_delta(b + 3, (-(u0 * 0.8)))  # c32
            spawn(events, b, 'Adult', c33, (u0 * 2.0), c35)  # c34
    def task_7(bases, events):
        vals = image.vals
        for b in bases:
            if (vals[b + 3] < 0.3):
                events.append(('die', b))
""")


def test_eggs_source_is_pinned():
    assert engine("eggs").source == EGGS_SOURCE.rstrip("\n")


# sha256 of every model's generated source; move.rmd and move_delta.rmd
# compile to the same text.
SOURCE_SHA256 = {
    "age": "45c100a2d0aa4ff250ae0cf1b579bb15b1862fd857912fd883d98f2071e1eac7",
    "eggs": "b1e04dc58d6f5b8141bfe776ff5dd4d1696176b05832de5ad9a3928cbe2c4c5f",
    "memo": "b35dabf7ac62a4853a2bf388dbdd70ad080d7ddcd0d9ffa16c874388cf024441",
    "move": "4b8ae83cd94f0b75c6f35fdb629a63f7628750dc53c1bffdfd7f85704c8aaff3",
    "move_delta": "4b8ae83cd94f0b75c6f35fdb629a63f7628750dc53c1bffdfd7f85704c8aaff3",
}


@pytest.mark.parametrize("name", sorted(p.stem for p in MODELS.glob("*.rmd")))
def test_source_digest_is_pinned(name):
    """A model added to ``models/`` needs its digest here."""
    digest = hashlib.sha256(engine(name).source.encode()).hexdigest()
    assert digest == SOURCE_SHA256.get(name)


@pytest.mark.parametrize("name", sorted(p.stem for p in MODELS.glob("*.rmd")))
def test_no_task_calls_min_or_max(name):
    """``min`` and ``max`` compile to comparisons, never to builtin calls."""
    for _, task in engine(name).plan:
        assert not {"min", "max"} & set(task.__code__.co_names)
