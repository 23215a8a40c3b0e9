"""The Python source ``Engine()`` generates, pinned as text for the eggs
model and as a sha256 digest for every model in ``models/``.

A change to how tasks are compiled shows here as a text diff, to be read
in review beside the trace digests of ``test_golden_trace.py``, which say
whether it changed what a run computes.
"""
from __future__ import annotations

import hashlib
import textwrap
import weakref
from pathlib import Path

import pytest

from remodyc import ast
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
# ``cN`` are positions and non-finite constants bound by name.
EGGS_SOURCE = textwrap.dedent("""\
    def task_0(vals, bases, events, state):
        nxt = image.next
        for b in bases:
            t1 = vals[b + 2] + 86400.0
            if t1 - t1: raise ValueError(t1)  # c19
            nxt[b + 2] = t1
        return state
    def task_1(vals, bases, events, state):
        nxt = image.next
        for b in bases:
            t1 = vals[b + 2] + 86400.0
            if t1 - t1: raise ValueError(t1)  # c20
            nxt[b + 2] = t1
        return state
    def task_2(vals, bases, events, state):
        for b in bases:
            if (vals[b + 2] >= 864000.0):
                events.append(('become', b, 'Egg', 'Adult'))
        return state
    def task_3(vals, bases, events, state):
        nxt = image.next
        assigned = image.assigned
        for b in bases:
            t1 = (vals[b + 0] + 0.2)
            t2 = (5.0 if 5.0 < t1 else t1) + 0.0
            if t2 - t2: raise ValueError(t2)  # c21
            nxt[b + 0] = t2
            assigned[b + 0] = t2
        return state
    def task_4(vals, bases, events, state):
        patches = image.performers['Patch']
        f0 = bases and field(vals, patches, 0)
        nxt = image.next
        for b in bases:
            t1 = heading(vals[b + 0], vals[b + 1], f0)
            t2 = cos(t1)  # c22
            state, t3 = rng.sample_uniform(state, 0.0, 0.005787037037037037)  # c23
            t4 = vals[b + 0] + ((t2 * t3) * 86400.0)
            if t4 - t4: raise ValueError(t4)  # c24
            nxt[b + 0] = t4
            t5 = sin(t1)  # c25
            t6 = vals[b + 1] + ((t5 * t3) * 86400.0)
            if t6 - t6: raise ValueError(t6)  # c26
            nxt[b + 1] = t6
        return state
    def task_5(vals, bases, events, state):
        patches = image.performers['Patch']
        nxt = image.next
        delta = image.delta
        for b in bases:
            t1 = patches[cell(vals[b + 0], vals[b + 1])]
            t2 = (vals[t1 + 0] * 0.25)
            t3 = (t2 if t2 < 0.3 else 0.3)
            u0 = (t3 if t3 > 0.0 else 0.0)
            t4 = (u0 - 0.15)
            t5 = vals[b + 3] + t4
            if t5 - t5: raise ValueError(t5)  # c27
            nxt[b + 3] = t5
            delta[b + 3] = t4
            write_delta(t1 + 0, (-u0))  # c28
        return state
    def task_6(vals, bases, events, state):
        nxt = image.next
        delta = image.delta
        for b in bases:
            t1 = floor((vals[b + 3] / 2.0))  # c29
            t2 = (t1 if t1 < 1.0 else 1.0)
            u0 = (t2 if t2 > 0.0 else 0.0)
            t3 = vals[b + 3] + ((-(u0 * 0.8)) + delta[b + 3])
            if t3 - t3: raise ValueError(t3)  # c30
            nxt[b + 3] = t3
            spawn(events, b, 'Adult', 'Egg', (u0 * 2.0), c32)  # c31
        return state
    def task_7(vals, bases, events, state):
        for b in bases:
            if (vals[b + 3] < 0.3):
                events.append(('die', b))
        return state
""")


def test_eggs_source_is_pinned():
    assert engine("eggs").source == EGGS_SOURCE.rstrip("\n")


# sha256 of every model's generated source; move.rmd and move_delta.rmd
# compile to the same text.
SOURCE_SHA256 = {
    "age": "474f09a78e382a1da7740b49eeec3208d9d2dd6eb0bf9a7b9d9394f722a67cd7",
    "eggs": "e2ac998331d75cfa312bff9f9fa6d09fea8c34eb5e5de3437725ec0f2375e301",
    "memo": "2cb09333f33281a290913930de28a720afc81deb07d0c788a4e64cfae788e260",
    "move": "e885e233e0eb11ad80a39639757577030aaa38a4b2df147e10bd1f9cb3e10f5a",
    "move_delta": "e885e233e0eb11ad80a39639757577030aaa38a4b2df147e10bd1f9cb3e10f5a",
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


@pytest.mark.parametrize("name", sorted(p.stem for p in MODELS.glob("*.rmd")))
def test_compiled_module_holds_no_engine(name):
    """A task reaches its state only through its arguments and the image:
    its module holds no engine, not even a weak proxy of one, and no node
    of the model, as a stage is its name."""
    built = engine(name)
    assert "engine." not in built.source
    for _, task in built.plan:
        for value in task.__globals__.values():
            assert not isinstance(value, (Engine, ast.Node, *weakref.ProxyTypes))
