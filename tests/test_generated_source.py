"""The Python source ``Engine()`` generates, pinned as text for the eggs
model and as a sha256 digest for every model in ``models/``, and the
code objects that engines of one source share.

A change to how tasks are compiled shows here as a text diff, to be read
in review beside the trace digests of ``test_golden_trace.py``, which say
whether it changed what a run computes.
"""
from __future__ import annotations

import gc
import hashlib
import re
import textwrap
import types
import weakref
from pathlib import Path

import pytest

from remodyc import ast, interp
from remodyc.interp import Engine, parse_config
from remodyc.memory import InMemoryBackend
from remodyc.parser import parse_model

MODELS = Path(__file__).resolve().parent.parent / "models"
LARGE_CONFIG = MODELS.parent / "bench" / "data" / "large.cfg"


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
            a2 = b + 2
            r2 = vals[a2]
            t1 = r2 + 86400.0
            if t1 - t1: raise ValueError(t1)  # c17
            nxt[a2] = t1
        return state
    def task_1(vals, bases, events, state):
        nxt = image.next
        for b in bases:
            a2 = b + 2
            r2 = vals[a2]
            t1 = r2 + 86400.0
            if t1 - t1: raise ValueError(t1)  # c18
            nxt[a2] = t1
        return state
    def task_2(vals, bases, events, state):
        for b in bases:
            r2 = vals[b + 2]
            if (r2 >= 864000.0):
                events.append(('become', b, 'Egg', 'Adult'))
        return state
    def task_3(vals, bases, events, state):
        nxt = image.next
        assigned = image.assigned
        for b in bases:
            r0 = vals[b]
            t1 = (r0 + 0.2)
            t2 = (5.0 if 5.0 < t1 else t1) + 0.0
            if t2 - t2: raise ValueError(t2)  # c19
            nxt[b] = t2
            assigned[b] = t2
        return state
    def task_4(vals, bases, events, state):
        patches = image.performers['Patch']
        f0 = c20[0] = bases and field(vals, patches, 0)
        edge, columns, last_column, last_row, centre_x, centre_y = grid
        nxt = image.next
        keep = c26.append
        c26.clear()
        for b in bases:
            a1 = b + 1
            r0 = vals[b]
            r1 = vals[a1]
            qx = r0 / edge
            qy = r1 / edge
            h = ((0 if qy < 0.0 else last_row if qy >= last_row else floor(qy)) * columns + (0 if qx < 0.0 else last_column if qx >= last_column else floor(qx)))
            keep(h)
            t1 = f0[h]
            t2 = (0.0 if t1 < 0 else atan2(centre_y[t1] - r1, centre_x[t1] - r0))
            t3 = cos(t2)  # c21
            state, t4 = rng.sample_uniform(state, 0.0, 0.005787037037037037)  # c22
            t5 = r0 + ((t3 * t4) * 86400.0)
            if t5 - t5: raise ValueError(t5)  # c23
            nxt[b] = t5
            t6 = sin(t2)  # c24
            t7 = r1 + ((t6 * t4) * 86400.0)
            if t7 - t7: raise ValueError(t7)  # c25
            nxt[a1] = t7
        return state
    def task_5(vals, bases, events, state):
        patches = image.performers['Patch']
        nxt = image.next
        delta = image.delta
        assigned = image.assigned
        for b, h in zip(bases, c26):
            a3 = b + 3
            r3 = vals[a3]
            t1 = patches[h]
            t2 = vals[t1]
            t3 = (t2 * 0.25)
            t4 = (t3 if t3 < 0.3 else 0.3)
            u0 = (t4 if t4 > 0.0 else 0.0)
            t5 = (u0 - 0.15)
            t6 = r3 + t5
            if t6 - t6: raise ValueError(t6)  # c27
            nxt[a3] = t6
            delta[a3] = t5
            t7 = (-u0) + delta[t1] if t1 in delta else (-u0)
            t8 = assigned[t1] + t7
            if t8 - t8: raise ValueError(t8)  # c28
            nxt[t1] = t8
            delta[t1] = t7
        return state
    def task_6(vals, bases, events, state):
        nxt = image.next
        delta = image.delta
        for b in bases:
            a3 = b + 3
            r3 = vals[a3]
            t1 = float(floor((r3 / 2.0)))  # c29
            t2 = (t1 if t1 < 1.0 else 1.0)
            u0 = (t2 if t2 > 0.0 else 0.0)
            t3 = r3 + ((-(u0 * 0.8)) + delta[a3])
            if t3 - t3: raise ValueError(t3)  # c30
            nxt[a3] = t3
            t4 = (u0 * 2.0)
            if not 0.0 <= t4 < inf: raise ValueError(t4)  # c31
            if t4 >= 1.0: events.append(('spawn', b, 'Adult', 'Egg', floor(t4), c32))
        return state
    def task_7(vals, bases, events, state):
        for b in bases:
            r3 = vals[b + 3]
            if (r3 < 0.3):
                events.append(('die', b))
        return state
""")


def test_eggs_source_is_pinned():
    assert engine("eggs").source == EGGS_SOURCE.rstrip("\n")


# sha256 of every model's generated source; move.rmd and move_delta.rmd
# compile to the same text.
SOURCE_SHA256 = {
    "age": "40f38ba03d50423c4c8b88bfdf91b6c07d3a5b3df1a83de5cc573226aa5718d6",
    "eggs": "d7b777f0c866d3055193edae9d956a201e3e6c4f65169ded6a8ba7c1ef827e90",
    "memo": "99ef1bcc826fcdd296342c4de76293adf028b772a1f19a00124262ff7bf508ca",
    "move": "250bc9546c08a9caea282d21a9dd69de21d77833a5cbb7809b03bd5fe62b827e",
    "move_delta": "250bc9546c08a9caea282d21a9dd69de21d77833a5cbb7809b03bd5fe62b827e",
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


def assert_each_value_read_once(source: str) -> None:
    """No task's loop holds one ``vals[...]`` or ``patches[...]`` text
    twice, nor one patch address past slot 0 (``tN + s``), and no address
    in the source ends in ``+ 0``: a committed value cannot change in a
    step, so each value, patch base and address is found once, and slot 0
    of a block is its base."""
    for task in source.split("def task_")[1:]:
        loop = "".join(line for line in task.splitlines(True) if line.startswith("        "))
        reads = re.findall(r"(?:vals|patches)\[[^]]*\]", loop)
        assert len(reads) == len(set(reads)), task
        addresses = re.findall(r"\bt\d+ \+ \d+\b(?![.e])", loop)
        assert len(addresses) == len(set(addresses)), task
        assert not re.search(r"\+ 0(?![.\d])", task), task


# Bugs that read their own, their patch's and the World's values several
# times: first in a spawn count, behind its guard, then in a later guard.
GUARDED_READS_MODEL = """\
World with
    q [] = 2 [].

Patch with
    p [] = 1 [].

Bug is B with
    e [] = 1 [].

to breed is
    my spawn Bug' = here's p + my e when world's q > my e
    my die when here's p + my e > world's q * my e.

Bug breed.
"""


@pytest.mark.parametrize("name", sorted(p.stem for p in MODELS.glob("*.rmd")))
def test_each_committed_value_is_read_once(name):
    assert_each_value_read_once(engine(name).source)


def test_a_value_read_behind_a_guard_is_read_once():
    """Each Bug's ``e``, its patch's base and the patch's ``p`` are found
    once, at the top of the loop, though a guard holds their first use,
    and a step commits the spawns: each of 3 Bugs spawns ``p + e`` = 2."""
    config = "delta_time = 1 day\nsteps = 1\nseed = 3\npopulate 3 Bug\n"
    built = Engine(parse_model(GUARDED_READS_MODEL), parse_config(config), InMemoryBackend())
    assert_each_value_read_once(built.source)
    assert built.source.count("vals[b + 2]") == 1
    loop = built.source.partition("keep(h)\n")[2]
    assert loop.startswith("        t1 = patches[h]\n        t2 = vals[t1]\n        if ")
    built.setup()
    built.step()
    assert len(built.image.performers["Bug"]) == 3 * (1 + 2)


def codes(built: Engine) -> list[types.CodeType]:
    return [task.__code__ for _, task in built.plan]


def shared(first: Engine, second: Engine) -> list[bool]:
    """By task, whether the two engines run the same code object."""
    return [a is b for a, b in zip(codes(first), codes(second), strict=True)]


def on(name: str, config: str, **settings: str) -> Engine:
    """An engine for ``models/<name>.rmd`` on ``config`` with each setting
    in ``settings`` replaced."""
    lines = [f"{key} = {settings[key]}\n" if (key := line.split(" ", 1)[0]) in settings else line
             for line in config.splitlines(keepends=True)]
    model = parse_model((MODELS / f"{name}.rmd").read_text())
    return Engine(model, parse_config("".join(lines)), InMemoryBackend())


def test_engines_of_one_source_share_each_task_code():
    """Seeds, populations and the grid never reach the source, so an
    engine of another seed, or of the 30x30 benchmark grid, built after an
    eggs.cfg one runs its code, each engine in a namespace of its own."""
    config = (MODELS / "eggs.cfg").read_text()
    first = on("eggs", config)
    others = [on("eggs", config, seed="0"), on("eggs", config, seed="19"),
              on("eggs", LARGE_CONFIG.read_text())]
    for other in others:
        assert other.source == first.source
        assert shared(other, first) == [True] * 8
        assert other.plan[0][1].__globals__ is not first.plan[0][1].__globals__
    other.setup()
    other.step()
    assert other.backend.frame_count() == 2


def test_a_different_delta_time_compiles_its_own_code():
    config = (MODELS / "eggs.cfg").read_text()
    daily, hourly = on("eggs", config), on("eggs", config, delta_time="1 h")
    assert hourly.source != daily.source
    assert shared(hourly, daily) == [False] * 8


def test_the_code_cache_is_bounded_and_drops_the_least_recent_source():
    """Past ``_CODE_CACHE_SIZE`` distinct sources the first one's code is
    dropped: an engine of it compiles again, and the latest is still kept."""
    config, size = (MODELS / "age.cfg").read_text(), interp._CODE_CACHE_SIZE
    interp._code.cache_clear()
    first = on("age", config, delta_time="1 s")
    for seconds in range(2, size + 2):
        latest = on("age", config, delta_time=f"{seconds} s")
    info = interp._code.cache_info()
    assert (info.maxsize, info.currsize, info.misses, info.hits) == (size, size, size + 1, 0)
    assert shared(on("age", config, delta_time=f"{size + 1} s"), latest) == [True]
    assert shared(on("age", config, delta_time="1 s"), first) == [False]
    assert interp._code.cache_info().misses == size + 2


# What a cached code object may reach: constants and code only.
CONSTANT_TYPES = (types.CodeType, tuple, frozenset, str, bytes, int, float, complex,
                  type(None), type(Ellipsis))


def test_the_code_cache_keeps_nothing_of_a_dropped_engine():
    gc.disable()
    try:
        built = on("eggs", (MODELS / "eggs.cfg").read_text(), steps="12")
        built.run()
        code = interp._code(built.source)
        assert any(task is codes(built)[0] for task in code.co_consts)
        dropped = weakref.ref(built), weakref.ref(built.image)
        del built
        assert [ref() for ref in dropped] == [None, None]
    finally:
        gc.enable()
    pending = [code]
    while pending:
        item = pending.pop()
        assert isinstance(item, CONSTANT_TYPES), type(item)
        if isinstance(item, types.CodeType):
            pending += item.co_consts
        elif isinstance(item, (tuple, frozenset)):
            pending += item


def test_eggs_tasks_call_no_bookkeeping_helper():
    """No eggs task calls ``write``, ``write_delta``, a spawn helper or the
    folding function of ``floor``: every write commits inline, a spawn is
    an event appended in the task's own line, ``floor`` is
    ``float(math.floor(x))``.  Over a step each Adult's cell is found once,
    by move, and kept for graze."""
    built = engine("eggs")
    fold_floor = interp._CALLS[("floor", 1)][0]
    for _, task in built.plan:
        names = set(task.__code__.co_names)
        assert not {"write", "write_delta", "spawn", "cell", "heading"} & names
        assert all(task.__globals__[name] is not fold_floor for name in names
                   if name in task.__globals__)
    assert built.source.count("keep(h)") == 1
    (table,) = {line.rpartition("zip(bases, ")[2][:-2] for line in built.source.splitlines()
                if "zip(bases, " in line}
    found = []

    class Counted(list):
        def append(self, cell):
            found.append(cell)
            super().append(cell)

    namespace = built.plan[0][1].__globals__
    namespace[table] = Counted()
    built.setup()
    adults = len(built.image.performers["Adult"])
    built.step()
    assert len(found) == adults == len(namespace[table])
