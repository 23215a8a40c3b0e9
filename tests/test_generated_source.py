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
            t1 = vals[b + 2] + 86400.0
            if t1 - t1: raise ValueError(t1)  # c17
            nxt[b + 2] = t1
        return state
    def task_1(vals, bases, events, state):
        nxt = image.next
        for b in bases:
            t1 = vals[b + 2] + 86400.0
            if t1 - t1: raise ValueError(t1)  # c18
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
            if t2 - t2: raise ValueError(t2)  # c19
            nxt[b + 0] = t2
            assigned[b + 0] = t2
        return state
    def task_4(vals, bases, events, state):
        patches = image.performers['Patch']
        f0 = bases and field(vals, patches, 0)
        edge, columns, last_column, last_row, centre_x, centre_y = grid
        nxt = image.next
        keep = c25.append
        c25.clear()
        for b in bases:
            qx = vals[b + 0] / edge
            qy = vals[b + 1] / edge
            h = ((0 if qy < 0.0 else last_row if qy >= last_row else floor(qy)) * columns + (0 if qx < 0.0 else last_column if qx >= last_column else floor(qx)))
            keep(h)
            t1 = f0[h]
            t2 = (0.0 if t1 < 0 else atan2(centre_y[t1] - vals[b + 1], centre_x[t1] - vals[b + 0]))
            t3 = cos(t2)  # c20
            state, t4 = rng.sample_uniform(state, 0.0, 0.005787037037037037)  # c21
            t5 = vals[b + 0] + ((t3 * t4) * 86400.0)
            if t5 - t5: raise ValueError(t5)  # c22
            nxt[b + 0] = t5
            t6 = sin(t2)  # c23
            t7 = vals[b + 1] + ((t6 * t4) * 86400.0)
            if t7 - t7: raise ValueError(t7)  # c24
            nxt[b + 1] = t7
        return state
    def task_5(vals, bases, events, state):
        patches = image.performers['Patch']
        nxt = image.next
        delta = image.delta
        assigned = image.assigned
        for b, h in zip(bases, c25):
            t1 = patches[h]
            t2 = (vals[t1 + 0] * 0.25)
            t3 = (t2 if t2 < 0.3 else 0.3)
            u0 = (t3 if t3 > 0.0 else 0.0)
            t4 = (u0 - 0.15)
            t5 = vals[b + 3] + t4
            if t5 - t5: raise ValueError(t5)  # c26
            nxt[b + 3] = t5
            delta[b + 3] = t4
            t6 = t1 + 0
            t7 = (-u0) + delta[t6] if t6 in delta else (-u0)
            t8 = assigned[t6] + t7
            if t8 - t8: raise ValueError(t8)  # c27
            nxt[t6] = t8
            delta[t6] = t7
        return state
    def task_6(vals, bases, events, state):
        nxt = image.next
        delta = image.delta
        for b in bases:
            t1 = float(floor((vals[b + 3] / 2.0)))  # c28
            t2 = (t1 if t1 < 1.0 else 1.0)
            u0 = (t2 if t2 > 0.0 else 0.0)
            t3 = vals[b + 3] + ((-(u0 * 0.8)) + delta[b + 3])
            if t3 - t3: raise ValueError(t3)  # c29
            nxt[b + 3] = t3
            t4 = (u0 * 2.0)
            if not 0.0 <= t4 < inf: raise ValueError(t4)  # c30
            if t4 >= 1.0: events.append(('spawn', b, 'Adult', 'Egg', floor(t4), c31))
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
    "age": "399ffd8b072fc748c6d1af4c77da50445f09f05d63fbb3b3e04dc6feef879ad8",
    "eggs": "e455b9672a771d37eaf733668be1a3de219b45d311ccdbc2eaa81073eef6d738",
    "memo": "9ad7175d612b85260a961ec3bd9cbb8063f559568e850b9050969f56de7db135",
    "move": "2278eb0a4b8b953f8f1df6067e1b89c24fda0159a9c8b1c71c057bd30a5598d7",
    "move_delta": "2278eb0a4b8b953f8f1df6067e1b89c24fda0159a9c8b1c71c057bd30a5598d7",
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
