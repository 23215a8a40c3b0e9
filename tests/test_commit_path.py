"""The commit path against the load path.

``MemoryImage`` keeps, besides the values, only the animats, their bases
and each kind's performers; one layout rule gives every block's extent (up
to the next base, the highest one up to ``next_free``, one past the
highest stored address) and one index rule a stage's next instance index
(the one after its highest block's).  ``apply_frame`` commits the frame
``store`` just returned by dropping the blocks killed during the tick, and
reads it all off any other frame it loads.  Both must give the same image,
and neither may change a frame once it has been returned or stored.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

from hypothesis import example, given, strategies as st

from remodyc.interp import Engine, parse_config
from remodyc.memory import InMemoryBackend, MemoryImage, TraceFrame
from remodyc.parser import parse_model
from remodyc.typecheck import check_model

from test_golden_trace import EGGS_SHORT_CONFIG

MODELS = Path(__file__).resolve().parent.parent / "models"


def kept_state(image: MemoryImage) -> dict:
    """What the next tick depends on besides the values."""
    return {
        "animats": image.animats,
        "performers": image.performers,
        "next_free": image.next_free,
        "live": image.live,
        # The committed addresses a kill of each live block would drop: a
        # block reaches up to the next base, the highest one to next_free.
        "killable": {
            base: [a for a in range(base, end) if a in image.vals]
            for base, end in zip(image.bases, image.bases[1:] + [image.next_free])
        },
    }


def digest(frame: TraceFrame) -> str:
    text = repr((sorted(frame.values.items()), sorted(frame.animats.items()), frame.rng_state))
    return hashlib.sha256(text.encode()).hexdigest()


def eggs_engine(backend) -> Engine:
    model = parse_model((MODELS / "eggs.rmd").read_text())
    return Engine(model, parse_config(EGGS_SHORT_CONFIG), backend)


def test_commit_path_matches_load_path():
    backend = InMemoryBackend()
    engine = eggs_engine(backend)
    engine.setup()
    seen = set()
    for tick in range(2, engine.config.steps + 2):
        before = set(engine.image.animats.items())
        engine.step()
        after = set(engine.image.animats.items())
        seen.update(stage for _, (stage, _) in before - after)  # died or hatched
        seen.update(f"new {stage}" for _, (stage, _) in after - before)
        loaded = MemoryImage()
        loaded.load(backend, tick)
        assert kept_state(engine.image) == kept_state(loaded), f"tick {tick}"
        assert engine.image.bases == loaded.bases == sorted(loaded.animats)
    # Eggs hatched (become), adults died, and adults laid eggs (spawn).
    assert {"Egg", "Adult", "new Egg", "new Adult"} <= seen


TICKS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from("AB"), st.integers(0, 3)), max_size=3),
        st.lists(st.integers(0, 99), max_size=3),
    ),
    min_size=1,
    max_size=8,
)


@given(TICKS)
@example([([("A", 2), ("A", 3), ("B", 2)], [1]), ([], [0, 1, 2])])
def test_commit_path_matches_load_path_on_any_allocations_and_kills(ticks):
    """Each tick allocates blocks of two stages, kills any blocks, then
    commits; a fresh load of the frame agrees with the committed image,
    and a block of each stage then allocated on both, which the next tick
    holds, lands at the same base with the same label.  The example kills
    a middle block, whose addresses the block below it takes over, and
    then the three highest: the block below becomes the highest and ends
    at its own last address again."""
    backend = InMemoryBackend()
    image = MemoryImage()
    for tick, (allocations, kills) in enumerate(ticks, start=1):
        for stage, size in allocations:
            image.allocate(stage, size)
        for pick in kills:
            if image.bases:
                image.kill(image.bases[-1 - pick % len(image.bases)])
        image.apply_frame(image.store(backend, tick), tick)
        loaded = MemoryImage()
        loaded.load(backend, tick)
        assert kept_state(image) == kept_state(loaded), f"tick {tick}"
        assert image.bases == loaded.bases
        # Both place and label the next block of each stage alike.
        for stage in "AB":
            base = image.allocate(stage, 1)
            assert loaded.allocate(stage, 1) == base, f"tick {tick}"
            assert image.animats[base] == loaded.animats[base], f"tick {tick}"


def test_frames_do_not_change_once_returned_or_stored():
    backend = InMemoryBackend()
    engine = eggs_engine(backend)
    returned = [engine.setup()] + [engine.step() for _ in range(12)]
    digests = [digest(frame) for frame in returned]
    assert [digest(frame) for frame in backend.frames] == digests
    for _ in range(6):
        engine.step()
    assert [digest(frame) for frame in returned] == digests
    assert [digest(frame) for frame in backend.frames[:13]] == digests

    # A replica that resumes from the stored frames themselves.
    replica_backend = InMemoryBackend()
    replica_backend.frames = backend.frames[:8]
    replica = eggs_engine(replica_backend)
    replica.resume(8)
    for _ in range(3):
        replica.step()
    assert [digest(frame) for frame in backend.frames[:13]] == digests
    assert [digest(frame) for frame in returned] == digests
    assert [digest(frame) for frame in replica_backend.frames[8:]] == [
        digest(frame) for frame in backend.frames[8:11]
    ]


# Egg 2 is born of the larva with age 9 days and dies one tick later,
# while Egg 1 lives on; the adult then lays an egg, which takes index 2.
REUSE_MODEL = """\
Egg is Bug with
    age [day] = 0 [day].

Larva is Bug with
    age [day] = 9 [day].

Adult is Bug with
    age [day] = 0 [day].

to grow is
    my delta age' = delta time.

to expire is
    my die when my age >= 5 [day].

to moult is
    my become Egg when my age >= 0 [day].

to lay is
    my spawn Egg' = 1 when my age >= 2 [day].

Egg grow.
Adult grow.
Egg expire.
Larva moult.
Adult lay.
"""

REUSE_CONFIG = """\
delta_time = 1 day
steps = 3
seed = 3
populate 1 Egg
populate 1 Larva
populate 1 Adult
"""


def egg_labels(frame: TraceFrame) -> dict[int, tuple[int, float]]:
    """Each egg's index -> (base, age in days)."""
    return {
        index: (base, frame.values[base + 2] / 86400.0)
        for base, (stage, index) in frame.animats.items()
        if stage == "Egg"
    }


def test_dead_stage_index_is_reused_on_both_paths():
    model, config = parse_model(REUSE_MODEL), parse_config(REUSE_CONFIG)
    assert check_model(model, config) == []
    backend = InMemoryBackend()
    engine = Engine(model, config, backend)
    frames = [engine.setup()] + [engine.step() for _ in range(3)]
    labels = [egg_labels(frame) for frame in frames]
    assert labels[0] == {1: (1, 0.0)}
    assert labels[1] == {1: (1, 1.0), 2: (10, 9.0)}  # the moulted larva
    assert labels[2] == {1: (1, 2.0)}  # Egg 2 died
    # The adult's egg takes the dead one's index and, as the addresses
    # above the highest live block go to the next allocation, its base.
    assert labels[3] == {1: (1, 3.0), 2: (10, 0.0)}

    replica_backend = InMemoryBackend()
    replica_backend.frames = backend.frames[:3]
    replica = Engine(model, config, replica_backend)
    replica.resume(3)
    assert egg_labels(replica.step()) == labels[3]


def layout(image: MemoryImage) -> tuple:
    """Everything an allocation changes, in dict order."""
    return (
        image.bases,
        list(image.animats.items()),
        list(image.performers.items()),
        list(image.assigned.items()),
        list(image.next.items()),
        image.next_free,
    )


@st.composite
def allocations(draw):
    """``(stage, size, rows)``; rows None is the default block of zeros."""
    stage, size = draw(st.sampled_from("AB")), draw(st.integers(0, 3))
    row = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=size, max_size=size)
    return stage, size, draw(st.none() | st.lists(row, max_size=4))


BULK_TICKS = st.lists(
    st.tuples(
        st.lists(allocations(), max_size=4),
        st.lists(st.integers(0, 99), max_size=2),
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


@given(BULK_TICKS)
@example([([("A", 0, [[], []]), ("B", 2, [[1.0, -0.0]] * 3), ("A", 1, [])], [1], True),
          ([("A", 3, None), ("B", 0, None)], [], False)])
def test_one_allocation_of_many_rows_matches_one_per_row(ticks):
    """One ``allocate`` of n rows against n one-row allocations: the same
    bases, labels, performers, pending values (dict order included) and
    ``next_free`` before the commit, and the same frame after it.  Each
    tick may then reload both images from their stored frames, so the
    next tick allocates on the load path's image, not the commit path's.
    The default rows are one block of zeros, an empty block keeps its one
    slot at zero, and no rows allocate nothing."""
    images, backends = [MemoryImage(), MemoryImage()], [InMemoryBackend(), InMemoryBackend()]
    for tick, (allocations, kills, reload) in enumerate(ticks, start=1):
        bulk, single = images
        for stage, size, rows in allocations:
            first = bulk.allocate(stage, size, rows)
            if rows is None:
                bases = [single.allocate(stage, size, [[0.0] * size])]
            else:
                bases = [single.allocate(stage, size, [row]) for row in rows]
            assert first == (bases[0] if bases else single.next_free)
            assert layout(bulk) == layout(single)
        for pick in kills:
            if bulk.bases:
                base = bulk.bases[-1 - pick % len(bulk.bases)]
                bulk.kill(base)
                single.kill(base)
        frames = [image.store(backend, tick) for image, backend in zip(images, backends)]
        for image, frame in zip(images, frames):
            image.apply_frame(frame, tick)
        assert list(frames[0].values.items()) == list(frames[1].values.items())
        assert list(frames[0].animats.items()) == list(frames[1].animats.items())
        assert kept_state(bulk) == kept_state(single)
        if reload:
            images = [MemoryImage(), MemoryImage()]
            for image, backend in zip(images, backends):
                image.load(backend, tick)
