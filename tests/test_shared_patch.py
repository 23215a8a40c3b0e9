"""The patch under each performer, found once a tick.

A kind's first task that reads ``here`` or ``direction`` finds the cell
under each performer and keeps it, by performer, for the kind's later
tasks of the tick.  These models put those reads where sharing the cell
could go wrong: a first read behind a guard, two stages whose tasks
interleave, ``direction`` and ``here`` in one task and in separate ones,
and a resume after an abort in a task that reads the kept cells.  Their
frame digests were recorded before the cell was shared and must not move.
"""
from __future__ import annotations

import hashlib

import pytest

from remodyc.interp import Engine, RuntimeAbort, parse_config
from remodyc.memory import InMemoryBackend, TraceFrame
from remodyc.parser import parse_model
from remodyc.typecheck import check_model


def config(steps: int, seed: int, populations: str) -> str:
    return (f"delta_time = 1 day\nsteps = {steps}\nseed = {seed}\nworld_width = 3 km\n"
            f"world_height = 3 km\npatch_size = 1 km\n{populations}")


# The first ``here`` read of a Bug is a spawn count behind a guard; the
# next task reads ``here`` unguarded, and its ``here's`` delta follows the
# Patch's own assignment.  Bugs walk off the grid onto its edge cells,
# lay and starve.
GUARDED = """\
Patch with
    grass [kg] = 2 [kg].

Bug is B with
    age [day] = 0 [day]
    mass [kg] = 1 [kg].

to grow is
    my grass' = min(my grass + 0.4 [kg], 6 [kg]).

to lay is
    my delta age' = delta time
    my spawn Bug' = max(0, here's grass / 2 [kg]) when my age > 2 [day].

to eat is
    my delta mass' = bite - 0.35 [kg]
    here's delta grass' = -bite
    my d/dt x' = speed - 0.45 [km/day]
    my d/dt y' = speed * 0.5 - 0.2 [km/day]
    my die when my mass < 0.5 [kg]
where
    bite = min(here's grass * 0.3, 0.5 [kg])
    speed = uniform 0 [km/day] to 1 [km/day].

Patch grow.
Bug lay.
Bug eat.
"""

# Larvae and Adults each read ``here`` in their first task and again in a
# later one, the two kinds' tasks interleaved.
INTERLEAVED = """\
Patch with
    grass [kg] = 3 [kg].

Larva is Bug with
    mass [kg] = 1 [kg].

Adult is Bug with
    mass [kg] = 1 [kg]
    seen [kg].

to regrow is
    my grass' = my grass * 0.9 + 0.5 [kg].

to crawl is
    my d/dt x' = uniform 0 [km/day] to 0.8 [km/day] - 0.35 [km/day]
    my delta mass' = here's grass * 0.1.

to fly is
    my d/dt y' = uniform 0 [km/day] to 1.2 [km/day] - 0.55 [km/day]
    my seen' = here's grass.

to nibble is
    here's delta grass' = -(0.15 [kg])
    my become Adult when my mass > 2 [kg].

to graze is
    here's delta grass' = -(my seen * 0.2)
    my delta mass' = 0.1 [kg] - here's grass * 0.05
    my spawn Larva' = 1 when my seen > 3 [kg]
    my die when my mass < 0.6 [kg].

Patch regrow.
Larva crawl.
Adult fly.
Larva nibble.
Adult graze.
"""

# A Walker reads ``direction`` and ``here`` in one task; a Runner reads
# ``direction`` in its first task and ``here`` and ``direction`` in the
# next.  The Patches swap grass and water, so each tick's fields differ.
SENSING = """\
Patch with
    grass [kg] = 1 [kg]
    water [kg] = 2 [kg].

Walker is W with
    heading [rad]
    food [kg].

Runner is W with
    bearing [rad]
    turn [rad]
    food [kg] = 2 [kg].

to swap is
    my grass' = my water * 0.9 + 0.3 [kg]
    my water' = my grass.

to look is
    my heading' = direction neighbor's grass
    my food' = here's water
    here's delta grass' = -(0.2 [kg])
    my d/dt x' = cos(my heading) * 0.7 [km/day]
    my d/dt y' = sin(my heading) * 0.7 [km/day].

to sense is
    my bearing' = direction neighbor's water
    my d/dt x' = cos(my bearing) * speed
    my d/dt y' = sin(my bearing) * speed
where
    speed = uniform 0.2 [km/day] to 1.1 [km/day].

to drink is
    my food' = here's grass + here's water
    here's delta water' = -(0.1 [kg])
    my turn' = direction neighbor's grass
    my spawn Runner' = 1 when my food > 2.4 [kg]
    my die when my food < 0.9 [kg].

Patch swap.
Walker look.
Runner sense.
Runner drink.
"""

# ``press`` reads the cells ``lift`` kept and overflows a Bug's load on
# the patch where it grows fastest, after births have moved the bases.
ABORTING = """\
Patch with
    grass [kg] = 1 [kg].

Bug is B with
    load [] = 1 [].

to grow is
    my grass' = my grass + 0.5 [kg].

to lift is
    my delta load' = here's grass in [kg]
    my d/dt x' = uniform 0 [km/day] to 0.6 [km/day] - 0.3 [km/day]
    my spawn Bug' = 1 when my load > 30.

to press is
    my load' = my load * (here's grass in [kg]) ^ 40.

Patch grow.
Bug lift.
Bug press.
"""

CASES = {
    "guarded": (GUARDED, config(16, 3, "populate 6 Bug\n")),
    "interleaved": (INTERLEAVED, config(14, 5, "populate 5 Larva\npopulate 4 Adult\n")),
    "sensing": (SENSING, config(14, 9, "populate 4 Walker\npopulate 5 Runner\n")),
}


def digest(frames: list[TraceFrame]) -> str:
    """The frames' values and animats in dict order and RNG states."""
    text = repr([(list(f.values.items()), list(f.animats.items()), f.rng_state) for f in frames])
    return hashlib.sha256(text.encode()).hexdigest()


def build(model: str, text: str) -> Engine:
    parsed, parsed_config = parse_model(model), parse_config(text)
    assert check_model(parsed, parsed_config) == []
    return Engine(parsed, parsed_config, InMemoryBackend())


# (sha256 of every frame, the census of the last tick)
PINNED = {
    "guarded": ("a44326ade1b253a225a9406b27261367486a66d975b0fbf829bb9d6a4b4489d4",
                ((15, "Bug", 6), (16, "Bug", 3), (17, "Bug", 1))),
    "interleaved": ("22401fc45396d028f38b0c02779c30193492578a0bc4a1003518105647080267",
                    ((14, "Adult", 9), (15, "Larva", 6), (15, "Adult", 10))),
    "sensing": ("fb281df5c76e64b977934edc279474f25d5c5ba4aec3fd39639b37de3963c461",
                ((14, "Runner", 42), (15, "Walker", 4), (15, "Runner", 47))),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_frames_are_pinned(name):
    engine = build(*CASES[name])
    census = engine.run()
    assert (digest(engine.backend.frames), tuple(census[-3:])) == PINNED[name]


# The abort's text, frames kept, their sha256 and the failing Bug's index
ABORT = ("non-finite value inf for 'load' (tick 15, Bug, line 16)", 14,
         "730d94c0189902e1be9b883c2f2895f42bd74ce27652b428092454a55b617ff7", 1)


def test_resume_after_an_abort_in_a_task_that_reads_the_kept_cells():
    """After ``press`` aborts, ``resume`` of each earlier tick on the same
    engine recomputes the stored frame after it, and of the last one the
    same abort."""
    engine = build(ABORTING, config(30, 4, "populate 3 Bug\n"))
    with pytest.raises(RuntimeAbort) as raised:
        engine.run()
    frames = list(engine.backend.frames)
    abort = raised.value
    assert (abort.render(), len(frames), digest(frames), abort.index) == ABORT
    for tick in range(1, len(frames) + 1):
        del engine.backend.frames[tick:]
        engine.resume(tick)
        if tick < len(frames):
            assert digest([engine.step()]) == digest([frames[tick]])
    assert engine.backend.frames == frames
    with pytest.raises(RuntimeAbort) as again:
        engine.step()
    assert (again.value.render(), again.value.base) == (abort.render(), abort.base)
