"""Engine semantics: setup, stepping, lifecycle, evaluation."""
import dataclasses
import gc
import itertools
import math
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from remodyc import cli, interp, rng
from remodyc.ast import ActionDefinition, Decorator, TaskDefinition
from remodyc.interp import (
    ConfigError,
    Engine,
    RuntimeAbort,
    SimulationConfig,
    parse_config,
)
from remodyc.memory import FileBackend, InMemoryBackend, MemoryImage, TraceFrame
from remodyc.parser import parse_model
from remodyc.typecheck import check_model

DAY = 86400.0


def build(model_text, config_text):
    model = parse_model(model_text)
    config = parse_config(config_text)
    backend = InMemoryBackend()
    return Engine(model, config, backend), backend


BASIC_CONFIG = """
delta_time = 1 day
steps = 4
seed = 11
world_width = 2 km
world_height = 2 km
patch_size = 1 km
populate 1 Egg
"""

AGE_MODEL = """
Egg is Grasshopper with
    age [day] = 0 [day].

to age is
    my delta age' = delta time.

Egg age.
"""


class TestParseConfig:
    def test_full_example(self):
        config = parse_config(BASIC_CONFIG)
        assert config.delta_time == DAY
        assert config.steps == 4
        assert config.seed == 11
        assert config.world_width == 2000.0
        assert config.patch_size == 1000.0
        assert config.populations == ((1, "Egg"),)
        assert (config.patches_x, config.patches_y) == (2, 2)

    def test_comments_and_blanks(self):
        config = parse_config(
            "# run\ndelta_time = 3600 s  # hourly\n\nsteps = 1\nseed = 0\n"
        )
        assert config.delta_time == 3600.0
        assert config.populations == ()

    def test_bare_numbers_are_si(self):
        config = parse_config("delta_time = 60\nsteps = 1\nseed = 0\n")
        assert config.delta_time == 60.0

    def test_geometry_defaults(self):
        config = parse_config("delta_time = 1 h\nsteps = 2\nseed = 1\n")
        assert config.world_width == 1000.0
        assert (config.patches_x, config.patches_y) == (1, 1)

    @pytest.mark.parametrize(
        "text",
        [
            "steps = 1\nseed = 0\n",
            "delta_time = 1 day\nsteps = 1\nseed = 0\nspeed = 3\n",
            "delta_time = 1 kg\nsteps = 1\nseed = 0\n",
            "delta_time = 1 day\nsteps = 0\nseed = 0\n",
            "delta_time = 1 day\nsteps = 1\nseed = 0\npopulate -1 Egg\n",
            "delta_time = 1 day\nsteps = 1\nseed = 0\nworld_width = 2.5 km\n",
            "delta_time = 1 day\ndelta_time = 2 day\nsteps = 1\nseed = 0\n",
            "delta_time = 1 day\nsteps = one\nseed = 0\n",
        ],
    )
    def test_rejections(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize(
        "setting",
        [
            "world_width = inf km",
            "world_width = nan km",
            "world_width = -inf",
            "delta_time = nan day",
            "delta_time = 1e308 day",
        ],
    )
    def test_non_finite_quantities_are_rejected(self, setting):
        key = setting.split()[0]
        lines = [line for line in BASIC_CONFIG.splitlines() if not line.startswith(key)]
        text = "\n".join(lines + [setting]) + "\n"
        value = setting.partition("= ")[2]
        message = f"line {len(lines) + 1}: {value!r} is not a finite quantity"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message

    def test_key_starting_with_populate_is_unknown(self):
        with pytest.raises(ConfigError) as err:
            parse_config("delta_time = 1 day\nsteps = 1\nseed = 0\npopulated = 5\n")
        assert str(err.value) == "line 4: unknown setting 'populated'"

    @pytest.mark.parametrize("unit", ["fortnight", "mm^32.mm^32/mm^32.mm^32.mm^32.mm^32"])
    def test_unparseable_unit_is_a_bad_unit(self, unit):
        with pytest.raises(ConfigError) as err:
            parse_config(f"delta_time = 1 {unit}\nsteps = 1\nseed = 0\n")
        assert str(err.value) == f"line 1: bad unit {unit!r}"

    def test_validation_direct(self):
        with pytest.raises(ConfigError):
            SimulationConfig(delta_time=0.0, steps=1, seed=0)
        with pytest.raises(ConfigError):
            SimulationConfig(delta_time=1.0, steps=1, seed=0, patch_size=300.0)

    def test_validation_direct_rejects_non_finite(self):
        with pytest.raises(ConfigError, match="world_width must be finite"):
            SimulationConfig(delta_time=1.0, steps=1, seed=0, world_width=math.inf)
        with pytest.raises(ConfigError, match="delta_time must be finite"):
            SimulationConfig(delta_time=math.nan, steps=1, seed=0)

    @pytest.mark.parametrize("populations", [
        ((-5, "Adult"),),
        # Summed, these are under the animat ceiling.
        ((-1000000, "Adult"), (1999999, "Adult")),
    ])
    def test_validation_direct_rejects_a_negative_population(self, populations):
        with pytest.raises(ConfigError) as err:
            SimulationConfig(delta_time=1.0, steps=1, seed=0, populations=populations)
        assert str(err.value) == "population of 'Adult' must be non-negative"

    def test_negative_population_is_refused_at_its_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("delta_time = 1 day\nsteps = 1\nseed = 0\npopulate -1 Egg\n")
        assert str(err.value) == "line 4: population must be non-negative"


class TestResolution:
    @pytest.mark.parametrize(
        "model, message",
        [
            (
                "Egg is G with\n    age [day].\n"
                "to f is\n    my age' = my size.\nEgg f.\n",
                "line 4: Egg has no attribute 'size'",
            ),
            (
                "Egg is G with\n    age [day].\n"
                "to f is\n    my age' = here's grass * 1 [day/kg].\nEgg f.\n",
                "line 4: the model declares no Patch",
            ),
            (
                "Egg is G with\n    age [day].\n"
                "to f is\n    my age' = world's clock.\nEgg f.\n",
                "line 4: the model declares no World",
            ),
        ],
        ids=["unknown-attribute", "here-without-patch", "world-without-world"],
    )
    def test_unchecked_model_fails_when_built(self, model, message):
        with pytest.raises(ConfigError, match=message):
            build(model, BASIC_CONFIG)


class TestInstantiate:
    def test_substitutes_everywhere(self):
        engine, backend = build(
            "Egg is G with\n    age [day].\n"
            "to f is\n    my delta age' = r * delta time\n"
            "    my spawn Egg' = the litter when my age >= the limit\n"
            "where\n    r = the rate.\n"
            "Egg f\nwhere\n    the rate -> 2\n    the litter -> 3\n"
            "    the limit -> 1 [day].\n",
            BASIC_CONFIG,
        )
        engine.run()
        second = backend.load_frame(2)
        assert second.values[3] == 2 * DAY  # the Egg block: x, y, age
        # The guard sees the committed age: 0 days, then 2 days.
        eggs = [len(backend.load_frame(t).animats) for t in (1, 2, 3)]
        assert eggs == [1, 1, 4]

    def test_single_pass(self):
        # A bound expression's own placeholders are not bound again.
        with pytest.raises(ConfigError, match="placeholder 'a' is not bound"):
            build(
                "Egg is G with\n    age [day].\nto f is\n    my age' = the a.\n"
                "Egg f\nwhere\n    the a -> the a.\n",
                BASIC_CONFIG,
            )


class TestSetup:
    def test_layout_and_initializers(self):
        engine, backend = build(
            "World with\n    tally [] = 3 [].\n"
            "Patch with\n    grass [kg] = 2 [kg].\n"
            + AGE_MODEL,
            BASIC_CONFIG,
        )
        frame = engine.setup()
        assert engine.image.performers["World"] == [1]
        assert engine.image.performers["Patch"] == [2, 3, 4, 5]
        assert frame.values[1] == 3.0
        assert all(frame.values[b] == 2.0 for b in engine.image.performers["Patch"])
        egg = 6
        assert frame.animats[egg] == ("Egg", 1)
        state = rng.seed_state(11)
        state, x = rng.sample_uniform(state, 0.0, 2000.0)
        state, y = rng.sample_uniform(state, 0.0, 2000.0)
        assert (frame.values[egg], frame.values[egg + 1]) == (x, y)
        assert frame.values[egg + 2] == 0.0
        assert frame.rng_state == state
        assert backend.frame_count() == 1

    def test_unknown_populate_stage_is_a_config_error(self):
        with pytest.raises(ConfigError, match="'Nope'"):
            build(AGE_MODEL, BASIC_CONFIG + "populate 1 Nope\n")

    def test_population_order_feeds_one_stream(self):
        engine, _ = build(
            AGE_MODEL + "\nAdult is Grasshopper with\n    age [day].\n",
            BASIC_CONFIG + "populate 2 Adult\n",
        )
        frame = engine.setup()
        assert [frame.animats[b] for b in sorted(frame.animats)] == [
            ("Egg", 1),
            ("Adult", 1),
            ("Adult", 2),
        ]
        state = rng.seed_state(11)
        expected = []
        for _ in range(3):
            state, x = rng.sample_uniform(state, 0.0, 2000.0)
            state, y = rng.sample_uniform(state, 0.0, 2000.0)
            expected.extend([x, y])
        got = []
        for base in sorted(frame.animats):
            got.extend([frame.values[base], frame.values[base + 1]])
        assert got == expected

    def test_sampler_replaced_after_build_sees_every_setup_draw(self, monkeypatch):
        """World and patches draw nothing; each populated animat, ``populate``
        lines in order, draws x over the width, then y over the height."""
        engine, _ = build(
            "World with\n    tally [].\nPatch with\n    grass [kg].\n" + AGE_MODEL
            + "\nAdult is Grasshopper with\n    energy [kg] = 1 [kg].\n",
            BASIC_CONFIG.replace("world_height = 2 km", "world_height = 3 km")
            + "populate 2 Adult\npopulate 1 Egg\n",
        )
        calls, original = [], rng.sample_uniform

        def counted(state, low, high):
            state, value = original(state, low, high)
            calls.append((low, high, value))
            return state, value

        monkeypatch.setattr(rng, "sample_uniform", counted)
        frame = engine.setup()
        assert [call[:2] for call in calls] == [(0.0, 2000.0), (0.0, 3000.0)] * 4
        fixed = engine.image.performers["World"] + engine.image.performers["Patch"]
        assert len(fixed) == 1 + 2 * 3
        animats = sorted(frame.animats.keys() - set(fixed))
        assert [frame.animats[base] for base in animats] == [
            ("Egg", 1), ("Adult", 1), ("Adult", 2), ("Egg", 2),
        ]
        placed = [frame.values[base + slot] for base in animats for slot in (0, 1)]
        assert placed == [value for _, _, value in calls]
        assert rng.draws_between(rng.seed_state(11), frame.rng_state) == 8

    def test_second_setup_changes_nothing(self):
        """Set-up on an engine set up before raises before it draws or
        allocates: ``run`` after ``setup`` leaves one frame."""
        engine, backend = build(AGE_MODEL, BASIC_CONFIG)
        frame = engine.setup()
        image = engine.image
        before = (engine.rng_state, dict(image.next), dict(image.animats), image.next_free)
        with pytest.raises(ValueError, match=r"^setup needs a new engine and an empty backend$"):
            engine.run()
        with pytest.raises(ValueError, match=r"^setup needs a new engine and an empty backend$"):
            engine.setup()
        assert (engine.rng_state, image.next, image.animats, image.next_free) == before
        assert image.vals is frame.values and image.ticks == 1
        assert backend.frame_count() == 1

    def test_setup_onto_stored_frames_changes_nothing(self, monkeypatch):
        """A new engine on a backend that holds frames refuses set-up before
        it draws or allocates, and appends nothing."""
        first, backend = build(AGE_MODEL, BASIC_CONFIG)
        first.setup()
        first.step()
        engine = Engine(first.model, first.config, backend)
        monkeypatch.setattr(rng, "sample_uniform", lambda *_: pytest.fail("drew"))
        with pytest.raises(ValueError, match=r"^setup needs a new engine and an empty backend$"):
            engine.setup()
        assert engine.rng_state == rng.seed_state(11)
        assert (engine.image.next, engine.image.animats, engine.image.ticks) == ({}, {}, 0)
        assert engine.image.next_free == 1
        assert backend.frame_count() == 2

    def test_setup_after_a_failed_append_changes_nothing(self):
        """Set-up that allocated but could not append is not run again on
        the blocks it left."""
        class Full(InMemoryBackend):
            def append_frame(self, frame):
                raise OSError(28, "No space left on device")

        engine = Engine(parse_model(AGE_MODEL), parse_config(BASIC_CONFIG), Full())
        with pytest.raises(OSError):
            engine.setup()
        state, animats = engine.rng_state, dict(engine.image.animats)
        with pytest.raises(ValueError, match=r"^setup needs a new engine and an empty backend$"):
            engine.setup()
        assert (engine.rng_state, engine.image.animats) == (state, animats)
        assert animats == {1: ("Egg", 1)}

    def test_blocks_entered_in_runs_of_rows_match_one_run(self, monkeypatch):
        """Populations, patches and spawns entered one row per ``allocate``
        give the frames of runs of up to ``_ALLOCATION_ROWS`` rows: values
        in dict order, labels and RNG states."""
        models = Path(__file__).resolve().parent.parent / "models"
        config = (BASIC_CONFIG.replace("2 km", "3 km").replace("steps = 4", "steps = 30")
                  .replace("populate 1 Egg", "populate 4 Egg\npopulate 8 Adult"))

        def frames():
            engine, _ = build((models / "eggs.rmd").read_text(), config)
            return [(list(f.values.items()), list(f.animats.items()), f.rng_state)
                    for f in [engine.setup()] + [engine.step() for _ in range(30)]]

        whole = frames()
        monkeypatch.setattr(interp, "_ALLOCATION_ROWS", 1)
        assert frames() == whole
        # Adults spawned eggs, and eggs hatched.
        highest = {}
        for _, animats, _ in whole:
            for _, (kind, index) in animats:
                highest[kind] = max(index, highest.get(kind, 0))
        assert highest["Egg"] > 4 and highest["Adult"] > 8


class TestStepping:
    def test_delta_accumulates_per_tick(self):
        engine, backend = build(AGE_MODEL, BASIC_CONFIG)
        rows = engine.run()
        ages = [backend.load_frame(t).values[3] for t in range(1, 6)]
        assert ages == [0.0, DAY, 2 * DAY, 3 * DAY, 4 * DAY]
        assert rows == [(t, "Egg", 1) for t in range(1, 6)]

    def test_reads_see_committed_state_only(self):
        # Both animats read the other's old position; a sequential update
        # would chase the moved value.
        engine, backend = build(
            "Egg is G with\n    age [day].\n"
            "to sync is\n    my age' = world's clock + 1 [day].\n"
            "to advance is\n    my clock' = my clock + 1 [day].\n"
            "World with\n    clock [day].\n"
            "World advance.\nEgg sync.\n",
            BASIC_CONFIG + "populate 1 Egg\n",
        )
        engine.run()
        # Egg reads the clock before the tick's increment lands.
        for tick in range(2, 6):
            frame = backend.load_frame(tick)
            assert frame.values[1] == (tick - 1) * DAY
            clock_seen = frame.values[4] - DAY
            assert clock_seen == (tick - 2) * DAY

    def test_assign_last_write_wins_in_task_order(self):
        engine, backend = build(
            "Egg is G with\n    age [day].\n"
            "to a is\n    my age' = 1 [day].\n"
            "to b is\n    my age' = 2 [day].\n"
            "Egg a.\nEgg b.\n",
            BASIC_CONFIG,
        )
        engine.run()
        assert backend.load_frame(2).values[3] == 2 * DAY

    def test_two_deltas_commute(self):
        first, backend_a = build(
            "Egg is G with\n    age [day].\n"
            "to a is\n    my delta age' = 1.25 [day].\n"
            "to b is\n    my delta age' = 2.5 [day].\n"
            "Egg a.\nEgg b.\n",
            BASIC_CONFIG,
        )
        second, backend_b = build(
            "Egg is G with\n    age [day].\n"
            "to b is\n    my delta age' = 2.5 [day].\n"
            "to a is\n    my delta age' = 1.25 [day].\n"
            "Egg b.\nEgg a.\n",
            BASIC_CONFIG,
        )
        first.run()
        second.run()
        for tick in range(1, 6):
            assert backend_a.load_frame(tick) == backend_b.load_frame(tick)

    def test_differential_scales_by_delta_time(self):
        engine, backend = build(
            "Egg is G with\n    age [day].\n"
            "to f is\n    my d/dt age' = 2.\n"
            "Egg f.\n",
            BASIC_CONFIG,
        )
        engine.run()
        assert backend.load_frame(2).values[3] == 2 * DAY
        assert backend.load_frame(3).values[3] == 4 * DAY

    def test_patch_and_world_tasks(self):
        engine, backend = build(
            "World with\n    total [kg].\n"
            "Patch with\n    grass [kg] = 1 [kg].\n"
            "to regrow is\n    my delta grass' = 0.5 [kg/day] * delta time.\n"
            "to audit is\n    my total' = my total + 1 [kg].\n"
            "Patch regrow.\nWorld audit.\n",
            "delta_time = 1 day\nsteps = 2\nseed = 3\n"
            "world_width = 2 km\nworld_height = 1 km\npatch_size = 1 km\n",
        )
        engine.run()
        last = backend.load_frame(3)
        assert last.values[1] == 2.0
        assert last.values[2] == last.values[3] == 2.0


class TestLifecycle:
    HATCH = (
        "Egg is G with\n    age [day] = 0 [day].\n"
        "Adult is G with\n    age [day]\n    energy [kg] = 1 [kg].\n"
        "to age is\n    my delta age' = delta time.\n"
        "to hatch is\n    my become Adult when my age >= 2 [day].\n"
        "Egg age.\nEgg hatch.\n"
    )

    def test_become_copies_pending_values(self):
        engine, backend = build(self.HATCH, BASIC_CONFIG)
        rows = engine.run()
        third = backend.load_frame(3)
        egg = next(b for b, (k, _) in third.animats.items() if k == "Egg")
        fourth = backend.load_frame(4)
        adult = next(b for b, (k, _) in fourth.animats.items() if k == "Adult")
        assert all(kind != "Egg" for kind, _ in fourth.animats.values())
        # Copied attributes carry this tick's writes, not last tick's view.
        assert fourth.values[adult + 2] == 3 * DAY
        assert fourth.values[adult] == third.values[egg]
        assert fourth.values[adult + 1] == third.values[egg + 1]
        assert fourth.values[adult + 3] == 1.0
        assert rows == [
            (1, "Egg", 1), (1, "Adult", 0),
            (2, "Egg", 1), (2, "Adult", 0),
            (3, "Egg", 1), (3, "Adult", 0),
            (4, "Egg", 0), (4, "Adult", 1),
            (5, "Egg", 0), (5, "Adult", 1),
        ]

    def test_become_carries_attributes_by_name_across_slot_orders(self):
        """``Egg: weight, age`` becomes ``Adult: age, energy``: the Adult
        carries x, y and age, each at its own slot with this tick's pending
        value, and starts energy at its initial value; weight is dropped."""
        engine, backend = build(
            "Egg is G with\n    weight [kg] = 7 [kg]\n    age [day] = 0 [day].\n"
            "Adult is G with\n    age [day] = 5 [day]\n    energy [kg] = 1 [kg].\n"
            "to age is\n    my delta age' = delta time.\n"
            "to hatch is\n    my become Adult when my age >= 2 [day].\n"
            "Egg age.\nEgg hatch.\n",
            BASIC_CONFIG,
        )
        engine.run()
        third, fourth = backend.load_frame(3), backend.load_frame(4)
        (egg,) = third.animats
        (adult,) = fourth.animats
        assert (third.animats[egg], fourth.animats[adult]) == (("Egg", 1), ("Adult", 1))
        assert third.values[egg + 3] == 2 * DAY
        assert [fourth.values[adult + slot] for slot in range(4)] == [
            third.values[egg], third.values[egg + 1], 3 * DAY, 1.0,
        ]

    def test_die_and_address_retirement(self):
        engine, backend = build(
            "Egg is G with\n    age [day].\n"
            "to age is\n    my delta age' = delta time.\n"
            "to expire is\n    my die when my age >= 1 [day].\n"
            "Egg age.\nEgg expire.\n",
            BASIC_CONFIG,
        )
        rows = engine.run()
        assert backend.load_frame(2).animats
        assert backend.load_frame(3).animats == {}
        assert backend.load_frame(3).values == {}
        assert (3, "Egg", 0) in rows

    def test_spawn_floor_position_and_initializers(self):
        engine, backend = build(
            "Egg is G with\n    age [day] = 5 [day].\n"
            "Adult is G with\n    age [day].\n"
            "to litter is\n    my spawn Egg' = 2.9.\n"
            "Adult litter.\n",
            BASIC_CONFIG.replace("populate 1 Egg", "populate 1 Adult"),
        )
        engine.run()
        second = backend.load_frame(2)
        adult = next(b for b, (k, _) in second.animats.items() if k == "Adult")
        eggs = sorted(b for b, (k, _) in second.animats.items() if k == "Egg")
        assert len(eggs) == 2
        assert [second.animats[b][1] for b in eggs] == [1, 2]
        for egg in eggs:
            assert second.values[egg] == second.values[adult]
            assert second.values[egg + 1] == second.values[adult + 1]
            assert second.values[egg + 2] == 5 * DAY
        # Spawning repeats every tick; the adult adds two more eggs.
        assert sum(1 for k, _ in backend.load_frame(3).animats.values() if k == "Egg") == 4

    def test_spawn_guard_skips_count_draws(self):
        engine, _ = build(
            "Egg is G with\n    age [day].\n"
            "to litter is\n    my spawn Egg' = uniform 1 to 3 when my age >= 1 [day].\n"
            "Egg litter.\n",
            BASIC_CONFIG,
        )
        engine.setup()
        before = engine.rng_state
        engine.step()
        assert rng.draws_between(before, engine.rng_state) == 0

    def test_negative_spawn_count_aborts(self):
        engine, backend = build(
            "Egg is G with\n    age [day].\n"
            "to litter is\n    my spawn Egg' = -1.\n"
            "Egg litter.\n",
            BASIC_CONFIG,
        )
        engine.setup()
        with pytest.raises(RuntimeAbort) as err:
            engine.step()
        assert err.value.tick == 2
        assert backend.frame_count() == 1

    @pytest.mark.parametrize(
        "count",
        ["exp(700) * exp(700)", "exp(700) * exp(700) - exp(700) * exp(700)"],
        ids=["inf", "nan"],
    )
    def test_non_finite_spawn_count_aborts(self, tmp_path, capsys, count):
        model = (
            "Egg is G with\n    age [day].\n"
            f"to litter is\n    my spawn Egg' = {count}.\n"
            "Egg litter.\n"
        )
        engine, backend = build(model, BASIC_CONFIG)
        engine.setup()
        with pytest.raises(RuntimeAbort, match="spawn count") as err:
            engine.step()
        assert err.value.tick == 2
        assert backend.frame_count() == 1
        (tmp_path / "litter.rmd").write_text(model)
        (tmp_path / "run.cfg").write_text(BASIC_CONFIG)
        args = ["run", tmp_path / "litter.rmd", tmp_path / "run.cfg", "--out", tmp_path / "run"]
        assert cli.main([str(a) for a in args]) == 3
        assert "spawn count" in capsys.readouterr().err


    def test_animat_ceiling_bounds_spawn_and_populate(self, monkeypatch):
        monkeypatch.setattr(interp, "MAX_ANIMATS", 12)
        model = (
            "Egg is G with\n    age [day].\n"
            "to litter is\n    my spawn Egg' = 3.\n"
            "Egg litter.\n"
        )
        engine, backend = build(model, BASIC_CONFIG)
        engine.setup()
        engine.step()
        assert len(backend.load_frame(2).animats) == 4
        with pytest.raises(RuntimeAbort, match="spawn of 3 would hold 13 animats") as err:
            engine.step()
        assert (err.value.tick, err.value.stage, err.value.pos.line) == (3, "Egg", 4)
        assert backend.frame_count() == 2
        assert len(engine.image.animats) == 10
        engine, backend = build(model, BASIC_CONFIG + "populate 12 Egg\n")
        with pytest.raises(RuntimeAbort, match="setup needs 13 animats") as err:
            engine.setup()
        assert err.value.tick == 1
        assert backend.frame_count() == 0
        assert engine.image.animats == {}

    def test_spawn_counts_the_blocks_killed_in_its_tick(self, monkeypatch):
        """Each spawn of a tick counts the live blocks: those killed earlier
        in the tick are not, so a tick may reach the ceiling exactly."""
        monkeypatch.setattr(interp, "MAX_ANIMATS", 4)
        model = (
            "Egg is G with\n    age [day].\n"
            "to renew is\n    my die when my age >= 0 [day]\n    my spawn Egg' = 2.\n"
            "Egg renew.\n"
        )
        engine, backend = build(model, BASIC_CONFIG.replace("populate 1 Egg", "populate 2 Egg"))
        engine.setup()
        engine.step()
        assert len(backend.load_frame(2).animats) == 4
        with pytest.raises(RuntimeAbort, match="spawn of 2 would hold 5 animats") as err:
            engine.step()
        assert (err.value.tick, err.value.index) == (3, 3)
        assert backend.frame_count() == 2


class TestEvaluation:
    def test_utility_memoized_per_animat(self):
        engine, _ = build(
            "Egg is G with\n    age [day].\n"
            "to wiggle is\n    my delta age' = (u + u + u) * delta time\n"
            "where\n    u = uniform 0 to 1.\n"
            "Egg wiggle.\n",
            BASIC_CONFIG + "populate 2 Egg\n",
        )
        engine.setup()
        before = engine.rng_state
        engine.step()
        assert rng.draws_between(before, engine.rng_state) == 3

    def test_casts_and_builtins(self):
        engine, backend = build(
            "Egg is G with\n    count []\n    age [day].\n"
            "to f is\n    my count' = floor(my age in [day]) + min(2, 3)\n"
            "    my age' = (1.5 as [day]) + 12 [h].\n"
            "Egg f.\n",
            BASIC_CONFIG,
        )
        engine.run()
        assert backend.load_frame(2).values[4] == 2 * DAY
        assert backend.load_frame(3).values[3] == 2.0 + 2.0

    def test_division_by_zero_aborts_keeping_frames(self):
        engine, backend = build(
            "Egg is G with\n    age [day].\n"
            "to f is\n    my age' = (1 [day] * 1 [day]) / my age.\n"
            "Egg f.\n",
            BASIC_CONFIG,
        )
        engine.setup()
        with pytest.raises(RuntimeAbort) as err:
            engine.step()
        assert "division by zero" in err.value.message
        assert err.value.tick == 2
        assert err.value.stage == "Egg"
        assert err.value.pos is not None
        assert backend.frame_count() == 1

    def test_loglogistic_overflow_aborts_keeping_frames(self):
        engine, backend = build(
            "Egg is G with\n    w [].\n"
            "to f is\n    my w' = loglogistic(1, 0.001).\n"
            "Egg f.\n",
            BASIC_CONFIG + "populate 7 Egg\n",
        )
        engine.setup()
        with pytest.raises(RuntimeAbort, match="loglogistic draw overflows") as err:
            engine.step()
        assert (err.value.tick, err.value.stage, err.value.pos.line) == (2, "Egg", 4)
        assert backend.frame_count() == 1

    @pytest.mark.parametrize("decorator", ["", "delta ", "d/dt "])
    def test_non_finite_write_aborts_keeping_frames(self, tmp_path, capsys, decorator):
        rate = " [day^-1]" if decorator == "d/dt " else ""
        model = (
            "Egg is G with\n    w [] = 1 [].\n"
            f"to grow is\n    my {decorator}w' = my w * 1e200{rate}.\n"
            "Egg grow.\n"
        )
        engine, backend = build(model, BASIC_CONFIG)
        with pytest.raises(RuntimeAbort, match="non-finite value inf for 'w'") as err:
            engine.run()
        assert (err.value.tick, err.value.stage, err.value.pos.line) == (3, "Egg", 4)
        assert backend.frame_count() == 2
        (tmp_path / "grow.rmd").write_text(model)
        (tmp_path / "run.cfg").write_text(BASIC_CONFIG)
        out = tmp_path / "run"
        args = ["run", tmp_path / "grow.rmd", tmp_path / "run.cfg", "--out", out]
        assert cli.main([str(a) for a in args]) == 3
        assert "non-finite value inf for 'w' (tick 3, Egg, line 4)" in capsys.readouterr().err
        frames = (out / "frames.csv").read_text()
        assert "inf" not in frames
        assert {line.split(",")[0] for line in frames.splitlines()[1:]} == {"1", "2"}

    def test_math_domain_errors_abort(self):
        engine, _ = build(
            "Egg is G with\n    age [day].\n"
            "to f is\n    my delta age' = ln(0 - 1) * delta time.\n"
            "Egg f.\n",
            BASIC_CONFIG,
        )
        engine.setup()
        with pytest.raises(RuntimeAbort):
            engine.step()

    def test_inverted_uniform_bounds_abort(self):
        engine, backend = build(
            "Egg is G with\n    age [day].\n"
            "to f is\n    my delta age' = uniform 1 [day] to 0 [day].\n"
            "Egg f.\n",
            BASIC_CONFIG,
        )
        engine.setup()
        with pytest.raises(RuntimeAbort) as err:
            engine.step()
        assert "low <= high" in err.value.message
        assert backend.frame_count() == 1

    def test_here_reads_and_writes(self):
        engine, backend = build(
            "Patch with\n    grass [kg] = 1 [kg].\n"
            "Egg is G with\n    seen [kg].\n"
            "to graze is\n    my seen' = here's grass\n"
            "    here's delta grass' = -(0.25 [kg]).\n"
            "Egg graze.\n",
            BASIC_CONFIG,
        )
        engine.run()
        second = backend.load_frame(2)
        egg = next(b for b, (k, _) in second.animats.items() if k == "Egg")
        assert second.values[egg + 2] == 1.0
        assert backend.load_frame(3).values[egg + 2] == 0.75


# Operands that pin ties, signs of zero, extremes and NaN.
GRID = (-math.inf, -1e308, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e308, math.inf, math.nan)


class TestCompiledTasks:
    """What the compiled tasks owe the rest of the program."""

    @pytest.mark.parametrize("key", [k for k, (_, form) in interp._CALLS.items() if "{" in form])
    def test_text_form_matches_its_folding_function(self, key):
        """Run time computes what constant folding computes, bit for bit and
        of the same type, on every tuple of grid operands."""
        fold, form = interp._CALLS[key]
        for operands in itertools.product(GRID, repeat=key[1]):
            # As the compiler writes operands: a finite one by its repr, a
            # non-finite one by a name.
            names = {f"c{i}": x for i, x in enumerate(operands) if not math.isfinite(x)}
            texts = [repr(x) if math.isfinite(x) else f"c{i}" for i, x in enumerate(operands)]
            value, expected = eval(form.format(*texts), names), fold(*operands)
            assert (type(value), repr(value)) == (type(expected), repr(expected)), operands

    def test_sampler_replaced_after_build_sees_every_draw(self, monkeypatch):
        engine, _ = build(
            "Egg is G with\n    age [day].\n"
            "to wiggle is\n"
            "    my delta age' = (u + u) * delta time + (uniform 0 [day] to 1 [day])\n"
            "where\n    u = uniform 0 to 1.\n"
            "Egg wiggle.\n",
            BASIC_CONFIG + "populate 2 Egg\n",
        )
        engine.setup()
        calls = []
        original = rng.sample_uniform

        def counted(state, low, high):
            calls.append((low, high))
            return original(state, low, high)

        monkeypatch.setattr(rng, "sample_uniform", counted)
        before = engine.rng_state
        engine.step()
        assert len(calls) == rng.draws_between(before, engine.rng_state) == 6
        assert calls.count((0.0, 1.0)) == 3

    def test_an_action_without_definitions_is_a_pass_loop(self):
        """An action built with no definitions, which the parser cannot
        give, checks clean and runs its task over every performer."""
        root = Path(__file__).resolve().parent.parent / "models"
        model, config = parse_model((root / "age.rmd").read_text()), parse_config((root / "age.cfg").read_text())
        model = dataclasses.replace(model, actions=model.actions + (ActionDefinition("idle"),),
                                    tasks=model.tasks + (TaskDefinition("Adult", "idle"),))
        assert check_model(model, config) == []
        engine = Engine(model, config, InMemoryBackend())
        assert engine.source.endswith(
            "def task_1(vals, bases, events, state):\n"
            "    for b in bases:\n        pass\n    return state"
        )
        assert engine.run()[-1] == (5, "Adult", 1)

    def test_every_definition_writes_through_the_image(self, monkeypatch):
        """A task applies the commit rule by ``MemoryImage.write`` and
        ``write_delta``, the methods criterion 03 checks against its oracle,
        except for an own (``my``) write of an attribute no earlier write of
        the tick reached otherwise, which it applies inline: on the eggs
        model only graze's ``here's`` write calls a method.  The property
        below checks the inline rule against the methods."""
        calls = {"write": 0, "write_delta": 0}

        def counted(name):
            original = getattr(MemoryImage, name)

            def wrapper(image, address, value):
                if sys._getframe(1).f_code.co_filename == "<remodyc tasks>":
                    calls[name] += 1
                return original(image, address, value)

            return wrapper

        for name in calls:
            monkeypatch.setattr(MemoryImage, name, counted(name))
        models = Path(__file__).resolve().parent.parent / "models"
        engine, _ = build((models / "eggs.rmd").read_text(), (models / "eggs.cfg").read_text())
        engine.setup()
        expected, reached = {"write": 0, "write_delta": 0}, set()
        for task in engine.model.tasks:
            performers = len(engine.image.performers.get(task.agent, ()))
            for definition in engine.model.action_named(task.action).definitions:
                variable = definition.variable
                kind = {None: task.agent, "here": "Patch", "world": "World"}[variable.agent]
                if variable.agent is not None:
                    reached.add((kind, variable.identifier))
                if (kind, variable.identifier) in reached:
                    assign = definition.decorator is Decorator.ASSIGN
                    expected["write" if assign else "write_delta"] += performers
        adults = len(engine.image.performers["Adult"])
        engine.step()
        assert calls == expected
        assert expected == {"write": 0, "write_delta": adults}

    def test_dropped_engine_is_freed_without_the_cycle_collector(self):
        models = Path(__file__).resolve().parent.parent / "models"
        config = (models / "eggs.cfg").read_text().replace("steps = 200", "steps = 12")
        gc.disable()
        try:
            engine, _ = build((models / "eggs.rmd").read_text(), config)
            engine.run()
            dropped = weakref.ref(engine), weakref.ref(engine.image)
            del engine
            assert [ref() for ref in dropped] == [None, None]
        finally:
            gc.enable()


# Generated models whose writes mix own and other writes of one attribute
# pool: a Bug stage, the Patch grid and the World each declare ``p`` and
# ``q``, and every task defines some of them.
POOL = ("p", "q")
# The scopes a task of each kind may name; ``here's`` is a Patch's own.
SCOPES = {"Bug": ("my", "here's", "world's"), "Patch": ("my", "here's", "world's"),
          "World": ("my", "world's")}
DECORATORS = {"": Decorator.ASSIGN, "delta ": Decorator.DELTA, "d/dt ": Decorator.DIFFERENTIAL}
# Signed zeros, and magnitudes whose sums and doubles overflow.
LITERALS = ("0", "-0", "1.5", "-2.5", "1e308", "-1e308")
WRITES_CONFIG = ("delta_time = 2 s\nsteps = 3\nseed = {seed}\nworld_width = 2 km\n"
                 "world_height = 2 km\npatch_size = 1 km\npopulate 3 Bug\n")


def write_model(tasks, initials: dict[str, str] | None = None) -> str:
    """The model of ``tasks``, each ``(kind, [(scope, decorator, attribute,
    value)])``, a value being a literal or a committed ``(scope,
    attribute)``; ``initials`` gives each kind's initial value of every
    attribute of the pool, default 1."""
    initials = initials or {}
    declarations = "".join(
        f"{head} with\n" + "\n".join(f"    {a} [] = {initials.get(kind, '1')} []" for a in POOL)
        + ".\n"
        for kind, head in (("World", "World"), ("Patch", "Patch"), ("Bug", "Bug is B"))
    )
    actions = "".join(
        f"to t{i} is\n" + "\n".join(
            f"    {scope} {decorator}{attribute}' = "
            + (value if isinstance(value, str) else " ".join(value))
            for scope, decorator, attribute, value in definitions
        ) + ".\n"
        for i, (_, definitions) in enumerate(tasks)
    )
    return declarations + actions + "".join(f"{kind} t{i}.\n" for i, (kind, _) in enumerate(tasks))


@st.composite
def write_cases(draw):
    """A model of 2-4 generated tasks, its tasks and a seed."""
    tasks = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(sorted(SCOPES)))
        scope, attribute = st.sampled_from(SCOPES[kind]), st.sampled_from(POOL)
        value = st.sampled_from(LITERALS) | st.tuples(scope, attribute)
        definition = st.tuples(scope, st.sampled_from(sorted(DECORATORS)), attribute, value)
        tasks.append((kind, draw(st.lists(definition, min_size=1, max_size=3))))
    initials = {kind: draw(st.sampled_from(("0", "1", "2.5", "1e308"))) for kind in SCOPES}
    return write_model(tasks, initials), tasks, draw(st.integers(0, 2**16))


def write_case(*tasks):
    return write_model(tasks), tasks, 1


def replay_writes(engine: Engine, tasks) -> list | RuntimeAbort:
    """The next frame's values in dict order, or the abort, as applying every
    definition by ``MemoryImage.write``/``write_delta`` to a fresh image
    of the committed frame gives them, in task-then-performer order."""
    frame = TraceFrame(engine.image.vals, engine.image.animats, engine.rng_state)
    image, tick, config = MemoryImage(), engine.image.ticks + 1, engine.config
    image.apply_frame(frame, tick - 1)
    world, patches = image.performers["World"][0], image.performers["Patch"]

    def address(kind, b, scope, attribute):
        owner = {"my": kind, "here's": "Patch", "world's": "World"}[scope]
        if owner == "World":
            block = world
        elif owner == kind:
            block = b
        else:  # the patch under the Bug
            x, y = image.vals[b], image.vals[b + 1]
            column = min(math.floor(x / config.patch_size), config.patches_x - 1)
            row = min(math.floor(y / config.patch_size), config.patches_y - 1)
            block = patches[row * config.patches_x + column]
        return block + engine.slots[owner][attribute]

    for kind, definitions in tasks:
        for b in image.performers[kind]:
            for scope, decorator, attribute, value in definitions:
                value = (float(value) if isinstance(value, str)
                         else image.vals[address(kind, b, *value)])
                if DECORATORS[decorator] is Decorator.DIFFERENTIAL:
                    value *= config.delta_time
                write = image.write if decorator == "" else image.write_delta
                try:
                    write(address(kind, b, scope, attribute), value)
                except ValueError as err:
                    message = f"non-finite value {err} for {attribute!r}"
                    return RuntimeAbort(message, tick, kind, base=b, attribute=attribute)
    return [(a, repr(v)) for a, v in image.next.items()]


@settings(max_examples=150, deadline=None, report_multiple_bugs=False)
@given(write_cases())
# An own delta that a later own delta reads; a here's delta before an own
# one of the Patch; an own assignment that a later own delta reads.
@example(write_case(("Bug", [("my", "delta ", "p", "1.5")]), ("Bug", [("my", "delta ", "p", "-0")])))
@example(write_case(("Bug", [("here's", "delta ", "p", "1.5")]), ("Patch", [("my", "delta ", "p", "1.5")])))
@example(write_case(("Bug", [("my", "", "p", "-2.5")]), ("Bug", [("my", "d/dt ", "p", "0")])))
def test_inline_writes_commit_as_the_image_methods_do(case):
    """Each step's frame, values by repr in dict order, or its abort (text,
    tick, stage, base, attribute) equals a replay through the image's
    methods."""
    model, tasks, seed = case
    engine, _ = build(model, WRITES_CONFIG.format(seed=seed))
    engine.setup()
    for _ in range(3):
        expected = replay_writes(engine, tasks)
        try:
            got = [(a, repr(v)) for a, v in engine.step().values.items()]
        except RuntimeAbort as abort:
            got = abort
        if isinstance(expected, RuntimeAbort):
            assert isinstance(got, RuntimeAbort), expected.message
            assert (got.message, got.tick, got.stage, got.base, got.attribute) == (
                expected.message, expected.tick, expected.stage, expected.base,
                expected.attribute)
            return
        assert got == expected


class TestDirection:
    def grid_engine(self):
        engine, _ = build(
            "Patch with\n    grass [kg].\n"
            "Walker is W with\n    heading [rad].\n"
            "to sense is\n    my heading' = direction neighbor's grass.\n"
            "Walker sense.\n",
            "delta_time = 1 day\nsteps = 1\nseed = 2\n"
            "world_width = 3 km\nworld_height = 3 km\npatch_size = 1 km\n"
            "populate 1 Walker\n",
        )
        engine.setup()
        walker = next(
            b for b, (k, _) in engine.image.animats.items() if k == "Walker"
        )
        engine.image.vals[walker] = 1500.0
        engine.image.vals[walker + 1] = 1500.0
        return engine, walker

    def heading(self, engine, walker):
        """The heading the walker commits in one step: ``x``, ``y`` and
        ``heading`` are its three slots."""
        return engine.step().values[walker + 2]

    def patch_value(self, engine, px, py, value):
        engine.image.vals[engine.image.performers["Patch"][py * 3 + px]] = value

    def test_points_to_richest_neighbor_center(self):
        engine, walker = self.grid_engine()
        self.patch_value(engine, 2, 2, 5.0)
        assert self.heading(engine, walker) == math.atan2(1000.0, 1000.0)

    def test_own_patch_when_strictly_richest(self):
        engine, walker = self.grid_engine()
        self.patch_value(engine, 1, 1, 5.0)
        assert self.heading(engine, walker) == 0.0

    def test_ties_take_scan_order(self):
        engine, walker = self.grid_engine()
        # All equal: the first scanned neighbor (upper-left) wins.
        assert self.heading(engine, walker) == math.atan2(500.0 - 1500.0, 500.0 - 1500.0)

    def test_edge_clipping(self):
        engine, walker = self.grid_engine()
        engine.image.vals[walker] = 100.0
        engine.image.vals[walker + 1] = 100.0
        self.patch_value(engine, 1, 0, 5.0)
        assert self.heading(engine, walker) == math.atan2(500.0 - 100.0, 1500.0 - 100.0)


def scan_heading(vals, patches, columns, rows, edge, slot, x, y):
    """``direction`` as a scan of the 3x3 window around the patch under
    ``(x, y)``, row by row from the top: a patch is the best so far if it is
    strictly richer than every patch before it."""
    qx, qy = x / edge, y / edge
    px = 0 if qx < 0.0 else columns - 1 if qx >= columns - 1 else math.floor(qx)
    py = 0 if qy < 0.0 else rows - 1 if qy >= rows - 1 else math.floor(qy)
    best, best_value = None, -math.inf
    for cy in (py - 1, py, py + 1):
        for cx in (px - 1, px, px + 1):
            if 0 <= cx < columns and 0 <= cy < rows:
                if vals[patches[cy * columns + cx] + slot] > best_value:
                    best, best_value = (cx, cy), vals[patches[cy * columns + cx] + slot]
    if best == (px, py):
        return 0.0
    return math.atan2((best[1] + 0.5) * edge - y, (best[0] + 0.5) * edge - x)


# Each tick the patches swap grass and water, so the two fields of a frame
# differ from the frame before; a walker senses both.
TWO_FIELDS_MODEL = """\
Patch with
    grass [kg]
    water [kg].

Walker is W with
    heading [rad]
    bearing [rad].

to swap is
    my grass' = my water
    my water' = my grass.

to sense is
    my heading' = direction neighbor's grass
    my bearing' = direction neighbor's water.

Patch swap.
Walker sense.
"""

# Few values, so that ties are common; none is the field's -inf border.
RICHNESS = st.sampled_from((0.0, 1.0, -1.0, 5.0, 1e308, -1e308, 5e-324))


@st.composite
def two_fields(draw):
    """A grid of 1x1 to 8x8 patches of an edge in km, its grass and water,
    and walkers anywhere: on cell borders, inside the world or far past
    each edge."""
    columns, rows = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    edge = draw(st.sampled_from((1.0, 0.25, 3.0)))
    cells = columns * rows
    grass = draw(st.lists(RICHNESS, min_size=cells, max_size=cells))
    water = draw(st.lists(RICHNESS, min_size=cells, max_size=cells))

    def coordinate(count):
        extent = count * edge * 1000.0
        return st.one_of(
            st.sampled_from((-1e308, -extent, -0.0, extent, 2 * extent, 1e308)),
            st.integers(-2, 2 * count + 2).map(lambda k: k * edge * 500.0),
            st.floats(-extent, 2 * extent),
        )

    walkers = draw(st.lists(
        st.tuples(coordinate(columns), coordinate(rows)), min_size=1, max_size=5
    ))
    return columns, rows, edge, grass, water, walkers


@given(two_fields())
@example((8, 1, 1.0, [5.0, 1.0, 5.0, 5.0, 0.0, 5.0, 1.0, 1.0], [0.0] * 8,
          [(-1e308, 0.0), (3500.0, 1e308), (1e308, -5.0)]))
@example((1, 8, 1.0, [1.0, 5.0, 5.0, -1e308, 5e-324, 0.0, 5.0, 5.0], [5.0] * 8,
          [(0.0, 4500.0), (500.0, -1e308), (2e3, 8e3)]))
@settings(max_examples=200, deadline=None)
def test_direction_field_matches_the_scan(case):
    """Each committed heading equals the scan's, bit for bit, on two steps
    from a frame of any patch values and positions, and on a step after
    ``resume`` loads the last frame again."""
    columns, rows, edge, grass, water, walkers = case
    config = parse_config(
        "delta_time = 1 day\nsteps = 3\nseed = 1\n"
        f"world_width = {columns * edge!r} km\nworld_height = {rows * edge!r} km\n"
        f"patch_size = {edge!r} km\npopulate {len(walkers)} Walker\n"
    )
    model = parse_model(TWO_FIELDS_MODEL)
    laid_out = Engine(model, config, InMemoryBackend()).setup()
    values = dict(laid_out.values)
    patches = sorted(b for b, (kind, _) in laid_out.animats.items() if kind == "Patch")
    bases = sorted(b for b, (kind, _) in laid_out.animats.items() if kind == "Walker")
    for base, g, w in zip(patches, grass, water):
        values[base], values[base + 1] = g, w
    for base, (x, y) in zip(bases, walkers):
        values[base], values[base + 1] = x, y
    backend = InMemoryBackend()
    backend.append_frame(TraceFrame(values, laid_out.animats, laid_out.rng_state))
    engine = Engine(model, config, backend)
    engine.resume(1)
    assert engine.image.performers["Patch"] == patches

    def step_matches_scan():
        read = engine.image.vals
        committed = engine.step().values
        for base in bases:
            x, y = read[base], read[base + 1]
            for target, slot in ((base + 2, 0), (base + 3, 1)):
                expected = scan_heading(read, patches, columns, rows, edge * 1000.0, slot, x, y)
                assert committed[target].hex() == expected.hex()

    step_matches_scan()
    step_matches_scan()
    engine.resume(3)
    step_matches_scan()


# Both tasks sense the grass; the first also adds to the grass under each
# walker, which neither may see before the commit.
TWO_SENSING_TASKS_MODEL = """\
Patch with
    grass [kg].

Walker is W with
    heading [rad]
    bearing [rad].

to graze is
    my heading' = direction neighbor's grass
    here's delta grass' = 10 [kg].

to sense is
    my bearing' = direction neighbor's grass.

Walker graze.
Walker sense.
"""

GRID_CONFIG = (
    "delta_time = 1 day\nsteps = 1\nseed = 2\n"
    "world_width = 3 km\nworld_height = 3 km\npatch_size = 1 km\n"
)


def test_direction_tasks_of_one_tick_read_the_committed_frame():
    """Two ``direction`` tasks in one tick commit the headings the scan
    gives on the committed frame, though the first one's ``here's`` writes
    would change the second one's field."""
    model = parse_model(TWO_SENSING_TASKS_MODEL)
    config = parse_config(GRID_CONFIG + "populate 3 Walker\n")
    laid_out = Engine(model, config, InMemoryBackend()).setup()
    read = dict(laid_out.values)
    patches = sorted(b for b, (kind, _) in laid_out.animats.items() if kind == "Patch")
    walkers = sorted(b for b, (kind, _) in laid_out.animats.items() if kind == "Walker")
    for base, value in zip(patches, (0.0, 1.0, 0.0, 4.0, 2.0, 3.0, 0.0, 5.0, 1.0)):
        read[base] = value
    for base, (x, y) in zip(walkers, ((1500.0, 1500.0), (500.0, 500.0), (2500.0, 100.0))):
        read[base], read[base + 1] = x, y
    backend = InMemoryBackend()
    backend.append_frame(TraceFrame(read, laid_out.animats, laid_out.rng_state))
    engine = Engine(model, config, backend)
    engine.resume(1)
    committed = engine.step().values
    for base in walkers:
        expected = scan_heading(read, patches, 3, 3, 1000.0, 0, read[base], read[base + 1])
        assert committed[base + 2] == committed[base + 3] == expected
    # The walkers stand on cells 4, 0 and 2.
    assert [committed[b] - read[b] for b in patches] == [10, 0, 10, 0, 10, 0, 0, 0, 0]


@pytest.mark.parametrize("walkers, slots", [(0, []), (2, [0, 1])])
def test_direction_fields_are_built_once_per_task_call_with_performers(walkers, slots):
    """A task builds the field of each ``direction`` slot it reads once per
    call, and none in a tick where it has no performers."""
    engine, _ = build(TWO_FIELDS_MODEL, GRID_CONFIG + f"populate {walkers} Walker\n")
    engine.setup()
    namespace, calls = engine.plan[1][1].__globals__, []
    field = namespace["field"]

    def counted(vals, patches, slot):
        calls.append(slot)
        return field(vals, patches, slot)

    namespace["field"] = counted
    engine.step()
    engine.step()
    assert calls == slots * 2


class TestSharedFrames:
    """A committed frame is one value, shared by the image, the backend
    that stored it and the caller, and nothing writes it afterwards."""

    @staticmethod
    def snapshot(frame):
        return TraceFrame(dict(frame.values), dict(frame.animats), frame.rng_state)

    def committed(self, engine, frame, snapshots):
        """Checks that ``frame``, just returned, is the image's and the
        backend's last, and records a snapshot of it."""
        assert engine.image.vals is engine.backend.frames[-1].values is frame.values
        snapshots.append(self.snapshot(frame))

    def test_reference_run_and_a_resume_share_each_frame(self):
        root = Path(__file__).resolve().parent.parent / "models"
        model, config = parse_model((root / "eggs.rmd").read_text()), parse_config((root / "eggs.cfg").read_text())
        engine, snapshots = Engine(model, config, InMemoryBackend()), []
        self.committed(engine, engine.setup(), snapshots)
        for _ in range(config.steps):
            self.committed(engine, engine.step(), snapshots)
        frames = engine.backend.frames
        assert len(frames) == 201 and frames == snapshots
        # Eggs were spawned and became adults, and an adult died.
        highest = dict(sorted(frames[-1].animats.values()))
        assert highest["Egg"] > 20 and highest["Adult"] > 10
        adults = [{b for b, (kind, _) in f.animats.items() if kind == "Adult"} for f in frames]
        assert any(before - after for before, after in zip(adults, adults[1:]))

        replica, copied = Engine(model, config, InMemoryBackend()), []
        for tick in range(1, 101):
            replica.backend.append_frame(engine.backend.load_frame(tick))
            copied.append(snapshots[tick - 1])
        replica.resume(100)
        assert replica.image.vals is replica.backend.frames[-1].values
        self.committed(replica, replica.step(), copied)
        assert replica.backend.frames == copied and copied[100] == snapshots[100]
        assert frames == snapshots


class TestResume:
    def test_resume_reproduces_trace(self):
        engine, backend = build(self.model(), self.config())
        engine.run()
        replica, fresh = build(self.model(), self.config())
        fresh.append_frame(backend.load_frame(1))
        replica.resume(1)
        for tick in range(2, 7):
            replica.step()
            assert fresh.load_frame(tick) == backend.load_frame(tick)

    def test_mid_run_resume(self):
        engine, backend = build(self.model(), self.config())
        engine.run()
        replica = Engine(
            parse_model(self.model()), parse_config(self.config()), backend
        )
        replica.image.load(backend, 3)
        replica.rng_state = backend.load_frame(3).rng_state
        assert {
            a: replica.image.read(a) for a in backend.load_frame(3).values
        } == backend.load_frame(3).values

    @staticmethod
    def doctored(change):
        """An eggs engine and its stored run of two ticks, the animats and
        values of frame 2 changed by ``change``."""
        root = Path(__file__).resolve().parent.parent / "models"
        model, config = parse_model((root / "eggs.rmd").read_text()), (root / "eggs.cfg").read_text()
        engine = Engine(model, parse_config(config), InMemoryBackend())
        engine.setup()
        engine.step()
        frame = engine.backend.frames[1]
        animats, values = dict(frame.animats), dict(frame.values)
        change(animats, values)
        engine.backend.frames[1] = TraceFrame(values, animats, frame.rng_state)
        return engine

    @pytest.mark.parametrize("change, message", [
        (lambda animats, _: animats.update({max(animats): ("Larva", 1)}),
         "tick 2: unknown stage 'Larva'"),
        (lambda animats, _: animats.pop(1), "tick 2: 0 World blocks, the model has 1"),
        (lambda animats, _: animats.pop(min(b for b, (k, _) in animats.items() if k == "Patch")),
         "tick 2: 99 Patch blocks, the model has 100"),
        # Address 104 is the age of Egg 1, whose block starts at 102.
        (lambda _, values: values.pop(104), "tick 2: no value at address 104"),
    ], ids=["undeclared stage", "no World", "a Patch missing", "a slot without a value"])
    def test_resume_refuses_a_frame_without_the_models_blocks(self, change, message):
        engine = self.doctored(change)
        vals, state = engine.image.vals, engine.rng_state
        with pytest.raises(ValueError) as refused:
            engine.resume(2)
        assert str(refused.value) == message
        assert engine.image.vals is vals and (engine.image.ticks, engine.rng_state) == (2, state)

    def model(self):
        return (
            "Patch with\n    grass [kg] = 2 [kg].\n"
            "Egg is G with\n    age [day].\n"
            "to age is\n    my delta age' = delta time.\n"
            "to jitter is\n    my delta age' = uniform 0 [day] to 1 [day].\n"
            "Egg age.\nEgg jitter.\n"
        )

    def config(self):
        return (
            "delta_time = 1 day\nsteps = 5\nseed = 9\n"
            "world_width = 2 km\nworld_height = 2 km\npatch_size = 1 km\n"
            "populate 3 Egg\n"
        )


class TestNewBlocks:
    """A new block holds its initial values from its allocation on."""

    def test_populate_zero_allocates_and_draws_nothing(self):
        empty, _ = build(AGE_MODEL, BASIC_CONFIG.replace("populate 1 Egg", "populate 0 Egg"))
        assert empty.setup() == TraceFrame({}, {}, rng.seed_state(11))
        assert (empty.image.performers, empty.image.next_free) == ({}, 1)
        assert empty.step() == TraceFrame({}, {}, rng.seed_state(11))
        # Around another population, it leaves the layout and the stream alone.
        padded, _ = build(AGE_MODEL, BASIC_CONFIG.replace(
            "populate 1 Egg", "populate 0 Egg\npopulate 1 Egg\npopulate 0 Egg"))
        plain, _ = build(AGE_MODEL, BASIC_CONFIG)
        assert padded.setup() == plain.setup()
        assert padded.step() == plain.step()

    def test_negative_zero_initializer_commits_and_prints_zero(self, tmp_path):
        """Set up (populate), born of a become and spawned: each new block
        commits a -0 initial value as 0, as a write of -0 would."""
        model = parse_model(
            "Egg is G with\n    age [day] = 0 [day].\n"
            "Adult is G with\n    energy [kg] = 0 [kg].\n"
            "to hatch is\n    my become Adult when my age >= 0 [day].\n"
            "to lay is\n    my spawn Egg' = 1.\n"
            "Egg hatch.\nAdult lay.\n"
        )

        def negative_zero(agent):
            return dataclasses.replace(agent, attributes=tuple(
                dataclasses.replace(d, initial=dataclasses.replace(d.initial, value=-0.0))
                for d in agent.attributes))

        model = dataclasses.replace(model, agents=tuple(map(negative_zero, model.agents)))
        assert all(d.initial.value == -0.0 for a in model.agents for d in a.attributes)
        engine = Engine(model, parse_config(BASIC_CONFIG), FileBackend(tmp_path))
        frames = [engine.setup(), engine.step(), engine.step()]
        assert [sorted(kind for kind, _ in f.animats.values()) for f in frames] == [
            ["Egg"], ["Adult"], ["Adult", "Egg"]]
        for frame in frames:
            assert all(math.copysign(1.0, v) == 1.0 for v in frame.values.values())
        rows = (tmp_path / "frames.csv").read_text().splitlines()[1:]
        assert [row for row in rows if row.endswith(",0")] == ["1,3,0", "2,6,0", "3,6,0", "3,9,0"]
        assert not [row for row in rows if row.endswith("-0")]
