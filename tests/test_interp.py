"""Engine semantics: setup, stepping, lifecycle, evaluation."""
import math

import pytest

from remodyc import cli, interp, rng
from remodyc.ast import Placeholder
from remodyc.interp import (
    ConfigError,
    Engine,
    RuntimeAbort,
    SimulationConfig,
    _Compiler,
    parse_config,
)
from remodyc.memory import InMemoryBackend
from remodyc.parser import parse_expression, parse_model

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

    def test_validation_direct(self):
        with pytest.raises(ConfigError):
            SimulationConfig(delta_time=0.0, steps=1, seed=0)
        with pytest.raises(ConfigError):
            SimulationConfig(delta_time=1.0, steps=1, seed=0, patch_size=300.0)


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

    def test_placeholder_target(self):
        import dataclasses

        model = parse_model(
            "Egg is G with\n    age [day].\nto f is\n    my age' = 1 [day].\n"
            "Egg f\nwhere\n    the tgt -> my age.\n"
        )
        action = model.actions[0]
        definition = dataclasses.replace(
            action.definitions[0], variable=Placeholder("tgt")
        )
        action = dataclasses.replace(action, definitions=(definition,))
        model = dataclasses.replace(model, actions=(action,))
        backend = InMemoryBackend()
        Engine(model, parse_config(BASIC_CONFIG), backend).run()
        assert backend.load_frame(2).values[3] == DAY


class TestSetup:
    def test_layout_and_initializers(self):
        engine, backend = build(
            "World with\n    tally [] = 3 [].\n"
            "Patch with\n    grass [kg] = 2 [kg].\n"
            + AGE_MODEL,
            BASIC_CONFIG,
        )
        frame = engine.setup()
        assert engine.world_base == 1
        assert engine.patch_bases == [2, 3, 4, 5]
        assert frame.values[1] == 3.0
        assert all(frame.values[b] == 2.0 for b in engine.patch_bases)
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
        compiler = _Compiler(engine, engine.model.tasks[0])
        direction = compiler.expression(parse_expression("direction neighbor's grass"))
        return direction(walker, [])

    def patch_value(self, engine, px, py, value):
        engine.image.vals[engine.patch_bases[py * 3 + px]] = value

    def test_points_to_richest_neighbor_center(self):
        engine, walker = self.grid_engine()
        self.patch_value(engine, 2, 2, 5.0)
        assert self.heading(engine, walker) == pytest.approx(math.atan2(1000.0, 1000.0))

    def test_own_patch_when_strictly_richest(self):
        engine, walker = self.grid_engine()
        self.patch_value(engine, 1, 1, 5.0)
        assert self.heading(engine, walker) == 0.0

    def test_ties_take_scan_order(self):
        engine, walker = self.grid_engine()
        # All equal: the first scanned neighbor (upper-left) wins.
        assert self.heading(engine, walker) == pytest.approx(
            math.atan2(500.0 - 1500.0, 500.0 - 1500.0)
        )

    def test_edge_clipping(self):
        engine, walker = self.grid_engine()
        engine.image.vals[walker] = 100.0
        engine.image.vals[walker + 1] = 100.0
        self.patch_value(engine, 1, 0, 5.0)
        assert self.heading(engine, walker) == pytest.approx(
            math.atan2(500.0 - 100.0, 1500.0 - 100.0)
        )


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
