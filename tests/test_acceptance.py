"""End-to-end acceptance checks, one test per shipped guarantee.

Tolerances and runtime bounds are pinned as literals so a ``pytest -v``
run reads as one verdict line per numbered criterion.
"""
from __future__ import annotations

import math
import random
import time
from pathlib import Path

import pytest

from modelgen import generate_model
from remodyc import cli
from remodyc.interp import Engine, parse_config
from remodyc.memory import FileBackend, InMemoryBackend, MemoryImage
from remodyc.parser import parse_expression, parse_model, pretty_print
from remodyc.rng import (
    draws_between,
    parse_state,
    sample_gamma,
    sample_loglogistic,
    sample_normal,
    sample_uniform,
    seed_state,
)
from remodyc.typecheck import Scope, TypeCheckError, infer_type
from remodyc.units import (
    DIMENSIONLESS,
    SIBaseUnit,
    Unit,
    div_units,
    format_unit,
    mul_units,
    parse_unit,
)

MODELS = Path(__file__).resolve().parent.parent / "models"

TRACE_FILES = ("frames.csv", "animats.csv", "rng.csv")


def run_cli(*args) -> int:
    return cli.main([str(a) for a in args])


def assert_identical_runs(first: Path, second: Path) -> None:
    for name in TRACE_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_criterion_01_unit_inference_fidelity():
    """km over h infers m/s at scale 1000/3600; km plus h is rejected."""
    start = time.perf_counter()
    quotient = infer_type(parse_expression("10 [km] / 3 [h]"), Scope())
    assert quotient.dimension == parse_unit("m/s").dimension
    assert abs(quotient.scale - 1000.0 / 3600.0) <= 1e-12
    with pytest.raises(TypeCheckError):
        infer_type(parse_expression("10 [km] + 3 [h]"), Scope())
    assert time.perf_counter() - start < 1.0


def _random_unit(rng: random.Random) -> Unit:
    bases = rng.sample(list(SIBaseUnit), rng.randint(0, 3))
    exponents = [rng.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)) for _ in bases]
    dimension = tuple(sorted(zip(bases, exponents), key=lambda pair: pair[0]))
    return Unit(dimension, 10.0 ** rng.uniform(-6.0, 6.0))


def test_criterion_02_unit_algebra_properties():
    """1000 random units: commutative/associative product, self-division,
    and dimension-preserving reparse of the canonical rendering."""
    start = time.perf_counter()
    rng = random.Random(20240)
    units = [_random_unit(rng) for _ in range(1000)]
    for i, a in enumerate(units):
        b = units[(i + 1) % len(units)]
        c = units[(i + 2) % len(units)]
        assert mul_units(a, b) == mul_units(b, a)
        left = mul_units(mul_units(a, b), c)
        right = mul_units(a, mul_units(b, c))
        assert left.dimension == right.dimension
        assert math.isclose(left.scale, right.scale, rel_tol=1e-12)
        assert div_units(a, a) == DIMENSIONLESS
        assert parse_unit(format_unit(a)[1:-1]).dimension == a.dimension
    assert time.perf_counter() - start < 5.0


def test_criterion_03_memory_matches_oracle():
    """A plain-dict reimplementation of the commit rule agrees with the
    image over 200 random write/delta/read/store/load sequences."""
    for seed in range(200):
        _run_memory_sequence(random.Random(seed))


def _run_memory_sequence(rng: random.Random) -> None:
    image = MemoryImage()
    backend = InMemoryBackend()
    base = image.allocate("A", 5)
    committed = {a: 0.0 for a in range(base, base + 5)}
    block = None
    if rng.random() < 0.6:
        block = image.allocate("B", 3)
        committed.update({a: 0.0 for a in range(block, block + 3)})
    staged = dict(committed)
    deltas = {a: 0.0 for a in committed}
    dead: set[int] = set()
    snapshots: dict[int, dict[int, float]] = {}
    tick = 0
    replayed = False
    for _ in range(30):
        op = rng.randrange(12)
        if op < 3:
            address = rng.choice(sorted(staged))
            value = rng.uniform(-8.0, 8.0)
            image.write(address, value)
            staged[address] = value
        elif op < 6:
            address = rng.choice(sorted(staged))
            value = rng.uniform(-8.0, 8.0)
            image.write_delta(address, value)
            deltas[address] += value
        elif op < 8:
            address = rng.choice(sorted(committed))
            assert image.read(address) == committed[address]
        elif op == 8:
            if block is not None and block in staged:
                image.kill(block)
                dead.update(range(block, block + 3))
        elif op < 11:
            if replayed:
                continue
            tick += 1
            frame = image.store(backend, rng_state=tick * 977)
            committed = {a: staged[a] + deltas[a] for a in staged if a not in dead}
            assert frame.values == committed
            staged = dict(committed)
            deltas = {a: 0.0 for a in committed}
            dead = set()
            snapshots[tick] = dict(committed)
        elif snapshots:
            target = rng.choice(sorted(snapshots))
            image.load(backend, target)
            replayed = True
            committed = dict(snapshots[target])
            staged = dict(committed)
            deltas = {a: 0.0 for a in committed}
            dead = set()
    for address, value in committed.items():
        assert image.read(address) == value


def test_criterion_04_differential_equals_delta_rewrite(tmp_path):
    """The d/dt movement action and its delta-times-Dt rewrite leave
    byte-identical traces over 50 ticks."""
    start = time.perf_counter()
    first = tmp_path / "differential"
    second = tmp_path / "delta"
    assert run_cli("run", MODELS / "move.rmd", MODELS / "move.cfg", "--out", first) == 0
    assert run_cli("run", MODELS / "move_delta.rmd", MODELS / "move.cfg", "--out", second) == 0
    assert_identical_runs(first, second)
    assert time.perf_counter() - start < 5.0


def test_criterion_05_deterministic_reference_run(tmp_path):
    """The 10x10-patch, 20-egg, 10-adult, 200-tick reference run is
    byte-for-byte reproducible under seed 42."""
    start = time.perf_counter()
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli("run", MODELS / "eggs.rmd", MODELS / "eggs.cfg", "--out", first) == 0
    assert run_cli("run", MODELS / "eggs.rmd", MODELS / "eggs.cfg", "--out", second) == 0
    assert_identical_runs(first, second)
    assert time.perf_counter() - start < 30.0


REPLAY_CONFIG = (
    "delta_time = 1 day\n"
    "steps = 99\n"
    "seed = 11\n"
    "world_width = 4 km\n"
    "world_height = 4 km\n"
    "patch_size = 1 km\n"
    "populate 5 Egg\n"
    "populate 3 Adult\n"
)


def test_criterion_06_replay_and_resume(tmp_path):
    """After a 100-frame run every frame loads back exactly, and a fresh
    engine resumed from frame 1 rewrites frames 2..100 byte-identically."""
    start = time.perf_counter()
    model = parse_model((MODELS / "eggs.rmd").read_text())
    config = parse_config(REPLAY_CONFIG)
    first = FileBackend(tmp_path / "first")
    Engine(model, config, first).run()
    assert first.frame_count() == 100
    for tick in range(1, 101):
        image = MemoryImage()
        image.load(first, tick)
        frame = first.load_frame(tick)
        assert {a: image.read(a) for a in frame.values} == frame.values
        assert image.animats == frame.animats
    second = FileBackend(tmp_path / "second")
    second.append_frame(first.load_frame(1))
    replica = Engine(model, config, second)
    replica.resume(1)
    for _ in range(99):
        replica.step()
    assert_identical_runs(tmp_path / "first", tmp_path / "second")
    assert time.perf_counter() - start < 30.0


def test_criterion_07_memoized_utility_draw_count(tmp_path):
    """A uniform utility read three times per animat costs exactly one
    draw per animat per tick, counted back out of the rng.csv states."""
    out = tmp_path / "run"
    assert run_cli("run", MODELS / "memo.rmd", MODELS / "memo.cfg", "--out", out) == 0
    states: list[tuple[int, int]] = []
    with open(out / "rng.csv") as handle:
        next(handle)
        for line in handle:
            tick_text, hex_state = line.strip().split(",")
            states.append((int(tick_text), parse_state(hex_state)))
    census: dict[int, int] = {}
    with open(out / "animats.csv") as handle:
        next(handle)
        for line in handle:
            tick_text = line.split(",", 1)[0]
            census[int(tick_text)] = census.get(int(tick_text), 0) + 1
    seed = parse_config((MODELS / "memo.cfg").read_text()).seed
    assert draws_between(seed_state(seed), states[0][1]) == 2 * census[1]
    for (before_tick, before), (_tick, after) in zip(states, states[1:]):
        assert draws_between(before, after) == census[before_tick]


def test_criterion_08_hand_computed_age_trace(tmp_path):
    """One adult aging by delta time lands exactly on 0..4 days in SI
    seconds over five frames."""
    out = tmp_path / "run"
    assert run_cli("run", MODELS / "age.rmd", MODELS / "age.cfg", "--out", out) == 0
    with open(out / "animats.csv") as handle:
        next(handle)
        tick_text, base_text, stage, index = handle.readline().strip().split(",")
    assert (tick_text, stage, index) == ("1", "Adult", "1")
    age_address = int(base_text) + 2
    recorded: dict[int, str] = {}
    with open(out / "frames.csv") as handle:
        next(handle)
        for line in handle:
            frame_tick, address, value = line.strip().split(",")
            if int(address) == age_address:
                recorded[int(frame_tick)] = value
    assert recorded == {1: "0", 2: "86400", 3: "172800", 4: "259200", 5: "345600"}


CREEP_FORWARD = (
    "Adult is Goat with\n"
    "    age [day] = 0 [day].\n"
    "\n"
    "to creep is\n"
    "    my delta age' = 1.25 [day]\n"
    "    my delta age' = 2.5 [day].\n"
    "\n"
    "Adult creep.\n"
)

CREEP_REVERSED = (
    "Adult is Goat with\n"
    "    age [day] = 0 [day].\n"
    "\n"
    "to creep is\n"
    "    my delta age' = 2.5 [day]\n"
    "    my delta age' = 1.25 [day].\n"
    "\n"
    "Adult creep.\n"
)

CREEP_CONFIG = "delta_time = 1 day\nsteps = 6\nseed = 5\npopulate 3 Adult\n"


def test_criterion_09_delta_order_immaterial(tmp_path):
    """Two delta definitions with exactly representable contributions
    commute: swapping them leaves the whole trace unchanged."""
    config = tmp_path / "creep.cfg"
    config.write_text(CREEP_CONFIG)
    runs = []
    for label, source in (("forward", CREEP_FORWARD), ("reversed", CREEP_REVERSED)):
        model = tmp_path / f"{label}.rmd"
        model.write_text(source)
        out = tmp_path / label
        assert run_cli("run", model, config, "--out", out) == 0
        runs.append(out)
    assert_identical_runs(*runs)


CYCLIC_MODEL = (
    "Egg is Grasshopper with\n"
    "    age [day] = 0 [day].\n"
    "\n"
    "to spin is\n"
    "    my age' = twist\n"
    "where\n"
    "    twist = tangle + 1 [day]\n"
    "    tangle = twist - 1 [day].\n"
    "\n"
    "Egg spin.\n"
)

DIVIDING_MODEL = (
    "Egg is Grasshopper with\n"
    "    fuel [] = 3 []\n"
    "    spark [] = 0 [].\n"
    "\n"
    "to burn is\n"
    "    my fuel' = my fuel - 1\n"
    "    my spark' = 1 / my fuel.\n"
    "\n"
    "Egg burn.\n"
)

SHORT_CONFIG = "delta_time = 1 day\nsteps = 10\nseed = 2\npopulate 1 Egg\n"


def test_criterion_10_static_rejection_and_abort(tmp_path):
    """Cyclic utilities never start a run; dividing by zero stops one
    with exit code 3 and keeps every frame completed before the fault."""
    config = tmp_path / "short.cfg"
    config.write_text(SHORT_CONFIG)
    cyclic = tmp_path / "cyclic.rmd"
    cyclic.write_text(CYCLIC_MODEL)
    assert run_cli("check", cyclic) == 1
    blocked = tmp_path / "blocked"
    assert run_cli("run", cyclic, config, "--out", blocked) == 1
    assert not blocked.exists()
    dividing = tmp_path / "dividing.rmd"
    dividing.write_text(DIVIDING_MODEL)
    aborted = tmp_path / "aborted"
    assert run_cli("run", dividing, config, "--out", aborted) == 3
    lines = (aborted / "frames.csv").read_text().splitlines()[1:]
    assert {int(line.split(",", 1)[0]) for line in lines} == {1, 2, 3, 4}
    assert "abort=division by zero" in (aborted / "meta.txt").read_text()


def test_criterion_11_distribution_sanity():
    """Sampler moments at n = 100000: uniform mean 0.5 +- 0.01, normal
    mean 0 +- 0.02 and variance 1 +- 0.05, gamma(2, 3) mean 6 +- 0.2,
    loglogistic(2, 3) median 2 +- 0.05."""
    start = time.perf_counter()
    n = 100_000

    state = seed_state(60221)
    total = 0.0
    for _ in range(n):
        state, value = sample_uniform(state, 0.0, 1.0)
        total += value
    assert abs(total / n - 0.5) <= 0.01

    state = seed_state(60222)
    normals = []
    for _ in range(n):
        state, value = sample_normal(state, 0.0, 1.0)
        normals.append(value)
    mean = sum(normals) / n
    variance = sum((v - mean) ** 2 for v in normals) / n
    assert abs(mean) <= 0.02
    assert abs(variance - 1.0) <= 0.05

    state = seed_state(60223)
    total = 0.0
    for _ in range(n):
        state, value = sample_gamma(state, 2.0, 3.0)
        total += value
    assert abs(total / n - 6.0) <= 0.2

    state = seed_state(60224)
    ratios = []
    for _ in range(n):
        state, value = sample_loglogistic(state, 2.0, 3.0)
        ratios.append(value)
    ratios.sort()
    median = (ratios[n // 2 - 1] + ratios[n // 2]) / 2.0
    assert abs(median - 2.0) <= 0.05

    assert time.perf_counter() - start < 10.0


def test_criterion_12_printer_round_trip():
    """Printing then reparsing is a fixed point for every bundled model
    and for 500 generated ones."""
    start = time.perf_counter()
    fixtures = sorted(MODELS.glob("*.rmd"))
    assert fixtures
    for path in fixtures:
        _assert_round_trip(parse_model(path.read_text()))
    for seed in range(500):
        _assert_round_trip(generate_model(seed))
    assert time.perf_counter() - start < 10.0


def _assert_round_trip(model) -> None:
    text = pretty_print(model)
    reparsed = parse_model(text)
    assert reparsed == model
    assert pretty_print(reparsed) == text
