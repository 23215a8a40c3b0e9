"""Trace bytes pinned to recorded digests.

Criterion 5 compares two runs of the same code with each other; these
digests also catch a change that alters the trace in a deterministic way.
They were recorded before the engine was restructured and must not move
under a refactor: a change here is a change of semantics.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from remodyc import cli

MODELS = Path(__file__).resolve().parent.parent / "models"

TRACE_FILES = ("frames.csv", "animats.csv", "rng.csv")

# A short eggs run on 3x3 patches in which eggs hatch (become), adults
# starve (die) and adults lay eggs (spawn).
EGGS_SHORT_CONFIG = """\
delta_time = 1 day
steps = 30
seed = 5
world_width = 3 km
world_height = 3 km
patch_size = 1 km
populate 4 Egg
populate 8 Adult
"""

# Every expression node (all operators and functions, the four
# distributions, both casts, world's, here's, direction, chained
# utilities), a guard with each relation, and die, become and spawn.
COVERAGE_MODEL = """\
World with
    clock [day] = 0 [day]
    warmth [] = 1 [].

Patch with
    grass [kg] = 2 [kg].

Larva is Bug with
    age [day] = 0 [day]
    mass [kg] = 0.5 [kg]
    heading [rad].

Imago is Bug with
    age [day] = 0 [day]
    mass [kg] = 1 [kg]
    heading [rad]
    trig []
    rounded [].

to tick is
    my delta clock' = delta time
    my warmth' = 1 + sin(my clock in [day] as [rad]) / 2.

to grow is
    my grass' = min(my grass + 0.25 [kg/day] * delta time, 4 [kg]).

to feed is
    my delta age' = delta time
    my d/dt mass' = gain
    here's delta grass' = -(gain * delta time)
    my heading' = direction neighbor's grass
    my become Imago when my age >= 3 [day]
    my die when my mass <= 0.1 [kg]
where
    bite = max(0 [kg], here's grass / 4)
    gain = bite * world's warmth / 2 [day].

to fly is
    my delta age' = delta time
    my d/dt x' = cos(my heading) * speed
    my d/dt y' = sin(my heading) * speed
    my heading' = my heading + normal(0 [rad], 0.5 [rad])
    my trig' = tan(my heading / 8) + exp(-(my mass in [kg])) + ln(1 + abs(my mass in [g])) + log(10 + (my age in [day]))
    my rounded' = floor(my age in [h]) - ceiling(sqrt(my mass * my mass) in [kg]) + (my mass in [kg]) ^ 2 + 2 ^ 3
    my delta mass' = -(brood * 0.15 [kg]) - 0.05 [kg/day] * delta time
    my spawn Larva' = brood when my mass > 0.6 [kg]
    my die when my age > 12 [day]
    my die when my mass < 0.3 [kg]
where
    speed = uniform 0 [km/day] to 0.3 [km/day]
    brood = floor(gamma(2, 0.5) + loglogistic(1, 3)).

World tick.
Patch grow.
Larva feed.
Imago fly.
"""

COVERAGE_CONFIG = """\
delta_time = 1 day
steps = 20
seed = 13
world_width = 3 km
world_height = 3 km
patch_size = 1 km
populate 6 Larva
populate 4 Imago
"""

GOLDEN = {
    "age": {
        "frames.csv": "eb91f95de53eb53de9270da7c0e7319f33873e548c6aa7e8a9934c68ec3c0da5",
        "animats.csv": "5a703726218a9b788c158da77560f4413916e6aba453a058dd2f73a327a4ac17",
        "rng.csv": "ea445c08a996124ec90c117251d0456d3644b6507acbf1cf2521d09a82a05e73",
    },
    "move": {
        "frames.csv": "d06c956effa49a3b1532f964c2a533b9d38ee5ba5732650f5a29dc3162083b34",
        "animats.csv": "2df7a80331c30f7bfcedcfccd6048f2fe864501fa669add9b61a1cc7495630ef",
        "rng.csv": "a395de3471439f7294675b568112badb6e08133d0923e0b27ba988c1a0759509",
    },
    "move_delta": {
        "frames.csv": "d06c956effa49a3b1532f964c2a533b9d38ee5ba5732650f5a29dc3162083b34",
        "animats.csv": "2df7a80331c30f7bfcedcfccd6048f2fe864501fa669add9b61a1cc7495630ef",
        "rng.csv": "a395de3471439f7294675b568112badb6e08133d0923e0b27ba988c1a0759509",
    },
    "memo": {
        "frames.csv": "b4da3a749d709739217afd26dc6a4fe5c0f717f9b734badbf8914e242b976a1c",
        "animats.csv": "e93f4240ef50f3a84c9911e7e327e5b93a951778464eddd48659a8e00456cf7f",
        "rng.csv": "2266a6086e7ccd7aafe6616453fb0157c812a665af63f7ec4e2ec3e5f2a9df99",
    },
    "eggs_short": {
        "frames.csv": "88583b000e4a0bebad86f6ae5996e34a6f5945d7805795ee202bc1d1322e847e",
        "animats.csv": "c545eefeaabfc0dca7683413c842b023e5f7a33d464a26e962285d82f65da5c5",
        "rng.csv": "21b5998e1e9dc74c79c420d3294b94fdd34a9b13bf7874fd372a5f62f0e6b60a",
    },
    "coverage": {
        "frames.csv": "485584450343c4aebfe3c3fe613906d531b8514567a012efd5feb176f84654ef",
        "animats.csv": "bb300e9aff56f106038e7dd091bd05af06035218694f4ad56bf39d8eff7d7475",
        "rng.csv": "3ca5eb93b572950a70428bb60017fc173894420c4f116da8eb92538b9cccf55b",
    },
}


def _run(model: Path, config: Path, out: Path) -> dict[str, str]:
    assert cli.main(["run", str(model), str(config), "--out", str(out)]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in TRACE_FILES
    }


@pytest.mark.parametrize("name", ["age", "move", "memo", "move_delta"])
def test_repo_model_trace_digests(tmp_path, name):
    # move_delta.rmd is move.rmd with the time step written out by hand.
    config = MODELS / f"{name.removesuffix('_delta')}.cfg"
    digests = _run(MODELS / f"{name}.rmd", config, tmp_path / "run")
    assert digests == GOLDEN[name]


def _lifecycle_events(animats_csv: Path) -> set[str]:
    """Events visible between consecutive ticks of ``animats.csv``: an egg
    leaving is a hatch, an adult leaving is a death, a new egg is a birth."""
    ticks: dict[int, dict[int, str]] = {}
    for line in animats_csv.read_text().splitlines()[1:]:
        tick, base, stage, _ = line.split(",")
        ticks.setdefault(int(tick), {})[int(base)] = stage
    events = set()
    for tick in sorted(ticks)[1:]:
        before, after = ticks[tick - 1], ticks[tick]
        for base, stage in before.items():
            if after.get(base) != stage:
                events.add("become" if stage == "Egg" else "die")
        for base, stage in after.items():
            if stage == "Egg" and before.get(base) != "Egg":
                events.add("spawn")
    return events


def test_eggs_lifecycle_trace_digests(tmp_path):
    config = tmp_path / "short.cfg"
    config.write_text(EGGS_SHORT_CONFIG)
    out = tmp_path / "run"
    digests = _run(MODELS / "eggs.rmd", config, out)
    assert _lifecycle_events(out / "animats.csv") == {"become", "die", "spawn"}
    assert digests == GOLDEN["eggs_short"]


def test_coverage_model_trace_digests(tmp_path):
    (tmp_path / "coverage.rmd").write_text(COVERAGE_MODEL)
    (tmp_path / "coverage.cfg").write_text(COVERAGE_CONFIG)
    out = tmp_path / "run"
    digests = _run(tmp_path / "coverage.rmd", tmp_path / "coverage.cfg", out)
    assert digests == GOLDEN["coverage"]
