"""Abort and ``ConfigError`` texts pinned to recorded values.

Every runtime abort the compiled model can raise is listed here with the
exact text ``remodyc run`` prints for it (``RuntimeAbort.render()``) and
the number of frames the backend holds afterwards.  Every name the
engine cannot resolve is listed with the exact ``ConfigError`` text.
They were recorded before the compiler was rewritten to generate Python
source and must not move under a change of how tasks are compiled.
"""
from __future__ import annotations

import pytest

from remodyc.interp import ConfigError, Engine, RuntimeAbort, parse_config
from remodyc.memory import InMemoryBackend
from remodyc.parser import parse_model
from remodyc.typecheck import check_model

CONFIG = """\
delta_time = 1 day
steps = 4
seed = 11
world_width = 2 km
world_height = 2 km
patch_size = 1 km
populate 2 Egg
"""


def egg(attribute: str, body: str, where: str = "") -> str:
    """One Egg stage with one attribute and one task ``f``; the task's
    first line is line 4."""
    tail = f"\nwhere\n    {where}.\n" if where else ".\n"
    return f"Egg is G with\n    {attribute}.\nto f is\n    {body}{tail}Egg f.\n"


def build(model: str) -> tuple[Engine, InMemoryBackend]:
    backend = InMemoryBackend()
    return Engine(parse_model(model), parse_config(CONFIG), backend), backend


# model, the text ``render()`` gives, frames committed before the abort
ABORTS = {
    "division-by-zero": (
        egg("age [day]", "my age' = (1 [day] * 1 [day]) / my age"),
        "division by zero (tick 2, Egg, line 4)",
        1,
    ),
    "ln-domain": (
        egg("w []", "my w' = ln(my w)"),
        "ln: math domain error (tick 2, Egg, line 4)",
        1,
    ),
    "sqrt-domain": (
        egg("w []", "my w' = sqrt(my w - 1)"),
        "sqrt: math domain error (tick 2, Egg, line 4)",
        1,
    ),
    "exp-overflow": (
        egg("w [] = 1 []", "my w' = exp(my w * 1000)"),
        "exp: math range error (tick 2, Egg, line 4)",
        1,
    ),
    "pow-overflow": (
        egg("w []", "my w' = (my w + 10) ^ 400"),
        "math range error (tick 2, Egg, line 4)",
        1,
    ),
    "floor-of-inf": (
        egg("w [] = 1 []", "my w' = floor(my w * 1e200 * 1e200)"),
        "floor: cannot convert float infinity to integer (tick 2, Egg, line 4)",
        1,
    ),
    "ceiling-of-nan": (
        egg("w [] = 1 []", "my w' = ceiling(my w * 1e200 * 1e200 - my w * 1e200 * 1e200)"),
        "ceiling: cannot convert float NaN to integer (tick 2, Egg, line 4)",
        1,
    ),
    "uniform-inverted": (
        egg("age [day]", "my delta age' = uniform 1 [day] to 0 [day]"),
        "uniform bounds must satisfy low <= high (tick 2, Egg, line 4)",
        1,
    ),
    "normal-negative-sigma": (
        egg("w []", "my w' = normal(my w, my w - 1)"),
        "normal sigma must be non-negative (tick 2, Egg, line 4)",
        1,
    ),
    "gamma-zero-shape": (
        egg("w []", "my w' = gamma(my w, 1)"),
        "gamma shape must be positive (tick 2, Egg, line 4)",
        1,
    ),
    "loglogistic-overflow": (
        egg("w []", "my w' = loglogistic(1, 0.001)"),
        "loglogistic draw overflows: shape 0.001 is too small (tick 3, Egg, line 4)",
        2,
    ),
    "constant-fold-failure": (
        egg("age [day]", "my delta age' = ln(0 - 1) * delta time"),
        "ln: math domain error (tick 2, Egg, line 4)",
        1,
    ),
    "spawn-negative": (
        egg("age [day]", "my spawn Egg' = -1"),
        "spawn count -1.0 out of range (tick 2, Egg, line 4)",
        1,
    ),
    "spawn-nan": (
        egg("age [day]", "my spawn Egg' = exp(700) * exp(700) - exp(700) * exp(700)"),
        "spawn count nan out of range (tick 2, Egg, line 4)",
        1,
    ),
    "spawn-inf-in-utility": (
        egg("w [] = 1 []", "my spawn Egg' = n when my w > 0", "n = my w * 1e200 * 1e200"),
        "spawn count inf out of range (tick 2, Egg, line 4)",
        1,
    ),
    "non-finite-assign": (
        egg("w [] = 1 []", "my w' = my w * 1e200"),
        "non-finite value inf for 'w' (tick 3, Egg, line 4)",
        2,
    ),
    "non-finite-delta": (
        egg("w [] = 1 []", "my delta w' = my w * 1e200"),
        "non-finite value inf for 'w' (tick 3, Egg, line 4)",
        2,
    ),
    "non-finite-differential": (
        egg("w [] = 1 []", "my d/dt w' = my w * 1e200 [day^-1]"),
        "non-finite value inf for 'w' (tick 3, Egg, line 4)",
        2,
    ),
    # A second delta, and an assignment after a delta, that overflow the
    # sum: the same texts as when every write went through the image's
    # methods.
    "non-finite-second-delta": (
        egg("w [] = 1 []", "my delta w' = 1e308\n    my delta w' = 1e308"),
        "non-finite value inf for 'w' (tick 2, Egg, line 5)",
        1,
    ),
    "non-finite-assign-after-delta": (
        egg("w [] = 1 []", "my delta w' = 1e308\n    my w' = 1e308"),
        "non-finite value inf for 'w' (tick 2, Egg, line 5)",
        1,
    ),
    "utility-cycle": (
        egg("age [day]", "my age' = twist", "twist = tangle + 1 [day]\n    tangle = twist"),
        "utility 'twist' depends on itself (tick 2, Egg, line 7)",
        1,
    ),
    "utility-self-reference": (
        egg("age [day]", "my age' = twist", "twist = twist + 1 [day]"),
        "utility 'twist' depends on itself (tick 2, Egg, line 6)",
        1,
    ),
    "utility-cycle-in-guarded-count": (
        egg(
            "w [] = 1 []",
            "my spawn Egg' = n when my w > 0",
            "n = m + 1\n    m = n",
        ),
        "utility 'n' depends on itself (tick 2, Egg, line 7)",
        1,
    ),
}


@pytest.mark.parametrize("model, message, frames", ABORTS.values(), ids=ABORTS)
def test_abort_text_and_frames_kept(model, message, frames):
    engine, backend = build(model)
    with pytest.raises(RuntimeAbort) as err:
        engine.run()
    assert err.value.render() == message
    assert backend.frame_count() == frames


# By abort, the index of the Egg that fails and the attribute its failing
# definition targets, None for a lifecycle directive.  Every Egg fails
# alike but for the draw that overflows, which the second Egg draws first.
FAILED = {
    "division-by-zero": (1, "age"), "ln-domain": (1, "w"), "sqrt-domain": (1, "w"),
    "exp-overflow": (1, "w"), "pow-overflow": (1, "w"), "floor-of-inf": (1, "w"),
    "ceiling-of-nan": (1, "w"), "uniform-inverted": (1, "age"),
    "normal-negative-sigma": (1, "w"), "gamma-zero-shape": (1, "w"),
    "loglogistic-overflow": (2, "w"), "constant-fold-failure": (1, "age"),
    "spawn-negative": (1, None), "spawn-nan": (1, None), "spawn-inf-in-utility": (1, None),
    "non-finite-assign": (1, "w"), "non-finite-delta": (1, "w"),
    "non-finite-differential": (1, "w"), "non-finite-second-delta": (1, "w"),
    "non-finite-assign-after-delta": (1, "w"), "utility-cycle": (1, "age"),
    "utility-self-reference": (1, "age"), "utility-cycle-in-guarded-count": (1, None),
}


@pytest.mark.parametrize("name", ABORTS)
def test_abort_names_the_performer_and_attribute(name):
    engine, _ = build(ABORTS[name][0])
    with pytest.raises(RuntimeAbort) as err:
        engine.run()
    index, attribute = FAILED[name]
    base = engine.image.performers["Egg"][index - 1]
    assert (err.value.base, err.value.index, err.value.attribute) == (base, index, attribute)


# An abort of each kind, and a ``w`` for the first Egg that keeps it from
# failing, so that only the second one does.
SPARED = {
    "write": ("non-finite-assign", 0.0),
    "failing-call": ("ln-domain", 1.0),
    "draw": ("normal-negative-sigma", 2.0),
    "spawn-count": ("spawn-inf-in-utility", 0.0),
}


@pytest.mark.parametrize("name, value", SPARED.values(), ids=SPARED)
def test_abort_names_the_animat_that_failed(name, value):
    model, message, _ = ABORTS[name]
    engine, _ = build(model)
    engine.setup()
    first, second = engine.image.performers["Egg"]
    engine.image.vals[first + engine.slots["Egg"]["w"]] = value
    with pytest.raises(RuntimeAbort) as err:
        for _ in range(4):
            engine.step()
    assert err.value.render() == message
    assert (err.value.base, err.value.index, err.value.attribute) == (second, 2, FAILED[name][1])


# model, the ``ConfigError`` text ``Engine()`` raises
UNRESOLVED = {
    "unknown-attribute": (
        egg("age [day]", "my age' = my size"),
        "line 4: Egg has no attribute 'size'",
    ),
    "here-without-patch": (
        egg("age [day]", "my age' = here's grass * 1 [day/kg]"),
        "line 4: the model declares no Patch",
    ),
    "world-without-world": (
        egg("age [day]", "my age' = world's clock"),
        "line 4: the model declares no World",
    ),
    "unknown-world-attribute": (
        "World with\n    t [].\n" + egg("age [day]", "world's u' = 1"),
        "line 6: World has no attribute 'u'",
    ),
    "unknown-patch-attribute": (
        "Patch with\n    grass [kg].\n" + egg("age [day]", "my age' = here's hay"),
        "line 6: Patch has no attribute 'hay'",
    ),
    "here-from-world": (
        "World with\n    t [].\nPatch with\n    grass [kg].\n"
        "to f is\n    my t' = here's grass.\nWorld f.\n",
        "line 6: World has no attribute 'x'",
    ),
    "unknown-utility": (
        egg("age [day]", "my age' = later"),
        "line 4: unknown utility 'later'",
    ),
    "unknown-function": (
        egg("w []", "my w' = cosh(my w)"),
        "line 4: no 'cosh' of 1 operand(s)",
    ),
    "unknown-stage": (
        egg("age [day]", "my become Larva when my age > 1 [day]"),
        "line 4: unknown stage 'Larva'",
    ),
    "unknown-spawn-stage": (
        egg("age [day]", "my spawn Larva' = 1"),
        "line 4: unknown stage 'Larva'",
    ),
    "lifecycle-on-patch": (
        "Patch with\n    grass [kg].\nto f is\n    my die when my grass < 1 [kg].\nPatch f.\n",
        "line 4: lifecycle directives need a stage performer",
    ),
    "unbound-placeholder": (
        egg("age [day]", "my age' = the limit"),
        "line 4: placeholder 'limit' is not bound",
    ),
    "unknown-agent": (
        egg("age [day]", "my age' = 1 [day]").replace("Egg f.", "Larva f."),
        "line 5: task names unknown agent 'Larva'",
    ),
    "unknown-action": (
        egg("age [day]", "my age' = 1 [day]").replace("Egg f.", "Egg g."),
        "line 5: task names unknown action 'g'",
    ),
    "utility-in-binding": (
        egg("age [day]", "my age' = the step", "hidden = 2 [day]").replace(
            "Egg f.", "Egg f where the step -> hidden."
        ),
        "line 7: unknown utility 'hidden'",
    ),
}


@pytest.mark.parametrize("model, message", UNRESOLVED.values(), ids=UNRESOLVED)
def test_unresolved_name_text(model, message):
    with pytest.raises(ConfigError) as err:
        build(model)
    assert str(err.value) == message


def test_unknown_populate_stage_text():
    model = parse_model(egg("age [day]", "my age' = 1 [day]"))
    config = parse_config(CONFIG + "populate 1 Larva\n")
    with pytest.raises(ConfigError) as err:
        Engine(model, config, InMemoryBackend())
    assert str(err.value) == "populate names unknown stage 'Larva'"


def test_non_finite_initializer_text():
    """``Engine()`` refuses what ``check_model`` refuses, with its text."""
    model = parse_model(egg("energy [kg] = 1e400 [kg]", "my energy' = 1 [kg]"))
    with pytest.raises(ConfigError) as err:
        Engine(model, parse_config(CONFIG), InMemoryBackend())
    assert str(err.value) == "line 2: initializer of 'energy' is not finite"
    [diagnostic] = check_model(model)
    assert f"line {diagnostic.pos.line}: {diagnostic.message}" == str(err.value)


def test_setup_over_the_ceiling_text():
    """``check_model`` counts every block ``Engine.setup`` would allocate,
    and ``Engine.setup`` itself still aborts."""
    model = parse_model("Patch with\n    grass [kg].\n" + egg("age [day]", "my age' = 1 [day]"))
    config = parse_config(CONFIG.replace("populate 2 Egg", "populate 999997 Egg"))
    message = "setup needs 1000001 animats, over the ceiling of 1000000"
    assert [d.render("m.rmd") for d in check_model(model, config)] == [f"m.rmd: error: {message}"]
    backend = InMemoryBackend()
    with pytest.raises(RuntimeAbort) as err:
        Engine(model, config, backend).setup()
    assert err.value.render() == f"{message} (tick 1)"
    assert backend.frame_count() == 0


# extent and patch settings, the diagnostic ``check_model`` gives: a Patch
# grid over the animat ceiling is refused before a run, not aborted in it.
GRIDS = {
    "just-past": (
        "world_width = 1001 m\nworld_height = 1000 m\npatch_size = 1 m",
        "the world is 1001 by 1000 patches, over the ceiling of 1000000 animats",
    ),
    "tiny-patches": (
        "world_width = 2 km\nworld_height = 2 km\npatch_size = 1e-300 km",
        "the world is 1.9999999999999998e+300 by 1.9999999999999998e+300 patches, "
        "over the ceiling of 1000000 animats",
    ),
}


@pytest.mark.parametrize("grid, message", GRIDS.values(), ids=GRIDS)
def test_patch_grid_over_the_ceiling_text(grid, message):
    model = parse_model("Patch with\n    grass [kg].\n" + egg("age [day]", "my age' = 1 [day]"))
    config = parse_config(
        CONFIG.replace("world_width = 2 km\nworld_height = 2 km\npatch_size = 1 km", grid)
    )
    assert [d.render("m.rmd") for d in check_model(model, config)] == [f"m.rmd: error: {message}"]
