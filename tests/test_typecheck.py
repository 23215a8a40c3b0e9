"""Unit inference and model checking."""
import math
from pathlib import Path

import pytest

import remodyc.ast as ast
from remodyc import interp, typecheck
from remodyc.parser import parse_expression, parse_model
from remodyc.typecheck import (
    RADIANS,
    SECONDS,
    Scope,
    TypeCheckError,
    check_model,
    errors_only,
    infer_type,
)
from remodyc.units import DIMENSIONLESS, SIBaseUnit, parse_unit, same_dimension

M = SIBaseUnit.M
S = SIBaseUnit.S
KG = SIBaseUnit.KG


def infer(text, scope=None):
    return infer_type(parse_expression(text), scope or Scope())


def reject(text, scope=None, match=None):
    with pytest.raises(TypeCheckError, match=match) as err:
        infer(text, scope)
    return err.value


def reject_dimensionless(text, operand_unit, match):
    """``text`` is rejected because an operand of unit ``operand_unit``
    is not dimensionless."""
    err = reject(text, match=match)
    assert err.expected == DIMENSIONLESS
    assert err.actual == parse_unit(operand_unit)
    return err


class TestLiteralArithmetic:
    def test_speed_quotient(self):
        unit = infer("10 [km] / 3 [h]")
        assert unit.dimension == ((M, 1), (S, -1))
        assert math.isclose(unit.scale, 1000.0 / 3600.0, rel_tol=1e-12)

    def test_sum_of_unlike_dimensions_rejected(self):
        err = reject("10 [km] + 3 [h]")
        assert same_dimension(err.expected, parse_unit("m"))
        assert same_dimension(err.actual, parse_unit("s"))

    def test_sum_of_like_dimensions_takes_left_unit(self):
        assert infer("10 [km] + 3 [m]") == parse_unit("km")
        assert infer("1 [h] - 30 [min]") == parse_unit("h")

    def test_unary_minus_preserves(self):
        assert infer("-(3 [kg])") == parse_unit("kg")

    def test_product_combines_dimensions(self):
        assert infer("2 [m] * 3 [m]").dimension == ((M, 2),)
        assert infer("6 [m] / 2 [m]").dimension == ()

    def test_delta_time_is_seconds(self):
        assert infer("delta time") == SECONDS
        assert infer("1 [km/day] * delta time").dimension == ((M, 1),)


class TestExponents:
    def test_integer_literal_exponent(self):
        assert infer("(2 [m]) ^ 2").dimension == ((M, 2),)
        assert infer("(2 [m]) ^ -1").dimension == ((M, -1),)

    def test_dimensionless_base_any_dimensionless_exponent(self):
        assert infer("2 ^ 0.5") == DIMENSIONLESS
        assert infer("2 ^ (1 / 3)") == DIMENSIONLESS

    def test_dimensioned_base_needs_literal(self):
        reject("(2 [m]) ^ (1 + 1)", match="integer literal")
        reject("(2 [m]) ^ 0.5", match="integer literal")

    def test_dimensioned_exponent_rejected(self):
        reject_dimensionless("2 ^ 3 [s]", "s", match="exponents must be dimensionless")

    def test_overflow_reported_as_diagnostic(self):
        """At the position of the node whose unit overflows, reached from
        the root by the argument indices in ``path``."""
        for text, path in [
            ("(2 [m^30]) ^ 30", ()),
            ("2 [m^20] * 3 [m^20]", ()),
            ("1 / 2 [s^32] / 1 [s]", ()),
            ("(2 [m^20] * 3 [m^20]) / 1 [s]", (0,)),
            ("1 [m] + (1 [m^30]) ^ 2", (1,)),
        ]:
            node = parse_expression(text)
            for index in path:
                node = node.args[index]
            assert reject(text, match="exponent").pos == node.pos


class TestFunctions:
    def test_trig_wants_radians(self):
        assert infer("cos(1 [rad])") == DIMENSIONLESS
        assert infer("sin(90 [deg])") == DIMENSIONLESS
        err = reject("tan(1 [m])")
        assert same_dimension(err.expected, RADIANS)

    def test_log_family_dimensionless(self):
        assert infer("exp(1)") == DIMENSIONLESS
        assert infer("ln(2 [m] / 1 [m])") == DIMENSIONLESS
        reject_dimensionless("log(2 [kg])", "kg", match="'log' expects a dimensionless")
        reject_dimensionless("exp(1 [s])", "s", match="'exp' expects a dimensionless")
        reject_dimensionless("ln(1 [m])", "m", match="'ln' expects a dimensionless")

    def test_sqrt_halves_even_exponents(self):
        assert infer("sqrt(4 [m^2])").dimension == ((M, 1),)
        assert infer("sqrt(4)") == DIMENSIONLESS
        reject("sqrt(4 [m])", match="even exponents")

    def test_magnitude_functions_preserve(self):
        assert infer("abs(-2 [kg])") == parse_unit("kg")
        assert infer("floor(1.5 [h])") == parse_unit("h")
        assert infer("ceiling(1.5)") == DIMENSIONLESS

    def test_min_max_need_matching_dimensions(self):
        assert infer("min(1 [km], 500 [m])") == parse_unit("km")
        assert infer("max(1, 2)") == DIMENSIONLESS
        reject("min(1 [km], 500 [s])")

    def test_unknown_function(self):
        reject("sinh(1)", match="unknown function")

    def test_wrong_arity(self):
        reject("cos(1 [rad], 2 [rad])", match="argument")
        reject("min(1)", match="argument")


class TestDistributionsAndCasts:
    def test_uniform_takes_low_unit(self):
        assert infer("uniform 0 [km/day] to 0.5 [km/day]") == parse_unit("km/day")
        reject("uniform 0 [m] to 1 [s]")

    def test_normal(self):
        assert infer("normal(0 [kg], 1 [kg])") == parse_unit("kg")
        reject("normal(0 [kg], 1 [m])")

    def test_gamma_shape_dimensionless(self):
        assert infer("gamma(2, 3 [day])") == parse_unit("day")
        reject_dimensionless("gamma(2 [s], 3 [day])", "s", match="gamma shape")

    def test_loglogistic(self):
        assert infer("loglogistic(2 [h], 3)") == parse_unit("h")
        reject_dimensionless("loglogistic(2 [h], 3 [kg])", "kg", match="loglogistic shape")

    def test_en_unit_stamps(self):
        assert infer("2 as [kg]") == parse_unit("kg")
        reject_dimensionless("2 [m] as [kg]", "m", match="'as' expects a dimensionless")

    def test_de_unit_strips(self):
        assert infer("2 [km] in [m]") == DIMENSIONLESS
        reject("2 [km] in [s]")


AGENTS = """
World with
    tally [] = 0 [].

Patch with
    grass [kg] = 2 [kg].

Adult is Goat with
    age [day] = 0 [day]
    energy [kg] = 1 [kg].
"""


def model_scope(extra="", agent="Adult"):
    model = parse_model(AGENTS + extra)
    return model, Scope(model, model.agent_named(agent))


class TestScopeResolution:
    def test_performer_attribute(self):
        _, scope = model_scope()
        assert infer("my energy + 1 [kg]", scope) == parse_unit("kg")

    def test_implicit_position(self):
        _, scope = model_scope()
        assert infer("my x", scope).dimension == ((M, 1),)

    def test_world_and_patch_attributes(self):
        _, scope = model_scope()
        assert infer("world's tally", scope) == DIMENSIONLESS
        assert infer("here's grass", scope) == parse_unit("kg")

    def test_missing_attribute(self):
        _, scope = model_scope()
        reject("my wings", scope, match="no attribute")
        reject("here's wings", scope, match="no attribute")

    def test_bare_identifier_is_not_an_attribute(self):
        _, scope = model_scope()
        err = reject("energy", scope, match="unknown utility")
        assert "my energy" in err.message

    def test_here_unavailable_to_world(self):
        _, scope = model_scope(agent="World")
        reject("here's grass", scope, match="not available")

    def test_direction_needs_stage_performer(self):
        _, scope = model_scope()
        assert infer("direction neighbor's grass", scope) == RADIANS
        _, world_scope = model_scope(agent="World")
        reject("direction neighbor's grass", world_scope, match="position")

    def test_literal_only_scope_has_no_performer(self):
        reject("my energy", match="no performer")

    def test_placeholder_without_a_binding_is_unbound(self):
        reject("the x", match=r"^unbound placeholder 'x'$")


class TestUtilities:
    def u(self, name, text):
        return ast.UtilityDefinition(name, parse_expression(text))

    def test_dependency_order(self):
        _, scope = model_scope()
        scope.utilities = {
            "r": self.u("r", "half * 2 [m]"),
            "half": self.u("half", "0.5"),
        }
        assert infer("r", scope).dimension == ((M, 1),)

    def test_self_cycle(self):
        _, scope = model_scope()
        scope.utilities = {"r": self.u("r", "r + 1")}
        reject("r", scope, match="itself")

    def test_memoized_across_references(self):
        _, scope = model_scope()
        scope.utilities = {"r": self.u("r", "1 [m]")}
        assert infer("r + r", scope).dimension == ((M, 1),)


GOOD = AGENTS + """
to grow is
    my delta energy' = rate * delta time
    here's delta grass' = -(rate * delta time)
    my spawn Adult' = 1 when my energy >= 1.5 [kg]
    my die when my energy < 0.2 [kg]
where
    rate = 0.2 [kg/day].

to drift is
    my d/dt x' = cos(heading) * r
where
    heading = 0 [rad]
    r = the speed.

Adult grow.
Adult drift where the speed -> uniform 0 [km/day] to 0.5 [km/day].
"""


class TestCheckModel:
    def test_clean_model(self):
        assert check_model(parse_model(GOOD)) == []

    def test_renders_with_position(self):
        source = AGENTS + "to bad is\n    my energy' = 1 [s].\nAdult bad."
        (err,) = check_model(parse_model(source))
        text = err.render("model.rmd")
        assert text.startswith("model.rmd:")
        assert ": error: " in text
        assert "(expected [kg], got [s])" in text

    def test_assignment_dimension(self):
        source = AGENTS + "to bad is\n    my energy' = my age.\nAdult bad."
        (err,) = check_model(parse_model(source))
        assert same_dimension(err.expected, parse_unit("kg"))
        assert same_dimension(err.actual, parse_unit("s"))

    def test_differential_multiplies_by_time(self):
        ok = AGENTS + "to f is\n    my d/dt energy' = 0.1 [kg/day].\nAdult f."
        assert check_model(parse_model(ok)) == []
        bad = AGENTS + "to f is\n    my d/dt energy' = 0.1 [kg].\nAdult f."
        assert len(check_model(parse_model(bad))) == 1
        overflow = parse_model(AGENTS + "to f is\n    my d/dt energy' = 0.1 [s^32].\nAdult f.")
        (err,) = check_model(overflow)
        assert err.message == "exponent 33 on s exceeds |32|"
        assert err.pos == overflow.action_named("f").definitions[0].pos

    def test_all_errors_accumulated(self):
        source = AGENTS + (
            "to bad is\n    my energy' = 1 [s]\n    my age' = 2 [kg].\nAdult bad."
        )
        assert len(check_model(parse_model(source))) == 2

    def test_initializer_dimension(self):
        source = AGENTS.replace("energy [kg] = 1 [kg]", "energy [kg] = 1 [s]")
        (err,) = check_model(parse_model(source))
        assert "initializer" in err.message

    def test_initializer_finite(self):
        source = AGENTS.replace("energy [kg] = 1 [kg]", "energy [kg] = 1e400 [kg]")
        (err,) = check_model(parse_model(source))
        assert "is not finite" in err.message

    def test_spawn_count_dimensionless(self):
        source = AGENTS + "to f is\n    my spawn Adult' = 1 [kg].\nAdult f."
        (err,) = check_model(parse_model(source))
        assert "spawn count" in err.message
        assert err.expected == DIMENSIONLESS
        assert err.actual == parse_unit("kg")

    def test_unknown_stage_in_lifecycle(self):
        source = AGENTS + "to f is\n    my become Larva when my age >= 1 [day].\nAdult f."
        (err,) = check_model(parse_model(source))
        assert "unknown stage" in err.message
        patchy = AGENTS + "to f is\n    my spawn Patch' = 1.\nAdult f."
        (err,) = check_model(parse_model(patchy))
        assert "unknown stage" in err.message

    def test_guard_dimensions(self):
        source = AGENTS + "to f is\n    my die when my energy < 1 [day].\nAdult f."
        (err,) = check_model(parse_model(source))
        assert err.expected is not None

    def test_lifecycle_needs_stage(self):
        source = AGENTS + "to f is\n    my die when my grass < 1 [kg].\nPatch f."
        errs = check_model(parse_model(source))
        assert any("stage performer" in e.message for e in errs)

    def test_patch_task_without_lifecycle_is_fine(self):
        source = AGENTS + "to f is\n    my grass' = my grass + 1 [kg].\nPatch f."
        assert check_model(parse_model(source)) == []

    @pytest.mark.parametrize("definition, rendered", [
        ("my age' = world's clock", "m.rmd:4:15: error: the model declares no World"),
        ("my age' = here's grass", "m.rmd:4:15: error: the model declares no Patch"),
        ("my x' = direction neighbor's grass", "m.rmd:4:13: error: the model declares no Patch"),
    ])
    def test_world_and_patch_reads_need_their_declaration(self, definition, rendered):
        source = f"Adult is G with\n    age [day].\nto f is\n    {definition}.\nAdult f.\n"
        assert [d.render("m.rmd") for d in check_model(parse_model(source))] == [rendered]

    def test_unknown_agent_and_action(self):
        errs = check_model(parse_model(AGENTS + "to f is\n    my age' = my age.\nWolf f."))
        assert any("unknown agent" in e.message for e in errs)
        errs = check_model(parse_model(AGENTS + "Adult vanish."))
        assert any("unknown action" in e.message for e in errs)

    def test_missing_and_extra_bindings(self):
        action = "to f is\n    my age' = the step.\n"
        errs = check_model(parse_model(AGENTS + action + "Adult f."))
        assert any("missing binding" in e.message for e in errs)
        errs = check_model(
            parse_model(
                AGENTS + action + "Adult f where the step -> 1 [day] the also -> 2."
            )
        )
        assert any("does not match any placeholder" in e.message for e in errs)

    def test_binding_unit_flows_into_action(self):
        action = "to f is\n    my age' = the step.\n"
        good = AGENTS + action + "Adult f where the step -> 1 [day]."
        assert check_model(parse_model(good)) == []
        bad = AGENTS + action + "Adult f where the step -> 1 [kg]."
        assert len(check_model(parse_model(bad))) == 1

    def test_bindings_resolve_in_performer_scope(self):
        # A binding must not capture the action's own utilities.
        source = AGENTS + (
            "to f is\n    my age' = the step\nwhere\n    hidden = 1 [day].\n"
            "Adult f where the step -> hidden."
        )
        errs = check_model(parse_model(source))
        assert any("unknown utility 'hidden'" in e.message for e in errs)

    def test_utility_cycle_rejected(self):
        source = AGENTS + (
            "to f is\n    my age' = a\nwhere\n    a = b + 1 [day]\n    b = a * 2.\n"
            "Adult f."
        )
        errs = check_model(parse_model(source))
        assert any("cycle" in e.message for e in errs)

    def test_cycle_found_without_task(self):
        source = AGENTS + "to f is\n    my age' = a\nwhere\n    a = a + 1 [day]."
        errs = check_model(parse_model(source))
        assert any("cycle" in e.message for e in errs)

    def test_duplicate_assignment_warns(self):
        source = AGENTS + (
            "to f is\n    my energy' = 1 [kg].\n"
            "to g is\n    my energy' = 2 [kg].\n"
            "Adult f.\nAdult g."
        )
        diags = check_model(parse_model(source))
        assert errors_only(diags) == []
        (warning,) = diags
        assert warning.severity == "warning"
        assert "last write wins" in warning.message

    def test_deltas_to_one_target_do_not_warn(self):
        source = AGENTS + (
            "to f is\n    my delta energy' = 1 [kg].\n"
            "to g is\n    my delta energy' = 2 [kg].\n"
            "Adult f.\nAdult g."
        )
        assert check_model(parse_model(source)) == []


def test_function_table_agrees_with_the_interpreter():
    """Every builtin the checker accepts, the engine compiles, with the
    same number of operands, and the reverse."""
    words = {name: arity for name, arity in interp._CALLS if name.isalpha()}
    assert typecheck._ARITY == words


MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.mark.parametrize("name", sorted(p.stem for p in MODELS.glob("*.rmd")))
def test_repository_model_checks_clean_on_its_config(name):
    """No diagnostic at all, warnings included; move_delta.rmd checks on
    move.cfg."""
    config = interp.parse_config((MODELS / f"{name.removesuffix('_delta')}.cfg").read_text())
    model = parse_model((MODELS / f"{name}.rmd").read_text())
    assert [d.render(f"{name}.rmd") for d in check_model(model, config)] == []
