"""Structural helpers on the syntax tree."""
import dataclasses
import re
import typing

import pytest

from remodyc import ast, typecheck
from remodyc.parser import parse_expression, parse_model
from remodyc.units import parse_unit


EGG = ast.StageDefinition(
    "Egg",
    "Grasshopper",
    (ast.AttributeDeclaration("age", parse_unit("day"), ast.Literal(0.0, parse_unit("day"))),),
)


def test_size_of_agent_counts_implicit_position():
    # An instance takes one memory slot per attribute, its implicit x/y too.
    assert len(EGG.all_attributes) == 3
    assert len(ast.StageDefinition("S", "X", ()).all_attributes) == 2
    world = ast.WorldDefinition((ast.AttributeDeclaration("t", parse_unit("s")),))
    assert len(world.all_attributes) == 1
    assert len(ast.PatchDefinition(()).all_attributes) == 0


def test_stage_implicit_attributes_are_prepended():
    names = [a.identifier for a in EGG.all_attributes]
    assert names == ["x", "y", "age"]
    assert EGG.all_attributes[0].unit == parse_unit("m")


def test_world_and_patch_declare_only_their_attributes():
    world = ast.WorldDefinition((ast.AttributeDeclaration("t", parse_unit("s")),))
    assert world.all_attributes == world.attributes
    assert ast.PatchDefinition(()).all_attributes == ()


def test_children_are_the_operands_in_evaluation_order():
    for text, operands in (
        ("-(my age)", ["my age"]),
        ("my age ^ 2", ["my age", "2"]),
        ("min(1, my age)", ["1", "my age"]),
        ("uniform 0 to 1", ["0", "1"]),
        ("normal(0, 1)", ["0", "1"]),
        ("gamma(2, 3)", ["2", "3"]),
        ("loglogistic(2, 3)", ["2", "3"]),
        ("2 as [m]", ["2"]),
        ("(my age) in [day]", ["my age"]),
        ("3 [kg]", []),
        ("my age", []),
        ("delta time", []),
        ("direction neighbor's grass", []),
    ):
        expected = tuple(parse_expression(operand) for operand in operands)
        assert getattr(parse_expression(text), "args", ()) == expected, text


def test_expressions_hold_subexpressions_only_in_args():
    members = typing.get_args(ast.Expression)
    names = {"Expression"} | {member.__name__ for member in members}
    for member in members:
        for f in dataclasses.fields(member):
            if f.name == "args":
                assert f.type == "tuple[Expression, ...]", member.__name__
            elif f.name != "pos":
                assert not names & set(re.findall(r"\w+", f.type)), (member.__name__, f.name)


ONE = ast.Literal(1.0, parse_unit(""))


@pytest.mark.parametrize(
    "build",
    [
        lambda: ast.Draw("poisson", (ONE, ONE)),
        lambda: ast.Draw("uniform", (ONE,)),
        lambda: ast.Draw("normal", (ONE, ONE, ONE)),
        lambda: ast.Cast("to", (ONE,), parse_unit("m")),
        lambda: ast.Cast("as", (), parse_unit("m")),
        lambda: ast.Cast("in", (ONE, ONE), parse_unit("m")),
    ],
)
def test_draw_and_cast_reject_bad_shapes(build):
    with pytest.raises(ValueError):
        build()


def test_placeholders_of_move_action():
    model = parse_model(
        """
to move is
    my d/dt x' = cos(theta)*r
    my d/dt y' = sin(theta)*r
where
    theta = the heading
    r = the speed.
"""
    )
    assert typecheck._references(model.actions[0])[0] == {"heading", "speed"}


def test_placeholders_of_plain_action_is_empty():
    model = parse_model("to age is my delta age' = delta time.")
    assert typecheck._references(model.actions[0])[0] == set()


def test_placeholders_inside_guards_and_counts():
    model = parse_model(
        "to breed is my spawn Egg' = the litter when my age >= the ripe.\n"
    )
    assert typecheck._references(model.actions[0])[0] == {"litter", "ripe"}


def test_positions_do_not_affect_equality():
    a = ast.UtilityVariable("v", pos=ast.SourcePos(1, 1))
    b = ast.UtilityVariable("v", pos=ast.SourcePos(9, 9))
    assert a == b
    assert hash(a) == hash(b)


def test_model_lookups():
    model = parse_model(
        """
World with
    w [s].

Patch with
    grass [kg].

Adult is Grasshopper with
    age [day].
"""
    )
    assert model.world is not None
    assert model.patch is not None
    assert [s.name for s in model.stages] == ["Adult"]
    assert model.agent_named("Adult") is model.stages[0]
    assert model.agent_named("World") is model.world
    assert model.action_named("nope") is None


@pytest.mark.parametrize("build, message", [
    (lambda one: ast.Arithmetics("%", (one, one)), "bad operator '%'"),
    (lambda one: ast.Arithmetics("+", (one,)), "bad arity for '+'"),
    (lambda one: ast.Arithmetics("-", (one, one, one)), "bad arity for '-'"),
    (lambda one: ast.Comparison(one, "==", one), "bad relational operator '=='"),
], ids=["operator", "unary plus", "three operands", "relation"])
def test_a_node_the_grammar_cannot_give_is_refused(build, message):
    """An operator node is checked when built, so one built in code that no
    source could spell raises ``ValueError``."""
    with pytest.raises(ValueError) as refused:
        build(parse_expression("1"))
    assert str(refused.value) == message
