"""Parsing model source and printing it back."""
import pytest

from remodyc import ast
from remodyc.parser import (
    KEYWORDS,
    SourceError,
    format_expression,
    parse_expression,
    parse_model,
    pretty_print,
    tokenize,
)
from remodyc.units import parse_unit

STAGES = """\
Adult is Grasshopper with
    age [day].

Egg is Grasshopper with
    age [day] = 0 [day].
"""

ACTIONS = """\
to age is
    my delta age' = delta time.

to move is
    my d/dt x' = cos(theta)*r
    my d/dt y' = sin(theta)*r
where
    theta = the heading
    r = the speed.
"""

TASK = """\
Adult move
where
    the speed -> uniform 0 [km/day] to 0.5 [km/day]
    the heading -> direction neighbor's grass.
"""


def test_parse_stage_definitions():
    model = parse_model(STAGES)
    adult, egg = model.agents
    assert adult == ast.StageDefinition(
        "Adult", "Grasshopper", (ast.AttributeDeclaration("age", parse_unit("day")),)
    )
    assert egg.name == "Egg"
    assert egg.species == "Grasshopper"
    assert egg.attributes[0].initial == ast.Literal(0.0, parse_unit("day"))


def test_parse_actions():
    model = parse_model(ACTIONS)
    age, move = model.actions
    assert age.definitions == (
        ast.AttributeDefinition(
            ast.AttributeVariable(None, "age"), ast.Decorator.DELTA, ast.DeltaTime()
        ),
    )
    assert move.name == "move"
    assert [d.decorator for d in move.definitions] == [ast.Decorator.DIFFERENTIAL] * 2
    assert move.definitions[0].expression == ast.Arithmetics(
        "*", (ast.Apply("cos", (ast.UtilityVariable("theta"),)), ast.UtilityVariable("r"))
    )
    assert move.utilities == (
        ast.UtilityDefinition("theta", ast.PlaceholderRef("heading")),
        ast.UtilityDefinition("r", ast.PlaceholderRef("speed")),
    )


def test_parse_task_bindings():
    model = parse_model(TASK)
    (task,) = model.tasks
    assert task.agent == "Adult"
    assert task.action == "move"
    names = [name for name, _ in task.bindings]
    assert names == ["speed", "heading"]
    speed = dict(task.bindings)["speed"]
    assert isinstance(speed, ast.Draw) and speed.distribution == "uniform"
    assert speed.args[0] == ast.Literal(0.0, parse_unit("km/day"))
    assert dict(task.bindings)["heading"] == ast.Direction("grass")


def test_parse_world_and_patch():
    model = parse_model("World with\n    temperature [degreeC] = 20 [degreeC].\n\nPatch with\n    grass [kg].\n")
    assert isinstance(model.agents[0], ast.WorldDefinition)
    assert isinstance(model.agents[1], ast.PatchDefinition)
    assert model.world.attributes[0].initial.value == 20.0


def test_parse_lifecycle_directives():
    model = parse_model(
        """
to hatch is
    my become Adult when my age >= 10 [day].

to breed is
    my spawn Egg' = 2 when my energy >= 1.5 [kg].

to starve is
    my die when my energy < 0.2 [kg].
"""
    )
    hatch, breed, starve = model.actions
    assert hatch.lifecycle == (
        ast.StageTransition(
            "Adult",
            ast.Comparison(
                ast.AttributeVariable(None, "age"), ">=", ast.Literal(10.0, parse_unit("day"))
            ),
        ),
    )
    assert breed.lifecycle[0].stage == "Egg"
    assert breed.lifecycle[0].count == ast.Literal(2.0, ast.Literal(2.0, parse_unit("")).unit)
    assert isinstance(starve.lifecycle[0], ast.Die)


def test_parse_unguarded_spawn():
    model = parse_model("to calve is my spawn Calf' = 1.\n")
    assert model.actions[0].lifecycle[0].guard is None


def test_parse_qualified_targets():
    model = parse_model(
        "to graze is here's delta grass' = my rate world's tally' = 1.\n"
    )
    first, second = model.actions[0].definitions
    assert first.variable == ast.AttributeVariable("here", "grass")
    assert first.expression == ast.AttributeVariable(None, "rate")
    assert second.variable == ast.AttributeVariable("world", "tally")
    assert second.decorator == ast.Decorator.ASSIGN


def test_parse_empty_model():
    assert parse_model("") == ast.Model()
    assert pretty_print(ast.Model()) == ""


def test_comments_are_skipped():
    model = parse_model("# a note\nAdult is G with\n    age [day]. # trailing\n")
    assert model.agents[0].name == "Adult"


def test_expression_precedence():
    e = parse_expression("1 + 2 * 3")
    assert e == ast.Arithmetics(
        "+",
        (
            ast.Literal(1.0, parse_unit("")),
            ast.Arithmetics("*", (ast.Literal(2.0, parse_unit("")), ast.Literal(3.0, parse_unit("")))),
        ),
    )


def test_subtraction_is_left_associative():
    e = parse_expression("a - b - c")
    assert e == ast.Arithmetics(
        "-",
        (
            ast.Arithmetics("-", (ast.UtilityVariable("a"), ast.UtilityVariable("b"))),
            ast.UtilityVariable("c"),
        ),
    )


def test_power_is_right_associative_and_tight():
    e = parse_expression("2 ^ 3 ^ 2")
    assert e.args[1].op == "^"
    e = parse_expression("-x ^ 2")
    assert e.op == "-" and len(e.args) == 1
    e = parse_expression("x ^ -2")
    assert e.args[1] == ast.Arithmetics("-", (ast.Literal(2.0, parse_unit("")),))


def test_cast_binds_below_addition():
    e = parse_expression("a + b as [km]")
    assert isinstance(e, ast.Cast) and e.op == "as"
    assert e.args[0].op == "+"
    e = parse_expression("7200 in [h]")
    assert isinstance(e, ast.Cast) and e.op == "in"


def test_uniform_binds_loosest():
    e = parse_expression("uniform 0 to 1 + 2")
    assert isinstance(e, ast.Draw) and e.distribution == "uniform"
    assert e.args[1].op == "+"


def test_parenthesized_distribution():
    e = parse_expression("(uniform 0 to 1) * 2")
    assert e.op == "*"
    assert isinstance(e.args[0], ast.Draw) and e.args[0].distribution == "uniform"


def test_parenthesized_samplers():
    for text in ("normal(0, 1)", "gamma(2, 3)", "loglogistic(2, 3)"):
        e = parse_expression(text)
        assert isinstance(e, ast.Draw) and e.distribution == text.partition("(")[0]


def test_literal_units():
    e = parse_expression("10 [km]")
    assert e == ast.Literal(10.0, parse_unit("km"))
    e = parse_expression("0.5")
    assert e.unit.dimension == ()


# Source text -> every token as (kind, value, line, column), or the
# (line, column, message) of the SourceError it raises.  A tab and a carriage
# return count one column each; a comment that ends the text leaves ``eof``
# at the column of its ``#``.
LEXER_CASES = {
    "d/dt": [("d/dt", "d/dt", 1, 1), ("eof", "", 1, 5)],
    "d/dtx": [
        ("ident", "d", 1, 1), ("/", "/", 1, 2), ("ident", "dtx", 1, 3), ("eof", "", 1, 6),
    ],
    "d/dt_": [
        ("ident", "d", 1, 1), ("/", "/", 1, 2), ("ident", "dt_", 1, 3), ("eof", "", 1, 6),
    ],
    "d/dt\u00e9": (1, 5, "unexpected character '\u00e9'"),
    "d/dt x": [("d/dt", "d/dt", 1, 1), ("ident", "x", 1, 6), ("eof", "", 1, 7)],
    "'s": [("'s", "'s", 1, 1), ("eof", "", 1, 3)],
    "'s\u00e9": (1, 3, "unexpected character '\u00e9'"),
    "'": [("'", "'", 1, 1), ("eof", "", 1, 2)],
    "my a'": [("kw", "my", 1, 1), ("ident", "a", 1, 4), ("'", "'", 1, 5), ("eof", "", 1, 6)],
    "a->b": [("ident", "a", 1, 1), ("->", "->", 1, 2), ("ident", "b", 1, 4), ("eof", "", 1, 5)],
    "a<=b>=c": [
        ("ident", "a", 1, 1), ("<=", "<=", 1, 2), ("ident", "b", 1, 4),
        (">=", ">=", 1, 5), ("ident", "c", 1, 7), ("eof", "", 1, 8),
    ],
    "a\r\n\tb [km]\r\n": [
        ("ident", "a", 1, 1), ("ident", "b", 2, 2), ("unit", "km", 2, 4), ("eof", "", 3, 1),
    ],
    "2.5e-3 [ m ]": [("number", "2.5e-3", 1, 1), ("unit", " m ", 1, 8), ("eof", "", 1, 13)],
    "a # note": [("ident", "a", 1, 1), ("eof", "", 1, 3)],
    "a # note\n": [("ident", "a", 1, 1), ("eof", "", 2, 1)],
    "\t# only\r": [("eof", "", 1, 2)],
    "": [("eof", "", 1, 1)],
    "a [km\n]": (1, 3, "unterminated unit bracket"),
    "a [km": (1, 3, "unterminated unit bracket"),
    "x\u00e9": (1, 2, "unexpected character '\u00e9'"),
}


@pytest.mark.parametrize("text", list(LEXER_CASES))
def test_lexer_table(text):
    expected = LEXER_CASES[text]
    if isinstance(expected, list):
        assert [tuple(token) for token in tokenize(text)] == expected
        return
    with pytest.raises(SourceError) as err:
        tokenize(text)
    assert (err.value.line, err.value.column, err.value.message) == expected


def test_unit_out_of_range_is_a_source_error():
    # Past the exponent bound, and factors whose scale underflows to zero.
    with pytest.raises(SourceError) as err:
        parse_model("Adult is G with\n    age [m^40].\n")
    assert (err.value.line, err.value.column) == (2, 9)
    assert "exceeds" in err.value.message
    tiny = ".".join(["mm^32"] * 4)
    with pytest.raises(SourceError) as err:
        parse_expression(f"1 [{tiny}/{tiny}]")
    assert (err.value.line, err.value.column) == (1, 3)


def test_error_positions():
    with pytest.raises(SourceError) as err:
        parse_model("Adult is Grasshopper with\n    age day.\n")
    assert (err.value.line, err.value.column) == (2, 9)

    with pytest.raises(SourceError) as err:
        parse_model("Adult is Grasshopper with\n    age [parsec].\n")
    assert err.value.line == 2
    assert "unknown unit" in err.value.message


def test_unit_error_column_points_into_bracket():
    with pytest.raises(SourceError) as err:
        parse_model("Adult is G with\n    age [km/parsec].\n")
    assert (err.value.line, err.value.column) == (2, 13)


def test_reserved_words_are_rejected_as_identifiers():
    for keyword in sorted(KEYWORDS):
        with pytest.raises(SourceError):
            parse_model(f"Adult is G with\n    {keyword} [day].\n")


def test_duplicate_names_are_rejected():
    with pytest.raises(SourceError):
        parse_model("Adult is G with a [s].\nAdult is G with b [s].\n")
    with pytest.raises(SourceError):
        parse_model("Adult is G with a [s] a [s].\n")
    with pytest.raises(SourceError):
        parse_model("Adult is G with x [m].\n")  # implicit position attribute
    with pytest.raises(SourceError):
        parse_model("to f is my a' = 1.\nto f is my a' = 2.\n")
    with pytest.raises(SourceError):
        parse_model("to f is my a' = 1 where u = 1 u = 2.\n")
    with pytest.raises(SourceError):
        parse_model("Adult f where the p -> 1 the p -> 2.\n")
    with pytest.raises(SourceError):
        parse_model("World with a [s].\nWorld with b [s].\n")


def test_stage_cannot_be_named_world_or_patch():
    with pytest.raises(SourceError):
        parse_model("World is G with a [s].\n")
    with pytest.raises(SourceError):
        parse_model("Patch is G with a [s].\n")


def test_unterminated_definition():
    with pytest.raises(SourceError):
        parse_model("Adult is G with age [day]")


def test_missing_statement():
    with pytest.raises(SourceError):
        parse_model("to idle is .\n")


def test_placeholder_is_not_a_definition_target():
    # A statement targets an attribute; ``the <name>`` is only an expression.
    with pytest.raises(SourceError) as err:
        parse_model("to f is\n    the tgt' = 1 [kg].\n")
    assert str(err.value) == "2:5: an action needs at least one statement"


def test_apostrophe_forms():
    model = parse_model("to f is my a' = world's b + here's c.\n")
    e = model.actions[0].definitions[0].expression
    assert e.args[0] == ast.AttributeVariable("world", "b")
    assert e.args[1] == ast.AttributeVariable("here", "c")


def test_roundtrip_fixture_sources():
    for source in (STAGES, ACTIONS, TASK, STAGES + "\n" + ACTIONS + "\n" + TASK):
        model = parse_model(source)
        printed = pretty_print(model)
        assert parse_model(printed) == model
        assert pretty_print(parse_model(printed)) == printed


def test_format_expression_inserts_needed_parens():
    e = ast.Arithmetics(
        "*",
        (
            ast.Arithmetics("+", (ast.UtilityVariable("a"), ast.UtilityVariable("b"))),
            ast.UtilityVariable("c"),
        ),
    )
    assert format_expression(e) == "(a + b) * c"
    assert parse_expression(format_expression(e)) == e

    nested = ast.Arithmetics(
        "+",
        (
            ast.UtilityVariable("a"),
            ast.Arithmetics("+", (ast.UtilityVariable("b"), ast.UtilityVariable("c"))),
        ),
    )
    assert format_expression(nested) == "a + (b + c)"
    assert parse_expression(format_expression(nested)) == nested


def test_format_expression_examples():
    assert format_expression(parse_expression("cos(theta)*r")) == "cos(theta) * r"
    assert format_expression(parse_expression("delta time")) == "delta time"
    assert format_expression(parse_expression("10 [km] / 3 [h]")) == "10 [km] / 3 [h]"
    assert (
        format_expression(parse_expression("uniform 0 [km/day] to 0.5 [km/day]"))
        == "uniform 0 [km/day] to 0.5 [km/day]"
    )
