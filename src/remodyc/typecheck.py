"""Static unit checking for models.

Every expression is assigned a measurement unit or rejected; checking a
model accumulates diagnostics instead of stopping at the first problem.
A task is the unit of checking: its action is examined with the
performer's attributes in scope and each placeholder carrying the unit
inferred from its binding.

Each judgement is written once: ``_require_same_dimension`` and
``_require_dimensionless`` raise the diagnostics that compare a unit with
the one a rule expects; an exponent overflow from a unit rule becomes a
diagnostic at the expression being typed, in ``infer_type`` alone;
``_ARITY``, the builtin functions and their operand counts, is read off
``compiler._CALLS``, the one table of them; and an attribute's owner is
found by ``compiler._scope``, the rule the compiled tasks follow.

A raised diagnostic is caught and recorded in ``_record`` alone, which
drops its traceback, and none is raised while another exception is
handled, so none chains one.  Each diagnostic is a plain value, and
checking builds no reference cycle: its garbage is freed as it goes.
"""
from __future__ import annotations

import math
from itertools import zip_longest

from . import ast, compiler, interp
from .parser import format_number
from .units import (
    DIMENSIONLESS,
    DimensionOverflowError,
    Unit,
    UnitError,
    div_units,
    format_unit,
    mul_units,
    parse_unit,
    pow_unit,
    same_dimension,
    sqrt_unit,
)

SECONDS = parse_unit("s")
RADIANS = parse_unit("rad")

_ARITY = {name: n for name, n in compiler._CALLS if name.isalpha()}


class TypeCheckError(Exception):
    """A diagnostic; ``severity`` is ``error`` or ``warning``."""

    def __init__(
        self,
        message: str,
        pos: ast.SourcePos | None = None,
        expected: Unit | None = None,
        actual: Unit | None = None,
        severity: str = "error",
    ):
        super().__init__(message)
        self.message = message
        self.pos = pos
        self.expected = expected
        self.actual = actual
        self.severity = severity

    def render(self, path: str) -> str:
        where = f"{path}:{self.pos.line}:{self.pos.column}" if self.pos else path
        text = f"{where}: {self.severity}: {self.message}"
        if self.expected is not None and self.actual is not None:
            text += f" (expected {format_unit(self.expected)}, got {format_unit(self.actual)})"
        return text


class Scope:
    """Resolution context for one expression: performer, utilities, bindings."""

    def __init__(
        self,
        model: ast.Model | None = None,
        performer: ast.AgentDefinition | None = None,
        utilities: dict[str, ast.UtilityDefinition] | None = None,
        placeholders: dict[str, Unit] | None = None,
    ):
        self.model, self.performer = model, performer
        self.utilities = utilities or {}
        self.placeholders = placeholders or {}
        self._utility_units: dict[str, Unit] = {}
        self._inferring: set[str] = set()

    def attribute_unit(self, qualifier: str | None, identifier: str, pos) -> Unit:
        """The unit of ``identifier`` of the agent ``qualifier`` names, by ``compiler._scope``."""
        performer = self.performer
        scope, kind = compiler._scope(performer and performer.name, qualifier)
        if scope == "here" and isinstance(performer, ast.WorldDefinition):
            raise TypeCheckError("'here' is not available to the World", pos)
        agent = performer if scope == "my" else self.model and self.model.agent_named(kind)
        if agent is None:
            problem = "no performer in scope" if scope == "my" else f"the model declares no {kind}"
            raise TypeCheckError(problem, pos)
        for declaration in agent.all_attributes:
            if declaration.identifier == identifier:
                return declaration.unit
        raise TypeCheckError(f"{agent.name} has no attribute {identifier!r}", pos)

    def utility_unit(self, identifier: str, pos) -> Unit:
        if identifier in self._utility_units:
            return self._utility_units[identifier]
        definition = self.utilities.get(identifier)
        if definition is None:
            message = f"unknown utility {identifier!r}"
            if self.performer is not None:
                try:
                    self.attribute_unit(None, identifier, pos)
                except TypeCheckError:
                    pass
                else:
                    message += f" (did you mean 'my {identifier}'?)"
            raise TypeCheckError(message, pos)
        if identifier in self._inferring:
            raise TypeCheckError(f"utility {identifier!r} is defined in terms of itself", pos)
        self._inferring.add(identifier)
        try:
            unit = infer_type(definition.expression, self)
        finally:
            self._inferring.discard(identifier)
        self._utility_units[identifier] = unit
        return unit


def _require_same_dimension(context: str, expected: Unit, actual: Unit, pos) -> None:
    if not same_dimension(expected, actual):
        raise TypeCheckError(
            f"incompatible dimensions in {context}", pos, expected=expected, actual=actual
        )


def _require_dimensionless(message: str, actual: Unit, pos) -> None:
    if not actual.dimensionless:
        raise TypeCheckError(message, pos, expected=DIMENSIONLESS, actual=actual)


def _integer_literal(e: ast.Expression) -> int | None:
    sign = 1
    if isinstance(e, ast.Arithmetics) and e.op == "-" and len(e.args) == 1:
        sign = -1
        e = e.args[0]
    if isinstance(e, ast.Literal) and e.unit.dimensionless and float(e.value).is_integer():
        return sign * int(e.value)
    return None


def infer_type(e: ast.Expression, scope: Scope) -> Unit:
    """Unit of ``e`` in ``scope``; raises TypeCheckError when ill-typed."""
    rule = _RULES.get(type(e))
    if rule is None:
        raise TypeCheckError(f"cannot type {type(e).__name__}", getattr(e, "pos", None))
    try:
        return rule(e, scope)
    except DimensionOverflowError as err:
        message = str(err)
    raise TypeCheckError(message, e.pos)  # outside the handler: chains no error


def _placeholder_type(e: ast.PlaceholderRef, scope: Scope) -> Unit:
    if e.identifier not in scope.placeholders:
        raise TypeCheckError(f"unbound placeholder {e.identifier!r}", e.pos)
    return scope.placeholders[e.identifier]


def _arithmetics_type(e: ast.Arithmetics, scope: Scope) -> Unit:
    op, args = e.op, e.args
    if len(args) == 1:
        return infer_type(args[0], scope)
    left, right = args
    if op in ("+", "-"):
        left_unit = infer_type(left, scope)
        right_unit = infer_type(right, scope)
        _require_same_dimension(f"{op!r}", left_unit, right_unit, e.pos)
        return left_unit
    if op == "*":
        return mul_units(infer_type(left, scope), infer_type(right, scope))
    if op == "/":
        return div_units(infer_type(left, scope), infer_type(right, scope))
    base_unit = infer_type(left, scope)
    if base_unit.dimensionless:
        exponent_unit = infer_type(right, scope)
        _require_dimensionless("exponents must be dimensionless", exponent_unit, e.pos)
        return DIMENSIONLESS
    power = _integer_literal(right)
    if power is None:
        raise TypeCheckError(
            "the exponent on a dimensioned base must be an integer literal", e.pos
        )
    return pow_unit(base_unit, power)


def _draw_type(e: ast.Draw, scope: Scope) -> Unit:
    name, shape = e.distribution, ast.DISTRIBUTIONS[e.distribution]
    if shape is None:
        first, second = e.args
        first_unit = infer_type(first, scope)
        second_unit = infer_type(second, scope)
        _require_same_dimension(f"'{name}'", first_unit, second_unit, e.pos)
        return first_unit
    # The shape first, then the other operand, whose unit the draw takes.
    shape_unit = infer_type(e.args[shape], scope)
    _require_dimensionless(f"{name} shape must be dimensionless", shape_unit, e.pos)
    return infer_type(e.args[1 - shape], scope)


def _cast_type(e: ast.Cast, scope: Scope) -> Unit:
    inner_unit = infer_type(e.args[0], scope)
    if e.op == "as":
        _require_dimensionless("'as' expects a dimensionless operand", inner_unit, e.pos)
        return e.unit
    _require_same_dimension("'in'", e.unit, inner_unit, e.pos)
    return DIMENSIONLESS


def _direction_type(e: ast.Direction, scope: Scope) -> Unit:
    if not isinstance(scope.performer, ast.StageDefinition):
        raise TypeCheckError("'direction' needs a performer with a position", e.pos)
    scope.attribute_unit("here", e.attribute, e.pos)
    return RADIANS


def _apply_type(e: ast.Apply, scope: Scope) -> Unit:
    function, args = e.function, e.args
    arity = _ARITY.get(function)
    if arity is None:
        raise TypeCheckError(f"unknown function {function!r}", e.pos)
    if len(args) != arity:
        raise TypeCheckError(f"{function} takes {arity} argument(s), got {len(args)}", e.pos)
    match function, *[infer_type(arg, scope) for arg in args]:
        case "cos" | "sin" | "tan", argument:
            _require_same_dimension(f"'{function}'", RADIANS, argument, e.pos)
            return DIMENSIONLESS
        case "exp" | "ln" | "log", argument:
            message = f"'{function}' expects a dimensionless argument"
            _require_dimensionless(message, argument, e.pos)
            return DIMENSIONLESS
        case "sqrt", argument:
            try:
                return sqrt_unit(argument)
            except UnitError:
                pass  # raised below, outside the handler: chains no UnitError
            raise TypeCheckError("'sqrt' needs even exponents in its argument's dimension", e.pos)
        case "abs" | "floor" | "ceiling", argument:
            return argument
        case "min" | "max", left, right:
            _require_same_dimension(f"'{function}'", left, right, e.pos)
            return left


# The typing rule of each expression kind, by node type.  A rule that
# raises ``DimensionOverflowError`` has it reported at the node it types,
# by ``infer_type``.
_RULES = {
    ast.Literal: lambda e, scope: e.unit,
    ast.DeltaTime: lambda e, scope: SECONDS,
    ast.AttributeVariable: lambda e, scope: scope.attribute_unit(e.agent, e.identifier, e.pos),
    ast.UtilityVariable: lambda e, scope: scope.utility_unit(e.identifier, e.pos),
    ast.PlaceholderRef: _placeholder_type,
    ast.Arithmetics: _arithmetics_type,
    ast.Apply: _apply_type,
    ast.Draw: _draw_type,
    ast.Cast: _cast_type,
    ast.Direction: _direction_type,
}


def _record(diagnostics: list[TypeCheckError], judge, *args):
    """What ``judge(*args)`` returns, or None if it raises a
    ``TypeCheckError``: that diagnostic goes to ``diagnostics`` without
    its traceback, whose frames hold ``diagnostics``, a reference cycle."""
    try:
        return judge(*args)
    except TypeCheckError as err:
        diagnostics.append(err.with_traceback(None))
    return None


def check_action(action: ast.ActionDefinition, scope: Scope) -> list[TypeCheckError]:
    """Check one action in an already-resolved scope."""
    diagnostics: list[TypeCheckError] = []
    for utility in action.utilities:
        _record(diagnostics, scope.utility_unit, utility.identifier, utility.pos)
    for definition in action.definitions:
        _record(diagnostics, _check_definition, definition, scope)
    for directive in action.lifecycle:
        _record(diagnostics, _check_directive, directive, scope)
    return diagnostics


def _check_definition(definition: ast.AttributeDefinition, scope: Scope) -> None:
    variable = definition.variable
    target = scope.attribute_unit(variable.agent, variable.identifier, variable.pos)
    expression = definition.expression
    if definition.decorator is ast.Decorator.DIFFERENTIAL:
        # ``d/dt x' = e`` adds ``e * delta time``: the product is typed.
        expression = ast.Arithmetics("*", (expression, ast.DeltaTime()), pos=definition.pos)
        context = f"'d/dt {variable.identifier}': rate times time"
    else:
        context = f"definition of {variable.identifier!r}"
    _require_same_dimension(context, target, infer_type(expression, scope), definition.pos)


def _check_directive(directive: ast.LifecycleDirective, scope: Scope) -> None:
    if not isinstance(scope.performer, ast.StageDefinition):
        raise TypeCheckError("lifecycle directives need a stage performer", directive.pos)
    if isinstance(directive, (ast.StageTransition, ast.Spawn)):
        name = directive.target if isinstance(directive, ast.StageTransition) else directive.stage
        target = scope.model.agent_named(name) if scope.model else None
        if not isinstance(target, ast.StageDefinition):
            raise TypeCheckError(f"unknown stage {name!r}", directive.pos)
    if isinstance(directive, ast.Spawn):
        count = infer_type(directive.count, scope)
        _require_dimensionless("spawn count must be dimensionless", count, directive.pos)
    guard = directive.guard
    if guard is not None:
        left = infer_type(guard.left, scope)
        right = infer_type(guard.right, scope)
        _require_same_dimension(f"{guard.relop!r}", left, right, guard.pos)


def _references(action: ast.ActionDefinition) -> tuple[set[str], dict[str, list[str]]]:
    """The placeholders ``action`` uses, and for each of its utilities the
    names of the utilities its expression uses: one walk over the action."""
    placeholders: set[str] = set()
    uses: dict[str, list[str]] = {}
    # ``action_expressions`` yields the utilities' expressions first.
    for utility, top in zip_longest(action.utilities, ast.action_expressions(action)):
        names = None
        if utility is not None:
            names = uses[utility.identifier] = []
        for e in ast.walk_expression(top):
            kind = type(e)
            if kind is ast.PlaceholderRef:
                placeholders.add(e.identifier)
            elif kind is ast.UtilityVariable and names is not None:
                names.append(e.identifier)
    return placeholders, uses


def _utility_cycle(uses: dict[str, list[str]]) -> str | None:
    """Name of a utility on a reference cycle, or None; ``uses`` maps
    each utility to the names its expression uses."""
    done: set[str] = set()
    path: set[str] = set()
    for name in uses:
        found = _visit(name, uses, path, done)
        if found is not None:
            return found
    return None


def _visit(name: str, uses: dict[str, list[str]], path: set[str], done: set[str]) -> str | None:
    """A utility on a cycle through ``name`` or a utility it reaches, by a
    depth-first walk from ``name`` along ``path``; ``done`` holds those
    walked from and found on no cycle.  Not a closure of
    ``_utility_cycle``, which would refer to itself through its cell."""
    if name in path:
        return name
    if name in done:
        return None
    path.add(name)
    for successor in uses[name]:
        if successor in uses:
            found = _visit(successor, uses, path, done)
            if found is not None:
                return found
    path.discard(name)
    done.add(name)
    return None


def check_model(model: ast.Model, config=None) -> list[TypeCheckError]:
    """All diagnostics for a model; errors and warnings, in source order."""
    diagnostics: list[TypeCheckError] = []

    for agent in model.agents:
        for declaration in agent.attributes:
            initial = declaration.initial
            if initial is None:
                continue
            if not same_dimension(initial.unit, declaration.unit):
                diagnostics.append(
                    TypeCheckError(
                        f"initializer of {declaration.identifier!r} has the wrong dimension",
                        declaration.pos,
                        expected=declaration.unit,
                        actual=initial.unit,
                    )
                )
            if not math.isfinite(compiler.initial_value(declaration)):
                message = f"initializer of {declaration.identifier!r} is not finite"
                diagnostics.append(TypeCheckError(message, declaration.pos))

    # By action id, from one walk over the action when first needed: the
    # placeholders it uses, and a utility on a cycle of its utilities or None.
    facts: dict[int, tuple[set[str], str | None]] = {}

    def facts_of(action: ast.ActionDefinition) -> tuple[set[str], str | None]:
        key = id(action)
        if key not in facts:
            placeholders, uses = _references(action)
            facts[key] = placeholders, _utility_cycle(uses)
        return facts[key]

    for action in model.actions:
        through = facts_of(action)[1] if action.utilities else None
        if through is not None:
            diagnostics.append(
                TypeCheckError(
                    f"utility definitions of action {action.name!r} form a cycle "
                    f"through {through!r}",
                    action.pos,
                )
            )

    assign_targets: dict[tuple[str, str], list[ast.SourcePos | None]] = {}

    for task in model.tasks:
        performer = model.agent_named(task.agent)
        if performer is None:
            diagnostics.append(TypeCheckError(f"unknown agent {task.agent!r}", task.pos))
            continue
        action = model.action_named(task.action)
        if action is None:
            diagnostics.append(TypeCheckError(f"unknown action {task.action!r}", task.pos))
            continue
        required, through = facts_of(action)
        if through is not None:
            continue

        bound = {name for name, _ in task.bindings}
        usable = True
        for name in sorted(required - bound):
            diagnostics.append(
                TypeCheckError(f"missing binding for placeholder {name!r}", task.pos)
            )
            usable = False
        for name in sorted(bound - required):
            diagnostics.append(
                TypeCheckError(
                    f"binding {name!r} does not match any placeholder of "
                    f"{action.name!r}",
                    task.pos,
                )
            )
            usable = False

        performer_scope = Scope(model, performer)
        placeholder_units: dict[str, Unit] = {}
        for name, expression in task.bindings:
            unit = _record(diagnostics, infer_type, expression, performer_scope)
            if unit is None:
                usable = False
            else:
                placeholder_units[name] = unit
        if not usable:
            continue

        scope = Scope(
            model,
            performer,
            utilities={u.identifier: u for u in action.utilities},
            placeholders=placeholder_units,
        )
        diagnostics.extend(check_action(action, scope))

        for definition in action.definitions:
            if definition.decorator is not ast.Decorator.ASSIGN:
                continue
            variable = definition.variable
            kind = compiler._scope(task.agent, variable.agent)[1]
            assign_targets.setdefault((kind, variable.identifier), []).append(definition.pos)

    for (kind, attribute), sites in assign_targets.items():
        if len(sites) > 1:
            diagnostics.append(
                TypeCheckError(
                    f"attribute {attribute!r} of {kind} is assigned by "
                    f"{len(sites)} definitions in one tick; the last write wins",
                    sites[-1],
                    severity="warning",
                )
            )

    if config is not None:
        if interp.fixed_blocks(model, config).get("Patch", 0) > interp.MAX_ANIMATS:
            columns = format_number(config.world_width / config.patch_size)
            rows = format_number(config.world_height / config.patch_size)
            diagnostics.append(
                TypeCheckError(
                    f"the world is {columns} by {rows} patches, over the ceiling "
                    f"of {interp.MAX_ANIMATS} animats"
                )
            )
        elif message := interp.setup_refusal(model, config):
            diagnostics.append(TypeCheckError(message))
        for _, stage in config.populations:
            if not isinstance(model.agent_named(stage), ast.StageDefinition):
                diagnostics.append(TypeCheckError(f"unknown stage {stage!r} in populate"))

    return diagnostics


def errors_only(diagnostics: list[TypeCheckError]) -> list[TypeCheckError]:
    return [d for d in diagnostics if d.severity == "error"]
