"""Static unit checking for models.

Every expression is assigned a measurement unit or rejected; checking a
model accumulates diagnostics instead of stopping at the first problem.
A task is the unit of checking: its action is examined with the
performer's attributes in scope and each placeholder carrying the unit
inferred from its binding.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from . import ast
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

_TRIG = ("cos", "sin", "tan")
_DIMENSIONLESS_FUNCTIONS = ("exp", "ln", "log")
_PRESERVING = ("abs", "floor", "ceiling")
_TWO_ARGUMENT = ("min", "max")


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


@dataclass
class Scope:
    """Resolution context for one expression: performer, utilities, bindings."""

    model: ast.Model | None = None
    performer: ast.AgentDefinition | None = None
    utilities: dict[str, ast.UtilityDefinition] = field(default_factory=dict)
    placeholders: dict[str, Unit] = field(default_factory=dict)
    _utility_units: dict[str, Unit] = field(default_factory=dict)
    _inferring: set[str] = field(default_factory=set)

    def attribute_unit(self, qualifier: str | None, identifier: str, pos) -> Unit:
        agent = self._qualified_agent(qualifier, pos)
        for declaration in agent.all_attributes:
            if declaration.identifier == identifier:
                return declaration.unit
        raise TypeCheckError(f"{agent.name} has no attribute {identifier!r}", pos)

    def _qualified_agent(self, qualifier: str | None, pos) -> ast.AgentDefinition:
        if qualifier is None:
            if self.performer is None:
                raise TypeCheckError("no performer in scope", pos)
            return self.performer
        if qualifier == "world":
            world = self.model.world if self.model else None
            if world is None:
                raise TypeCheckError("the model declares no World", pos)
            return world
        if isinstance(self.performer, ast.WorldDefinition):
            raise TypeCheckError("'here' is not available to the World", pos)
        patch = self.model.patch if self.model else None
        if patch is None:
            raise TypeCheckError("the model declares no Patch", pos)
        return patch

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


def _integer_literal(e: ast.Expression) -> int | None:
    sign = 1
    if isinstance(e, ast.Arithmetics) and e.op == "-" and len(e.args) == 1:
        sign = -1
        e = e.args[0]
    if (
        isinstance(e, ast.Literal)
        and e.unit.dimensionless
        and float(e.value).is_integer()
    ):
        return sign * int(e.value)
    return None


def infer_type(e: ast.Expression, scope: Scope) -> Unit:
    """Unit of ``e`` in ``scope``; raises TypeCheckError when ill-typed."""
    match e:
        case ast.Literal(unit=unit):
            return unit
        case ast.DeltaTime():
            return SECONDS
        case ast.AttributeVariable(agent=qualifier, identifier=name):
            return scope.attribute_unit(qualifier, name, e.pos)
        case ast.UtilityVariable(identifier=name):
            return scope.utility_unit(name, e.pos)
        case ast.PlaceholderRef(identifier=name):
            if name not in scope.placeholders:
                raise TypeCheckError(f"unbound placeholder {name!r}", e.pos)
            return scope.placeholders[name]
        case ast.Arithmetics(op="-", args=(operand,)):
            return infer_type(operand, scope)
        case ast.Arithmetics(op=op, args=(left, right)) if op in ("+", "-"):
            left_unit = infer_type(left, scope)
            right_unit = infer_type(right, scope)
            _require_same_dimension(f"{op!r}", left_unit, right_unit, e.pos)
            return left_unit
        case ast.Arithmetics(op=op, args=(left, right)) if op in ("*", "/"):
            left_unit = infer_type(left, scope)
            right_unit = infer_type(right, scope)
            combine = mul_units if op == "*" else div_units
            try:
                return combine(left_unit, right_unit)
            except DimensionOverflowError as err:
                raise TypeCheckError(str(err), e.pos)
        case ast.Arithmetics(op="^", args=(base, exponent)):
            base_unit = infer_type(base, scope)
            if base_unit.dimensionless:
                exponent_unit = infer_type(exponent, scope)
                if not exponent_unit.dimensionless:
                    raise TypeCheckError(
                        "exponents must be dimensionless",
                        e.pos,
                        expected=DIMENSIONLESS,
                        actual=exponent_unit,
                    )
                return DIMENSIONLESS
            power = _integer_literal(exponent)
            if power is None:
                raise TypeCheckError(
                    "the exponent on a dimensioned base must be an integer literal", e.pos
                )
            try:
                return pow_unit(base_unit, power)
            except DimensionOverflowError as err:
                raise TypeCheckError(str(err), e.pos)
        case ast.Apply(function=function, args=args):
            return _apply_type(e, function, args, scope)
        case ast.UniformDist(low=low, high=high):
            low_unit = infer_type(low, scope)
            high_unit = infer_type(high, scope)
            _require_same_dimension("'uniform'", low_unit, high_unit, e.pos)
            return low_unit
        case ast.NormalDist(mean=mean, sigma=sigma):
            mean_unit = infer_type(mean, scope)
            sigma_unit = infer_type(sigma, scope)
            _require_same_dimension("'normal'", mean_unit, sigma_unit, e.pos)
            return mean_unit
        case ast.GammaDist(shape=shape, scale=scale):
            shape_unit = infer_type(shape, scope)
            if not shape_unit.dimensionless:
                raise TypeCheckError(
                    "gamma shape must be dimensionless",
                    e.pos,
                    expected=DIMENSIONLESS,
                    actual=shape_unit,
                )
            return infer_type(scale, scope)
        case ast.LogLogisticDist(scale_param=scale, shape_param=shape):
            shape_unit = infer_type(shape, scope)
            if not shape_unit.dimensionless:
                raise TypeCheckError(
                    "loglogistic shape must be dimensionless",
                    e.pos,
                    expected=DIMENSIONLESS,
                    actual=shape_unit,
                )
            return infer_type(scale, scope)
        case ast.EnUnit(expr=inner, unit=unit):
            inner_unit = infer_type(inner, scope)
            if not inner_unit.dimensionless:
                raise TypeCheckError(
                    "'as' expects a dimensionless operand",
                    e.pos,
                    expected=DIMENSIONLESS,
                    actual=inner_unit,
                )
            return unit
        case ast.DeUnit(expr=inner, unit=unit):
            inner_unit = infer_type(inner, scope)
            _require_same_dimension("'in'", unit, inner_unit, e.pos)
            return DIMENSIONLESS
        case ast.Direction(attribute=name):
            if not isinstance(scope.performer, ast.StageDefinition):
                raise TypeCheckError("'direction' needs a performer with a position", e.pos)
            if scope.model is None or scope.model.patch is None:
                raise TypeCheckError("the model declares no Patch", e.pos)
            scope.attribute_unit("here", name, e.pos)
            return RADIANS
    raise TypeCheckError(f"cannot type {type(e).__name__}", getattr(e, "pos", None))


def _apply_type(e, function: str, args, scope: Scope) -> Unit:
    expected_arity = 2 if function in _TWO_ARGUMENT else 1
    if function not in (
        _TRIG + _DIMENSIONLESS_FUNCTIONS + _PRESERVING + _TWO_ARGUMENT + ("sqrt",)
    ):
        raise TypeCheckError(f"unknown function {function!r}", e.pos)
    if len(args) != expected_arity:
        raise TypeCheckError(
            f"{function} takes {expected_arity} argument(s), got {len(args)}", e.pos
        )
    if function in _TRIG:
        argument = infer_type(args[0], scope)
        _require_same_dimension(f"'{function}'", RADIANS, argument, e.pos)
        return DIMENSIONLESS
    if function in _DIMENSIONLESS_FUNCTIONS:
        argument = infer_type(args[0], scope)
        if not argument.dimensionless:
            raise TypeCheckError(
                f"'{function}' expects a dimensionless argument",
                e.pos,
                expected=DIMENSIONLESS,
                actual=argument,
            )
        return DIMENSIONLESS
    if function == "sqrt":
        argument = infer_type(args[0], scope)
        try:
            return sqrt_unit(argument)
        except UnitError:
            raise TypeCheckError(
                "'sqrt' needs even exponents in its argument's dimension", e.pos
            )
    if function in _PRESERVING:
        return infer_type(args[0], scope)
    left = infer_type(args[0], scope)
    right = infer_type(args[1], scope)
    _require_same_dimension(f"'{function}'", left, right, e.pos)
    return left


def check_action(
    action: ast.ActionDefinition, scope: Scope
) -> list[TypeCheckError]:
    """Check one action in an already-resolved scope; placeholder-target
    definitions must have been replaced by bound attribute variables."""
    diagnostics: list[TypeCheckError] = []

    def attempt(run):
        try:
            run()
        except TypeCheckError as err:
            diagnostics.append(err)

    for utility in action.utilities:
        attempt(lambda u=utility: scope.utility_unit(u.identifier, u.pos))

    for definition in action.definitions:
        attempt(lambda d=definition: _check_definition(d, scope))

    performer_is_stage = isinstance(scope.performer, ast.StageDefinition)
    for directive in action.lifecycle:
        if not performer_is_stage:
            diagnostics.append(
                TypeCheckError(
                    "lifecycle directives need a stage performer", directive.pos
                )
            )
            continue
        attempt(lambda d=directive: _check_directive(d, scope))
    return diagnostics


def _check_definition(definition: ast.AttributeDefinition, scope: Scope) -> None:
    variable = definition.variable
    if isinstance(variable, ast.Placeholder):
        raise TypeCheckError(
            f"placeholder target {variable.identifier!r} was never bound to an attribute",
            definition.pos,
        )
    target = scope.attribute_unit(variable.agent, variable.identifier, variable.pos)
    value = infer_type(definition.expression, scope)
    if definition.decorator is ast.Decorator.DIFFERENTIAL:
        try:
            value = mul_units(value, SECONDS)
        except DimensionOverflowError as err:
            raise TypeCheckError(str(err), definition.pos)
        context = f"'d/dt {variable.identifier}': rate times time"
    else:
        context = f"definition of {variable.identifier!r}"
    _require_same_dimension(context, target, value, definition.pos)


def _check_directive(directive: ast.LifecycleDirective, scope: Scope) -> None:
    if isinstance(directive, (ast.StageTransition, ast.Spawn)):
        name = directive.target if isinstance(directive, ast.StageTransition) else directive.stage
        target = scope.model.agent_named(name) if scope.model else None
        if not isinstance(target, ast.StageDefinition):
            raise TypeCheckError(f"unknown stage {name!r}", directive.pos)
    if isinstance(directive, ast.Spawn):
        count = infer_type(directive.count, scope)
        if not count.dimensionless:
            raise TypeCheckError(
                "spawn count must be dimensionless",
                directive.pos,
                expected=DIMENSIONLESS,
                actual=count,
            )
    guard = directive.guard
    if guard is not None:
        left = infer_type(guard.left, scope)
        right = infer_type(guard.right, scope)
        _require_same_dimension(f"{guard.relop!r}", left, right, guard.pos)


def _utility_cycle(action: ast.ActionDefinition) -> str | None:
    """Name of a utility on a reference cycle, or None."""
    graph = {
        u.identifier: [
            e.identifier
            for e in _references(u.expression)
            if any(other.identifier == e.identifier for other in action.utilities)
        ]
        for u in action.utilities
    }
    done: set[str] = set()
    path: set[str] = set()

    def visit(name: str) -> str | None:
        if name in path:
            return name
        if name in done:
            return None
        path.add(name)
        for successor in graph[name]:
            found = visit(successor)
            if found is not None:
                return found
        path.discard(name)
        done.add(name)
        return None

    for name in graph:
        found = visit(name)
        if found is not None:
            return found
    return None


def _references(expression: ast.Expression) -> list[ast.UtilityVariable]:
    return [
        e for e in ast.walk_expression(expression) if isinstance(e, ast.UtilityVariable)
    ]


def _resolve_targets(
    action: ast.ActionDefinition,
    bindings: dict[str, ast.Expression],
    diagnostics: list[TypeCheckError],
) -> ast.ActionDefinition:
    resolved = []
    for definition in action.definitions:
        variable = definition.variable
        if isinstance(variable, ast.Placeholder):
            bound = bindings.get(variable.identifier)
            if not isinstance(bound, ast.AttributeVariable):
                diagnostics.append(
                    TypeCheckError(
                        f"placeholder target {variable.identifier!r} must be bound "
                        "to an attribute",
                        definition.pos,
                    )
                )
                continue
            definition = dataclasses.replace(definition, variable=bound)
        resolved.append(definition)
    return dataclasses.replace(action, definitions=tuple(resolved))


def check_model(
    model: ast.Model, config=None
) -> list[TypeCheckError]:
    """All diagnostics for a model; errors and warnings, in source order."""
    diagnostics: list[TypeCheckError] = []

    for agent in model.agents:
        for declaration in agent.attributes:
            initial = declaration.initial
            if initial is not None and not same_dimension(initial.unit, declaration.unit):
                diagnostics.append(
                    TypeCheckError(
                        f"initializer of {declaration.identifier!r} has the wrong dimension",
                        declaration.pos,
                        expected=declaration.unit,
                        actual=initial.unit,
                    )
                )
            if initial is not None and not math.isfinite(initial.value * initial.unit.scale):
                diagnostics.append(
                    TypeCheckError(
                        f"initializer of {declaration.identifier!r} is not finite",
                        declaration.pos,
                    )
                )

    for action in model.actions:
        cyclic = _utility_cycle(action)
        if cyclic is not None:
            diagnostics.append(
                TypeCheckError(
                    f"utility definitions of action {action.name!r} form a cycle "
                    f"through {cyclic!r}",
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
        if _utility_cycle(action) is not None:
            continue

        required = ast.placeholders_of(action)
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
            try:
                placeholder_units[name] = infer_type(expression, performer_scope)
            except TypeCheckError as err:
                diagnostics.append(err)
                usable = False
        if not usable:
            continue

        resolved = _resolve_targets(action, dict(task.bindings), diagnostics)
        scope = Scope(
            model,
            performer,
            utilities={u.identifier: u for u in resolved.utilities},
            placeholders=placeholder_units,
        )
        diagnostics.extend(check_action(resolved, scope))

        for definition in resolved.definitions:
            if definition.decorator is not ast.Decorator.ASSIGN:
                continue
            variable = definition.variable
            if not isinstance(variable, ast.AttributeVariable):
                continue
            kind = {None: task.agent, "world": "World", "here": "Patch"}[variable.agent]
            assign_targets.setdefault((kind, variable.identifier), []).append(
                definition.pos
            )

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
        for count, stage in config.populations:
            target = model.agent_named(stage)
            if not isinstance(target, ast.StageDefinition):
                diagnostics.append(TypeCheckError(f"unknown stage {stage!r} in populate"))
            if count < 0:
                diagnostics.append(TypeCheckError(f"negative population for {stage!r}"))

    return diagnostics


def errors_only(diagnostics: list[TypeCheckError]) -> list[TypeCheckError]:
    return [d for d in diagnostics if d.severity == "error"]
