"""Static unit checking for models.

Every expression is assigned a measurement unit or rejected; checking a
model accumulates diagnostics instead of stopping at the first problem.
A task is the unit of checking: its action is examined with the
performer's attributes in scope and each placeholder carrying the unit
inferred from its binding.

Each judgement is written once: ``_require_same_dimension`` and
``_require_dimensionless`` raise the diagnostics that compare a unit with
the one a rule expects; an exponent overflow from a unit rule becomes a
diagnostic at the expression being typed, in ``infer_type`` alone; and
``_ARITY``, the builtin functions and their operand counts, is read off
``interp._CALLS``, the one table of them.
"""
from __future__ import annotations

import math

from . import ast, interp
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

_ARITY = {name: n for name, n in interp._CALLS if name.isalpha()}


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
    try:
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
            case ast.Arithmetics(op="*", args=(left, right)):
                return mul_units(infer_type(left, scope), infer_type(right, scope))
            case ast.Arithmetics(op="/", args=(left, right)):
                return div_units(infer_type(left, scope), infer_type(right, scope))
            case ast.Arithmetics(op="^", args=(base, exponent)):
                base_unit = infer_type(base, scope)
                if base_unit.dimensionless:
                    exponent_unit = infer_type(exponent, scope)
                    _require_dimensionless("exponents must be dimensionless", exponent_unit, e.pos)
                    return DIMENSIONLESS
                power = _integer_literal(exponent)
                if power is None:
                    raise TypeCheckError(
                        "the exponent on a dimensioned base must be an integer literal",
                        e.pos,
                    )
                return pow_unit(base_unit, power)
            case ast.Apply(function=function, args=args):
                return _apply_type(e, function, args, scope)
            case ast.Draw(distribution="uniform" | "normal" as name, args=(first, second)):
                first_unit = infer_type(first, scope)
                second_unit = infer_type(second, scope)
                _require_same_dimension(f"'{name}'", first_unit, second_unit, e.pos)
                return first_unit
            case ast.Draw(distribution=name, args=args):
                # gamma(shape, scale), loglogistic(scale, shape): the shape first
                shape, scale = args if name == "gamma" else args[::-1]
                shape_unit = infer_type(shape, scope)
                _require_dimensionless(f"{name} shape must be dimensionless", shape_unit, e.pos)
                return infer_type(scale, scope)
            case ast.Cast(op="as", args=(inner,), unit=unit):
                inner_unit = infer_type(inner, scope)
                _require_dimensionless("'as' expects a dimensionless operand", inner_unit, e.pos)
                return unit
            case ast.Cast(op="in", args=(inner,), unit=unit):
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
    except DimensionOverflowError as err:
        raise TypeCheckError(str(err), e.pos)
    raise TypeCheckError(f"cannot type {type(e).__name__}", getattr(e, "pos", None))


def _apply_type(e, function: str, args, scope: Scope) -> Unit:
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
                raise TypeCheckError(
                    "'sqrt' needs even exponents in its argument's dimension", e.pos
                )
        case "abs" | "floor" | "ceiling", argument:
            return argument
        case "min" | "max", left, right:
            _require_same_dimension(f"'{function}'", left, right, e.pos)
            return left


def check_action(action: ast.ActionDefinition, scope: Scope) -> list[TypeCheckError]:
    """Check one action in an already-resolved scope."""
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


def _utility_cycle(action: ast.ActionDefinition) -> str | None:
    """Name of a utility on a reference cycle, or None."""
    names = {u.identifier for u in action.utilities}
    graph = {
        u.identifier: [
            e.identifier
            for e in ast.walk_expression(u.expression)
            if isinstance(e, ast.UtilityVariable) and e.identifier in names
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
            if not math.isfinite(initial.value * initial.unit.scale):
                diagnostics.append(
                    TypeCheckError(
                        f"initializer of {declaration.identifier!r} is not finite",
                        declaration.pos,
                    )
                )

    cyclic: set[int] = set()  # ids of the actions whose utilities form a cycle
    for action in model.actions:
        through = _utility_cycle(action)
        if through is not None:
            cyclic.add(id(action))
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
        if id(action) in cyclic:
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
            kind = {None: task.agent, "world": "World", "here": "Patch"}[variable.agent]
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
        if model.patch is not None and config.patches_x * config.patches_y > interp.MAX_ANIMATS:
            columns = format_number(config.world_width / config.patch_size)
            rows = format_number(config.world_height / config.patch_size)
            diagnostics.append(
                TypeCheckError(
                    f"the world is {columns} by {rows} patches, over the ceiling "
                    f"of {interp.MAX_ANIMATS} animats"
                )
            )
        elif (blocks := interp.setup_blocks(model, config)) > interp.MAX_ANIMATS:
            message = f"setup needs {blocks} animats, over the ceiling of {interp.MAX_ANIMATS}"
            diagnostics.append(TypeCheckError(message))
        for count, stage in config.populations:
            target = model.agent_named(stage)
            if not isinstance(target, ast.StageDefinition):
                diagnostics.append(TypeCheckError(f"unknown stage {stage!r} in populate"))
            if count < 0:
                diagnostics.append(TypeCheckError(f"negative population for {stage!r}"))

    return diagnostics


def errors_only(diagnostics: list[TypeCheckError]) -> list[TypeCheckError]:
    return [d for d in diagnostics if d.severity == "error"]
