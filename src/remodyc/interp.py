"""Synchronous simulation engine.

The model is compiled once, when the engine is built, into a plan of one
``perform(base, events)`` closure per task, built from one closure per
expression node (Feeley and Lapalme, "Using closures for code
generation", 1987).  Literals and ``delta time`` are folded to SI
constants, attribute references resolved to slot offsets, bound
placeholders compiled in place, and every name checked: a model that
does not resolve raises ``ConfigError`` here.  Every tick then runs all
tasks in declaration order over all performers, with reads served from
the last committed frame and writes held back, then commits once.
Lifecycle events (die, become, spawn) are recorded while evaluating and
applied between the last task and the commit, so results never depend on
iteration order within a tick.
"""
from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from . import ast, rng
from .memory import MemoryImage, StorageBackend, TraceFrame
from .units import parse_unit, same_dimension

SECONDS = parse_unit("s")
METERS = parse_unit("m")
_DEFAULT_EDGE = 1000.0
# The most blocks one frame may hold, World and Patches included; a spawn or
# populate past it aborts instead of allocating without end.
MAX_ANIMATS = 1_000_000


class ConfigError(Exception):
    pass


class RuntimeAbort(Exception):
    """Unrecoverable evaluation failure; the trace keeps all completed
    frames."""

    def __init__(self, message, tick=None, stage=None, pos=None):
        super().__init__(message)
        self.message = message
        self.tick = tick
        self.stage = stage
        self.pos = pos

    def render(self) -> str:
        parts = [f"tick {self.tick}" if self.tick else None,
                 self.stage,
                 f"line {self.pos.line}" if self.pos else None]
        context = ", ".join(p for p in parts if p)
        return f"{self.message} ({context})" if context else self.message


@dataclass(frozen=True)
class SimulationConfig:
    """Run parameters; lengths in meters, the time step in seconds."""

    delta_time: float
    steps: int
    seed: int
    world_width: float = _DEFAULT_EDGE
    world_height: float = _DEFAULT_EDGE
    patch_size: float = _DEFAULT_EDGE
    populations: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        if self.delta_time <= 0:
            raise ConfigError("delta_time must be positive")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("world_width", "world_height", "patch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for extent in (self.world_width, self.world_height):
            patches = extent / self.patch_size
            if abs(patches - round(patches)) > 1e-9 or round(patches) < 1:
                raise ConfigError(
                    "world extent must be a whole number of patches, got "
                    f"{extent} / {self.patch_size}"
                )

    @cached_property
    def patches_x(self) -> int:
        return round(self.world_width / self.patch_size)

    @cached_property
    def patches_y(self) -> int:
        return round(self.world_height / self.patch_size)


_QUANTITY_KEYS = {
    "delta_time": SECONDS,
    "world_width": METERS,
    "world_height": METERS,
    "patch_size": METERS,
}
_INTEGER_KEYS = ("steps", "seed")


def parse_config(text: str) -> SimulationConfig:
    """Line-based ``key = value`` plus ``populate N Stage`` lines."""
    settings: dict[str, float | int] = {}
    populations: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("populate"):
            parts = line.split()
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: expected 'populate <count> <stage>'")
            try:
                count = int(parts[1])
            except ValueError:
                raise ConfigError(f"line {lineno}: bad count {parts[1]!r}") from None
            if count < 0:
                raise ConfigError(f"line {lineno}: population must be non-negative")
            populations.append((count, parts[2]))
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in settings:
            raise ConfigError(f"line {lineno}: duplicate {key!r}")
        if key in _INTEGER_KEYS:
            try:
                settings[key] = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer") from None
        elif key in _QUANTITY_KEYS:
            settings[key] = _parse_quantity(value, _QUANTITY_KEYS[key], lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown setting {key!r}")
    for key in ("delta_time", "steps", "seed"):
        if key not in settings:
            raise ConfigError(f"missing required setting {key!r}")
    return SimulationConfig(populations=tuple(populations), **settings)


def _parse_quantity(value: str, expected, lineno: int) -> float:
    parts = value.split()
    if len(parts) not in (1, 2):
        raise ConfigError(f"line {lineno}: expected '<number> <unit>'")
    try:
        magnitude = float(parts[0])
    except ValueError:
        raise ConfigError(f"line {lineno}: bad number {parts[0]!r}") from None
    if len(parts) == 1:
        return magnitude
    try:
        unit = parse_unit(parts[1])
    except Exception:
        raise ConfigError(f"line {lineno}: bad unit {parts[1]!r}") from None
    if not same_dimension(unit, expected):
        raise ConfigError(f"line {lineno}: {parts[1]!r} has the wrong dimension")
    return magnitude * unit.scale


_IN_PROGRESS = object()

# Samplers by distribution node, fed the node's children in order.  They
# are looked up by name on ``rng`` at every draw so that a wrapper
# installed there sees every draw.
_SAMPLERS = {
    ast.UniformDist: "sample_uniform",
    ast.NormalDist: "sample_normal",
    ast.GammaDist: "sample_gamma",
    ast.LogLogisticDist: "sample_loglogistic",
}


def _divide(left: float, right: float) -> float:
    if right == 0.0:
        raise ZeroDivisionError("division by zero")
    return left / right


# Operators, builtin functions and relations by name and operand count.
_CALLS = {
    ("-", 1): operator.neg,
    ("+", 2): operator.add,
    ("-", 2): operator.sub,
    ("*", 2): operator.mul,
    ("/", 2): _divide,
    ("^", 2): math.pow,
    ("cos", 1): math.cos,
    ("sin", 1): math.sin,
    ("tan", 1): math.tan,
    ("exp", 1): math.exp,
    ("ln", 1): math.log,
    ("log", 1): math.log10,
    ("sqrt", 1): math.sqrt,
    ("abs", 1): abs,
    ("floor", 1): lambda value: float(math.floor(value)),
    ("ceiling", 1): lambda value: float(math.ceil(value)),
    ("min", 2): min,
    ("max", 2): max,
    ("<", 2): operator.lt,
    ("<=", 2): operator.le,
    (">", 2): operator.gt,
    (">=", 2): operator.ge,
}


def _lift(x):
    """``x`` as a closure; ``x`` is a closure already or a constant."""
    return x if callable(x) else lambda b, m: x


class Engine:
    """Runs a checked model; all numeric state is SI floats."""

    def __init__(self, model: ast.Model, config: SimulationConfig, backend: StorageBackend):
        self.model = model
        self.config = config
        self.backend = backend
        self.image = MemoryImage()
        self.rng_state = rng.seed_state(config.seed)
        self.world_base: int | None = None
        # Filled in place, so compiled closures may hold on to the list.
        self.patch_bases: list[int] = []
        self.slots: dict[str, dict[str, int]] = {}
        self.sizes: dict[str, int] = {}
        for agent in model.agents:
            self.slots[agent.name] = {
                declaration.identifier: slot
                for slot, declaration in enumerate(agent.all_attributes)
            }
            self.sizes[agent.name] = ast.size_of_agent(agent)
        self.stages = {stage.name: stage for stage in model.stages}
        # One (kind, perform) per task, in declaration order.
        self.plan: list[tuple[str, Callable[[int, list], None]]] = [
            (task.agent, _Compiler(self, task).perform()) for task in model.tasks
        ]
        self.populations: list[tuple[int, ast.StageDefinition]] = []
        for count, name in config.populations:
            if name not in self.stages:
                raise ConfigError(f"populate names unknown stage {name!r}")
            self.populations.append((count, self.stages[name]))

    # -- setup ---------------------------------------------------------

    def setup(self) -> TraceFrame:
        world = self.model.world
        patch = self.model.patch
        blocks = (world is not None) + sum(count for count, _ in self.populations)
        if patch is not None:
            blocks += self.config.patches_x * self.config.patches_y
        if blocks > MAX_ANIMATS:
            raise RuntimeAbort(
                f"setup needs {blocks} animats, over the ceiling of {MAX_ANIMATS}",
                tick=1,
            )
        if world is not None:
            self.world_base = self._create(world, {})
        if patch is not None:
            for _ in range(self.config.patches_x * self.config.patches_y):
                self.patch_bases.append(self._create(patch, {}))
        for count, stage in self.populations:
            for _ in range(count):
                self.rng_state, x = rng.sample_uniform(
                    self.rng_state, 0.0, self.config.world_width
                )
                self.rng_state, y = rng.sample_uniform(
                    self.rng_state, 0.0, self.config.world_height
                )
                self._create(stage, {"x": x, "y": y})
        return self._commit()

    def _create(self, agent: ast.AgentDefinition, inherited: dict[str, float]) -> int:
        """Allocate a block for a new ``agent`` and write each declaration's
        value: the inherited one if given, else its scaled initial value."""
        base = self.image.allocate(agent.name, self.sizes[agent.name])
        for slot, declaration in enumerate(agent.all_attributes):
            if declaration.identifier in inherited:
                self.image.write(base + slot, inherited[declaration.identifier])
            elif declaration.initial is not None:
                initial = declaration.initial
                self.image.write(base + slot, initial.value * initial.unit.scale)
        return base

    def _commit(self) -> TraceFrame:
        frame = self.image.store(self.backend, self.rng_state)
        self.image.apply_frame(frame, self.image.ticks + 1)
        return frame

    def resume(self, tick: int) -> None:
        """Continue a stored run from the state after ``tick``."""
        self.rng_state = self.image.load(self.backend, tick)
        self.world_base = None
        self.patch_bases.clear()
        for base, (kind, _) in sorted(self.image.animats.items()):
            if kind == "World":
                self.world_base = base
            elif kind == "Patch":
                self.patch_bases.append(base)

    # -- stepping ------------------------------------------------------

    def step(self) -> TraceFrame:
        events: list[tuple] = []
        performers: dict[str, list[int]] = {}
        for base in sorted(self.image.animats):
            performers.setdefault(self.image.animats[base][0], []).append(base)
        for kind, perform in self.plan:
            for base in performers.get(kind, ()):
                perform(base, events)
        self._apply_events(events)
        return self._commit()

    def run(self) -> list[tuple[int, str, int]]:
        """Full run: initial frame plus ``steps`` ticks; returns
        (tick, stage, count) rows for every declared stage."""
        rows: list[tuple[int, str, int]] = []
        frame = self.setup()
        rows.extend(self._census(frame, 1))
        for tick in range(2, self.config.steps + 2):
            frame = self.step()
            rows.extend(self._census(frame, tick))
        return rows

    def _census(self, frame: TraceFrame, tick: int) -> list[tuple[int, str, int]]:
        counts = {stage.name: 0 for stage in self.model.stages}
        for kind, _ in frame.animats.values():
            if kind in counts:
                counts[kind] += 1
        return [(tick, name, count) for name, count in counts.items()]

    def _apply_events(self, events: list) -> None:
        for event in events:
            match event:
                case ("die", base):
                    self.image.kill(base)
                case ("become", base, kind, target):
                    self._create(target, self._pending(base, kind, self.slots[kind]))
                    self.image.kill(base)
                case ("spawn", base, kind, stage, count, pos):
                    blocks = self.image.live + count
                    if blocks > MAX_ANIMATS:
                        raise RuntimeAbort(
                            f"spawn of {count} would hold {blocks} animats, "
                            f"over the ceiling of {MAX_ANIMATS}",
                            tick=self.image.ticks + 1, stage=kind, pos=pos,
                        )
                    for _ in range(count):
                        self._create(stage, self._pending(base, kind, ("x", "y")))

    def _pending(self, base: int, kind: str, names: Iterable[str]) -> dict[str, float]:
        """The values the ``kind`` block at ``base`` will commit for ``names``."""
        slots = self.slots[kind]
        image = self.image
        return {
            name: image.next[base + slots[name]] + image.delta[base + slots[name]]
            for name in names
        }


def _config_error(message: str, pos) -> ConfigError:
    return ConfigError(f"line {pos.line}: {message}" if pos else message)


class _Compiler:
    """Compiles one task's action, performed by agents of ``kind``.

    An activation is the pair ``(b, m)``: the performer's base address and
    its list of utility values, indexed like the action's utilities and
    ``None`` until first read.  An expression compiles to a float when it
    is constant and else to a closure ``f(b, m) -> float``.  Closures read
    ``image.vals``, ``image.next`` and ``image.delta`` when they run,
    because every commit replaces those dicts.
    """

    def __init__(self, engine: Engine, task: ast.TaskDefinition):
        self.engine = engine
        # Closures reach the engine, which holds them, only through this
        # proxy and never hold the compiler, so that a dropped engine is
        # freed, image and all, without waiting for the cycle collector.
        self.live = weakref.proxy(engine)
        self.kind = kind = task.agent
        self.action = engine.model.action_named(task.action)
        if kind not in engine.slots:
            raise _config_error(f"task names unknown agent {kind!r}", task.pos)
        if self.action is None:
            raise _config_error(f"task names unknown action {task.action!r}", task.pos)
        image = engine.image

        def fail(message: str, pos) -> None:
            raise RuntimeAbort(message, tick=image.ticks + 1, stage=kind, pos=pos)

        self.fail = fail
        self.index = {u.identifier: i for i, u in enumerate(self.action.utilities)}
        # One cell per utility, to hold its compiled expression.
        self.cells: list[list] = [[] for _ in self.action.utilities]
        self.targets = dict(task.bindings)
        # Each bound expression is compiled once, with no placeholder bound
        # inside it: substitution is a single pass.
        self.bindings: dict = {}
        self.bindings = {name: self.expression(e) for name, e in task.bindings}

    def perform(self) -> Callable[[int, list], None]:
        """The task as one closure ``perform(base, events)``."""
        action = self.action
        for cell, utility in zip(self.cells, action.utilities):
            cell.append(_lift(self.expression(utility.expression)))
        writes = tuple(self.definition(d) for d in action.definitions)
        directives = tuple(self.directive(d) for d in action.lifecycle)
        blank = [None] * len(action.utilities)

        def perform(base, events):
            memo = blank.copy()
            for write in writes:
                write(base, memo)
            for directive in directives:
                directive(base, memo, events)

        return perform

    def definition(self, definition: ast.AttributeDefinition):
        value, pos = self.expression(definition.expression), definition.pos
        if definition.decorator is ast.Decorator.DIFFERENTIAL:
            value = self.combine(operator.mul, [value, self.engine.config.delta_time], pos)
        value, address = _lift(value), self.address(definition.variable, pos)
        image, fail, name = self.engine.image, self.fail, definition.variable.identifier
        store = image.write if definition.decorator is ast.Decorator.ASSIGN else image.write_delta

        def write(b, m):
            v = value(b, m)
            a = address(b)
            store(a, v)
            committed = image.next[a] + image.delta[a]
            if not math.isfinite(committed):
                fail(f"non-finite value {committed} for {name!r}", pos)

        return write

    def directive(self, directive: ast.LifecycleDirective):
        holds, kind, pos = _lift(self.guard(directive.guard)), self.kind, directive.pos
        if kind not in self.engine.stages:
            raise _config_error("lifecycle directives need a stage performer", pos)
        match directive:
            case ast.Die():
                event = lambda b, m: ("die", b)
            case ast.StageTransition(target=target):
                stage = self.stage(target, pos)
                event = lambda b, m: ("become", b, kind, stage)
            case ast.Spawn(stage=name, count=count):
                stage, count, fail = self.stage(name, pos), _lift(self.expression(count)), self.fail

                def event(b, m):
                    value = count(b, m)
                    if not math.isfinite(value) or value < 0:
                        fail(f"spawn count {value} out of range", pos)
                    return ("spawn", b, kind, stage, math.floor(value), pos)

        def act(b, m, events):
            if holds(b, m):
                events.append(event(b, m))

        return act

    def guard(self, guard: ast.Comparison | None):
        if guard is None:
            return True
        operands = [self.expression(guard.left), self.expression(guard.right)]
        return self.combine(_CALLS[guard.relop, 2], operands, guard.pos)

    def stage(self, name: str, pos) -> ast.StageDefinition:
        if name not in self.engine.stages:
            raise _config_error(f"unknown stage {name!r}", pos)
        return self.engine.stages[name]

    def expression(self, e: ast.Expression):
        match e:
            case ast.Literal(value=value, unit=unit):
                return value * unit.scale
            case ast.DeltaTime():
                return self.engine.config.delta_time
            case ast.AttributeVariable():
                return self.read(e)
            case ast.UtilityVariable(identifier=name):
                return self.utility(name, e.pos)
            case ast.Arithmetics(op=name, args=args) | ast.Apply(function=name, args=args):
                call = _CALLS.get((name, len(args)))
                if call is None:
                    raise _config_error(f"no {name!r} of {len(args)} operand(s)", e.pos)
                prefix = f"{name}: " if isinstance(e, ast.Apply) else ""
                return self.combine(call, [self.expression(a) for a in args], e.pos, prefix)
            case ast.EnUnit(expr=inner, unit=unit) | ast.DeUnit(expr=inner, unit=unit):
                inner = self.expression(inner)
                if unit.scale == 1.0:  # x * 1.0 and x / 1.0 are x exactly
                    return inner
                call = operator.mul if isinstance(e, ast.EnUnit) else operator.truediv
                return self.combine(call, [inner, unit.scale], e.pos)
            case ast.Direction(attribute=attribute):
                return self.direction(attribute, e.pos)
            case ast.PlaceholderRef(identifier=name):
                if name not in self.bindings:
                    raise _config_error(f"placeholder {name!r} is not bound", e.pos)
                return self.bindings[name]
        engine, sampler = self.live, _SAMPLERS[type(e)]

        def sample(first: float, second: float) -> float:
            engine.rng_state, value = getattr(rng, sampler)(engine.rng_state, first, second)
            return value

        # Lifted operands are never folded: every activation draws.
        operands = [_lift(self.expression(child)) for child in ast.children(e)]
        return self.combine(sample, operands, e.pos)

    def combine(self, call, operands: list, pos, prefix: str = ""):
        """``call`` of one or two compiled operands, evaluated left to
        right; a ``ValueError``, ``OverflowError`` or ``ZeroDivisionError``
        from ``call`` aborts.  Folded to a constant when every operand is
        one and ``call`` does not fail on them."""
        fail, f = self.fail, _lift(operands[0])
        failures = (ValueError, OverflowError, ZeroDivisionError)
        if len(operands) == 1:

            def combined(b, m):
                value = f(b, m)
                try:
                    return call(value)
                except failures as err:
                    fail(prefix + str(err), pos)

        elif not callable(operands[1]):
            c = operands[1]

            def combined(b, m):
                left = f(b, m)
                try:
                    return call(left, c)
                except failures as err:
                    fail(prefix + str(err), pos)

        else:
            g = _lift(operands[1])

            def combined(b, m):
                left = f(b, m)
                right = g(b, m)
                try:
                    return call(left, right)
                except failures as err:
                    fail(prefix + str(err), pos)

        if any(callable(x) for x in operands):
            return combined
        try:
            return combined(None, None)
        except RuntimeAbort:
            return combined

    def utility(self, name: str, pos):
        if name not in self.index:
            raise _config_error(f"unknown utility {name!r}", pos)
        index, cell, fail = self.index[name], self.cells[self.index[name]], self.fail

        def utility(b, m):
            value = m[index]
            if value is None:
                m[index] = _IN_PROGRESS
                value = m[index] = cell[0](b, m)
            elif value is _IN_PROGRESS:
                fail(f"utility {name!r} depends on itself", pos)
            return value

        return utility

    def slot(self, kind: str, name: str, pos) -> int:
        slots = self.engine.slots.get(kind)
        if slots is None:
            raise _config_error(f"the model declares no {kind}", pos)
        if name not in slots:
            raise _config_error(f"{kind} has no attribute {name!r}", pos)
        return slots[name]

    def address(self, variable, pos):
        """Closure from the performer's base to the address ``variable``
        names."""
        if isinstance(variable, ast.Placeholder):
            variable = self.targets.get(variable.identifier)
            if not isinstance(variable, ast.AttributeVariable):
                raise _config_error("a placeholder target is not bound to an attribute", pos)
        if variable.agent == "world":
            slot, engine = self.slot("World", variable.identifier, pos), self.live
            return lambda b: engine.world_base + slot
        if variable.agent is None or self.kind == "Patch":
            slot = self.slot(self.kind, variable.identifier, pos)
            return lambda b: b + slot
        slot = self.slot("Patch", variable.identifier, pos)
        cell, patch_bases = self.cell(pos), self.engine.patch_bases
        columns = self.engine.config.patches_x

        def here(b):
            _, _, column, row = cell(b)
            return patch_bases[row * columns + column] + slot

        return here

    def read(self, variable: ast.AttributeVariable):
        image = self.engine.image
        if variable.agent is not None:
            address = self.address(variable, variable.pos)
            return lambda b, m: image.read(address(b))
        slot = self.slot(self.kind, variable.identifier, variable.pos)

        def read(b, m):
            try:
                return image.vals[b + slot]
            except KeyError:
                return image.read(b + slot)  # raises AddressError

        return read

    def cell(self, pos):
        """Closure from the performer's base to its committed position and
        the column and row of the patch under it, clipped to the grid."""
        if self.engine.model.patch is None:
            raise _config_error("the model declares no Patch", pos)
        xs, ys = self.slot(self.kind, "x", pos), self.slot(self.kind, "y", pos)
        image, config = self.engine.image, self.engine.config
        edge, last_x, last_y = config.patch_size, config.patches_x - 1, config.patches_y - 1

        def cell(b):
            x, y = image.read(b + xs), image.read(b + ys)
            px = min(max(math.floor(x / edge), 0), last_x)
            py = min(max(math.floor(y / edge), 0), last_y)
            return x, y, px, py

        return cell

    def direction(self, attribute: str, pos):
        """Heading to the centre of the richest patch around the performer,
        0 when its own patch is strictly richest; ties go to the first in
        row-major scan order."""
        slot, cell = self.slot("Patch", attribute, pos), self.cell(pos)
        image, patch_bases, config = self.engine.image, self.engine.patch_bases, self.engine.config
        columns, rows, edge = config.patches_x, config.patches_y, config.patch_size

        def direction(b, m):
            x, y, px, py = cell(b)
            best, best_value = None, -math.inf
            for cy in (py - 1, py, py + 1):
                for cx in (px - 1, px, px + 1):
                    if 0 <= cx < columns and 0 <= cy < rows:
                        value = image.read(patch_bases[cy * columns + cx] + slot)
                        if value > best_value:
                            best, best_value = (cx, cy), value
            if best == (px, py):
                return 0.0
            center_x = (best[0] + 0.5) * edge
            center_y = (best[1] + 0.5) * edge
            return math.atan2(center_y - y, center_x - x)

        return direction
