"""Synchronous simulation engine.

The model is resolved once, when the engine is built: each task's action
is instantiated with its bindings, and attribute slots, block sizes and
the configured populations are looked up.  Every tick then runs all tasks
in declaration order over all performers, with reads served from the last
committed frame and writes held back, then commits once.  Lifecycle
events (die, become, spawn) are recorded while evaluating and applied
between the last task and the commit, so results never depend on
iteration order within a tick.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from . import ast, rng
from .memory import MemoryImage, StorageBackend, TraceFrame
from .units import parse_unit, same_dimension

SECONDS = parse_unit("s")
METERS = parse_unit("m")
_DEFAULT_EDGE = 1000.0


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


def substitute(e: ast.Expression, bindings: dict[str, ast.Expression]) -> ast.Expression:
    """Replace every placeholder reference with its bound expression; the
    bound expressions themselves are not substituted again."""
    if isinstance(e, ast.PlaceholderRef):
        return bindings[e.identifier]
    return ast.map_children(e, lambda child: substitute(child, bindings))


def instantiate_task(
    action: ast.ActionDefinition, bindings: dict[str, ast.Expression]
) -> ast.ActionDefinition:
    """One syntactic pass: placeholders in expressions and in definition
    targets are replaced by the task's bound expressions."""

    def target(variable):
        if isinstance(variable, ast.Placeholder):
            return bindings[variable.identifier]
        return variable

    definitions = tuple(
        dataclasses.replace(
            d, variable=target(d.variable), expression=substitute(d.expression, bindings)
        )
        for d in action.definitions
    )
    utilities = tuple(
        dataclasses.replace(u, expression=substitute(u.expression, bindings))
        for u in action.utilities
    )

    def guarded(comparison):
        if comparison is None:
            return None
        return dataclasses.replace(
            comparison,
            left=substitute(comparison.left, bindings),
            right=substitute(comparison.right, bindings),
        )

    lifecycle = []
    for directive in action.lifecycle:
        directive = dataclasses.replace(directive, guard=guarded(directive.guard))
        if isinstance(directive, ast.Spawn):
            directive = dataclasses.replace(
                directive, count=substitute(directive.count, bindings)
            )
        lifecycle.append(directive)
    return dataclasses.replace(
        action, definitions=definitions, utilities=utilities, lifecycle=tuple(lifecycle)
    )


_IN_PROGRESS = object()

# Samplers by distribution node, fed the node's children in order.  They
# are looked up by name on ``rng`` so that a wrapper installed there sees
# every draw.
_SAMPLERS = {
    ast.UniformDist: "sample_uniform",
    ast.NormalDist: "sample_normal",
    ast.GammaDist: "sample_gamma",
    ast.LogLogisticDist: "sample_loglogistic",
}


@dataclass
class _Activation:
    """One action evaluation: performer identity plus utility cache."""

    base: int
    kind: str
    utilities: dict[str, ast.UtilityDefinition]
    cache: dict[str, float] = field(default_factory=dict)


class Engine:
    """Runs a checked model; all numeric state is SI floats."""

    def __init__(self, model: ast.Model, config: SimulationConfig, backend: StorageBackend):
        self.model = model
        self.config = config
        self.backend = backend
        self.image = MemoryImage()
        self.rng_state = rng.seed_state(config.seed)
        self.slots: dict[str, dict[str, int]] = {}
        self.sizes: dict[str, int] = {}
        for agent in model.agents:
            self.slots[agent.name] = {
                declaration.identifier: slot
                for slot, declaration in enumerate(agent.all_attributes)
            }
            self.sizes[agent.name] = ast.size_of_agent(agent)
        self.plan: list[tuple[str, ast.ActionDefinition, dict[str, ast.UtilityDefinition]]] = []
        for task in model.tasks:
            action = model.action_named(task.action)
            # A checked action has placeholders only where its task binds them.
            if task.bindings:
                action = instantiate_task(action, dict(task.bindings))
            utilities = {u.identifier: u for u in action.utilities}
            self.plan.append((task.agent, action, utilities))
        stages = {stage.name: stage for stage in model.stages}
        self.populations: list[tuple[int, ast.StageDefinition]] = []
        for count, name in config.populations:
            if name not in stages:
                raise ConfigError(f"populate names unknown stage {name!r}")
            self.populations.append((count, stages[name]))
        self.world_base: int | None = None
        self.patch_bases: list[int] = []

    # -- setup ---------------------------------------------------------

    def setup(self) -> TraceFrame:
        world = self.model.world
        if world is not None:
            self.world_base = self._create(world, {})
        patch = self.model.patch
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
        self.patch_bases = []
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
        for kind, action, utilities in self.plan:
            for base in performers.get(kind, ()):
                self._perform(action, _Activation(base, kind, utilities), events)
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

    def _perform(self, action, frame: _Activation, events: list) -> None:
        for definition in action.definitions:
            value = self.evaluate(definition.expression, frame)
            variable = definition.variable
            address = self._attribute_address(variable, frame)
            if definition.decorator is ast.Decorator.ASSIGN:
                self.image.write(address, value)
            elif definition.decorator is ast.Decorator.DELTA:
                self.image.write_delta(address, value)
            else:
                self.image.write_delta(address, value * self.config.delta_time)
        for directive in action.lifecycle:
            self._lifecycle(directive, frame, events)

    def _lifecycle(self, directive, frame: _Activation, events: list) -> None:
        guard = directive.guard
        if guard is not None and not self._holds(guard, frame):
            return
        match directive:
            case ast.Die():
                events.append(("die", frame.base))
            case ast.StageTransition(target=target):
                events.append(("become", frame.base, frame.kind, target))
            case ast.Spawn(stage=stage, count=count):
                value = self.evaluate(count, frame)
                if not math.isfinite(value) or value < 0:
                    self._abort(f"spawn count {value} out of range", frame, directive.pos)
                events.append(("spawn", frame.base, frame.kind, stage, math.floor(value)))

    def _holds(self, guard: ast.Comparison, frame: _Activation) -> bool:
        left = self.evaluate(guard.left, frame)
        right = self.evaluate(guard.right, frame)
        match guard.relop:
            case "<":
                return left < right
            case "<=":
                return left <= right
            case ">":
                return left > right
            case _:
                return left >= right

    def _apply_events(self, events: list) -> None:
        for event in events:
            match event:
                case ("die", base):
                    self.image.kill(base)
                case ("become", base, kind, target):
                    inherited = self._pending(base, kind, self.slots[kind])
                    self._create(self.model.agent_named(target), inherited)
                    self.image.kill(base)
                case ("spawn", base, kind, stage, count):
                    for _ in range(count):
                        position = self._pending(base, kind, ("x", "y"))
                        self._create(self.model.agent_named(stage), position)

    def _pending(self, base: int, kind: str, names: Iterable[str]) -> dict[str, float]:
        """The values the ``kind`` block at ``base`` will commit for ``names``."""
        slots = self.slots[kind]
        image = self.image
        return {
            name: image.next[base + slots[name]] + image.delta[base + slots[name]]
            for name in names
        }

    # -- evaluation ----------------------------------------------------

    def evaluate(self, e: ast.Expression, frame: _Activation) -> float:
        match e:
            case ast.Literal(value=value, unit=unit):
                return value * unit.scale
            case ast.DeltaTime():
                return self.config.delta_time
            case ast.AttributeVariable():
                return self.image.read(self._attribute_address(e, frame))
            case ast.UtilityVariable(identifier=name):
                return self._utility(name, frame, e.pos)
            case ast.Arithmetics(op=op, args=args):
                return self._arithmetic(op, args, frame, e.pos)
            case ast.Apply(function=function, args=args):
                return self._call(function, args, frame, e.pos)
            case ast.EnUnit(expr=inner, unit=unit):
                return self.evaluate(inner, frame) * unit.scale
            case ast.DeUnit(expr=inner, unit=unit):
                return self.evaluate(inner, frame) / unit.scale
            case ast.Direction(attribute=attribute):
                return self._direction(attribute, frame)
        sampler = _SAMPLERS.get(type(e))
        if sampler is None:
            raise RuntimeAbort(f"cannot evaluate {type(e).__name__}")
        args = [self.evaluate(child, frame) for child in ast.children(e)]
        try:
            self.rng_state, value = getattr(rng, sampler)(self.rng_state, *args)
        except ValueError as err:
            self._abort(str(err), frame, e.pos)
        return value

    def _utility(self, name: str, frame: _Activation, pos) -> float:
        cached = frame.cache.get(name)
        if cached is _IN_PROGRESS:
            self._abort(f"utility {name!r} depends on itself", frame, pos)
        if cached is not None:
            return cached
        frame.cache[name] = _IN_PROGRESS
        value = self.evaluate(frame.utilities[name].expression, frame)
        frame.cache[name] = value
        return value

    def _arithmetic(self, op, args, frame: _Activation, pos) -> float:
        if len(args) == 1:
            return -self.evaluate(args[0], frame)
        left = self.evaluate(args[0], frame)
        right = self.evaluate(args[1], frame)
        try:
            match op:
                case "+":
                    return left + right
                case "-":
                    return left - right
                case "*":
                    return left * right
                case "/":
                    if right == 0.0:
                        self._abort("division by zero", frame, pos)
                    return left / right
                case _:
                    return math.pow(left, right)
        except (ValueError, OverflowError, ZeroDivisionError) as err:
            self._abort(str(err) or "arithmetic failure", frame, pos)

    def _call(self, function, args, frame: _Activation, pos) -> float:
        values = [self.evaluate(a, frame) for a in args]
        try:
            match function:
                case "cos":
                    return math.cos(values[0])
                case "sin":
                    return math.sin(values[0])
                case "tan":
                    return math.tan(values[0])
                case "exp":
                    return math.exp(values[0])
                case "ln":
                    return math.log(values[0])
                case "log":
                    return math.log10(values[0])
                case "sqrt":
                    return math.sqrt(values[0])
                case "abs":
                    return abs(values[0])
                case "floor":
                    return float(math.floor(values[0]))
                case "ceiling":
                    return float(math.ceil(values[0]))
                case "min":
                    return min(values)
                case _:
                    return max(values)
        except (ValueError, OverflowError) as err:
            self._abort(f"{function}: {err}", frame, pos)

    def _attribute_address(self, e: ast.AttributeVariable, frame: _Activation) -> int:
        if e.agent is None:
            return frame.base + self.slots[frame.kind][e.identifier]
        if e.agent == "world":
            return self.world_base + self.slots["World"][e.identifier]
        if frame.kind == "Patch":
            return frame.base + self.slots["Patch"][e.identifier]
        x = self.image.read(frame.base + self.slots[frame.kind]["x"])
        y = self.image.read(frame.base + self.slots[frame.kind]["y"])
        return self._patch_base_at(x, y) + self.slots["Patch"][e.identifier]

    def _patch_index(self, position: float, extent: int) -> int:
        index = math.floor(position / self.config.patch_size)
        return min(max(index, 0), extent - 1)

    def _patch_base_at(self, x: float, y: float) -> int:
        px = self._patch_index(x, self.config.patches_x)
        py = self._patch_index(y, self.config.patches_y)
        return self.patch_bases[py * self.config.patches_x + px]

    def _direction(self, attribute: str, frame: _Activation) -> float:
        x = self.image.read(frame.base + self.slots[frame.kind]["x"])
        y = self.image.read(frame.base + self.slots[frame.kind]["y"])
        px = self._patch_index(x, self.config.patches_x)
        py = self._patch_index(y, self.config.patches_y)
        slot = self.slots["Patch"][attribute]
        best = None
        best_value = -math.inf
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                cx, cy = px + dx, py + dy
                if not (0 <= cx < self.config.patches_x and 0 <= cy < self.config.patches_y):
                    continue
                value = self.image.read(
                    self.patch_bases[cy * self.config.patches_x + cx] + slot
                )
                if value > best_value:
                    best_value = value
                    best = (cx, cy)
        if best == (px, py):
            return 0.0
        edge = self.config.patch_size
        center_x = (best[0] + 0.5) * edge
        center_y = (best[1] + 0.5) * edge
        return math.atan2(center_y - y, center_x - x)

    def _abort(self, message: str, frame: _Activation, pos) -> None:
        raise RuntimeAbort(
            message, tick=self.image.ticks + 1, stage=frame.kind, pos=pos
        )
