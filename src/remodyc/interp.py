"""Synchronous simulation engine.

Building an engine compiles the model: every name is resolved (one that
does not resolve raises ``ConfigError``), constants are folded to SI
values, and each task becomes the Python source of one function that
performs it for all its performers.  Each engine generates the source
of all its tasks as one module.  A process keeps the code object of the
last source text it compiled, so of engines built one after another from
one model and the same folded constants (seeds, populations and the grid
never reach the text), as a caller builds one per seed, only the first
compiles; the others run the shared code into a namespace of their own.
Every tick runs the tasks in declaration order, with reads served from
the last committed frame and writes held back, then commits once.
Lifecycle events (die, become, spawn) are recorded while evaluating and
applied between the last task and the commit, so results never depend
on iteration order within a tick.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, groupby, islice, product, repeat, starmap
from types import CodeType
from typing import Callable, Iterable, Iterator

from . import ast, rng
from .memory import MemoryImage, StorageBackend, TraceFrame, layout_refusal
from .units import UnitError, parse_unit, same_dimension

SECONDS = parse_unit("s")
METERS = parse_unit("m")
_DEFAULT_EDGE = 1000.0
# The most blocks one frame may hold, World and Patches included; a spawn or
# populate past it aborts instead of allocating without end.
MAX_ANIMATS = 1_000_000
# New blocks are allocated in runs of at most this many rows, which bounds
# the rows built and not yet entered: a populate line's, or those of a run
# of consecutive births of one stage in a tick's events, each birth's row
# made when the run of rows it falls in is.
_ALLOCATION_ROWS = 4096
# The most distinct task sources whose code objects are kept; past it the
# least recently used is dropped.  Not tuned: it is the least that covers
# the callers, each of which builds its engines from one source.  An eggs
# code object keeps ~7.8 KB with its cache entry, and its source text, the
# key, 2.7 KB.
_CODE_CACHE_SIZE = 1


class ConfigError(Exception):
    pass


class RuntimeAbort(Exception):
    """Unrecoverable evaluation failure; the trace keeps all completed
    frames.  Where a performer failed, ``base`` and ``index`` name it, and
    ``attribute`` is what the failing definition targets (its own, the
    World's or the patch's, as the source says), None for a lifecycle
    directive."""

    def __init__(self, message, tick=None, stage=None, pos=None, *,
                 base=None, index=None, attribute=None):
        super().__init__(message)
        self.message = message
        self.tick = tick
        self.stage = stage
        self.pos = pos
        self.base = base
        self.index = index
        self.attribute = attribute

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
        for name in _QUANTITY_KEYS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.delta_time <= 0:
            raise ConfigError("delta_time must be positive")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for count, stage in self.populations:
            if count < 0:
                raise ConfigError(f"population of {stage!r} must be non-negative")
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
        parts = line.split()
        if parts[0] == "populate":
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
    scale = 1.0
    if len(parts) == 2:
        try:
            unit = parse_unit(parts[1])
        except UnitError:
            raise ConfigError(f"line {lineno}: bad unit {parts[1]!r}") from None
        if not same_dimension(unit, expected):
            raise ConfigError(f"line {lineno}: {parts[1]!r} has the wrong dimension")
        scale = unit.scale
    # Scaled first: a finite magnitude may overflow in SI (``1e308 day``).
    quantity = magnitude * scale
    if not math.isfinite(quantity):
        raise ConfigError(f"line {lineno}: {value!r} is not a finite quantity")
    return quantity


# What an operator, builtin or sampler raises on bad operands; it aborts.
_FAILURES = (ValueError, OverflowError, ZeroDivisionError)


def _divide(left: float, right: float) -> float:
    if right == 0.0:
        raise ZeroDivisionError("division by zero")
    return left / right


# Operators, builtin functions and relations by name and operand count: the
# function that folds constants, the text of the operation as a template of
# its operands' texts, and whether it can fail.  The text of one that can
# calls a function of ``_FUNCTIONS`` by name.
# ``min`` and ``max`` are the builtins' own two-item rule as comparisons:
# the first operand unless the second is strictly less (greater), which
# keeps their ties, NaNs and signs of zero at a fraction of a call's cost.
_CALLS = {
    ("-", 1): (operator.neg, "(-{0})", False),
    ("+", 2): (operator.add, "({0} + {1})", False),
    ("-", 2): (operator.sub, "({0} - {1})", False),
    ("*", 2): (operator.mul, "({0} * {1})", False),
    ("/", 2): (_divide, "divide({0}, {1})", True),
    ("^", 2): (math.pow, "pow({0}, {1})", True),
    ("cos", 1): (math.cos, "cos({0})", True),
    ("sin", 1): (math.sin, "sin({0})", True),
    ("tan", 1): (math.tan, "tan({0})", True),
    ("exp", 1): (math.exp, "exp({0})", True),
    ("ln", 1): (math.log, "ln({0})", True),
    ("log", 1): (math.log10, "log10({0})", True),
    ("sqrt", 1): (math.sqrt, "sqrt({0})", True),
    ("abs", 1): (abs, "abs({0})", False),
    ("floor", 1): (lambda value: float(math.floor(value)), "float(floor({0}))", True),
    ("ceiling", 1): (lambda value: float(math.ceil(value)), "float(ceil({0}))", True),
    ("min", 2): (min, "({1} if {1} < {0} else {0})", False),
    ("max", 2): (max, "({1} if {1} > {0} else {0})", False),
    ("<", 2): (operator.lt, "({0} < {1})", False),
    ("<=", 2): (operator.le, "({0} <= {1})", False),
    (">", 2): (operator.gt, "({0} > {1})", False),
    (">=", 2): (operator.ge, "({0} >= {1})", False),
}
# By name, the functions generated code calls; ``floor`` also finds a cell.
_FUNCTIONS = {
    "divide": _divide, "pow": math.pow, "cos": math.cos, "sin": math.sin, "tan": math.tan,
    "exp": math.exp, "ln": math.log, "log10": math.log10, "sqrt": math.sqrt,
    "floor": math.floor, "ceil": math.ceil, "atan2": math.atan2,
}


class Engine:
    """Runs a checked model; all numeric state is SI floats."""

    def __init__(self, model: ast.Model, config: SimulationConfig, backend: StorageBackend):
        self.model = model
        self.config = config
        self.backend = backend
        self.image = MemoryImage()
        self.rng_state = rng.seed_state(config.seed)
        self.slots: dict[str, dict[str, int]] = {}
        # By agent, the row a new block copies; ``+ 0.0`` commits -0 as 0.
        self.templates: dict[str, list[float]] = {}
        for agent in model.agents:
            declarations = agent.all_attributes
            self.slots[agent.name] = {d.identifier: slot for slot, d in enumerate(declarations)}
            if bad := [d for d in declarations if not math.isfinite(initial_value(d))]:
                raise _config_error(f"initializer of {bad[0].identifier!r} is not finite", bad[0].pos)
            self.templates[agent.name] = [initial_value(d) + 0.0 for d in declarations]
        self.stages = tuple(stage.name for stage in model.stages)
        # By (event, kind, stage): the (new, old) slot pairs a new stage block inherits.
        self.inherits = {(event, kind, stage): [(new[n], old[n]) for n in names if n in old]
                         for kind, stage in product(self.stages, repeat=2)
                         for old, new in [(self.slots[kind], self.slots[stage])]
                         for event, names in (("become", new), ("spawn", ("x", "y")))}
        # (kind, run) per task, in order; abort sites by line; the source
        # the tasks were compiled from.
        self.plan, self.sites, self.source = _compile(self)
        for _, name in config.populations:
            if name not in self.stages:
                raise ConfigError(f"populate names unknown stage {name!r}")

    # -- setup ---------------------------------------------------------

    def setup(self) -> TraceFrame:
        """Commit frame 1; a used engine or backend raises ``ValueError`` before any draw."""
        if self.image.ticks or self.image.animats or self.backend.frame_count():
            raise ValueError("setup needs a new engine and an empty backend")
        if message := setup_refusal(self.model, self.config):
            raise RuntimeAbort(message, tick=1)
        for kind, count in fixed_blocks(self.model, self.config).items():
            self._allocate(kind, repeat(self.templates[kind], count))
        for count, stage in self.config.populations:
            self._allocate(stage, self._placed(stage, count))
        return self.image.store(self.backend, self.rng_state)

    def _placed(self, stage: str, count: int) -> Iterator[list[float]]:
        """``count`` new ``stage`` rows, each at a uniform draw of x, then y;
        ``rng_state`` is the state after the last draw once all are made."""
        state, sample = self.rng_state, rng.sample_uniform
        width, height = self.config.world_width, self.config.world_height
        template, xs, ys = self.templates[stage], self.slots[stage]["x"], self.slots[stage]["y"]
        for _ in range(count):
            row = template.copy()
            state, row[xs] = sample(state, 0.0, width)
            state, row[ys] = sample(state, 0.0, height)
            yield row
        self.rng_state = state

    def _allocate(self, kind: str, rows: Iterable[list[float]]) -> None:
        """One new block of ``kind`` per row, holding that row; a row is
        made when its run of ``_ALLOCATION_ROWS`` is."""
        size, rows = len(self.templates[kind]), iter(rows)
        while run := list(islice(rows, _ALLOCATION_ROWS)):
            self.image.allocate(kind, size, run)

    def resume(self, tick: int) -> None:
        """Continue a stored run from the state after ``tick``; a frame that
        is not one of the model (``frame_refusal``) raises ``ValueError``
        with its text, changing nothing."""
        frame = self.backend.load_frame(tick)
        if refusal := frame_refusal(self.model, self.config, frame, tick):
            raise ValueError(refusal)
        self.image.apply_frame(frame, tick)
        self.rng_state = frame.rng_state

    # -- stepping ------------------------------------------------------

    def step(self) -> TraceFrame:
        """Run the tasks on the committed frame, each given the RNG state and
        returning the new one, then apply the events and commit.  After a
        ``RuntimeAbort``, ``rng_state`` is the state before the failing task."""
        events: list[tuple] = []
        vals, performers = self.image.vals, self.image.performers
        try:
            for kind, run in self.plan:
                self.rng_state = run(vals, performers.get(kind, ()), events, self.rng_state)
        except _FAILURES as err:  # the failing line of a task names its abort site
            task = err.__traceback__.tb_next
            site = self.sites.get(task.tb_lineno)
            if site is None:
                raise  # not reached: a line without a site only does float arithmetic, finds a cell, calls field or atan2 or appends an event; none raises
            message, stage, pos, attribute = site
            base = task.tb_frame.f_locals["b"]  # the performer
            del task  # else a cycle: its frame's f_back is this frame
            raise RuntimeAbort(message.format(err), self.image.ticks + 1, stage, pos,
                               base=base, index=self.image.animats[base][1],
                               attribute=attribute)
        self._apply_events(events)
        return self.image.store(self.backend, self.rng_state)

    def run(self) -> list[tuple[int, str, int]]:
        """Full run: initial frame plus ``steps`` ticks; returns
        (tick, stage, count) rows for every declared stage."""
        return [row for rows in self.census() for row in rows]

    def census(self) -> Iterator[list[tuple[int, str, int]]]:
        """The full run as it goes: yields each tick's (tick, stage, count)
        rows, one per declared stage, as soon as that tick commits.  An
        ``OSError`` or ``MemoryError`` becomes a ``RuntimeAbort`` at its tick."""
        try:
            self.setup()
            for tick in range(1, self.config.steps + 2):
                if tick > 1:
                    self.step()
                performers = self.image.performers
                yield [(tick, name, len(performers.get(name, ()))) for name in self.stages]
        except (OSError, MemoryError) as err:
            message = getattr(err, "strerror", None) or str(err) or "out of memory"
            raise RuntimeAbort(message, tick=self.image.ticks + 1) from err

    def _apply_events(self, events: list) -> None:
        """Apply the tick's events in their order: a death kills its block,
        and each maximal run of consecutive births of one stage (becomes and
        spawns, in event order) goes to ``_allocate`` at once, which makes
        each birth's row, and kills a becoming block, as it takes it.  A
        spawn that would take the live blocks, the run's births before it
        included, past ``MAX_ANIMATS`` raises its ``RuntimeAbort`` once those
        births are allocated."""
        kill = self.image.kill
        # A death is ("die", base), a birth (name, base, kind, stage, ...).
        for stage, run in groupby(events, operator.itemgetter(slice(3, 4))):
            if not stage:
                for _, base in run:
                    kill(base)
                continue
            abort: list[RuntimeAbort] = []
            self._allocate(stage[0], chain.from_iterable(starmap(repeat, self._births(run, abort))))
            if abort:
                raise abort.pop()  # its traceback holds this frame, which then holds no abort

    def _births(self, run: Iterable[tuple], abort: list) -> Iterator[tuple[list[float], int]]:
        """``(row, count)`` for each birth of ``run``, a run of births of one
        stage: the stage's template, with what the new blocks inherit from
        the parent's pending values.  A become kills its block first.  A
        spawn over the ceiling ends the run and puts its abort in ``abort``."""
        image, templates, inherits = self.image, self.templates, self.inherits
        pending, kill, killed = image.next, image.kill, image.killed
        blocks = len(image.animats)  # allocated or born in the run
        for name, base, kind, stage, *spawn in run:
            count, pos = spawn or (1, None)
            if name == "become":
                kill(base)
            elif (live := blocks - len(killed) + count) > MAX_ANIMATS:
                abort.append(RuntimeAbort(
                    f"spawn of {count} would hold {live} animats, "
                    f"over the ceiling of {MAX_ANIMATS}",
                    tick=image.ticks + 1, stage=kind, pos=pos,
                    base=base, index=image.animats[base][1],
                ))
                return
            row = templates[stage].copy()
            for new, old in inherits[name, kind, stage]:
                row[new] = pending[base + old] + 0.0
            blocks += count
            yield row, count


def _config_error(message: str, pos) -> ConfigError:
    return ConfigError(f"line {pos.line}: {message}" if pos else message)


def initial_value(declaration: ast.AttributeDeclaration) -> float:
    """A declaration's initial value in SI units, 0 if none; not finite where
    scaling overflows, which ``check_model`` reports and ``Engine()`` refuses."""
    initial = declaration.initial
    return 0.0 if initial is None else initial.value * initial.unit.scale


def fixed_blocks(model: ast.Model, config: SimulationConfig) -> dict[str, int]:
    """By kind, the blocks every frame holds whatever the run: one World and
    the Patch grid, of the kinds the model declares, in allocation order."""
    declared = (model.world, 1), (model.patch, config.patches_x * config.patches_y)
    return {agent.name: blocks for agent, blocks in declared if agent is not None}


def setup_refusal(model: ast.Model, config: SimulationConfig) -> str | None:
    """Why ``Engine.setup`` refuses to allocate the fixed blocks and every
    population, if they pass ``MAX_ANIMATS``; None if not."""
    blocks = sum(fixed_blocks(model, config).values()) + sum(n for n, _ in config.populations)
    message = f"setup needs {blocks} animats, over the ceiling of {MAX_ANIMATS}"
    return message if blocks > MAX_ANIMATS else None


def frame_refusal(model: ast.Model, config: SimulationConfig, frame: TraceFrame, tick: int) -> str | None:
    """Why ``frame``, stored as ``tick``, is not a frame of ``model`` run
    with ``config``, as ``resume`` and ``remodyc replay`` refuse it; None
    if it is one: ``layout_refusal`` with each kind's block size, its slot
    count or one for a kind with none, and ``fixed_blocks``."""
    sizes = {agent.name: max(len(agent.all_attributes), 1) for agent in model.agents}
    return layout_refusal(frame, tick, sizes, fixed_blocks(model, config))


def _compile(engine: Engine) -> tuple[list[tuple[str, Callable]], dict[int, tuple], str]:
    """Each task as a function ``task_<i>(vals, bases, events, state)`` of
    one module run once, by line, the abort site of a line that can
    fail, and the module's source.  A task reads the committed values, the
    World and patches in ``image.performers`` and the RNG state, which it
    returns.  Every write applies the image's commit rule inline, in the
    form ``_forms`` gives it.  A kind's first task that reads ``here``
    or ``direction`` finds the cell under each performer, and its first
    that reads ``direction`` of a slot builds the field; each is kept for
    the kind's later tasks of the tick.  A task fails only
    by raising on a line that names its abort site, which ``Engine.step``
    turns into a ``RuntimeAbort``.  The code object is ``_code``'s, shared
    with the engines before and after this one whose source is the same
    text; the sites, the constants, the cell tables, the fields and the grid's
    dimensions and tables are in this engine's namespace, which keeps no
    engine and no task function: a dropped engine is freed, image and
    all, without the cycle collector, whether or not it aborted."""
    image, config, inf = engine.image, engine.config, math.inf
    columns, rows, edge = config.patches_x, config.patches_y, config.patch_size
    # By padded cell, in row order on the grid with a border of one cell
    # all round, its centre's x and y; by position 0-8 in the 3x3 window
    # ``field`` scans, the step there from the window's centre, which for
    # the centre itself lands below 0.  Filled by the first ``field``, so
    # never for a grid that ``setup`` refuses.
    centre_x: list[float] = []
    centre_y: list[float] = []
    steps: list[int] = []

    def field(vals: dict[int, float], patches: list[int], slot: int) -> list[int]:
        """For each cell in row order, the padded cell of the first richest
        patch of the 3x3 window around it, or a number below 0 if that is
        the cell itself, so that ``direction`` is 0 there: it wins a tie
        with a later patch and loses one with an earlier patch.  Builtin
        ``max`` keeps the first of equal items and ``tuple.index`` finds
        the first; the ``-inf`` border is never richest, as committed
        values are finite.  One grid row at a time, so the windows take
        O(columns) at once."""
        width = columns + 2
        if not centre_x:
            centre_x.extend([(c + 0.5) * edge for c in range(-1, columns + 1)] * (rows + 2))
            centre_y.extend(chain.from_iterable(
                repeat((r + 0.5) * edge, width) for r in range(-1, rows + 1)))
            steps.extend((dy - 1) * width + dx - 1 for dy, dx in map(divmod, range(9), repeat(3)))
            steps[4] = -len(centre_x)
        get, border = vals.__getitem__, [-inf] * width
        padded = chain(
            (border,),
            ([-inf, *map(get, map(slot.__add__, patches[i:i + columns])), -inf]
             for i in range(0, rows * columns, columns)),
            (border,),
        )
        targets: list[int] = []
        above, row = next(padded), next(padded)
        for first, below in zip(range(width + 1, (rows + 1) * width, width), padded):
            windows = list(zip(above, above[1:], above[2:], row, row[1:], row[2:],
                               below, below[1:], below[2:]))
            positions = map(tuple.index, windows, map(max, windows))
            targets += map(operator.add, range(first, first + columns), map(steps.__getitem__, positions))
            above, row = row, below
        return targets

    namespace = {
        "image": image, "rng": rng, "inf": inf, "field": field,
        "grid": (edge, columns, columns - 1, rows - 1, centre_x, centre_y),
        **_FUNCTIONS,
    }
    tasks = list(enumerate(zip(engine.model.tasks, _forms(engine.model))))
    tables: dict = {}  # by kind, its table of cells; by (kind, slot), its field's holder
    lines = [line for i, (task, forms) in tasks
             for line in _Compiler(engine, task, namespace, i, forms, tables).lines]
    source = "\n".join(lines)
    exec(_code(source), namespace)
    # A line that can fail ends in ``# <its abort site>``.
    ends = (line.partition("  # ")[2] for line in lines)
    sites = {n: namespace[site] for n, site in enumerate(ends, 1) if site}
    return [(task.agent, namespace.pop(f"task_{i}")) for i, (task, _) in tasks], sites, source


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str) -> CodeType:
    """The code object of the task module ``source``; equal text compiles
    to an equal code object, which holds constants only."""
    return compile(source, "<remodyc tasks>", "exec", dont_inherit=True)


def _scope(kind: str | None, qualifier: str | None) -> tuple[str, str | None]:
    """The scope (my, world or here) and block kind of an attribute with
    ``qualifier`` (None, "world" or "here") read or written by a ``kind``;
    an attribute of the performer's own kind is ``my``."""
    owner = {None: kind, "world": "World", "here": "Patch"}[qualifier]
    return "my" if owner == kind else qualifier, owner


def _forms(model: ast.Model) -> list[list[tuple[bool | None, bool | None, bool]]]:
    """By task, each definition's commit form in order, ``(assigned, added,
    record)`` for ``_Compiler.commit``: whether the address already holds an
    assignment and a delta this tick, each True at every address, None for
    perhaps and False at none, and whether a later write reads what this
    one records.  An own write hits each block of its kind once a tick (none
    comes or goes before the events) and sets its fact to True; a ``here's``
    or ``world's`` write sets it to ``fact or None``, and meets at a patch an
    earlier performer reached what its task's such writes of the attribute
    left: it sees ``assigned or None`` if one assigns, and ``added or None``,
    and records, if one adds."""
    forms, writes = [], {}  # writes by (kind, attribute), in task order
    for task in model.tasks:
        action = model.action_named(task.action)
        definitions = action.definitions if action else ()
        forms.append([None] * len(definitions))
        shared = {}  # by (kind, attribute): whether the task's here's/world's writes assign, add
        for j, definition in enumerate(definitions):
            scope, kind = _scope(task.agent, definition.variable.agent)
            key, own = (kind, definition.variable.identifier), scope == "my"
            assignment = definition.decorator is ast.Decorator.ASSIGN
            meets = [False, False] if own else shared.setdefault(key, [False, False])
            meets[not assignment] |= not own
            writes.setdefault(key, []).append((own, assignment, meets, forms[-1], j))
    for history in writes.values():
        facts = [False, False]  # assigned, added, as ``meets`` orders them
        for (own, assignment, meets, task_forms, j), later in zip(history, [*history[1:], None]):
            # Any later write reads a delta, and a later delta an assignment,
            # unless an own assignment, which replaces it everywhere, comes first.
            record = later is not None and (not assignment or later[:2] != (True, True))
            assigned, added = (fact or None if met else fact for fact, met in zip(facts, meets))
            task_forms[j] = assigned, added, record or meets[1]
            facts[not assignment] = own or facts[not assignment] or None
    return forms


# The names of the items of the namespace's ``grid``, which a task that
# finds a cell or reads ``direction`` takes as locals.
_GRID = "edge, columns, last_column, last_row, centre_x, centre_y"


def _find_cell(x: str, y: str) -> list[str]:
    """The lines that set ``h`` to the index in ``patches`` of the patch
    under the performer's committed position, read into locals ``x`` and
    ``y``, and keep it.  A position past an edge, however far, is on the
    edge cell.  No operation raises: a committed position is finite and
    the patch edge positive, and ``floor`` only takes a quotient inside the
    grid."""
    return [
        f"qx = {x} / edge",
        f"qy = {y} / edge",
        "h = ((0 if qy < 0.0 else last_row if qy >= last_row else floor(qy)) * columns"
        " + (0 if qx < 0.0 else last_column if qx >= last_column else floor(qx)))",
        "keep(h)",
    ]


def _plus(base: str, slot: int) -> str:
    return f"{base} + {slot}" if slot else base


def _is_name_or_literal(text: str) -> bool:
    """Whether generated ``text`` is a name or a number, which costs nothing
    to repeat; any other expression ends in a bracket."""
    return text.isidentifier() or text[-1].isdigit()


class _Compiler:
    """One task's action, performed by agents of ``kind``, as the lines of a
    function, statement by statement in evaluation order.  Every statement
    targets an attribute.  Expressions are resolved first, to a float if
    constant, else to a tuple tree of slots, utilities, functions and
    samplers; the task's bindings are resolved in the performer's scope,
    where no utility of the action is known, and a name that does not
    resolve raises ``ConfigError``.  The text of an expression inlines
    operations that cannot fail and puts each call that can on a line of
    its own.  A committed value cannot change in a step, so each is read
    into a local once: an own one at the top of the loop, the World's in
    the head, a patch's at the top of the loop too, after the patch's base,
    whatever guards its uses.  The address of an attribute past slot 0 the
    task writes, its own or its patch's, is a local there as well; a patch
    slot it only reads is read as ``vals[tN + s]``.  A utility is a local
    computed at first use; where that use is conditional (a spawn count
    behind a guard), later uses test it for ``None``.  The cell under the
    performer, ``h``, is found at the top of the loop, whatever guards its
    uses, by the kind's first task that uses it, which keeps it in the
    kind's table in ``tables``, as it keeps there the field of each
    ``direction`` slot it reads; the kind's later tasks read them there,
    as ``bases`` is the same list for every task of a kind in a tick."""

    def __init__(self, engine: Engine, task: ast.TaskDefinition, namespace: dict, i: int,
                 forms: list, tables: dict):
        self.engine, self.namespace = engine, namespace
        self.kind = kind = task.agent
        action = engine.model.action_named(task.action)
        if kind not in engine.slots:
            raise _config_error(f"task names unknown agent {kind!r}", task.pos)
        if action is None:
            raise _config_error(f"task names unknown action {task.action!r}", task.pos)
        # By key, the local that holds what the top of the loop finds: the
        # base of the patch under the performer (by 0, as it is the address
        # of slot 0), the address of each patch slot past 0 the task writes
        # (by slot) and the patch's values (by address); and the attributes
        # the task writes as ``here``'s.
        self.found, self.here = {}, {d.variable.identifier for d in action.definitions
                                     if d.variable.agent == "here"}
        # Each bound expression is resolved once, before any placeholder or
        # utility of the action is known: substitution is a single pass.
        self.index, self.bindings = {}, {}
        self.bindings = {name: self.expression(e) for name, e in task.bindings}
        self.index = {u.identifier: i for i, u in enumerate(action.utilities)}
        self.utilities = [self.expression(u.expression) for u in action.utilities]
        self.lines: list[str] = []
        self.depth, self.temps = 2, 0
        self.target = None  # the attribute of the definition being emitted
        # The text of each utility this scope computed, by index.
        self.known: dict = {}
        # By local name, what the head reads: the World's base and values,
        # the patches and the field of each ``direction`` slot.
        self.head: dict[str, str] = {}
        self.maybe, self.computing = set(), set()  # utilities perhaps computed, being computed
        self.located = None  # the position slots that find ``h``, once it is used
        self.tables = tables
        self.reads, self.writes = set(), set()  # own slots read, own slots past 0 written
        for definition, form in zip(action.definitions, forms):
            self.definition(definition, form)
        for directive in action.lifecycle:
            self.directive(directive)
        loop, clear, cell = "    for b in bases:", [], []
        if self.located and kind in tables:
            loop = f"    for b, h in zip(bases, {tables[kind]}):"
        elif self.located:
            tables[kind] = table = self.bind([])
            self.head[_GRID] = "grid"
            self.head["keep"] = f"{table}.append"
            clear = [f"    {table}.clear()"]
            cell = _find_cell(*(self.read(("my", slot)) for slot in self.located))
        # Utilities perhaps computed start as None; an empty loop gets ``pass``.
        if self.maybe:
            cell.append("".join(f"u{u} = " for u in sorted(self.maybe)) + "None")
        top = [f"a{s} = b + {s}" for s in sorted(self.writes)]
        top += [f"r{s} = vals[{f'a{s}' if s in self.writes else _plus('b', s)}]" for s in sorted(self.reads)]
        self.lines[:0] = [f"        {line}" for line in top + cell]
        if not self.lines:
            self.lines.append("        pass")
        head = (f"    {name} = {text}" for name, text in self.head.items())
        self.lines[:0] = [f"def task_{i}(vals, bases, events, state):", *head, *clear, loop]
        self.lines.append("    return state")

    def definition(self, definition: ast.AttributeDefinition, form: tuple) -> None:
        variable, pos = definition.variable, definition.pos
        value = self.expression(definition.expression)
        self.target = variable.identifier
        assignment = definition.decorator is ast.Decorator.ASSIGN
        if definition.decorator is ast.Decorator.DIFFERENTIAL:
            value = self.call(("*", 2), [value, self.engine.config.delta_time], pos)
        address, text = self.address(variable, pos), self.value(value)
        site = self.site(f"non-finite value {{}} for {self.target!r}", pos)
        self.commit(address, text, assignment, form, site)

    def commit(self, address, text: str, assignment: bool, form: tuple, site: str) -> None:
        """``MemoryImage.write`` (``write_delta`` if not ``assignment``) of
        ``text`` to ``address``, inline, in the ``form`` ``_forms`` gives:
        a delta's base is the assignment the address holds, else the
        committed value, and the text adds the delta it holds.  During a
        task no block is new, so ``write_delta``'s new-block branch is never
        needed."""
        self.head["nxt"] = "image.next"
        assigned, added, record = form
        a = self.place(address)
        if not a.isidentifier():  # only ``world + s``, written by another kind
            a = self.let(a)
        if added is not False:
            self.head["delta"] = "image.delta"
        # ``x`` plus the delta ``a`` holds, if it holds one.
        plus = f"{{0}} + delta[{a}]" + ("" if added else f" if {a} in delta else {{0}}")
        if assignment:
            value = self.let(f"{text} + 0.0")
            committed = self.let(plus.format(value)) if added is not False else value
        else:
            if added is not False:  # the deltas' sum, as ``write_delta`` adds it
                value = plus.format(text)
                value = self.let(value) if record or added is None else f"({value})"
            else:
                value = text if not record or _is_name_or_literal(text) else self.let(text)
            if assigned is not False:
                self.head["assigned"] = "image.assigned"
            read = None if assigned else self.read(address)
            base = {True: f"assigned[{a}]", False: read,
                    None: f"(assigned[{a}] if {a} in assigned else {read})"}[assigned]
            committed = self.let(f"{base} + {value}")
        # ``c - c`` is 0.0 for a finite ``c``, and NaN, which is true, for an
        # infinity or a NaN.
        self.emit(f"if {committed} - {committed}: raise ValueError({committed})  # {site}")
        self.emit(f"nxt[{a}] = {committed}")
        if record:
            store = "assigned" if assignment else "delta"
            self.head[store] = f"image.{store}"
            self.emit(f"{store}[{a}] = {value}")

    def directive(self, directive: ast.LifecycleDirective) -> None:
        guard, pos, kind = directive.guard, directive.pos, self.kind
        self.target = None
        if guard is not None:
            operands = [self.expression(guard.left), self.expression(guard.right)]
            guard = self.call((guard.relop, 2), operands, guard.pos)
        if kind not in self.engine.stages:
            raise _config_error("lifecycle directives need a stage performer", pos)
        match directive:
            case ast.Die():
                event, number = "'die', b", None
            case ast.StageTransition(target=name):
                event, number = f"'become', b, {kind!r}, {self.stage(name, pos)}", None
            case ast.Spawn(stage=name, count=number):
                event = f"b, {kind!r}, {self.stage(name, pos)}"
                number = self.expression(number)

        def act():  # a spawn count is evaluated when the guard holds
            if number is None:
                self.emit(f"events.append(({event}))")
                return
            # The whole number of animats in a count that is finite and not
            # negative, none if that is 0.
            site = self.site("spawn count {} out of range", pos)
            count = self.value(number)
            count = count if _is_name_or_literal(count) else self.let(count)
            self.emit(f"if not 0.0 <= {count} < inf: raise ValueError({count})  # {site}")
            self.emit(f"if {count} >= 1.0: events.append(('spawn', {event}, floor({count}), "
                      f"{self.bind(pos)}))")

        if guard is None or guard is True:
            act()
        else:
            self.block(f"if {self.value(guard)}:", act)

    def stage(self, name: str, pos) -> str:
        if name not in self.engine.stages:
            raise _config_error(f"unknown stage {name!r}", pos)
        return repr(name)

    def expression(self, e: ast.Expression):
        match e:
            case ast.Literal(value=value, unit=unit):
                return value * unit.scale
            case ast.DeltaTime():
                return self.engine.config.delta_time
            case ast.AttributeVariable():
                return ("read", self.address(e, e.pos))
            case ast.UtilityVariable(identifier=name):
                if name not in self.index:
                    raise _config_error(f"unknown utility {name!r}", e.pos)
                return ("utility", self.index[name], name, e.pos)
            case ast.Arithmetics(op=name, args=args) | ast.Apply(function=name, args=args):
                if (name, len(args)) not in _CALLS:
                    raise _config_error(f"no {name!r} of {len(args)} operand(s)", e.pos)
                prefix = f"{name}: " if isinstance(e, ast.Apply) else ""
                operands = [self.expression(a) for a in args]
                return self.call((name, len(args)), operands, e.pos, prefix)
            case ast.Cast(op=op, args=(inner,), unit=unit):
                inner = self.expression(inner)
                if unit.scale == 1.0:  # x * 1.0 and x / 1.0 are x exactly
                    return inner
                return self.call(("*" if op == "as" else "/", 2), [inner, unit.scale], e.pos)
            case ast.Direction(attribute=attribute):
                return ("direction", self.slot("Patch", attribute, e.pos), *self.position(e.pos))
            case ast.PlaceholderRef(identifier=name):
                if name not in self.bindings:
                    raise _config_error(f"placeholder {name!r} is not bound", e.pos)
                return self.bindings[name]
        # A draw, never folded: every activation draws.  The sampler
        # ``rng.sample_<distribution>`` is called as an attribute of ``rng``,
        # so that a wrapper installed there sees every draw.
        operands = [self.expression(a) for a in e.args]
        return ("draw", f"sample_{e.distribution}", operands, e.pos)

    def call(self, key, operands: list, pos, prefix: str = ""):
        """``_CALLS[key]`` of the operands, folded if all are constants it
        does not fail on."""
        if not any(isinstance(x, tuple) for x in operands):
            try:
                return _CALLS[key][0](*operands)
            except _FAILURES:
                pass
        return ("call", key, operands, pos, prefix)

    def slot(self, kind: str, name: str, pos) -> int:
        slots = self.engine.slots.get(kind)
        if slots is None:
            raise _config_error(f"the model declares no {kind}", pos)
        if name not in slots:
            raise _config_error(f"{kind} has no attribute {name!r}", pos)
        return slots[name]

    def address(self, variable: ast.AttributeVariable, pos):
        """The attribute ``variable`` names, as ``("my" | "world", slot)`` or
        ``("here", slot, x slot, y slot, whether the task writes it)``."""
        scope, kind = _scope(self.kind, variable.agent)
        slot = self.slot(kind, variable.identifier, pos)
        if scope == "here":
            return scope, slot, *self.position(pos), variable.identifier in self.here
        return scope, slot

    def position(self, pos) -> tuple[int, int]:
        """The performer's position slots, which find the patch under it."""
        return self.slot(self.kind, "x", pos), self.slot(self.kind, "y", pos)

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def let(self, text: str) -> str:
        self.temps += 1
        self.emit(f"t{self.temps} = {text}")
        return f"t{self.temps}"

    def bind(self, value) -> str:
        """A name for a position, abort site or non-finite constant."""
        self.namespace[name := f"c{len(self.namespace)}"] = value
        return name

    def site(self, message: str, pos) -> str:
        """A name for the abort site ``(message, kind, pos, target)`` of a
        line this scope emits; ``message`` formats the failure."""
        return self.bind((message, self.kind, pos, self.target))

    def block(self, header: str, body: Callable[[], None]) -> None:
        """``header`` over what ``body`` emits; a utility computed there is
        perhaps computed after it, and no other utility is known."""
        self.emit(header)
        known, self.depth = dict(self.known), self.depth + 1
        body()
        self.maybe.update(self.known.keys() - known)
        self.known, self.depth = known, self.depth - 1

    def value(self, x) -> str:
        """Text of the value of ``x``, once the statements that compute its
        parts are emitted."""
        if type(x) is not tuple:  # a constant: a literal, or a name if not finite
            return repr(x) if math.isfinite(x) else self.bind(x)
        match x:
            case ("read", address):
                return self.read(address)
            case ("utility", index, name, pos):
                return self.utility(index, name, pos)
            case ("direction", slot, xs, ys):
                # The heading from the performer to the centre of the patch
                # ``field`` gives for its cell, 0 if that is its own.  The
                # kind's first task that reads the field builds and keeps it.
                self.head["patches"] = "image.performers['Patch']"
                if (key := (self.kind, slot)) not in self.tables:
                    self.tables[key] = self.bind([None])
                    self.head[f"f{slot}"] = f"{self.tables[key]}[0] = bases and field(vals, patches, {slot})"
                self.head.setdefault(f"f{slot}", f"{self.tables[key]}[0]")
                self.head[_GRID] = "grid"
                target = self.let(f"f{slot}[{self.cell(xs, ys)}]")
                x, y = self.read(("my", xs)), self.read(("my", ys))
                return self.let(f"(0.0 if {target} < 0 else atan2(centre_y[{target}] - {y}, "
                                f"centre_x[{target}] - {x}))")
            case ("draw", sampler, operands, pos):
                text = ", ".join(self.value(o) for o in operands)
                target, prefix = "state, ", ""
                call = f"rng.{sampler}(state, {text})"
            case ("call", key, operands, pos, prefix):
                texts = [self.value(o) for o in operands]
                _, form, fails = _CALLS[key]
                if key == ("/", 2) and not isinstance(operands[1], tuple) and operands[1] != 0:
                    form, fails = "({0} / {1})", False  # a division that cannot fail
                if not fails:
                    # An operand the form uses twice is computed once.
                    texts = [t if form.count(f"{{{i}}}") < 2 or _is_name_or_literal(t)
                             else self.let(t) for i, t in enumerate(texts)]
                    return form.format(*texts)
                target, call = "", form.format(*texts)
        # A call that can fail, on a line of its own that names its abort
        # site: ``Engine.step`` aborts with ``prefix`` and the failure's text.
        self.temps += 1
        site = self.site(prefix + "{}", pos)
        self.emit(f"{target}t{self.temps} = {call}  # {site}")
        return f"t{self.temps}"

    def utility(self, index: int, name: str, pos) -> str:
        if index in self.computing:
            site = self.site(f"utility {name!r} depends on itself", pos)
            self.emit(f"raise ValueError  # {site}")
            return "None"
        if index in self.maybe and index not in self.known:
            self.maybe.discard(index)  # back in ``maybe`` once the block is done
            self.block(f"if u{index} is None:", lambda: self.utility(index, name, pos))
            self.known[index] = f"u{index}"
        elif index not in self.known:
            self.computing.add(index)
            text = self.value(self.utilities[index])
            self.computing.discard(index)
            # A name or a literal needs no local, unless a later use may test it.
            if self.depth > 2 or not _is_name_or_literal(text):
                self.emit(f"u{index} = {text}")
                text = f"u{index}"
            self.known[index] = text
        return self.known[index]

    def cell(self, xs: int, ys: int) -> str:
        """``h``, the cell under the performer's committed position, which
        its slots ``xs`` and ``ys`` hold."""
        self.located = xs, ys
        return "h"

    def place(self, address) -> str:
        """Text of the address, a local if past slot 0 and an own one or a
        ``here`` one the task writes; for ``here``, finds first the base of
        the patch in cell ``h``."""
        match address:
            case ("my", 0):
                return "b"
            case ("my", slot):
                self.writes.add(slot)
                return f"a{slot}"
            case ("world", slot):
                self.head["world"] = "image.performers['World'][0]"
                return _plus("world", slot)
            case ("here", slot, xs, ys, written):
                self.head["patches"] = "image.performers['Patch']"
                text = _plus(self.find(0, f"patches[{self.cell(xs, ys)}]"), slot)
                return self.find(slot, text) if written else text

    def read(self, address) -> str:
        """The local that holds the committed value at ``address``."""
        match address:
            case ("my", slot):
                self.reads.add(slot)
                return f"r{slot}"
            case ("world", slot):
                self.head[f"w{slot}"] = f"vals[{self.place(address)}]"
                return f"w{slot}"
        return self.find(address, f"vals[{self.place(address)}]")

    def find(self, key, text: str) -> str:
        """The local that holds ``text``, which cannot fail, computed once at
        the top of the loop, whatever guards its uses."""
        if key not in self.found:  # the lines found so far open the body
            self.temps += 1
            self.lines.insert(len(self.found), f"        t{self.temps} = {text}")
            self.found[key] = f"t{self.temps}"
        return self.found[key]
