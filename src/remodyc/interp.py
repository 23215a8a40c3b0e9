"""Synchronous simulation engine.

Building an engine compiles the model (``compiler.compile_model``) and
binds the ``Program`` to the engine: its code runs into a namespace of the
engine's own, which holds its image, its grid's ``field`` and its own cell
tables.  Every tick runs the tasks in declaration order, with reads served
from the last committed frame and writes held back, then commits once.
Lifecycle events (die, become, spawn) are recorded while evaluating and
applied between the last task and the commit, so results never depend
on iteration order within a tick.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby, islice, repeat, starmap
from typing import Callable, Iterable, Iterator

from . import ast, rng
from .compiler import _FAILURES, ConfigError, compile_model
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
        if self.seed > rng.MASK:  # else it would alias a seed below 2^64
            raise ConfigError("seed must be below 2^64")
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


class Engine:
    """Runs a checked model, compiled under its config as ``program``;
    all numeric state is SI floats."""

    def __init__(self, model: ast.Model, config: SimulationConfig, backend: StorageBackend):
        self.model = model
        self.config = config
        self.backend = backend
        self.program = program = compile_model(model, config)
        for _, name in config.populations:
            if name not in program.stages:
                raise ConfigError(f"populate names unknown stage {name!r}")
        self.image = MemoryImage()
        self.rng_state = rng.seed_state(config.seed)
        # One namespace of this engine's own, which keeps no engine and no
        # task function: a dropped engine is freed, image and all, without
        # the cycle collector, whether or not it aborted.
        namespace = program.namespace(self.image, *_grid(config))
        exec(program.code, namespace)
        # (kind, run) per task, in order.
        self.plan = [(kind, namespace.pop(f"task_{i}")) for i, kind in enumerate(program.kinds)]

    # -- setup ---------------------------------------------------------

    def setup(self) -> TraceFrame:
        """Commit frame 1; a used engine or backend raises ``ValueError`` before any draw."""
        if self.image.ticks or self.image.animats or self.backend.frame_count():
            raise ValueError("setup needs a new engine and an empty backend")
        if message := setup_refusal(self.model, self.config):
            raise RuntimeAbort(message, tick=1)
        for kind, count in fixed_blocks(self.model, self.config).items():
            self._allocate(kind, repeat(self.program.templates[kind], count))
        for count, stage in self.config.populations:
            self._allocate(stage, self._placed(stage, count))
        return self.image.store(self.backend, self.rng_state)

    def _placed(self, stage: str, count: int) -> Iterator[list[float]]:
        """``count`` new ``stage`` rows, each at a uniform draw of x, then y;
        ``rng_state`` is the state after the last draw once all are made."""
        state, sample = self.rng_state, rng.sample_uniform
        width, height = self.config.world_width, self.config.world_height
        slots = self.program.slots[stage]
        template, xs, ys = self.program.templates[stage], slots["x"], slots["y"]
        for _ in range(count):
            row = template.copy()
            state, row[xs] = sample(state, 0.0, width)
            state, row[ys] = sample(state, 0.0, height)
            yield row
        self.rng_state = state

    def _allocate(self, kind: str, rows: Iterable[list[float]]) -> None:
        """One new block of ``kind`` per row, holding that row; a row is
        made when its run of ``_ALLOCATION_ROWS`` is."""
        size, rows = len(self.program.templates[kind]), iter(rows)
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
            site = self.program.sites.get(task.tb_lineno)
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
                yield [(tick, name, len(performers.get(name, ()))) for name in self.program.stages]
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
        image, templates, inherits = self.image, self.program.templates, self.program.inherits
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


def _grid(config: SimulationConfig) -> tuple[Callable, tuple]:
    """A task namespace's ``field`` and ``grid``, on ``config``'s patches:
    ``grid`` holds the patch edge, the column count, the last column and
    row, and by padded cell, in row order on the grid with a border of one
    cell all round, its centre's x and y.  Those are filled by the first
    ``field``, so never for a grid that ``setup`` refuses, as is ``steps``:
    by position 0-8 in the 3x3 window ``field`` scans, the step there from
    the window's centre, which for the centre itself lands below 0."""
    columns, rows, edge, inf = config.patches_x, config.patches_y, config.patch_size, math.inf
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

    return field, (edge, columns, columns - 1, rows - 1, centre_x, centre_y)
