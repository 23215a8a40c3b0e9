"""Syntax tree for models: agent kinds, actions, tasks and expressions.

Nodes are frozen dataclasses compared structurally; source positions ride
along for diagnostics but never take part in equality.  An expression node
holds its subexpressions, and only those, in the tuple ``args``, in
evaluation order; a node without ``args`` is a leaf.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterator, NamedTuple, Union

from .units import Unit, parse_unit


class SourcePos(NamedTuple):
    """1-based line and column of a token in model source."""

    line: int
    column: int


@dataclass(frozen=True)
class Node:
    pos: SourcePos | None = field(default=None, kw_only=True, compare=False, repr=False)


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True)
class Literal(Node):
    """A number with the unit it was written in, e.g. ``10 [km]``."""

    value: float
    unit: Unit


@dataclass(frozen=True)
class AttributeVariable(Node):
    """Reference to an attribute; ``agent`` is None for the performer."""

    agent: str | None
    identifier: str


@dataclass(frozen=True)
class UtilityVariable(Node):
    """Reference to a named intermediate from an action's where-clause."""

    identifier: str


@dataclass(frozen=True)
class PlaceholderRef(Node):
    """Occurrence of ``the <name>``, bound per task."""

    identifier: str


@dataclass(frozen=True)
class DeltaTime(Node):
    """The simulation time step, ``delta time``."""


@dataclass(frozen=True)
class Arithmetics(Node):
    """Binary +,-,*,/,^ or unary minus (one argument, op ``-``)."""

    op: str
    args: tuple[Expression, ...]

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/", "^"):
            raise ValueError(f"bad operator {self.op!r}")
        if len(self.args) not in (1, 2) or (len(self.args) == 1 and self.op != "-"):
            raise ValueError(f"bad arity for {self.op!r}")


@dataclass(frozen=True)
class Apply(Node):
    """Builtin function application, e.g. ``cos(theta)``."""

    function: str
    args: tuple[Expression, ...]


# By distribution, the position of the operand that must be a dimensionless
# shape; None where both operands take the draw's unit.
DISTRIBUTIONS = {"uniform": None, "normal": None, "gamma": 0, "loglogistic": 1}


@dataclass(frozen=True)
class Draw(Node):
    """A draw from one of ``DISTRIBUTIONS`` with its two parameters in
    source order: ``uniform <low> to <high>``, ``normal(<mean>, <sigma>)``,
    ``gamma(<shape>, <scale>)`` or ``loglogistic(<scale>, <shape>)``."""

    distribution: str
    args: tuple[Expression, ...]

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"bad distribution {self.distribution!r}")
        if len(self.args) != 2:
            raise ValueError(f"bad arity for {self.distribution!r}")


@dataclass(frozen=True)
class Cast(Node):
    """``e as [u]`` stamps a dimensionless value with a unit; ``e in [u]``
    strips a value to a dimensionless count of ``u``."""

    op: str
    args: tuple[Expression, ...]
    unit: Unit

    def __post_init__(self):
        if self.op not in ("as", "in"):
            raise ValueError(f"bad cast {self.op!r}")
        if len(self.args) != 1:
            raise ValueError(f"bad arity for {self.op!r}")


@dataclass(frozen=True)
class Direction(Node):
    """``direction neighbor's <attr>``: heading toward the richest patch."""

    attribute: str


Expression = Union[
    Literal,
    AttributeVariable,
    UtilityVariable,
    PlaceholderRef,
    DeltaTime,
    Arithmetics,
    Apply,
    Draw,
    Cast,
    Direction,
]


# --- agents ----------------------------------------------------------------

POSITION_UNIT = parse_unit("m")


@dataclass(frozen=True)
class AttributeDeclaration(Node):
    """One declared attribute with its unit and optional literal initializer."""

    identifier: str
    unit: Unit
    initial: Literal | None = None


@dataclass(frozen=True)
class WorldDefinition(Node):
    """The single global agent."""

    attributes: tuple[AttributeDeclaration, ...]

    name = "World"

    @property
    def all_attributes(self) -> tuple[AttributeDeclaration, ...]:
        return self.attributes


@dataclass(frozen=True)
class PatchDefinition(Node):
    """The square cells tiling the world."""

    attributes: tuple[AttributeDeclaration, ...]

    name = "Patch"

    @property
    def all_attributes(self) -> tuple[AttributeDeclaration, ...]:
        return self.attributes


@dataclass(frozen=True)
class StageDefinition(Node):
    """One stage of a species; owns implicit position attributes x and y."""

    name: str
    species: str
    attributes: tuple[AttributeDeclaration, ...]

    @cached_property
    def all_attributes(self) -> tuple[AttributeDeclaration, ...]:
        implicit = (
            AttributeDeclaration("x", POSITION_UNIT),
            AttributeDeclaration("y", POSITION_UNIT),
        )
        return implicit + self.attributes


AgentDefinition = Union[WorldDefinition, PatchDefinition, StageDefinition]


# --- actions ---------------------------------------------------------------


class Decorator(Enum):
    ASSIGN = "assign"
    DELTA = "delta"
    DIFFERENTIAL = "differential"


@dataclass(frozen=True)
class AttributeDefinition(Node):
    """One ``<target>' = <expression>`` statement."""

    variable: AttributeVariable
    decorator: Decorator
    expression: Expression


@dataclass(frozen=True)
class UtilityDefinition(Node):
    """A named intermediate from an action's where-clause."""

    identifier: str
    expression: Expression


@dataclass(frozen=True)
class Comparison(Node):
    """Guard of a lifecycle directive: ``left <relop> right``."""

    left: Expression
    relop: str
    right: Expression

    def __post_init__(self):
        if self.relop not in ("<", "<=", ">", ">="):
            raise ValueError(f"bad relational operator {self.relop!r}")


@dataclass(frozen=True)
class StageTransition(Node):
    """``my become <stage> when <guard>``."""

    target: str
    guard: Comparison


@dataclass(frozen=True)
class Spawn(Node):
    """``my spawn <stage>' = <count> [when <guard>]``."""

    stage: str
    count: Expression
    guard: Comparison | None = None


@dataclass(frozen=True)
class Die(Node):
    """``my die when <guard>``."""

    guard: Comparison


LifecycleDirective = Union[StageTransition, Spawn, Die]


@dataclass(frozen=True)
class ActionDefinition(Node):
    """A named behavior: attribute definitions, utilities, lifecycle."""

    name: str
    definitions: tuple[AttributeDefinition, ...] = ()
    utilities: tuple[UtilityDefinition, ...] = ()
    lifecycle: tuple[LifecycleDirective, ...] = ()


@dataclass(frozen=True)
class TaskDefinition(Node):
    """Binds an action to an agent kind, with placeholder bindings."""

    agent: str
    action: str
    bindings: tuple[tuple[str, Expression], ...] = ()


@dataclass(frozen=True)
class Model(Node):
    agents: tuple[AgentDefinition, ...] = ()
    actions: tuple[ActionDefinition, ...] = ()
    tasks: tuple[TaskDefinition, ...] = ()

    @property
    def world(self) -> WorldDefinition | None:
        for agent in self.agents:
            if isinstance(agent, WorldDefinition):
                return agent
        return None

    @property
    def patch(self) -> PatchDefinition | None:
        for agent in self.agents:
            if isinstance(agent, PatchDefinition):
                return agent
        return None

    @property
    def stages(self) -> tuple[StageDefinition, ...]:
        return tuple(a for a in self.agents if isinstance(a, StageDefinition))

    def agent_named(self, name: str) -> AgentDefinition | None:
        for agent in self.agents:
            if agent.name == name:
                return agent
        return None

    def action_named(self, name: str) -> ActionDefinition | None:
        for action in self.actions:
            if action.name == name:
                return action
        return None


# --- traversal -------------------------------------------------------------


def walk_expression(e: Expression) -> Iterator[Expression]:
    """Yield ``e`` and every nested subexpression, preorder: a node, then
    the walk of each of its ``args`` in turn.  One generator and a
    stack of the nodes still to yield, however deep the tree."""
    stack = [e]
    pop, push = stack.pop, stack.extend
    while stack:
        e = pop()
        yield e
        args = getattr(e, "args", ())
        if args:
            push(args[::-1])


def action_expressions(action: ActionDefinition) -> Iterator[Expression]:
    """Top-level expressions of an action: its utilities' first, in order,
    then its definitions' and its lifecycle directives' counts and guards."""
    for utility in action.utilities:
        yield utility.expression
    for definition in action.definitions:
        yield definition.expression
    for directive in action.lifecycle:
        if isinstance(directive, Spawn):
            yield directive.count
        guard = directive.guard
        if guard is not None:
            yield guard.left
            yield guard.right
