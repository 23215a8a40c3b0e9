"""Lexer, parser and pretty printer for model source text.

Statements are separated by juxtaposition, a ``.`` ends each definition,
and ``#`` starts a line comment.  The parser raises ``SourceError`` at
the first problem, including duplicate names within one scope.

Tokens: ``[unit text]`` on one line | ``d/dt`` and ``'s`` not followed by
a letter, digit or ``_`` | ASCII word | number (``2``, ``0.5``, ``1e-3``) |
``->`` ``<=`` ``>=`` | one of ``.='()^+-*/<>,``; blanks (space, tab, CR),
newlines and comments only separate them.

The lexer reads a line at a time: the text is split at each newline,
lines are numbered from 1, and a column is 1 plus the number of
characters before it on its line.  A ``#`` or the end of the line ends
the line's tokens.  The end-of-input token ``eof`` sits where the last
line ends: at its ``#`` if a comment ends the text, else after its last
character.
"""
from __future__ import annotations

import math
import re
from typing import NamedTuple

from . import ast
from .units import DIMENSIONLESS, Unit, UnitError, UnitParseError, format_unit, parse_unit

KEYWORDS = frozenset(
    """to is with where my the delta when spawn die become world here
    neighbor uniform normal gamma loglogistic direction as in""".split()
)


class SourceError(Exception):
    """A syntax problem at a known position in model source."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    column: int

    @property
    def pos(self) -> ast.SourcePos:
        # ``tuple.__new__`` skips the Python-level ``SourcePos.__new__``.
        return tuple.__new__(ast.SourcePos, self[2:])


# One match per token of a line, blanks before it included; the group
# numbers are what ``tokenize`` dispatches on.  ``(?!\w)``: not followed by
# a letter, digit or underscore of any script.  Group 5 matches a comment's
# ``#`` or the end of the line, and the last group any other character, so
# ``finditer`` never skips one.
_TOKEN_RE = re.compile(
    r"""[ \t\r]*(?:
      (?P<op>d/dt(?!\w)|'s(?!\w)|->|<=|>=|[.='()^+\-*/<>,])
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
    | \[(?P<unit>[^\]]*)\]
    | (?P<end>\#|\Z)
    | (?P<bad>.)
    )""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    # ``tuple.__new__`` builds a Token without its Python-level constructor.
    new = tuple.__new__
    lines = text.split("\n")
    last = len(lines)
    for line, chars in enumerate(lines, 1):
        for match in _TOKEN_RE.finditer(chars):
            group = match.lastindex
            start = match.start(group)
            if group == 2:
                value = match[2]
                kind = "kw" if value in KEYWORDS else "ident"
                append(new(Token, (kind, value, line, start + 1)))
            elif group == 1:
                value = match[1]
                append(new(Token, (value, value, line, start + 1)))
            elif group == 3:
                append(new(Token, ("number", match[3], line, start + 1)))
            elif group == 4:
                # The token starts at the ``[``, one before its text.
                append(new(Token, ("unit", match[4], line, start)))
            elif group == 5:
                if line == last:
                    append(new(Token, ("eof", "", line, start + 1)))
                break
            elif match[6] == "[":
                raise SourceError("unterminated unit bracket", line, start + 1)
            else:
                raise SourceError(f"unexpected character {match[6]!r}", line, start + 1)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        # ``advance`` stops at the end-of-input token and ``peek`` looks at
        # most one token ahead, so one more copy of it keeps peeks in range.
        self.tokens.append(self.tokens[-1])
        self.index = 0

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.index + ahead]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def at(self, kind: str, value: str | None = None, ahead: int = 0) -> bool:
        token = self.tokens[self.index + ahead]
        return token.kind == kind and (value is None or token.value == value)

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.tokens[self.index]
        if token.kind != kind or (value is not None and token.value != value):
            want = value if value is not None else kind
            raise self.fail(f"expected {want!r}, found {self._describe(token)}")
        if kind != "eof":
            self.index += 1
        return token

    def expect_ident(self, what: str = "an identifier") -> Token:
        token = self.tokens[self.index]
        if token.kind != "ident":
            if token.kind in ("kw", "d/dt"):
                raise self.fail(f"reserved word {token.value!r} cannot be used as {what}")
            raise self.fail(f"expected {what}, found {self._describe(token)}")
        self.index += 1
        return token

    def fail(self, message: str, token: Token | None = None) -> SourceError:
        token = token or self.peek()
        return SourceError(message, token.line, token.column)

    @staticmethod
    def _describe(token: Token) -> str:
        return "end of input" if token.kind == "eof" else repr(token.value)

    # -- model structure

    def model(self) -> ast.Model:
        agents: list[ast.AgentDefinition] = []
        actions: list[ast.ActionDefinition] = []
        tasks: list[ast.TaskDefinition] = []
        while not self.at("eof"):
            if self.at("kw", "to"):
                actions.append(self.action(actions))
            elif self.at("ident", "World") and self.at("kw", "with", 1):
                agents.append(self.world_or_patch(agents, ast.WorldDefinition))
            elif self.at("ident", "Patch") and self.at("kw", "with", 1):
                agents.append(self.world_or_patch(agents, ast.PatchDefinition))
            elif self.at("ident") and self.at("kw", "is", 1):
                agents.append(self.stage(agents))
            elif self.at("ident"):
                tasks.append(self.task())
            else:
                raise self.fail(f"expected a definition, found {self._describe(self.peek())}")
        return ast.Model(tuple(agents), tuple(actions), tuple(tasks))

    def world_or_patch(self, seen, cls):
        token = self.advance()
        if any(isinstance(a, cls) for a in seen):
            raise self.fail(f"duplicate {token.value} definition", token)
        self.expect("kw", "with")
        attributes = self.attribute_declarations(implicit=())
        return cls(attributes, pos=token.pos)

    def stage(self, seen) -> ast.StageDefinition:
        name = self.expect_ident("a stage name")
        if name.value in ("World", "Patch"):
            raise self.fail(f"{name.value!r} cannot be a stage name", name)
        if any(isinstance(a, ast.StageDefinition) and a.name == name.value for a in seen):
            raise self.fail(f"duplicate agent name {name.value!r}", name)
        self.expect("kw", "is")
        species = self.expect_ident("a species name")
        self.expect("kw", "with")
        attributes = self.attribute_declarations(implicit=("x", "y"))
        return ast.StageDefinition(name.value, species.value, attributes, pos=name.pos)

    def attribute_declarations(self, implicit) -> tuple[ast.AttributeDeclaration, ...]:
        declarations: list[ast.AttributeDeclaration] = []
        names = set(implicit)
        while True:
            name = self.expect_ident("an attribute name")
            if name.value in names:
                raise self.fail(f"duplicate attribute {name.value!r}", name)
            names.add(name.value)
            unit = self.unit()
            initial = None
            if self.at("="):
                self.advance()
                initial = self.number_literal()
            declarations.append(ast.AttributeDeclaration(name.value, unit, initial, pos=name.pos))
            if self.at("."):
                self.advance()
                return tuple(declarations)
            if not (self.at("ident") or self.at("kw") or self.at("d/dt")):
                raise self.fail(
                    f"expected an attribute or '.', found {self._describe(self.peek())}"
                )

    def unit(self) -> Unit:
        token = self.expect("unit")
        try:
            return parse_unit(token.value)
        except UnitParseError as err:
            raise SourceError(err.message, token.line, token.column + 1 + err.offset)
        except UnitError as err:
            raise SourceError(str(err), token.line, token.column)

    def number_literal(self) -> ast.Literal:
        token = self.expect("number")
        unit = self.unit()
        return ast.Literal(float(token.value), unit, pos=token.pos)

    # -- actions

    def action(self, seen) -> ast.ActionDefinition:
        self.expect("kw", "to")
        name = self.expect_ident("an action name")
        if any(a.name == name.value for a in seen):
            raise self.fail(f"duplicate action name {name.value!r}", name)
        self.expect("kw", "is")
        definitions: list[ast.AttributeDefinition] = []
        lifecycle: list[ast.LifecycleDirective] = []
        while self.peek().kind == "kw" and self.peek().value in ("my", "world", "here"):
            self.statement(definitions, lifecycle)
        if not definitions and not lifecycle:
            raise self.fail("an action needs at least one statement")
        utilities: list[ast.UtilityDefinition] = []
        if self.at("kw", "where"):
            self.advance()
            while True:
                utility = self.expect_ident("a utility name")
                if any(u.identifier == utility.value for u in utilities):
                    raise self.fail(f"duplicate utility {utility.value!r}", utility)
                self.expect("=")
                utilities.append(
                    ast.UtilityDefinition(utility.value, self.expression(), pos=utility.pos)
                )
                if not (self.at("ident") and self.at("=", ahead=1)):
                    break
        self.expect(".")
        return ast.ActionDefinition(
            name.value, tuple(definitions), tuple(utilities), tuple(lifecycle), pos=name.pos
        )

    def statement(self, definitions, lifecycle):
        qualifier_token = self.advance()
        if qualifier_token.value == "my":
            if self.peek().kind == "kw" and self.peek().value in ("become", "spawn", "die"):
                lifecycle.append(self.lifecycle_directive())
                return
            qualifier = None
        else:
            self.expect("'s")
            qualifier = qualifier_token.value
        decorator = ast.Decorator.ASSIGN
        if self.at("kw", "delta"):
            self.advance()
            decorator = ast.Decorator.DELTA
        elif self.at("d/dt"):
            self.advance()
            decorator = ast.Decorator.DIFFERENTIAL
        name = self.expect_ident("an attribute name")
        self.expect("'")
        self.expect("=")
        variable = ast.AttributeVariable(qualifier, name.value, pos=name.pos)
        definitions.append(
            ast.AttributeDefinition(
                variable, decorator, self.expression(), pos=qualifier_token.pos
            )
        )

    def lifecycle_directive(self) -> ast.LifecycleDirective:
        keyword = self.advance()
        if keyword.value == "become":
            target = self.expect_ident("a stage name")
            self.expect("kw", "when")
            return ast.StageTransition(target.value, self.comparison(), pos=keyword.pos)
        if keyword.value == "spawn":
            stage = self.expect_ident("a stage name")
            self.expect("'")
            self.expect("=")
            count = self.expression()
            guard = None
            if self.at("kw", "when"):
                self.advance()
                guard = self.comparison()
            return ast.Spawn(stage.value, count, guard, pos=keyword.pos)
        self.expect("kw", "when")
        return ast.Die(self.comparison(), pos=keyword.pos)

    def comparison(self) -> ast.Comparison:
        left = self.expression()
        token = self.peek()
        if token.kind not in ("<", "<=", ">", ">="):
            raise self.fail(f"expected a comparison operator, found {self._describe(token)}")
        self.advance()
        return ast.Comparison(left, token.kind, self.expression(), pos=token.pos)

    # -- tasks

    def task(self) -> ast.TaskDefinition:
        agent = self.expect_ident("an agent name")
        action = self.expect_ident("an action name")
        bindings: list[tuple[str, ast.Expression]] = []
        if self.at("kw", "where"):
            self.advance()
            while self.at("kw", "the"):
                self.advance()
                name = self.expect_ident("a placeholder name")
                if any(key == name.value for key, _ in bindings):
                    raise self.fail(f"duplicate binding {name.value!r}", name)
                self.expect("->")
                bindings.append((name.value, self.expression()))
            if not bindings:
                raise self.fail("expected at least one binding after 'where'")
        self.expect(".")
        return ast.TaskDefinition(agent.value, action.value, tuple(bindings), pos=agent.pos)

    # -- expressions, loosest binding first

    def expression(self) -> ast.Expression:
        if self.at("kw", "uniform"):
            token = self.advance()
            low = self.cast()
            self.expect("kw", "to")
            return ast.Draw("uniform", (low, self.cast()), pos=token.pos)
        return self.cast()

    def cast(self) -> ast.Expression:
        e = self.additive()
        while (token := self.tokens[self.index]).kind == "kw" and token.value in ("as", "in"):
            self.index += 1
            e = ast.Cast(token.value, (e,), self.unit(), pos=token.pos)
        return e

    def additive(self) -> ast.Expression:
        e = self.multiplicative()
        while (token := self.tokens[self.index]).kind in ("+", "-"):
            self.index += 1
            e = ast.Arithmetics(token.kind, (e, self.multiplicative()), pos=token.pos)
        return e

    def multiplicative(self) -> ast.Expression:
        e = self.unary()
        while (token := self.tokens[self.index]).kind in ("*", "/"):
            self.index += 1
            e = ast.Arithmetics(token.kind, (e, self.unary()), pos=token.pos)
        return e

    def unary(self) -> ast.Expression:
        token = self.tokens[self.index]
        if token.kind == "-":
            self.index += 1
            return ast.Arithmetics("-", (self.unary(),), pos=token.pos)
        return self.power()

    def power(self) -> ast.Expression:
        e = self.primary()
        token = self.tokens[self.index]
        if token.kind == "^":
            self.index += 1
            return ast.Arithmetics("^", (e, self.unary()), pos=token.pos)
        return e

    def primary(self) -> ast.Expression:
        token = self.tokens[self.index]
        if token.kind == "number":
            self.index += 1
            unit = self.unit() if self.at("unit") else DIMENSIONLESS
            return ast.Literal(float(token.value), unit, pos=token.pos)
        if token.kind == "(":
            self.index += 1
            e = self.expression()
            self.expect(")")
            return e
        if token.kind == "kw":
            return self.keyword_primary(token)
        if token.kind == "ident":
            self.index += 1
            if self.at("("):
                self.index += 1
                args = [self.expression()]
                while self.at(","):
                    self.index += 1
                    args.append(self.expression())
                self.expect(")")
                return ast.Apply(token.value, tuple(args), pos=token.pos)
            return ast.UtilityVariable(token.value, pos=token.pos)
        raise self.fail(f"expected an expression, found {self._describe(token)}")

    def keyword_primary(self, token: Token) -> ast.Expression:
        if token.value == "my":
            self.advance()
            name = self.expect_ident("an attribute name")
            return ast.AttributeVariable(None, name.value, pos=token.pos)
        if token.value in ("world", "here"):
            self.advance()
            self.expect("'s")
            name = self.expect_ident("an attribute name")
            return ast.AttributeVariable(token.value, name.value, pos=token.pos)
        if token.value == "the":
            self.advance()
            name = self.expect_ident("a placeholder name")
            return ast.PlaceholderRef(name.value, pos=token.pos)
        if token.value == "delta":
            self.advance()
            self.expect("ident", "time")
            return ast.DeltaTime(pos=token.pos)
        if token.value == "direction":
            self.advance()
            self.expect("kw", "neighbor")
            self.expect("'s")
            name = self.expect_ident("a patch attribute name")
            return ast.Direction(name.value, pos=token.pos)
        if token.value in ast.DISTRIBUTIONS and token.value != "uniform":
            self.advance()
            self.expect("(")
            first = self.expression()
            self.expect(",")
            second = self.expression()
            self.expect(")")
            return ast.Draw(token.value, (first, second), pos=token.pos)
        raise self.fail(f"expected an expression, found {self._describe(token)}")


def parse_model(text: str) -> ast.Model:
    """Parse complete model source; raises SourceError on the first problem."""
    return _Parser(text).model()


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone expression (trailing input is an error)."""
    parser = _Parser(text)
    e = parser.expression()
    parser.expect("eof")
    return e


# --- pretty printing -------------------------------------------------------

_PREC_UNIFORM = 0
_PREC_CAST = 1
_PREC_ADD = 2
_PREC_MUL = 3
_PREC_UNARY = 4
_PREC_POWER = 5
_PREC_PRIMARY = 6


def format_number(value: float) -> str:
    """Shortest round-trip decimal; integral values drop the '.0'."""
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def _number_text(value: float) -> str:
    """A literal's number as source text.  A literal too large for a float,
    such as ``1e400``, holds an infinity, which prints as a number that
    reads back as one."""
    return "1e309" if value == math.inf else format_number(value)


def _unit_text(unit: Unit) -> str:
    if unit.label is not None:
        return unit.label
    return format_unit(unit)[1:-1]


def format_expression(e: ast.Expression) -> str:
    return _render(e, 0)


def _render(e: ast.Expression, minimum: int) -> str:
    """``e`` as source text, in parentheses if it binds looser than ``minimum``."""
    render = _RENDERERS.get(type(e))
    if render is None:
        raise ValueError(f"cannot print {e!r}")
    return render(e, minimum)


def _render_literal(e: ast.Literal, minimum: int) -> str:
    unit = e.unit
    if not unit.dimension and unit.scale == 1.0 and not unit.label:
        return _number_text(e.value)
    return f"{_number_text(e.value)} [{_unit_text(unit)}]"


def _render_arithmetics(e: ast.Arithmetics, minimum: int) -> str:
    op, args = e.op, e.args
    if len(args) == 1:
        own = _PREC_UNARY
        text = f"-{_render(args[0], own)}"
    elif op == "^":
        own = _PREC_POWER
        text = f"{_render(args[0], _PREC_PRIMARY)} ^ {_render(args[1], _PREC_UNARY)}"
    else:
        own = _PREC_ADD if op in ("+", "-") else _PREC_MUL
        text = f"{_render(args[0], own)} {op} {_render(args[1], own + 1)}"
    return f"({text})" if own < minimum else text


def _render_call(name: str, args: tuple[ast.Expression, ...]) -> str:
    return f"{name}({', '.join([_render(a, 0) for a in args])})"


def _render_draw(e: ast.Draw, minimum: int) -> str:
    if e.distribution != "uniform":
        return _render_call(e.distribution, e.args)
    low, high = e.args
    text = f"uniform {_render(low, _PREC_CAST)} to {_render(high, _PREC_CAST)}"
    return f"({text})" if _PREC_UNIFORM < minimum else text


def _render_cast(e: ast.Cast, minimum: int) -> str:
    text = f"{_render(e.args[0], _PREC_CAST)} {e.op} [{_unit_text(e.unit)}]"
    return f"({text})" if _PREC_CAST < minimum else text


# Each expression kind's renderer, by node type: it prints the node and
# puts it in parentheses when the kind's precedence (one of the ``_PREC_*``
# above) is below ``minimum``.  A kind that is always primary never needs them.
_RENDERERS = {
    ast.Literal: _render_literal,
    ast.AttributeVariable: lambda e, minimum: (
        f"my {e.identifier}" if e.agent is None else f"{e.agent}'s {e.identifier}"
    ),
    ast.UtilityVariable: lambda e, minimum: e.identifier,
    ast.PlaceholderRef: lambda e, minimum: f"the {e.identifier}",
    ast.DeltaTime: lambda e, minimum: "delta time",
    ast.Arithmetics: _render_arithmetics,
    ast.Apply: lambda e, minimum: _render_call(e.function, e.args),
    ast.Draw: _render_draw,
    ast.Cast: _render_cast,
    ast.Direction: lambda e, minimum: f"direction neighbor's {e.attribute}",
}


def _render_comparison(comparison: ast.Comparison) -> str:
    left = _render(comparison.left, 0)
    right = _render(comparison.right, 0)
    return f"{left} {comparison.relop} {right}"


def _render_target(definition: ast.AttributeDefinition) -> str:
    variable = definition.variable
    qualifier = "my" if variable.agent is None else f"{variable.agent}'s"
    decorator = {
        ast.Decorator.ASSIGN: "",
        ast.Decorator.DELTA: "delta ",
        ast.Decorator.DIFFERENTIAL: "d/dt ",
    }[definition.decorator]
    return f"{qualifier} {decorator}{variable.identifier}'"


def _render_agent(agent: ast.AgentDefinition) -> str:
    if isinstance(agent, ast.StageDefinition):
        header = f"{agent.name} is {agent.species} with"
    else:
        header = f"{agent.name} with"
    lines = [header]
    for declaration in agent.attributes:
        entry = f"    {declaration.identifier} [{_unit_text(declaration.unit)}]"
        if declaration.initial is not None:
            initial = declaration.initial
            entry += f" = {_number_text(initial.value)} [{_unit_text(initial.unit)}]"
        lines.append(entry)
    lines[-1] += "."
    return "\n".join(lines)


def _render_lifecycle(directive: ast.LifecycleDirective) -> str:
    match directive:
        case ast.StageTransition(target=target, guard=guard):
            return f"my become {target} when {_render_comparison(guard)}"
        case ast.Spawn(stage=stage, count=count, guard=guard):
            text = f"my spawn {stage}' = {_render(count, 0)}"
            if guard is not None:
                text += f" when {_render_comparison(guard)}"
            return text
        case ast.Die(guard=guard):
            return f"my die when {_render_comparison(guard)}"
    raise ValueError(f"cannot print {directive!r}")


def _render_action(action: ast.ActionDefinition) -> str:
    lines = [f"to {action.name} is"]
    for definition in action.definitions:
        lines.append(f"    {_render_target(definition)} = {_render(definition.expression, 0)}")
    for directive in action.lifecycle:
        lines.append(f"    {_render_lifecycle(directive)}")
    if action.utilities:
        lines.append("where")
        for utility in action.utilities:
            lines.append(f"    {utility.identifier} = {_render(utility.expression, 0)}")
    lines[-1] += "."
    return "\n".join(lines)


def _render_task(task: ast.TaskDefinition) -> str:
    if not task.bindings:
        return f"{task.agent} {task.action}."
    lines = [f"{task.agent} {task.action}", "where"]
    for name, expression in task.bindings:
        lines.append(f"    the {name} -> {_render(expression, 0)}")
    lines[-1] += "."
    return "\n".join(lines)


def pretty_print(model: ast.Model) -> str:
    """Canonical source text; parsing it back yields a structurally equal model."""
    chunks = [_render_agent(a) for a in model.agents]
    chunks += [_render_action(a) for a in model.actions]
    chunks += [_render_task(t) for t in model.tasks]
    if not chunks:
        return ""
    return "\n\n".join(chunks) + "\n"
