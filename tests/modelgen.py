"""Seeded random models for printer round-trip checks.

Every tree built here prints to source the parser accepts again, so the
shapes stay inside what the surface syntax can spell: literal values are
non-negative (a leading minus reparses as unary negation) and definition
targets are always concrete attributes, never open placeholders.
"""
from __future__ import annotations

import random

from remodyc import ast
from remodyc.units import parse_unit

UNIT_SPELLINGS = (
    "",
    "m",
    "km",
    "cm",
    "s",
    "h",
    "day",
    "kg",
    "g",
    "K",
    "degreeC",
    "rad",
    "mol",
    "m/s",
    "km/h",
    "km/day",
    "kg/day",
    "kg.m/s^2",
    "m.s^-1",
    "m^2",
    "kg.m^2/s^2",
)

STAGE_NAMES = ("Egg", "Larva", "Pupa", "Adult", "Seed", "Sprout")
SPECIES_NAMES = ("Grasshopper", "Goat", "Daphnia", "Fern")
WORLD_ATTRS = ("temperature", "season", "rainfall", "tally")
PATCH_ATTRS = ("grass", "moisture", "litter", "shade")
STAGE_ATTRS = ("age", "energy", "mass", "thirst", "vigor")
ACTION_NAMES = ("grow", "wander", "bask", "forage", "settle", "molt", "rest")
UTILITY_NAMES = ("bite", "pace", "dose", "gain", "pull")
PLACEHOLDER_NAMES = ("speed", "target", "appetite")
VALUES = (0.0, 1.0, 2.0, 3.0, 0.5, 0.25, 0.125, 10.0, 42.0, 86400.0, 6.02, 1e-05, 2.5)

UNARY_FUNCTIONS = ("cos", "sin", "tan", "exp", "ln", "log", "sqrt", "abs", "floor", "ceiling")
RELOPS = ("<", "<=", ">", ">=")


def generate_model(seed: int) -> ast.Model:
    """A structurally valid random model, deterministic in the seed."""
    return _Generator(random.Random(seed)).model()


class _Generator:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.stage_names: tuple[str, ...] = ()

    def model(self) -> ast.Model:
        rng = self.rng
        agents: list[ast.AgentDefinition] = []
        if rng.random() < 0.5:
            agents.append(ast.WorldDefinition(self.declarations(WORLD_ATTRS)))
        if rng.random() < 0.7:
            agents.append(ast.PatchDefinition(self.declarations(PATCH_ATTRS)))
        self.stage_names = tuple(sorted(rng.sample(STAGE_NAMES, rng.randint(1, 3))))
        for name in self.stage_names:
            agents.append(
                ast.StageDefinition(name, rng.choice(SPECIES_NAMES), self.declarations(STAGE_ATTRS))
            )
        actions = tuple(self.action(name) for name in sorted(rng.sample(ACTION_NAMES, rng.randint(1, 3))))
        tasks = tuple(self.task(rng.choice(actions)) for _ in range(rng.randint(1, 3)))
        return ast.Model(tuple(agents), actions, tasks)

    def declarations(self, pool) -> tuple[ast.AttributeDeclaration, ...]:
        rng = self.rng
        declarations = []
        for name in sorted(rng.sample(pool, rng.randint(1, 3))):
            unit = parse_unit(rng.choice(UNIT_SPELLINGS))
            initial = None
            if rng.random() < 0.7:
                initial = ast.Literal(rng.choice(VALUES), unit)
            declarations.append(ast.AttributeDeclaration(name, unit, initial))
        return tuple(declarations)

    def action(self, name: str) -> ast.ActionDefinition:
        rng = self.rng
        utility_names = tuple(sorted(rng.sample(UTILITY_NAMES, rng.randint(0, 2))))
        definitions = tuple(
            self.definition(utility_names) for _ in range(rng.randint(0, 2))
        )
        lifecycle = tuple(
            self.directive(utility_names) for _ in range(rng.randint(0, 2))
        )
        if not definitions and not lifecycle:
            definitions = (self.definition(utility_names),)
        utilities = tuple(
            ast.UtilityDefinition(utility, self.expression(2, utility_names))
            for utility in utility_names
        )
        return ast.ActionDefinition(name, definitions, utilities, lifecycle)

    def definition(self, utilities) -> ast.AttributeDefinition:
        rng = self.rng
        qualifier = rng.choices((None, "world", "here"), weights=(6, 2, 2))[0]
        pool = {None: STAGE_ATTRS, "world": WORLD_ATTRS, "here": PATCH_ATTRS}[qualifier]
        target = ast.AttributeVariable(qualifier, rng.choice(pool))
        decorator = rng.choice(tuple(ast.Decorator))
        return ast.AttributeDefinition(target, decorator, self.expression(3, utilities))

    def directive(self, utilities) -> ast.LifecycleDirective:
        rng = self.rng
        kind = rng.randrange(3)
        if kind == 0:
            return ast.Die(self.comparison(utilities))
        if kind == 1:
            return ast.StageTransition(rng.choice(self.stage_names), self.comparison(utilities))
        guard = self.comparison(utilities) if rng.random() < 0.5 else None
        return ast.Spawn(rng.choice(self.stage_names), self.expression(2, utilities), guard)

    def comparison(self, utilities) -> ast.Comparison:
        return ast.Comparison(
            self.expression(2, utilities),
            self.rng.choice(RELOPS),
            self.expression(2, utilities),
        )

    def task(self, action: ast.ActionDefinition) -> ast.TaskDefinition:
        rng = self.rng
        agent = rng.choice(self.stage_names + ("World", "Patch"))
        bindings = tuple(
            (name, self.expression(2, (), placeholders=False))
            for name in sorted(ast.placeholders_of(action))
        )
        return ast.TaskDefinition(agent, action.name, bindings)

    # -- expressions

    def expression(self, depth: int, utilities, placeholders: bool = True) -> ast.Expression:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            return self.terminal(utilities, placeholders)
        sub = lambda: self.expression(depth - 1, utilities, placeholders)
        roll = rng.randrange(10)
        if roll < 3:
            op = rng.choice(("+", "-", "*", "/"))
            return ast.Arithmetics(op, (sub(), sub()))
        if roll == 3:
            return ast.Arithmetics("-", (sub(),))
        if roll == 4:
            exponent = ast.Literal(float(rng.randint(0, 3)), parse_unit(""))
            return ast.Arithmetics("^", (sub(), exponent))
        if roll == 5:
            if rng.random() < 0.7:
                return ast.Apply(rng.choice(UNARY_FUNCTIONS), (sub(),))
            return ast.Apply(rng.choice(("min", "max")), (sub(), sub()))
        if roll == 6:
            op = rng.choice(("as", "in"))
            return ast.Cast(op, (sub(),), parse_unit(rng.choice(UNIT_SPELLINGS)))
        if roll == 7:
            return ast.Draw("uniform", (sub(), sub()))
        if roll == 8:
            distribution = rng.choice(("normal", "gamma", "loglogistic"))
            return ast.Draw(distribution, (sub(), sub()))
        return ast.Direction(rng.choice(PATCH_ATTRS))

    def terminal(self, utilities, placeholders: bool) -> ast.Expression:
        rng = self.rng
        roll = rng.randrange(10)
        if roll < 4:
            spelling = rng.choice(UNIT_SPELLINGS)
            return ast.Literal(rng.choice(VALUES), parse_unit(spelling))
        if roll < 7:
            qualifier = rng.choices((None, "world", "here"), weights=(6, 2, 2))[0]
            pool = {None: STAGE_ATTRS, "world": WORLD_ATTRS, "here": PATCH_ATTRS}[qualifier]
            return ast.AttributeVariable(qualifier, rng.choice(pool))
        if roll == 7:
            return ast.DeltaTime()
        if roll == 8 and utilities:
            return ast.UtilityVariable(rng.choice(utilities))
        if roll == 9 and placeholders and rng.random() < 0.5:
            return ast.PlaceholderRef(rng.choice(PLACEHOLDER_NAMES))
        return ast.Literal(rng.choice(VALUES), parse_unit(""))
