"""Deterministic random numbers.

A single SplitMix64 stream (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014) drives every draw in a run.
State is one 64-bit integer threaded through pure functions, so a stored
state pins down the entire remaining sequence; serialized as 16 hex digits.

``next_raw`` and ``next_unit`` are the reference step and unit draw, and
every sampler but ``sample_uniform`` draws through them.
``sample_uniform``, the draw a run makes most, takes the same step inline
in its own frame, one Python call per draw; it must return, bit for bit,
the state and value ``next_unit`` gives, which ``tests/test_rng.py``
checks.
"""
from __future__ import annotations

import math

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def seed_state(seed: int) -> int:
    return seed & MASK


def next_raw(state: int) -> tuple[int, int]:
    """Advance once; returns (new state, 64-bit output word)."""
    state = (state + GAMMA) & MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK
    z = ((z ^ (z >> 27)) * _MIX2) & MASK
    z = z ^ (z >> 31)
    return state, z


def next_unit(state: int) -> tuple[int, float]:
    """One draw, uniform on [0, 1) with 53-bit resolution."""
    state, word = next_raw(state)
    return state, (word >> 11) * 2.0**-53


# The inverse of GAMMA modulo 2**64, which counts steps between states.
_GAMMA_INVERSE = pow(GAMMA, -1, 1 << 64)


def draws_between(before: int, after: int) -> int:
    """How many times the stream advanced from one state to the other.

    The state moves by a fixed odd increment, so the count is exact
    modular arithmetic, not an estimate.
    """
    return (((after - before) & MASK) * _GAMMA_INVERSE) & MASK


def sample_uniform(state: int, low: float, high: float) -> tuple[int, float]:
    """Always consumes exactly one draw, even when low == high: the
    ``next_raw`` step and the ``next_unit`` scaling, inline."""
    if low > high:
        raise ValueError("uniform bounds must satisfy low <= high")
    state = (state + GAMMA) & MASK
    z = ((state ^ (state >> 30)) * _MIX1) & MASK
    z = ((z ^ (z >> 27)) * _MIX2) & MASK
    return state, low + ((z ^ (z >> 31)) >> 11) * 2.0**-53 * (high - low)


def sample_normal(state: int, mean: float, sigma: float) -> tuple[int, float]:
    """Box-Muller cosine branch; always consumes exactly two draws."""
    if sigma < 0.0:
        raise ValueError("normal sigma must be non-negative")
    state, u1 = next_unit(state)
    state, u2 = next_unit(state)
    z = math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
    return state, mean + sigma * z


def sample_gamma(state: int, shape: float, scale: float) -> tuple[int, float]:
    """Marsaglia-Tsang squeeze; consumes a variable number of draws."""
    if shape <= 0.0:
        raise ValueError("gamma shape must be positive")
    if scale <= 0.0:
        raise ValueError("gamma scale must be positive")
    if shape < 1.0:
        state, value = sample_gamma(state, shape + 1.0, scale)
        state, u = next_unit(state)
        return state, value * (1.0 - u) ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        state, z = sample_normal(state, 0.0, 1.0)
        v = (1.0 + c * z) ** 3
        if v <= 0.0:
            continue
        state, u = next_unit(state)
        u = 1.0 - u
        if u < 1.0 - 0.0331 * z**4:
            return state, d * v * scale
        if math.log(u) < 0.5 * z * z + d * (1.0 - v + math.log(v)):
            return state, d * v * scale


def sample_loglogistic(state: int, scale: float, shape: float) -> tuple[int, float]:
    """Inverse transform; always consumes exactly one draw."""
    if shape <= 0.0:
        raise ValueError("loglogistic shape must be positive")
    if scale <= 0.0:
        raise ValueError("loglogistic scale must be positive")
    state, u = next_unit(state)
    if u == 0.0:
        u = 2.0**-53
    try:
        return state, scale * (u / (1.0 - u)) ** (1.0 / shape)
    except OverflowError:
        raise OverflowError(f"loglogistic draw overflows: shape {shape} is too small") from None


def format_state(state: int) -> str:
    return format(state & MASK, "016x")


def parse_state(text: str) -> int:
    """The state ``text`` spells in exactly 16 hex digits; a sign, ``0x``,
    ``_`` or blank, which ``int(text, 16)`` takes, raises ``ValueError``."""
    if len(text) != 16 or text.strip("0123456789abcdefABCDEF"):
        raise ValueError(f"state must be 16 hex digits, got {text!r}")
    return int(text, 16)
