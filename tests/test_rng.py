"""The random stream: reference sequence, draw counts, distributions."""
import math
import statistics

import pytest
from hypothesis import example, given, strategies as st

from remodyc import rng


def reference_words(seed, count):
    """Straight-line transcription of the SplitMix64 reference."""
    words = []
    x = seed % 2**64
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) % 2**64
        z = x
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        words.append(z ^ (z >> 31))
    return words


def take_units(state, count):
    out = []
    for _ in range(count):
        state, u = rng.next_unit(state)
        out.append(u)
    return state, out


def test_first_output_from_seed_zero():
    _, word = rng.next_raw(rng.seed_state(0))
    assert word == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 0xDEADBEEF])
def test_matches_reference_sequence(seed):
    state = rng.seed_state(seed)
    mine = []
    for _ in range(50):
        state, word = rng.next_raw(state)
        mine.append(word)
    assert mine == reference_words(seed, 50)


def test_unit_draws_are_53_bit(seed=7):
    _, units = take_units(rng.seed_state(seed), 1000)
    assert all(0.0 <= u < 1.0 for u in units)
    assert all(u == (w >> 11) * 2.0**-53 for u, w in zip(units, reference_words(seed, 1000)))


# Bounds for the inline uniform draw: signed zeros, the least subnormal,
# whose spans a reassociated scale loses, and spans up to one that
# overflows to infinity, where a zero draw gives NaN.
UNIFORM_BOUNDS = [0.0, -0.0, 5e-324, -5e-324, 0.1, 1.0, -2.5, 6.283185307179586, 1e308, -1e308]
# The state whose next unit draw is exactly 0.0.
ZERO_DRAW = (-rng.GAMMA) & rng.MASK


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.sampled_from(UNIFORM_BOUNDS), st.sampled_from(UNIFORM_BOUNDS))
@example(ZERO_DRAW, -1e308, 1e308)
@example(ZERO_DRAW, -0.0, 0.0)
@example(ZERO_DRAW, 5e-324, 5e-324)
@example(0, 0.0, 5e-324)  # a draw above one half rounds up to the least subnormal
def test_inline_uniform_draw_equals_its_reference(state, low, high):
    """``sample_uniform`` takes the SplitMix64 step inline; its state and
    value are, bit for bit, ``next_unit``'s draw scaled onto the bounds,
    in one draw, and inverted bounds raise."""
    if low > high:
        with pytest.raises(ValueError, match="^uniform bounds must satisfy low <= high$"):
            rng.sample_uniform(state, low, high)
        return
    after, value = rng.sample_uniform(state, low, high)
    reference, u = rng.next_unit(state)
    assert after == reference
    assert value.hex() == (low + u * (high - low)).hex()
    assert rng.draws_between(state, after) == 1


class TestDrawCounts:
    def consumed(self, sampler, *args):
        before = rng.seed_state(99)
        after, _ = sampler(before, *args)
        return rng.draws_between(before, after)

    def test_uniform_is_one_draw(self):
        assert self.consumed(rng.sample_uniform, 0.0, 1.0) == 1
        assert self.consumed(rng.sample_uniform, 5.0, 5.0) == 1

    def test_normal_is_two_draws(self):
        assert self.consumed(rng.sample_normal, 0.0, 1.0) == 2
        assert self.consumed(rng.sample_normal, 3.0, 0.0) == 2

    def test_loglogistic_is_one_draw(self):
        assert self.consumed(rng.sample_loglogistic, 2.0, 3.0) == 1

    def test_gamma_is_at_least_three_draws(self):
        assert self.consumed(rng.sample_gamma, 2.0, 3.0) >= 3
        assert self.consumed(rng.sample_gamma, 0.5, 1.0) >= 4

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 500))
    def test_draws_between_inverts_stepping(self, seed, count):
        state = rng.seed_state(seed)
        stepped = state
        for _ in range(count):
            stepped, _ = rng.next_raw(stepped)
        assert rng.draws_between(state, stepped) == count


class TestDistributions:
    def samples(self, sampler, count, *args, seed=2026):
        state = rng.seed_state(seed)
        out = []
        for _ in range(count):
            state, x = sampler(state, *args)
            out.append(x)
        return out

    def test_uniform_bounds_and_mean(self):
        xs = self.samples(rng.sample_uniform, 5000, 2.0, 6.0)
        assert all(2.0 <= x < 6.0 for x in xs)
        assert abs(statistics.fmean(xs) - 4.0) < 0.1

    def test_degenerate_uniform(self):
        xs = self.samples(rng.sample_uniform, 10, 5.0, 5.0)
        assert xs == [5.0] * 10

    def test_normal_moments(self):
        xs = self.samples(rng.sample_normal, 20000, 0.0, 1.0)
        assert abs(statistics.fmean(xs)) < 0.05
        assert abs(statistics.pvariance(xs) - 1.0) < 0.1

    def test_normal_zero_sigma(self):
        xs = self.samples(rng.sample_normal, 10, 7.5, 0.0)
        assert xs == [7.5] * 10

    def test_gamma_moments(self):
        xs = self.samples(rng.sample_gamma, 20000, 2.0, 3.0)
        assert all(x > 0.0 for x in xs)
        assert abs(statistics.fmean(xs) - 6.0) < 0.3
        assert abs(statistics.pvariance(xs) - 18.0) < 2.0

    def test_gamma_small_shape(self):
        xs = self.samples(rng.sample_gamma, 20000, 0.5, 2.0)
        assert all(x >= 0.0 for x in xs)
        assert abs(statistics.fmean(xs) - 1.0) < 0.1

    def test_uniform_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            rng.sample_uniform(rng.seed_state(1), 2.0, 1.0)

    def test_normal_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            rng.sample_normal(rng.seed_state(1), 0.0, -0.5)

    def test_gamma_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            rng.sample_gamma(rng.seed_state(1), 0.0, 1.0)

    def test_gamma_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            rng.sample_gamma(rng.seed_state(1), 2.0, 0.0)

    def test_loglogistic_median(self):
        xs = self.samples(rng.sample_loglogistic, 20000, 2.0, 3.0)
        assert all(x >= 0.0 for x in xs)
        below = sum(1 for x in xs if x < 2.0)
        assert abs(below / len(xs) - 0.5) < 0.02

    def test_loglogistic_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            rng.sample_loglogistic(rng.seed_state(1), 2.0, -1.0)

    def test_loglogistic_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            rng.sample_loglogistic(rng.seed_state(1), -2.0, 1.0)

    def test_loglogistic_takes_a_zero_draw_as_the_least_one(self):
        """From this state the next unit draw is exactly 0.0, which the
        sampler replaces by 2**-53, the least draw above it, in one draw."""
        state = ZERO_DRAW
        assert rng.next_unit(state)[1] == 0.0
        after, value = rng.sample_loglogistic(state, 2.0, 3.0)
        assert value == (2**-53 / (1 - 2**-53)) ** (1 / 3.0) * 2.0
        assert rng.draws_between(state, after) == 1


class TestSerialization:
    def test_format_is_16_hex_digits(self):
        assert rng.format_state(0) == "0000000000000000"
        assert rng.format_state(0xE220A8397B1DCDAF) == "e220a8397b1dcdaf"

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_round_trip(self, state):
        text = rng.format_state(state)
        assert len(text) == 16
        assert rng.parse_state(text) == state

    # Texts that are not 16 hex digits, each of which ``int(text, 16)``
    # takes, ``-000000000000001`` as the state -1.
    @pytest.mark.parametrize("text", ["abc", "-000000000000001", "0x3c6ef372fe94f8",
                                      "+3c6ef372fe94f8a", "3c6e_f372fe94f82", " 3c6ef372fe94f82",
                                      "3c6ef372fe94f82b\n", "3c6ef372fe94f82b0"])
    def test_parse_refuses_what_is_not_16_hex_digits(self, text):
        with pytest.raises(ValueError, match="^state must be 16 hex digits, got "):
            rng.parse_state(text)


def test_same_seed_same_sequence():
    a = take_units(rng.seed_state(12345), 100)
    b = take_units(rng.seed_state(12345), 100)
    assert a == b
