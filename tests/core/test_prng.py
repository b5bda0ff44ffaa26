"""Tests for the Park-Miller PRNG (paper Appendix A)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.prng import (
    MODULUS,
    MULTIPLIER,
    ParkMillerPRNG,
    fastrand,
    fastrand_reference,
)
from repro.errors import ReproError


class TestFastrand:
    def test_matches_reference_for_many_seeds(self):
        seed = 1
        for _ in range(5000):
            expected = fastrand_reference(seed)
            assert fastrand(seed) == expected
            seed = expected

    def test_known_park_miller_checkpoint(self):
        # The canonical Park-Miller validation: starting from seed 1,
        # the 10,000th value is 1043618065 [Par88].
        seed = 1
        for _ in range(10_000):
            seed = fastrand(seed)
        assert seed == 1043618065

    def test_first_values_from_seed_one(self):
        assert fastrand(1) == MULTIPLIER
        assert fastrand(MULTIPLIER) == (MULTIPLIER * MULTIPLIER) % MODULUS

    def test_output_stays_in_range(self):
        seed = 987654321
        for _ in range(1000):
            seed = fastrand(seed)
            assert 0 < seed < MODULUS

    @pytest.mark.parametrize("bad", [0, -5, MODULUS, MODULUS + 1])
    def test_rejects_out_of_range_seeds(self, bad):
        with pytest.raises(ReproError):
            fastrand(bad)

    @pytest.mark.parametrize("seed", [20443707, 30282241, 40120775])
    def test_overflow_branch_exercised(self, seed):
        # These seeds make the Carta sum P + Q overflow bit 31 (found
        # by exhaustive search), forcing the fold-back branch of the
        # assembly listing; the reference must still agree there.
        product = 2 * MULTIPLIER * seed
        assert ((product >> 32) + ((product & 0xFFFFFFFF) >> 1)) & 0x80000000
        assert fastrand(seed) == fastrand_reference(seed)


class TestParkMillerPRNG:
    def test_reproducible_streams(self):
        a = ParkMillerPRNG(42)
        b = ParkMillerPRNG(42)
        assert [a.next_uint() for _ in range(100)] == [
            b.next_uint() for _ in range(100)
        ]

    def test_seed_folding_accepts_any_int(self):
        assert ParkMillerPRNG(0).state > 0
        assert ParkMillerPRNG(-17).state > 0
        assert ParkMillerPRNG(MODULUS).state > 0
        assert ParkMillerPRNG(MODULUS * 5 + 3).state > 0

    def test_randrange_bounds(self):
        prng = ParkMillerPRNG(7)
        values = [prng.randrange(10) for _ in range(2000)]
        assert min(values) == 0
        assert max(values) == 9

    def test_randrange_roughly_uniform(self):
        prng = ParkMillerPRNG(11)
        n = 30_000
        counts = [0] * 5
        for _ in range(n):
            counts[prng.randrange(5)] += 1
        for count in counts:
            assert abs(count - n / 5) < 5 * math.sqrt(n)

    def test_randrange_rejects_bad_bounds(self):
        prng = ParkMillerPRNG(1)
        with pytest.raises(ReproError):
            prng.randrange(0)
        with pytest.raises(ReproError):
            prng.randrange(-3)
        with pytest.raises(ReproError):
            prng.randrange(MODULUS)

    def test_uniform_in_unit_interval(self):
        prng = ParkMillerPRNG(13)
        values = [prng.uniform() for _ in range(5000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert abs(sum(values) / len(values) - 0.5) < 0.02

    def test_expovariate_mean(self):
        prng = ParkMillerPRNG(17)
        rate = 0.25
        values = [prng.expovariate(rate) for _ in range(20_000)]
        assert abs(sum(values) / len(values) - 1 / rate) < 0.15

    def test_expovariate_rejects_nonpositive_rate(self):
        with pytest.raises(ReproError):
            ParkMillerPRNG(1).expovariate(0)

    def test_choice_and_shuffle(self):
        prng = ParkMillerPRNG(19)
        items = list(range(10))
        picked = {prng.choice(items) for _ in range(500)}
        assert picked == set(items)
        shuffled = list(items)
        prng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_choice_rejects_empty(self):
        with pytest.raises(ReproError):
            ParkMillerPRNG(1).choice([])

    def test_spawn_produces_distinct_stream(self):
        parent = ParkMillerPRNG(23)
        child = parent.spawn()
        assert child.initial_seed != parent.initial_seed
        parent_values = [parent.next_uint() for _ in range(50)]
        child_values = [child.next_uint() for _ in range(50)]
        assert parent_values != child_values

    def test_reseed_restarts_stream(self):
        prng = ParkMillerPRNG(29)
        first = [prng.next_uint() for _ in range(10)]
        prng.reseed(29)
        assert [prng.next_uint() for _ in range(10)] == first

    def test_iter_uints(self):
        prng = ParkMillerPRNG(31)
        values = list(prng.iter_uints(5))
        assert len(values) == 5
        assert all(0 < v < MODULUS for v in values)


class TestStreamDifferential:
    """``uniform()`` steps the generator itself, not through
    ``next_uint()``; interleaved in any pattern, both stay the
    ``fastrand_reference`` stream draw for draw (44 examples x 2 500
    steps = 110 000 draws, seeds at both ends of the range included)."""

    STEPS = 2_500

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(1, MODULUS - 1),
           pattern=st.integers(0, 2**16 - 1))
    @example(seed=1, pattern=0x5555)
    @example(seed=2, pattern=0xFFFF)
    @example(seed=MODULUS - 2, pattern=0)
    @example(seed=MODULUS - 1, pattern=0x0F0F)
    def test_draws_follow_the_reference_stream(self, seed, pattern):
        prng = ParkMillerPRNG(seed)
        state = seed
        for step in range(self.STEPS):
            state = fastrand_reference(state)
            if pattern >> (step % 16) & 1:
                assert prng.uniform() == (state - 1) / (MODULUS - 1)
            else:
                assert prng.next_uint() == state
            assert prng.state == state
