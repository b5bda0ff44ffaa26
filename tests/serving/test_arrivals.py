"""Statistical acceptance + bit-reproducibility of the arrival processes."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.errors import ReproError
from repro.workloads.arrivals import (ARRIVAL_KINDS, DiurnalArrivals,
                                      MMPPArrivals, PoissonArrivals,
                                      make_arrivals, replay_digest)

SEEDS = (7, 42, 2026)
RATE = 100.0  # 100/s -> mean inter-arrival 10ms


def _gaps(process, count=2000):
    instants = process.take(count)
    return [b - a for a, b in zip(instants, instants[1:])]


class TestStatisticalAcceptance:
    """Per-seed mean/CV tolerances: each process is what it claims."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_poisson_mean_and_cv(self, seed):
        gaps = _gaps(PoissonArrivals(seed, RATE))
        mean = statistics.mean(gaps)
        cv = statistics.pstdev(gaps) / mean
        assert mean == pytest.approx(1000.0 / RATE, rel=0.05)
        assert cv == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mmpp_is_bursty_but_rate_true(self, seed):
        gaps = _gaps(MMPPArrivals(seed, RATE, burst_factor=4.0,
                                  mean_dwell_ms=1000.0))
        mean = statistics.mean(gaps)
        cv = statistics.pstdev(gaps) / mean
        # Time-averaged rate stays near the request; burstiness shows
        # as inter-arrival CV well above the Poisson baseline of 1.
        assert mean == pytest.approx(1000.0 / RATE, rel=0.25)
        assert cv > 1.1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_diurnal_mean_over_full_cycles(self, seed):
        # A short period so 3000 arrivals span several full cycles;
        # over whole cycles the thinned rate averages back to RATE.
        gaps = _gaps(DiurnalArrivals(seed, RATE, period_ms=5_000.0,
                                     amplitude=0.8), count=3000)
        mean = statistics.mean(gaps)
        cv = statistics.pstdev(gaps) / mean
        assert mean == pytest.approx(1000.0 / RATE, rel=0.1)
        assert cv > 1.1  # rate modulation adds variance over Poisson

    def test_diurnal_rate_at_tracks_the_sinusoid(self):
        process = DiurnalArrivals(1, RATE, period_ms=1000.0, amplitude=0.5)
        assert process.rate_at(0.0) == pytest.approx(RATE)
        assert process.rate_at(250.0) == pytest.approx(RATE * 1.5)
        assert process.rate_at(750.0) == pytest.approx(RATE * 0.5)


class TestDeterminism:
    @pytest.mark.parametrize("kind", sorted(ARRIVAL_KINDS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_seed_replays_bit_identically(self, kind, seed):
        first = make_arrivals(kind, seed, RATE).take(500)
        second = make_arrivals(kind, seed, RATE).take(500)
        assert first == second

    def test_seeds_decorrelate_streams(self):
        a = make_arrivals("poisson", 1, RATE).take(100)
        b = make_arrivals("poisson", 2, RATE).take(100)
        assert a != b

    @pytest.mark.parametrize("kind,digest", [
        ("poisson",
         "a8bae379b926158a5ea8623b7edc51fa"
         "1e432b2ae945631aa8af34b5d5e22ff5"),
        ("mmpp",
         "d3a7082c2f5c74405dee33d601bc6ebd"
         "263a0fce4fbf720bb609a5da476e3949"),
        ("diurnal",
         "4537400f25fa5af00ad1ab64a267f92f"
         "ba5badad73c83d7d1e5eac4c5edc0757"),
    ])
    def test_pinned_replay_digests(self, kind, digest):
        """The exact float sequences are pinned: any change to the
        generators (or the PRNG underneath) is a visible diff here."""
        assert replay_digest(kind, 42, RATE, 200) == digest


class TestSnapshotRestore:
    @pytest.mark.parametrize("kind", sorted(ARRIVAL_KINDS))
    def test_restore_resumes_the_exact_stream(self, kind):
        process = make_arrivals(kind, 42, RATE)
        process.take(123)
        state = process.snapshot_state()
        tail = process.take(200)
        fresh = make_arrivals(kind, 42, RATE)
        fresh.restore_state(state)
        assert fresh.emitted == 123
        assert fresh.take(200) == tail

    def test_snapshot_carries_kind_and_position(self):
        process = make_arrivals("mmpp", 7, RATE)
        process.take(10)
        state = process.snapshot_state()
        assert state["kind"] == "mmpp"
        assert state["emitted"] == 10
        assert state["clock_ms"] == process.clock_ms


class TestValidation:
    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ReproError, match="unknown arrival kind"):
            make_arrivals("lunar", 1, RATE)

    def test_nonpositive_rate_is_an_error(self):
        with pytest.raises(ReproError, match="rate must be positive"):
            make_arrivals("poisson", 1, 0.0)

    def test_mmpp_rejects_degenerate_burst(self):
        with pytest.raises(ReproError, match="burst factor"):
            MMPPArrivals(1, RATE, burst_factor=1.0)

    def test_diurnal_rejects_full_amplitude(self):
        with pytest.raises(ReproError, match="amplitude"):
            DiurnalArrivals(1, RATE, amplitude=1.0)

    # A NaN rate used to make NaN instants (Poisson) or never return
    # from ``take()`` (MMPP, diurnal: the phase and thinning loops test
    # against NaN); an infinite one made 0 ms gaps.  Refused at
    # construction, so no stream here is ever advanced.
    @pytest.mark.parametrize("kind", sorted(ARRIVAL_KINDS))
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_a_non_finite_rate_is_refused(self, kind, rate):
        with pytest.raises(ReproError, match="arrival rate must be"):
            make_arrivals(kind, 1, rate)

    @pytest.mark.parametrize("kind, param, value, name", [
        # MMPP with a NaN burst factor never returned from ``take()``.
        ("mmpp", "burst_factor", math.nan, "burst factor"),
        ("mmpp", "burst_factor", math.inf, "burst factor"),
        ("mmpp", "mean_dwell_ms", math.nan, "mean dwell"),
        ("diurnal", "period_ms", math.nan, "period"),
        ("diurnal", "amplitude", math.nan, "amplitude")])
    def test_a_non_finite_shape_parameter_is_refused(self, kind, param,
                                                     value, name):
        with pytest.raises(ReproError, match=f"^{name} must"):
            make_arrivals(kind, 1, RATE, **{param: value})
