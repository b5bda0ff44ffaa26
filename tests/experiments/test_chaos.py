"""End-to-end chaos tests: determinism and sanitized recovery.

These are the acceptance tests of the chaos experiment: the same seed
and plan must reproduce a chaos run bit-for-bit (fault log, move
counts, fairness rows), and a full run with three crash/restart pairs
must hold every scheduler invariant while the windowed fairness error
reconverges below the threshold after each transition.

Seed 2718 is the experiment's default, pinned, not drawn: recovery of
all six windows within 30 s is statistical (22 of seeds 2700-2729).
"""

from repro.analysis.sanitizer import InvariantSanitizer
from repro.experiments import chaos_fairness
from repro.experiments.chaos_fairness import RECONVERGENCE_THRESHOLD
from repro.kernel import kernel as kernel_module
from tests.conftest import report_sha

#: Reconvergence must happen within this much virtual time of a fault.
BOUNDED_WINDOW_MS = 30_000.0


def _short_run(seed):
    # 80 s covers one crash (t=30s) and its restart (t=60s): enough
    # transitions to exercise evacuation + rebalance, cheap enough to
    # run twice.
    return chaos_fairness.run_variant(seed=seed, duration_ms=80_000.0)


class TestChaosDeterminism:
    def test_same_seed_and_plan_reproduce_bit_for_bit(self):
        first = _short_run(2718)
        second = _short_run(2718)
        assert first["fault_log"] == second["fault_log"]
        assert first["rows"] == second["rows"]
        assert first["windows"] == second["windows"]
        assert first["counters"] == second["counters"]

    def test_different_seed_diverges(self):
        assert _short_run(2718)["rows"] != _short_run(2719)["rows"]

    def test_fault_timestamps_match_the_plan(self):
        data = _short_run(2718)
        fired = [line.split()[0] for line in data["fault_log"]]
        planned = [f"t={op['at']:g}" for op in data["plan"].ops
                   if op["at"] <= 80_000.0]
        assert fired == planned
        assert all("skipped" not in line for line in data["fault_log"])


class TestChaosRecovery:
    def test_sanitized_run_reconverges_after_every_fault(self):
        # Attach an invariant sanitizer to every kernel the experiment
        # constructs (independent of the REPRO_SANITIZE autosanitizer,
        # so this holds in any environment).
        sanitizers = []

        def instrument(kernel):
            sanitizers.append(InvariantSanitizer(stride=7).attach(kernel))

        kernel_module.add_construction_hook(instrument)
        try:
            data = chaos_fairness.run_variant()
        finally:
            kernel_module.remove_construction_hook(instrument)

        counters = data["counters"]
        # The default plan injects three crash/restart pairs.
        assert counters["crashes"] == 3
        assert counters["restarts"] == 3
        assert counters["casualties"] >= 1  # the pinned victim
        assert counters["evacuations"] >= 1

        # Every invariant family held on every checked quantum.
        assert sanitizers, "no kernels were instrumented"
        assert all(s.checks_run > 0 for s in sanitizers)
        assert all(not s.violations for s in sanitizers)

        # Each post-fault window reconverged within the bounded window.
        fault_windows = [w for w in data["windows"] if w["cause"] != "start"]
        assert len(fault_windows) == 6
        for window in fault_windows:
            reconverged = window["reconverged_at_ms"]
            assert reconverged is not None, \
                f"window {window['cause']} @{window['start_ms']} never " \
                f"reconverged"
            assert reconverged - window["start_ms"] <= BOUNDED_WINDOW_MS
        assert data["final_error"] < RECONVERGENCE_THRESHOLD

    def test_report_summarises_every_fault_window(self):
        result = chaos_fairness.run(duration_ms=80_000.0)
        assert report_sha(result) == "9cd1d5939c33c17d"
        reconverged = result.measures["reconverged_after_ms"]
        assert len(reconverged) == 2  # crash @30s + restart @60s
        assert None not in reconverged.values()
        assert "migrations_out" in result.measures
        assert result.measures["crashed_cores"] == [1]
