"""The single-kernel arena: conservation, determinism, telemetry."""

from __future__ import annotations

import math

import pytest

from repro.analysis.sanitizer import check_run_queue
from repro.checkpoint.statetree import tree_checksum
from repro.errors import ReproError
from repro.experiments.common import build_machine
from repro.serving.arena import ArenaConfig, build_arena
from tests.conftest import count_work

_QUANTUM = 20.0


def _run(policy="lottery", seed=2026, load=1.5, requests=150, **overrides):
    machine = build_machine(seed=seed, quantum=_QUANTUM, policy=policy)
    config = ArenaConfig(seed=seed, load_factor=load,
                         requests_per_class=requests, **overrides)
    arena = build_arena(machine.kernel, config)
    arena.run()
    return arena


class TestConservation:
    @pytest.mark.parametrize("policy", ["lottery", "stride", "timesharing"])
    def test_every_offered_request_is_accounted(self, policy):
        arena = _run(policy=policy)
        stats = arena.stats
        for name in stats.offered:
            offered = stats.offered[name]
            shed = stats.shed.get(name, 0)
            completed = stats.completed.get(name, 0)
            in_flight = offered - shed - completed
            assert offered == arena.config.requests_per_class
            assert in_flight >= 0  # nothing completes twice
        # Under 1.5x overload the admission door actually worked.
        assert sum(stats.shed.values()) > 0

    def test_admission_counters_match_stats(self):
        arena = _run()
        by_class = {row["class"]: row for row in arena.admission.rows()}
        for name, shed in arena.stats.shed.items():
            assert by_class[name]["shed"] == shed


class TestDeterminism:
    def test_same_seed_same_everything(self):
        a, b = _run(seed=7), _run(seed=7)
        assert a.rows() == b.rows()
        assert tree_checksum(a.snapshot_state()) \
            == tree_checksum(b.snapshot_state())

    def test_different_seed_diverges(self):
        assert _run(seed=7).rows() != _run(seed=8).rows()


class TestShareOrdering:
    def test_lottery_orders_wake_p99_by_ticket_share(self):
        """The tentpole claim at small scale: more tickets, lower
        wake->dispatch tail, even while overloaded."""
        arena = _run(policy="lottery", requests=200)
        p99 = {name: arena.stats.wake[name].percentile(99.0)
               for name in ("gold", "silver", "bronze")}
        assert p99["gold"] <= p99["silver"] <= p99["bronze"]
        assert p99["bronze"] > p99["gold"]


class TestTreeStoredValues:
    """The tree policy revalues only the members their funding watchers
    flagged; every other queued member's stored value must already be
    its live funding, or the next draw runs over a stale tree.  The
    arena moves funding every way the system can: class currencies,
    RPC ticket transfers, SLO inflation of the backing tickets."""

    @pytest.mark.parametrize("load", [0.7, 1.5])
    def test_clean_members_store_their_live_funding(self, load):
        machine = build_machine(seed=2026, quantum=_QUANTUM,
                                policy="lottery-tree")
        arena = build_arena(machine.kernel, ArenaConfig(
            seed=2026, load_factor=load, requests_per_class=150, slo=True))
        policy = machine.policy
        checked = 0

        def after_dispatch(kernel, thread, outcome):
            # The walk itself lives in the sanitizer (family 3), so
            # every sanitized tree kernel gets it, not only this arena.
            nonlocal checked
            assert check_run_queue(kernel) == [], kernel.now
            checked += sum(member not in policy._dirty
                           for member in policy._members)

        machine.kernel.invariant_hooks.append(after_dispatch)
        arena.run()
        assert checked > 1_000


class TestWorkPerRequest:
    """What a served request costs each layer, as counts (ROADMAP 5a):
    deterministic for a seed, so pinned exactly -- a change to the
    per-request path shows up here as a number before it shows up on
    the ruler as a time.  Seed 1 at 0.7x, 100 requests a class, every
    optional sink off (the arena's own latency probe is the recorder);
    counted from outside, by wrapping the public seams."""

    def test_counts_per_completed_request(self, monkeypatch, walks):
        from repro.core.tickets import Ledger, Ticket
        from repro.serving.slo_controller import ClassLatencyProbe

        counts = {"created": 0, "destroyed": 0, "recorder": 0}

        def count(owner, attr, key):
            inner = getattr(owner, attr)

            def counted(*args, **kwargs):
                counts[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        count(Ledger, "create_ticket", "created")
        count(Ticket, "destroy", "destroyed")
        for event in ("on_dispatch", "on_cpu", "on_block", "on_wake",
                      "on_exit"):
            count(ClassLatencyProbe, event, "recorder")
        machine = build_machine(seed=1, quantum=_QUANTUM, policy="lottery")
        arena = build_arena(machine.kernel, ArenaConfig(
            seed=1, load_factor=0.7, requests_per_class=100))
        built = dict(counts)
        del walks[:]
        arena.run()
        assert sum(arena.stats.completed.values()) == 258
        # Per completed request: 7.1 events, 3.8 dispatches, 13.5
        # recorder callbacks, one transfer ticket minted and destroyed
        # per RPC hop (3.0), and 3.0 active-side ledger walks -- 10.8
        # before walks were gated on a funding having been read.
        assert machine.engine.events_processed == 1_835
        assert machine.kernel.dispatch_count == 993
        assert counts["recorder"] - built["recorder"] == 3_483
        assert counts["created"] - built["created"] == 774
        assert counts["destroyed"] - built["destroyed"] == 771
        assert len(walks) == 772
        # The mutation count itself is in state trees; never elided.
        assert machine.kernel.ledger.snapshot_state()["epoch"] == 7_913


class TestCallsPerRequest:
    """The per-request path priced as an exact overhead model (paper
    sections 4.4-4.6: activation on every block and wake, compensation
    on every short quantum, a transfer ticket on every RPC): Python-level
    calls per offered request on the arena above, counted with
    ``sys.setprofile`` over ``arena.run()``.  341 while the heap ordered
    events with ``Event.__lt__``, ticket mint and activation went through
    helpers of their own and every wake opened a no-op race seam;
    docs/PERFORMANCE.md section 1 names the frames left and why.  The
    bound holds on the oldest CPython CI runs: 3.12 inlines
    comprehensions and reads lower."""

    def test_a_request_costs_at_most_260_python_calls(self,
                                                      race_tracker_off):
        machine = build_machine(seed=1, quantum=_QUANTUM, policy="lottery")
        machine.kernel.invariant_hooks.clear()
        arena = build_arena(machine.kernel, ArenaConfig(
            seed=1, load_factor=0.7, requests_per_class=100))
        calls, _ = count_work(arena.run)
        offered = sum(arena.stats.offered.values())
        assert offered == 300
        assert machine.kernel.dispatch_count == 993
        per_request = sum(calls.values()) / offered
        assert per_request <= 260, calls.most_common(40)


class TestHubWorkPerDispatch:
    """What the telemetry hub does per dispatch on that same arena, as
    counts: deterministic for a seed, so pinned exactly.  Counted from
    here, with ``sys.setprofile`` over ``arena.run()`` alone."""

    @staticmethod
    def _build(hub):
        machine = build_machine(seed=1, quantum=_QUANTUM, policy="lottery")
        if hub is not None:
            hub.instrument_kernel(machine.kernel, track="serving")
        return machine, build_arena(machine.kernel, ArenaConfig(
            seed=1, load_factor=0.7, requests_per_class=100))

    @staticmethod
    def _digest(machine, arena):
        return tree_checksum({
            "rows": arena.rows(), "state": arena.snapshot_state(),
            "dispatches": machine.kernel.dispatch_count,
            "events": machine.engine.events_processed})

    def test_counts_per_dispatch_and_exported_bytes(self):
        import os

        from repro.telemetry import (Telemetry, export_chrome, export_jsonl,
                                     export_prometheus, sha256_text)

        package = os.sep + os.path.join("repro", "telemetry") + os.sep
        hub = Telemetry()
        machine, arena = self._build(hub)
        calls, _ = count_work(arena.run, within=package, qualname=True)
        # Observation never perturbs the run.
        bare = self._build(None)
        bare[1].run()
        assert self._digest(machine, arena) == self._digest(*bare)
        assert machine.kernel.dispatch_count == 993
        assert machine.engine.events_processed == 1_835
        # 2.8 spans a dispatch, each filed by its shape's site in one
        # call: the per-event callbacks never reach the generic
        # ``event`` / ``complete`` / ``end`` (``begin`` opens the quantum).
        assert dict(hub.tracer.counts()) == {
            ("scheduler", "lottery.draw"): 993, ("kernel", "quantum"): 993,
            ("ipc", "ipc.send"): 258, ("ipc", "ipc.call"): 258,
            ("ipc", "ipc.rpc"): 258}
        assert [calls[name] for name in (
            "SpanTracer.event", "SpanTracer.complete", "SpanTracer.end",
            "SpanTracer.begin", "_Site.event", "_Site.complete",
            "_Site.end")] == [0, 0, 0, 993, 1_509, 258, 993]
        # Only an amount that varies goes through ``Counter.inc``: the
        # CPU slice (516) and the clients a draw examined (993).
        assert calls["Counter.inc"] == 1_509
        # 12.0 Python-level calls into repro/telemetry/* per dispatch
        # (27 145 a run, 27.3 a dispatch, before spans had sites).
        assert sum(calls.values()) == 11_898
        values = {name: tree.get("value", tree.get("count"))
                  for name, tree in hub.registry.as_dict().items()}
        assert values == {
            'repro_blocks_total{track="serving"}': 990,
            'repro_cpu_ms_total{track="serving"}': 1_290,
            'repro_dispatches_total{track="serving"}': 993,
            'repro_exits_total{track="serving"}': 3,
            'repro_ipc_calls_total{track="serving"}': 258,
            'repro_ipc_replies_total{track="serving"}': 258,
            'repro_ipc_rpc_ms{track="serving"}': 258,
            'repro_ipc_sends_total{track="serving"}': 258,
            'repro_lottery_draws_total{track="serving"}': 993,
            'repro_lottery_examined_total{track="serving"}': 1_427,
            'repro_request_e2e_ms{class="bronze",track="serving"}': 58,
            'repro_request_e2e_ms{class="gold",track="serving"}': 100,
            'repro_request_e2e_ms{class="silver",track="serving"}': 100,
            'repro_requests_completed_total{class="bronze",track="serving"}':
                58,
            'repro_requests_completed_total{class="gold",track="serving"}':
                100,
            'repro_requests_completed_total{class="silver",track="serving"}':
                100,
            'repro_wake_to_dispatch_ms{share="0-5%"}': 630,
            'repro_wake_to_dispatch_ms{share="10-20%"}': 187,
            'repro_wake_to_dispatch_ms{share="20-50%"}': 3,
            'repro_wake_to_dispatch_ms{share="5-10%"}': 173,
            'repro_wakes_total{track="serving"}': 981,
        }
        # The bytes a reader gets, as they were before spans had sites.
        assert [sha256_text(text)[:16] for text in (
            export_jsonl(hub.tracer, hub.registry),
            export_chrome(hub.tracer),
            export_prometheus(hub.registry))] == [
            "c155c55763472e49", "11f42ff5848e0170", "398fb80fdc2bf3b5"]

    def test_all_of_the_hubs_work_is_at_most_37_frames_a_dispatch(
            self, race_tracker_off):
        """Every Python frame the hub adds, wherever it runs: the same
        run hub-on minus hub-off.  36 445 (36.7 a dispatch), two thirds
        of it outside ``repro/telemetry``: the probe's share walk
        revalues nominal funding (``Ticket.nominal_value`` 3 784,
        ``TicketHolder.nominal_funding`` 3 602), the draw hook re-sums
        the list lottery (``ListLottery.total`` and its generator) and
        ``RecorderMux`` fans every event out.  docs/PERFORMANCE.md
        section 1 has the whole decomposition."""
        from repro.telemetry import Telemetry

        # The hub's work only, not the sanitizer's.
        frames = {}
        for hub in (Telemetry(), None):
            machine, arena = self._build(hub)
            machine.kernel.invariant_hooks.clear()
            frames[hub is not None], _ = count_work(arena.run)
            assert machine.kernel.dispatch_count == 993
        added = frames[True].copy()
        added.subtract(frames[False])
        assert sum(added.values()) / 993 <= 37.0, added.most_common(20)


class TestTelemetry:
    def test_request_completions_reach_the_hub(self):
        from repro.telemetry import Telemetry

        machine = build_machine(seed=5, quantum=_QUANTUM, policy="lottery")
        hub = Telemetry()
        hub.instrument_kernel(machine.kernel, track="serving")
        arena = build_arena(machine.kernel, ArenaConfig(
            seed=5, load_factor=0.7, requests_per_class=80))
        arena.run()
        e2e = [i for i in hub.registry.instruments()
               if i.full_name.startswith("repro_request_e2e_ms")]
        assert e2e and sum(i.count for i in e2e) \
            == sum(arena.stats.completed.values())

    def test_prometheus_export_golden(self):
        """Arena + hub at 1.5x with the SLO loop on, seed 1, 400
        requests a class.  The histogram ``_sum`` lines carry
        non-integral means, so the digest also pins that the mean is
        plain sequential addition: generated on CPython 3.11, and
        reproduced on 3.12+ only because ``Histogram`` keeps a running
        total instead of calling the (there compensated) ``sum()``."""
        from repro.telemetry import Telemetry, export_prometheus, sha256_text

        machine = build_machine(seed=1)
        hub = Telemetry()
        hub.instrument_kernel(machine.kernel)
        arena = build_arena(machine.kernel, ArenaConfig(
            seed=1, load_factor=1.5, requests_per_class=400, slo=True))
        arena.run()
        hub.finalize(machine.now)
        rpc = hub.registry.get("repro_ipc_rpc_ms", {"track": "kernel"})
        assert rpc.mean() == 6.461583236321304
        assert sha256_text(export_prometheus(hub.registry)) == (
            "f79b85e6a29ed04197cce54803dfec2c"
            "f97e4e056504048d510bdfdbe7eb1460")

    def test_arena_runs_clean_without_a_hub(self):
        arena = _run(requests=50)
        assert sum(arena.stats.completed.values()) > 0


class TestHorizon:
    def test_horizon_covers_the_slowest_trace(self):
        config = ArenaConfig(load_factor=1.0, requests_per_class=100)
        slowest = max(100 / config.class_rate_per_s(spec) * 1000.0
                      for spec in config.classes)
        assert config.horizon_ms() >= slowest


class TestConfigRefusals:
    """A bad size is refused by the field's name, not by a traceback
    from the clock ("cannot run backwards"), the run horizon ("must not
    be NaN") or a bare ``TypeError``."""

    @pytest.mark.parametrize("field, value", [
        ("requests_per_class", -3), ("requests_per_class", 0),
        ("requests_per_class", 2.5), ("load_factor", math.nan),
        ("load_factor", 0.0)])
    def test_a_bad_size_names_its_field(self, field, value):
        with pytest.raises(ReproError, match=f"^{field} must be"):
            ArenaConfig(**{field: value})
