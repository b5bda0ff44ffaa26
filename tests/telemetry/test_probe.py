"""KernelProbe + Telemetry hub: spans from live kernels, zero perturbation."""

import json

from repro.checkpoint.replay import ReplayRecorder
from repro.experiments.chaos_fairness import chaos_plan
from repro.kernel.ipc import Port
from repro.kernel.syscalls import Call, Compute, Receive, Reply
from repro.shard.engine import ShardedEngine
from repro.telemetry import Telemetry
from repro.telemetry.spans import Span, SpanTracer
from tests.conftest import make_lottery_kernel, spin_body


def _spans(hub, name):
    return [s for s in hub.tracer.spans if s.name == name]


class TestQuantumSpans:
    def test_one_quantum_span_per_dispatch(self):
        kernel = make_lottery_kernel(seed=7)
        hub = Telemetry()
        probe = hub.instrument_kernel(kernel)
        kernel.spawn(spin_body(), "a", tickets=100)
        kernel.spawn(spin_body(), "b", tickets=300)
        kernel.run_until(2000)
        hub.finalize(kernel.now)
        quanta = _spans(hub, "quantum")
        assert len(quanta) == probe._dispatches.value > 0
        assert all(s.category == "kernel" for s in quanta)
        assert all(s.end is not None and s.end >= s.start for s in quanta)

    def test_quantum_outcomes(self):
        kernel = make_lottery_kernel(seed=7)
        hub = Telemetry()
        hub.instrument_kernel(kernel)
        port = Port(kernel, "p")

        def blocker(ctx):
            yield Compute(10.0)
            yield Receive(port)  # blocks forever

        def finisher(ctx):
            yield Compute(10.0)

        kernel.spawn(blocker, "blocker", tickets=100)
        kernel.spawn(finisher, "finisher", tickets=100)
        kernel.spawn(spin_body(), "spinner", tickets=100)
        kernel.run_until(2000)
        hub.finalize(kernel.now)
        outcomes = {s.attrs.get("outcome") for s in _spans(hub, "quantum")}
        assert {"block", "exit", "preempt"} <= outcomes

    def test_wake_to_dispatch_latency_recorded_by_share_band(self):
        kernel = make_lottery_kernel(seed=7)
        hub = Telemetry()
        hub.instrument_kernel(kernel)
        kernel.spawn(spin_body(), "small", tickets=100)
        kernel.spawn(spin_body(), "large", tickets=900)
        kernel.run_until(5000)
        hub.finalize(kernel.now)
        latency = [i for i in hub.registry.instruments()
                   if i.full_name.startswith("repro_wake_to_dispatch_ms")]
        assert latency and sum(i.count for i in latency) > 0
        assert any('share="50-100%"' in i.full_name for i in latency)


class TestLotteryDraws:
    def test_draw_events_mirror_draw_counter(self):
        kernel = make_lottery_kernel(seed=11)
        hub = Telemetry()
        hub.instrument_kernel(kernel)
        kernel.spawn(spin_body(), "a", tickets=100)
        kernel.spawn(spin_body(), "b", tickets=100)
        kernel.run_until(1000)
        hub.finalize(kernel.now)
        draws = _spans(hub, "lottery.draw")
        counter = hub.registry.get('repro_lottery_draws_total{track="kernel"}')
        assert draws and counter is not None
        assert len(draws) == counter.value
        sample = draws[0].attrs
        assert sample["funding"] > 0 and sample["total"] >= sample["funding"]
        assert isinstance(sample["prng_state"], int)


class TestIpcSpans:
    def test_rpc_lifetime_becomes_a_span(self):
        kernel = make_lottery_kernel(seed=5)
        hub = Telemetry()
        hub.instrument_kernel(kernel)
        port = Port(kernel, "echo")
        replies = []

        def server(ctx):
            while True:
                request = yield Receive(port)
                yield Compute(10.0)
                yield Reply(request, f"echo:{request.message}")

        def client(ctx):
            response = yield Call(port, "ping")
            replies.append(response)

        kernel.spawn(server, "server", tickets=100)
        kernel.spawn(client, "client", tickets=100)
        kernel.run_until(5000)
        hub.finalize(kernel.now)
        assert replies == ["echo:ping"]
        calls = _spans(hub, "ipc.call")
        rpcs = _spans(hub, "ipc.rpc")
        assert len(calls) == len(rpcs) == 1
        assert rpcs[0].attrs["port"] == "echo"
        assert rpcs[0].duration >= 10.0
        assert hub.registry.get(
            'repro_ipc_replies_total{track="kernel"}').value == 1


class TestClusterAndFaults:
    def test_chaos_run_yields_migration_and_fault_spans(self):
        """The sharded chaos run, observed: per-core quantum spans,
        rebalance evictions and evacuation respawns in the stitched
        trace, and the crash fault and its casualty in the obs frames."""
        def observed(**engine_args):
            with ShardedEngine(chaos_plan(), obs=True,
                               **engine_args) as engine:
                engine.advance(40_000.0)  # past core 1's crash at 30 s
                return (engine.stitched_trace(),
                        [frame["shard"] for frame in
                         engine.obs.latest_frames()])

        trace, shard = observed(backend="single")
        assert observed(backend="mp", shards=3) == (trace, shard)
        events = json.loads(trace)["traceEvents"]
        assert {"quantum", "shard.rx.evict", "shard.rx.spawn",
                "shard.flow.spawn", "thread_name"} \
            <= {event["name"] for event in events}
        assert {"core0", "core1", "core2"} <= {
            event["args"]["name"] for event in events
            if event["name"] == "thread_name"}
        assert (shard[1]["crashed"], shard[1]["casualties"]) == (True, 1)
        assert shard[1]["evacuations"] >= 1


class TestNoPerturbation:
    def _dispatch_stream(self, instrument: bool):
        kernel = make_lottery_kernel(seed=42)
        replay = ReplayRecorder()
        kernel.attach_recorder(replay)
        hub = None
        if instrument:
            hub = Telemetry()
            hub.instrument_kernel(kernel)
        kernel.spawn(spin_body(), "a", tickets=100)
        kernel.spawn(spin_body(), "b", tickets=200)
        kernel.spawn(spin_body(), "c", tickets=700)
        kernel.run_until(5000)
        if hub is not None:
            hub.finalize(kernel.now)
            hub.close()
        return replay.entries

    def test_instrumentation_does_not_change_dispatch_stream(self):
        assert self._dispatch_stream(False) == self._dispatch_stream(True)


class TestDetach:
    def test_close_restores_kernel_and_policy(self):
        kernel = make_lottery_kernel(seed=3)
        assert kernel.recorder is None
        hub = Telemetry()
        hub.instrument_kernel(kernel)
        assert kernel.telemetry is hub
        assert kernel.policy.draw_hook is not None
        hub.close()
        assert kernel.recorder is None
        assert kernel.telemetry is None
        assert kernel.policy.draw_hook is None


class TestBoundInstruments:
    """The hub keeps the instruments it looked up; creation stays lazy
    and handles never outlive their hub's registry."""

    def test_instruments_appear_on_first_use_only(self):
        kernel = make_lottery_kernel(seed=7)
        hub = Telemetry()
        hub.instrument_kernel(kernel)
        kernel.spawn(spin_body(), "a", tickets=100)
        kernel.spawn(spin_body(), "b", tickets=100)
        kernel.run_until(1000)
        names = set(hub.registry.as_dict())
        assert 'repro_lottery_draws_total{track="kernel"}' in names
        assert 'repro_lottery_fallbacks_total{track="kernel"}' not in names
        # Two equal spinners only ever hold a 50 % share.
        bands = {name for name in names
                 if name.startswith("repro_wake_to_dispatch_ms")}
        assert bands == {'repro_wake_to_dispatch_ms{share="50-100%"}'}
        # An unfunded thread alone on the queue forces the FIFO
        # fallback; its counter is created by that first use.
        lonely = make_lottery_kernel(seed=7)
        hub.instrument_kernel(lonely, track="lonely")
        lonely.spawn(spin_body(), "unfunded")
        lonely.run_until(500)
        fallbacks = hub.registry.get(
            "repro_lottery_fallbacks_total", {"track": "lonely"})
        assert fallbacks is not None
        assert fallbacks.value == lonely.policy.fallback_selections > 0

    def test_second_hub_after_close_records_into_its_own_registry(self):
        kernel = make_lottery_kernel(seed=5)
        port = Port(kernel, "svc")

        def server(ctx):
            while True:
                request = yield Receive(port)
                yield Compute(5.0)
                yield Reply(request, "ok")

        def client(ctx):
            while True:
                yield Call(port, "ping")
                yield Compute(5.0)

        kernel.spawn(server, "server", tickets=100)
        kernel.spawn(client, "client", tickets=100)
        first = Telemetry()
        first.instrument_kernel(kernel)
        kernel.run_until(1000)
        first.close()
        frozen = first.registry.as_dict()
        assert frozen['repro_ipc_replies_total{track="kernel"}']["value"] > 0

        second = Telemetry()
        second.instrument_kernel(kernel)
        kernel.run_until(2000)
        assert first.registry.as_dict() == frozen
        for name in ('repro_dispatches_total{track="kernel"}',
                     'repro_lottery_draws_total{track="kernel"}',
                     'repro_ipc_calls_total{track="kernel"}',
                     'repro_ipc_replies_total{track="kernel"}'):
            assert second.registry.as_dict()[name]["value"] > 0
        rpc = second.registry.get("repro_ipc_rpc_ms", {"track": "kernel"})
        assert rpc is not None and rpc.count > 0


class TestBoundedCost:
    """Work-count guard: a dispatch re-values only what a structural
    mutation actually touched, not every live thread."""

    @staticmethod
    def _nominal_evaluations_per_dispatch(monkeypatch, frontends):
        from dataclasses import replace

        from repro.core.tickets import Ticket
        from repro.experiments.common import build_machine
        from repro.serving.arena import ArenaConfig, build_arena
        from repro.serving.tiers import DEFAULT_CLASSES

        evaluations = [0]
        original = Ticket.nominal_value

        def counted(ticket):
            evaluations[0] += 1
            return original(ticket)

        machine = build_machine(seed=1, quantum=20.0, policy="lottery")
        Telemetry().instrument_kernel(machine.kernel, track="serving")
        classes = tuple(replace(spec, frontends=spec.frontends * frontends)
                        for spec in DEFAULT_CLASSES)
        arena = build_arena(machine.kernel, ArenaConfig(
            seed=1, load_factor=1.5, requests_per_class=300,
            classes=classes))
        with monkeypatch.context() as patch:
            patch.setattr(Ticket, "nominal_value", counted)
            arena.run()
        return evaluations[0] / machine.kernel.dispatch_count

    def test_nominal_evaluations_per_dispatch_stay_bounded(self, monkeypatch):
        # Without the nominal caches the probe's share computation
        # re-valued every live thread on every dispatch: 28.4 per
        # dispatch on this arena, 64.7 with four times the frontends.
        stock = self._nominal_evaluations_per_dispatch(monkeypatch, 1)
        wide = self._nominal_evaluations_per_dispatch(monkeypatch, 4)
        assert stock <= 10.0
        assert wide <= 10.0

    def test_hub_looks_an_instrument_up_once_not_once_per_event(
            self, monkeypatch):
        # The probe, the draw hook and the IPC / request callbacks keep
        # the instruments (and track name) they found; before, each
        # event rebuilt a label dict and a key to find them again:
        # 9 651 lookups over this run, 1 220 of them by dispatch 214.
        from repro.experiments.common import build_machine
        from repro.serving.arena import ArenaConfig, build_arena

        lookups = [0]
        for name in ("_counter", "_histogram"):
            original = getattr(Telemetry, name)

            def counted(hub, *args, _original=original):
                lookups[0] += 1
                return _original(hub, *args)

            monkeypatch.setattr(Telemetry, name, counted)
        machine = build_machine(seed=1, quantum=20.0, policy="lottery")
        Telemetry().instrument_kernel(machine.kernel, track="serving")
        arena = build_arena(machine.kernel, ArenaConfig(
            seed=1, load_factor=1.5, requests_per_class=300))
        until = 0.0
        while machine.kernel.dispatch_count < 200:
            until += 50.0
            arena.run(until)
        warmed_up = lookups[0]
        arena.run()
        assert machine.kernel.dispatch_count > 1500
        assert 0 < lookups[0] == warmed_up


class TestBoundedRetention:
    """What a completed span costs to keep, and to read back, as
    deterministic facts (allocation sizes and object counts, no clock)."""

    @staticmethod
    def _hub_mix(tracer, rounds):
        """The hub's four shapes per round: a draw (8 attrs), a quantum
        through begin/end (4), an IPC call (1) and its RPC span (2)."""
        for index in range(rounds):
            now = 20.0 * index
            tracer.event("serving", "lottery.draw", "scheduler", now,
                         {"winner": "fe:gold:0", "tid": index % 40,
                          "funding": 100.0 + index % 3,
                          "total": 1500.0 + index % 7,
                          "runnable": index % 9, "examined": index % 5,
                          "fallback": False,
                          "prng_state": index * 48271 % 2147483647})
            quantum = tracer.begin("serving", "quantum", "kernel", now,
                                   {"thread": "fe:gold:0", "tid": index % 40,
                                    "share": round(1 / (3 + index % 11), 6)})
            tracer.event("serving", "ipc.call", "ipc", now + 1.0,
                         {"port": "svc:in:gold"})
            tracer.complete("serving", "ipc.rpc", "ipc", now, now + 5.0,
                            {"port": "svc:in:gold", "attempts": 1})
            tracer.end(quantum, now + 20.0, {"outcome": "preempt"})

    def test_a_retained_span_costs_tens_of_bytes_not_hundreds(self):
        import tracemalloc

        tracer = SpanTracer()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            self._hub_mix(tracer, 20_000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tracer) == 80_000
        # One Span and one attrs dict per span was 404 B; sealed columns
        # were 64 B at 8 B a cell, and are ~33 B at their values' width.
        # The bound leaves room for another interpreter's object sizes,
        # not for the int columns back at 8 B a cell (49 B).
        assert retained / len(tracer) <= 45

    def test_readers_materialise_only_what_they_return(self, monkeypatch):
        from repro.telemetry import spans as spans_module

        tracer = SpanTracer()
        self._hub_mix(tracer, 12_500)
        assert len(tracer) == 50_000
        built = [0]

        class CountedSpan(Span):
            __slots__ = ()

            def __init__(self, *fields):
                built[0] += 1
                super().__init__(*fields)

        monkeypatch.setattr(spans_module, "Span", CountedSpan)
        assert len(tracer) == 50_000 and tracer.completed == 50_000
        assert tracer.counts()[("kernel", "quantum")] == 12_500
        assert tracer.tracks() == ["serving"]
        assert built[0] == 0
        tail = tracer.tail(64)
        assert built[0] == 64
        assert [span.sid for span in tail] == [
            span.sid for span in tracer.spans[-64:]]
        # Deep enough to start inside a sealed chunk: still only the
        # spans asked for.
        built[0] = 0
        assert len(tracer.tail(5_000)) == 5_000 and built[0] == 5_000
