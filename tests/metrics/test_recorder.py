"""Direct tests for the kernel recorders."""

import ast
import importlib
from pathlib import Path

import pytest

from repro.kernel.syscalls import Compute, Sleep
from repro.errors import ReproError
from repro.metrics.recorder import (RECORDER_EVENT_SURFACE, RECORDER_SINKS,
                                    KernelRecorder, RecorderMux)
from tests.conftest import make_lottery_kernel, spin_body

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestKernelRecorder:
    def test_dispatch_log_ordered(self):
        kernel = make_lottery_kernel(seed=3)
        recorder = KernelRecorder()
        kernel.recorder = recorder
        kernel.spawn(spin_body(), "a", tickets=10)
        kernel.spawn(spin_body(), "b", tickets=10)
        kernel.run_until(3000)
        times = [t for t, _ in recorder.dispatch_log]
        assert times == sorted(times)
        assert len(times) >= 30

    def test_mean_latency_for_sleeper(self):
        kernel = make_lottery_kernel(seed=5)
        recorder = KernelRecorder()
        kernel.recorder = recorder

        def napper(ctx):
            while True:
                yield Sleep(100.0)
                yield Compute(10.0)

        thread = kernel.spawn(napper, "n", tickets=100)
        kernel.spawn(spin_body(), "hog", tickets=100)
        kernel.run_until(30_000)
        latency = recorder.mean_latency(thread)
        assert latency > 0
        # With equal funding vs one hog, the wake-up wait is around one
        # quantum on average (compensation accelerates re-dispatch).
        assert latency < 300

    def test_mean_latency_unknown_thread_zero(self):
        kernel = make_lottery_kernel()
        recorder = KernelRecorder()
        thread = kernel.spawn(spin_body(), "t", tickets=1)
        assert recorder.mean_latency(thread) == 0.0

    def test_cpu_time_until(self):
        kernel = make_lottery_kernel()
        recorder = KernelRecorder()
        kernel.recorder = recorder
        thread = kernel.spawn(spin_body(), "t", tickets=10)
        kernel.run_until(2000)
        assert recorder.cpu_time(thread, until=1000) == pytest.approx(1000)
        assert recorder.cpu_time(thread) == pytest.approx(2000)

    def test_cpu_time_unrecorded_thread(self):
        kernel = make_lottery_kernel()
        recorder = KernelRecorder()
        thread = kernel.spawn(spin_body(), "t", tickets=10, start=False)
        assert recorder.cpu_time(thread) == 0.0
        assert recorder.cpu_share(thread, 0, 100) == 0.0


class TestRecorderMux:
    def _events(self, tag, log):
        class Sink:
            def on_dispatch(self, thread, time):
                log.append((tag, "dispatch"))

            def on_cpu(self, thread, start, duration):
                log.append((tag, "cpu"))

            def on_block(self, thread, time):
                log.append((tag, "block"))

            def on_wake(self, thread, time):
                log.append((tag, "wake"))

            def on_exit(self, thread, time):
                log.append((tag, "exit"))

        return Sink()

    def test_fan_out_in_attach_order(self):
        log = []
        mux = RecorderMux(self._events("a", log), self._events("b", log))
        mux.on_dispatch(None, 0.0)
        mux.on_exit(None, 1.0)
        assert log == [("a", "dispatch"), ("b", "dispatch"),
                       ("a", "exit"), ("b", "exit")]

    def test_add_rejects_partial_sinks_listing_missing_methods(self):
        class Deaf:
            def on_dispatch(self, thread, time):
                pass

        with pytest.raises(ReproError) as excinfo:
            RecorderMux(Deaf())
        message = str(excinfo.value)
        for name in ("on_cpu", "on_block", "on_wake", "on_exit"):
            assert name in message

    def test_mux_cannot_contain_itself(self):
        mux = RecorderMux()
        with pytest.raises(ReproError, match="cannot contain itself"):
            mux.add(mux)

    def test_remove_is_order_preserving_and_forgiving(self):
        log = []
        a, b = self._events("a", log), self._events("b", log)
        mux = RecorderMux(a, b)
        mux.remove(a)
        mux.remove(a)  # absent: no-op
        mux.on_block(None, 0.0)
        assert log == [("b", "block")]
        assert len(mux) == 1

    def test_empty_mux_short_circuits_without_touching_sink_list(self):
        # Regression: an attached-but-empty mux used to iterate its
        # empty sink list once per kernel event.  Every on_* method
        # reads the events resolved at add/remove, never the list.
        class Exploding(list):
            def __iter__(self):
                raise AssertionError("sink list iterated while inactive")

        mux = RecorderMux()
        assert mux.active is False
        mux._sinks = Exploding()
        mux.on_dispatch(None, 0.0)
        mux.on_cpu(None, 0.0, 1.0)
        mux.on_block(None, 0.0)
        mux.on_wake(None, 0.0)
        mux.on_exit(None, 0.0)  # none of these may iterate

    def test_active_tracks_add_and_remove(self):
        log = []
        sink = self._events("a", log)
        mux = RecorderMux()
        assert mux.active is False
        mux.add(sink)
        assert mux.active is True
        mux.on_wake(None, 0.0)
        assert log == [("a", "wake")]
        mux.remove(sink)
        assert mux.active is False
        mux.on_wake(None, 1.0)
        assert log == [("a", "wake")]  # inactive mux delivers nothing

    def test_known_sinks_satisfy_the_protocol(self):
        # The one sink-surface guard: every registered class defines the
        # whole surface itself (an inherited no-op does not count), so
        # a protocol extension cannot leave a known sink deaf.
        for path in sorted(RECORDER_SINKS):
            module, name = path.rsplit(".", 1)
            sink_class = getattr(importlib.import_module(module), name)
            for event in RECORDER_EVENT_SURFACE:
                assert callable(vars(sink_class).get(event)), (path, event)


def _constructed_outside_own_body(tree, wanted, inside=None, found=None):
    """Names in ``wanted`` that ``tree`` calls outside the class body
    of the same name."""
    found = set() if found is None else found
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in wanted and name != inside:
                found.add(name)
        scope = node.name if isinstance(node, ast.ClassDef) else inside
        _constructed_outside_own_body(node, wanted, scope, found)
    return found


def test_every_registered_sink_has_a_reader_under_src():
    """A class in RECORDER_SINKS earns its place on the seam by being
    constructed by production code (``KernelProbe`` by
    ``Telemetry.instrument_kernel``, ``ClassLatencyProbe`` by the
    arena, ``ReplayRecorder`` by the recipes, ...): a sink only tests
    build is a copy of the event stream nobody reads."""
    wanted = {path.rsplit(".", 1)[1] for path in RECORDER_SINKS}
    found = set()
    for source in sorted(SRC_REPRO.rglob("*.py")):
        found |= _constructed_outside_own_body(
            ast.parse(source.read_text()), wanted)
    assert wanted - found == set()


class TestResolvedEvents:
    """The kernel resolves each event when its sinks are wired: a sink
    is called only for the events it does not declare ignored."""

    class _Partial:
        ignored_events = ("on_cpu", "on_wake")

        def __init__(self):
            self.heard = set()

        def on_dispatch(self, thread, time):
            self.heard.add("on_dispatch")

        def on_cpu(self, thread, start, duration):
            raise AssertionError("on_cpu is ignored")

        def on_block(self, thread, time):
            self.heard.add("on_block")

        def on_wake(self, thread, time):
            raise AssertionError("on_wake is ignored")

        def on_exit(self, thread, time):
            self.heard.add("on_exit")

    @staticmethod
    def _run(kernel, until):
        def napper(ctx):
            for _ in range(5):
                yield Compute(10.0)
                yield Sleep(30.0)

        kernel.spawn(napper, f"n{until}", tickets=10)
        kernel.spawn(spin_body(), f"s{until}", tickets=10)
        kernel.run_until(until)

    def test_ignored_events_are_never_delivered(self):
        kernel = make_lottery_kernel(seed=4)
        partial, full = self._Partial(), KernelRecorder()
        kernel.recorder = partial  # a direct assignment resolves too
        assert (kernel._on_cpu, kernel._on_wake) == (None, None)
        self._run(kernel, 1_000.0)
        kernel.recorder = None
        kernel.attach_recorder(partial)
        kernel.attach_recorder(full)
        assert kernel._on_cpu == full.on_cpu  # the one listener, no mux
        self._run(kernel, 2_000.0)
        kernel.detach_recorder(full)
        assert kernel._on_cpu is None and kernel._on_wake is None
        self._run(kernel, 3_000.0)
        assert partial.heard == {"on_dispatch", "on_block", "on_exit"}
        assert full.wakes and full.cpu

    def test_a_mux_resolves_over_exactly_its_listeners(self):
        first, second = self._Partial(), KernelRecorder()
        mux = RecorderMux(first, second)
        cpu, wake = mux.resolved_events[1], mux.resolved_events[3]
        assert cpu == second.on_cpu and wake == second.on_wake
        mux.remove(second)
        assert mux.resolved_events[1] is None
        mux.on_cpu(None, 0.0, 1.0)  # nobody listens: first is not called


class TestAttachRecorder:
    def test_slot_upgrades_to_mux_and_back(self):
        kernel = make_lottery_kernel()
        first = KernelRecorder()
        second = KernelRecorder()
        kernel.attach_recorder(first)
        assert kernel.recorder is first  # single sink: no mux yet
        kernel.attach_recorder(second)
        assert isinstance(kernel.recorder, RecorderMux)
        assert kernel.recorder.sinks == [first, second]
        kernel.detach_recorder(first)
        kernel.detach_recorder(second)
        assert (kernel.recorder is None
                or len(kernel.recorder) == 0)

    def test_detach_single_sink_clears_slot(self):
        kernel = make_lottery_kernel()
        sink = KernelRecorder()
        kernel.attach_recorder(sink)
        kernel.detach_recorder(sink)
        assert kernel.recorder is None

    def test_all_muxed_sinks_observe_the_run(self):
        kernel = make_lottery_kernel(seed=9)
        accounting = KernelRecorder()
        from repro.checkpoint.replay import ReplayRecorder

        replay = ReplayRecorder()
        kernel.attach_recorder(accounting)
        kernel.attach_recorder(replay)
        kernel.spawn(spin_body(), "t", tickets=10)
        kernel.run_until(1000)
        assert replay.entries and accounting.dispatch_log
        assert len(replay.entries) == len(accounting.dispatch_log)
