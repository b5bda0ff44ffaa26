"""Telemetry across checkpoint save/restore: hooks, seams, regression."""

from repro.checkpoint import build_recipe
from repro.checkpoint.capture import restore, save
from repro.telemetry import Telemetry, hooks


class TestCheckpointHooks:
    def test_save_and_restore_emit_spans_when_observing(self, tmp_path):
        handle = build_recipe("chaos-fairness", {"seed": 2718})
        handle.advance(10_000.0)
        hub = Telemetry()
        hub.observe_checkpoints()
        try:
            path = str(tmp_path / "chaos.ckpt")
            payload = save(handle, path)
            restored, _ = restore(path)
        finally:
            hub.close()
        names = [s.name for s in hub.tracer.spans]
        assert names == ["checkpoint.save", "checkpoint.restore"]
        checksums = {s.attrs["checksum"] for s in hub.tracer.spans}
        assert checksums == {payload["checksum"]}
        assert all(s.track == "checkpoint" for s in hub.tracer.spans)
        assert all(s.start == 10_000.0 for s in hub.tracer.spans)
        assert restored.now == handle.now

    def test_no_subscriber_is_a_silent_noop(self, tmp_path):
        assert hooks.subscribers() == []
        handle = build_recipe("lottery-mix", {"seed": 5})
        handle.advance(1_000.0)
        save(handle, str(tmp_path / "plain.ckpt"))  # must not raise

    def test_unsubscribe_stops_notifications(self, tmp_path):
        handle = build_recipe("lottery-mix", {"seed": 5})
        handle.advance(1_000.0)
        hub = Telemetry()
        hub.observe_checkpoints()
        hub.close()
        save(handle, str(tmp_path / "after.ckpt"))
        assert hub.tracer.spans == []


class TestRestoreThenTrace:
    def test_restored_handle_can_be_instrumented(self, tmp_path):
        handle = build_recipe("lottery-mix", {"seed": 2718})
        handle.advance(20_000.0)
        path = str(tmp_path / "mid.ckpt")
        save(handle, path)

        restored, _ = restore(path)
        hub = Telemetry().instrument_handle(restored)
        restored.advance(40_000.0)
        hub.finalize(restored.now)
        counts = hub.tracer.counts()
        assert counts.get(("kernel", "quantum"), 0) > 0
        assert counts.get(("scheduler", "lottery.draw"), 0) > 0
        hub.close()

    def test_traced_restore_matches_traced_original(self, tmp_path):
        """Restoring at T and tracing to T2 sees the same scheduling
        events as a fresh run traced over the same window."""
        handle = build_recipe("lottery-mix", {"seed": 2718})
        handle.advance(15_000.0)
        path = str(tmp_path / "replaytrace.ckpt")
        save(handle, path)

        fresh = build_recipe("lottery-mix", {"seed": 2718})
        fresh.advance(15_000.0)
        hub_fresh = Telemetry().instrument_handle(fresh)
        fresh.advance(30_000.0)
        hub_fresh.finalize(fresh.now)
        fresh_counts = hub_fresh.tracer.counts()
        hub_fresh.close()

        restored, _ = restore(path)
        hub_restored = Telemetry().instrument_handle(restored)
        restored.advance(30_000.0)
        hub_restored.finalize(restored.now)

        assert hub_restored.tracer.counts() == fresh_counts
        hub_restored.close()


class TestSnapshotSeams:
    def test_hub_snapshot_state_covers_tracer_and_registry(self):
        hub = Telemetry(max_spans=128)
        hub.tracer.event("k", "e", "kernel", 1.0)
        hub.registry.counter("c").inc()
        state = hub.snapshot_state()
        assert state["tracer"]["completed"] == 1
        assert state["tracer"]["max_spans"] == 128
        assert state["registry"]["instruments"]["c"]["value"] == 1.0
        assert state["probes"] == 0
