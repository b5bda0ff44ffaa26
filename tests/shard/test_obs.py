"""The cross-shard observability plane: one truth per plan, any backend.

The acceptance criterion for the observability plane is sha-level:
the aggregated metrics registry, the stitched Chrome trace, and the
canonical run report must be byte-identical for ``inline`` vs ``mp``
vs mp-with-kill-every-epoch at N in {1, 2, 4} shards -- and a
forced worker crash must leave behind a checksum-valid flight bundle.
The canonical shas below are golden-pinned: a change to any of them is
a change to the scientific record and must be deliberate.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.checkpoint.statetree import tree_checksum
from repro.errors import ShardError
from repro.shard.backends import SupervisorPolicy
from repro.shard.engine import ShardedEngine
from repro.shard.hostfaults import HostFault, HostFaultPlan, kill_every_epoch
from repro.shard.plan import mix_plan
from repro.telemetry.flight import load_bundle, summarize_bundle

# Golden canonical digests for mix_plan(seed=11, cores=4) @ 2000ms.
GOLDEN_REPORT = ("e234a9fee8a7edbf24f3d8d2756292590e3e8b07"
                 "afb3dfa375197833a8d8f309")
GOLDEN_TRACE = ("266262cd9132f7a19c7bbdfae893808725fd0cea"
                "aa70019db63aa62e3db66a14")
#: sha256 of the canonical-JSON empty recovery annex (``[]``).
EMPTY_RECOVERY = ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d"
                  "8e11ba873c2f11161202b945")

UNTIL = 2_000.0

#: (backend, shards, killed-every-epoch).
COMBOS = ([("inline", n, False) for n in (1, 2, 4)]
          + [("mp", n, False) for n in (1, 2, 4)]
          + [("mp", n, True) for n in (1, 2, 4)])


def _obs_run(backend: str, shards: int, faulted: bool,
             flight_dir=None, policy=None):
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=shards,
                       backend=backend, policy=policy,
                       host_faults=kill_every_epoch(shards) if faulted
                       else None,
                       obs=True, flight_dir=flight_dir) as engine:
        engine.advance(UNTIL)
        trace = json.loads(engine.stitched_trace())
        report = engine.obs_report()
        metrics = engine.aggregated_metrics()
    return trace, report, metrics


@pytest.mark.parametrize("backend,shards,faulted", COMBOS,
                         ids=[f"{b}-s{n}{'-kill' if f else ''}"
                              for b, n, f in COMBOS])
def test_canonical_outputs_are_golden(backend, shards, faulted):
    trace, report, _ = _obs_run(backend, shards, faulted)
    assert trace["metadata"]["sha256"] == GOLDEN_TRACE
    assert report["canonical_sha256"] == GOLDEN_REPORT
    assert report["canonical"]["trace_sha256"] == GOLDEN_TRACE


@pytest.mark.parametrize("stops", [[500.0, 1_000.0, 1_500.0, UNTIL],
                                   [1_000.0, UNTIL], [0.0, 1_500.0, UNTIL]],
                         ids=["four", "two", "from-zero"])
def test_canonical_outputs_do_not_depend_on_advance_slicing(stops):
    """A stop point used to replace the epoch slice at its instant, so
    the barrier vanished from the trace and the report counted another
    payload total: three slicings, three trace shas."""
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                       backend="inline", obs=True) as engine:
        for until in stops:
            engine.advance(until)
        trace = json.loads(engine.stitched_trace())
        report = engine.obs_report()
        instants = engine.obs.barrier_instants()
    assert [instant["time"] for instant in instants] == [500.0, 1_000.0,
                                                         1_500.0]
    # mix_plan has cross-core RPC traffic, so some barrier carried
    # payloads: the count rides the barrier track of the trace.
    assert any(instant["payloads"] > 0 for instant in instants)
    assert trace["metadata"]["sha256"] == GOLDEN_TRACE
    assert report["canonical_sha256"] == GOLDEN_REPORT


def test_recovery_annex_isolated_from_canonical_record():
    """Supervisor restarts are reported, but only in the annex."""
    trace, report, _ = _obs_run("inline", 2, False)
    assert trace["metadata"]["recovery_sha256"] == EMPTY_RECOVERY

    killed_trace, killed_report, _ = _obs_run("mp", 2, True)
    assert killed_trace["metadata"]["recovery_sha256"] != EMPTY_RECOVERY
    assert killed_report["recovery"]["restarts"]
    # ...while the canonical halves stayed untouched.
    assert killed_trace["metadata"]["sha256"] == trace["metadata"]["sha256"]
    assert killed_report["canonical_sha256"] == report["canonical_sha256"]


def test_degraded_run_keeps_the_canonical_record():
    """Budget exhaustion mid-run with obs on: the inline backend the
    supervisor degrades to rebuilds every obs frame and span from the
    command log, so nothing canonical may differ from a run that was
    inline all along."""
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2, backend="mp",
                       policy=SupervisorPolicy(max_retries=0),
                       host_faults=HostFaultPlan(
                           [HostFault("kill", shard=0, epoch=2)]),
                       obs=True) as engine:
        engine.advance(UNTIL)
        assert engine.recovery_summary()["degraded"] is True
        trace = json.loads(engine.stitched_trace())
        metrics = engine.aggregated_metrics()
        slo = engine.slo_report()
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                       backend="inline", obs=True) as engine:
        engine.advance(UNTIL)
        want_trace = json.loads(engine.stitched_trace())
        assert metrics == engine.aggregated_metrics()
        assert slo == engine.slo_report()
    assert trace["metadata"]["sha256"] == want_trace["metadata"]["sha256"]


def test_observation_does_not_perturb_the_simulation():
    """obs on/off must leave the dispatch stream and final state
    bit-identical -- observation is a read, never an actor."""
    def checksums(obs):
        with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                           backend="inline", obs=obs) as engine:
            engine.advance(UNTIL)
            return (tree_checksum(engine.merged_stream()),
                    tree_checksum(engine.snapshot_state()))

    assert checksums(obs=False) == checksums(obs=True)


def test_aggregated_registry_carries_derived_gauges():
    _, _, metrics = _obs_run("inline", 4, False)
    assert metrics["repro_obs_threads_alive"]["value"] > 0
    assert metrics["repro_obs_tickets_alive"]["value"] > 0
    assert metrics["repro_obs_cpu_ms"]["value"] > 0
    # mix_plan has cross-core RPC: payloads must have crossed barriers.
    assert metrics["repro_obs_shard_payloads_applied"]["value"] > 0


def test_slo_passes_on_the_healthy_workload():
    # 8000ms = 16 epoch slices: enough history for every watchdog
    # window (fairness 4, latency 4, starvation 6) to judge many
    # times, and long enough for lottery noise to average out.
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                       backend="inline", obs=True) as engine:
        engine.advance(8_000.0)
        slo = engine.slo_report()
    assert slo["ok"] and slo["breaches"] == []
    assert slo["checks"] > 0  # the watchdogs actually judged something


def test_obs_surface_requires_the_flag():
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                       backend="inline") as engine:
        engine.advance(UNTIL)
        with pytest.raises(ShardError, match="observability is off"):
            engine.metrics_view()


def test_forced_crash_writes_checksum_valid_flight_bundle(tmp_path):
    """Exhausting the retry budget must dump a verifiable bundle."""
    flight_dir = str(tmp_path / "flight")
    # Kill at epoch 2 (not 0) so earlier barriers populated the rings.
    fault = HostFaultPlan([HostFault("kill", shard=0, epoch=2)])
    with pytest.raises(ShardError) as excinfo:
        with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                           backend="mp",
                           policy=SupervisorPolicy(max_retries=0,
                                                   degrade=False),
                           host_faults=fault, obs=True,
                           flight_dir=flight_dir) as engine:
            engine.advance(UNTIL)
    path = getattr(excinfo.value, "flight_bundle", None)
    assert path and os.path.exists(path)

    bundle = load_bundle(path)  # digest-verifies
    summary = summarize_bundle(bundle)
    assert summary["error"] == "ShardError"
    assert summary["cores"] == 4
    assert summary["ring_entries"] > 0
    assert bundle["plan"] == mix_plan(seed=11, cores=4).checksum()

    # Tampering must be detected.
    tampered = tmp_path / "tampered.json"
    corrupt = dict(bundle)
    corrupt["time"] = bundle["time"] + 1.0
    tampered.write_text(json.dumps(corrupt), encoding="utf-8")
    from repro.errors import ReproError
    with pytest.raises(ReproError, match="checksum mismatch"):
        load_bundle(str(tampered))


def test_flight_dir_implies_obs(tmp_path):
    engine = ShardedEngine(mix_plan(seed=11, cores=2), shards=1,
                           backend="single",
                           flight_dir=str(tmp_path / "flight"))
    try:
        assert engine.obs is not None
    finally:
        engine.close()
