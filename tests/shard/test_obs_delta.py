"""Delta-state obs frames against the cumulative frames they replace.

The oracle is the frame the cores used to ship whole at every barrier,
kept here: a from-scratch read of a core's registry, thread table,
shard counters and flight rings.  Folding the deltas the cores ship now
must rebuild exactly that (``==`` on the JSON data, ``mean`` floats
included), and the online SLO watchdogs must report what the one-shot
evaluation of the list of those whole frames reports -- on generated
plans and ``advance`` schedules, and once each across a pipe, under a
worker killed at every epoch, and through degradation to inline.

The work-count guards at the end pin what is shipped and what is kept:
deterministic facts of the run, no wall clock.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard.backends import SupervisorPolicy
from repro.shard.backends import _execute_command
from repro.shard.core import ShardCore
from repro.shard.engine import ShardedEngine
from repro.shard.hostfaults import HostFault, HostFaultPlan, kill_every_epoch
from repro.shard.plan import mix_plan, spin_plan
from repro.telemetry.aggregate import (
    FRAME_FORMAT,
    FRAME_VERSION,
    RING_ENTRIES,
    RING_SPANS,
    ObsAggregator,
)
from repro.telemetry.slo import evaluate_slo


def strict_thresholds():
    """SLO thresholds tight enough that a thin spin plan breaches all
    three rules (the watchdogs read the constants as they judge)."""
    return mock.patch.multiple("repro.telemetry.slo",
                               FAIRNESS_REL_ERROR_MAX=0.25,
                               FAIRNESS_MIN_EXPECTED_DISPATCHES=2.0,
                               P99_CEILING_MS=1500.0)


def cumulative_frame(core: ShardCore, time: float) -> dict:
    """The whole frame of ``core``, read from scratch (the oracle)."""
    frame = {
        "format": FRAME_FORMAT, "version": FRAME_VERSION,
        "core": core.core_id, "time": float(time),
        "metrics": core.telemetry.registry.as_dict(),
        "threads": [{
            "name": thread.name, "tid": thread.tid,
            "alive": bool(thread.alive), "state": thread.state.value,
            "runnable": thread.state.value == "runnable",
            "tickets": float(thread.nominal_funding()),
            "cpu_ms": float(thread.cpu_time),
            "dispatches": int(thread.dispatches),
        } for thread in core.kernel.threads],
        "shard": {
            "payloads_applied": core.payloads_applied,
            "migrations_out": core.migrations_out,
            "evacuations": core.evacuations,
            "casualties": core.casualties,
            "ops_skipped": core.ops_skipped,
            "crashed": core.crashed,
        },
    }
    if core.flight:
        frame["ring"] = {
            "entries": [dict(entry) for entry in
                        core.recorder.entries[-RING_ENTRIES:]],
            "spans": [span.to_dict() for span in
                      core.telemetry.tracer.spans[-RING_SPANS:]],
        }
    return json.loads(json.dumps(frame))


@contextmanager
def shadowed():
    """Record, beside every observation an inline engine makes, the
    whole frames of its cores at the moment they answered: yields the
    list of ``{"time", "kind", "frames"}`` observations."""
    observations, answered = [], []
    real_frame, real_observe = ShardCore.obs_frame, ObsAggregator.observe

    def obs_frame(core, time):
        answered.append(cumulative_frame(core, time))
        return real_frame(core, time)

    def observe(aggregator, time, frames, payloads=0, kind="epoch"):
        # The cores answer a whole window of epochs before the engine
        # observes the first: each observation takes its own epoch's.
        observations.append({"time": time, "kind": kind,
                             "frames": answered[:len(frames)]})
        del answered[:len(frames)]
        real_observe(aggregator, time, frames, payloads=payloads, kind=kind)

    with mock.patch.object(ShardCore, "obs_frame", obs_frame), \
            mock.patch.object(ObsAggregator, "observe", observe):
        yield observations


def uninterrupted_slices(observations):
    """The slices a run that never stopped would have recorded: one per
    epoch barrier, and the latest frames at the instant the run now
    stands at (its barrier's slice, or a stop point's own)."""
    slices = [seen for seen in observations if seen["kind"] == "epoch"]
    if slices and slices[-1]["time"] == observations[-1]["time"]:
        slices.pop()
    return slices + observations[-1:]


@st.composite
def _plans(draw):
    """A mix or spin plan with up to two scripted ops: a spinner
    migrated, or a core crashed (never the RPC server's: its clients
    have no one else to call)."""
    cores = draw(st.integers(1, 3))
    seed = draw(st.integers(1, 10_000))
    if draw(st.booleans()):
        plan = mix_plan(seed=seed, cores=cores)
        movable = [f"spin{core}a" for core in range(cores)]
        crashable = list(range(1, cores))
    else:
        plan = spin_plan(seed=seed, cores=cores,
                         spinners=draw(st.integers(1, 6)),
                         quantum=100.0, epoch_ms=500.0)
        movable = [spec["name"] for spec in plan.threads]
        crashable = list(range(cores))
    instants = st.integers(1, 22).map(lambda k: k * 250.0)
    any_core = st.integers(0, cores - 1)
    for _ in range(draw(st.integers(0, 2))):
        if crashable and draw(st.booleans()):
            core = draw(st.sampled_from(crashable))
            elsewhere = [None, *(k for k in range(cores) if k != core)]
            plan.crash(draw(instants), core, draw(st.sampled_from(elsewhere)))
        else:
            name = draw(st.sampled_from(movable))
            src = next(spec["core"] for spec in plan.threads
                       if spec["name"] == name)
            plan.migrate(at=draw(instants), thread=name, src=src,
                         dst=draw(any_core))
    return plan


#: Stop points on the 500 ms grid, in order, repeats and 0 allowed.
_SCHEDULES = st.lists(st.integers(0, 12), min_size=1, max_size=6).map(
    lambda ks: [k * 500.0 for k in sorted(ks)])


@settings(max_examples=40, deadline=None)
@given(plan=_plans(), schedule=_SCHEDULES, armed=st.booleans(),
       strict=st.booleans())
def test_fold_of_deltas_is_the_cumulative_frame(tmp_path_factory, plan,
                                                schedule, armed, strict):
    flight_dir = str(tmp_path_factory.getbasetemp() / "unused") if armed \
        else None
    reports = []
    with strict_thresholds() if strict else nullcontext():
        with shadowed() as observations, \
                ShardedEngine(plan, shards=1, backend="inline", obs=True,
                              flight_dir=flight_dir) as engine:
            for until in schedule:
                engine.advance(until)
                frames = engine.obs.latest_frames()
                assert frames == [cumulative_frame(core, until)
                                  for core in engine._backend.cores]
                assert all(("ring" in frame) == armed for frame in frames)
                reports.append((engine.slo_report(),
                                uninterrupted_slices(observations)))
            sliced = (engine.obs_report()["canonical_sha256"],
                      json.loads(engine.stitched_trace())["metadata"]
                      ["sha256"])
        # The one-shot evaluation folds through an aggregator of its
        # own, so it runs once the shadowing is gone.
        for report, slices in reports:
            assert report == evaluate_slo(slices)
        with ShardedEngine(plan, shards=1, backend="inline",
                           obs=True) as engine:
            engine.advance(schedule[-1])
            straight = (engine.obs_report()["canonical_sha256"],
                        json.loads(engine.stitched_trace())["metadata"]
                        ["sha256"])
    assert sliced == straight


def _stepwise(steps, **engine_args):
    """(latest frames, SLO report) after each advance of a breaching
    thin spin plan (20 spinners a core, 100 ms epochs)."""
    seen = []
    with strict_thresholds(), \
            ShardedEngine(spin_plan(seed=97, cores=2, spinners=20),
                          obs=True, **engine_args) as engine:
        for until in steps:
            engine.advance(until)
            seen.append((engine.obs.latest_frames(), engine.slo_report()))
        recovery = engine.recovery_summary()
    return seen, recovery


def test_breaching_run_matches_the_one_shot_evaluation():
    with shadowed() as observations:
        seen, _ = _stepwise([4_000.0], shards=1, backend="inline")
    _, report = seen[-1]
    with strict_thresholds():
        assert report == evaluate_slo(uninterrupted_slices(observations))
    # the report the parent commit computed post hoc from 41 kept slices.
    assert report["counts"] == {"fairness.drift": 243, "starvation": 178,
                                "latency.p99": 6}
    assert (report["slices"], report["checks"]) == (40, 2202)


_STEPS = [300.0, 300.0, 1_100.0, 2_000.0]


def test_deltas_across_a_pipe_a_kill_every_epoch_and_a_degrade():
    """A retried command must return the delta since the last
    *committed* command: the respawned worker (or the inline backend a
    run degrades to) replayed the log, baseline included."""
    want, _ = _stepwise(_STEPS, shards=1, backend="inline")
    assert want[-1][1]["breaches"]

    piped, _ = _stepwise(_STEPS, shards=2, backend="mp")
    assert piped == want

    killed, recovery = _stepwise(_STEPS, shards=2, backend="mp",
                                 host_faults=kill_every_epoch(2))
    assert killed == want
    assert sum(recovery["restarts"]) >= 20

    degraded, recovery = _stepwise(
        _STEPS, shards=2, backend="mp",
        policy=SupervisorPolicy(max_retries=0),
        host_faults=HostFaultPlan([HostFault("kill", shard=1, epoch=7)]))
    assert degraded == want
    assert recovery["degraded"] is True


# -- work-count guards ---------------------------------------------------------

EPOCHS = 40


def test_shipped_bytes_follow_the_epoch_not_the_history():
    shipped = []
    real = ObsAggregator.observe

    def observe(aggregator, time, frames, payloads=0, kind="epoch"):
        shipped.append(len(json.dumps(frames)))
        real(aggregator, time, frames, payloads=payloads, kind=kind)

    with mock.patch.object(ObsAggregator, "observe", observe), \
            ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                          backend="inline", obs=True) as engine:
        engine.advance(EPOCHS * 500.0)
        retained = engine.obs
    assert len(shipped) == EPOCHS + 1
    # ~6 kB a barrier, 247 kB in all; whole frames were 23.5 kB at the
    # first barrier and 35.6 kB at the last (1.39 MB over this run).
    assert sum(shipped) <= 260_000
    # flat, but for the digits absolute values gain (measured +1.8 %;
    # whole frames: +8.5 %).
    first, second = shipped[:EPOCHS // 2], shipped[EPOCHS // 2:EPOCHS]
    assert sum(second) <= 1.05 * sum(first)
    # kept: one frame per core, one four-field row per slice, and the
    # watchdogs' window (plus the open slice) -- not 41 x 4 frames.
    assert len(retained._frames) == 4
    assert len(retained) == EPOCHS
    assert all(len(row) == 4 for row in retained.rows)
    assert retained.slo.retained <= 6 + 1
    assert retained.slo.report()["slices"] == EPOCHS


def test_collect_answers_only_what_was_asked():
    with ShardedEngine(mix_plan(seed=11, cores=2), shards=1,
                       backend="inline", obs=True) as engine:
        engine.advance(1_000.0)
        backend = engine._backend
        for want in ("snapshot", "stream", "obs"):
            reply = _execute_command(backend.router.cores, backend.router,
                                     {"cmd": "collect", "want": want},
                                     backend.plan.epoch_ms, obs=True)
            assert [sorted(entry) for entry in reply["cores"]] == \
                [sorted(["core", want])] * 2
        assert sorted(backend.obs_dumps()[0]) == ["core", "open_spans",
                                                  "spans"]


def test_collect_is_a_pure_read_and_an_idle_frame_is_empty():
    with ShardedEngine(mix_plan(seed=11, cores=2), shards=1,
                       backend="inline", obs=True) as engine:
        engine.advance(1_000.0)
        core = engine._backend.cores[0]
        engine.stitched_trace(), engine.snapshot_state()
        engine.merged_stream()
        # nothing ran since the stop point's frame: collect moved no
        # baseline, so there is nothing to tell.
        assert sorted(core.obs_frame(1_000.0)) == ["core", "format", "time",
                                                   "version"]
