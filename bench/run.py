#!/usr/bin/env python3
"""One command for the simulator's end-to-end and per-layer numbers.

    python3 bench/run.py [--seed 2026] [--runs 5 | --seconds S]
                         [--workload NAME] [--trace 0|1] [--quick]
                         [--check-repeat]

With no arguments: all five workloads of ``bench/workloads.py``; each
first measured end to end (``--runs`` fresh-process runs, untraced),
then once more with the timing wrappers of ``bench/trace.py`` for the
per-layer numbers.  Every metric is printed by name with its unit, the
simulated outputs are checked, and everything lands in ``bench/out/``.

``--workload W --trace T --seconds S`` is the form BENCHMARK.json's
driver uses: one workload, end to end (``0``) or per layer (``1``),
repeating fresh-process runs for ``S`` host seconds, and a final line
of JSON ``{"correct", "attempted", "failed", "metrics"}``.

Method, glossary and how to read the output: ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if __name__ == "__main__":
    # Python put bench/ first; as a search path it would let
    # bench/trace.py shadow the standard library's ``trace``.
    sys.path[0] = str(ROOT)
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(1, _path)

#: Rounds a time-boxed measurement makes however slow the host is.
MIN_ROUNDS = 3
#: Equal virtual-time slices every run is driven in: enough reference
#: chunks between them to track the host clock, few enough that the
#: extra stop points cost the shard engine under 2 %.
SLICES = 50
#: Reference chunks run on each side of a run's set-up.
SETUP_CHUNKS = 5
#: Workloads with a telemetry hub / obs plane that a reference run
#: switches off (``telemetry.overhead_frac``).
SINK_WORKLOADS = ("serve_overload_obs", "shard_mix_obs")

#: Layers of the traced run, in report order; each yields
#: ``<layer>.calls`` and ``<layer>.self_s``.
LAYERS = (
    "sim.schedule", "sim.run",
    "schedulers.select", "schedulers.enqueue", "schedulers.quantum_end",
    "core.lottery.draw", "core.lottery.update", "core.tickets.funding",
    "core.tickets.mutate", "core.transfers",
    "kernel.run", "kernel.spawn", "kernel.wake", "kernel.ipc",
    "metrics.mux",
    "workloads.arrivals", "serving.admission", "serving.stats",
    "serving.probe", "serving.slo",
    "telemetry.probe", "telemetry.spans", "telemetry.registry",
    "telemetry.aggregate",
    "shard.plan.build",
    "shard.backend.run_epoch", "shard.backend.collect",
    "shard.backend.barrier", "shard.backend.collect_obs",
    "shard.engine.merge",
    "shard.core.run_epoch", "shard.core.apply_barrier",
    "shard.core.obs_frame",
)

#: The other per-layer metrics: name -> unit.
SCALARS = {
    "sim.events": "count",
    "telemetry.spans.retained": "count",
    "telemetry.overhead_frac": "frac",
    "shard.engine.spawn_s": "s",
    "shard.payloads": "count",
    "shard.payload_bytes": "bytes",
    "shard.obs_frame_bytes": "bytes",
    "shard.parent_cpu_s": "s",
    "shard.children_cpu_s": "s",
    "shard.mp_over_inline": "ratio",
    "trace.overhead_frac": "frac",
    "trace.residual_frac": "frac",
    "mem.rss_growth_kb_per_kop": "kB/kop",
}

#: Simulated statistics: exact for a seed, so compared exactly.
SIM_UNITS = {
    "sim_share_err_sigma": "sigma",
    "sim_goodput_frac": "frac",
    "sim_wake_p99_ms_gold": "ms",
    "sim_wake_p99_ms_bronze": "ms",
}

#: Host-side end-to-end metrics: name -> unit (bounds: BENCHMARK.json).
TIMED_UNITS = {"setup_s": "s", "host_us_per_op": "us", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name of the traced run, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(SCALARS)
    units.update(SIM_UNITS)
    return units


# -- one round: build, run, read back (runs in a fresh process) --------------


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _rss_kb() -> float:
    """Resident set right now: this process plus its live workers."""
    pids = [os.getpid()] + [child.pid
                            for child in multiprocessing.active_children()]
    pages = sum(int(Path(f"/proc/{pid}/statm").read_text().split()[1])
                for pid in pids)
    return pages * resource.getpagesize() / 1024.0


def _boundaries(horizon: float, grid_ms: Optional[float]) -> List[float]:
    """Slice ends: equal cuts of the horizon, snapped to the epoch grid
    where the workload has one (so a thin plan gets fewer slices)."""
    if grid_ms is None:
        return [horizon * index / SLICES
                for index in range(1, SLICES)] + [horizon]
    epochs = round(horizon / grid_ms)
    count = min(SLICES, epochs)
    return [grid_ms * round(epochs * index / count)
            for index in range(1, count + 1)]


def _drive(built: Any, tracer: Any, reference: Any
           ) -> Tuple[List[Dict[str, Any]], float, float]:
    """Run to the horizon slice by slice, one reference chunk before
    each.  Returns the per-slice records (raw host seconds), this
    process's CPU seconds inside the slices, and the RSS growth over
    the last 90 %."""
    boundaries = _boundaries(built.horizon, built.grid_ms)
    tenth = max(0, len(boundaries) // 10 - 1)
    slices: List[Dict[str, Any]] = []
    cpu_s = 0.0
    rss_tenth = 0.0
    before = tracer.totals()
    for index, until in enumerate(boundaries):
        reference.chunks_of(1)
        cpu_before = _cpu_s(resource.RUSAGE_SELF)
        with tracer.span("slice") as span:
            built.run(until)
        cpu_s += _cpu_s(resource.RUSAGE_SELF) - cpu_before
        after = tracer.totals()
        slices.append({
            "until_ms": until, "start": span["start"], "end": span["end"],
            "layers": {
                name: [calls - before[name][0], self_s - before[name][1]]
                for name, (calls, self_s) in after.items()
                if calls != before[name][0]},
        })
        before = after
        if index == tenth:
            rss_tenth = _rss_kb()
    return slices, cpu_s, _rss_kb() - rss_tenth


def run_round(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Build one workload, run it once, read its outputs back."""
    from bench import calibrate

    # Set-up cannot be interleaved with reference chunks (most of it is
    # one import), so it is bracketed by them instead.
    bracket = calibrate.Reference()
    bracket.chunks_of(SETUP_CHUNKS)
    started = time.perf_counter()
    # Imported inside the clock: a user pays for importing the
    # simulator on every run, so set-up time includes it.
    from bench import trace as tracing
    from bench import workloads

    sizes = workloads.QUICK if spec["quick"] else workloads.FULL
    forks = (spec["workload"] in workloads.SHARD_WORKLOADS
             and spec["backend"] == "mp")
    targets = tracing.default_targets() if spec["trace"] else []
    tracer = tracing.Tracer()
    children_before = _cpu_s(resource.RUSAGE_CHILDREN)
    built = None
    try:
        if not forks:
            tracer.install(targets)
        built = workloads.build(spec["workload"], spec["seed"], sizes,
                                backend=spec["backend"], sinks=spec["sinks"])
        if forks:
            # Only now: the mp workers were forked by the build and
            # must not inherit the wrappers.
            tracer.install(targets)
        raw_setup_s = time.perf_counter() - started
        bracket.chunks_of(SETUP_CHUNKS)
        reference = calibrate.Reference()
        # What the wrappers saw while the workload was being built
        # (in-process builds only) is kept apart from the timed run.
        setup_layers = tracer.totals()
        slices, parent_cpu_s, rss_growth_kb = _drive(built, tracer, reference)
        wrapped = len(tracer.installed)
        layers = tracer.totals()
        tracer.uninstall()
        outcome = built.finish()
    finally:
        tracer.uninstall()
        if built is not None:
            built.close()
    scale = reference.scale()
    setup_scale = bracket.scale()
    slice_s = [(entry["end"] - entry["start"]) * scale for entry in slices]
    raw_wall_s = sum(slice_s) / scale
    result = {
        **spec,
        # Host seconds, clock-normalised (calibrate.py): set-up by the
        # chunks around it, the timed run by the chunks between slices.
        "setup_s": raw_setup_s * setup_scale,
        "raw_setup_s": raw_setup_s,
        "setup_clock_scale": setup_scale,
        "parts": {name: value * setup_scale if name.endswith("_s") else value
                  for name, value in built.parts.items()},
        "wall_s": sum(slice_s),
        "slice_s": slice_s,
        "raw_wall_s": raw_wall_s,
        "clock_scale": scale,
        "ops": outcome["ops"],
        "host_us_per_op": sum(slice_s) * 1e6 / outcome["ops"],
        # Workers are reaped by close(), so RUSAGE_CHILDREN is final.
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "parent_cpu_s": parent_cpu_s,
        "children_cpu_s": _cpu_s(resource.RUSAGE_CHILDREN) - children_before,
        "digest": outcome["digest"],
        "sim": outcome["sim"],
        "violations": outcome["violations"],
        "counts": outcome["counts"],
    }
    if spec["trace"]:
        result["trace"] = {
            "layers": {
                name: [calls - setup_layers[name][0],
                       (self_s - setup_layers[name][1]) * scale]
                for name, (calls, self_s) in layers.items()},
            "setup_layers": {name: list(total)
                             for name, total in setup_layers.items()},
            "counters": dict(tracer.counters),
            "wrapped": wrapped,
            "slices": len(slices),
            "rss_growth_kb_per_kop":
                rss_growth_kb / (0.9 * outcome["ops"] / 1e3),
        }
        if spec.get("trace_path"):
            path = Path(spec["trace_path"])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({
                **{key: result[key] for key in
                   ("workload", "seed", "backend", "ops", "digest", "wall_s",
                    "raw_wall_s", "clock_scale")},
                "layers": result["trace"]["layers"],
                "setup_layers": result["trace"]["setup_layers"],
                "counters": result["trace"]["counters"],
                # Raw host seconds since the tracer was made; multiply
                # durations by clock_scale to compare with ``layers``.
                "slices": slices, "spans": tracer.spans,
            }))
    return result


def round_spec(workload: str, seed: int, quick: bool, trace: bool = False,
               backend: str = "mp", sinks: bool = True,
               trace_path: Optional[Path] = None) -> Dict[str, Any]:
    return {"workload": workload, "seed": seed, "quick": quick,
            "trace": trace, "backend": backend, "sinks": sinks,
            "trace_path": None if trace_path is None else str(trace_path)}


def spawn_round(spec: Dict[str, Any]) -> Dict[str, Any]:
    """``run_round`` in a fresh interpreter; a crash is a result too."""
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--round",
             json.dumps(spec)],
            capture_output=True, text=True, timeout=150,
            # Same string hashing in every round: one less source of
            # run-to-run layout noise.
            env={**os.environ, "PYTHONHASHSEED": "0"})
    except subprocess.TimeoutExpired:
        return {**spec, "error": "round timed out"}
    if done.returncode != 0:
        return {**spec, "error": done.stderr[-2000:] or "round failed"}
    return json.loads(done.stdout.splitlines()[-1])


# -- judging and summarising a set of rounds ---------------------------------


def judge(rounds: List[Dict[str, Any]],
          oracle: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """Mark each round's failed ops; returns the digest they agree on.

    All of a round's ops fail if it raised, broke an invariant, or its
    digest is not the one a strict majority of the rounds -- and the
    ``single``-backend oracle, where there is one -- produced.
    """
    votes = collections.Counter(
        entry["digest"] for entry in rounds if "digest" in entry)
    agreed = None
    if votes:
        digest, count = votes.most_common(1)[0]
        if 2 * count > len(rounds):
            agreed = digest
    if oracle is not None and oracle.get("digest") != agreed:
        agreed = None
    ops = max((entry["ops"] for entry in rounds if "ops" in entry), default=1)
    for entry in rounds:
        sound = ("error" not in entry and entry["digest"] == agreed
                 and not entry["violations"])
        entry["failed"] = 0 if sound else entry.get("ops", ops)
    return agreed


def _tally(rounds: List[Dict[str, Any]]) -> Tuple[int, int]:
    """``(attempted, failed)`` ops over judged rounds."""
    return (sum(entry.get("ops", entry["failed"]) for entry in rounds),
            sum(entry["failed"] for entry in rounds))


def spread(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles, extremes and count of a sample."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def steady_wall_s(rounds: List[Dict[str, Any]]) -> float:
    """Host seconds of the timed run, from several runs of it: the sum
    over the slices of each slice's lower quartile across the runs.

    Every run at a seed does identical simulated work in slice ``i``,
    and interference from the host only ever adds time to it, so a low
    quantile across runs estimates what that work costs; taking it per
    slice discards a stall where it happened instead of discarding, or
    keeping, the whole run it happened in.  (Measured on the reference
    host over 8 sets of 7 runs: the median of run totals moves 54 % in
    a bad minute on ``shard_spin_mp`` and 36 % on ``shard_mix_obs``;
    this moves 21 % and 19 %; on ``dispatch_wide`` both stay within
    5 %.)  With one run it is that run's wall time.
    """
    return sum(spread(list(column))["q1"]
               for column in zip(*(entry["slice_s"] for entry in rounds)))


def _time_boxed(seconds: Optional[float], runs: int,
                minimum: int = MIN_ROUNDS) -> Iterable[int]:
    """Round indices: ``runs`` of them, or -- time-boxed -- as many as
    fit in ``seconds`` going by the average so far, at least
    ``minimum``."""
    began = time.perf_counter()
    index = 0
    while True:
        if seconds is None:
            if index >= runs:
                return
        elif index >= minimum:
            elapsed = time.perf_counter() - began
            if elapsed + elapsed / index > seconds:
                return
        yield index
        index += 1


def measure_end_to_end(workload: str, seed: int, quick: bool, runs: int,
                       seconds: Optional[float]) -> Dict[str, Any]:
    """Untraced fresh-process rounds of one workload, judged."""
    from bench.workloads import SHARD_WORKLOADS

    rounds = [spawn_round(round_spec(workload, seed, quick))
              for _ in _time_boxed(seconds, runs)]
    oracle = None
    if workload in SHARD_WORKLOADS:
        oracle = spawn_round(round_spec(workload, seed, quick,
                                        backend="single"))
    agreed = judge(rounds, oracle)
    completed = [entry for entry in rounds if "error" not in entry]
    attempted, failed = _tally(rounds)
    # The reported value is the median over the runs, except that host
    # time per op comes from steady_wall_s; the runs' own spread is
    # kept beside it either way.
    metrics = {name: spread([entry[name] for entry in completed])
               for name in TIMED_UNITS if completed}
    for stats in metrics.values():
        stats["value"] = stats["median"]
    if completed:
        metrics["host_us_per_op"]["value"] = (
            steady_wall_s(completed) * 1e6 / completed[0]["ops"])
    return {
        "workload": workload, "seed": seed,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "digest": agreed,
        "sim": next((entry["sim"] for entry in completed
                     if entry["digest"] == agreed), {}),
        "metrics": metrics,
        "rounds": rounds, "oracle": oracle,
    }


def _first_nonzero(rounds: List[Optional[Dict[str, Any]]],
                   read: Any) -> float:
    """A count from the first traced pass that saw it at all."""
    for entry in rounds:
        if entry is not None:
            value = read(entry)
            if value:
                return value
    return 0


def _layer_totals(entry: Dict[str, Any], layer: str) -> Tuple[int, float]:
    """``(calls, self_s)`` of ``layer`` over one traced round's timed
    run -- and, for ``kernel.spawn``, over its set-up as well, because
    that is when threads are spawned."""
    calls, self_s = entry["trace"]["layers"].get(layer, (0, 0.0))
    if layer == "kernel.spawn":
        more = entry["trace"]["setup_layers"].get(layer, (0, 0.0))
        calls, self_s = calls + more[0], self_s + more[1]
    return calls, self_s


def measure_layers(workload: str, seed: int, quick: bool, runs: int,
                   seconds: Optional[float], out: Path) -> Dict[str, Any]:
    """The traced run of one workload and its reference runs.

    One pass makes every variant once -- untraced, traced, and where
    they apply hub/obs off, ``inline`` untraced and ``inline`` traced --
    and passes repeat, so that each ratio between variants compares
    the same number of runs over the same stretch of host time.

    The mp parent never enters the layers that run inside its workers,
    so for a shard workload a layer with no calls in the mp pass is
    read from the in-process ``inline`` pass of the same plan.
    """
    from bench.workloads import SHARD_WORKLOADS

    def spec(**variant: Any) -> Dict[str, Any]:
        return round_spec(workload, seed, quick, **variant)

    variants = {"untraced": spec(),
                "traced": spec(trace=True,
                               trace_path=out / f"trace_{workload}.json")}
    if workload in SINK_WORKLOADS:
        variants["sinks_off"] = spec(sinks=False)
    if workload in SHARD_WORKLOADS:
        variants["inline"] = spec(backend="inline")
        variants["inline_traced"] = spec(
            trace=True, backend="inline",
            trace_path=out / f"trace_{workload}.inline.json")
    made: Dict[str, List[Dict[str, Any]]] = {name: [] for name in variants}
    for _ in _time_boxed(seconds, runs, minimum=1):
        for name, variant in variants.items():
            made[name].append(spawn_round(variant))
    rounds = [entry for entries in made.values() for entry in entries]
    agreed = judge(rounds)
    attempted, failed = _tally(rounds)
    result = {"workload": workload, "seed": seed, "attempted": attempted,
              "failed": failed, "digest": agreed, "rounds": rounds,
              "metrics": {}, "walls": {}, "inline_layers": []}
    if failed:
        return result

    # Counts are simulated quantities: every traced round saw the same.
    for name in ("traced", "inline_traced"):
        exact = {json.dumps([{layer: calls for layer, (calls, _) in
                              entry["trace"]["layers"].items()},
                             entry["trace"]["counters"]], sort_keys=True)
                 for entry in made.get(name, [])}
        if len(exact) > 1:
            result["failed"] = attempted
            return result

    def median_of(read: Any, name: str = "traced") -> float:
        return statistics.median(read(entry) for entry in made[name])

    walls = {name: steady_wall_s(entries) for name, entries in made.items()}
    traced = made["traced"][0]
    inline_traced = made.get("inline_traced", [None])[0]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        calls, source = _layer_totals(traced, layer)[0], "traced"
        if not calls and inline_traced is not None:
            calls, source = _layer_totals(inline_traced, layer)[0], \
                "inline_traced"
            if calls:
                result["inline_layers"].append(layer)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = median_of(
            lambda e: _layer_totals(e, layer)[1], source)
    metrics["shard.plan.build.calls"] = traced["parts"].get("plan_calls", 0)
    metrics["shard.plan.build.self_s"] = median_of(
        lambda e: e["parts"].get("plan_build_s", 0.0))
    metrics["shard.engine.spawn_s"] = median_of(
        lambda e: e["parts"].get("engine_spawn_s", 0.0))
    for name in ("sim.events", "telemetry.spans.retained"):
        metrics[name] = _first_nonzero(
            [traced, inline_traced], lambda e: e["counts"].get(name, 0))
    for name in ("shard.payloads", "shard.payload_bytes",
                 "shard.obs_frame_bytes"):
        metrics[name] = traced["trace"]["counters"].get(name, 0)
    shard = "inline" in walls
    for name in ("parent_cpu_s", "children_cpu_s"):
        metrics[f"shard.{name}"] = (
            median_of(lambda e: e[name], "untraced") if shard else 0.0)
    metrics["shard.mp_over_inline"] = (
        walls["untraced"] / walls["inline"] if shard else 0.0)
    metrics["telemetry.overhead_frac"] = (
        walls["untraced"] / walls["sinks_off"] - 1.0
        if "sinks_off" in walls else 0.0)
    metrics["trace.overhead_frac"] = walls["traced"] / walls["untraced"] - 1.0
    metrics["trace.residual_frac"] = median_of(
        lambda e: 1.0 - sum(self_s for _, self_s in
                            e["trace"]["layers"].values()) / e["wall_s"])
    metrics["mem.rss_growth_kb_per_kop"] = median_of(
        lambda e: e["trace"]["rss_growth_kb_per_kop"])
    for name in SIM_UNITS:
        metrics[name] = traced["sim"].get(name, 0.0)
    result["metrics"] = metrics
    result["walls"] = {**walls, "passes": len(made["traced"])}
    # A layer's printed share is of its own runs' median wall, as its
    # self_s is their median.
    result["median_walls"] = {
        name: statistics.median(entry["wall_s"] for entry in entries)
        for name, entries in made.items()}
    return result


# -- host fingerprint --------------------------------------------------------


def host_fingerprint() -> Dict[str, Any]:
    """Who measured: enough to normalise numbers across hosts later."""
    from repro.perf.harness import run_benchmarks

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg_before": list(os.getloadavg()),
        # repro.perf's fixed arithmetic loop, called as it is.
        "calibration_spin_ops_per_s":
            run_benchmarks([], reps=3).calibration_ops_per_sec,
    }


# -- reporting ---------------------------------------------------------------


def _print_end_to_end(result: Dict[str, Any], why: str) -> None:
    rounds = result["rounds"]
    ops = next((entry["ops"] for entry in rounds if "ops" in entry), 0)
    print(f"\n== {result['workload']}  seed {result['seed']}, "
          f"{len(rounds)} fresh-process runs of {ops} ops ==")
    print(f"why: {why}")
    print(f"  {'metric':<26}{'unit':<7}{'value':>12}   over the runs:"
          f"{'median':>10}{'q1':>12}{'q3':>12}{'min':>12}{'max':>12}{'n':>4}")
    for name, unit in TIMED_UNITS.items():
        stats = result["metrics"].get(name)
        if stats:
            print(f"  {name:<26}{unit:<7}{stats['value']:>12.4f}{'':>14}"
                  + "".join(f"{stats[key]:>12.4f}" for key in
                            ("median", "q1", "q3", "min", "max"))
                  + f"{stats['n']:>4}")
    print(f"  {'failed_frac':<26}{'frac':<7}{result['failed_frac']:>12.4f}"
          f"   ({result['failed']} of {result['attempted']} ops)")
    for name, value in result["sim"].items():
        print(f"  {name:<26}{SIM_UNITS[name]:<7}{value:>12.4f}   (exact)")
    print(f"  sim_digest {result['digest']}")
    for entry in rounds + [result["oracle"] or {}]:
        for problem in entry.get("violations", []):
            print(f"  VIOLATION {problem}")
        if "error" in entry:
            print(f"  ERROR {entry['error']}")
    if result["oracle"] is not None:
        print("  single-backend oracle digest "
              + ("matches" if result["oracle"].get("digest") == result["digest"]
                 and result["digest"] else "DIFFERS"))


def _print_layers(result: Dict[str, Any]) -> None:
    walls = result["walls"]
    print(f"-- per layer: {result['workload']} "
          f"(traced run, digest {result['digest']}) --")
    if not result["metrics"]:
        print("  traced run FAILED: " + "; ".join(
            entry.get("error", "digest or invariant") for entry in
            result["rounds"] if entry.get("failed")))
        return
    print(f"  walls over {walls['passes']} passes: " + ", ".join(
        f"{name} {wall:.3f} s" for name, wall in walls.items()
        if name != "passes"))
    units = per_layer_units()
    for name, value in result["metrics"].items():
        note = ""
        if name.endswith(".self_s") and name != "shard.plan.build.self_s":
            inline = name[:-len(".self_s")] in result["inline_layers"]
            wall = result["median_walls"]["inline_traced" if inline
                                          else "traced"]
            note = (f"   {100 * value / wall:5.1f} % of the "
                    f"{'inline' if inline else 'traced'} wall")
        print(f"  {name:<34}{value:>16.6g} {units[name]}{note}")


def contract_line(result: Dict[str, Any], units: Dict[str, str]) -> str:
    """The driver's last line: exactly correct/attempted/failed/metrics."""
    values = {name: (entry["value"] if isinstance(entry, dict) else entry)
              for name, entry in result["metrics"].items()}
    return json.dumps({
        "correct": result["failed"] == 0 and set(values) == set(units),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    })


# -- --check-repeat ----------------------------------------------------------


def check_repeat(first: Dict[str, Dict[str, Any]],
                 second: Dict[str, Dict[str, Any]],
                 bounds: Dict[str, float]) -> bool:
    """Two sets of the same code must agree: medians within each
    metric's bound, simulated statistics and digests exactly.  A metric
    whose own quartile spread exceeds its bound cannot resolve a
    difference of that size and is reported as such, not as agreeing."""
    agree = True
    print(f"\n{'workload':<20}{'metric':<26}{'first':>12}{'second':>12}"
          f"{'diff':>9}{'bound':>8}  verdict")
    for workload, one in first.items():
        two = second[workload]
        for name, bound in bounds.items():
            a, b = one["metrics"][name], two["metrics"][name]
            diff = abs(b["value"] - a["value"]) / a["value"]
            widest = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
            verdict = ("DIFFER" if diff > bound
                       else "unresolved" if widest > bound else "agree")
            agree &= verdict != "DIFFER"
            print(f"{workload:<20}{name:<26}{a['value']:>12.4f}"
                  f"{b['value']:>12.4f}{diff:>9.3f}{bound:>8.2f}  {verdict}")
        exact = {"failed_frac": (one["failed_frac"], two["failed_frac"]),
                 "sim_digest": (one["digest"], two["digest"]),
                 **{name: (value, two["sim"].get(name))
                    for name, value in one["sim"].items()}}
        for name, (a, b) in exact.items():
            same = a == b and (name != "failed_frac" or a == 0)
            agree &= same
            shown = [str(v)[:12] for v in (a, b)]
            print(f"{workload:<20}{name:<26}{shown[0]:>12}{shown[1]:>12}"
                  f"{'':>9}{'exact':>8}  {'agree' if same else 'DIFFER'}")
    return agree


# -- command line ------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=2026,
                        help="feeds every plan/arena/PRNG seed "
                             "(7 is held out for later claims)")
    parser.add_argument("--runs", type=int, default=5,
                        help="fresh-process runs per workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --runs: repeat for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end to end only, 1 per layer only")
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizing; never for reported numbers")
    parser.add_argument("--check-repeat", action="store_true",
                        help="two end-to-end sets back to back must agree")
    parser.add_argument("--round", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: the simulator is not at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.round is not None:
        print(json.dumps(run_round(json.loads(args.round))))
        return 0

    from bench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    host = host_fingerprint()
    print(f"host: {host['nproc']} cpus, {host['implementation']} "
          f"{host['python']}, {host['platform']}, load "
          f"{host['loadavg_before'][0]:.2f}, calibration.spin "
          f"{host['calibration_spin_ops_per_s']:,.0f} ops/s")
    if host["usable_cpus"] < 2:
        print("WARNING: fewer than 2 usable cpus: the two shard_* workers "
              "share a core, so their numbers measure time-slicing")

    def end_to_end_sets() -> Dict[str, Dict[str, Any]]:
        return {name: measure_end_to_end(name, args.seed, args.quick,
                                         args.runs, args.seconds)
                for name in names}

    document: Dict[str, Any] = {"seed": args.seed, "quick": args.quick,
                                "host": host}
    status = 0
    last = None
    if args.check_repeat:
        first, second = end_to_end_sets(), end_to_end_sets()
        for result in list(first.values()) + list(second.values()):
            _print_end_to_end(result, WORKLOADS[result["workload"]][1])
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {entry["name"]: entry["bound"]
                  for entry in declared["end_to_end"]}
        document["check_repeat"] = [first, second]
        status = 0 if check_repeat(first, second, bounds) else 1
        print("check-repeat: " + ("sets agree" if status == 0 else "FAILED"))
    else:
        document["workloads"] = {}
        for name in names:
            entry = document["workloads"].setdefault(name, {})
            if args.trace != 1:
                entry["end_to_end"] = last = measure_end_to_end(
                    name, args.seed, args.quick, args.runs, args.seconds)
                _print_end_to_end(last, WORKLOADS[name][1])
                units = TIMED_UNITS
            if args.trace != 0:
                entry["per_layer"] = last = measure_layers(
                    name, args.seed, args.quick, args.runs, args.seconds, out)
                _print_layers(last)
                units = per_layer_units()
            if any(part["failed"] for part in entry.values()):
                status = 1
    host["loadavg_after"] = list(os.getloadavg())
    suffix = "".join(f"_{part}" for part in (
        args.workload, {0: "e2e", 1: "layers"}.get(args.trace),
        "repeat" if args.check_repeat else None) if part)
    path = out / f"results{suffix}.json"
    path.write_text(json.dumps(document, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}")
    if args.workload and args.trace is not None and not args.check_repeat:
        # The driver's form: the verdict travels in the JSON line.
        print(contract_line(last, units))
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
