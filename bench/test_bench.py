"""Self-test of the benchmark, at ``--quick`` sizing.

    python -m pytest bench -q

Not part of tier-1 (``testpaths`` is ``tests``): it checks the
benchmark's own claims -- the names BENCHMARK.json declares are the
names printed, simulated outputs repeat and match the oracle, tracing
neither perturbs nor leaks -- not the simulator.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import run
from bench import trace as tracing
from bench.workloads import SHARD_WORKLOADS, WORKLOADS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def quick_round(workload: str, seed: int = 2026, **variant):
    return run.run_round(run.round_spec(workload, seed, quick=True, **variant))


def bench_cli(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_declared_names_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} \
        == run.TIMED_UNITS
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} \
        == run.per_layer_units()
    assert DECLARED["paths"] == ["bench"]


def test_every_declared_name_is_printed():
    done = bench_cli("--quick", "--runs", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in DECLARED[section]]
    # The issue's other end-to-end names, reported but not bounded.
    names += ["failed_frac", "sim_digest"]
    for name in names:
        assert NAME.fullmatch(name), name
        assert re.search(rf"(?m)^(== |-- per layer: |  ){re.escape(name)}\s",
                         done.stdout), f"{name} is not printed"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_rounds_repeat_exactly(workload):
    first, second = quick_round(workload), quick_round(workload)
    assert first["digest"] == second["digest"]
    assert first["ops"] == second["ops"] > 0
    assert first["sim"] == second["sim"]
    assert first["violations"] == []
    assert quick_round(workload, seed=7)["digest"] != first["digest"]


@pytest.mark.parametrize("workload", SHARD_WORKLOADS)
def test_shard_digest_equals_the_single_oracle(workload):
    digests = {backend: quick_round(workload, backend=backend)["digest"]
               for backend in ("mp", "inline", "single")}
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("workload", run.SINK_WORKLOADS)
def test_switching_the_sinks_off_keeps_the_digest(workload):
    assert quick_round(workload, sinks=False)["digest"] \
        == quick_round(workload)["digest"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_keeps_the_digest_and_restores_every_attribute(workload):
    wrapped = {(tracing.defining_owner(target.owner, attr), attr)
               for target in tracing.default_targets()
               for attr in target.attrs}
    originals = {key: vars(key[0])[key[1]] for key in wrapped}
    traced = quick_round(workload, trace=True)
    assert traced["trace"]["wrapped"] == len(wrapped)
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    assert traced["digest"] == quick_round(workload)["digest"]
    layers = traced["trace"]["layers"]
    assert sum(calls for calls, _ in layers.values()) > 0
    # Self times never overlap, so they sum to at most the wall.
    assert sum(self_s for _, self_s in layers.values()) \
        <= traced["wall_s"] * (1 + 1e-9)


def test_a_round_on_another_seed_fails_all_of_its_ops():
    rounds = [quick_round("dispatch_wide"), quick_round("dispatch_wide"),
              quick_round("dispatch_wide", seed=2027)]
    agreed = run.judge(rounds)
    assert agreed == rounds[0]["digest"]
    assert [entry["failed"] for entry in rounds] == [0, 0, rounds[2]["ops"]]
    # Two rounds that disagree have no majority: neither can be trusted.
    assert run.judge(rounds[1:]) is None
    assert all(entry["failed"] == entry["ops"] for entry in rounds[1:])
    # An oracle that disagrees with the majority fails every round.
    assert run.judge(rounds[:2], oracle={"digest": "other"}) is None
    assert rounds[0]["failed"] == rounds[0]["ops"]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_driver_form_ends_with_the_contract_line(trace, section):
    done = bench_cli("--quick", "--workload", "shard_mix_obs", "--seed", "5",
                     "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in line["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in DECLARED[section]}


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench_cli("--workload", "dispatch_wide", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
