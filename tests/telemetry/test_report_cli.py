"""``python -m repro.telemetry``: ``report --bundle`` and the flat
recipe-tracing invocation."""

from __future__ import annotations

import json

import pytest

from repro.checkpoint.recipes import RECIPES
from repro.errors import ShardError
from repro.shard.engine import ShardedEngine
from repro.shard.hostfaults import HostFault, HostFaultPlan
from repro.shard.plan import mix_plan
from repro.shard.supervisor import SupervisorPolicy
from repro.telemetry.__main__ import main


def test_report_reads_a_bundle_and_runs_no_plan(capsys):
    """``report`` only reads a bundle: a plan's observed run is
    ``python -m repro.shard run --obs`` (``tests/shard/test_cli.py``)."""
    for argv in (["report"], ["report", "--plan", "mix"]):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
    assert "--bundle" in capsys.readouterr().err


def test_bundle_mode_summarizes_flight_bundle(capsys, tmp_path):
    flight_dir = str(tmp_path / "flight")
    fault = HostFaultPlan([HostFault("kill", shard=0, epoch=1)])
    with pytest.raises(ShardError) as excinfo:
        with ShardedEngine(mix_plan(seed=11, cores=4), shards=2,
                           backend="mp", supervise=True,
                           policy=SupervisorPolicy(max_retries=0,
                                                   degrade=False),
                           host_faults=fault, obs=True,
                           flight_dir=flight_dir) as engine:
            engine.advance(2000.0)
    path = excinfo.value.flight_bundle

    code = main(["report", "--bundle", path])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out)
    assert summary["error"] == "ShardError"
    assert summary["sha256"]


def test_bundle_mode_fails_on_invalid_bundle(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "nope"}), encoding="utf-8")
    assert main(["report", "--bundle", str(bad)]) == 1
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]", "{}"])
def test_bundle_mode_reports_malformed_files_without_a_traceback(
        tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content, encoding="utf-8")
    assert main(["report", "--bundle", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("INVALID bundle: ") and str(bad) in err


def test_legacy_flat_invocation_still_works(capsys):
    """The flat ``python -m repro.telemetry`` surface (recipe tracing)
    keeps its contract alongside ``report``; its ``--recipe`` choices
    are the recipe table."""
    assert main(["--run-until", "1000"]) == 0
    assert "recipe=lottery-mix seed=2718 t=1000ms" in capsys.readouterr().out
    with pytest.raises(SystemExit) as caught:
        main(["--help"])
    assert caught.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in RECIPES)


@pytest.mark.parametrize("argv, named", [
    (["--recipe", "bogus"], "--recipe"),
    (["--run-until", "-5"], "--run-until"),
    (["--run-until", "nan"], "--run-until"),
    (["--run-until", "inf"], "--run-until"),
    (["--max-spans", "0"], "--max-spans"),
    (["--max-spans", "many"], "--max-spans"),
    (["--recipe", "chaos-fairness", "--run-until", "100"], "epoch grid"),
])
def test_flat_invocation_bad_arguments_are_one_line_usage_errors(
        argv, named, capsys):
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert named in err.splitlines()[-1] and "Traceback" not in err
