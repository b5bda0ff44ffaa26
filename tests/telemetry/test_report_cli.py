"""``python -m repro.telemetry report``: the observability front door."""

from __future__ import annotations

import json

import pytest

from repro.errors import ShardError
from repro.shard.engine import ShardedEngine
from repro.shard.hostfaults import HostFault, HostFaultPlan
from repro.shard.plan import mix_plan
from repro.shard.supervisor import SupervisorPolicy
from repro.telemetry.__main__ import main

_RUN = ["report", "--plan", "mix", "--cores", "4", "--until", "2000",
        "--backend", "inline", "--shards", "2"]


def test_run_mode_prints_canonical_sha_and_passes(capsys):
    code = main(_RUN + ["--quiet"])
    err = capsys.readouterr().err
    assert code == 0
    assert "canonical sha256: " in err


def test_run_mode_writes_requested_artifacts(capsys, tmp_path):
    report = tmp_path / "report.json"
    trace = tmp_path / "trace.json"
    prom = tmp_path / "metrics.prom"
    code = main(_RUN + ["--quiet", "--json", str(report),
                        "--trace", str(trace), "--prom", str(prom)])
    assert code == 0
    capsys.readouterr()
    document = json.loads(report.read_text().rsplit("\n", 2)[0])
    assert document["canonical"]["slo"]["ok"] is True
    payload = json.loads(trace.read_text().rsplit("\n", 2)[0])
    assert (document["canonical"]["trace_sha256"]
            == payload["metadata"]["sha256"])
    assert prom.read_text().startswith("#")


def test_report_accepts_every_plan_shard_run_does(capsys):
    """One plan table serves both CLIs (``serving`` used to be refused
    here by a private copy that had drifted)."""
    from repro.shard.__main__ import PLANS

    for name in sorted(PLANS):
        code = main(["report", "--plan", name, "--cores", "2", "--until",
                     "500", "--backend", "inline", "--shards", "2",
                     "--quiet"])
        # 0 = SLO policy met, 2 = breached; argparse refusal raises.
        assert code in (0, 2), name
        assert "canonical sha256: " in capsys.readouterr().err


def test_run_mode_markdown_report(capsys):
    code = main(_RUN)
    out = capsys.readouterr().out
    assert code == 0
    assert "# repro observability report" in out.lower() or "|" in out


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
    """The pre-existing ``python -m repro.telemetry`` surface (recipe
    tracing) must keep its contract alongside the new subcommand."""
    code = main(["--list-recipes"])
    out = capsys.readouterr().out
    assert code in (0, None)
    assert out.strip()  # it printed the recipe listing


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
