"""The ``python -m repro.shard`` CLI: run, verify, divergence reports."""

from __future__ import annotations

import json

import pytest

from repro.shard.__main__ import _first_divergence, main
from repro.shard.plan import PLANS

from tests.shard.test_obs import GOLDEN_REPORT, GOLDEN_TRACE


def test_run_prints_checksums(capsys):
    code = main(["run", "--plan", "mix", "--cores", "2", "--until", "1000",
                 "--backend", "inline", "--shards", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "plan=mix cores=2 backend=inline shards=2" in out
    assert "stream  " in out and "state   " in out


def test_run_is_deterministic_across_invocations(capsys):
    main(["run", "--plan", "mix-ops", "--until", "2000"])
    first = capsys.readouterr().out
    main(["run", "--plan", "mix-ops", "--until", "2000"])
    assert capsys.readouterr().out == first


def test_verify_passes_on_equivalent_backends(capsys, tmp_path):
    report = tmp_path / "divergence.txt"
    code = main(["verify", "--plan", "mix", "--cores", "4",
                 "--until", "2000", "--backends", "inline,mp",
                 "--shards", "1,2,4", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS: all combinations bit-identical" in out
    assert not report.exists()  # report only written on divergence


def test_verify_propagates_off_grid_horizon(capsys):
    """A horizon off the epoch grid fails loudly in the oracle run --
    no combination is silently skipped -- as one usage line."""
    with pytest.raises(SystemExit) as caught:
        main(["verify", "--until", "1234.5"])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "epoch grid" in err.splitlines()[-1] and "Traceback" not in err


def test_verify_records_backend_errors_and_fails(capsys, tmp_path):
    report = tmp_path / "divergence.txt"
    code = main(["verify", "--plan", "mix", "--cores", "2",
                 "--until", "1000", "--backends", "inline,warp",
                 "--shards", "1", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    text = report.read_text()
    assert "warp/s1: ERROR" in text
    assert "single-loop oracle" in text


@pytest.mark.parametrize("argv, named", [
    (["run", "--shards", "0"], "--shards"),
    (["run", "--shards", "x"], "--shards"),
    (["run", "--cores", "0"], "--cores"),
    (["run", "--until", "-5"], "backwards"),
    (["run", "--backend", "bogus"], "--backend"),
    (["run", "--seed", "0"], "seed"),
    (["verify", "--shards", "1,0"], "--shards"),
    (["verify", "--shards", "two"], "--shards"),
    (["verify", "--cores", "-1"], "--cores"),
    (["verify", "--until", "-5"], "backwards"),
    (["run", "--plan", "bogus"], "bogus"),
    (["verify", "--until", "nan"], "finite"),
    (["verify", "--until", "1234.5"], "epoch grid"),
    (["verify", "--deadline", "0"], "deadline"),
    (["verify", "--max-retries", "-1"], "max_retries"),
    (["verify", "--host-faults", "bogus"], "bogus"),
    (["run", "--backend", "mp", "--host-faults", "bogus"], "bogus"),
    (["run", "--backend", "mp", "--deadline", "inf"], "deadline_s"),
    (["run", "--backend", "mp", "--deadline", "nan"], "deadline_s"),
    (["verify", "--deadline=-inf"], "deadline_s"),
    (["run", "--backend", "mp", "--deadline", "1e9"], "deadline_s"),
    (["run", "--backend", "mp", "--max-retries", "1.5"], "--max-retries"),
    (["run", "--backend", "inline", "--host-faults", "chaos"],
     "backend='mp' only"),
])
def test_bad_arguments_are_one_line_usage_errors(argv, named, capsys):
    """Bad counts, horizons, backends, plan fields, supervision
    policies and host-fault plans, whether argparse, the plan, the
    engine or the policy refuses them: one usage line."""
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert named in err.splitlines()[-1] and "Traceback" not in err


def test_first_divergence_formats_index_and_length():
    a = [{"t": 1}, {"t": 2}]
    assert "index 1" in _first_divergence(a, [{"t": 1}, {"t": 9}])
    assert "length" in _first_divergence(a, [{"t": 1}])
    assert "identical" in _first_divergence(a, list(a))


def test_run_supervised_with_host_faults_matches_bare_run(capsys):
    """The faulted mp CLI run prints the same checksums as the
    undisturbed run of the same plan; both print a recovery line."""
    main(["run", "--plan", "mix", "--cores", "2", "--until", "1000",
          "--backend", "mp", "--shards", "2"])
    bare = capsys.readouterr().out
    code = main(["run", "--plan", "mix", "--cores", "2", "--until", "1000",
                 "--backend", "mp", "--shards", "2",
                 "--host-faults", "kill-every-epoch", "--deadline", "10"])
    supervised = capsys.readouterr().out
    assert code == 0
    bare_sums = [line for line in bare.splitlines()
                 if line.startswith(("stream", "state"))]
    sup_sums = [line for line in supervised.splitlines()
                if line.startswith(("stream", "state"))]
    assert bare_sums == sup_sums
    assert "recovery: restarts=0 retries=0 faults_armed=0" in bare
    assert "recovery:" in supervised and "restarts=0" not in supervised


def test_host_faults_flag_requires_the_mp_backend(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--backend", "inline", "--host-faults", "chaos"])
    assert "backend='mp' only" in capsys.readouterr().err


def test_verify_supervised_adds_fault_combinations(capsys):
    """``--host-faults`` on its own adds the one faulted mp combination
    at the widest shard count."""
    code = main(["verify", "--plan", "mix", "--cores", "2",
                 "--until", "1000", "--backends", "inline",
                 "--shards", "1,2", "--host-faults", "kill-every-epoch",
                 "--deadline", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mp+faults/s2" in out
    assert "mp/s" not in out
    assert "PASS: all combinations bit-identical" in out


class TestObsFlags:
    """``run --obs``: observability outputs from the run CLI."""

    def test_obs_prints_trace_and_report_digests(self, capsys):
        code = main(["run", "--plan", "mix", "--until", "2000",
                     "--backend", "inline", "--shards", "2", "--obs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "obs     slices=4 slo=PASS breaches=0" in out
        assert "trace   " in out and "reportc " in out

    def test_obs_run_prints_canonical_report_sha_and_passes(self, capsys):
        """The run the old ``repro.telemetry report`` front door made:
        four cores, inline, two shards -- SLO met, exit 0, and one
        canonical report digest printed."""
        code = main(["run", "--plan", "mix", "--cores", "4", "--until",
                     "2000", "--backend", "inline", "--shards", "2",
                     "--obs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "slo=PASS" in out
        (digest,) = [line.split()[1] for line in out.splitlines()
                     if line.startswith("reportc ")]
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_obs_outputs_are_deterministic_and_checksummed(
            self, capsys, tmp_path):
        def run(tag):
            trace = tmp_path / f"trace-{tag}.json"
            report = tmp_path / f"report-{tag}.json"
            prom = tmp_path / f"metrics-{tag}.prom"
            assert main(["run", "--plan", "mix", "--until", "2000",
                         "--shards", "2", "--obs",
                         "--trace-out", str(trace),
                         "--report-out", str(report),
                         "--prom-out", str(prom)]) == 0
            capsys.readouterr()
            return (trace.read_bytes(), report.read_bytes(),
                    prom.read_bytes())

        first = run("a")
        assert first == run("b")  # byte-for-byte, like CI's cmp
        # every artifact carries its sidecar digest
        for name in ("trace-a.json", "report-a.json", "metrics-a.prom"):
            assert (tmp_path / (name + ".sha256")).exists()

    def test_output_flags_imply_obs(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code = main(["run", "--plan", "mix", "--until", "1000",
                     "--report-out", str(report)])
        assert code == 0 and report.exists()

    def test_obs_flags_rejected_under_verify(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--until", "1000", "--obs"])

    def test_obs_artifacts_are_the_obs_goldens(self, capsys, tmp_path):
        """The CLI's written trace and report are the engine's golden
        canonical outputs (``tests/shard/test_obs.py``); the report
        names the trace it was built with, and the metrics are
        Prometheus text."""
        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        prom = tmp_path / "metrics.prom"
        assert main(["run", "--plan", "mix", "--cores", "4", "--seed", "11",
                     "--until", "2000", "--obs", "--trace-out", str(trace),
                     "--report-out", str(report),
                     "--prom-out", str(prom)]) == 0
        capsys.readouterr()
        trace_doc = json.loads(trace.read_text())
        report_doc = json.loads(report.read_text())
        assert trace_doc["metadata"]["sha256"] == GOLDEN_TRACE
        assert report_doc["canonical_sha256"] == GOLDEN_REPORT
        assert report_doc["canonical"]["trace_sha256"] == GOLDEN_TRACE
        assert report_doc["canonical"]["slo"]["ok"] is True
        assert prom.read_text().startswith("#")

    def test_report_md_writes_the_markdown_report(self, capsys, tmp_path):
        markdown = tmp_path / "report.md"
        assert main(["run", "--plan", "mix", "--until", "2000",
                     "--shards", "2", "--report-md", str(markdown)]) == 0
        assert "|" in markdown.read_text()

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_every_plan_runs_with_obs(self, name, capsys):
        code = main(["run", "--plan", name, "--cores", "2", "--until",
                     "500", "--backend", "inline", "--shards", "2",
                     "--obs"])
        # 0 = SLO policy met, 2 = breached; argparse refusal raises.
        assert code in (0, 2), name
        assert "reportc " in capsys.readouterr().out

    def test_slo_breach_exits_two(self, capsys):
        """The SLO gate: the serving plan at 1.5x load breaches the
        default policy by 1 500 ms on one core."""
        code = main(["run", "--plan", "serving", "--cores", "1",
                     "--until", "1500", "--obs"])
        out = capsys.readouterr().out
        assert code == 2
        assert "slo=FAIL breaches=2" in out and "reportc " in out
