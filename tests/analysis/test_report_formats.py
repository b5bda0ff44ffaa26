"""Tests for the lint report layer (JSON / SARIF) and the CLI flags
that expose it."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.__main__ import main
from repro.analysis.lint import Finding, lint_paths
from repro.analysis.report import fingerprint, render_json, render_sarif

SRC_REPRO = str(Path(__file__).resolve().parents[2] / "src" / "repro")


def sample_findings():
    return [
        Finding("repro/kernel/a.py", 3, 0, "RPR001", "stdlib RNG imported"),
        Finding("repro/kernel/b.py", 7, 4, "RPR002", "wall-clock read"),
    ]


# -- fingerprints ------------------------------------------------------------


def test_fingerprint_is_stable_across_line_shifts():
    moved = Finding("repro/kernel/a.py", 99, 5, "RPR001",
                    "stdlib RNG imported")
    assert fingerprint(sample_findings()[0]) == fingerprint(moved)


def test_fingerprint_distinguishes_rule_and_message():
    a, b = sample_findings()
    assert fingerprint(a) != fingerprint(b)


# -- JSON --------------------------------------------------------------------


def test_render_json_round_trips():
    document = json.loads(render_json(sample_findings(), tool="repro-lint"))
    assert document["tool"] == "repro-lint"
    assert document["finding_count"] == 2
    first = document["findings"][0]
    assert first["rule_id"] == "RPR001"
    assert first["path"] == "repro/kernel/a.py"
    assert len(first["fingerprint"]) == 64


# -- SARIF -------------------------------------------------------------------


def test_render_sarif_is_valid_2_1_0_shape():
    log = json.loads(render_sarif(
        sample_findings(), tool="repro-lint",
        rule_meta={"RPR001": ("nondeterministic-rng", "stdlib RNG")}))
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert run["tool"]["driver"]["rules"][0]["id"] == "RPR001"
    result = run["results"][0]
    assert result["ruleId"] == "RPR001"
    assert result["locations"][0]["physicalLocation"]["region"][
        "startLine"] == 3
    assert "reproAnalysis/v1" in result["partialFingerprints"]


# -- CLI wiring --------------------------------------------------------------


def dirty_tree(tmp_path):
    pkg = tmp_path / "repro" / "kernel"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text("import random\n")
    return tmp_path


def test_lint_format_json(tmp_path, capsys):
    tree = dirty_tree(tmp_path)
    assert main(["lint", "--format", "json", str(tree)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["findings"][0]["rule_id"] == "RPR001"


def test_lint_format_sarif_to_file(tmp_path, capsys):
    tree = dirty_tree(tmp_path)
    out = tmp_path / "lint.sarif"
    assert main(["lint", "--format", "sarif", "--out", str(out),
                 str(tree)]) == 1
    log = json.loads(out.read_text())
    assert log["runs"][0]["results"][0]["ruleId"] == "RPR001"


def test_lint_list_suppressions(tmp_path, capsys):
    pkg = tmp_path / "repro" / "kernel"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "import random  # repro: noqa[RPR001] -- fixture entropy\n")
    assert main(["lint", "--list-suppressions", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "noqa[RPR001] -- fixture entropy" in captured.out
    assert "0 without justification" in captured.err


def test_lint_list_suppressions_flags_missing_justification(tmp_path, capsys):
    pkg = tmp_path / "repro" / "kernel"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("import random  # repro: noqa\n")
    assert main(["lint", "--list-suppressions", str(tmp_path)]) == 1
    assert "NO JUSTIFICATION" in capsys.readouterr().out


def test_repo_lint_still_clean_via_api():
    assert lint_paths([SRC_REPRO]) == []
