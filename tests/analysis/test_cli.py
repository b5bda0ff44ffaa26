"""Tests for the analysis entry points: ``python -m repro.analysis`` and
the interactive-shell ``sanitize`` command."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.cli.commands import COMMANDS
from repro.cli.state import CommandState
from repro.errors import ReproError

SRC_REPRO = str(Path(__file__).resolve().parents[2] / "src" / "repro")


# -- python -m repro.analysis ----------------------------------------------


def test_lint_command_clean_on_repo(capsys):
    assert main(["lint", SRC_REPRO]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_lint_command_reports_findings(tmp_path, capsys):
    dirty = tmp_path / "repro" / "kernel"
    dirty.mkdir(parents=True)
    (dirty / "bad.py").write_text("import random\n")
    assert main(["lint", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "RPR001" in captured.out
    assert "1 finding" in captured.err


def test_subcommands_are_exactly_lint_sanitize(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out
    assert "{lint,sanitize}" in usage


@pytest.mark.parametrize("argv", [["lint", "--format", "json"],
                                  ["lint", "--out", "lint.sarif"]])
def test_retired_outputs_are_usage_errors(argv, capsys):
    # One output format: the findings as text lines on stdout.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


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


def test_sanitize_command_clean_run(capsys):
    assert main(["sanitize", "--quanta", "50"]) == 0
    out = capsys.readouterr().out
    assert "all invariants held" in out


def test_sanitize_inject_self_test_detects_corruption(capsys):
    assert main(["sanitize", "--quanta", "50", "--inject"]) == 0
    out = capsys.readouterr().out
    assert "invariant violation detected" in out
    assert "self-test passed" in out


@pytest.mark.parametrize("quanta", ["0", "-5"])
def test_sanitize_refuses_a_quanta_count_below_one(quanta, capsys):
    # 0 used to report "all invariants held -- 0 checks"; -5 died in
    # the engine with a negative-delay traceback.
    with pytest.raises(SystemExit) as exit_info:
        main(["sanitize", "--quanta", quanta])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert f"expected a positive integer: '{quanta}'" in captured.err
    assert "invariants held" not in captured.out


def test_sanitize_runs_are_deterministic(capsys):
    main(["sanitize", "--quanta", "30", "--seed", "42"])
    first = capsys.readouterr().out
    main(["sanitize", "--quanta", "30", "--seed", "42"])
    assert capsys.readouterr().out == first


# -- shell command ----------------------------------------------------------


def test_shell_sanitize_reports_ok():
    state = CommandState()
    COMMANDS["mkcur"](state, ["team"])
    COMMANDS["mktkt"](state, ["100", "team"])
    out = COMMANDS["sanitize"](state, [])
    assert "invariants OK" in out


def test_shell_sanitize_reports_violation():
    state = CommandState()
    COMMANDS["mkcur"](state, ["team"])
    COMMANDS["mktkt"](state, ["100", "team"])
    state.ledger.currency("team")._active_amount += 5.0
    out = COMMANDS["sanitize"](state, [])
    assert "violation" in out
    assert "team" in out


def test_shell_sanitize_rejects_arguments():
    with pytest.raises(ReproError):
        COMMANDS["sanitize"](CommandState(), ["extra"])
