"""Tests for the command shell."""

from repro.cli.commands import COMMANDS
from repro.cli.shell import Shell


class TestShell:
    def test_basic_session(self):
        shell = Shell()
        assert "alice" in shell.execute("mkcur alice")
        assert "t1" in shell.execute("mktkt 200 base t1")
        assert "funds alice" in shell.execute("fund t1 alice")
        listing = shell.execute("lscur")
        assert "alice" in listing

    def test_unknown_command_reported_not_raised(self):
        shell = Shell()
        output = shell.execute("frobnicate 1 2 3")
        assert output.startswith("error:")

    def test_command_errors_reported(self):
        shell = Shell()
        output = shell.execute("rmtkt ghost")
        assert output.startswith("error:")

    def test_blank_and_comment_lines(self):
        shell = Shell()
        assert shell.execute("") == ""
        assert shell.execute("   ") == ""
        assert shell.execute("# a comment") == ""

    def test_help(self):
        shell = Shell()
        output = shell.execute("help")
        # The paper's nine (section 4.7) plus the session-ledger audit;
        # every other subsystem has a ``python -m`` door of its own.
        assert set(COMMANDS) == {"mktkt", "rmtkt", "mkcur", "rmcur", "fund",
                                 "unfund", "lstkt", "lscur", "fundx",
                                 "sanitize"}
        assert len(output.splitlines()) == 1 + len(COMMANDS)
        for name in COMMANDS:
            assert name in output

    def test_run_script(self):
        shell = Shell()
        outputs = shell.run_script(
            """
            # build a tiny currency graph
            mkcur alice
            mktkt 100 base t1
            fund t1 alice
            lstkt
            """
        )
        assert len(outputs) == 4
        assert not any(o.startswith("error:") for o in outputs)

    def test_history_recorded(self):
        shell = Shell()
        shell.execute("mkcur a")
        shell.execute("lscur")
        assert shell.history == ["mkcur a", "lscur"]

    def test_malformed_quoting_reported(self):
        shell = Shell()
        output = shell.execute('mkcur "unterminated')
        assert output.startswith("error:")
