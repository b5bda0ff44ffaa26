"""Tests for the top-level package API and error hierarchy."""

import ast
from pathlib import Path

import pytest

import repro
from repro import simulate_shares
from repro.errors import (
    CurrencyCycleError,
    CurrencyError,
    EmptyLotteryError,
    ExperimentError,
    InsufficientTicketsError,
    IpcError,
    KernelError,
    ReproError,
    SchedulerError,
    SimulationError,
    ThreadStateError,
    TicketError,
)


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_core_types_reachable_from_top_level(self):
        machine_parts = (repro.Engine, repro.Ledger, repro.Kernel,
                         repro.LotteryPolicy, repro.ParkMillerPRNG)
        for part in machine_parts:
            assert callable(part)


def _packages_imported_by(path):
    """The ``repro.<pkg>`` names reached by one file's import statements."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1]


def test_every_subpackage_has_a_caller():
    """A ``repro.<pkg>`` earns its place by being imported from outside
    itself (under ``src/``, ``bench/`` or ``examples/``) or by being a
    ``python -m`` entry point; tests alone do not count."""
    src = Path(repro.__file__).resolve().parent
    root = src.parent.parent
    packages = {path.parent.name for path in src.glob("*/__init__.py")}
    called = {package for package in packages
              if (src / package / "__main__.py").exists()}
    for tree in ("src", "bench", "examples"):
        for path in (root / tree).rglob("*.py"):
            parts = path.relative_to(src).parts \
                if path.is_relative_to(src) else ()
            called.update(set(_packages_imported_by(path)) - set(parts[:1]))
    assert sorted(packages - called) == []


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            TicketError,
            CurrencyError,
            CurrencyCycleError,
            InsufficientTicketsError,
            EmptyLotteryError,
            KernelError,
            ThreadStateError,
            IpcError,
            SimulationError,
            SchedulerError,
            ExperimentError,
        ],
    )
    def test_everything_derives_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_specializations(self):
        assert issubclass(CurrencyCycleError, CurrencyError)
        assert issubclass(InsufficientTicketsError, TicketError)
        assert issubclass(ThreadStateError, KernelError)
        assert issubclass(IpcError, KernelError)


class TestSimulateShares:
    def test_shares_sum_to_one(self):
        shares = simulate_shares({"a": 1, "b": 2, "c": 3},
                                 duration_ms=30_000, seed=5)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_shares_track_tickets(self):
        shares = simulate_shares({"big": 300, "small": 100},
                                 duration_ms=120_000, seed=9)
        assert shares["big"] == pytest.approx(0.75, abs=0.06)

    def test_single_client_gets_everything(self):
        shares = simulate_shares({"only": 7}, duration_ms=5_000)
        assert shares == {"only": 1.0}

    def test_deterministic_per_seed(self):
        first = simulate_shares({"a": 2, "b": 1}, duration_ms=20_000,
                                seed=77)
        second = simulate_shares({"a": 2, "b": 1}, duration_ms=20_000,
                                 seed=77)
        assert first == second

    def test_custom_quantum(self):
        shares = simulate_shares({"a": 2, "b": 1}, duration_ms=30_000,
                                 quantum_ms=10.0, seed=3)
        # Finer quanta: tighter convergence to 2/3 over the same time.
        assert shares["a"] == pytest.approx(2 / 3, abs=0.03)
