"""Shared experiment harness: machine builder, results, table printing.

Every experiment module exposes ``run(...) -> ExperimentResult`` plus a
``main()`` that prints the paper-style rows; this module holds the
common plumbing so each experiment stays focused on its scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence

from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.errors import ExperimentError
from repro.kernel.kernel import Kernel
from repro.schedulers.base import SchedulingPolicy
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.sim.engine import Engine

__all__ = ["ExperimentResult", "Machine", "build_machine", "cumulative_rows",
           "format_table"]


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    ``rows`` hold the table/series the paper's figure reports;
    ``measures`` the headline numbers verdicts and tests read, with the
    allocation each is judged against; ``summary`` renders them as the
    paper's prose quotes them, for reading only; ``params`` records the
    configuration for EXPERIMENTS.md.
    """

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    measures: Dict[str, Any] = field(default_factory=dict)

    def print_report(self) -> None:
        """Human-readable report (used by every experiment's main())."""
        print(f"== {self.name} ==")
        if self.params:
            printable = ", ".join(f"{k}={v}" for k, v in self.params.items())
            print(f"params: {printable}")
        if self.rows:
            print(format_table(self.rows))
        for key, value in self.summary.items():
            print(f"{key}: {value}")


@dataclass
class Machine:
    """One simulated computer: engine + ledger + policy + kernel."""

    engine: Engine
    ledger: Ledger
    policy: SchedulingPolicy
    kernel: Kernel

    @property
    def now(self) -> float:
        return self.engine.now

    def run_until(self, time_ms: float) -> None:
        self.kernel.run_until(time_ms)


def _baseline(module: str, name: str) -> Callable[[Ledger, int], Any]:
    """A baseline policy's factory; its module loads when first named."""
    def factory(ledger: Ledger, seed: int) -> Any:
        return getattr(import_module(f"repro.schedulers.{module}"), name)()
    return factory


_POLICIES = {
    "lottery": lambda ledger, seed: LotteryPolicy(
        ledger, prng=ParkMillerPRNG(seed)
    ),
    "lottery-no-compensation": lambda ledger, seed: LotteryPolicy(
        ledger, prng=ParkMillerPRNG(seed), compensation=False
    ),
    "lottery-tree": lambda ledger, seed: LotteryPolicy(
        ledger, prng=ParkMillerPRNG(seed), use_tree=True
    ),
    "round-robin": _baseline("round_robin", "RoundRobinPolicy"),
    "fixed-priority": _baseline("priority", "FixedPriorityPolicy"),
    "timesharing": _baseline("timesharing", "TimesharingPolicy"),
    "fair-share": _baseline("fair_share", "FairSharePolicy"),
    "stride": _baseline("stride", "StridePolicy"),
}


def build_machine(seed: int = 1, quantum: float = 100.0,
                  policy: str = "lottery",
                  context_switch_cost: float = 0.0) -> Machine:
    """Assemble a simulated machine with the named scheduling policy."""
    factory = _POLICIES.get(policy)
    if factory is None:
        raise ExperimentError(
            f"unknown policy {policy!r}; choose from {sorted(_POLICIES)}"
        )
    engine = Engine()
    ledger = Ledger()
    policy_obj = factory(ledger, seed)
    kernel = Kernel(
        engine, policy_obj, ledger=ledger, quantum=quantum,
        context_switch_cost=context_switch_cost,
    )
    return Machine(engine, ledger, policy_obj, kernel)


def cumulative_rows(counters: Dict[str, Any], duration_ms: float,
                    every_ms: float) -> List[Dict[str, Any]]:
    """Each named counter's running total every ``every_ms`` virtual ms
    from 0 to ``duration_ms``, beside the time in seconds."""
    rows, t = [], 0.0
    while t <= duration_ms + 1e-9:
        rows.append({"time_s": t / 1000.0, **{
            name: count.total_until(t) for name, count in counters.items()}})
        t += every_ms
    return rows


def format_table(rows: Sequence[Dict[str, Any]], precision: int = 3) -> str:
    """Align a list of dicts into a printable table."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    table = [[fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in table))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths))
        for line in table
    )
    return "\n".join([header, separator, body])
