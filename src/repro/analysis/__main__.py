"""Command-line front end for the analysis tools.

Usage::

    python -m repro.analysis lint [PATH ...]        # exit 1 on findings
    python -m repro.analysis lint --list-suppressions [PATH ...]
    python -m repro.analysis sanitize [--quanta N] [--seed S] [--inject]

``lint`` walks the given files/directories (default ``src/repro``) and
prints one line per finding; the rules are
:data:`repro.analysis.lint.RULES`, described in ``docs/ANALYSIS.md``.
``sanitize`` runs a self-test scenario -- a compute hog, a yielding
interactive thread, and a sleeper funded through a sub-currency, with
mid-run ticket inflation -- under full invariant instrumentation;
``--inject`` deliberately corrupts the ledger mid-run to demonstrate
(and exit nonzero on) detection.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.lint import collect_suppressions, lint_paths
from repro.analysis.sanitizer import InvariantSanitizer
from repro.errors import InvariantViolation
from repro.shard.__main__ import positive_int


def _cmd_lint(args: argparse.Namespace) -> int:
    if args.list_suppressions:
        suppressions = collect_suppressions(args.paths)
        for suppression in suppressions:
            print(suppression.format())
        missing = sum(1 for s in suppressions if not s.justification)
        print(f"{len(suppressions)} suppression(s), "
              f"{missing} without justification", file=sys.stderr)
        return 1 if missing else 0

    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"lint: clean ({', '.join(str(p) for p in args.paths)})")
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.core.prng import ParkMillerPRNG
    from repro.core.tickets import Ledger
    from repro.kernel.kernel import Kernel
    from repro.kernel.syscalls import Compute, Sleep, YieldCPU
    from repro.schedulers.lottery_policy import LotteryPolicy
    from repro.sim.engine import Engine

    engine = Engine()
    ledger = Ledger()
    policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(args.seed))
    kernel = Kernel(engine, policy, ledger=ledger, quantum=100.0)
    sanitizer = InvariantSanitizer().attach(kernel)

    currency = ledger.create_currency("selftest")
    backing = ledger.create_ticket(600, fund=currency)

    def hog(ctx):
        while True:
            yield Compute(100.0)

    def interactive(ctx):
        while True:
            yield Compute(20.0)
            yield YieldCPU()

    def sleeper(ctx):
        while True:
            yield Compute(10.0)
            yield Sleep(150.0)

    kernel.spawn(hog, "hog", tickets=400)
    kernel.spawn(interactive, "interactive", tickets=400)
    kernel.spawn(sleeper, "sleeper", tickets=600, currency=currency)

    horizon = args.quanta * 100.0
    # Mid-run inflation exercises the activation/valuation bookkeeping.
    engine.call_after(horizon / 2, lambda: backing.set_amount(900),
                      label="selftest-inflation")
    if args.inject:
        # Deliberate corruption: bump a currency's cached active amount
        # behind the ledger's back, proving the sanitizer catches it.
        engine.call_after(
            horizon / 2 + 50.0,
            lambda: setattr(currency, "_active_amount",
                            currency._active_amount + 1.0),
            label="selftest-corruption",
        )
    try:
        kernel.run_until(horizon)
    except InvariantViolation as violation:
        print(f"invariant violation detected at t={kernel.now:.0f}ms "
              f"after {sanitizer.checks_run} checks:")
        print(violation)
        if args.inject:
            # Detecting the planted corruption is the expected outcome.
            print("sanitize: --inject corruption detected, self-test passed")
            return 0
        return 1
    print(f"sanitize: all invariants held -- {sanitizer.checks_run} checks "
          f"over {sanitizer.quanta_seen} quanta, "
          f"{policy.lotteries_held} lotteries, "
          f"{policy.compensation.grants_issued} compensation grants")
    if args.inject:
        print("sanitize: --inject corruption was NOT detected", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism lint and scheduler-invariant sanitizer.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    lint_parser = commands.add_parser(
        "lint", help="run the determinism lint over Python sources")
    lint_parser.add_argument("paths", nargs="*", default=["src/repro"],
                             help="files or directories (default: src/repro)")
    lint_parser.add_argument("--list-suppressions", action="store_true",
                             help="inventory every active noqa suppression "
                                  "(exit 1 if any lacks a justification)")
    lint_parser.set_defaults(func=_cmd_lint)

    sanitize_parser = commands.add_parser(
        "sanitize", help="run the instrumented self-test scenario")
    sanitize_parser.add_argument("--quanta", type=positive_int, default=200,
                                 help="scheduling quanta to simulate")
    sanitize_parser.add_argument("--seed", type=int, default=1,
                                 help="Park-Miller seed for the lottery")
    sanitize_parser.add_argument("--inject", action="store_true",
                                 help="corrupt the ledger mid-run to "
                                      "demonstrate detection")
    sanitize_parser.set_defaults(func=_cmd_sanitize)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
