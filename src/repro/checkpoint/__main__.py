"""Smoke CLI: ``python -m repro.checkpoint`` exercises the round trip.

Builds a recipe, runs it, saves a checkpoint, restores it (verify +
sanitize), continues both the original and the restored system, and
diffs their dispatch streams.  Exit status 0 means zero divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from repro.checkpoint import (build_recipe, diff_streams,
                              format_divergence, restore, save)
from repro.checkpoint.recipes import RECIPES
from repro.checkpoint.statetree import checkpoint_summary
from repro.errors import ReproError
from repro.shard.__main__ import virtual_ms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checkpoint",
        description="checkpoint/restore/replay smoke test",
    )
    parser.add_argument("--recipe", default="lottery-mix",
                        choices=sorted(RECIPES))
    parser.add_argument("--checkpoint-at", type=virtual_ms, default=5_000.0,
                        metavar="MS", help="virtual time of the checkpoint")
    parser.add_argument("--run-until", type=virtual_ms, default=10_000.0,
                        metavar="MS", help="virtual time both runs end at")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="also write the divergence report to this file")
    args = parser.parse_args(argv)
    if not args.checkpoint_at < args.run_until:
        parser.error("--checkpoint-at must be before --run-until")

    try:
        original = build_recipe(args.recipe, {})
        original.advance(args.checkpoint_at)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "smoke.ckpt")
            payload = save(original, path)
            print(f"saved {checkpoint_summary(payload)}")
            restored, _ = restore(path)
            print(f"restored and verified at t={restored.now:g}ms")
        original.advance(args.run_until)
        restored.advance(args.run_until)
    except ReproError as exc:
        parser.error(str(exc))
    left = original.stream()
    right = restored.stream()
    divergence = diff_streams(left, right)
    print(f"continued both runs to t={args.run_until:g}ms "
          f"({len(left)} dispatches)")
    report = format_divergence(divergence)
    print(report)
    if args.report is not None:
        with open(args.report, "w") as out:
            out.write(f"recipe: {args.recipe}\n"
                      f"checkpoint-at: {args.checkpoint_at:g}ms  "
                      f"run-until: {args.run_until:g}ms  "
                      f"dispatches: {len(left)}\n{report}\n")
    return 0 if divergence is None else 1


if __name__ == "__main__":
    sys.exit(main())
