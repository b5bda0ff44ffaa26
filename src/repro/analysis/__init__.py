"""Correctness tooling for the reproduction (``repro.analysis``).

Three layers keep the simulation honest:

* :mod:`repro.analysis.lint` -- an AST-based determinism lint with
  repo-specific rules (``RULES``) flagging the hazards no other check
  catches: stdlib RNGs, wall-clock reads, unordered iteration in
  scheduling paths, float hazards on ticket amounts, mutable default
  arguments, sleeps and retry loops, checkpoint bypasses, library
  prints, undeclared module-level state, and host concurrency.
* :mod:`repro.analysis.races` -- a dynamic determinism-race sanitizer:
  under ``REPRO_SANITIZE=1`` every kernel object is tagged with an
  owner token at attach and cross-owner mutation outside a declared
  barrier seam raises :class:`repro.errors.DeterminismRaceError`.
* :mod:`repro.analysis.sanitizer` -- an ASan-style runtime invariant
  checker that re-derives ticket conservation, currency-graph
  consistency, run-queue membership, and compensation-ticket lifetime
  after every scheduling quantum.

Command-line front end:
``python -m repro.analysis {lint,sanitize}``.
See ``docs/ANALYSIS.md`` for the full rule and invariant reference.
"""

from repro._exports import lazy_exports

__all__ = [
    "Finding",
    "RULES",
    "Rule",
    "Suppression",
    "collect_suppressions",
    "iter_suppressions",
    "lint_file",
    "lint_paths",
    "lint_source",
    "RaceTracker",
    "tracker",
    "InvariantSanitizer",
    "install_autosanitize",
    "sanitize_ledger",
    "uninstall_autosanitize",
]

__getattr__ = lazy_exports(globals(), {
    "Finding": ".lint", "RULES": ".lint", "Rule": ".lint",
    "Suppression": ".lint", "collect_suppressions": ".lint",
    "iter_suppressions": ".lint", "lint_file": ".lint", "lint_paths": ".lint",
    "lint_source": ".lint",
    "RaceTracker": ".races", "tracker": ".races",
    "InvariantSanitizer": ".sanitizer", "install_autosanitize": ".sanitizer",
    "sanitize_ledger": ".sanitizer", "uninstall_autosanitize": ".sanitizer",
})
