"""Unit tests for every determinism-lint rule.

Each rule gets positive fixtures (the hazard is flagged), negative
fixtures (clean or out-of-zone code is not), and a noqa-suppressed
fixture.  That the repo's own sources lint clean is checked once, by
``test_cli.py::test_lint_command_clean_on_repo``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import textwrap

import pytest

from repro.analysis.lint import (RULES, _self_assignments, lint_paths,
                                 lint_source, zone_of)
from repro.checkpoint.registry import SNAPSHOT_COVERAGE

KERNEL_PATH = "repro/kernel/fixture.py"
SCHED_PATH = "repro/schedulers/fixture.py"
CORE_PATH = "repro/core/fixture.py"
EXPERIMENT_PATH = "repro/experiments/fixture.py"


def ids(source: str, path: str = KERNEL_PATH):
    """Rule IDs found in a dedented fixture snippet."""
    return [f.rule_id for f in lint_source(textwrap.dedent(source), path)]


# -- zones ------------------------------------------------------------------


def test_zone_of_maps_subpackages():
    assert zone_of("src/repro/kernel/kernel.py") == "kernel"
    assert zone_of("/tmp/x/repro/schedulers/s.py") == "schedulers"
    assert zone_of("src/repro/errors.py") == ""
    assert zone_of("somewhere/else.py") is None


# -- RPR001: nondeterministic RNG ------------------------------------------


def test_rpr001_flags_random_import():
    assert ids("import random\n") == ["RPR001"]


def test_rpr001_flags_secrets_from_import():
    assert ids("from secrets import token_bytes\n") == ["RPR001"]


def test_rpr001_applies_outside_deterministic_zones():
    assert ids("import random\n", EXPERIMENT_PATH) == ["RPR001"]


def test_rpr001_clean_on_park_miller():
    assert ids("from repro.core.prng import ParkMillerPRNG\n") == []


def test_rpr001_noqa_suppresses():
    src = "import random  # repro: noqa[RPR001] -- seeding test fixture\n"
    assert ids(src) == []


# -- RPR002: wall-clock reads ----------------------------------------------


def test_rpr002_flags_time_time():
    src = """
    import time

    def stamp():
        return time.time()
    """
    assert ids(src) == ["RPR002"]


def test_rpr002_flags_from_import_and_aliases():
    src = """
    from time import perf_counter
    import time as t

    def stamp():
        return perf_counter() + t.monotonic()
    """
    assert ids(src) == ["RPR002", "RPR002"]


def test_rpr002_flags_datetime_now():
    src = """
    from datetime import datetime

    def stamp():
        return datetime.now()
    """
    assert ids(src) == ["RPR002"]


def test_rpr002_exempt_outside_zone():
    src = """
    import time

    def stamp():
        return time.perf_counter()
    """
    assert ids(src, EXPERIMENT_PATH) == []


def test_rpr002_ignores_non_clock_time_calls():
    src = """
    import time

    def pause():
        time.sleep(1)
    """
    # time.sleep is not a wall-clock *read*; RPR006 owns it instead.
    assert "RPR002" not in ids(src)
    assert ids(src) == ["RPR006"]


def test_rpr002_noqa_suppresses():
    src = """
    import time

    def stamp():
        return time.time()  # repro: noqa[RPR002] -- profiling only
    """
    assert ids(src) == []


# -- RPR003: unordered iteration -------------------------------------------


def test_rpr003_flags_set_literal_loop():
    src = """
    def pick(queue):
        for thread in {1, 2, 3}:
            queue.append(thread)
    """
    assert ids(src, SCHED_PATH) == ["RPR003"]


def test_rpr003_flags_dict_view_loop():
    src = """
    def pick(levels):
        for level in levels.values():
            level.pop()
    """
    assert ids(src, SCHED_PATH) == ["RPR003"]


def test_rpr003_flags_set_call_in_comprehension():
    src = "winners = [t for t in set(threads)]\n"
    assert ids(src, SCHED_PATH) == ["RPR003"]


def test_rpr003_sorted_wrapper_is_clean():
    src = """
    def pick(levels):
        for key, level in sorted(levels.items()):
            level.pop()
    """
    assert ids(src, SCHED_PATH) == []


def test_rpr003_order_insensitive_reduction_is_clean():
    src = "total = sum(len(level) for level in levels.values())\n"
    assert ids(src, SCHED_PATH) == []


def test_rpr003_exempt_outside_zone():
    src = "names = [n for n in results.keys()]\n"
    assert ids(src, "repro/metrics/fixture.py") == []


def test_rpr003_noqa_suppresses():
    src = ("for k in table.values():  "
           "# repro: noqa[RPR003] -- insertion order\n    pass\n")
    assert ids(src, SCHED_PATH) == []


# -- RPR004: float hazards on ticket quantities ----------------------------


def test_rpr004_flags_float_cast_on_amount():
    src = """
    def issue(amount):
        return float(amount)
    """
    assert ids(src, CORE_PATH) == ["RPR004"]


def test_rpr004_flags_exact_equality_on_tickets():
    src = """
    def same(ticket_amount):
        return ticket_amount == 400.0
    """
    assert ids(src, CORE_PATH) == ["RPR004"]


def test_rpr004_attribute_base_name_is_not_a_quantity():
    src = """
    def is_compensation(ticket):
        return ticket.tag != "compensation"
    """
    assert ids(src, CORE_PATH) == []


def test_rpr004_ordering_comparisons_are_clean():
    src = """
    def valid(amount):
        return amount >= 0
    """
    assert ids(src, CORE_PATH) == []


def test_rpr004_unrelated_float_cast_is_clean():
    assert ids("quantum = float(100)\n", CORE_PATH) == []


def test_rpr004_noqa_suppresses():
    src = ("value = float(amount)  "
           "# repro: noqa[RPR004] -- real-valued by design\n")
    assert ids(src, CORE_PATH) == []


# -- RPR005: mutable default arguments -------------------------------------


def test_rpr005_flags_list_and_dict_defaults():
    src = """
    def spawn(body, tickets=[], registry={}):
        pass
    """
    assert ids(src) == ["RPR005", "RPR005"]


def test_rpr005_flags_constructor_call_default():
    src = """
    def spawn(body, owners=dict()):
        pass
    """
    assert ids(src) == ["RPR005"]


def test_rpr005_none_default_is_clean():
    src = """
    def spawn(body, tickets=None):
        pass
    """
    assert ids(src) == []


def test_rpr005_noqa_suppresses():
    src = ("def spawn(body, tickets=[]):  "
           "# repro: noqa[RPR005] -- never mutated\n    pass\n")
    assert ids(src) == []


# -- RPR006: blocking sleeps and ad-hoc retry loops -------------------------


def test_rpr006_flags_time_sleep_everywhere():
    src = """
    import time

    def wait():
        time.sleep(0.5)
    """
    # Applies outside the deterministic zones too (rule has no zone list).
    assert ids(src, EXPERIMENT_PATH) == ["RPR006"]


def test_rpr006_flags_aliased_sleep():
    src = """
    import time as t

    def wait():
        t.sleep(1)
    """
    assert ids(src) == ["RPR006"]


def test_rpr006_flags_except_continue_retry_loop():
    src = """
    def fetch(op):
        while True:
            try:
                return op()
            except ValueError:
                continue
    """
    assert ids(src) == ["RPR006"]


def test_rpr006_flags_for_loop_retry():
    src = """
    def fetch(op):
        for _ in range(3):
            try:
                return op()
            except ValueError:
                continue
    """
    assert ids(src) == ["RPR006"]


def test_rpr006_ignores_try_without_continue():
    src = """
    def fetch(op):
        while True:
            try:
                return op()
            except ValueError:
                return None
    """
    assert ids(src) == []


def test_rpr006_ignores_continue_outside_handler():
    src = """
    def drain(items):
        for item in items:
            if item is None:
                continue
            try:
                item.close()
            except ValueError:
                pass
    """
    assert ids(src) == []


def test_rpr006_ignores_continue_of_nested_loop():
    src = """
    def fetch(ops):
        while True:
            try:
                return ops.pop()
            except ValueError:
                for op in ops:
                    if op is None:
                        continue
                return None
    """
    # The continue belongs to the inner for, not the retry while.
    assert ids(src) == []


def test_rpr006_noqa_suppresses():
    src = """
    import time

    def wait():
        time.sleep(1)  # repro: noqa[RPR006] -- host warm-up, not sim
    """
    assert ids(src) == []


# -- RPR007 (b): the snapshot-coverage audit --------------------------------


def test_rpr007_sees_tuple_list_and_starred_targets():
    # Kernel's registry entry knows "running"; the other three are new.
    src = """
    class Kernel:
        def wire(self, parts):
            (self.running, [self._new_a, *self._new_b]) = parts
            self._new_c, = parts
    """
    findings = lint_source(textwrap.dedent(src), "repro/kernel/kernel.py")
    assert [f.rule_id for f in findings] == ["RPR007"] * 3
    assert sorted(f.message.split()[1] for f in findings) == [
        "self._new_a", "self._new_b", "self._new_c"]


def _stale_coverage_names(coverage):
    """(class path, name) for each registry name its class never holds:
    no ``self.<name> = ...`` in the class or a base, no slot of it."""
    stale = []
    for path, entry in sorted(coverage.items()):
        module, _, name = path.rpartition(".")
        cls = getattr(importlib.import_module(module), name)
        held = set()
        for klass in cls.__mro__:
            if klass.__module__.split(".")[0] != "repro":
                continue
            tree = ast.parse(textwrap.dedent(inspect.getsource(klass)))
            held |= set(_self_assignments(tree.body[0]))
            slots = klass.__dict__.get("__slots__", ())
            held |= {slots} if isinstance(slots, str) else set(slots)
        stale.extend((path, attr) for attr in sorted(
            (set(entry["covered"]) | set(entry["transient"])) - held))
    return stale


def test_snapshot_coverage_names_only_live_attributes():
    assert _stale_coverage_names(SNAPSHOT_COVERAGE) == []


def test_snapshot_coverage_audit_catches_a_stale_name():
    # Engine once declared a trace_hook that nothing assigned.
    engine = "repro.sim.engine.Engine"
    planted = dict(SNAPSHOT_COVERAGE)
    planted[engine] = {
        "covered": planted[engine]["covered"],
        "transient": {*planted[engine]["transient"], "trace_hook"}}
    assert _stale_coverage_names(planted) == [(engine, "trace_hook")]


# -- RPR008: print in library zones -----------------------------------------


def test_rpr008_flags_print_in_kernel_zone():
    src = """
    def report(thread):
        print(thread.name)
    """
    assert ids(src) == ["RPR008"]


def test_rpr008_allows_print_in_presentation_zones():
    src = "print('table')\n"
    assert ids(src, EXPERIMENT_PATH) == []
    assert ids(src, "repro/cli/fixture.py") == []


def test_rpr008_allows_print_in_main_entry_points():
    assert ids("print('usage')\n", "repro/kernel/__main__.py") == []


def test_rpr008_applies_outside_known_zones_of_repro():
    # zone "" (repro top level) is still library code.
    assert ids("print('x')\n", "repro/errors.py") == ["RPR008"]


def test_rpr008_ignores_shadowed_print():
    src = """
    def report(printer):
        printer.print("x")
    """
    assert ids(src) == []


def test_rpr008_noqa_suppresses():
    src = "print('dbg')  # repro: noqa[RPR008] -- temporary probe\n"
    assert ids(src) == []


# -- RPR011: undeclared module-level mutable state --------------------------


def test_rpr011_flags_bare_module_dict():
    assert ids("REGISTRY = {}\n") == ["RPR011"]


def test_rpr011_flags_container_constructors():
    src = """
    from collections import defaultdict
    WAITERS = defaultdict(list)
    QUEUE = list()
    """
    assert ids(src) == ["RPR011", "RPR011"]


def test_rpr011_shard_marker_with_reason_declares_ownership():
    src = "TABLE = {}  # shard: shard-local -- rule table, frozen at import\n"
    assert ids(src) == []


def test_rpr011_marker_without_reason_does_not_count():
    src = "TABLE = {}  # shard: barrier-shared\n"
    findings = lint_source(src, KERNEL_PATH)
    assert [f.rule_id for f in findings] == ["RPR011"]
    assert "without a justification" in findings[0].message


# The three module-state hazards the retired whole-program analyzer
# carried as fixture trees (SH001 escaped alias, SH002 shared registry,
# SH003 global counter), now plain RPR011 inputs.
REHOMED_HAZARDS = {
    "escaped_alias": """
        _current_engine = None

        def install(engine):
            global _current_engine
            _current_engine = engine  # the alias every core would share
        """,
    "shared_registry": """
        HANDLERS = {}

        def register(name, handler):
            HANDLERS[name] = handler
        """,
    "global_counter": """
        _next_id = 0

        def alloc():
            global _next_id
            _next_id += 1
            return _next_id
        """,
}


@pytest.mark.parametrize("hazard", sorted(REHOMED_HAZARDS))
def test_rpr011_flags_rehomed_hazard(hazard):
    assert ids(REHOMED_HAZARDS[hazard]) == ["RPR011"]


def test_rpr011_global_statement_names_the_undeclared_state():
    src = """
    _a = None  # shard: barrier-shared -- injection point, set once
    _b = None

    def install(a, b):
        global _a, _b
        _a, _b = a, b
    """
    findings = lint_source(textwrap.dedent(src), KERNEL_PATH)
    assert [(f.rule_id, f.line) for f in findings] == [("RPR011", 6)]
    assert "'_b'" in findings[0].message and "'_a'" not in findings[0].message


def test_rpr011_global_of_declared_state_is_clean():
    src = """
    _router = None  # shard: barrier-shared -- assigned between epochs only

    def install(router):
        global _router
        _router = router
    """
    assert ids(src) == []


def test_rpr011_global_marker_without_reason_does_not_count():
    src = """
    _router = None  # shard: barrier-shared

    def install(router):
        global _router
        _router = router
    """
    assert ids(src) == ["RPR011"]


def test_rpr011_dunder_and_scalars_are_exempt():
    src = """
    __all__ = ["f"]
    _enabled = False
    LIMIT = 10
    """
    assert ids(src) == []


def test_rpr011_exempt_outside_deterministic_zones():
    assert ids("CACHE = {}\n", "repro/metrics/fixture.py") == []


MODULE_LEVEL_BLOCKS = {
    "top_level": "_reg = {}\n",
    "if": "import sys\nif sys.version_info >= (3, 11):\n    _reg = {}\n",
    "else": "if FAST:\n    pass\nelse:\n    _reg = []\n",
    "try_except": ("try:\n    import fastpath\nexcept ImportError:\n"
                   "    _reg = dict()\n"),
    "with": "with open_table() as table:\n    _reg = set()\n",
    "for": "for name in NAMES:\n    _reg = {name: 0}\n",
}


@pytest.mark.parametrize("shape", sorted(MODULE_LEVEL_BLOCKS))
def test_rpr011_flags_state_inside_module_level_blocks(shape):
    findings = lint_source(MODULE_LEVEL_BLOCKS[shape], KERNEL_PATH)
    assert [f.rule_id for f in findings] == ["RPR011"]
    assert "'_reg'" in findings[0].message


def test_rpr011_blocks_inside_functions_and_classes_are_exempt():
    src = """
    if DEBUG:
        def build():
            if True:
                table = {}
            return table

        class Holder:
            cache = {}
    """
    assert ids(src) == []


def test_rpr011_function_locals_are_exempt():
    src = """
    def build():
        table = {}
        return table
    """
    assert ids(src) == []


# -- RPR012: host-concurrency imports ---------------------------------------


def test_rpr012_flags_multiprocessing_import():
    findings = lint_source("import multiprocessing\n", KERNEL_PATH)
    assert [f.rule_id for f in findings] == ["RPR012"]
    assert "multiprocessing" in findings[0].message


def test_rpr012_flags_threading_and_thread():
    assert ids("import threading\n") == ["RPR012"]
    assert ids("import _thread\n", SCHED_PATH) == ["RPR012"]


def test_rpr012_flags_concurrent_futures_from_import():
    src = "from concurrent.futures import ThreadPoolExecutor\n"
    assert ids(src, CORE_PATH) == ["RPR012"]


def test_rpr012_flags_aliased_import():
    assert ids("import multiprocessing as mp\n",
               "repro/sim/fixture.py") == ["RPR012"]


def test_rpr012_shard_zone_is_exempt():
    # repro.shard owns the worker processes: its epoch barriers
    # re-serialize cross-core effects, so the import is sanctioned.
    src = "import multiprocessing\nimport threading\n"
    assert ids(src, "repro/shard/fixture.py") == []


def test_rpr012_exempt_outside_deterministic_zones():
    assert ids("import threading\n", EXPERIMENT_PATH) == []


def test_rpr012_noqa_requires_justification():
    flagged = "import threading  # repro: noqa[RPR012]\n"
    assert ids(flagged) == ["RPR000"]
    justified = ("import threading  "
                 "# repro: noqa[RPR012] -- wait-free probe, test-only\n")
    assert ids(justified) == []


# -- suppression syntax -----------------------------------------------------


def test_noqa_with_wrong_id_does_not_suppress():
    src = "import random  # repro: noqa[RPR002] -- aimed at the wrong rule\n"
    # The finding survives, and the noqa that silenced nothing is stale.
    assert ids(src) == ["RPR000", "RPR001"]


def test_noqa_that_silences_nothing_is_rpr000():
    findings = lint_source("x = 1  # repro: noqa[RPR001] -- because\n",
                           KERNEL_PATH)
    assert [f.rule_id for f in findings] == ["RPR000"]
    assert "silences no finding" in findings[0].message
    assert ids("x = 1  # repro: noqa -- because\n") == ["RPR000"]
    # Out of the rule's zone there is nothing to silence either.
    stamp = "import time\nt = time.time()  # repro: noqa[RPR002] -- why\n"
    assert ids(stamp, EXPERIMENT_PATH) == ["RPR000"]


def test_noqa_naming_an_unknown_rule_is_rpr000():
    src = "import random  # repro: noqa[RPR001,RPR009] -- retired rule\n"
    findings = lint_source(src, KERNEL_PATH)
    # RPR001 is silenced; the retired ID is reported, not ignored.
    assert [f.rule_id for f in findings] == ["RPR000"]
    assert "unknown rule(s) RPR009" in findings[0].message


def test_bare_noqa_suppresses_every_rule_on_the_line():
    src = "import random  # repro: noqa -- fixture exercises stdlib RNG\n"
    assert ids(src) == []


def test_noqa_without_justification_is_rpr000():
    src = "import random  # repro: noqa[RPR001]\n"
    # The RPR001 finding is suppressed, but the naked suppression is
    # itself a finding -- and that one cannot be noqa'd away.
    assert ids(src) == ["RPR000"]


def test_bare_noqa_without_justification_cannot_self_suppress():
    src = "import random  # repro: noqa\n"
    assert ids(src) == ["RPR000"]


def test_noqa_in_docstring_is_not_a_suppression():
    src = '"""mentions # repro: noqa[RPR001] in prose"""\nimport random\n'
    assert ids(src) == ["RPR001"]
    # Nor is noqa text in a string on the finding's own line.
    assert ids('import random; NOTE = "# repro: noqa -- no"\n') == ["RPR001"]


def test_noqa_accepts_id_lists():
    src = ("def f(amount, bad=[]):  "
           "# repro: noqa[RPR004, RPR005] -- fixture\n"
           "    return float(amount)\n")
    findings = lint_source(src, CORE_PATH)
    # Only the float() cast survives: it sits on line 2, away from the noqa.
    assert [f.rule_id for f in findings] == ["RPR004"]


# -- suppression inventory --------------------------------------------------


def test_iter_suppressions_reports_codes_and_justification():
    from repro.analysis.lint import iter_suppressions

    src = ("import random  # repro: noqa[RPR001] -- fixture entropy\n"
           "x = 1\n"
           "import secrets  # repro: noqa\n")
    entries = iter_suppressions(src, KERNEL_PATH)
    assert [(e.line, e.codes, e.justification) for e in entries] == [
        (1, ("RPR001",), "fixture entropy"),
        (3, (), ""),
    ]
    assert "NO JUSTIFICATION" in entries[1].format()


def test_iter_suppressions_skips_strings_and_docstrings():
    from repro.analysis.lint import iter_suppressions

    src = ('"""docs say use # repro: noqa[RPR001] -- like so"""\n'
           'MSG = "# repro: noqa"\n')
    assert iter_suppressions(src, KERNEL_PATH) == []


def test_collect_suppressions_walks_directories(tmp_path):
    from repro.analysis.lint import collect_suppressions

    pkg = tmp_path / "repro" / "kernel"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "import random  # repro: noqa[RPR001] -- why not\n")
    (pkg / "b.py").write_text("x = 1\n")
    entries = collect_suppressions([tmp_path])
    assert len(entries) == 1
    assert entries[0].codes == ("RPR001",)


# -- output & acceptance ----------------------------------------------------


def test_finding_format_names_location_and_rule():
    finding = lint_source("import random\n", KERNEL_PATH)[0]
    text = finding.format()
    assert KERNEL_PATH in text
    assert ":1:" in text
    assert "RPR001" in text


def test_every_rule_has_id_and_fixit():
    assert set(RULES) == {"RPR000", "RPR001", "RPR002", "RPR003",
                          "RPR004", "RPR005", "RPR006", "RPR007",
                          "RPR008", "RPR011", "RPR012"}
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id and rule.fixit


def test_rpr000_reports_syntax_error_as_finding():
    findings = lint_source("def broken(:\n", KERNEL_PATH)
    assert [f.rule_id for f in findings] == ["RPR000"]
    assert "syntax error" in findings[0].message


def test_rpr000_reports_unreadable_file(tmp_path):
    from repro.analysis.lint import lint_file

    findings = lint_file(tmp_path / "missing.py")
    assert [f.rule_id for f in findings] == ["RPR000"]
    assert "cannot read file" in findings[0].message


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "repro" / "kernel"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text("import random\n")
    (pkg / "clean.py").write_text("x = 1\n")
    findings = lint_paths([tmp_path])
    assert [f.rule_id for f in findings] == ["RPR001"]
