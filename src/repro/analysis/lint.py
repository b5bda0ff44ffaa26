"""Determinism lint: repo-specific AST rules for the reproduction.

Every claim this reproduction makes -- bit-for-bit Park-Miller streams,
exact proportional-share ratios, ticket conservation across currencies
-- depends on the simulation staying deterministic.  This module walks
Python sources under ``src/repro`` and flags constructs that threaten
that property.  :data:`RULES` is the rule list (one comment per rule
says what it flags); ``docs/ANALYSIS.md`` gives each rule's zones and
why it is kept.

A finding on a line can be suppressed with an inline comment::

    import random  # repro: noqa[RPR001] -- justification goes here

Several IDs may be listed (``# repro: noqa[RPR001,RPR003]``); a bare
``# repro: noqa`` suppresses every rule on the line.  Suppressions
MUST carry a justification after the bracket, name only known rules,
and silence a finding on their line: any other noqa is itself reported
as RPR000 (and that report cannot be suppressed).
``python -m repro.analysis lint --list-suppressions`` inventories every
active suppression with its file:line and justification.

The linter is purely syntactic (no type inference): rules are scoped to
the subpackages ("zones") where the hazard matters, and RPR003 exempts
iteration feeding order-insensitive reductions (``sum``, ``min``,
``max``, ``any``, ``all``, ``sorted``, ``set``, ``frozenset``, ``len``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = ["Rule", "RULES", "Finding", "Suppression", "lint_source",
           "lint_file", "lint_paths", "iter_suppressions",
           "collect_suppressions", "zone_of", "module_of"]


@dataclass(frozen=True)
class Rule:
    """A lint rule: identifier and fix-it guidance."""

    id: str
    fixit: str
    #: Subpackages of ``repro`` the rule applies to; None means everywhere.
    zones: Optional[Tuple[str, ...]]


_DETERMINISTIC_ZONES = ("sim", "kernel", "schedulers", "core")

RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        # An unreadable or unparseable file; a bad noqa comment.
        Rule(
            "RPR000",
            "fix the syntax error (or path) so the file can be linted; "
            "for suppressions, append ' -- why' after the noqa bracket, "
            "name only known rule IDs, and delete a noqa that silences "
            "nothing",
            None,
        ),
        # Importing stdlib ``random``/``secrets``.
        Rule(
            "RPR001",
            "draw from repro.core.prng.ParkMillerPRNG (seeded) so streams "
            "replay bit-for-bit",
            None,
        ),
        # Wall-clock calls (``time.time``, ``datetime.now``, ...).
        Rule(
            "RPR002",
            "use the simulated clock (engine.now / kernel.now); wall time "
            "differs across runs and hosts",
            _DETERMINISTIC_ZONES,
        ),
        # Iterating a set, a ``set()``/``frozenset()`` result or a dict
        # view outside an order-insensitive reduction.
        Rule(
            "RPR003",
            "iterate a list/deque or wrap in sorted(); set/dict-view order "
            "may vary across runs and interpreters",
            _DETERMINISTIC_ZONES,
        ),
        # ``float()`` casts and ``==``/``!=`` on ticket quantities.
        Rule(
            "RPR004",
            "keep ticket amounts integral (or tolerance-compare); exact "
            "float equality and lossy casts skew proportional shares",
            ("kernel", "schedulers", "core"),
        ),
        # Mutable default arguments.
        Rule(
            "RPR005",
            "default to None and create the container in the body; shared "
            "defaults leak state between simulations",
            _DETERMINISTIC_ZONES,
        ),
        # ``time.sleep``; a loop whose ``except`` handler ``continue``s.
        Rule(
            "RPR006",
            "schedule the retry on the engine (engine.call_after): "
            "virtual-time backoff replays deterministically, wall-clock "
            "sleeps and unbounded except-continue loops do not",
            None,
        ),
        # (a) ``pickle``/``marshal``/``shelve``/``dill`` imports and
        # ``copy.deepcopy``/``copy.copy`` calls; (b) a ``self.x`` on a class
        # in ``SNAPSHOT_COVERAGE`` that is neither covered nor transient.
        Rule(
            "RPR007",
            "checkpoint through snapshot_state() and repro.checkpoint: "
            "pickled/deep-copied kernel objects drag generator frames and "
            "identity-keyed state along and cannot be verified or "
            "versioned",
            None,
        ),
        # Bare ``print()`` outside ``cli``, ``experiments`` and
        # ``__main__`` modules.
        Rule(
            "RPR008",
            "return strings (cli commands), use an ExperimentResult "
            "report, or record through repro.telemetry; stdout writes "
            "from library code are invisible to tools and untestable",
            None,
        ),
        # A module-scope mutable container, or a name a function
        # rebinds through ``global``, without a ``# shard:`` marker.
        Rule(
            "RPR011",
            "add '# shard: shard-local|barrier-shared -- reason' on the "
            "module-level assignment line (or keep the state on an "
            "object a core owns); cores of a sharded run share or fork "
            "undeclared module state without anyone deciding which",
            _DETERMINISTIC_ZONES,
        ),
        # ``multiprocessing``/``concurrent``/``threading``/``_thread``
        # imports (``repro.shard`` is the one home for workers).
        Rule(
            "RPR012",
            "OS-scheduled threads/processes interleave "
            "nondeterministically; drive parallelism through "
            "repro.shard (ShardedEngine's mp backend), whose epoch "
            "barriers re-serialize every cross-core effect into a "
            "canonical order",
            _DETERMINISTIC_ZONES,
        ),
    )
}

#: Imports of these modules trigger RPR007 (a): object serialization
#: that would bypass the typed snapshot seams.
_FORBIDDEN_SERIALIZERS = frozenset({"pickle", "cPickle", "dill", "marshal",
                                    "shelve"})

#: Canonical dotted names whose *call* constitutes a wall-clock read.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Imports of these top-level modules trigger RPR001.
_FORBIDDEN_RNG_MODULES = frozenset({"random", "secrets"})

#: Imports of these top-level modules trigger RPR012: OS-scheduled
#: concurrency in a deterministic zone.  ``concurrent`` covers
#: ``concurrent.futures`` (root-module matching, like the other sets).
#: ``repro/shard/`` is exempt by zone -- it is the sanctioned owner of
#: worker processes.
_FORBIDDEN_CONCURRENCY_MODULES = frozenset(
    {"multiprocessing", "concurrent", "threading", "_thread"})

#: Calls whose result is order-insensitive, exempting inner iteration.
_ORDER_INSENSITIVE_REDUCERS = frozenset({
    "sum", "min", "max", "any", "all", "len", "sorted", "set", "frozenset",
})

#: Identifier stems that mark an expression as a ticket quantity.
_AMOUNT_STEMS = ("amount", "ticket", "funding", "bonus")

#: A noqa comment, its rule IDs and its (mandatory) justification.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[([^\]]*)\])?\s*(?:--\s*(\S.*))?")

#: Inline ownership marker for module-level state (RPR011):
#: ``# shard: shard-local -- constant rule table``.  The justification
#: after ``--`` is mandatory, same policy as noqa comments.
_MARKER_RE = re.compile(
    r"#\s*shard:\s*(shard-local|barrier-shared)\s*(?:--\s*(\S.*))?")

#: Module-scope container constructors that make a global mutable state
#: for RPR011 purposes.
_MUTABLE_CONTAINER_CALLS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "deque",
     "Counter", "bytearray"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@dataclass(frozen=True)
class Finding:
    """One lint hit, pointing at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        rule = RULES[self.rule_id]
        return (f"{self.path}:{self.line}:{self.col}: {self.rule_id} "
                f"{self.message} (fix: {rule.fixit})")


def _snapshot_coverage() -> Dict[str, Dict[str, Iterable[str]]]:
    """The checkpoint package's coverage registry (empty if unavailable).

    Imported lazily so the linter stays usable as a standalone tool on
    arbitrary files even when ``repro.checkpoint`` cannot be imported.
    """
    try:
        from repro.checkpoint.registry import SNAPSHOT_COVERAGE
    except Exception:  # pragma: no cover - standalone lint usage
        return {}
    return SNAPSHOT_COVERAGE


#: Zones exempt from RPR008: the presentation layers, where printing to
#: stdout is the whole point.
_PRINT_ZONES = frozenset({"cli", "experiments"})


def module_of(path: Union[str, Path]) -> Optional[str]:
    """Dotted module path of a source file (None outside ``repro``).

    ``src/repro/kernel/kernel.py`` -> ``"repro.kernel.kernel"``; used to
    match class definitions against the snapshot-coverage registry.
    """
    parts = Path(path).parts
    for index, part in enumerate(parts):
        if part == "repro" and index + 1 < len(parts):
            tail = list(parts[index:])
            if tail[-1].endswith(".py"):
                tail[-1] = tail[-1][:-3]
            return ".".join(tail)
    return None


def _self_assignments(node: ast.ClassDef) -> Dict[str, ast.AST]:
    """Instance attributes a class assigns (``self.x = ...``), by name."""
    assigned: Dict[str, ast.AST] = {}
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(method):
            targets: List[ast.expr] = []
            if isinstance(sub, ast.Assign):
                targets = list(sub.targets)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                targets = [sub.target]
            while targets:
                target = targets.pop(0)
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets[:0] = target.elts
                elif isinstance(target, ast.Starred):
                    targets.insert(0, target.value)
                elif isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    assigned.setdefault(target.attr, target)
    return assigned


def zone_of(path: Union[str, Path]) -> Optional[str]:
    """The ``repro`` subpackage a path belongs to (None if outside).

    ``src/repro/kernel/kernel.py`` -> ``"kernel"``; a module directly
    under ``repro/`` maps to ``""`` (the package root).  Works on any
    path containing a ``repro`` directory segment, so test fixtures can
    fabricate paths like ``repro/schedulers/fixture.py``.
    """
    parts = Path(path).parts
    for index, part in enumerate(parts[:-1]):
        if part == "repro":
            nxt = parts[index + 1]
            return "" if nxt.endswith(".py") else nxt
    return None


def _mentions_amount(node: ast.AST) -> Optional[str]:
    """The first identifier in ``node`` naming a ticket quantity.

    A ``Name`` that only serves as the object of an attribute access
    (the ``ticket`` in ``ticket.tag``) does not itself denote a
    quantity and is skipped; the accessed attribute still counts.
    """
    attribute_bases = {
        id(sub.value) for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
    }
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if id(sub) in attribute_bases:
                continue
            ident = sub.id
        elif isinstance(sub, ast.Attribute):
            ident = sub.attr
        else:
            continue
        lowered = ident.lower()
        if any(stem in lowered for stem in _AMOUNT_STEMS):
            return ident
    return None


def _continues_loop(statements: Sequence[ast.stmt]) -> bool:
    """True when the statements ``continue`` the *enclosing* loop.

    ``continue`` inside a nested loop (or function) retries that inner
    construct, not the loop under inspection, so those subtrees are not
    descended into.
    """
    for statement in statements:
        if isinstance(statement, ast.Continue):
            return True
        if isinstance(statement, (ast.For, ast.While, ast.AsyncFor,
                                  ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.stmt) and _continues_loop([child]):
                return True
    return False


class _Visitor(ast.NodeVisitor):
    """Single-pass rule engine over one module's AST."""

    def __init__(self, path: str, zone: Optional[str]) -> None:
        self.path = path
        self.zone = zone
        self.findings: List[Finding] = []
        #: local alias -> imported module ("t" -> "time").
        self._module_aliases: Dict[str, str] = {}
        #: local name -> fully qualified origin ("datetime" ->
        #: "datetime.datetime" after ``from datetime import datetime``).
        self._name_origins: Dict[str, str] = {}
        #: id() of comprehension nodes feeding order-insensitive reducers.
        self._exempt_comprehensions: set = set()
        #: Loop nesting depth (for the RPR006 retry-loop pattern).
        self._loop_depth = 0

    # -- plumbing ----------------------------------------------------------

    def _applies(self, rule_id: str) -> bool:
        zones = RULES[rule_id].zones
        return zones is None or (self.zone is not None and self.zone in zones)

    def _report(self, rule_id: str, node: ast.AST, message: str) -> None:
        if self._applies(rule_id):
            self.findings.append(Finding(
                self.path, getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0), rule_id, message,
            ))

    def _qualified(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of an expression, through import aliases."""
        if isinstance(node, ast.Name):
            if node.id in self._name_origins:
                return self._name_origins[node.id]
            if node.id in self._module_aliases:
                return self._module_aliases[node.id]
            return node.id
        if isinstance(node, ast.Attribute):
            base = self._qualified(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    # -- RPR001: nondeterministic RNG --------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            self._module_aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name
            if root in _FORBIDDEN_RNG_MODULES:
                self._report(
                    "RPR001", node,
                    f"import of nondeterministic module {alias.name!r}",
                )
            if root in _FORBIDDEN_SERIALIZERS:
                self._report(
                    "RPR007", node,
                    f"import of object serializer {alias.name!r}",
                )
            if root in _FORBIDDEN_CONCURRENCY_MODULES:
                self._report(
                    "RPR012", node,
                    f"import of host concurrency module {alias.name!r} "
                    f"in deterministic zone {self.zone!r}",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.level == 0:
            root = node.module.split(".")[0]
            if root in _FORBIDDEN_RNG_MODULES:
                self._report(
                    "RPR001", node,
                    f"import from nondeterministic module {node.module!r}",
                )
            if root in _FORBIDDEN_SERIALIZERS:
                self._report(
                    "RPR007", node,
                    f"import from object serializer {node.module!r}",
                )
            if root in _FORBIDDEN_CONCURRENCY_MODULES:
                self._report(
                    "RPR012", node,
                    f"import from host concurrency module "
                    f"{node.module!r} in deterministic zone {self.zone!r}",
                )
            for alias in node.names:
                self._name_origins[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        self.generic_visit(node)

    # -- RPR002 / RPR004 call sites ----------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        qualified = self._qualified(node.func)
        if qualified in _WALL_CLOCK_CALLS:
            self._report(
                "RPR002", node,
                f"wall-clock call {qualified}() in zone "
                f"{self.zone or 'repro'!r}",
            )
        if qualified == "time.sleep":
            self._report(
                "RPR006", node,
                "time.sleep() blocks on wall time instead of virtual-time "
                "backoff",
            )
        if qualified in ("copy.deepcopy", "copy.copy"):
            self._report(
                "RPR007", node,
                f"{qualified}() duplicates live objects instead of going "
                f"through snapshot_state()",
            )
        if isinstance(node.func, ast.Name) and node.func.id == "float" \
                and node.args:
            ident = _mentions_amount(node.args[0])
            if ident is not None:
                self._report(
                    "RPR004", node,
                    f"float() cast on ticket quantity {ident!r}",
                )
        if isinstance(node.func, ast.Name) and node.func.id == "print" \
                and not self._print_allowed():
            self._report(
                "RPR008", node,
                f"bare print() in library zone {self.zone or 'repro'!r}",
            )
        if qualified is not None:
            tail = qualified.rsplit(".", 1)[-1]
            if tail in _ORDER_INSENSITIVE_REDUCERS and node.args and \
                    isinstance(node.args[0], _COMPREHENSIONS):
                self._exempt_comprehensions.add(id(node.args[0]))
        self.generic_visit(node)

    def _print_allowed(self) -> bool:
        """Printing is the presentation layers' job; library code may
        not.  ``__main__`` entry points of any package count as
        presentation (they exist to be run, not imported)."""
        if self.zone is None or self.zone in _PRINT_ZONES:
            return True
        return Path(self.path).name == "__main__.py"

    # -- RPR003: unordered iteration ---------------------------------------

    def _unordered_reason(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension"
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and \
                    expr.func.id in ("set", "frozenset"):
                return f"a {expr.func.id}() result"
            if isinstance(expr.func, ast.Attribute) and \
                    expr.func.attr in ("keys", "values", "items"):
                return f"a .{expr.func.attr}() view"
        return None

    def _check_iteration(self, expr: ast.AST, node: ast.AST) -> None:
        reason = self._unordered_reason(expr)
        if reason is not None:
            self._report(
                "RPR003", node,
                f"iteration over {reason} in a scheduling decision path",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def _visit_comprehension(self, node: ast.AST) -> None:
        if id(node) not in self._exempt_comprehensions:
            for generator in node.generators:  # type: ignore[attr-defined]
                self._check_iteration(generator.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- RPR006: hand-rolled retry loops -----------------------------------

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_Try(self, node: ast.Try) -> None:
        if self._loop_depth > 0 and any(
            _continues_loop(handler.body) for handler in node.handlers
        ):
            self._report(
                "RPR006", node,
                "hand-rolled retry: loop swallows an exception and "
                "continues",
            )
        self.generic_visit(node)

    # -- RPR004: float equality on ticket quantities -----------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for side in [node.left, *node.comparators]:
                ident = _mentions_amount(side)
                if ident is not None:
                    self._report(
                        "RPR004", node,
                        f"exact ==/!= comparison on ticket quantity "
                        f"{ident!r}",
                    )
                    break
        self.generic_visit(node)

    # -- RPR007 (b): snapshot-coverage audit -------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        module = module_of(self.path)
        entry = _snapshot_coverage().get(f"{module}.{node.name}") \
            if module is not None else None
        if entry is not None:
            known = set(entry["covered"]) | set(entry["transient"])
            for name, attr_node in sorted(_self_assignments(node).items()):
                if name not in known:
                    self._report(
                        "RPR007", attr_node,
                        f"attribute self.{name} of {node.name} is neither "
                        f"captured by snapshot_state() nor declared "
                        f"transient in the snapshot-coverage registry",
                    )
        self.generic_visit(node)

    # -- RPR005: mutable default arguments ---------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            )
            if mutable:
                self._report(
                    "RPR005", default,
                    f"mutable default argument in {node.name}()",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef


# -- RPR011: undeclared module-level mutable state ---------------------------


def _is_mutable_container(value: Optional[ast.AST]) -> bool:
    # Literal containers and constructor calls only: comprehension
    # results are derived data, not the registry pattern RPR011 hunts.
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _MUTABLE_CONTAINER_CALLS
    return False


def _module_statements(body: Sequence[ast.stmt]) -> Iterable[ast.stmt]:
    """Statements that run at module scope: ``body`` and the blocks of
    its ``if``/``try``/``with``/``for``/``while``/``match`` statements,
    but not function or class bodies."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                yield from _module_statements([child])
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                yield from _module_statements(child.body)


def _check_module_state(tree: ast.Module, path: str, zone: Optional[str],
                        lines: Sequence[str]) -> List[Finding]:
    """RPR011: module state needs an inline ``# shard:`` marker with a
    justification on its assignment line -- required of every
    module-scope mutable container, and of every name a function
    rebinds through a ``global`` statement."""
    zones = RULES["RPR011"].zones
    assert zones is not None
    if zone is None or zone not in zones:
        return []
    declared: set = set()
    findings: List[Finding] = []
    for node in _module_statements(tree.body):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        marker = None
        if 1 <= node.lineno <= len(lines):
            marker = _MARKER_RE.search(lines[node.lineno - 1])
        if marker is not None and marker.group(2):
            declared.update(names)
            continue
        if not _is_mutable_container(value):
            continue
        hint = ("has a '# shard:' marker without a justification"
                if marker is not None else "has no ownership declaration")
        for name in names:
            if name.startswith("__") and name.endswith("__"):
                continue  # __all__ and friends are interface, not state
            findings.append(Finding(
                path, node.lineno, node.col_offset, "RPR011",
                f"module-level mutable container {name!r} {hint} "
                f"in deterministic zone {zone!r}"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Global):
            continue
        undeclared = [name for name in node.names if name not in declared]
        if undeclared:
            findings.append(Finding(
                path, node.lineno, node.col_offset, "RPR011",
                f"'global' statement rebinds module state "
                f"{', '.join(map(repr, undeclared))}, which has no "
                f"ownership declaration in deterministic zone {zone!r}"))
    return findings


# -- suppression hygiene and inventory ---------------------------------------


@dataclass(frozen=True)
class Suppression:
    """One active ``# repro: noqa`` comment."""

    path: str
    line: int
    codes: Tuple[str, ...]   # () means a bare noqa (suppresses all rules)
    justification: str       # "" when missing (an RPR000 finding)

    def covers(self, rule_id: str) -> bool:
        """True when this noqa silences ``rule_id`` on its line."""
        return not self.codes or rule_id in self.codes

    def format(self) -> str:
        codes = ",".join(self.codes) if self.codes else "*"
        note = self.justification or "NO JUSTIFICATION"
        return f"{self.path}:{self.line}: noqa[{codes}] -- {note}"


def iter_suppressions(source: str, path: Union[str, Path]) \
        -> List[Suppression]:
    """Every noqa comment in ``source``, via the token stream.

    Tokenizing (rather than regex-scanning raw lines) keeps noqa text
    inside docstrings and string literals from being miscounted as
    suppressions -- this module's own docstring mentions the syntax.
    """
    import io
    import tokenize

    suppressions: List[Suppression] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            codes: Tuple[str, ...] = ()
            if match.group(1) is not None:
                codes = tuple(code.strip().upper()
                              for code in match.group(1).split(",")
                              if code.strip())
            suppressions.append(Suppression(
                str(path), token.start[0], codes,
                (match.group(2) or "").strip()))
    except tokenize.TokenError:
        pass  # unparseable tail; RPR000 already reports the syntax error
    return suppressions


def _apply_suppressions(source: str, path: Union[str, Path],
                        raw: Sequence[Finding]) -> List[Finding]:
    """Drop the findings a noqa silences, then add RPR000 (b) for every
    noqa that carries no justification, names an unknown rule, or
    silences no finding on its line.

    The RPR000 reports are added *after* filtering, so a noqa cannot
    suppress the report about itself.
    """
    by_line = {s.line: s for s in iter_suppressions(source, path)}
    findings = [f for f in raw if f.line not in by_line
                or not by_line[f.line].covers(f.rule_id)]
    for suppression in by_line.values():
        unknown = [code for code in suppression.codes if code not in RULES]
        if not suppression.justification:
            problem = ("carries no justification; append ' -- why this "
                       "is safe' after the bracket")
        elif unknown:
            problem = f"names unknown rule(s) {', '.join(unknown)}"
        elif not any(f.line == suppression.line
                     and suppression.covers(f.rule_id) for f in raw):
            problem = "silences no finding on its line; delete it"
        else:
            continue
        findings.append(Finding(
            str(path), suppression.line, 0, "RPR000",
            f"suppression 'noqa[{','.join(suppression.codes)}]' {problem}"))
    return findings


def lint_source(source: str, path: Union[str, Path]) -> List[Finding]:
    """Lint one module's source text; ``path`` supplies the zone."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(str(path), exc.lineno or 1, (exc.offset or 1) - 1,
                        "RPR000", f"syntax error: {exc.msg}")]
    visitor = _Visitor(str(path), zone_of(path))
    visitor.visit(tree)
    visitor.findings.extend(_check_module_state(
        tree, str(path), zone_of(path), source.splitlines()))
    findings = _apply_suppressions(source, path, visitor.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def lint_file(path: Union[str, Path]) -> List[Finding]:
    """Lint one file on disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding(str(path), 1, 0, "RPR000",
                        f"cannot read file: {exc}")]
    return lint_source(text, path)


def _python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Files in ``paths``, directories expanded to their ``*.py``."""
    files: List[Path] = []
    for entry in map(Path, paths):
        files.extend(sorted(entry.rglob("*.py")) if entry.is_dir()
                     else [entry])
    return files


def lint_paths(paths: Iterable[Union[str, Path]]) -> List[Finding]:
    """Lint files and (recursively) directories of ``*.py`` sources."""
    return [finding for file in _python_files(paths)
            for finding in lint_file(file)]


def collect_suppressions(paths: Iterable[Union[str, Path]]) \
        -> List[Suppression]:
    """Every noqa suppression under ``paths`` (``--list-suppressions``)."""
    suppressions: List[Suppression] = []
    for file in _python_files(paths):
        try:
            text = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            pass  # lint_paths already reports unreadable files
        else:
            suppressions.extend(iter_suppressions(text, file))
    return suppressions
