"""An experiment's ``summary`` is a rendering that nothing parses.

Every number a verdict or a test reads lives in
``ExperimentResult.measures``; ``summary`` is the text the report
prints from those values.  This scan of the experiment drivers and
their tests fails on a ``summary[...]`` value -- or a name bound to
one, or the target of a loop over one -- passed to ``float(``/``int(``,
sliced by ``.split(``, or searched with ``in``.
A key test (``"verdict" in result.summary``) and an equality test
read no text back and pass.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCANNED = (ROOT / "src" / "repro" / "experiments",
           ROOT / "tests" / "experiments")


def _is_summary(node):
    return ((isinstance(node, ast.Attribute) and node.attr == "summary")
            or (isinstance(node, ast.Name) and node.id == "summary"))


def _reads_summary(node, bound):
    """``node`` is a summary value: ``<x>.summary[...]``, a name bound
    to one, or ``str(...)`` of either."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "str" and len(node.args) == 1):
        node = node.args[0]
    if isinstance(node, ast.Name):
        return node.id in bound
    return isinstance(node, ast.Subscript) and _is_summary(node.value)


def _bound_names(tree):
    """Names that hold summary text: assigned from an expression that
    reads a summary value, or the targets of a loop over a summary's
    items/values or over such a name (a list of log lines, say)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(inner, ast.Subscript) and _is_summary(inner.value)
                for inner in ast.walk(node.value)):
            bound.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)) and (
                isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Attribute)
                and node.iter.func.attr in ("items", "values")
                and _is_summary(node.iter.func.value)
                or _reads_summary(node.iter, bound)):
            bound.update(name.id for name in ast.walk(node.target)
                         if isinstance(name, ast.Name))
    return bound


def _parses(scope):
    bound = _bound_names(scope)
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("float", "int") and any(
                    _reads_summary(arg, bound) for arg in node.args):
                yield node.lineno, f"{node.func.id}("
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "split"
              and _reads_summary(node.func.value, bound)):
            yield node.lineno, ".split("
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn))
                and _reads_summary(right, bound)
                for op, right in zip(node.ops, node.comparators)):
            yield node.lineno, "in"


def summary_parses(source):
    """``(line, how)`` for each place ``source`` parses summary text.

    Names are bound per scope: the module's own statements, and each
    function with the functions nested in it."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    module = ast.Module(body=[
        node for node in tree.body if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))],
        type_ignores=[])
    return sorted({found for scope in (module, *functions)
                   for found in _parses(scope)})


def test_no_experiment_or_experiment_test_parses_a_summary():
    found = [f"{path.relative_to(ROOT)}:{line}: {how}"
             for directory in SCANNED
             for path in sorted(directory.glob("*.py"))
             for line, how in summary_parses(path.read_text())]
    assert found == []


@pytest.mark.parametrize("source, how", [
    ('ratio = float(result.summary["r"].split(":")[0])', ".split("),
    ('worst = float(result.summary["worst"])', "float("),
    ('count = int(summary["n"])', "int("),
    ('ok = "client 3" in result.summary["winner"]', "in"),
    ('text = result.summary["r"]\nvalue = float(text)', "float("),
    ('for key, value in result.summary.items():\n'
     '    assert "0.78" in str(value)', "in"),
    ('faults = result.summary["faults applied"]\n'
     'crashes = [line for line in faults if " crash " in line]', "in"),
    ('def check(result):\n'
     '    value = float(result.summary["r"].split(":")[0])', ".split("),
])
def test_the_scan_sees_each_way_of_parsing(source, how):
    assert [found for _, found in summary_parses(source)] == [how]


@pytest.mark.parametrize("source", [
    'ok = "verdict" in result.summary',
    'ok = result.summary["verdict"] == "PASS"',
    'ratio = float(result.measures["ratio"])',
    'lines = [line for line in log if " crash " in line]',
    # ``line`` holds summary text in one function, not in the other.
    ('def one(result):\n'
     '    return [line for line in result.summary["log"]]\n'
     'def other(data):\n'
     '    return [line.split() for line in data["log"]]'),
])
def test_a_key_test_or_a_measure_read_passes(source):
    assert summary_parses(source) == []
