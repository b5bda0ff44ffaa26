"""The canonical encoder: its pieces against the stdlib reference, and
its refusals on both of its paths."""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import statetree
from repro.checkpoint.statetree import (canonical_json, canonical_pieces,
                                        tree_checksum)
from repro.errors import CheckpointError

SLICE = statetree._SLICE

#: Around every slice boundary, and several slices with a ragged tail.
LENGTHS = [SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 7]


class Int(int):
    """An int subclass whose own repr the encoder must not use."""

    def __repr__(self):
        return "Int()"


class Float(float):
    def __repr__(self):
        return "Float()"


def reference(tree):
    """``json.dumps`` with the canonical settings, or what it raised."""
    try:
        return json.dumps(tree, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        return exc


def streamed(tree):
    try:
        return "".join(canonical_pieces(tree))
    except CheckpointError as exc:
        return exc


def assert_parity(tree):
    want, got = reference(tree), streamed(tree)
    if isinstance(want, str):
        assert got == want
        assert canonical_json(tree) == want
        assert tree_checksum(tree) == \
            hashlib.sha256(want.encode("utf-8")).hexdigest()
    else:
        # Refused on both paths, for the same reason.
        assert isinstance(got, CheckpointError), got
        assert str(got).endswith(str(want))
        with pytest.raises(CheckpointError):
            tree_checksum(tree)


leaves = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70).map(Int),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(Float),
    st.sampled_from([-0.0, 10 ** 30, 5e-324, 1e308, -(2 ** 64)]),
    st.text(max_size=8),
    st.sampled_from(["é", "☃ snow", "\U0001f600", "\x00\n\"\\"]),
)

numeric_keys = st.one_of(
    st.integers(), st.integers(min_value=-99, max_value=99).map(Int),
    st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 10 ** 30, 5e-324]))

any_keys = st.one_of(st.text(max_size=6), numeric_keys, st.none())

small = st.one_of(leaves, st.dictionaries(st.text(max_size=4), leaves,
                                          max_size=3),
                  st.lists(leaves, max_size=3).map(tuple))


@st.composite
def long_lists(draw):
    """A list of exactly one of LENGTHS items (cycled from a few drawn
    ones, so its size costs nothing to generate), maybe a tuple."""
    items = draw(st.lists(small, min_size=1, max_size=3))
    length = draw(st.sampled_from(LENGTHS))
    made = (items * length)[:length]
    return tuple(made) if draw(st.booleans()) else made


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(numeric_keys, children, max_size=3),
        # Keys of mixed types: refused, unless they happen to sort.
        st.dictionaries(any_keys, children, max_size=3),
        # A dict with one big value beside small ones.
        st.builds(lambda rest, key, big: {**rest, key: big},
                  st.dictionaries(st.text(max_size=4), children,
                                  max_size=3),
                  st.text(max_size=4), long_lists()),
    )


trees = st.recursive(st.one_of(leaves, long_lists()), containers,
                     max_leaves=12)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(trees)
def test_pieces_concatenate_to_the_stdlib_encoding(tree):
    assert_parity(tree)


poison = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                          object(), b"bytes", {1, 2}])
poison_keys = st.sampled_from([float("nan"), float("inf"), (1, 2),
                               frozenset()])


@st.composite
def refused_trees(draw):
    """A tree with one refusal planted somewhere: a bad value, a bad
    key, or the tree itself inside one of its own containers."""
    tree = draw(containers(trees))
    mutable = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (dict, list)) and \
                all(node is not seen for seen in mutable):
            mutable.append(node)
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node[:8])
    if not mutable:
        return [tree, draw(poison)]
    target = draw(st.sampled_from(mutable))
    kind = draw(st.sampled_from(["value", "key", "cycle"]))
    if kind == "key":
        if isinstance(target, dict):
            target[draw(poison_keys)] = 0
        else:
            target.append({draw(poison_keys): 0})
        return tree
    planted = tree if kind == "cycle" else draw(poison)
    if isinstance(target, dict):
        target[next(iter(target), "~")] = planted
    else:
        target.append(planted)
    return tree


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(refused_trees())
def test_refusals_match_the_stdlib_encoding(tree):
    assert_parity(tree)


@pytest.mark.parametrize("tree", [
    {"x": float("nan")},
    {"a": {"b": [0.0] * (SLICE + 1) + [float("-inf")]}},
    {"a": {"b": object()}},
    {"a": {1: 0, "b": 1}},
    {"a": {"b": 1}, 2: 3},
    {(1,): {"b": 1}},
    {float("nan"): {"b": 1}},
])
def test_each_refusal_is_a_checkpoint_error_on_both_paths(tree):
    assert isinstance(reference(tree), (TypeError, ValueError))
    assert_parity(tree)


def test_a_cycle_through_walked_containers_is_refused_not_looped():
    tree = {"a": {"b": [1] * (SLICE + 1)}}
    tree["a"]["c"] = tree
    assert_parity(tree)
    with pytest.raises(CheckpointError, match="Circular reference"):
        tree_checksum(tree)
    spine = [0] * (SLICE + 1)
    spine.append(spine)
    assert_parity(spine)


@pytest.mark.parametrize("make", [
    lambda inner: [inner],
    lambda inner: {"a": inner},
], ids=["list", "dict"])
def test_a_tree_nested_too_deeply_is_refused_by_name(make):
    tree = 0
    for _ in range(100_000):
        tree = make(tree)
    for encode in (tree_checksum, canonical_json):
        with pytest.raises(CheckpointError, match="nested too deeply"):
            encode(tree)
