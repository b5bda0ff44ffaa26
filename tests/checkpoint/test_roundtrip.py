"""Round-trip property tests: save -> restore -> verify, per subsystem.

Restore re-executes the checkpoint's recipe and diffs the rebuilt state
tree against the saved one, so a clean ``restore()`` *is* the round-trip
property: every subsystem the recipe touches (PRNG streams, event queue,
run queues, tickets, compensation, IPC, memory, disks, sharded cores)
reconstructed bit-for-bit.
"""

import json
import math

import pytest

from repro.checkpoint import (
    build_recipe,
    capture_payload,
    capture_tree,
    diff_trees,
    restore,
    save,
)
from repro.checkpoint.statetree import build_payload, write_checkpoint_file
from repro.errors import CheckpointError, DivergenceError


@pytest.mark.parametrize("seed", [1, 7, 42])
@pytest.mark.parametrize("use_tree", [False, True])
def test_lottery_mix_round_trip(tmp_path, seed, use_tree):
    handle = build_recipe("lottery-mix", {"seed": seed, "use_tree": use_tree})
    handle.advance(3_000.0)
    path = str(tmp_path / "mix.ckpt")
    payload = save(handle, path)
    restored, loaded = restore(path)
    assert loaded == payload
    assert restored.now == handle.now
    assert diff_trees(capture_tree(handle), capture_tree(restored)) == []


@pytest.mark.parametrize("seed", [2718, 9])
def test_chaos_cluster_round_trip(tmp_path, seed):
    handle = build_recipe("chaos-fairness", {"seed": seed})
    # Past the first crash (t=30s): dead core, its casualty, the
    # evacuations and the rebalancer's moves all inside the captured
    # tree.
    handle.advance(35_000.0)
    path = str(tmp_path / "chaos.ckpt")
    save(handle, path)
    restored, _ = restore(path)
    assert diff_trees(capture_tree(handle), capture_tree(restored)) == []
    core1 = restored.components["sharded"].snapshot_state()["cores"][1]
    assert core1["shard"]["crashed"] and core1["shard"]["casualties"] == 1


def test_checkpoint_at_every_quantum(tmp_path):
    """Crash-at-every-quantum sweep: any boundary is a valid checkpoint."""
    quantum = 100.0
    handle = build_recipe("lottery-mix", {"seed": 5, "quantum": quantum})
    path = str(tmp_path / "q.ckpt")
    for boundary in range(1, 16):
        handle.advance(boundary * quantum)
        save(handle, path)
        # Drop the live system; continue from the file alone.
        handle, _ = restore(path)
        assert handle.now == boundary * quantum


def test_restore_continues_identically(tmp_path):
    reference = build_recipe("lottery-mix", {"seed": 11})
    reference.advance(8_000.0)
    expected = capture_tree(reference)

    interrupted = build_recipe("lottery-mix", {"seed": 11})
    interrupted.advance(2_500.0)
    path = str(tmp_path / "mid.ckpt")
    save(interrupted, path)
    restored, _ = restore(path)
    restored.advance(8_000.0)
    assert diff_trees(expected, capture_tree(restored)) == []


def test_tampered_state_with_valid_checksum_raises_divergence(tmp_path):
    """A re-checksummed edit passes integrity but fails verification."""
    handle = build_recipe("lottery-mix", {"seed": 2})
    handle.advance(1_000.0)
    payload = capture_payload(handle)
    state = json.loads(json.dumps(payload["state"]))
    state["kernel"]["dispatch_count"] += 1
    forged = build_payload(payload["recipe"], payload["args"],
                           payload["time_ms"], state)
    path = str(tmp_path / "forged.ckpt")
    write_checkpoint_file(path, forged)
    with pytest.raises(DivergenceError, match="dispatch_count"):
        restore(path)


@pytest.mark.parametrize("recipe, args, time_ms, named", [
    ("lottery-mix", [1], 0.0, "field 'args' must be an object"),
    ("lottery-mix", {"sed": 1}, 0.0, r"args \['sed'\] are not parameters"),
    ("lottery-mix", {}, "100", "field 'time_ms' must be a finite number"),
    (["lottery-mix"], {}, 0.0, "field 'recipe' must be a string"),
    ("lottery-mix", {"seed": "x"}, 0.0,
     "'lottery-mix' arg 'seed' must be int"),
    ("lottery-mix", {"seed": 1.5}, 0.0,
     "'lottery-mix' arg 'seed' must be int"),
    ("lottery-mix", {"seed": True}, 0.0,
     "'lottery-mix' arg 'seed' must be int"),
    ("lottery-mix", {"quantum": "5"}, 0.0,
     "'lottery-mix' arg 'quantum' must be float"),
    ("lottery-mix", {"use_tree": "yes"}, 0.0,
     "'lottery-mix' arg 'use_tree' must be bool"),
    ("lottery-mix", {"fundings": [400.0, "200"]}, 0.0,
     r"'lottery-mix' arg 'fundings' must be Optional\[List\[float\]\]"),
    ("shard-mix", {"seed": "x"}, 0.0, "'shard-mix' arg 'seed' must be int"),
    ("shard-mix", {"backend": None}, 0.0,
     "'shard-mix' arg 'backend' must be str"),
    ("chaos-fairness", {"cores": 2.0}, 0.0,
     "'chaos-fairness' arg 'cores' must be int"),
])
def test_valid_checksum_with_malformed_field_is_refused_by_name(
        tmp_path, recipe, args, time_ms, named):
    """A re-checksummed file passes integrity; its fields still have to
    be what restore acts on, or the error names the file and field."""
    path = str(tmp_path / "forged.ckpt")
    write_checkpoint_file(path, build_payload(recipe, args, time_ms, {}))
    with pytest.raises(CheckpointError, match=named) as caught:
        restore(path)
    assert repr(path) in str(caught.value)


def test_recipe_args_are_checked_against_their_annotated_types():
    """An ``int`` where the recipe takes a ``float`` is one (JSON writes
    ``100.0`` as ``100`` in other tools); ``None`` is an ``Optional``;
    an infinite ``float`` is not a time or an amount."""
    handle = build_recipe("lottery-mix", {"seed": 3, "quantum": 100,
                                          "fundings": [400, 2.5],
                                          "use_tree": True})
    assert handle.args["fundings"] == [400.0, 2.5]
    assert build_recipe("lottery-mix", {"fundings": None}).args[
        "fundings"] == [400.0, 200.0, 100.0]
    with pytest.raises(CheckpointError, match="'quantum' must be float: inf"):
        build_recipe("lottery-mix", {"quantum": math.inf})


def test_unknown_recipe_is_rejected(tmp_path):
    payload = build_payload("no-such-recipe", {}, 0.0, {})
    path = str(tmp_path / "bad.ckpt")
    write_checkpoint_file(path, payload)
    with pytest.raises(CheckpointError, match="unknown recipe"):
        restore(path)


def test_handle_refuses_to_advance_backwards():
    handle = build_recipe("lottery-mix", {"seed": 1})
    handle.advance(500.0)
    with pytest.raises(CheckpointError, match="backwards"):
        handle.advance(100.0)


def test_capture_is_json_serializable_and_stable():
    handle = build_recipe("chaos-fairness", {"seed": 3})
    handle.advance(5_000.0)
    tree = capture_tree(handle)
    assert json.loads(json.dumps(tree)) == tree
    assert diff_trees(tree, capture_tree(handle)) == []  # capture is pure
