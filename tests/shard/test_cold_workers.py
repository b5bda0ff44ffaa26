"""``mp`` workers started from a cold interpreter (``spawn``,
``forkserver``) as well as by ``fork``.

A cold worker re-imports everything it runs: a body entry resolved by
import (the ``"module:attr"`` serving bodies of ``BODY_REGISTRY``) or a
package export that resolves wrongly breaks there first, never under
``fork``, which inherits the parent's modules -- all of them, since
the backend imports what the cores run before it starts a worker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.checkpoint.statetree import tree_checksum
from repro.serving.shardplan import serving_plan
from repro.shard.engine import ShardedEngine
from repro.shard.plan import mix_plan

PLANS = {
    "mix": (lambda: mix_plan(seed=11, cores=4), 2000.0),
    "serving": (lambda: serving_plan(seed=31, cores=2, requests_per_class=60,
                                     slo=True), 2000.0),
}


@pytest.fixture(params=multiprocessing.get_all_start_methods())
def start_method(request):
    """The process-wide default start method for the test, then back to
    the platform default."""
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(None, force=True)


def _digest(name: str, backend: str) -> str:
    make_plan, horizon = PLANS[name]
    with ShardedEngine(make_plan(), shards=2, backend=backend) as engine:
        engine.advance(horizon)
        return tree_checksum({"stream": engine.merged_stream(),
                              "state": engine.snapshot_state()})


@pytest.mark.parametrize("name", sorted(PLANS))
def test_mp_matches_inline_under_every_start_method(name, start_method):
    assert _digest(name, "mp") == _digest(name, "inline")


_FORKED_IMPORTS = """
    import json, multiprocessing, os, sys
    parent, log = os.getpid(), sys.argv[1]

    class Logger:  # sees every module a process imports from here on
        def find_spec(self, name, path=None, target=None):
            if os.getpid() != parent and name.split(".")[0] == "repro":
                with open(log, "a") as out:
                    out.write(name + "\\n")
            return None

    sys.meta_path.insert(0, Logger())
    multiprocessing.set_start_method("fork", force=True)
    from repro.shard.engine import ShardedEngine
    from repro.shard.plan import mix_plan
    with ShardedEngine(mix_plan(seed=11, cores=4), shards=2, backend="mp",
                       obs=True) as engine:
        engine.advance(2000.0)
    with open(log) as lines:
        print(json.dumps(lines.read().split()))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method on this host")
def test_a_forked_worker_imports_no_repro_module(tmp_path):
    """The parent imports every module the cores of an obs-on plan run
    before it forks, so no worker compiles one of its own.  A fresh
    interpreter, since this one has imported them all already."""
    log = tmp_path / "imports.log"
    log.write_text("")
    src = Path(repro.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_FORKED_IMPORTS), str(log)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
