"""Cold start: what an import loads, and that a run loads nothing.

Every check runs in a fresh interpreter, since the modules a test
process has already imported would hide what a cold one pays for.
Package ``__init__``s resolve their exports on first use
(:mod:`repro._exports`), so a package import loads the ``__init__``
and nothing else; a module a timed path needs is imported when that
path is armed, never inside the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent


def _fresh(code: str, *argv: str):
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *argv], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_EXPORTS = """
    import importlib, json, pathlib, sys, types
    import repro

    src = pathlib.Path(repro.__file__).parent
    packages = sorted(".".join(("repro",) + p.parent.relative_to(src).parts)
                      for p in src.rglob("__init__.py"))
    submodules = sorted(
        ".".join(("repro",) + p.relative_to(src).with_suffix("").parts)
        for p in src.rglob("*.py") if p.stem not in ("__init__", "__main__"))

    def resolve():
        seen = {}
        for package in packages:
            module = importlib.import_module(package)
            for name in module.__all__:
                seen[package, name] = getattr(module, name)
        return seen

    def check(seen):  # -> (kind of every export, problems found)
        kinds, found = {}, []
        for (package, name), value in seen.items():
            home = getattr(value, "__module__", None)
            if isinstance(value, types.ModuleType):
                kinds[f"{package}.{name}"] = f"module {value.__name__}"
                continue
            kinds[f"{package}.{name}"] = f"{type(value).__name__} of {home}"
            if isinstance(home, str) and home.startswith("repro") \\
                    and getattr(sys.modules[home], name, None) is not value:
                found.append(f"{package}.{name} is not {home}.{name}")
        return kinds, found

    if sys.argv[1:] == ["submodules-first"]:
        for name in submodules:
            importlib.import_module(name)
        kinds, found = check(resolve())
    else:
        first = resolve()
        for name in submodules:
            importlib.import_module(name)
        again = resolve()
        kinds, found = check(again)
        found += [f"{package}.{name} changed when the submodules loaded"
                  for (package, name), value in first.items()
                  if again[package, name] is not value]
    for package in packages:
        namespace = {}
        exec(f"from {package} import *", namespace)
        wanted = importlib.import_module(package).__all__
        found += [f"{package} * lacks {name}" for name in wanted
                  if name not in namespace]
    print(json.dumps([kinds, found]))
"""


def test_every_export_resolves_to_its_defining_object():
    """Read before and after every submodule has loaded, and with every
    submodule loaded first: a submodule whose name is also an export's
    must not shadow the export when its import rebinds the package
    attribute."""
    kinds, found = _fresh(_EXPORTS, "exports-first")
    cold_kinds, cold_found = _fresh(_EXPORTS, "submodules-first")
    assert found == [] and cold_found == []
    assert cold_kinds == kinds


@pytest.mark.parametrize("target, budget", [
    ("repro", 3),
    ("repro.checkpoint.statetree", 10),
    ("repro.experiments.common", 30),
    # What bench/run.py times as set-up of every workload: the count it
    # loads on CPython 3.11, so that any module it starts loading
    # again fails here.
    ("bench.workloads", 42),
])
def test_module_budget(target, budget):
    loaded = _fresh(f"""
        import json, sys
        import {target}
        print(json.dumps(sorted(name for name in sys.modules
                                if name.split(".")[0] == "repro")))
    """)
    assert len(loaded) <= budget, loaded


_BUILDS = {
    "arena": """
        from repro.experiments.common import build_machine
        from repro.serving.arena import ArenaConfig, build_arena
        machine = build_machine(seed=1, quantum=20.0, policy="lottery")
        config = ArenaConfig(seed=1, load_factor=0.7, requests_per_class=60)
        arena = build_arena(machine.kernel, config)
        run = lambda: arena.run(config.horizon_ms())
    """,
    "arena-hub-slo": """
        from repro.experiments.common import build_machine
        from repro.serving.arena import ArenaConfig, build_arena
        from repro.telemetry.probe import Telemetry
        machine = build_machine(seed=1, quantum=20.0, policy="lottery")
        Telemetry().instrument_kernel(machine.kernel, track="serving")
        config = ArenaConfig(seed=1, load_factor=1.5, requests_per_class=60,
                             slo=True, slo_min_samples=10)
        arena = build_arena(machine.kernel, config)
        run = lambda: arena.run(config.horizon_ms())
    """,
    "tree-lottery": """
        from repro.core.prng import ParkMillerPRNG
        from repro.core.tickets import Ledger
        from repro.kernel.kernel import Kernel
        from repro.kernel.syscalls import Compute
        from repro.schedulers.lottery_policy import LotteryPolicy
        from repro.sim.engine import Engine

        def spin(ctx):
            while True:
                yield Compute(7.0)

        ledger = Ledger()
        policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(1), use_tree=True)
        kernel = Kernel(Engine(), policy, ledger=ledger, quantum=10.0)
        for index in range(200):
            kernel.spawn(spin, f"spin{index}", tickets=float(1 + index % 13))
        run = lambda: kernel.run_until(5000.0)
    """,
    "shard-inline": """
        from repro.shard.engine import ShardedEngine
        from repro.shard.plan import mix_plan
        engine = ShardedEngine(mix_plan(11, cores=4), shards=2,
                               backend="inline")
        run = lambda: engine.advance(5000.0)
    """,
    "shard-obs-inline": """
        from repro.shard.engine import ShardedEngine
        from repro.shard.plan import mix_plan
        engine = ShardedEngine(mix_plan(11, cores=4), shards=2,
                               backend="inline", obs=True)
        run = lambda: engine.advance(5000.0)
    """,
}


@pytest.mark.parametrize("build", sorted(_BUILDS))
def test_a_run_imports_no_module(build):
    new = _fresh(textwrap.dedent(_BUILDS[build]) + textwrap.dedent("""
        import json, sys
        before = set(sys.modules)
        run()
        print(json.dumps(sorted(set(sys.modules) - before)))
    """))
    assert new == []


#: Modules that only some runs call: the shard backend (and with it the
#: cores, frames and router), the hub's span store and registry, the
#: checkpoint recipe and restore path, and the baseline policies.
_ON_FIRST_USE = ("repro.shard.backends", "repro.telemetry.spans",
                 "repro.checkpoint.registry", "repro.schedulers.fair_share",
                 "repro.schedulers.priority", "repro.schedulers.round_robin",
                 "repro.schedulers.stride", "repro.schedulers.timesharing")


@pytest.mark.parametrize("build", ["arena", "shard-inline", "tree-lottery"])
def test_a_run_loads_only_what_it_calls(build):
    """Built and run, a hub-off arena, a tree-lottery kernel and an
    obs-off sharded engine load none of the modules they never call
    (the engine calls its backend)."""
    loaded = _fresh(textwrap.dedent(_BUILDS[build]) + textwrap.dedent("""
        import json, sys
        run()
        print(json.dumps(sorted(sys.modules)))
    """))
    unused = [name for name in _ON_FIRST_USE if name in loaded
              and not (build == "shard-inline"
                       and name == "repro.shard.backends")]
    assert unused == []


def test_an_obs_core_loads_its_frame_module_when_built():
    """An mp worker builds its cores and then serves the timed run; the
    first obs frame must not be where the aggregator module loads."""
    assert _fresh("""
        import json, sys
        from repro.shard.core import ShardCore
        from repro.shard.plan import mix_plan
        from repro.shard.router import ShardRouter
        ShardCore(0, mix_plan(11, cores=2), ShardRouter(), obs=True)
        print(json.dumps("repro.telemetry.aggregate" in sys.modules))
    """) is True
