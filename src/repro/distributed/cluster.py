"""A distributed lottery scheduler over a cluster of simulated nodes.

Section 4.2 notes that the tree-of-partial-ticket-sums "can also be
used as the basis of a distributed lottery scheduler".  This module
builds that extension: several single-CPU nodes (each an independent
:class:`~repro.kernel.kernel.Kernel` with its own lottery policy) share
one virtual clock and one ticket ledger, and a **rebalancer** maintains
the global proportional-share guarantee by keeping the *per-node ticket
totals* balanced -- the distributed analogue of one big lottery.

Why ticket balancing is the right invariant: within a node, the local
lottery gives thread i the share  t_i / T_node.  If every node carries
(approximately) T_total / N tickets, that local share equals
N * t_i / T_total -- exactly thread i's entitlement of the cluster's N
CPUs.  Skewed placement breaks this (a thread on a crowded node is
under-served); migrating runnable threads to re-equalize node totals
restores it.  The rebalancer walks a :class:`TreeLottery` over node
ticket sums to find donors/recipients, which is the tree the paper
gestures at.

Scope: migration moves *runnable, compute-bound* threads.  Node-local
objects (ports, mutexes) pin a thread to its node; the rebalancer
skips threads flagged ``pinned``.

Failure model (see ``docs/FAULTS.md``): :meth:`Cluster.crash_node`
fails a node -- its running thread is preempted (in-flight work lost),
unpinned runnable threads are re-placed on the least-funded live node,
and everything that cannot move (pinned, blocked, created threads)
dies with the node, its tickets reclaimed from the shared ledger so
surviving threads' proportions immediately reflect the loss.
:meth:`Cluster.restart_node` brings the node back; the periodic
rebalancer repopulates it.  :meth:`Cluster.migrate_with_retry` wraps
:meth:`Cluster.migrate` in a bounded virtual-time backoff so a
migration racing a crash re-attempts (or aborts) instead of stranding
the thread.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.prng import ParkMillerPRNG
from repro.core.tickets import Ledger
from repro.errors import ReproError
from repro.kernel.kernel import Kernel
from repro.kernel.thread import Thread, ThreadBody, ThreadState
from repro.schedulers.lottery_policy import LotteryPolicy
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.retry import RetryPolicy, RetryState

__all__ = ["ClusterNode", "Cluster"]

#: Injection point for the determinism-race sanitizer (see
#: :mod:`repro.analysis.races`); assigned by ``tracker.activate()``
#: under ``REPRO_SANITIZE=1``.
_race_tracker = None  # shard: barrier-shared -- sanitizer injection point: assigned once by tracker.activate(), read-only afterwards


def _race_seam(name: str):
    """Barrier-seam context for cross-node moves (no-op when the
    sanitizer is inactive)."""
    if _race_tracker is not None and _race_tracker.active:
        return _race_tracker.seam(name)
    return nullcontext()


def _race_retag(thread: "Thread", kernel: "Kernel") -> None:
    """Transfer a thread's owner token to its new kernel."""
    if _race_tracker is not None and _race_tracker.active:
        _race_tracker.retag(thread, kernel)


class ClusterNode:
    """One CPU of the cluster: a kernel with its own lottery policy."""

    def __init__(self, name: str, engine: Engine, ledger: Ledger,
                 seed: int, quantum: float, recorder=None) -> None:
        self.name = name
        self.policy = LotteryPolicy(ledger, prng=ParkMillerPRNG(seed))
        self.kernel = Kernel(engine, self.policy, ledger=ledger,
                             quantum=quantum, recorder=recorder)
        #: Threads currently placed on this node (owned by the Cluster).
        self.threads: List[Thread] = []
        #: False while crashed; dead nodes are excluded from placement,
        #: rebalancing, and entitlement accounting.
        self.alive = True
        #: Times this node has crashed (fault accounting).
        self.crashes = 0

    def total_funding(self) -> float:
        """Nominal funding of all live threads placed here."""
        return sum(t.nominal_funding() for t in self.threads if t.alive)

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "name": self.name,
            "alive": self.alive,
            "crashes": self.crashes,
            "placed": [t.tid for t in self.threads],
            "kernel": self.kernel.snapshot_state(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ClusterNode {self.name!r} threads={len(self.threads)}"
                f" funding={self.total_funding():.0f}>")


class Cluster:
    """N lottery-scheduled nodes with funding-balancing migration.

    Parameters
    ----------
    nodes:
        Number of single-CPU nodes.
    quantum:
        Per-node scheduling quantum (ms).
    rebalance_period:
        How often the rebalancer runs; None disables migration (the
        ablation baseline).
    seed:
        Seeds the per-node lotteries and placement decisions.
    engine / ledger:
        Optional externally owned event loop and ticket ledger.  By
        default the cluster builds private ones; a sharded run passes
        its core's :class:`~repro.sim.engine.LoopCore` (and that core's
        ledger) so the whole cluster lives inside one shard core and
        advances through the core's epoch loop.
    """

    def __init__(self, nodes: int = 4, quantum: float = 100.0,
                 rebalance_period: Optional[float] = 1000.0,
                 seed: int = 1, recorder=None, engine=None,
                 ledger: Optional[Ledger] = None) -> None:
        if nodes <= 0:
            raise ReproError(f"cluster needs at least one node: {nodes}")
        if rebalance_period is not None and rebalance_period <= 0:
            raise ReproError("rebalance_period must be positive or None")
        self.engine = Engine() if engine is None else engine
        self.ledger = Ledger() if ledger is None else ledger
        #: Optional shared recorder wired into every node kernel; the
        #: replay harness (:mod:`repro.checkpoint.replay`) passes one to
        #: collect the cluster-wide dispatch stream in engine order.
        self.recorder = recorder
        self.nodes = [
            ClusterNode(f"node{i}", self.engine, self.ledger,
                        seed=seed + 101 * i, quantum=quantum,
                        recorder=recorder)
            for i in range(nodes)
        ]
        #: Optional :class:`repro.telemetry.probe.Telemetry` hub; set by
        #: ``Telemetry.instrument_cluster``.  Migrations, evacuations,
        #: and crash/restart transitions report spans through it.
        self.telemetry = None
        self.rebalance_period = rebalance_period
        self.migrations = 0
        #: Migrations rolled back after a failed destination enqueue.
        self.migration_rollbacks = 0
        # -- fault accounting (see crash_node / restart_node) ---------------
        self.node_crashes = 0
        self.node_restarts = 0
        self.threads_killed = 0
        self.evacuations = 0
        self._placement: Dict[int, ClusterNode] = {}
        if rebalance_period is not None:
            self.engine.call_after(rebalance_period, self._rebalance_tick,
                                   label="cluster-rebalance")

    # -- time -------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Cluster-wide virtual time (shared clock)."""
        return self.engine.now

    def run_until(self, time_ms: float) -> None:
        """Advance every node to ``time_ms``."""
        self.engine.run(until=time_ms)

    # -- observation ---------------------------------------------------------------

    def attach_recorder(self, sink) -> None:
        """Fan an event sink into every node kernel (see ``RecorderMux``).

        The per-node kernels share one virtual clock, so a single sink
        attached cluster-wide observes the global event stream in
        engine order -- the same property the replay recorder relies
        on, now available *alongside* any recorder the cluster was
        constructed with instead of displacing it.
        """
        for node in self.nodes:
            node.kernel.attach_recorder(sink)

    def detach_recorder(self, sink) -> None:
        """Remove a cluster-wide sink attached via :meth:`attach_recorder`."""
        for node in self.nodes:
            node.kernel.detach_recorder(sink)

    # -- placement -----------------------------------------------------------------

    @property
    def alive_nodes(self) -> List[ClusterNode]:
        """Nodes currently up, in declaration order."""
        return [node for node in self.nodes if node.alive]

    def spawn(self, body: ThreadBody, name: str, tickets: float,
              node: Optional[ClusterNode] = None,
              pinned: bool = False) -> Thread:
        """Create a funded thread, placing it on the least-funded live
        node (or an explicit ``node``, which must be up)."""
        if node is not None and not node.alive:
            raise ReproError(f"cannot spawn on crashed node {node.name}")
        target = node if node is not None else self._least_funded_node()
        thread = target.kernel.spawn(body, name, tickets=tickets)
        thread.pinned = pinned
        target.threads.append(thread)
        self._placement[thread.tid] = target
        return thread

    def node_of(self, thread: Thread) -> ClusterNode:
        """The node a thread currently runs on.

        Raises for exited threads: they hold no placement (placement
        maps are pruned on each rebalance tick and on crashes).
        """
        if not thread.alive:
            raise ReproError(
                f"thread {thread.name!r} has exited and is no longer "
                "placed on any node"
            )
        try:
            return self._placement[thread.tid]
        except KeyError:
            raise ReproError(
                f"thread {thread.name!r} is not placed on this cluster"
            ) from None

    def _least_funded_node(self) -> ClusterNode:
        candidates = self.alive_nodes
        if not candidates:
            raise ReproError("no live node available for placement")
        return min(candidates, key=lambda n: (n.total_funding(),
                                              len(n.threads)))

    # -- migration ---------------------------------------------------------------------

    def migrate(self, thread: Thread, destination: ClusterNode) -> bool:
        """Move a runnable, unpinned thread to another live node.

        Returns False (without side effects) when the thread cannot be
        moved right now -- running, blocked, exited, pinned, or either
        endpoint down.  A destination enqueue failure mid-move (the
        crash-races-migration window) rolls the thread back onto its
        source node, also returning False.
        """
        if not thread.alive:
            return False
        source = self.node_of(thread)
        if destination is source:
            return False
        if not source.alive or not destination.alive:
            return False
        if getattr(thread, "pinned", False):
            return False
        if thread.state is not ThreadState.RUNNABLE:
            return False
        with _race_seam("cluster.migrate"):
            source.policy.dequeue(thread)
            self._expire_compensation(thread, source)
            source.threads.remove(thread)
            thread.kernel = destination.kernel
            _race_retag(thread, destination.kernel)
            destination.threads.append(thread)
            self._placement[thread.tid] = destination
            try:
                destination.policy.enqueue(thread)
            except ReproError:
                # Destination refused mid-move: undo every step above so
                # the thread lands back on its source run queue intact.
                destination.threads.remove(thread)
                thread.kernel = source.kernel
                _race_retag(thread, source.kernel)
                self._placement[thread.tid] = source
                source.threads.append(thread)
                source.policy.enqueue(thread)
                self.migration_rollbacks += 1
                return False
            destination.kernel._schedule_dispatch()
        self.migrations += 1
        if self.telemetry is not None:
            self.telemetry.on_migration(thread, source.name, destination.name,
                                        self.now, kind="migrate")
        return True

    def migrate_with_retry(self, thread: Thread, destination: ClusterNode,
                           policy: Optional["RetryPolicy"] = None
                           ) -> "RetryState":
        """:meth:`migrate` under bounded virtual-time retry.

        Transient refusals (thread momentarily running, destination
        down pending restart) are re-attempted with exponential
        backoff; the retry aborts outright once it can never succeed
        (thread exited or pinned).  Returns the live
        :class:`~repro.faults.retry.RetryState`.
        """
        from repro.faults.retry import ABORT, execute_with_retry

        def attempt():
            if not thread.alive or getattr(thread, "pinned", False):
                return ABORT
            return self.migrate(thread, destination)

        return execute_with_retry(self.engine, attempt, policy=policy,
                                  label=f"migrate-retry:{thread.name}")

    def _expire_compensation(self, thread: Thread, source: ClusterNode) -> None:
        """Revoke source-granted compensation before a thread moves.

        Compensation managers are per-node; a compensation ticket
        granted by the source policy would never be revoked by the
        destination's ``on_quantum_start``, permanently inflating the
        migrated thread (and tripping the sanitizer's lifetime check).
        """
        compensation = source.policy.compensation
        if compensation is not None:
            compensation.on_holder_removed(thread)

    def _rebalance_tick(self) -> None:
        """Greedy funding balancing: richest node donates to poorest.

        When no single thread can move without overshooting (every
        rich-node thread's funding exceeds the gap), a *swap* --
        exchanging one rich-node thread for a poorer one -- can still
        shrink it.  Both moves and swaps strictly reduce the
        richest-poorest spread, so rebalancing never oscillates.
        """
        self._prune_exited()
        alive = self.alive_nodes
        if len(alive) >= 2:
            for _ in range(len(alive)):
                ordered = sorted(alive, key=ClusterNode.total_funding)
                poorest, richest = ordered[0], ordered[-1]
                gap = richest.total_funding() - poorest.total_funding()
                if gap <= 0:
                    break
                candidate = self._best_donor(richest, gap)
                if candidate is not None:
                    if not self.migrate(candidate, poorest):
                        break
                    continue
                if not self._try_swap(richest, poorest, gap):
                    break
        assert self.rebalance_period is not None
        self.engine.call_after(self.rebalance_period, self._rebalance_tick,
                               label="cluster-rebalance")

    def _prune_exited(self) -> None:
        """Drop exited threads from placement maps.

        Threads that exit (or are killed) between ticks would otherwise
        linger in ``node.threads`` and ``_placement`` forever.
        """
        for node in self.nodes:
            dead = [t for t in node.threads if not t.alive]
            for thread in dead:
                node.threads.remove(thread)
                self._placement.pop(thread.tid, None)

    # -- failures -----------------------------------------------------------------

    def crash_node(self, node: ClusterNode) -> None:
        """Fail a node, leaving it out of the cluster until restart.

        The running thread is preempted (its in-flight segment is
        lost); unpinned RUNNABLE threads are re-placed on the
        least-funded live node; every other thread placed here
        (pinned, blocked, or not yet started) dies with the node and
        its tickets are reclaimed from the shared ledger.
        """
        if not node.alive:
            raise ReproError(f"node {node.name} is already down")
        node.alive = False
        node.crashes += 1
        self.node_crashes += 1
        with _race_seam("cluster.crash"):
            node.kernel.preempt_running()
            survivors = self.alive_nodes
            for thread in list(node.threads):
                if not thread.alive:
                    node.threads.remove(thread)
                    self._placement.pop(thread.tid, None)
                    continue
                movable = (thread.state is ThreadState.RUNNABLE
                           and not getattr(thread, "pinned", False))
                if movable and survivors:
                    self._evacuate(thread, node)
                else:
                    node.kernel.kill(thread)
                    node.threads.remove(thread)
                    self._placement.pop(thread.tid, None)
                    self.threads_killed += 1

    def restart_node(self, node: ClusterNode) -> None:
        """Bring a crashed node back into placement and rebalancing.

        The node returns empty; the periodic rebalancer repopulates it
        on its next tick (with ``rebalance_period=None`` it only
        receives newly spawned or explicitly migrated threads).
        """
        if node.alive:
            raise ReproError(f"node {node.name} is already up")
        node.alive = True
        self.node_restarts += 1

    def _evacuate(self, thread: Thread, source: ClusterNode) -> None:
        """Re-place one runnable thread off a crashing node."""
        with _race_seam("cluster.evacuate"):
            source.policy.dequeue(thread)
            self._expire_compensation(thread, source)
            source.threads.remove(thread)
            destination = self._least_funded_node()
            thread.kernel = destination.kernel
            _race_retag(thread, destination.kernel)
            destination.threads.append(thread)
            self._placement[thread.tid] = destination
            destination.policy.enqueue(thread)
            destination.kernel._schedule_dispatch()
        self.evacuations += 1
        if self.telemetry is not None:
            self.telemetry.on_migration(thread, source.name, destination.name,
                                        self.now, kind="evacuate")

    def _try_swap(self, richest: ClusterNode, poorest: ClusterNode,
                  gap: float) -> bool:
        """Exchange a rich-node thread for a poorer one to shrink the gap.

        Picks the movable pair whose funding difference best halves the
        gap (``0 < difference < gap`` keeps the reduction strict).  The
        cheaper thread moves first; if the richer thread then cannot
        move, the first move is undone so the tick leaves totals no
        worse than it found them.
        """
        best: Optional[Tuple[Thread, Thread]] = None
        best_score = float("inf")
        for rich_thread in self._movable_threads(richest):
            rich_funding = rich_thread.nominal_funding()
            for poor_thread in self._movable_threads(poorest):
                difference = rich_funding - poor_thread.nominal_funding()
                if difference <= 0 or difference >= gap:
                    continue
                score = abs(gap / 2 - difference)
                if score < best_score:
                    best_score = score
                    best = (rich_thread, poor_thread)
        if best is None:
            return False
        rich_thread, poor_thread = best
        if not self.migrate(poor_thread, richest):
            return False
        if not self.migrate(rich_thread, poorest):
            self.migrate(poor_thread, poorest)
            return False
        return True

    @staticmethod
    def _movable_threads(node: ClusterNode) -> List[Thread]:
        """Runnable, unpinned, positively funded threads on ``node``."""
        return [
            thread for thread in node.threads
            if thread.state is ThreadState.RUNNABLE
            and not getattr(thread, "pinned", False)
            and thread.nominal_funding() > 0
        ]

    @staticmethod
    def _best_donor(node: ClusterNode, gap: float) -> Optional[Thread]:
        """The movable thread that best halves the funding gap."""
        best: Optional[Thread] = None
        best_score = float("inf")
        for thread in node.threads:
            if thread.state is not ThreadState.RUNNABLE:
                continue
            if getattr(thread, "pinned", False):
                continue
            funding = thread.nominal_funding()
            if funding <= 0 or funding >= gap:
                # Moving more than the gap would overshoot and oscillate.
                continue
            score = abs(gap / 2 - funding)
            if score < best_score:
                best_score = score
                best = thread
        return best

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        The cluster is the natural capture root for multi-node runs: it
        owns the shared engine and ledger, per-node kernels, and the
        placement map.
        """
        return {
            "engine": self.engine.snapshot_state(),
            "ledger": self.ledger.snapshot_state(),
            "rebalance_period": self.rebalance_period,
            "migrations": self.migrations,
            "migration_rollbacks": self.migration_rollbacks,
            "node_crashes": self.node_crashes,
            "node_restarts": self.node_restarts,
            "threads_killed": self.threads_killed,
            "evacuations": self.evacuations,
            "placement": {str(tid): node.name
                          for tid, node in sorted(self._placement.items())},
            "nodes": [node.snapshot_state() for node in self.nodes],
        }

    # -- measurement -----------------------------------------------------------------------

    def total_funding(self) -> float:
        """Aggregate nominal funding of all live cluster threads."""
        return sum(node.total_funding() for node in self.nodes)

    def _entitlements(self, elapsed_ms: float) -> Dict[int, float]:
        """Water-filling entitlements: a thread can use at most one CPU.

        Funding shares that would exceed one node's worth of CPU are
        capped at ``elapsed_ms`` and the surplus is redistributed among
        the uncapped threads, iteratively (progressive filling).
        """
        live = [t for node in self.nodes for t in node.threads if t.alive]
        entitled: Dict[int, float] = {}
        remaining = list(live)
        remaining_cpu = elapsed_ms * len(self.alive_nodes)
        while remaining:
            total = sum(t.nominal_funding() for t in remaining)
            if total <= 0:
                for thread in remaining:
                    entitled[thread.tid] = 0.0
                break
            capped = []
            for thread in remaining:
                share = thread.nominal_funding() / total
                if share * remaining_cpu > elapsed_ms + 1e-9:
                    capped.append(thread)
            if not capped:
                for thread in remaining:
                    share = thread.nominal_funding() / total
                    entitled[thread.tid] = share * remaining_cpu
                break
            for thread in capped:
                entitled[thread.tid] = elapsed_ms
                remaining.remove(thread)
                remaining_cpu -= elapsed_ms
        return entitled

    def fairness_report(self, elapsed_ms: float) -> List[Dict[str, float]]:
        """Per-thread observed vs entitled CPU over ``elapsed_ms``.

        Entitlement: the water-filled funding share of the cluster's
        aggregate CPU (N nodes x elapsed, one CPU max per thread).
        """
        entitlements = self._entitlements(elapsed_ms)
        rows = []
        for node in self.nodes:
            for thread in node.threads:
                if not thread.alive:
                    continue
                entitled = entitlements.get(thread.tid, 0.0)
                rows.append(
                    {
                        "thread": thread.name,
                        "node": node.name,
                        "funding": thread.nominal_funding(),
                        "cpu_ms": thread.cpu_time,
                        "entitled_ms": entitled,
                        "relative_error": (
                            abs(thread.cpu_time - entitled) / entitled
                            if entitled > 0 else 0.0
                        ),
                    }
                )
        return rows

    def max_relative_error(self, elapsed_ms: float) -> float:
        """Worst per-thread deviation from global entitlement."""
        rows = self.fairness_report(elapsed_ms)
        if not rows:
            return 0.0
        return max(row["relative_error"] for row in rows)
