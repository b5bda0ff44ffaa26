"""Runtime determinism-race sanitizer.

Lint rule RPR011 keeps module-level state declared; this module traps
cross-owner mutation of kernel objects where it *actually* happens.
Under ``REPRO_SANITIZE=1`` every :class:`~repro.kernel.thread.Thread`
is tagged with an **owner token** (its kernel) at attach time, the
kernel dispatch loop pushes its owner token for the duration of each
scheduling quantum, and every lifecycle mutation of a thread checks
that the mutating context matches the owner.  A mismatch outside a **declared barrier seam** raises
:class:`~repro.errors.DeterminismRaceError` at the exact mutation
site -- the dynamic analogue of a data-race report.

Barrier seams are the places cross-owner mutation is *by design*:

* ``ipc.reply`` -- a server completing an RPC wakes the blocked client,
  which may live on another kernel;
* ``ipc.deliver`` -- message delivery wakes a receiver on the port's
  kernel, wherever the sender runs;
* ``shard.barrier`` / ``shard.migrate`` / ``shard.crash`` -- the sharded
  engine applying barrier payloads on the target core, and the
  kill-here-respawn-there operations that ride them (a moved thread is
  a new thread, tagged with the kernel that builds it).

:data:`DECLARED_SEAMS` is the one seam table: entering a name outside
it raises, and ``tests/analysis/test_races.py`` checks it against the
``race_seam(...)`` call sites in ``src/`` in both directions.

The tracker is deliberately injection-based: activating it assigns the
singleton into ``_race_tracker`` module globals inside the kernel,
thread, IPC, and shard-router modules, so the deterministic zones never
import :mod:`repro.analysis` (no import cycles, and the inactive
per-dispatch cost is one ``is None`` test).
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.errors import DeterminismRaceError

__all__ = ["DECLARED_SEAMS", "OwnerToken", "RaceTracker", "tracker"]

#: Every legal cross-owner mutation seam.  Must match the
#: ``race_seam(...)`` / ``_race_seam(...)`` call sites under ``src/``
#: (``test_declared_seams_match_call_sites``).
DECLARED_SEAMS = frozenset({
    "ipc.reply",
    "ipc.deliver",
    # Sharded multicore engine (repro.shard): barrier payload
    # application on the target core, and the restart-migration /
    # crash-evacuation operations that kill on one core and respawn
    # on another via ``spawn`` payloads.
    "shard.barrier",
    "shard.migrate",
    "shard.crash",
})


class OwnerToken:
    """Identity of one owning execution context (one kernel)."""

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<owner {self.label}>"


class RaceTracker:
    """Owner-token bookkeeping and the cross-owner mutation trap.

    One process-wide instance (:data:`tracker`) exists; it is inert
    until :meth:`activate` (normally via
    :func:`repro.analysis.sanitizer.install_autosanitize`).
    """

    def __init__(self) -> None:
        self.active = False
        #: Owner contexts currently executing (innermost last).
        self._stack: List[OwnerToken] = []
        #: Nesting depth of declared barrier seams.
        self._seam_depth = 0
        #: id(object) -> owner token.  Keyed by id because kernel
        #: objects use ``__slots__`` without ``__weakref__``; safe
        #: because every Thread is (re)tagged at construction, so a
        #: recycled id is overwritten before it can be checked.
        self._owners: Dict[int, OwnerToken] = {}
        #: kernel -> token (weak: a tracker must not keep kernels alive).
        self._tokens: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._token_seq = 0
        # -- accounting ----------------------------------------------------
        self.checks = 0
        self.violations = 0

    # -- lifecycle ---------------------------------------------------------

    def activate(self) -> None:
        """Arm the tracker and inject it into the deterministic zones."""
        from repro.kernel import ipc as ipc_module
        from repro.kernel import kernel as kernel_module
        from repro.kernel import thread as thread_module
        from repro.shard import router as shard_router_module

        for module in (kernel_module, thread_module, ipc_module,
                       shard_router_module):
            module._race_tracker = self
        self.active = True

    def deactivate(self) -> None:
        """Disarm and drop all tokens/contexts."""
        self.active = False
        self.reset()

    def reset(self) -> None:
        self._stack.clear()
        self._seam_depth = 0
        self._owners.clear()
        self._tokens = weakref.WeakKeyDictionary()

    # -- tokens ------------------------------------------------------------

    def token_for(self, kernel: object) -> OwnerToken:
        token = self._tokens.get(kernel)
        if token is None:
            self._token_seq += 1
            token = OwnerToken(f"kernel#{self._token_seq}")
            self._tokens[kernel] = token
        return token

    def tag(self, obj: object, kernel: object) -> None:
        """Record ``kernel`` as the owner of ``obj`` (attach time)."""
        self._owners[id(obj)] = self.token_for(kernel)

    def owner_of(self, obj: object) -> Optional[OwnerToken]:
        return self._owners.get(id(obj))

    # -- contexts and seams ------------------------------------------------

    def push(self, kernel: object) -> None:
        """Enter ``kernel``'s execution context (dispatch loop entry)."""
        self._stack.append(self.token_for(kernel))

    def enter(self, kernel: object) -> bool:
        """Push ``kernel``'s context unless it is already the innermost.

        A kernel's engine callbacks call this as they start; on True
        they run inside the pushed context and :meth:`pop` after.  A
        nested entry of the same kernel pushes nothing, which leaves
        :meth:`check` (it reads only the innermost token) unchanged.
        """
        token = self.token_for(kernel)
        stack = self._stack
        if stack and stack[-1] is token:
            return False
        stack.append(token)
        return True

    def pop(self) -> None:
        self._stack.pop()

    @contextmanager
    def context(self, kernel: object) -> Iterator[None]:
        self.push(kernel)
        try:
            yield
        finally:
            self.pop()

    @contextmanager
    def seam(self, name: str) -> Iterator[None]:
        """Enter a declared barrier seam; undeclared names are an error."""
        if name not in DECLARED_SEAMS:
            raise DeterminismRaceError(
                f"undeclared barrier seam {name!r}; declare it in "
                f"repro.analysis.races.DECLARED_SEAMS")
        self._seam_depth += 1
        try:
            yield
        finally:
            self._seam_depth -= 1

    # -- the trap ----------------------------------------------------------

    def check(self, obj: object, action: str = "mutate") -> None:
        """Trap a cross-owner mutation of ``obj`` outside any seam.

        No-op when the tracker is inactive, when no owner context is
        executing (external/test code driving the system directly is
        not a shard), when inside a declared seam, or when ``obj`` was
        never tagged (constructed before activation).
        """
        if not self.active or not self._stack or self._seam_depth:
            return
        owner = self._owners.get(id(obj))
        if owner is None:
            return
        self.checks += 1
        current = self._stack[-1]
        if owner is not current:
            self.violations += 1
            raise DeterminismRaceError(
                f"cross-owner {action} of {obj!r}: owned by {owner.label} "
                f"but mutated from {current.label}'s context outside a "
                f"declared barrier seam; after the shard refactor this "
                f"ordering is not deterministic")


#: The process-wide tracker instance.
tracker = RaceTracker()
