"""Cross-core IPC: shard channels and remote-caller stubs.

A *channel* is a named, port-compatible endpoint with a **home core**.
Every core holds its own :class:`ShardChannel` instance for every
channel in the plan (per-core universes share no objects); only the
home core's instance wraps a real :class:`repro.kernel.ipc.Port` on
the home kernel.  Thread bodies use the ordinary ``Send`` / ``Call`` /
``Receive`` syscalls against the channel -- the kernel never learns
the difference:

* on the home core the channel passes straight through to the port
  (full local RPC semantics, including ticket transfers);
* on any other core, ``call`` blocks the caller locally and emits a
  ``call`` barrier payload; at the next epoch barrier the home core
  materializes a real ``Request`` whose client is a
  :class:`RemoteClient` stub, delivers it through the port, and the
  eventual ``Request.reply`` is diverted by the shard router into a
  ``reply`` payload that wakes the original caller on its own core one
  barrier later.

Cross-core calls carry ``transfer_fraction=0.0``: cores own separate
ledgers, so there is no currency in which a remote transfer could be
denominated (the restart-migration analogue of the paper's ticket
transfers stays within one core).  ``Port._claim_transfer`` skips
zero-fraction requests, so stubs never reach the funding machinery.
"""

from __future__ import annotations

from typing import Any, Dict, TYPE_CHECKING

from repro.errors import ShardError
from repro.kernel.ipc import Port, Request
from repro.kernel.thread import ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.shard.core import ShardCore

__all__ = ["RemoteClient", "ShardChannel"]


class RemoteClient:
    """Stand-in for an RPC caller blocked on another core.

    Duck-types the slice of ``Thread`` the IPC layer touches on the
    reply path (``state``, ``tid``, ``name``); the ``shard_remote``
    marker is what :meth:`ShardRouter.intercept_wake` keys on.  The
    stub is built from the JSON payload in *every* backend, so the home
    core's state evolution is identical whether the real caller lives
    in the same process or another one.
    """

    shard_remote = True

    __slots__ = ("name", "tid", "origin_core", "channel", "call_id", "state")

    def __init__(self, name: str, tid: int, origin_core: int,
                 channel: str, call_id: str) -> None:
        self.name = name
        self.tid = tid
        self.origin_core = origin_core
        self.channel = channel
        self.call_id = call_id
        # Never EXITED: a dead caller is detected on its own core when
        # the reply payload is applied, keeping the home core's history
        # independent of remote lifecycle events mid-epoch.
        self.state = ThreadState.BLOCKED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RemoteClient {self.name!r} tid={self.tid} "
                f"core={self.origin_core} call={self.call_id}>")


class ShardChannel:
    """One core's view of a named cross-core endpoint."""

    def __init__(self, core: "ShardCore", name: str, home_core: int) -> None:
        self.core = core
        self.name = name
        self.home_core = home_core
        #: Real port, only on the home core's instance.
        self.port = (Port(core.kernel, f"channel:{name}")
                     if home_core == core.core_id else None)
        #: call_id -> locally blocked caller (non-home instances).
        self._pending: Dict[str, Any] = {}
        # -- statistics (part of the core's canonical state) -----------
        self.remote_calls = 0
        self.remote_sends = 0
        self.calls_applied = 0
        self.sends_applied = 0
        self.replies_applied = 0
        self.dropped_replies = 0

    @property
    def is_home(self) -> bool:
        return self.port is not None

    # -- port protocol (what the Send/Call/Receive syscalls invoke) ----------

    def send(self, sender: Any, message: Any) -> None:
        """Asynchronous message; cross-core sends travel at the barrier."""
        if self.is_home:
            self.port.send(sender, message)
            return
        self.remote_sends += 1
        self.core.router.emit({
            "kind": "send",
            "target": self.home_core,
            "channel": self.name,
            "message": message,
            "sender": sender.name,
        })

    def call(self, client: Any, message: Any,
             transfer_fraction: float = 1.0) -> Any:
        """Synchronous RPC; cross-core calls block locally and travel
        at the barrier (always with a zero transfer fraction)."""
        if self.is_home:
            return self.port.call(client, message, transfer_fraction)
        from repro.kernel.kernel import BLOCK  # local import: cycle guard

        self.remote_calls += 1
        call_id = f"c{self.core.core_id}-{self.core.next_call_id()}"
        self._pending[call_id] = client
        self.core.router.emit({
            "kind": "call",
            "target": self.home_core,
            "channel": self.name,
            "call_id": call_id,
            "message": message,
            "sender": client.name,
            "sender_tid": client.tid,
        })
        return BLOCK

    def receive(self, server: Any) -> Any:
        """Servers must live on the channel's home core."""
        if not self.is_home:
            raise ShardError(
                f"receive on channel {self.name!r} from core "
                f"{self.core.core_id}, but it is homed on core "
                f"{self.home_core}")
        return self.port.receive(server)

    # -- barrier payload application -----------------------------------------

    def apply_call(self, payload: Dict[str, Any]) -> None:
        """Home core: materialize a remote call as a real request."""
        stub = RemoteClient(payload["sender"], payload["sender_tid"],
                            payload["src"], self.name, payload["call_id"])
        request = Request(self.port, payload["message"], client=stub,
                          transfer_fraction=0.0)
        self.port.calls_made += 1
        self.calls_applied += 1
        self.port._deliver(request)

    def apply_send(self, payload: Dict[str, Any]) -> None:
        """Home core: enqueue a remote asynchronous message."""
        self.sends_applied += 1
        self.port.send(None, payload["message"])

    def apply_reply(self, payload: Dict[str, Any]) -> None:
        """Origin core: wake the blocked caller with the reply value.

        A caller that died (killed, migrated away, crashed core) while
        its call was in flight is dropped here, deterministically --
        the analogue of ``Port.dead_replies`` for the cross-core path.
        """
        client = self._pending.pop(payload["call_id"], None)
        if client is None or client.state is not ThreadState.BLOCKED:
            self.dropped_replies += 1
            return
        self.replies_applied += 1
        self.core.kernel.wake(client, payload["value"])

    # -- checkpointing --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``)."""
        return {
            "name": self.name,
            "home_core": self.home_core,
            "pending": sorted(self._pending),
            "remote_calls": self.remote_calls,
            "remote_sends": self.remote_sends,
            "calls_applied": self.calls_applied,
            "sends_applied": self.sends_applied,
            "replies_applied": self.replies_applied,
            "dropped_replies": self.dropped_replies,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "home" if self.is_home else f"remote->{self.home_core}"
        return f"<ShardChannel {self.name!r} {role}>"
