"""Ports, messages, and synchronous RPC with ticket transfers.

This is the analogue of the prototype's modified ``mach_msg`` (section
4.6).  A **port** is a message queue with a set of receiver threads.
Three operations exist:

* ``send`` -- asynchronous enqueue, no resource-right movement;
* ``call`` -- synchronous RPC: the client blocks, and its resource
  rights are *transferred* to the server side until the reply.  If a
  server thread is already waiting in ``receive``, the transfer funds
  that thread directly; otherwise the transfer is attached to the
  queued request and claimed by whichever server thread eventually
  receives it (the paper's "list that is checked by the server thread
  when it attempts to receive").  Ports created with a **currency**
  instead fund that currency, which backs every server thread at once --
  the footnote-4 variant the paper recommends for servers with fewer
  threads than incoming messages;
* ``reply`` -- destroys the transfer and wakes the client.

Response times (request creation to reply) are recorded per port, since
Figure 7's evaluation reports both throughput and response-time ratios.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, TYPE_CHECKING

from repro.core.tickets import Currency
from repro.core.transfers import TransferHandle, transfer_funding
from repro.errors import IpcError
from repro.kernel.kernel import BLOCK
from repro.kernel.thread import ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.thread import Thread

__all__ = ["Port", "Request"]

#: Injection point for the determinism-race sanitizer (see
#: :mod:`repro.analysis.races`); assigned by ``tracker.activate()``
#: under ``REPRO_SANITIZE=1``.
_race_tracker = None  # shard: barrier-shared -- sanitizer injection point: assigned once by tracker.activate(), read-only afterwards

#: Injection point for the sharded multicore engine (see
#: :mod:`repro.shard.router`); assigned by ``ShardRouter.install()``
#: while a sharded run is executing.  Consulted on the reply/delivery
#: paths to divert wakes aimed at :class:`RemoteClient` stubs (callers
#: blocked on another core) into barrier payloads.
_shard_router = None  # shard: barrier-shared -- router injection point: assigned by ShardRouter.install() between epochs, read-only during dispatch


def _race_seam(name: str):
    """Barrier-seam context for a legal cross-kernel wake.  Entered only
    while the sanitizer's tracker is armed: unarmed, a wake pays the
    one check in front of it, not a context."""
    return _race_tracker.seam(name)


class Request:
    """One message in flight, with reply plumbing for RPCs.

    For ``call``-origin requests, ``client`` is the blocked caller and
    ``transfer`` the live ticket transfer funding the server side; for
    ``send``-origin messages both are None and ``reply`` is invalid.
    """

    __slots__ = (
        "port",
        "message",
        "client",
        "transfer",
        "transfer_fraction",
        "created_at",
        "replied_at",
        "reply_value",
        "delivery_attempts",
    )

    def __init__(self, port: "Port", message: Any,
                 client: Optional["Thread"], transfer_fraction: float = 1.0) -> None:
        self.port = port
        self.message = message
        self.client = client
        self.transfer: Optional[TransferHandle] = None
        self.transfer_fraction = transfer_fraction
        self.created_at = port.kernel.clock.now
        self.replied_at: Optional[float] = None
        self.reply_value: Any = None
        #: Deliveries so far (0 until the port hands the request on,
        #: then 1); the ``attempts`` attribute of ``ipc.rpc`` spans.
        self.delivery_attempts = 0

    @property
    def is_rpc(self) -> bool:
        """True when a client is blocked awaiting a reply."""
        return self.client is not None

    def reply(self, value: Any) -> None:
        """Complete the RPC: revoke the transfer and wake the client."""
        if self.client is None:
            raise IpcError("reply to a send-origin message")
        if self.replied_at is not None:
            raise IpcError("request already replied to")
        port = self.port
        self.replied_at = port.kernel.clock.now
        self.reply_value = value
        if self.transfer is not None:
            self.transfer.revoke()
            self.transfer = None
        port._record_response(self.replied_at - self.created_at)
        telemetry = port.kernel.telemetry
        if telemetry is not None:
            telemetry.on_ipc_reply(port, self)
        if self.client.state is ThreadState.EXITED:
            # The caller was killed (a core crash) while the RPC was
            # in flight: drop the reply on the floor.  The
            # transfer above is still revoked, so no rights leak.
            port.dead_replies += 1
            return
        # Under a sharded run the client may be a remote-caller stub
        # whose wake must travel as a barrier payload instead of a
        # direct call (a diverted wake mutates no thread).  Otherwise
        # wake via client.kernel (not port.kernel): kernels sharing an
        # engine may call each other's ports.  Crossing into the
        # client's kernel is a declared barrier seam.
        client = self.client
        router = _shard_router
        if router is not None and router.intercept_wake(client, value):
            return
        if _race_tracker is not None and _race_tracker.active:
            with _race_seam("ipc.reply"):
                client.kernel.wake(client, value)
        else:
            client.kernel.wake(client, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "rpc" if self.is_rpc else "send"
        return f"<Request {kind} port={self.port.name!r} msg={self.message!r}>"


class Port:
    """A named message queue with lottery-funded RPC semantics.

    Parameters
    ----------
    kernel:
        Owning kernel (supplies the clock, ledger, and wake operations).
    name:
        Diagnostic name.
    currency:
        Optional server currency.  When given, client transfers fund
        this currency (accelerating *all* server threads backed by it)
        instead of the single receiving thread.
    """

    def __init__(self, kernel: "Kernel", name: str,
                 currency: Optional[Currency] = None) -> None:
        self.kernel = kernel
        self.name = name
        self.currency = currency
        self._queue: Deque[Request] = deque()
        self._receivers: Deque["Thread"] = deque()
        kernel.ports.append(self)
        # -- statistics ------------------------------------------------------
        self.messages_sent = 0
        self.calls_made = 0
        self.replies_sent = 0
        #: Replies whose client had been killed while the RPC was in
        #: flight (the reply is discarded, the transfer still revoked).
        self.dead_replies = 0
        self.response_times: List[float] = []

    # -- client side --------------------------------------------------------------

    def send(self, sender: "Thread", message: Any) -> None:
        """Asynchronous message; never blocks, transfers nothing."""
        self.messages_sent += 1
        request = Request(self, message, client=None)
        telemetry = self.kernel.telemetry
        if telemetry is not None:
            telemetry.on_ipc_send(self, request, rpc=False)
        self._deliver(request)

    def call(self, client: "Thread", message: Any,
             transfer_fraction: float = 1.0) -> Any:
        """Synchronous RPC: block the client, transferring its rights.

        Returns the kernel BLOCK sentinel (the caller thread resumes
        with the reply value when the server responds).
        """
        self.calls_made += 1
        request = Request(self, message, client=client,
                          transfer_fraction=transfer_fraction)
        telemetry = self.kernel.telemetry
        if telemetry is not None:
            telemetry.on_ipc_send(self, request, rpc=True)
        if self.currency is not None:
            # Footnote-4 variant: fund the server currency immediately,
            # accelerating every thread it backs.
            request.transfer = transfer_funding(
                self.kernel.ledger, client, self.currency, transfer_fraction
            )
        self._deliver(request)
        return BLOCK

    # -- server side -----------------------------------------------------------------

    def receive(self, server: "Thread") -> Any:
        """Dequeue a message, or block until one arrives.

        Claims the pending ticket transfer of an already-queued RPC
        (paper: the transfer list checked at receive time).
        """
        if self._queue:
            request = self._queue.popleft()
            self._claim_transfer(request, server)
            return request
        self._receivers.append(server)
        return BLOCK

    # -- internals -----------------------------------------------------------------------

    def _deliver(self, request: Request) -> None:
        """Hand a request to a waiting receiver, or queue it."""
        request.delivery_attempts += 1
        if self._receivers:
            server = self._receivers.popleft()
            self._claim_transfer(request, server)
            # Wake via server.kernel (not self.kernel): receivers, like
            # clients, may live on another kernel.  Crossing into the
            # receiver's kernel is a declared barrier seam.
            router = _shard_router
            if router is not None and router.intercept_wake(server,
                                                            request):
                return
            if _race_tracker is not None and _race_tracker.active:
                with _race_seam("ipc.deliver"):
                    server.kernel.wake(server, request)
            else:
                server.kernel.wake(server, request)
        else:
            # For RPCs with no waiting server and no server currency, the
            # transfer stays latent on the request until a receive claims
            # it (the paper's pending-transfer list).
            self._queue.append(request)

    def _claim_transfer(self, request: Request, server: "Thread") -> None:
        """Attach the client's rights to the receiving server thread.

        Zero-fraction requests transfer nothing and skip the funding
        machinery entirely; cross-core calls materialized from barrier
        payloads rely on this (their :class:`RemoteClient` stubs are
        not ticket holders, and cores own separate ledgers).
        """
        if (request.client is None or self.currency is not None
                or request.transfer_fraction <= 0.0):
            return
        if request.transfer is None:
            request.transfer = transfer_funding(
                self.kernel.ledger, request.client, server,
                request.transfer_fraction,
            )
        else:
            request.transfer.retarget(server)

    def _record_response(self, elapsed: float) -> None:
        self.replies_sent += 1
        self.response_times.append(elapsed)

    # -- statistics ---------------------------------------------------------------------------

    def mean_response_time(self) -> float:
        """Average RPC response time seen on this port (ms)."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    def queue_depth(self) -> int:
        """Messages waiting for a receiver right now."""
        return len(self._queue)

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        In-flight IPC is part of the checkpointed universe: queued
        requests (message repr, caller, attempts, transfer presence),
        blocked receivers, and the per-port statistics all have to
        match between two runs of the same recipe.
        """
        def describe(request: Request) -> dict:
            return {
                "message": repr(request.message),
                "client": None if request.client is None
                else request.client.tid,
                "is_rpc": request.is_rpc,
                "transfer_fraction": request.transfer_fraction,
                "has_transfer": request.transfer is not None,
                "created_at": request.created_at,
                "delivery_attempts": request.delivery_attempts,
            }

        return {
            "name": self.name,
            "currency": self.currency.name if self.currency else None,
            "queued": [describe(r) for r in self._queue],
            "receivers": [t.tid for t in self._receivers],
            "messages_sent": self.messages_sent,
            "calls_made": self.calls_made,
            "replies_sent": self.replies_sent,
            "dead_replies": self.dead_replies,
            "responses": len(self.response_times),
            "response_time_sum": sum(self.response_times),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Port {self.name!r} queued={len(self._queue)}"
            f" receivers={len(self._receivers)}>"
        )
