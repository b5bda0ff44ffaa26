"""Lottery-scheduled disk bandwidth (paper section 6 and footnote 7).

"A disk-based database could use lotteries to schedule disk bandwidth"
-- this module builds that substrate: a disk with a simple seek/rotate/
transfer service-time model and a request scheduler that picks, for
each service slot, the *client* whose queue to serve next.  The lottery
scheduler allocates disk bandwidth in proportion to client tickets;
FIFO and round-robin baselines ignore tickets.

The disk is engine-driven: requests arrive at virtual times, one
request is in service at a time, completion events trigger the next
scheduling decision.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.core.lottery import hold_lottery
from repro.core.prng import ParkMillerPRNG
from repro.errors import EmptyLotteryError, ReproError
from repro.sim.engine import Engine

__all__ = ["DiskRequest", "Disk", "LOTTERY", "FIFO", "ROUND_ROBIN"]

LOTTERY = "lottery"
FIFO = "fifo"
ROUND_ROBIN = "round-robin"


class DiskRequest:
    """One I/O request: client, target sector, transfer size in KB."""

    __slots__ = ("client", "sector", "size_kb", "submitted_at",
                 "started_at", "completed_at", "on_complete")

    def __init__(self, client: str, sector: int, size_kb: float,
                 submitted_at: float,
                 on_complete: Optional[Callable[["DiskRequest"], None]] = None) -> None:
        if sector < 0:
            raise ReproError(f"sector must be non-negative: {sector}")
        if size_kb <= 0:
            raise ReproError(f"transfer size must be positive: {size_kb}")
        self.client = client
        self.sector = sector
        self.size_kb = size_kb
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.on_complete = on_complete

    @property
    def response_time(self) -> Optional[float]:
        """Submission-to-completion latency (None while in flight)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at


class Disk:
    """A single-spindle disk with per-client queues and a slot scheduler.

    Service-time model: ``seek_ms_per_1000_sectors * |distance| / 1000 +
    rotational_ms + size_kb / transfer_kb_per_ms``.

    Parameters
    ----------
    engine:
        Discrete-event engine providing virtual time.
    scheduler:
        LOTTERY (ticket-proportional), FIFO, or ROUND_ROBIN.
    tickets:
        client -> ticket count (used by the lottery scheduler; clients
        absent from the map default to 1 ticket).
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: str = LOTTERY,
        tickets: Optional[Dict[str, float]] = None,
        prng: Optional[ParkMillerPRNG] = None,
        seek_ms_per_1000_sectors: float = 4.0,
        rotational_ms: float = 4.0,
        transfer_kb_per_ms: float = 20.0,
    ) -> None:
        if scheduler not in (LOTTERY, FIFO, ROUND_ROBIN):
            raise ReproError(f"unknown disk scheduler {scheduler!r}")
        self.engine = engine
        self.scheduler = scheduler
        self.tickets = dict(tickets or {})
        self.prng = prng if prng is not None else ParkMillerPRNG(1)
        self.seek_ms_per_1000_sectors = seek_ms_per_1000_sectors
        self.rotational_ms = rotational_ms
        self.transfer_kb_per_ms = transfer_kb_per_ms

        self._queues: Dict[str, Deque[DiskRequest]] = {}
        self._fifo: Deque[DiskRequest] = deque()
        self._rr_order: Deque[str] = deque()
        self._head_sector = 0
        self._busy = False

        # -- statistics --------------------------------------------------------
        self.completed: Dict[str, List[DiskRequest]] = {}
        self.bytes_served: Dict[str, float] = {}
        self.busy_time = 0.0

    # -- client API -----------------------------------------------------------------

    def set_tickets(self, client: str, amount: float) -> None:
        """(Re)assign a client's disk tickets."""
        if amount < 0:
            raise ReproError(f"ticket amount must be non-negative: {amount}")
        self.tickets[client] = amount

    def submit(self, client: str, sector: int, size_kb: float,
               on_complete: Optional[Callable[[DiskRequest], None]] = None
               ) -> DiskRequest:
        """Queue a request; service begins immediately if the disk is idle."""
        request = DiskRequest(client, sector, size_kb, self.engine.now, on_complete)
        queue = self._queues.setdefault(client, deque())
        if not queue and client not in self._rr_order:
            self._rr_order.append(client)
        queue.append(request)
        self._fifo.append(request)
        if not self._busy:
            self._start_next()
        return request

    def pending(self) -> int:
        """Requests queued but not yet completed."""
        return sum(len(q) for q in self._queues.values()) + (1 if self._busy else 0)

    # -- scheduling -------------------------------------------------------------------

    def _pick_request(self) -> Optional[DiskRequest]:
        nonempty = [c for c, q in self._queues.items() if q]
        if not nonempty:
            return None
        if self.scheduler == FIFO:
            while self._fifo and self._fifo[0].started_at is not None:
                self._fifo.popleft()
            request = self._fifo.popleft()
            self._queues[request.client].remove(request)
            return request
        if self.scheduler == ROUND_ROBIN:
            while True:
                client = self._rr_order.popleft()
                if self._queues.get(client):
                    self._rr_order.append(client)
                    return self._queues[client].popleft()
                # Client drained: drop from rotation.
        # LOTTERY: pick the client in proportion to tickets.
        entries = [(c, self.tickets.get(c, 1.0)) for c in nonempty]
        try:
            client = hold_lottery(entries, self.prng)
        except EmptyLotteryError:
            client = nonempty[0]
        return self._queues[client].popleft()

    def _service_time(self, request: DiskRequest) -> float:
        distance = abs(request.sector - self._head_sector)
        seek = self.seek_ms_per_1000_sectors * distance / 1000.0
        transfer = request.size_kb / self.transfer_kb_per_ms
        return seek + self.rotational_ms + transfer

    def _start_next(self) -> None:
        request = self._pick_request()
        if request is None:
            self._busy = False
            return
        self._busy = True
        request.started_at = self.engine.now
        service = self._service_time(request)
        self._head_sector = request.sector
        self.engine.call_after(
            service, lambda r=request, s=service: self._complete(r, s),
            label="disk-complete",
        )

    def _complete(self, request: DiskRequest, service: float) -> None:
        request.completed_at = self.engine.now
        self.busy_time += service
        self.completed.setdefault(request.client, []).append(request)
        self.bytes_served[request.client] = (
            self.bytes_served.get(request.client, 0.0) + request.size_kb
        )
        if request.on_complete is not None:
            request.on_complete(request)
        self._start_next()

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        Captures the head position, per-client queues (by sector/size),
        the PRNG stream position, and the service statistics.
        """
        def describe(request: DiskRequest) -> dict:
            return {
                "client": request.client,
                "sector": request.sector,
                "size_kb": request.size_kb,
                "submitted_at": request.submitted_at,
            }

        return {
            "scheduler": self.scheduler,
            "prng": self.prng.snapshot_state(),
            "tickets": dict(sorted(self.tickets.items())),
            "head_sector": self._head_sector,
            "busy": self._busy,
            "busy_time": self.busy_time,
            "queues": {client: [describe(r) for r in queue]
                       for client, queue in sorted(self._queues.items())},
            "rr_order": list(self._rr_order),
            "completed": {client: len(done)
                          for client, done in sorted(self.completed.items())},
            "bytes_served": dict(sorted(self.bytes_served.items())),
        }

    # -- statistics -----------------------------------------------------------------------

    def throughput_kb(self, client: str) -> float:
        """Total KB served to a client."""
        return self.bytes_served.get(client, 0.0)

    def mean_response_time(self, client: str) -> float:
        """Average submission-to-completion latency for a client (ms)."""
        done = self.completed.get(client, [])
        if not done:
            return 0.0
        return sum(r.response_time for r in done) / len(done)
