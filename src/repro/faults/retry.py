"""Deterministic recovery primitives: bounded retry with backoff.

Every retry in the reproduction is driven by the discrete-event
engine's *virtual* clock -- never ``time.sleep``, never wall time (lint
rule RPR006 enforces this).  A :class:`RetryPolicy` is pure data
(attempt cap, exponential backoff schedule, optional deadline); its
``delay_for`` is a pure function of the attempt number, so a retried
operation perturbs the simulation identically on every run.

Two drivers are provided:

* :func:`execute_with_retry` -- generic: call ``operation()`` now and,
  while it returns falsy, again after exponentially growing virtual
  delays.  The operation can return :data:`ABORT` to stop retrying when
  further attempts cannot succeed (e.g. its target is gone for good).
* :func:`disk_submit_with_retry` -- resubmit a disk request whose
  completion was failed by an injected I/O-error window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import FaultError
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.iosched.disk import Disk, DiskRequest

__all__ = ["ABORT", "RetryPolicy", "RetryState", "execute_with_retry",
           "disk_submit_with_retry"]

#: Sentinel an operation may return to stop retrying immediately
#: (retrying cannot succeed; distinct from transient falsy failure).
ABORT = object()


@dataclass(frozen=True)
class RetryPolicy:
    """A bounded exponential-backoff schedule (virtual milliseconds).

    Attempt ``k`` (1-based) that fails is retried after
    ``min(base_delay_ms * backoff_factor**(k-1), max_delay_ms)``,
    up to ``max_attempts`` total attempts; ``timeout_ms`` (when set)
    additionally bounds the total virtual time spent retrying.
    """

    max_attempts: int = 4
    base_delay_ms: float = 50.0
    backoff_factor: float = 2.0
    max_delay_ms: float = 5_000.0
    timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_delay_ms <= 0:
            raise FaultError(
                f"base_delay_ms must be positive: {self.base_delay_ms}")
        if self.backoff_factor < 1:
            raise FaultError(
                f"backoff_factor must be >= 1: {self.backoff_factor}")
        if self.max_delay_ms < self.base_delay_ms:
            raise FaultError("max_delay_ms must be >= base_delay_ms")
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise FaultError(f"timeout_ms must be positive: {self.timeout_ms}")

    def delay_for(self, attempt: int) -> float:
        """Backoff after the ``attempt``-th failure (1-based), in ms."""
        if attempt < 1:
            raise FaultError(f"attempt is 1-based: {attempt}")
        return min(self.base_delay_ms * self.backoff_factor ** (attempt - 1),
                   self.max_delay_ms)


class RetryState:
    """Mutable progress record returned by the retry drivers."""

    __slots__ = ("attempts", "succeeded", "gave_up", "aborted",
                 "started_at", "finished_at")

    def __init__(self, started_at: float) -> None:
        self.attempts = 0
        self.succeeded = False
        self.gave_up = False
        self.aborted = False
        self.started_at = started_at
        self.finished_at: Optional[float] = None

    @property
    def finished(self) -> bool:
        """True once the operation succeeded, aborted, or gave up."""
        return self.succeeded or self.gave_up or self.aborted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        verdict = ("succeeded" if self.succeeded
                   else "aborted" if self.aborted
                   else "gave-up" if self.gave_up else "pending")
        return f"<RetryState attempts={self.attempts} {verdict}>"


def execute_with_retry(
    engine: Engine,
    operation: Callable[[], Any],
    policy: Optional[RetryPolicy] = None,
    label: str = "retry",
    on_success: Optional[Callable[[RetryState], None]] = None,
    on_give_up: Optional[Callable[[RetryState], None]] = None,
) -> RetryState:
    """Run ``operation`` now, retrying failures with virtual backoff.

    ``operation()`` returning truthy means success; falsy means a
    transient failure (retried while attempts and the deadline allow);
    :data:`ABORT` means permanent failure (stop immediately).  The
    first attempt runs synchronously; later attempts are engine events,
    so callers must keep the engine running to see them.  Returns the
    live :class:`RetryState` (inspect it after the engine advances).
    """
    policy = policy if policy is not None else RetryPolicy()
    state = RetryState(started_at=engine.now)

    def finish(verdict: str) -> None:
        setattr(state, verdict, True)
        state.finished_at = engine.now
        callback = on_success if verdict == "succeeded" else on_give_up
        if callback is not None:
            callback(state)

    def attempt() -> None:
        state.attempts += 1
        outcome = operation()
        if outcome is ABORT:
            finish("aborted")
            return
        if outcome:
            finish("succeeded")
            return
        if state.attempts >= policy.max_attempts:
            finish("gave_up")
            return
        delay = policy.delay_for(state.attempts)
        if policy.timeout_ms is not None and \
                engine.now - state.started_at + delay > policy.timeout_ms:
            finish("gave_up")
            return
        engine.call_after(delay, attempt, label=label)

    attempt()
    return state


def disk_submit_with_retry(
    disk: "Disk",
    client: str,
    sector: int,
    size_kb: float,
    policy: Optional[RetryPolicy] = None,
    on_complete: Optional[Callable[["DiskRequest"], None]] = None,
) -> RetryState:
    """Submit a disk request, resubmitting after injected I/O errors.

    Each failed completion (``request.failed``) counts as one attempt
    and schedules a resubmission after the policy's backoff; the final
    outcome (successful request, or the last failed one once attempts
    are exhausted) is passed to ``on_complete``.
    """
    policy = policy if policy is not None else RetryPolicy()
    state = RetryState(started_at=disk.engine.now)

    def completed(request: "DiskRequest") -> None:
        state.attempts += 1
        if not request.failed:
            state.succeeded = True
            state.finished_at = disk.engine.now
            if on_complete is not None:
                on_complete(request)
            return
        if state.attempts >= policy.max_attempts:
            state.gave_up = True
            state.finished_at = disk.engine.now
            if on_complete is not None:
                on_complete(request)
            return
        disk.engine.call_after(
            policy.delay_for(state.attempts),
            lambda: disk.submit(client, sector, size_kb, completed),
            label="disk-retry",
        )

    disk.submit(client, sector, size_kb, completed)
    return state
