"""Exception hierarchy for the lottery-scheduling reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications embedding the simulator can catch a single base class.  The
subtypes mirror the paper's object model: ticket/currency bookkeeping
errors, kernel/simulation errors, and experiment configuration errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class TicketError(ReproError):
    """Invalid operation on a :class:`~repro.core.tickets.Ticket`."""


class CurrencyError(ReproError):
    """Invalid operation on a :class:`~repro.core.tickets.Currency`."""


class CurrencyCycleError(CurrencyError):
    """A funding edge would make the currency graph cyclic.

    The paper requires currency relationships to form an acyclic graph
    (section 3.3); valuation would otherwise not terminate.
    """


class InsufficientTicketsError(TicketError):
    """A transfer or deflation asked for more tickets than are held."""


class EmptyLotteryError(ReproError):
    """A lottery was held with no active tickets (zero total)."""


class KernelError(ReproError):
    """Invalid kernel operation (bad thread state, unknown port, ...)."""


class ThreadStateError(KernelError):
    """A thread transitioned between incompatible states."""


class IpcError(KernelError):
    """Invalid IPC operation (dead port, reply without request, ...)."""


class SimulationError(ReproError):
    """The discrete-event engine detected an inconsistency."""


class SchedulerError(ReproError):
    """A scheduling policy was misused (unknown thread, double add...)."""


class ShardError(ReproError):
    """The sharded multicore engine was misconfigured or misused
    (bad plan, off-grid advance, dead worker, undeclared payload)."""


class FrameCorruptError(ShardError):
    """A checksummed pipe frame failed validation (bad shape, checksum
    mismatch, or a body that does not unpickle to a dict) -- the mp
    backend treats this as a host fault and recovers the emitting
    worker."""


class ExperimentError(ReproError):
    """An experiment was configured with invalid parameters."""


class CheckpointError(ReproError):
    """A checkpoint could not be captured, written, read, or restored.

    Raised by :mod:`repro.checkpoint` for malformed or corrupted
    checkpoint files (bad schema version, checksum mismatch, unknown
    recipe) and for capture-time problems (snapshotting a system in an
    incoherent state).
    """


class DivergenceError(CheckpointError):
    """A restored run diverged from its checkpoint or reference trace.

    The message pinpoints the first mismatch: the state-tree path where
    a restored system differs from the saved tree, or the first
    (time, thread, draw) replay event that disagrees between streams.
    """


class DeterminismRaceError(ReproError):
    """Cross-owner mutation of kernel state outside a barrier seam.

    Raised by :mod:`repro.analysis.races` (the determinism-race
    sanitizer, active under ``REPRO_SANITIZE=1``) when code running in
    one kernel's execution context mutates an object owned by another
    kernel without passing through a declared barrier seam (IPC reply
    or delivery, shard barrier/migration/crash).  Such mutations
    are exactly the ones that become order-dependent -- and therefore
    break bit-exact replay -- once the engine is sharded.
    """


class InvariantViolation(ReproError):
    """A runtime invariant of the ticket/scheduling machinery failed.

    Raised by :mod:`repro.analysis.sanitizer` when ticket conservation,
    currency-graph consistency, run-queue membership, or the
    compensation-ticket lifetime is violated; the message names the
    offending thread, ticket, or currency.
    """
