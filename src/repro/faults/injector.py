"""The fault injector: applies a :class:`FaultPlan` through seams.

The injector never monkey-patches.  Every fault kind maps onto an
explicit seam the target components expose:

=============  ==========================================================
Fault          Seam
=============  ==========================================================
thread-kill    :meth:`repro.kernel.kernel.Kernel.kill`
clock-skew     ``Kernel.quantum_jitter`` (quantum-mapping callable)
timer-jitter   ``Kernel.quantum_jitter`` with a seeded noise stream
ipc-drop       ``Kernel.ipc_faults`` (:class:`IpcFaultModel`) consulted
               by ``Port._deliver_or_queue``
ipc-delay      ``Kernel.ipc_faults`` likewise
disk-errors    ``Disk.fault_policy`` consulted by ``Disk._complete``
=============  ==========================================================

Arming registers one engine callback per plan event, so faults fire at
exact virtual times interleaved deterministically with the workload.
Every application is appended to :attr:`FaultInjector.applied` as a
``(time, description)`` pair -- two runs of the same seeded system
under the same plan produce identical logs, which is what the
determinism tests assert.

Faults that cannot apply (killing an already-exited thread) are
recorded as skipped rather than raised:
a chaos schedule races the workload by design, and e.g. the target
thread finishing first is a legitimate outcome, not a planning error.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.prng import ParkMillerPRNG
from repro.errors import FaultError, ReproError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.kernel.kernel import Kernel
from repro.sim.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.iosched.disk import Disk, DiskRequest
    from repro.kernel.ipc import Port, Request
    from repro.kernel.thread import Thread

__all__ = ["IpcFaultModel", "FaultInjector"]

_EPS = 1e-9


class IpcFaultModel:
    """Per-kernel message drop/delay decisions during a fault window.

    Installed on ``Kernel.ipc_faults`` by the injector;
    ``Port._deliver_or_queue`` calls :meth:`intercept` before every
    delivery.  Decisions draw from a dedicated Park-Miller stream, so
    they replay exactly.

    Dropped messages are retransmitted with the bounded exponential
    backoff of ``retry``; an RPC whose attempts are exhausted is
    delivered anyway (after one final backoff) so its blocked client is
    never stranded, while an exhausted asynchronous send is lost for
    good (counted in :attr:`messages_lost`).
    """

    def __init__(self, prng: ParkMillerPRNG, drop_rate: float = 0.0,
                 delay_ms: float = 0.0, jitter_ms: float = 0.0,
                 port: Optional[str] = None,
                 retry: Optional[RetryPolicy] = None) -> None:
        self._prng = prng
        self.drop_rate = drop_rate
        self.delay_ms = delay_ms
        self.jitter_ms = jitter_ms
        self.port = port
        self.retry = retry if retry is not None else RetryPolicy()
        # -- statistics ------------------------------------------------------
        self.dropped = 0
        self.retransmitted = 0
        self.forced_deliveries = 0
        self.messages_lost = 0
        self.delayed = 0

    def intercept(self, port: "Port", request: "Request") -> bool:
        """True when this model consumed the delivery.

        The port must then *not* deliver; the model either lost the
        message or scheduled a future ``_deliver_now``/retransmission.
        """
        if self.port is not None and port.name != self.port:
            return False
        engine = port.kernel.engine
        if self.drop_rate > 0 and self._prng.uniform() < self.drop_rate:
            self.dropped += 1
            attempt = request.delivery_attempts + 1
            request.delivery_attempts = attempt
            backoff = self.retry.delay_for(min(attempt,
                                               self.retry.max_attempts))
            telemetry = getattr(port.kernel, "telemetry", None)
            if attempt < self.retry.max_attempts:
                # Retransmit through the fault check again: a retry can
                # itself be dropped, like a real lossy link.
                self.retransmitted += 1
                if telemetry is not None:
                    telemetry.on_ipc_retransmit(port, request, backoff,
                                                forced=False)
                engine.call_after(
                    backoff, lambda: port._deliver_or_queue(request),
                    label="ipc-retransmit",
                )
            elif request.is_rpc:
                # Never strand a blocked RPC client: force the final
                # delivery past the fault window's dice.
                self.forced_deliveries += 1
                if telemetry is not None:
                    telemetry.on_ipc_retransmit(port, request, backoff,
                                                forced=True)
                engine.call_after(
                    backoff, lambda: port._deliver_now(request),
                    label="ipc-forced-delivery",
                )
            else:
                self.messages_lost += 1
            return True
        if self.delay_ms > 0 or self.jitter_ms > 0:
            delay = self.delay_ms + self.jitter_ms * self._prng.uniform()
            self.delayed += 1
            engine.call_after(delay, lambda: port._deliver_now(request),
                              label="ipc-delay")
            return True
        return False


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live simulated system.

    Parameters
    ----------
    plan:
        The fault schedule.
    kernels:
        Named kernels the events target, e.g. ``{"kernel": kernel}``.
    disks:
        Named disks for ``disk-errors`` events.
    engine:
        The event loop the faults fire on.
    """

    def __init__(self, plan: FaultPlan,
                 kernels: Optional[Dict[str, Kernel]] = None,
                 disks: Optional[Dict[str, "Disk"]] = None,
                 engine: Optional[Engine] = None) -> None:
        self.plan = plan
        self.kernels: Dict[str, Kernel] = dict(kernels or {})
        self.disks: Dict[str, "Disk"] = dict(disks or {})
        if engine is None:
            raise FaultError("injector needs an engine")
        self.engine = engine
        #: (virtual time, description) per applied (or skipped) fault.
        self.applied: List[Tuple[float, str]] = []
        self._prng = ParkMillerPRNG(plan.seed).spawn()
        self._armed = False

    # -- arming --------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Schedule every plan event on the engine (idempotence guarded)."""
        if self._armed:
            raise FaultError("injector is already armed")
        self._armed = True
        for event in self.plan:
            self.engine.call_at(
                event.time, lambda e=event: self._apply(e),
                label=f"fault:{event.kind}",
            )
        return self

    # -- application ---------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        handler = self._HANDLERS[event.kind]
        try:
            detail = handler(self, event)
        except FaultError:
            # Misconfiguration (unknown target): fail loud.
            raise
        except ReproError as exc:
            # A fault that lost its race is a legitimate chaos outcome;
            # record it instead of blowing up the engine loop.
            detail = f"skipped: {exc}"
        self.applied.append(
            (self.engine.now, f"{event.describe(with_time=False)} [{detail}]")
        )

    def _kernel(self, name: str) -> Kernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise FaultError(
                f"unknown kernel target {name!r}; have "
                f"{sorted(self.kernels)}"
            ) from None

    def _disk(self, name: str) -> "Disk":
        try:
            return self.disks[name]
        except KeyError:
            raise FaultError(
                f"unknown disk target {name!r}; have {sorted(self.disks)}"
            ) from None

    def _find_thread(self, name: str) -> Optional["Thread"]:
        for kernel in self.kernels.values():
            for thread in kernel.threads:
                if thread.name == name and thread.alive:
                    return thread
        return None

    # -- per-kind handlers ---------------------------------------------------

    def _apply_thread_kill(self, event: FaultEvent) -> str:
        thread = self._find_thread(event.target)
        if thread is None:
            return "skipped: no live thread by that name"
        thread.kernel.kill(thread)
        return "killed"

    def _install_quantum_map(self, kernel: Kernel,
                             mapper: Callable[[float], float],
                             duration: float) -> None:
        kernel.quantum_jitter = mapper

        def clear() -> None:
            # Only clear our own window; a later overlapping window may
            # have replaced the mapper already.
            if kernel.quantum_jitter is mapper:
                kernel.quantum_jitter = None

        self.engine.call_after(duration, clear, label="fault-window-end")

    def _apply_clock_skew(self, event: FaultEvent) -> str:
        kernel = self._kernel(event.target)
        factor = event.params["factor"]
        self._install_quantum_map(
            kernel, lambda quantum: quantum * factor, event.params["duration"]
        )
        return f"quantum x{factor:g} for {event.params['duration']:g}ms"

    def _apply_timer_jitter(self, event: FaultEvent) -> str:
        kernel = self._kernel(event.target)
        amplitude = event.params["amplitude_ms"]
        noise = self._prng.spawn()

        def jitter(quantum: float) -> float:
            return max(_EPS, quantum + (noise.uniform() * 2 - 1) * amplitude)

        self._install_quantum_map(kernel, jitter, event.params["duration"])
        return (f"quantum +/-{amplitude:g}ms for "
                f"{event.params['duration']:g}ms")

    def _install_ipc_model(self, kernel: Kernel, model: IpcFaultModel,
                           duration: float) -> None:
        kernel.ipc_faults = model

        def clear() -> None:
            if kernel.ipc_faults is model:
                kernel.ipc_faults = None

        self.engine.call_after(duration, clear, label="fault-window-end")

    def _apply_ipc_drop(self, event: FaultEvent) -> str:
        kernel = self._kernel(event.target)
        model = IpcFaultModel(
            self._prng.spawn(),
            drop_rate=event.params["drop_rate"],
            port=event.params.get("port"),
            retry=RetryPolicy(max_attempts=event.params["max_attempts"]),
        )
        self._install_ipc_model(kernel, model, event.params["duration"])
        return (f"drop_rate={event.params['drop_rate']:g} for "
                f"{event.params['duration']:g}ms")

    def _apply_ipc_delay(self, event: FaultEvent) -> str:
        kernel = self._kernel(event.target)
        model = IpcFaultModel(
            self._prng.spawn(),
            delay_ms=event.params["delay_ms"],
            jitter_ms=event.params["jitter_ms"],
            port=event.params.get("port"),
        )
        self._install_ipc_model(kernel, model, event.params["duration"])
        return (f"delay={event.params['delay_ms']:g}ms for "
                f"{event.params['duration']:g}ms")

    def _apply_disk_errors(self, event: FaultEvent) -> str:
        disk = self._disk(event.target)
        rate = event.params["error_rate"]
        dice = self._prng.spawn()

        def fail(request: "DiskRequest") -> bool:
            return dice.uniform() < rate

        disk.fault_policy = fail

        def clear() -> None:
            if disk.fault_policy is fail:
                disk.fault_policy = None

        self.engine.call_after(event.params["duration"], clear,
                               label="fault-window-end")
        return (f"error_rate={rate:g} for {event.params['duration']:g}ms")

    _HANDLERS: Dict[str, Callable[["FaultInjector", FaultEvent], str]] = {
        FaultKind.THREAD_KILL: _apply_thread_kill,
        FaultKind.CLOCK_SKEW: _apply_clock_skew,
        FaultKind.TIMER_JITTER: _apply_timer_jitter,
        FaultKind.IPC_DROP: _apply_ipc_drop,
        FaultKind.IPC_DELAY: _apply_ipc_delay,
        FaultKind.DISK_ERRORS: _apply_disk_errors,
    }

    # -- reporting -----------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Typed state tree for checkpointing (see ``repro.checkpoint``).

        Captures the plan digest, the injector's own PRNG position (the
        stream that seeds per-fault noise generators), the armed flag,
        and the full application log.
        """
        return {
            "plan": self.plan.to_dict(),
            "prng": self._prng.snapshot_state(),
            "armed": self._armed,
            "applied": [{"time": time, "detail": text}
                        for time, text in self.applied],
        }

    def applied_log(self) -> List[str]:
        """Stable rendering of every applied fault (for comparisons)."""
        return [f"t={time:g} {text}" for time, text in self.applied]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultInjector events={len(self.plan)} "
                f"applied={len(self.applied)} armed={self._armed}>")
