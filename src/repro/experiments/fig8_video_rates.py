"""Figure 8: controlling video rates (paper section 5.4).

Three MPEG viewers displaying the same video are allocated tickets
A:B:C = 3:2:1; halfway through, the allocation is changed to 3:1:2.
The paper observed frame-rate ratios of 1.92:1.50:1 before the change
and 1.92:1:1.53 after (distorted from the ideal by the X server's
round-robin request processing, which our simulator does not have --
so the reproduction should land *closer* to the ideal than the paper).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.inflation import set_share
from repro.experiments.common import (ExperimentResult, build_machine,
                                      cumulative_rows)
from repro.workloads.mpeg import MpegViewer

__all__ = ["run", "main"]


def run(duration_ms: float = 300_000.0,
        before: Sequence[float] = (3, 2, 1),
        after: Sequence[float] = (3, 1, 2),
        seed: int = 777, decode_ms: float = 100.0,
        sample_every_ms: float = 10_000.0) -> ExperimentResult:
    """Reproduce Figure 8: reallocation of viewer tickets mid-run."""
    machine = build_machine(seed=seed)
    ledger = machine.ledger
    # All viewers share a "videos" currency: user-level rate control
    # among mutually trusting viewers (the application-level feedback
    # approach of [Com94] replaced by OS-level tickets).
    videos = ledger.create_currency("videos")
    ledger.create_ticket(600, fund=videos)

    unit = 100.0
    viewers: List[MpegViewer] = []
    threads = []
    for index, share in enumerate(before):
        viewer = MpegViewer(f"viewer{chr(ord('A') + index)}",
                            decode_ms=decode_ms)
        viewers.append(viewer)
        task = machine.kernel.create_task(f"mpeg-{viewer.name}")
        task.currency = videos
        threads.append(
            machine.kernel.spawn(
                viewer.body, viewer.name, task=task,
                tickets=share * unit, currency=videos,
            )
        )

    switch_at = duration_ms / 2.0

    def reallocate() -> None:
        for thread, share in zip(threads, after):
            set_share(thread, videos, share * unit)

    machine.engine.call_at(switch_at, reallocate, label="reallocate")
    machine.run_until(duration_ms)

    result = ExperimentResult(
        name="Figure 8: controlling video rates",
        params={
            "duration_ms": duration_ms,
            "before": ":".join(f"{s:g}" for s in before),
            "after": ":".join(f"{s:g}" for s in after),
            "decode_ms": decode_ms,
        },
    )
    result.rows = cumulative_rows(
        {f"{viewer.name}_frames": viewer.counter for viewer in viewers},
        duration_ms, sample_every_ms)

    def ratios(start: float, end: float) -> List[float]:
        rates = [v.frame_rate(start, end) for v in viewers]
        floor = min(r for r in rates if r > 0) if any(rates) else 1.0
        return [r / floor for r in rates]

    m = result.measures
    m.update(before=ratios(0, switch_at), after=ratios(switch_at, duration_ms))
    for when, allocated in (("before", before), ("after", after)):
        result.summary[f"frame-rate ratio {when}"] = (
            " : ".join(f"{r:.2f}" for r in m[when]) + " (allocated "
            + ":".join(f"{s:g}" for s in allocated) + ")"
        )
    for viewer in viewers:
        result.summary[f"{viewer.name} total frames"] = int(viewer.frames)
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    from repro.metrics.ascii_chart import line_chart

    result = run()
    result.print_report()
    names = [key[:-7] for key in result.rows[0] if key.endswith("_frames")]
    print()
    print(line_chart(
        {
            name: [(r["time_s"], r[f"{name}_frames"]) for r in result.rows]
            for name in names
        },
        title="Figure 8: cumulative frames (reallocation at T/2)",
        y_label="frames",
    ))


if __name__ == "__main__":  # pragma: no cover
    main()
