"""Figure 7: client-server query processing rates (paper section 5.3).

Three clients with an 8:3:1 ticket allocation send substring-search
queries to a multithreaded, ticketless server over synchronous RPC;
client tickets ride along on each call (section 4.6's modified
mach_msg).  The paper's high-funded client issues 20 queries and then
terminates; when it finished, the 3:1 clients had completed about 10
requests between them, and the overall throughput ratio was
7.69 : 2.51 : 1 with response times 17.19, 43.19, 132.20 s (1 : 2.51 :
7.69).
"""

from __future__ import annotations

from repro.experiments.common import (ExperimentResult, build_machine,
                                      cumulative_rows)
from repro.workloads.database import DatabaseClient, DatabaseServer

__all__ = ["run", "main"]


def run(duration_ms: float = 800_000.0, allocation=(8, 3, 1),
        high_client_queries: int = 20, corpus_kb: float = 4600.0,
        scan_ms_per_kb: float = 2.0, workers: int = 3, seed: int = 5151,
        sample_every_ms: float = 20_000.0) -> ExperimentResult:
    """Reproduce Figure 7: 8:3:1 clients against the search server.

    The scan cost is calibrated so one query costs ~9.2 s of dedicated
    CPU -- the same magnitude as the paper's ~15 s responses on the
    25 MHz DECStation -- which keeps the high-funded client active for
    most of the run, as in the original experiment.
    """
    machine = build_machine(seed=seed)
    server = DatabaseServer(
        machine.kernel, workers=workers, corpus_kb=corpus_kb,
        scan_ms_per_kb=scan_ms_per_kb,
    )
    unit = 100.0
    client_a = DatabaseClient(
        machine.kernel, server, "A", tickets=allocation[0] * unit,
        max_queries=high_client_queries,
    )
    client_b = DatabaseClient(
        machine.kernel, server, "B", tickets=allocation[1] * unit
    )
    client_c = DatabaseClient(
        machine.kernel, server, "C", tickets=allocation[2] * unit
    )
    machine.run_until(duration_ms)

    result = ExperimentResult(
        name="Figure 7: query processing rates (8:3:1 ticket transfer)",
        params={
            "duration_ms": duration_ms,
            "allocation": ":".join(str(a) for a in allocation),
            "high_client_queries": high_client_queries,
            "corpus_kb": corpus_kb,
            "workers": workers,
        },
    )
    result.rows = cumulative_rows(
        {f"{client.name}_queries": client.counter
         for client in (client_a, client_b, client_c)},
        duration_ms, sample_every_ms)

    # When the high-funded client finished its 20 queries, how far were
    # the others (the paper: "the other clients have completed a total
    # of 10 requests")?
    a_done_time = (
        client_a.completions[-1][0] if (
            high_client_queries
            and client_a.completed >= high_client_queries
        ) else None
    )
    if a_done_time is not None:
        others = client_b.counter.total_until(a_done_time) + (
            client_c.counter.total_until(a_done_time)
        )
        result.summary["A finished at (s)"] = f"{a_done_time / 1000.0:.1f}"
        result.summary["B+C queries when A finished"] = int(others)

    m = result.measures
    m["bc_allocated"] = allocation[1] / allocation[2]
    if client_c.completed:
        m["bc_ratio"] = client_b.completed / client_c.completed
        result.summary["B:C throughput ratio"] = (
            f"{m['bc_ratio']:.2f} : 1 (allocated 3 : 1)"
        )

    # Response-time ratios are only meaningful while all three compete,
    # so restrict every client to queries completed before A finished.
    window_end = a_done_time if a_done_time is not None else duration_ms

    def windowed_mean_response(client: DatabaseClient) -> float:
        # Window by *issue* time (t - r), not completion time: windowing
        # on completion would drop the slow in-flight queries of poorly
        # funded clients and bias their means low (survivor bias).
        values = [r for (t, r) in client.completions if t - r <= window_end]
        return sum(values) / len(values) if values else 0.0

    responses = [
        windowed_mean_response(client_a),
        windowed_mean_response(client_b),
        windowed_mean_response(client_c),
    ]
    result.summary["mean response times while contended (ms)"] = (
        f"A={responses[0]:.0f}, B={responses[1]:.0f}, C={responses[2]:.0f}"
    )
    if responses[0] > 0 and responses[1] > 0 and responses[2] > 0:
        ratio = m["response_ratio"] = [r / responses[0] for r in responses]
        result.summary["response time ratio"] = (
            f"1 : {ratio[1]:.2f} : {ratio[2]:.2f} (allocated 1 : 8/3 : 8;"
            " paper observed 1 : 2.51 : 7.69)"
        )
    m["query_results"] = sorted(set(client_b.results))
    result.summary["query result (occurrences)"] = (
        f"{m['query_results']} (corpus plants 8)"
    )
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    run().print_report()


if __name__ == "__main__":  # pragma: no cover
    main()
