"""Experiment drivers: one module per paper figure/table plus ablations.

========================  =====================================================
Module                    Reproduces
========================  =====================================================
fig1_walkthrough          Figure 1 -- the list-lottery walk, step by step
fig4_rate_accuracy        Figure 4 -- observed vs allocated rate ratios
fig5_fairness_over_time   Figure 5 -- 2:1 fairness over 8 s windows
fig6_montecarlo           Figure 6 -- error-driven ticket inflation
fig7_query_rates          Figure 7 -- 8:3:1 client-server RPC transfers
fig8_video_rates          Figure 8 -- MPEG viewer reallocation 3:2:1 -> 3:1:2
fig9_load_insulation      Figure 9 -- currency load insulation
fig11_mutex               Figures 10/11 -- lottery-scheduled mutex
overhead                  Section 5.6 -- scheduling overhead comparison
inverse_memory            Section 6.2 -- inverse-lottery page replacement
paging_runtime            Section 6.2 end-to-end -- paging policy vs runtime
quantum_sweep             Section 2.2 -- quantum size vs sub-second fairness
multiresource             Section 6.3 -- manager threads over CPU+disk budgets
cluster_fairness          Section 4.2 hint -- distributed lottery scheduling
chaos_fairness            Extension -- fairness reconvergence under faults
shard_observability       Extension -- one observability truth per backend
diverse_resources         Section 6 -- disk and virtual-circuit lotteries
responsiveness            Sections 1/3.4 -- interactive latency under load
service_classes           Section 5.4 note -- job-stream service classes
ablations                 A2 CV law, A3 lottery-vs-stride, A4 compensation
========================  =====================================================
"""

from repro._exports import lazy_exports

__all__ = [
    "ExperimentResult",
    "Machine",
    "ablations",
    "chaos_fairness",
    "cluster_fairness",
    "build_machine",
    "diverse_resources",
    "fig1_walkthrough",
    "fig4_rate_accuracy",
    "fig5_fairness_over_time",
    "fig6_montecarlo",
    "fig7_query_rates",
    "fig8_video_rates",
    "fig9_load_insulation",
    "fig11_mutex",
    "inverse_memory",
    "multiresource",
    "overhead",
    "paging_runtime",
    "quantum_sweep",
    "responsiveness",
    "service_classes",
    "shard_observability",
]

__getattr__ = lazy_exports(globals(), {
    "ExperimentResult": ".common", "Machine": ".common",
    "build_machine": ".common",
})
