"""``python -m repro.perf``: the front door to the repo's one ruler.

Host cost is measured in one place, ``python3 bench/run.py`` (the
workloads and bounds in ``BENCHMARK.json``); ``python -m repro.perf``
runs it with the arguments it was given.  The paper's section 5.6
primitives -- a draw, a currency conversion, an RPC with its ticket
transfer -- are priced as exact work counts in tier-1
(``tests/perf/test_work_counts.py``), not timed.

:mod:`repro.perf.harness` keeps the one timed loop ``bench/run.py``
records with every run: the host-speed calibration spin.
"""

__all__: list = []
