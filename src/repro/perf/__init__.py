"""``python -m repro.perf``: the front door to the repo's one ruler.

Host cost is measured in one place, ``python3 bench/run.py`` (the
workloads and bounds in ``BENCHMARK.json``); ``python -m repro.perf``
runs it with the arguments it was given.  The paper's section 5.6
primitives -- a draw, a currency conversion, an RPC with its ticket
transfer, a dispatch -- are priced as exact work counts by
:func:`count_work` (``tests/perf/test_work_counts.py``), not timed.

:mod:`repro.perf.harness` keeps the one timed loop ``bench/run.py``
records with every run: the host-speed calibration spin.
"""

import gc
import sys
from collections import Counter

__all__ = ["count_work"]


def count_work(run, *args, lines=False, within=None, qualname=False):
    """Call ``run(*args)`` and count the Python-level work it does.

    Calls are counted through ``sys.setprofile``, by ``co_name`` (by
    ``co_qualname`` with ``qualname``), only in files whose path
    contains ``within`` when that is given.  With ``lines``, line events
    are counted too, through ``sys.settrace``: a loop inside one frame
    is invisible to the call count.  Whatever profiler and tracer were
    installed are put back.  Returns ``(calls, line_events)``.

    The count is a pure function of the code under ``run``: garbage
    left by earlier code is collected first, and the cyclic collector
    is paused while ``run`` runs (then restored as found), so no
    finalizer of an unrelated object -- ``MpBackend.__del__``, say --
    is counted with it.
    """
    calls = Counter()
    line_events = [0]
    attribute = "co_qualname" if qualname else "co_name"

    def profile(frame, event, arg):
        if event == "call" and (within is None
                                or within in frame.f_code.co_filename):
            calls[getattr(frame.f_code, attribute)] += 1

    def local(frame, event, arg):
        if event == "line":
            line_events[0] += 1
        return local

    previous = sys.getprofile(), sys.gettrace()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    if lines:
        sys.settrace(lambda frame, event, arg: local)
    try:
        run(*args)
    finally:
        sys.settrace(previous[1])
        sys.setprofile(previous[0])
        if collecting:
            gc.enable()
    return calls, line_events[0]
