"""``python -m repro.perf [ARGS]`` runs ``python3 bench/run.py [ARGS]``."""

import os
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, os.pardir, "bench", "run.py")
RUN = os.path.normpath(RUN)
if not os.path.isfile(RUN):
    sys.exit(f"python -m repro.perf: no ruler at {RUN} (bench/ ships with "
             f"the source tree, not with an installed package)")
os.execv(sys.executable, [sys.executable, RUN, *sys.argv[1:]])
