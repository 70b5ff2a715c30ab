"""Pin OpenBLAS to one thread before numpy loads.

With OpenBLAS's default thread count, the suite's small solves contend
with whatever else the host runs, so its wall time depends on host load.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before the root conftest.py could pin its threads"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
