"""Fixed jobs that run no phasescope code, timed next to each operation.

The host's speed drifts by up to a half within minutes, so each timing
metric is the median over a run of operation time divided by the time of a
reference job, in units of the job's time on an idle host: JOB in a fresh
interpreter just before each CLI operation, and IN_PROCESS_JOB in the
running interpreter just before and just after each in-process hier-corpus
operation (their mean).
"""

from __future__ import annotations

import time

# streams its rows, so that it adds little to a child's peak memory
JOB = """
import numpy as np
table = {}
for i in range(60_000):
    kind, block, cycles = f"E {i % 512} {i * 0.37:.3f}".split()
    table[int(block)] = table.get(int(block), 0.0) + float(cycles)
values = np.random.default_rng(0).random(300_000)
values.sort()
"""

# many small numpy calls and dict updates, the kind of work a hier-corpus
# operation does per segment, so that it slows down with that work when the
# host does
IN_PROCESS_JOB = """
import numpy as np
rng = np.random.default_rng(0)
table = {}
for i in range(2000):
    x = rng.random(257)
    spectrum = np.abs(np.fft.rfft(x - x.mean()))
    peak = int(np.argmax(spectrum[1:])) + 1
    table[i % 97] = table.get(i % 97, 0.0) + float(spectrum[peak]) + float(np.median(x))
"""

#: idle-host time of JOB in a fresh interpreter (2-vCPU Xeon VM)
SUBPROCESS_S = 0.4
#: idle-host time of IN_PROCESS_JOB in an interpreter that has imported numpy
IN_PROCESS_S = 0.19


def time_in_process() -> float:
    """Seconds to run IN_PROCESS_JOB in this interpreter."""
    start = time.perf_counter()
    exec(IN_PROCESS_JOB, {})
    return time.perf_counter() - start
