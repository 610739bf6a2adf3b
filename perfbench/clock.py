"""Timings scaled to a reference machine speed.

On a shared 2-CPU Intel Xeon (2.1 GHz) virtual machine, the whole machine
runs at one of a few speeds that change every 10-40 seconds: a fixed loop
takes 1.15 ms, 1.6 ms or 1.8 ms depending on what else the host runs. That moves every raw timing
of a run together by up to 1.6x, far more than any bound a regression gate
can use. The benchmark therefore times a fixed probe between units of work
and scales each timing by (reference probe time) / (recent probe time).
The probes touch no lsner code, so a change to lsner moves the scaled
timings as it moves the raw ones, while a slow spell of the machine
cancels out. The raw medians are printed next to the scaled ones.

Two probes exist because the slow spells hit interpreter-bound and
memory-bound code differently: over a minute of measurements, 20k-vocabulary
training steps and checkpoint loads varied by about 8% relative to the
memory probe but by 25-30% relative to the interpreter probe. Sampling,
evaluation and tagging spread more when scaled by the memory probe, so a
workload names the phases that use it.
"""

import statistics
import time

import numpy as np

# round values near each probe's time on an uncontended 2-CPU Intel Xeon
# at 2.1 GHz (0.8-0.9 ms and 6-8 ms)
REFERENCE_S = {"interpreter": 0.001, "memory": 0.007}
PROBE_EVERY_S = 0.2
PROBE_WINDOW = 5


def interpreter_probe():
    """Interpreter work and small numpy calls, like lsner's inner loops."""
    acc = 0
    table = {}
    for i in range(3000):
        acc += i * i
        table[i & 63] = acc
    x = np.ones((8, 32))
    eye = np.eye(32)
    for _ in range(300):
        x = x @ eye + 1.0
    return acc, x


class _MemoryProbe:
    """Streams two 20 MB arrays, like a 20k x 128 embedding update."""

    def __init__(self):
        self.a = np.ones((20000, 128))
        self.b = np.ones((20000, 128))

    def __call__(self):
        out = self.a * 0.999
        out += self.b
        return out


class ScaledClock:
    """Keeps a rolling window of times for each probe and scales timings by it."""

    def __init__(self, kinds=("interpreter",)):
        self.probes = {kind: interpreter_probe if kind == "interpreter" else _MemoryProbe()
                       for kind in kinds}
        self.times = {kind: [] for kind in kinds}
        self._last = float("-inf")

    def tick(self):
        """Run every probe when the last run is older than PROBE_EVERY_S."""
        if time.perf_counter() - self._last < PROBE_EVERY_S:
            return
        for kind, probe in self.probes.items():
            start = time.perf_counter()
            probe()
            times = self.times[kind]
            times.append(time.perf_counter() - start)
            del times[:-PROBE_WINDOW]
        self._last = time.perf_counter()

    def factor(self, kind="interpreter"):
        """Multiply a raw duration by this to get reference-speed seconds."""
        return REFERENCE_S[kind] / statistics.median(self.times[kind])
