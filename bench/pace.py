"""Speed probes: op times expressed at a fixed reference speed of the machine.

The shared machines this benchmark runs on change speed by up to 1.7x within
seconds, as other tenants come and go, and CPU time drifts exactly as wall
time does.  So the runner times a fixed probe, which does not touch
th_fredholm, right before every op and once after the last one.  Each op's
wall time is then multiplied by the probe's reference time over the median
probe time around that op: the time the op would take on a machine where
the probe takes its reference time.

There are two probes, each matched to the work it scales:

- "kernel": a pure-Python loop plus one FFT round trip of 2^16 points, the
  interpreter-bound and memory-bound kinds of work the in-process ops do.
  Of the kernels tried it tracked all three in-process workloads best.  It
  runs in the benchmark's own process: run in a helper process it did not
  track the ops at all, likely because the helper ran on the other core.
- "process": a fresh `python -c "import numpy"`, for work that is mostly
  starting an interpreter and importing: cli_cold's ops and the set-up
  imports.  The kernel tracked those poorly.

The raw wall times and the probe median are printed on the `# detail` line
next to the scaled figures.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

# reference time of each probe: about its median on a 2-core shared x86-64
# host with Python 3.11 and numpy 2.4
KERNEL_REFERENCE_S = 0.005
PROCESS_REFERENCE_S = 0.2
# probes on each side of an op that give its local speed
KERNEL_WINDOW = 3
PROCESS_WINDOW = 1

_SIGNAL = np.exp(1j * np.arange(1 << 16))


def kernel() -> None:
    total = 0
    for i in range(12000):
        total += i * i % 7
    np.fft.ifft(np.fft.fft(_SIGNAL))


def time_kernel() -> float:
    """The faster of two kernel runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def settle_allocator() -> None:
    """Allocate and free one 8 MiB block.

    glibc then serves every smaller block from its heap for the rest of the
    process, instead of mapping fresh pages for each block of 128 KiB or
    more until the process first frees a large one.  Without this the
    kernel's 1 MiB FFT buffers ran 1.5x slower beside exact_sweep, which
    never frees a large array, than beside defects_fmatrix, which does.  It
    puts th_fredholm's own allocations in that state too, from the first op
    on, the same for every run and every version.
    """
    block = np.ones(1 << 20)
    del block


class Pace:
    """Probe times in the order they were taken."""

    def __init__(self, kind: str = "kernel", env: dict | None = None):
        if kind == "kernel":
            settle_allocator()
            self._time, self.reference_s, self.window = time_kernel, KERNEL_REFERENCE_S, KERNEL_WINDOW
        elif kind == "process":
            from workloads import run_process

            argv = [sys.executable, "-c", "import numpy"]
            self._time = lambda: run_process(argv, env)[1]
            self.reference_s, self.window = PROCESS_REFERENCE_S, PROCESS_WINDOW
        else:
            raise ValueError(f"unknown probe {kind!r}")
        self.samples: list[float] = []

    def probe(self) -> int:
        """Time the probe once; return the index of this sample."""
        self.samples.append(self._time())
        return len(self.samples) - 1

    def factor(self, k: int) -> float:
        """Scale for a span that starts after probe k and ends before probe k + 1."""
        near = self.samples[max(0, k + 1 - self.window): k + 1 + self.window]
        return self.reference_s / statistics.median(near)

    def median(self) -> float:
        return statistics.median(self.samples)
