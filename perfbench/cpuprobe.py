"""CPU-speed probe: corrects measured wall times for the host's speed.

On a shared host the speed of one virtual CPU changes from one moment to the
next: a fixed loop takes up to about 1.8 times longer while other tenants
load the same physical core, in phases from milliseconds to minutes.  Wall
times then measure the neighbours as much as the program.

``run.py`` pins itself to one CPU before it starts any child process, so the
children and the probe, a thread of ``run.py``, all run on that CPU.  Every
``PERIOD_S`` the probe wakes, times a fixed kernel of small NumPy calls on
6-vectors, the kind of work one simulated step of the program does (about
0.25 ms at full speed), and sleeps again, so it samples the speed of that
CPU while the children run on it, at a cost of a few per cent of the CPU.  A wall interval
``[t0, t1]`` of a child is converted to reference seconds by
``(t1 - t0) * REF_KERNEL_S / mean kernel time within [t0, t1]``: the time the
interval would have taken on a CPU that runs the kernel in ``REF_KERNEL_S``.
Both clocks are ``time.perf_counter`` (CLOCK_MONOTONIC, shared by all
processes).

The kernel was chosen among four candidates by how well its time tracks the
program's: over 47 ``run-scenario`` calls of the study (one p value each,
2-4 s) on one CPU, the log of a call's wall time rose with the log of this
kernel's mean time with slope 0.97-1.15 and correlation 0.92-0.97, where a
pure-Python integer loop gave slopes of 1.3-2.0, so a correction by that
loop would leave much of the noise.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

KERNEL_ITERS = 60
PERIOD_S = 0.02
REF_KERNEL_S = 0.00025   # about the kernel's time on an unshared core of the reference host
MIN_SAMPLES = 10


def pin_to_one_cpu() -> int:
    """Pin the calling thread to one of its CPUs; threads and processes it
    starts afterwards inherit the pinning.  Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


_rng = np.random.default_rng(0)
_A = _rng.standard_normal((6, 6))
_X0 = _rng.standard_normal(6)
_LO, _HI = -np.ones(6), np.ones(6)


def _kernel() -> float:
    y = _X0
    for _ in range(KERNEL_ITERS):
        y = np.minimum(np.maximum(_A @ y, _LO), _HI)
        n = float(np.linalg.norm(y))
    return n


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            _kernel()
            self.samples.append((t0, time.perf_counter() - t0))
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The wall interval ``[t0, t1]`` in reference seconds."""
        inside = [d for t, d in self.samples if t0 <= t and t + d <= t1]
        if len(inside) < MIN_SAMPLES:
            raise ValueError(f"only {len(inside)} speed samples in an interval of {t1 - t0:.3f} s")
        return (t1 - t0) * REF_KERNEL_S * len(inside) / sum(inside)
