"""Speed probe: converts CPU time measured on a shared host to a fixed speed.

The CPUs of the shared host this benchmark runs on change speed by up to a
factor of two, within seconds and over minutes (other tenants), each CPU on
its own, so CPU time and wall time of the same work drift alike. The probe is
a thread of the benchmark process that repeats a fixed unit of Python and
numpy work, which uses no dpaimd code, on the one CPU the benchmark and every
program it starts are pinned to, at a lower priority (nice NICE). While a
program runs, the scheduler alternates the CPU between the program and the
probe every few milliseconds, so the probe's CPU time per unit measures the
speed the program met, over the same window:

    ref seconds = program CPU seconds * UNIT_REF_S / probe CPU seconds per unit

The unit mixes what dpaimd spends its time on: a Python loop over small numpy
arrays (the engine's step loop), scalar float arithmetic (the baseline's
per-agent partial derivatives) and number formatting (trace and summary
writing). A change to dpaimd cannot change the probe's time per unit.
"""
from __future__ import annotations

import os
import threading
from time import thread_time

import numpy as np

# at nice 10 the probe takes about a tenth of the CPU from one program
NICE = 10
# the unit's usual CPU time at NICE beside a program on the reference machine
# (2-CPU Intel Xeon VM, Python 3.11, numpy 2.4); it only sets the unit of the
# scaled times, so it never needs re-measuring
UNIT_REF_S = 0.0022


def _unit(rng: np.random.Generator, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    for _ in range(50):
        g = a * x + x ** 3
        x = np.clip(x - 0.01 * g + 0.001 * rng.standard_normal(x.size), 0.0, 1.0)
    s = 0.0
    for i in range(2000):
        s += (i % 7) * 0.5 - s * 1e-6
    rows = [",".join(f"{v:.6g}" for v in (i, i * 0.5, s)) for i in range(300)]
    assert len(rows) == 300
    return x


class Probe:
    """Context manager running the probe thread. ``mark()`` before a program
    starts and ``seconds_per_unit(mark)`` after it ends give the speed it met."""

    def __init__(self):
        self._state = (0, 0.0)      # (units done, thread CPU seconds when the last ended)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._spin, name="speed-probe", daemon=True)

    def _spin(self):
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), NICE)
        rng = np.random.default_rng(12345)
        a = np.linspace(1.0, 3.0, 12)
        x = np.full(12, 0.5)
        units, t0 = 0, thread_time()
        while not self._stop.is_set():
            x = _unit(rng, a, x)
            units += 1
            self._state = (units, thread_time() - t0)

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mark(self) -> tuple[int, float]:
        return self._state

    def seconds_per_unit(self, since: tuple[int, float]) -> float:
        """Probe CPU seconds per unit over the units finished since ``since``."""
        units, cpu = self._state
        if units <= since[0]:
            raise RuntimeError("the speed probe finished no unit while the program ran")
        return (cpu - since[1]) / (units - since[0])


def ref_seconds(cpu_s: float, seconds_per_unit: float) -> float:
    """CPU seconds at the reference speed."""
    return cpu_s * UNIT_REF_S / seconds_per_unit
