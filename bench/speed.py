"""Machine-speed reference: a fixed kernel timed between ops.

The shared machines this benchmark runs on change speed by up to ~1.8x
for seconds at a time (another tenant's load on the same cores), which
moves every timing of a run together.  The harness therefore times this
kernel, which uses no dasee code, before the first op of a pass and after
every ``EVERY_S`` of op time, and scales each op's time by ``REF_S`` over
the mean of the two kernel times around it.  An adjusted time is the time
the op would take on a machine that runs the kernel in ``REF_S``.

The kernel must not feel what the ops left behind, or a change to dasee
would move the kernel too and cancel part of its own effect.  After a
threaded BLAS call, OpenBLAS workers spin for about 0.13 s, which slowed
the kernel by up to 2x on a 2-vCPU machine; so a sample first waits until
no other thread of the process uses the CPU.  The kernel then runs once
untimed, so that the ops' cache and allocator state does not reach the
timed run, and with the garbage collector off, so that the size of the
program's heap does not either.  ``check_meter.py`` verifies that adjusted
times follow raw ones when an op gets slower by pure-Python work or by
threaded BLAS work.
"""
from __future__ import annotations

import gc
import time
from dataclasses import dataclass, replace

import numpy as np

REF_S = 0.010        # kernel time that adjusted op times are scaled to
EVERY_S = 0.1        # op time between two kernel samples
IDLE_POLL_S = 0.002  # sleep that tells whether other threads are busy
IDLE_POLLS = 2       # quiet sleeps in a row that count as idle
IDLE_MAX_S = 0.25    # longest wait for them to go idle


@dataclass(frozen=True)
class _Point:
    index: int = 0
    weight: float = 1.0


def _kernel() -> float:
    # Array work shaped like the Monte-Carlo engine (Gaussian draws,
    # complex assembly, a batched contraction) plus interpreter work shaped
    # like the closed-form layers (frozen-dataclass copies, float math).
    rng = np.random.default_rng(12345)
    z = rng.standard_normal((7, 7, 4, 10, 30, 2))
    h = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    y = np.einsum("lmjkp,lmjip->lki", h, h.conj())
    point, acc = _Point(), 0.0
    for i in range(2000):
        point = replace(point, index=i)
        acc += point.weight * point.index
    return float(y.real.sum()) + acc


def wait_idle() -> None:
    """Sleep until no other thread of this process uses the CPU, such as
    OpenBLAS workers still spinning after a threaded call, or for at most
    ``IDLE_MAX_S``.  A spinning worker can lose its CPU to the host for a
    moment, so idle means ``IDLE_POLLS`` quiet polls in a row."""
    deadline = time.perf_counter() + IDLE_MAX_S
    quiet = 0
    while quiet < IDLE_POLLS and time.perf_counter() < deadline:
        cpu = time.process_time()
        time.sleep(IDLE_POLL_S)
        busy = time.process_time() - cpu >= IDLE_POLL_S / 10
        quiet = 0 if busy else quiet + 1


def sample() -> float:
    """Seconds one run of the reference kernel takes now."""
    wait_idle()
    gc.disable()
    try:
        _kernel()           # untimed: brings its memory back into cache
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Meter:
    """Turns raw op times into speed-adjusted ones, chunk by chunk."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = None
        self._pending: list[tuple[list, int, float]] = []
        self._since = 0.0

    def start(self):
        self._last = sample()
        self.samples.append(self._last)

    def add(self, out: list, raw: float) -> None:
        """Record raw op time ``raw``; its adjusted time lands in ``out``."""
        out.append(None)
        self._pending.append((out, len(out) - 1, raw))
        self._since += raw
        if self._since >= EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        after = sample()
        self.samples.append(after)
        scale = REF_S / ((self._last + after) / 2.0)
        for out, index, raw in self._pending:
            out[index] = raw * scale
        self._last, self._pending, self._since = after, [], 0.0
