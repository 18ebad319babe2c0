"""Check that speed-adjusted times follow raw ones.

    python3 bench/check_meter.py [--rounds N] [--seconds S]

Three programs run in alternation, each for ``--seconds`` of op time per
round and with a Meter of its own, as a parent commit's run and a change's
run would: *base*, a dasee optimizer call; *python*, base plus pure-Python
work; *blas*, base plus a matrix product that OpenBLAS runs on all its
threads.  For each slowed program it prints the raw and the adjusted ratio
to base and their quotient, ``tracking``, and the ratio of the kernel
samples taken among its ops to those taken among base's, ``kernel``.  The
programs alternate quickly, so they share the machine's state, and
``kernel`` is 1 when the kernel does not feel the ops.  ``tracking`` also
moves when a change of machine state speeds one kind of code more than
the kernel.  The check runs once with the meter as the benchmark uses it
and once without its wait for idle threads, to show what that wait is
for.  Run it from the root of a source checkout.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
PYTHON_LOOP = 20_000     # iterations of the pure-Python slow-down
BLAS_SIZE = 200          # side of the square matrices of the BLAS slow-down


def programs() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from dasee import PowerModel, SystemConfig, optimize

    cfg, pm = SystemConfig(), PowerModel()
    a = np.random.default_rng(0).standard_normal((BLAS_SIZE, BLAS_SIZE))

    def base():
        optimize.optimal_m(cfg, pm, 2.0, M_max=10)

    def python():
        base()
        total = 0
        for i in range(PYTHON_LOOP):
            total += i * i
        return total

    def blas():
        base()
        return a @ a

    return {"base": base, "python": python, "blas": blas}


def run(fn, seconds: float) -> tuple[list, list, list]:
    """Ops for ``seconds`` of op time; (raw, adjusted, kernel samples)."""
    meter = speed.Meter()
    raw, adjusted = [], []
    meter.start()
    while sum(raw) < seconds:
        start = time.perf_counter()
        fn()
        raw.append(time.perf_counter() - start)
        meter.add(adjusted, raw[-1])
    meter.flush()
    return raw, adjusted, meter.samples


def compare(rounds: int = 20, seconds: float = 0.1,
            idle: bool = True) -> dict[str, dict[str, float]]:
    """Raw and adjusted ratio of each slowed program to base, their
    quotient ``tracking``, and the ratio ``kernel`` of the median kernel
    samples (1 when the meter is independent of the ops).
    ``idle=False`` takes the kernel samples without waiting for idle
    threads."""
    if not idle:
        wait_idle, speed.wait_idle = speed.wait_idle, lambda: None
        try:
            return compare(rounds, seconds)
        finally:
            speed.wait_idle = wait_idle
    progs = programs()
    for fn in progs.values():
        fn()
    times = {name: ([], [], []) for name in progs}
    for _ in range(rounds):
        for name, fn in progs.items():
            for into, got in zip(times[name], run(fn, seconds)):
                into.extend(got)
    med = {name: [statistics.median(v) for v in got]
           for name, got in times.items()}
    out = {}
    for name in ("python", "blas"):
        raw = med[name][0] / med["base"][0]
        adjusted = med[name][1] / med["base"][1]
        out[name] = {"raw_ratio": raw, "adjusted_ratio": adjusted,
                     "tracking": adjusted / raw,
                     "kernel": med[name][2] / med["base"][2]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seconds", type=float, default=0.1)
    args = parser.parse_args(argv)
    for idle in (True, False):
        label = "waits for idle threads" if idle else "no wait (for contrast)"
        print(f"meter {label}:")
        for name, r in compare(args.rounds, args.seconds, idle).items():
            print(f"  {name:7s} raw x{r['raw_ratio']:.3f}  adjusted "
                  f"x{r['adjusted_ratio']:.3f}  tracking {r['tracking']:.3f}"
                  f"  kernel {r['kernel']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
