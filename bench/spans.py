"""In-memory span tracing of dasee, applied from outside the library.

A ``Tracer`` records one span per call of a wrapped public function: its
name (``<module>.<function>``), start and end (``time.perf_counter``), the
index of the enclosing span (-1 at top level), the id of the benchmark op
that caused it, and whether the call raised.  ``install`` rebinds every
wrapped function in each ``dasee`` module namespace that holds it (the
optimizers, figure runners and CLI import the closed-form functions by
name), wraps ``SystemConfig.replace`` on the class, and returns a callable
that restores the originals.  Nothing under ``src/`` is modified.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = ("asymptotic", "config", "montecarlo", "optimize", "figures", "rmt",
           "geometry", "cli")

# Public functions wrapped per module (the layers of the benchmark).
TARGETS = {
    "montecarlo": ("empirical_ee", "generate_realization"),
    "asymptotic": ("energy_efficiency", "sinr_breakdown",
                   "deterministic_sinr"),
    "config": ("validate_config",),
    "optimize": ("optimal_n", "optimal_k", "optimal_m"),
    "figures": tuple(f"figure{n}" for n in range(2, 11)),
    "rmt": ("simplified_correlation_set", "general_deterministic_sinr"),
    "geometry": ("calibrate",),
    "cli": ("main",),
}

OP_SPAN = "bench.op"   # root span the harness opens around each op


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 at top level
    op: int         # id of the benchmark op that caused the span
    raised: bool

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; spans live in memory until ``spans()`` or ``write``."""

    def __init__(self):
        self._records: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def call(self, name, fn, args, kwargs):
        index = len(self._records)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, False]
        self._records.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[5] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._records]

    def write(self, path) -> None:
        """Gzipped JSON lines, one array per span: name, start, end,
        parent, op, raised."""
        with gzip.open(path, "wt") as handle:
            for record in self._records:
                handle.write(json.dumps(record) + "\n")


def install(tracer: Tracer):
    """Rebind the TARGETS functions to tracing wrappers; return an undo."""
    modules = [importlib.import_module("dasee")]
    modules += [importlib.import_module(f"dasee.{m}") for m in MODULES]
    undo = []
    for layer, names in TARGETS.items():
        home = importlib.import_module(f"dasee.{layer}")
        for name in names:
            original = getattr(home, name)
            wrapper = tracer.wrap(original, f"{layer}.{name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
            runners = getattr(home, "RUNNERS", None)
            if isinstance(runners, dict):
                for key, value in list(runners.items()):
                    if value is original:
                        undo.append((runners, key, original))
                        runners[key] = wrapper
    config = importlib.import_module("dasee.config")
    replace = config.SystemConfig.replace
    config.SystemConfig.replace = tracer.wrap(replace, "config.replace")
    undo.append((config.SystemConfig, "replace", replace))

    def uninstall():
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
    return uninstall


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children[index]]
        out.append(span.duration - covered_length(clipped))
    return out


@dataclass
class Aggregate:
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate(spans: list[Span], selfs: list[float] | None = None,
              key=lambda span: span.name,
              factors: list[float] | None = None) -> dict[str, Aggregate]:
    """Calls, raises, total and self time grouped by ``key(span)``; each
    span's times are multiplied by its entry in ``factors``, if given."""
    if selfs is None:
        selfs = self_times(spans)
    if factors is None:
        factors = [1.0] * len(spans)
    out: dict[str, Aggregate] = defaultdict(Aggregate)
    for span, own, factor in zip(spans, selfs, factors):
        agg = out[key(span)]
        agg.calls += 1
        agg.raised += span.raised
        agg.total_s += span.duration * factor
        agg.self_s += own * factor
    return out


def has_ancestor(spans: list[Span], index: int, prefix: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


def wrapper_cost(batches: int = 7, calls: int = 2000) -> float:
    """Seconds the tracing wrapper adds to one call: a wrapped no-op minus
    a bare one, the median over ``batches`` batches of ``calls`` calls."""
    def noop(*args, **kwargs):
        return None

    wrapped = Tracer().wrap(noop, "bench.noop")

    def per_call(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn(1, key=2)
        return (time.perf_counter() - start) / calls

    return statistics.median(per_call(wrapped) - per_call(noop)
                             for _ in range(batches))
