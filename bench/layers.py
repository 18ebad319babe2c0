"""Per-layer metrics of a traced run, one set for every workload.

The layers are the modules of ``src/dasee``.  A metric whose layer a
workload does not exercise reads 0 (no calls, no time).  Span times are
speed-adjusted with the factor of the op they belong to (see speed.py).
``*.self_share`` is a layer's self time as a share of the traced ops'
time; ``bench`` is the harness's own time inside ops, outside every
library span.  The ``trace.*`` walls are speed-adjusted sums of the same
ops' times; ``trace.overhead_s`` is the spans' count times the measured
cost of one wrapper call.
"""
from __future__ import annotations

import statistics

import spans as sp
import workloads

LAYERS = sp.MODULES + ("bench",)


def _corner_name(psi, K, n):
    return f"psi{psi}_k{K}_n{n}"


CORNER_NAMES = tuple(_corner_name(*p) for p in workloads.MC_CORNERS)


def realization_ms(workload, spans, scale: dict[int, float]) -> dict:
    """Median speed-adjusted empirical_ee call time / R at each corner
    point, in ms; ``scale`` maps op ids to their speed factors."""
    width = len(workload.ops)
    per_corner: dict[str, list[float]] = {name: [] for name in CORNER_NAMES}
    for span in spans:
        if span.name != "montecarlo.empirical_ee" or span.op < 0:
            continue
        meta = workload.ops[span.op % width].meta
        point = (meta.get("psi"), meta.get("K"), meta.get("n"))
        if point in workloads.MC_CORNERS:
            per_corner[_corner_name(*point)].append(
                1e3 * span.duration * scale.get(span.op, 1.0)
                / workloads.MC_REALIZATIONS)
    return {name: statistics.median(v) if v else 0.0
            for name, v in per_corner.items()}


def _meta_values(workload, key):
    return [v for op in workload.ops for v in op.meta.get(key, ())]


def per_layer(workload, spans, scale: dict[int, float], untraced_s: float,
              traced_s: float, span_cost_s: float, corners: dict) -> dict:
    """Every per-layer metric.  ``scale`` maps op ids to speed factors;
    ``corners`` holds the corner points' realization_ms at default BLAS
    threads (``"default"``) and at one thread (``"blas1"``)."""
    selfs = sp.self_times(spans)
    factors = [scale.get(span.op, 1.0) for span in spans]
    by_name = sp.aggregate(spans, selfs, factors=factors)
    by_layer = sp.aggregate(spans, selfs, key=lambda s: s.layer,
                            factors=factors)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls_self(name, calls=True, self_s=True):
        agg = by_name.get(name, sp.Aggregate())
        if calls:
            put(f"{name}.calls", agg.calls, "count")
        if self_s:
            put(f"{name}.self_s", agg.self_s, "s")
        return agg

    # montecarlo
    calls_self("montecarlo.empirical_ee")
    for name in CORNER_NAMES:
        put(f"montecarlo.realization_ms.{name}",
            corners.get("default", {}).get(name, 0.0), "ms")
    for name in CORNER_NAMES:
        put(f"montecarlo.realization_ms.{name}.blas1",
            corners.get("blas1", {}).get(name, 0.0), "ms")
    calls_self("montecarlo.generate_realization")
    put("montecarlo.worst_rel_err",
        max(_meta_values(workload, "rel_errors"), default=0.0), "ratio")

    # asymptotic
    ee = calls_self("asymptotic.energy_efficiency")
    put("asymptotic.energy_efficiency.infeasible_ratio",
        ee.raised / ee.calls if ee.calls else 0.0, "ratio")
    calls_self("asymptotic.sinr_breakdown")
    calls_self("asymptotic.deterministic_sinr", self_s=False)

    # config
    calls_self("config.replace")
    calls_self("config.validate_config")

    # optimize: energy_efficiency calls made inside solver calls, per
    # outermost solver call (optimal_m calls optimal_n once per M).
    for name in ("optimal_n", "optimal_k", "optimal_m"):
        calls_self(f"optimize.{name}")
    solves = sum(1 for i, s in enumerate(spans) if s.layer == "optimize"
                 and not sp.has_ancestor(spans, i, "optimize."))
    evals = sum(1 for i, s in enumerate(spans)
                if s.name == "asymptotic.energy_efficiency"
                and sp.has_ancestor(spans, i, "optimize."))
    put("optimize.ee_evals_per_solve", evals / solves if solves else 0.0,
        "ratio")

    # figures
    runner = by_layer.get("figures", sp.Aggregate())
    put("figures.runner.calls", runner.calls, "count")
    put("figures.runner.self_s", runner.self_s, "s")
    put("figures.rows", sum(_meta_values(workload, "rows")), "count")

    # rmt
    calls_self("rmt.simplified_correlation_set", calls=False)
    calls_self("rmt.general_deterministic_sinr")
    put("rmt.max_gap", max(_meta_values(workload, "rmt_gaps"), default=0.0),
        "ratio")

    # geometry
    cal = calls_self("geometry.calibrate")
    put("geometry.drops_per_s",
        cal.calls * workloads.CAL_DROPS / cal.total_s if cal.calls else 0.0,
        "1/s")

    # cli
    calls_self("cli.main")

    wall = sum(s.duration * f for s, f in zip(spans, factors)
               if s.parent < 0)                               # the op spans
    for layer in LAYERS:
        agg = by_layer.get(layer, sp.Aggregate())
        put(f"{layer}.self_share", agg.self_s / wall if wall else 0.0,
            "ratio")

    put("trace.untraced_wall_s", untraced_s, "s")
    put("trace.traced_wall_s", traced_s, "s")
    put("trace.span_cost_us", 1e6 * span_cost_s, "us")
    overhead = len(spans) * span_cost_s
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_share", overhead / untraced_s, "ratio")
    return out
