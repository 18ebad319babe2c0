"""Self-tests of the benchmark harness: python -m pytest bench"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check_meter  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def span(name, start, end, parent=-1, op=0, raised=False):
    return spans.Span(name, start, end, parent, op, raised)


def test_self_time_of_nested_trace():
    # op [0, 10] > optimal_m [1, 9] > two optimal_n calls [2, 4] and [5, 8],
    # the second holding energy_efficiency [6, 7].
    trace = [span("bench.op", 0.0, 10.0),
             span("optimize.optimal_m", 1.0, 9.0, parent=0),
             span("optimize.optimal_n", 2.0, 4.0, parent=1),
             span("optimize.optimal_n", 5.0, 8.0, parent=1),
             span("asymptotic.energy_efficiency", 6.0, 7.0, parent=3)]
    assert spans.self_times(trace) == [2.0, 3.0, 2.0, 2.0, 1.0]
    by_layer = spans.aggregate(trace, key=lambda s: s.layer)
    assert by_layer["optimize"].self_s == 7.0
    assert by_layer["optimize"].total_s == 13.0
    assert sum(a.self_s for a in by_layer.values()) == 10.0
    assert spans.has_ancestor(trace, 4, "optimize.")
    assert not spans.has_ancestor(trace, 1, "optimize.")
    # Speed factors scale each span's times, here 0.5 for the whole op.
    halved = spans.aggregate(trace, key=lambda s: s.layer,
                             factors=[0.5] * len(trace))
    assert halved["optimize"].self_s == 3.5
    assert halved["optimize"].total_s == 6.5


def test_self_time_counts_overlapping_children_once():
    trace = [span("a.x", 0.0, 10.0), span("b.y", 1.0, 5.0, parent=0),
             span("b.z", 3.0, 7.0, parent=0), span("b.w", 9.0, 12.0, parent=0)]
    assert spans.self_times(trace)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 101))             # 100 samples, 10 beyond p90
    assert run.percentile(samples, 0.9, 10) == 90
    assert run.percentile(samples[:99], 0.9, 10) is None
    assert run.percentile(samples, 0.5) == 50
    assert run.percentile([7.0], 0.5) == 7.0
    assert run.percentile([], 0.5) is None


def test_scenarios_follow_the_seed():
    scenarios = workloads.design_scenarios
    assert scenarios(5, 30) == scenarios(5, 30)
    assert scenarios(5, 30) != scenarios(6, 30)
    for sc in scenarios(9, 200)[1:]:
        assert 1 <= sc.cfg.M <= 10 and 5 <= sc.cfg.n <= 100
        assert sc.cfg.psi * sc.cfg.K < sc.cfg.T
        assert 0.5 <= sc.gamma <= 4.0 and sc.pm.zeta <= 1.0


def test_tracer_nests_spans_and_uninstall_restores():
    from dasee import SystemConfig, PowerModel, asymptotic, optimize
    original = optimize.energy_efficiency
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert optimize.energy_efficiency is not original
        optimize.optimal_n(SystemConfig(), PowerModel(), 2.0)
    finally:
        uninstall()
    assert optimize.energy_efficiency is original
    assert asymptotic.energy_efficiency is original
    trace = tracer.spans()
    assert trace[0].name == "optimize.optimal_n" and trace[0].parent == -1
    evals = [i for i, s in enumerate(trace)
             if s.name == "asymptotic.energy_efficiency"]
    assert evals and all(spans.has_ancestor(trace, i, "optimize.")
                         for i in evals)
    assert any(s.name == "config.replace" for s in trace)


def test_metric_names_match_benchmark_json():
    empty = workloads.Workload("empty", [], lambda records: {}, lambda: None)
    emitted = layers.per_layer(empty, [], {}, 1.0, 1.0, 1e-6, {})
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in emitted.items()} == spec

    raw = [[0.1, 0.2, 0.3], [0.2, 0.1, 0.4], [0.3, 0.3, 0.5]]
    section = run.Section(raw, raw, 9, {}, {})
    assert section.op_s() == [0.2, 0.2, 0.4]
    meter = speed.Meter()
    meter.start()
    gated, _ = run.end_to_end(section, [1.0, 2.0, 3.0], meter)
    assert gated["wall_s"]["value"] == pytest.approx(0.8)
    assert gated["op_ms_p50"]["value"] == pytest.approx(200.0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in gated.items()} == spec
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_meter_scales_by_the_kernel_around_each_chunk(monkeypatch):
    times = iter([0.02, 0.03, 0.01])
    monkeypatch.setattr(speed, "sample", lambda: next(times))
    half = speed.EVERY_S / 2
    meter = speed.Meter()
    meter.start()                              # 0.02 before the pass
    out = []
    meter.add(out, half)
    meter.add(out, half)                       # chunk full: sample 0.03
    meter.add(out, 0.001)
    meter.flush()                              # end of pass: sample 0.01
    scale = speed.REF_S / 0.025
    assert out == pytest.approx([half * scale, half * scale,
                                 0.001 * speed.REF_S / 0.02])
    assert meter.samples == [0.02, 0.03, 0.01]


def test_meter_kernel_does_not_feel_the_ops():
    # Kernel samples taken among ops slowed by pure-Python work or by
    # threaded BLAS work read as those taken among the base ops.  Without
    # the meter's wait for idle threads, the BLAS case has read about 2.
    for name, r in check_meter.compare().items():
        assert 0.8 < r["kernel"] < 1.25, (name, r)
