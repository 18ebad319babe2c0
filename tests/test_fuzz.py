"""Property tests over generated inputs: the CLI ends every run in a clean
exit, and on exit 0 every printed EE and power is finite and every
feasible EE positive (or, for ``calibrate``, no non-finite value
printed), the Monte-Carlo estimator is
finite and reproducible on small generated configurations, the
closed-form optimizers agree with an exhaustive integer scan, every
array pass (figures 7, 8 and 9, ``optimal_m``) agrees with its loop of
one evaluation per count, figures 3, 4, 6 and 10 with one evaluation per
point, and a record's ``replace`` builds what its
constructor builds."""
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dasee import figures  # noqa: E402
from dasee.asymptotic import (InfeasibleError,  # noqa: E402
                              RateUnachievableError, min_antennas,
                              sinr_breakdown)
from dasee.cli import build_parser, main, scenario_from_args  # noqa: E402
from dasee.config import ConfigError, PowerModel, SystemConfig  # noqa: E402
from dasee.montecarlo import empirical_sinr_rate  # noqa: E402
from dasee.optimize import (OptimizationError, ee_or_none,  # noqa: E402
                            exhaustive_argmax, optimal_m, optimal_n)
from test_cli import N_SWEEPS, _figure7_by_k  # noqa: E402
from test_optimize import _figure9_by_m, _optimal_m_by_scan  # noqa: E402

# Deterministic example sets, no example database on disk.
FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)

_ODD_FLOATS = (0.0, -1.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324,
               1e300)


def _near(default: float):
    """Values around a default, plus the edge cases every float flag gets."""
    return st.one_of(st.floats(default / 10.0, default * 10.0),
                     st.sampled_from(_ODD_FLOATS))


def _anywhere(default: float):
    """Values around a default and over the whole positive double range,
    its extremes always among the candidates."""
    return st.one_of(_near(default), st.floats(5e-324, sys.float_info.max),
                     st.sampled_from([5e-324, 1e-300, 1e300, 1e308]))


# Small counts keep every Monte-Carlo run cheap; -1 and 0 are invalid.
_COUNT = st.integers(-1, 9)
_MODEL_FLAGS = {
    "L": _COUNT, "M": _COUNT, "K": _COUNT, "n": st.integers(-1, 40),
    "psi": _COUNT, "d": st.integers(0, 3), "T": st.sampled_from([0, 20, 196]),
    "beta": _anywhere(2.24e-8), "alpha1": st.floats(-0.5, 1.5),
    "alpha2": st.floats(-0.5, 1.5),
    "iota": st.one_of(_near(2.5), st.floats(2.5, 500.0)), "B": _anywhere(20e6),
    "p-u": _anywhere(0.5), "p-d": _anywhere(1.0), "sigma2": _anywhere(1e-7),
    "p-d-dbm": _near(30.0),
    "pilot-noise-mode": st.sampled_from(["exact", "negligible"]),
    "P-FIX": _anywhere(9.0), "P-RRH": _near(0.2), "P-0": _anywhere(0.825),
    "P-BT": _anywhere(0.25e-9), "zeta": st.one_of(st.floats(0.01, 1.5),
                                                   _anywhere(0.4)),
}
_GAMMA = st.one_of(st.floats(0.05, 12.0),
                   st.sampled_from([0.0, -1.0, math.nan, 1e-300, 1000.0, 1023.9,
                                    1100.0]))
_N_RANGE = st.sampled_from(["10:40:10", "4,8", "20", "0", "2:1", "40:10:-15"])


def _flags(draw_dict):
    argv = []
    for key, value in draw_dict.items():
        argv.append(f"--{key}={value!r}" if isinstance(value, float)
                    else f"--{key}={value}")
    return argv


_MODEL_ARGV = st.fixed_dictionaries({}, optional=_MODEL_FLAGS).map(_flags)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _no_data_symbols(argv, row) -> bool:
    """A figure 7 row at K = T/psi: every symbol is a pilot, the EE is 0."""
    T = next((int(arg.partition("=")[2]) for arg in argv
              if arg.startswith("--T=")), SystemConfig().T)
    return "psi" in row and "K" in row and int(row["psi"]) * int(row["K"]) == T


def _assert_clean(argv):
    code, out = _run(argv)
    assert code in (0, 2, 3), (argv, code)
    if code != 0:
        assert out == "", argv
        return
    if out.startswith("{"):
        payload = json.loads(out)
        assert all(math.isfinite(payload[key]) for key in
                   ("ee_bits_per_joule", "p_d_watts")), (argv, payload)
        assert payload["ee_bits_per_joule"] > 0, (argv, payload)
        return
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows, argv
    for row in rows:
        # figure 5 has no feasible column: n* = -1 marks its NaN rows
        if (row["feasible"] == "1" if "feasible" in row
                else row["n_star"] != "-1"):
            values = [float(v) for k, v in row.items() if k != "feasible"]
            assert all(math.isfinite(v) for v in values), (argv, row)
            assert all(float(v) > 0 for k, v in row.items()
                       if k.startswith("ee")) or _no_data_symbols(argv, row), \
                (argv, row)


@FUZZ
@given(model=_MODEL_ARGV, n_range=_N_RANGE)
def test_de_curve_exits_cleanly(model, n_range):
    _assert_clean(["de-curve", "--n-range", n_range, *model])


@FUZZ
@given(model=_MODEL_ARGV, gamma=_GAMMA, no_pc=st.booleans())
def test_opt_n_exits_cleanly(model, gamma, no_pc):
    _assert_clean(["opt-n", f"--gamma={gamma!r}", *model]
                  + (["--no-pc"] if no_pc else []))


@FUZZ
@given(model=_MODEL_ARGV, gamma=_GAMMA)
def test_opt_k_exits_cleanly(model, gamma):
    _assert_clean(["opt-k", f"--gamma={gamma!r}", *model])


@FUZZ
@given(model=_MODEL_ARGV, gamma=_GAMMA, m_max=st.integers(-1, 9),
       fixed_n=st.booleans())
def test_opt_m_exits_cleanly(model, gamma, m_max, fixed_n):
    _assert_clean(["opt-m", f"--gamma={gamma!r}", f"--M-max={m_max}", *model]
                  + (["--fixed-n"] if fixed_n else []))


@FUZZ
@given(model=_MODEL_ARGV, number=st.integers(3, 10))
def test_figure_exits_cleanly(model, number):
    _assert_clean(["figure", str(number), *model])


@FUZZ
@given(model=_MODEL_ARGV, n_range=_N_RANGE, realizations=st.integers(-1, 4),
       seed=st.integers(0, 2 ** 32))
def test_mc_validate_exits_cleanly(model, n_range, realizations, seed):
    _assert_clean(["mc-validate", "--n-range", n_range,
                   f"--realizations={realizations}", f"--seed={seed}", *model])


@FUZZ
@given(geometry=st.fixed_dictionaries({}, optional={
           "M": _COUNT, "L": _COUNT, "K": _COUNT, "Rc": _anywhere(2000.0),
           "iota": st.one_of(_near(2.5), st.floats(100.0, 1000.0)),
           "min-distance": st.one_of(st.floats(0.0, 3000.0),
                                     st.sampled_from(_ODD_FLOATS))}).map(_flags),
       drops=st.integers(-1, 4), seed=st.integers(0, 2 ** 32))
def test_calibrate_exits_cleanly(geometry, drops, seed):
    argv = ["calibrate", f"--drops={drops}", f"--seed={seed}", *geometry]
    code, out = _run(argv)
    assert code in (0, 2, 3), (argv, code)
    if code != 0:
        assert out == "", argv
        return
    values = [float(line.partition(" = ")[2]) for line in out.splitlines()]
    assert len(values) == 3 and all(map(math.isfinite, values)), (argv, out)


@st.composite
def _small_configs(draw):
    L = draw(st.integers(1, 4))
    psi = draw(st.sampled_from([p for p in range(1, L + 1) if L % p == 0]))
    d = draw(st.integers(1, 3))
    return SystemConfig(
        L=L, psi=psi, d=d, M=draw(st.integers(1, 4)), K=draw(st.integers(1, 6)),
        n=d * draw(st.integers(1, 8)), alpha1=draw(st.floats(0.0, 1.0)),
        alpha2=draw(st.floats(0.0, 1.0)), p_u=draw(st.floats(1e-3, 10.0)),
        pilot_noise_mode=draw(st.sampled_from(["exact", "negligible"])))


@FUZZ
@given(cfg=_small_configs(), realizations=st.integers(1, 20),
       seed=st.integers(0, 2 ** 32))
def test_empirical_sinr_rate_finite_and_reproducible(cfg, realizations, seed):
    sinr, se = empirical_sinr_rate(cfg, realizations, seed)
    again, se_again = empirical_sinr_rate(cfg, realizations, seed)
    assert sinr.tobytes() == again.tobytes() and se == se_again
    assert all(math.isfinite(v) for v in sinr) and math.isfinite(se)



# --- closed form vs exhaustive scan (complements criteria 3 and 4) ----------

_INFEASIBLE = (RateUnachievableError, OptimizationError)


@st.composite
def _designs(draw):
    """(cfg, pm, gamma) around the defaults; K < T/psi keeps data symbols."""
    psi = draw(st.sampled_from([1, 7]))
    cfg = SystemConfig(
        psi=psi, M=draw(st.integers(1, 10)), K=draw(st.integers(1, 195 // psi)),
        n=draw(st.integers(1, 100)), d=draw(st.integers(1, 2)),
        alpha2=draw(st.floats(0.0, 0.3)), sigma2=draw(st.floats(5e-8, 2e-7)),
        pilot_noise_mode=draw(st.sampled_from(["exact", "negligible"])))
    pm = PowerModel(P_FIX=draw(st.floats(4.5, 13.5)),
                    P_RRH=draw(st.floats(0.1, 0.3)),
                    P_0=draw(st.floats(0.4, 1.2)),
                    P_BT=draw(st.floats(1e-10, 4e-10)),
                    zeta=draw(st.floats(0.2, 0.6)))
    return cfg, pm, draw(st.floats(0.25, 8.0))


@FUZZ
@given(design=_designs())
def test_optimal_n_equals_exhaustive_scan(design):
    cfg, pm, gamma = design
    try:
        result = optimal_n(cfg, pm, gamma)
    except _INFEASIBLE:
        with pytest.raises(RateUnachievableError):
            min_antennas(cfg, sinr_breakdown(cfg), gamma)
        return
    window = range(min_antennas(cfg, sinr_breakdown(cfg), gamma),
                   math.ceil(result.x_real) + 100)
    assert result.n == exhaustive_argmax(
        lambda n: ee_or_none(cfg, pm, gamma, n=n), window)


@FUZZ
@given(design=_designs(), m_max=st.integers(1, 12))
def test_fixed_n_optimal_m_equals_exhaustive_scan(design, m_max):
    cfg, pm, gamma = design

    def scan():
        return exhaustive_argmax(
            lambda M: ee_or_none(cfg, pm, gamma, n=cfg.n, M=M),
            range(1, m_max + 1))

    try:
        result = optimal_m(cfg, pm, gamma, M_max=m_max, n=cfg.n)
    except _INFEASIBLE:
        with pytest.raises(OptimizationError):
            scan()
        return
    assert (result.M, result.n) == (scan(), cfg.n)


# --- figure 8's one pass vs its per-M loop -----------------------------------

_MODES = st.sampled_from(["exact", "negligible"])


def _figure8_by_m(cfg, pm):
    """figure 8 as a loop over M = 1..10, one ``_curve`` per M: the
    reference for its one array pass."""
    rows = []
    for M in range(1, 11):
        rows += figures._curve([M], figures._ee_of_n(cfg.replace(M=M), pm),
                               figures.N_SWEEP)
    return ["M", "n", "ee_bits_per_joule", "feasible"], rows


def _outcome(call):
    """repr of what ``call`` returns (NaN rows compare as text), or the
    type and text of the error it raises."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _explore_figure_scenarios(draw):
    """(cfg, pm) as the design-explore benchmark builds a figure op's: its
    scenario ranges, full reuse (psi = 1) and K below T/L (M and n, which
    figure 8 sweeps, at their defaults)."""
    def around(value):
        return value * draw(st.floats(0.5, 1.5))
    pm = PowerModel(P_FIX=around(9.0), P_RRH=around(0.2), P_0=around(0.825),
                    P_BT=around(0.25e-9), zeta=min(1.0, around(0.4)))
    cfg = SystemConfig(K=draw(st.integers(5, 195 // 7)),
                       d=draw(st.integers(1, 2)), sigma2=around(1e-7),
                       pilot_noise_mode=draw(_MODES))
    return cfg, pm


def _scenario_of(argv, mode):
    """(cfg, pm) of the model flags ``argv`` in pilot-noise ``mode``, None
    where they are not a valid model."""
    args = build_parser().parse_args(
        ["figure", "8", *argv, f"--pilot-noise-mode={mode}"])
    try:
        return scenario_from_args(args)
    except ConfigError:
        return None


@settings(FUZZ, max_examples=300)
@given(scenario=st.one_of(
    _explore_figure_scenarios(),
    st.builds(_scenario_of, _MODEL_ARGV, _MODES)))
# M = 2..10 raise, each naming its own total power
@example(scenario=_scenario_of(["--B=5e-324"], "exact"))
# the power rule from M = 3, M^iota beyond the range from M = 6
@example(scenario=_scenario_of(["--iota=400.0", "--P-0=6e+307"], "negligible"))
def test_figure8_grid_equals_the_per_m_loop(scenario):
    # the one (n, M) pass prints the rows of the per-M loop, or raises the
    # error the loop raises first
    if scenario is not None:
        assert (_outcome(lambda: figures.figure8(*scenario))
                == _outcome(lambda: _figure8_by_m(*scenario))), scenario


# --- the other array passes vs their per-count loops --------------------------

@settings(FUZZ, max_examples=200)
@given(scenario=st.one_of(
           _explore_figure_scenarios(),
           st.builds(_scenario_of, _MODEL_ARGV, _MODES)),
       gamma=st.floats(0.25, 8.0), m_max=st.integers(1, 12))
# figure 7's first curve evaluates at K = 1 and raises from K = 10
@example(scenario=_scenario_of(["--B=1e+307"], "exact"), gamma=2.0, m_max=8)
def test_scans_equal_their_per_count_loops(scenario, gamma, m_max):
    # figures 7 and 9 and optimal_m (joint, at a fixed n, and at a fixed n
    # and p_d) give the results of one evaluation per count, or raise the
    # error that loop raises first
    if scenario is None:
        return
    cfg, pm = scenario
    pairs = [(lambda: figures.figure7(cfg, pm)[1],
              lambda: _figure7_by_k(cfg, pm)),
             (lambda: figures.figure9(cfg, pm),
              lambda: _figure9_by_m(cfg, pm))]
    pairs += [(lambda g=g, n=n: optimal_m(cfg, pm, g, M_max=m_max, n=n),
               lambda g=g, n=n: _optimal_m_by_scan(cfg, pm, g, m_max, n))
              for g, n in ((gamma, None), (gamma, cfg.n), (None, cfg.n))]
    for fast, by_count in pairs:
        assert _outcome(fast) == _outcome(by_count), (cfg, pm, gamma, m_max)


# --- figures 3, 4, 6 and 10 vs one evaluation per point ----------------------

# each curve's key, the row prefix that N_SWEEPS maps to the curve's (cfg, pm)
_CURVE_KEYS = {
    3: lambda cfg: [(d, beta) for d in (1, 2)
                    for beta in (cfg.beta, 0.2 * cfg.beta)],
    4: lambda cfg: [(p_rrh, psi) for p_rrh in (1.0, 0.2) for psi in (1, cfg.L)],
    6: lambda cfg: [(alpha2, psi) for alpha2 in (0.075, 0.15, 0.3)
                    for psi in (1, cfg.L)],
    10: lambda cfg: [(M, p0, pbt) for p0, pbt in ((0.825, 0.25e-9),
                                                  (8.25, 2.5e-9))
                     for M in (7, 1)],
}


def _n_figure_by_point(number, cfg, pm):
    """the rows of figure ``number``, each point evaluated alone in row
    order: a curve of figure 3, 4 or 6 takes its n* (-1 where none) first,
    and figures 3 and 6 sweep the multiples of d only."""
    rows = []
    for key in _CURVE_KEYS[number](cfg):
        cfg_i, pm_i = N_SWEEPS[number](cfg, pm, *key)
        tail = []
        if number != 10:
            try:
                tail = [optimal_n(cfg_i, pm_i, figures.GAMMA_DEFAULT).n]
            except InfeasibleError:
                tail = [-1]
        step = cfg_i.d if number in (3, 6) else 1
        for n in [n for n in figures.N_SWEEP if n % step == 0]:
            ee = ee_or_none(cfg_i, pm_i, figures.GAMMA_DEFAULT, n=n)
            rows.append([*key, n, math.nan if ee is None else ee,
                         int(ee is not None), *tail])
    return rows


@settings(FUZZ, max_examples=100)
@given(scenario=st.one_of(
    _explore_figure_scenarios(),
    st.builds(_scenario_of, _MODEL_ARGV, _MODES)))
# each raises a ConfigError from inside the runners
@example(scenario=_scenario_of(["--beta=1e300"], "exact"))
@example(scenario=_scenario_of(["--B=5e-324"], "exact"))
@example(scenario=_scenario_of(["--zeta=5e-324"], "exact"))
@example(scenario=_scenario_of(["--sigma2=1e300"], "negligible"))
def test_n_figures_equal_their_per_point_loops(scenario):
    # figures 3, 4, 6 and 10 give the rows of one evaluation per point, or
    # raise the error that loop raises first
    if scenario is not None:
        for number in _CURVE_KEYS:
            assert (_outcome(lambda: figures.RUNNERS[number](*scenario)[1])
                    == _outcome(lambda: _n_figure_by_point(number, *scenario))), \
                (number, scenario)


# --- replace is construction --------------------------------------------------

_BASES = (SystemConfig(), SystemConfig(psi=7, K=28, d=2, n=30),
          SystemConfig(L=4, psi=2, M=1, K=3, T=6, alpha1=0.0,
                       pilot_noise_mode="negligible"),
          PowerModel(), PowerModel(zeta=1.0, P_BT=1e-12))
_UNKNOWN = ("foo", "tau_u")   # tau_u is a property, not a field


def _values(field):
    odd = st.sampled_from([None, "x"])
    if field.type == "int":
        return st.one_of(st.integers(-2, 250),
                         st.sampled_from([2.0, 2.5, True]), odd)
    if field.type == "str":
        return st.one_of(st.sampled_from(["exact", "negligible", "sometimes"]),
                         odd)
    return st.one_of(_near(field.default), st.floats(), odd)


@st.composite
def _changes(draw, cls):
    """Zero to four changed fields, valid or not, unknown names included."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    names = draw(st.lists(st.sampled_from([*fields, *_UNKNOWN]),
                          max_size=4, unique=True))
    return {name: draw(_values(fields[name]) if name in fields
                       else st.integers()) for name in names}


def _built(make):
    """The record ``make`` builds, or the type and text of what it raises."""
    try:
        record = make()
    except Exception as exc:
        return type(exc), str(exc)
    return record, repr(record)


@settings(FUZZ, max_examples=300)
@given(base=st.sampled_from(_BASES), data=st.data())
def test_replace_equals_construction(base, data):
    cls = type(base)
    changes = data.draw(_changes(cls))
    fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(cls)}
    assert (_built(lambda: base.replace(**changes))
            == _built(lambda: cls(**{**fields, **changes}))), changes
