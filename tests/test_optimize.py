import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dasee import asymptotic, figures, optimize
from dasee.asymptotic import (InfeasibleAntennasError, InfeasibleError,
                              RateUnachievableError, energy_efficiency,
                              min_antennas, operating_point, rate_margin,
                              sinr_breakdown)
from dasee.config import ConfigError, PowerModel, SystemConfig, derived_scalars
from dasee.optimize import (BISECTION_WIDTH, OptimizationError,
                            OptimizationResult, exhaustive_argmax,
                            floor_ceil_select, optimal_k, optimal_m,
                            optimal_n, optimal_n_no_pc, z_of_k)
from dasee.optimize import ee_or_none as ee_or_none_at

CFG = SystemConfig()
PM = PowerModel()


def test_readme_quick_start_gives_the_values_it_states(capsys):
    # the "Library quick start" block of README.md, run as it stands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```",
                      readme, re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["best"].n == 11 and round(scope["best"].ee / 1e6) == 10
    assert (scope["joint"].M, scope["joint"].n) == (5, 17)
    assert scope["users"].K == 25
    assert capsys.readouterr().out.splitlines()[1:3] == ["5 17", "25"]


def ee_or_none(cfg, pm, gamma):
    def evaluate(n):
        try:
            return energy_efficiency(cfg, pm, gamma, n=n)
        except (InfeasibleAntennasError, RateUnachievableError, ConfigError):
            return None
    return evaluate


def random_scenario(rng):
    pm = PowerModel(P_FIX=9.0 * rng.uniform(0.5, 1.5),
                    P_RRH=0.2 * rng.uniform(0.5, 1.5),
                    P_0=0.825 * rng.uniform(0.5, 1.5),
                    P_BT=0.25e-9 * rng.uniform(0.5, 1.5),
                    zeta=min(1.0, 0.4 * rng.uniform(0.5, 1.5)))
    cfg = CFG.replace(M=int(rng.integers(1, 11)), K=int(rng.integers(5, 51)),
                      d=int(rng.integers(1, 3)),
                      sigma2=1e-7 * rng.uniform(0.5, 1.5))
    return cfg, pm, float(rng.uniform(0.5, 4.0))


# --- integer rounding -----------------------------------------------------

def test_floor_ceil_integer_passthrough():
    assert floor_ceil_select(7.0, lambda i: 1.0 / (1 + abs(i - 7))) == 7


def test_floor_ceil_prefers_higher_ee():
    assert floor_ceil_select(7.4, lambda i: float(i)) == 8       # increasing
    assert floor_ceil_select(7.4, lambda i: float(-i)) == 7      # decreasing
    assert floor_ceil_select(7.4, lambda i: None if i == 7 else 1.0) == 8


def test_floor_ceil_matches_two_point_scan():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        peak = rng.uniform(1.0, 50.0)
        width = rng.uniform(0.5, 10.0)
        x = rng.uniform(max(1.0, peak - 3), peak + 3)
        evaluate = lambda i: -((i - peak) / width) ** 2  # noqa: E731
        picked = floor_ceil_select(x, evaluate)
        lo, hi = math.floor(x), math.ceil(x)
        if lo < 1:
            best = hi
        elif evaluate(lo) > evaluate(hi):
            best = lo
        else:
            best = hi
        assert picked == best


def test_floor_ceil_both_infeasible():
    with pytest.raises(OptimizationError):
        floor_ceil_select(3.5, lambda i: None)


def test_exhaustive_argmax_ties_and_shape():
    assert exhaustive_argmax(lambda i: 1.0, range(4, 9)) == 4
    assert exhaustive_argmax(lambda i: -(i - 6.2) ** 2, range(1, 20)) == 6
    with pytest.raises(OptimizationError):
        exhaustive_argmax(lambda i: 1.0, range(5, 5))
    with pytest.raises(OptimizationError):
        exhaustive_argmax(lambda i: None, range(1, 5))


# --- antennas per RRH -----------------------------------------------------

def test_optimal_n_reference_points():
    # reference optima: 11 / 17 for d = 1 / 2, and 21 / 26 at 5x weaker gain
    assert optimal_n(CFG, PM, 2.0).n == 11
    assert optimal_n(CFG.replace(d=2), PM, 2.0).n == 17
    weaker = CFG.replace(beta=0.2 * CFG.beta)
    assert optimal_n(weaker, PM, 2.0).n == 21
    assert optimal_n(weaker.replace(d=2), PM, 2.0).n == 26


def test_optimal_n_pilot_power_sensitivity():
    # the reference optima pin the pilot-power assumption: documented scan
    expected = {0.1: (14, 37), 0.5: (11, 21), 1.0: (11, 19), 10.0: (10, 16)}
    for p_u, (nominal, weak) in expected.items():
        cfg = CFG.replace(p_u=p_u)
        assert optimal_n(cfg, PM, 2.0).n == nominal
        assert optimal_n(cfg.replace(beta=0.2 * cfg.beta), PM, 2.0).n == weak
    negligible = CFG.replace(pilot_noise_mode="negligible")
    assert optimal_n(negligible, PM, 2.0).n == 10
    assert optimal_n(negligible.replace(beta=0.2 * CFG.beta), PM, 2.0).n == 16


def test_optimal_n_matches_exhaustive_scan():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 60:
        cfg, pm, gamma = random_scenario(rng)
        try:
            result = optimal_n(cfg, pm, gamma)
        except RateUnachievableError:
            continue
        cap = math.ceil(result.x_real) + 100
        n_min = min_antennas(cfg, sinr_breakdown(cfg), gamma)
        scanned = exhaustive_argmax(ee_or_none(cfg, pm, gamma),
                                    range(n_min, cap))
        assert scanned == result.n, (cfg, pm, gamma)
        checked += 1


def test_optimal_n_result_consistency():
    result = optimal_n(CFG, PM, 2.0)
    assert math.isclose(result.ee, energy_efficiency(CFG, PM, 2.0, n=result.n),
                        rel_tol=1e-12)
    assert result.window[0] <= result.n
    assert result.x_real > result.window[0] - 1


def test_optimal_n_ee_equals_energy_efficiency_at_n_star():
    # the candidates come from one breakdown; the result must still be the
    # per-point evaluator's bits, on both sides of the floor/ceil choice
    rng = np.random.default_rng(29)
    checked = 0
    while checked < 50:
        cfg, pm, gamma = random_scenario(rng)
        psi = int(rng.choice([1, 7]))
        if psi * cfg.K < cfg.T:
            cfg = cfg.replace(psi=psi)
        try:
            result = optimal_n(cfg, pm, gamma)
        except RateUnachievableError:
            continue
        assert result.ee == energy_efficiency(cfg, pm, gamma, n=result.n)
        checked += 1


def test_no_pc_bound_is_orthogonal_specialization():
    clean = CFG.replace(psi=CFG.L, pilot_noise_mode="negligible")
    direct = optimal_n(clean, PM, 2.0)
    bound = optimal_n_no_pc(CFG, PM, 2.0)
    assert bound.n == direct.n and math.isclose(bound.ee, direct.ee)


def test_contamination_needs_more_antennas():
    assert optimal_n_no_pc(CFG, PM, 2.0).n <= optimal_n(CFG, PM, 2.0).n


def test_intercell_factor_raises_optimum():
    # with PC (d=2): 17 -> 21 -> 29 as alpha2 grows; without PC only mildly
    stars, clean_stars = [], []
    for alpha2 in (0.075, 0.15, 0.3):
        cfg = CFG.replace(d=2, alpha2=alpha2)
        stars.append(optimal_n(cfg, PM, 2.0).n)
        clean_stars.append(optimal_n_no_pc(cfg, PM, 2.0).n)
    assert stars == [17, 21, 29]
    assert clean_stars == sorted(clean_stars)
    assert clean_stars[-1] - clean_stars[0] < stars[-1] - stars[0]


def test_directional_monotonicity_of_optimum():
    base = CFG.replace(pilot_noise_mode="negligible")

    def star(**kw):
        cfg = base.replace(**{k: v for k, v in kw.items()
                              if k not in ("P_RRH",)})
        pm = PM.replace(P_RRH=kw["P_RRH"]) if "P_RRH" in kw else PM
        return optimal_n(cfg, pm, 2.0).n

    assert star(K=5) <= star(K=10) <= star(K=20) <= star(K=40)
    assert star(d=1) <= star(d=2) <= star(d=4)
    assert star(psi=7) <= star(psi=1)
    assert star(P_RRH=0.8) <= star(P_RRH=0.2) <= star(P_RRH=0.05)
    assert star(beta=4 * CFG.beta) <= star(beta=CFG.beta) <= star(
        beta=CFG.beta / 4)


def test_rate_ceiling_propagates():
    with pytest.raises(RateUnachievableError):
        optimal_n(CFG, PM, 12.0)


# --- user count -----------------------------------------------------------

def test_z_limits():
    import dasee.optimize as op
    cfg = CFG.replace(n=20)
    (clean, mu1, mu2, slope), _ = op._user_count_scalars(cfg, PM, 2.0)
    upper = min(clean.T / clean.psi, mu1 / slope)
    assert math.isclose(z_of_k(cfg, PM, 2.0, 1e-7),
                        -mu2 * clean.T * mu1 ** 2, rel_tol=1e-6)
    assert z_of_k(cfg, PM, 2.0, upper * (1 - 1e-9)) > 0.0
    with pytest.raises(ValueError, match="outside"):
        z_of_k(cfg, PM, 2.0, upper + 1.0)
    with pytest.raises(ValueError, match="outside"):
        z_of_k(cfg, PM, 2.0, 0.0)


def test_z_sign_matches_inverse_ee_slope():
    # finite-difference oracle on 1/EE (negligible mode), step 1e-4
    rng = np.random.default_rng(23)
    cfg = CFG.replace(n=20, pilot_noise_mode="negligible")
    import dasee.optimize as op
    (_, mu1, _, slope), _ = op._user_count_scalars(cfg, PM, 2.0)
    upper = min(cfg.T / cfg.psi, mu1 / slope)
    step = 1e-4

    def inv_ee(K):
        brk = sinr_breakdown(cfg)
        margin = brk.S / (2.0 ** 2.0 - 1.0) - brk.I_PC
        p_d = cfg.sigma2 / (cfg.n * margin - slope * K)
        frac = (cfg.T - cfg.psi * K) / cfg.T
        total = (PM.P_FIX + cfg.n * cfg.M * PM.P_RRH + frac * p_d / PM.zeta * K
                 + cfg.M * (PM.P_0 + PM.P_BT * cfg.B * frac * K * 2.0))
        return total / (cfg.B * frac * K * 2.0)

    for _ in range(100):
        K = float(rng.uniform(step * 10, upper - step * 10))
        slope_fd = (inv_ee(K + step) - inv_ee(K - step)) / (2 * step)
        assert np.sign(z_of_k(cfg, PM, 2.0, K)) == np.sign(slope_fd), K


def test_optimal_k_reference_points():
    # quartic-root user counts at n=20, M=7, gamma=2
    assert optimal_k(CFG.replace(n=20), PM, 2.0).K == 25          # reference 24
    assert optimal_k(CFG.replace(n=20, psi=7), PM, 2.0).K == 14
    assert optimal_k(CFG.replace(n=20, d=2), PM, 2.0).K == 13


def test_optimal_k_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 60:
        cfg, pm, gamma = random_scenario(rng)
        cfg = cfg.replace(n=int(rng.integers(5, 101)),
                          psi=int(rng.choice([1, 7])),
                          pilot_noise_mode="negligible", K=1)
        try:
            result = optimal_k(cfg, pm, gamma)
        except (RateUnachievableError, OptimizationError):
            continue

        def evaluate(K):
            try:
                return energy_efficiency(cfg, pm, gamma, K=K)
            except (InfeasibleAntennasError, RateUnachievableError,
                    ConfigError):
                return None

        scanned = exhaustive_argmax(evaluate, range(1, cfg.T // cfg.psi + 1))
        assert scanned == result.K, (cfg, pm, gamma)
        checked += 1


def _bisect_through_z_of_k(cfg, pm, gamma):
    """optimal_k's (K*, x_real), driven through the public z_of_k."""
    clean = cfg.replace(pilot_noise_mode="negligible", K=1)
    mu1 = clean.n * rate_margin(sinr_breakdown(clean), gamma)
    slope = clean.d * clean.beta * derived_scalars(clean).xi
    upper = min(clean.T / clean.psi, mu1 / slope)
    lo, hi = upper * 1e-9, upper * (1.0 - 1e-12)
    if not z_of_k(cfg, pm, gamma, lo) < 0.0 < z_of_k(cfg, pm, gamma, hi):
        raise OptimizationError("no sign change")
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if z_of_k(cfg, pm, gamma, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    k_real = 0.5 * (lo + hi)
    return floor_ceil_select(k_real, lambda K: ee_or_none_at(
        clean, pm, gamma, K=K)), k_real


def test_optimal_k_equals_bisection_through_z_of_k():
    rng = np.random.default_rng(31)
    for _ in range(50):
        cfg, pm, gamma = random_scenario(rng)
        cfg = cfg.replace(n=int(rng.integers(5, 101)),
                          psi=int(rng.choice([1, 7])), K=1)
        try:
            expected = _bisect_through_z_of_k(cfg, pm, gamma)
        except (RateUnachievableError, OptimizationError) as exc:
            with pytest.raises(type(exc)):
                optimal_k(cfg, pm, gamma)
            continue
        result = optimal_k(cfg, pm, gamma)
        assert (result.K, result.x_real) == expected, (cfg, pm, gamma)


def test_optimal_k_unique_root_on_grid():
    # z changes sign exactly once over a 1e4-point grid
    import dasee.optimize as op
    for cfg in (CFG.replace(n=20), CFG.replace(n=20, psi=7),
                CFG.replace(n=20, d=2)):
        (_, mu1, _, slope), _ = op._user_count_scalars(cfg, PM, 2.0)
        upper = min(cfg.T / cfg.psi, mu1 / slope)
        grid = np.linspace(upper * 1e-6, upper * (1 - 1e-9), 10_000)
        signs = np.sign([z_of_k(cfg, PM, 2.0, k) for k in grid])
        assert (np.diff(signs) != 0).sum() == 1


# --- RRH count ------------------------------------------------------------

def test_optimal_m_joint_reference_point():
    result = optimal_m(CFG, PM, 2.0, K=10)
    assert (result.M, result.n) == (5, 17)
    assert abs(result.ee / 1e6 - 10.12) < 0.02


def test_optimal_m_singleton_candidate():
    result = optimal_m(CFG, PM, 2.0, M_max=1)
    assert result.M == 1


def test_optimal_m_fixed_antenna_policy():
    result = optimal_m(CFG, PM, 2.0, n=20, M_max=10)

    def evaluate(M):
        try:
            return energy_efficiency(CFG, PM, 2.0, n=20, M=M)
        except (InfeasibleAntennasError, RateUnachievableError):
            return None

    assert result.M == exhaustive_argmax(evaluate, range(1, 11))
    assert result.n == 20


def test_count_arguments_obey_the_count_rule():
    # M_max and n arguments are counts like the config's: in [1, 2^53]
    for M_max in (0, 2 ** 53 + 1):
        for n in (None, 20):
            with pytest.raises(ConfigError, match="^M_max must be"):
                optimal_m(CFG, PM, 2.0, M_max=M_max, n=n)
    with pytest.raises(ConfigError, match=r"^n must be at most 2\^53"):
        operating_point(CFG, PM, 2.0, n=2 ** 53 + 1)
    assert operating_point(CFG, PM, None, n=2 ** 53).ee > 0.0


def test_scan_bounds_the_sweep_at_max_sweep(monkeypatch):
    # on either axis a sweep past MAX_SWEEP counts raises before it
    # allocates its lanes, and a sweep of MAX_SWEEP counts reaches its pass
    assert optimize.MAX_SWEEP == 2 ** 20

    def no_pass(cfg, pm, gamma, lanes):
        raise RuntimeError(lanes.M if lanes.K is None else lanes.K)

    monkeypatch.setattr(optimize, "Design", no_pass)
    for axis in ("M", "K"):
        tracemalloc.start()
        with pytest.raises(ConfigError, match=rf"^a sweep of {axis} over "
                           rf"1\.\.1048577 is longer than 1048576 counts$"):
            optimize.sweep(axis, 2 ** 20 + 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2 ** 16   # the lanes alone are 8 MiB
        with pytest.raises(RuntimeError) as reached:
            optimize.scan(CFG, PM, 2.0, optimize.sweep(axis, 2 ** 20))
        assert np.array_equal(reached.value.args[0],
                              np.arange(1, 2 ** 20 + 1))


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_bad_rate_is_a_config_error(gamma):
    with pytest.raises(ConfigError, match="gamma"):
        optimal_n(CFG, PM, gamma)
    with pytest.raises(ConfigError, match="gamma"):
        optimal_k(CFG, PM, gamma)
    with pytest.raises(ConfigError, match="gamma"):
        optimal_m(CFG, PM, gamma, M_max=3)
    with pytest.raises(ConfigError, match="gamma"):
        optimal_m(CFG, PM, gamma, M_max=3, n=20)


def test_optimal_m_skips_m_without_integer_optimum(monkeypatch):
    # an OptimizationError at one M (both rounding neighbors infeasible)
    # skips that M like any other infeasible M instead of ending the scan;
    # no n has a transmit power at M = 5 (the optimum), both in optimal_n
    # at M = 5 and in that lane of optimal_m's array pass
    real = asymptotic.Design.transmit_power

    def none_at_5(self, n):
        p_d = real(self, n)
        if self.lanes is None:
            return None if self.M == 5 else p_d
        return np.where(self.M == 5, np.nan, p_d)

    monkeypatch.setattr(asymptotic.Design, "transmit_power", none_at_5)
    cfg = CFG.replace(K=10)
    with pytest.raises(OptimizationError, match="both neighbors of 17.12"):
        optimal_n(cfg, PM, 2.0, M=5)
    result = optimal_m(CFG, PM, 2.0, K=10, M_max=8)
    assert (result.M, result.n) == (6, optimal_n(cfg, PM, 2.0, M=6).n)


def test_unrepresentable_antenna_optimum_is_unachievable():
    # without contamination a rate near 1024 needs over 2**53 antennas, where
    # floor/ceil name no integer neighbors: the rate is unachievable
    clean = CFG.replace(psi=7)
    for gamma, M in ((1000.0, None), (1023.9, None), (1023.9, 1)):
        with pytest.raises(RateUnachievableError):
            optimal_n(clean, PM, gamma, M=M)


def _each_m(cfg, pm, gamma, m_max, n=None):
    """optimal_n (with ``n``: the operating point at n) at each M =
    1..m_max alone: the feasible results and the last M's InfeasibleError;
    a ConfigError is raised at the first M with one."""
    results, skipped = [], None
    for M in range(1, m_max + 1):
        try:
            if n is None:
                results.append(optimal_n(cfg, pm, gamma, M=M))
            else:
                ee, p_d, _ = operating_point(cfg.replace(n=n, M=M), pm, gamma)
                results.append(OptimizationResult(ee=ee, p_d=p_d, n=n, M=M,
                                                  K=cfg.K))
        except InfeasibleError as exc:
            skipped = exc
    return results, skipped


def _optimal_m_by_scan(cfg, pm, gamma, m_max, n=None):
    """optimal_m by its definition, one M at a time: the best of
    ``_each_m``, ties to the smaller M, an M with no optimum skipped, the
    last M's reason if every M is skipped, and no optimum of EE 0."""
    results, skipped = _each_m(cfg, pm, gamma, m_max, n)
    best = None
    for cand in results:
        if best is None or cand.ee > best.ee:
            best = cand
    if best is None:
        raise OptimizationError(f"no feasible M <= {m_max}: {skipped}")
    if best.ee == 0.0:   # at a fixed n with psi*K = T: EE 0 at every M
        raise OptimizationError(optimize.ZERO_EE.format("M"))
    return OptimizationResult(ee=best.ee, p_d=best.p_d, n=best.n, K=cfg.K,
                              M=best.M, x_real=best.x_real,
                              window=(1.0, float(m_max)))


def _scan_lanes(cfg, pm, gamma, m_max, n=None):
    """(M, n*, EE, p_d, x_real) of every feasible lane of a scan over M."""
    feasible, n_star, ee, p_d, x_real = optimize.scan(
        cfg, pm, gamma, optimize.sweep("M", m_max), n)
    return [(int(i) + 1, n or int(n_star[i]), float(ee[i]), float(p_d[i]),
             x_real if n else float(x_real[i]))
            for i in np.flatnonzero(feasible)]


def _figure9_by_m(cfg, pm):
    """figure9 as a per-M loop: optimal_n at each M alone, (-1, NaN)
    where it raises an InfeasibleError."""
    rows = []
    for K in (10, 50, 100):
        for M in range(1, 16):
            try:
                res = optimal_n(cfg.replace(K=K), pm, 2.0, M=M)
                n_star, ee = res.n, res.ee
            except InfeasibleError:
                n_star, ee = -1, math.nan
            rows.append([K, M, n_star, ee, int(n_star > 0)])
    return ["K", "M", "n_star", "ee_bits_per_joule", "feasible"], rows


def _outcome(call):
    """repr of the result (so a numpy scalar shows), or (type, message)."""
    try:
        return repr(call())
    except (ConfigError, InfeasibleError) as exc:
        return type(exc), str(exc)


def test_joint_optimal_m_equals_scan_of_optimal_n():
    # optimal_m (joint and fixed-n) against its definition, one M at a
    # time, result for result and error for error, and every M's lane of
    # its array pass against that M alone; so are figure 9's rows against
    # optimal_n per M
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(40):
        cfg, pm, _ = random_scenario(rng)
        if rng.uniform() < 0.5:
            cfg = cfg.replace(psi=7, K=min(cfg.K, 28))
        cfg = cfg.replace(iota=float(rng.uniform(2.0, 4.0)),
                          pilot_noise_mode=str(rng.choice(
                              ["exact", "negligible"])))
        cases.append((cfg, pm, float(rng.uniform(0.5, 9.0)),
                      int(rng.integers(1, 61))))
    cases += [(CFG.replace(beta=1e300), PM, 2.0, 8),     # S beyond range
              (CFG, PM.replace(P_0=1e308), 2.0, 8),      # M = 1 fine, 2 not
              (CFG.replace(iota=400.0), PM, 9.0, 60),    # M^iota from M = 6
              (CFG, PM.replace(P_RRH=1e-320), 2.0, 8),   # joint: all skipped
              (CFG.replace(n=1), PM, 3.0, 8),            # fixed: all skipped
              (CFG.replace(n=2 ** 53), PM, 2.0, 30),      # n * M beyond 2^53
              (CFG.replace(B=5e-324), PM, 2.0, 8),        # EE rounds to 0
              (CFG, PM, 2.0, 60)]
    # every floor_ceil_select branch in one pass: n* beyond 2^53 at M = 1,
    # lo == hi at M = 2, an infeasible floor from M = 22, and from M = 27
    # a ConfigError (P_FIX + M*P_0 beyond the range) at the ceiling only
    branches = (CFG.replace(iota=60.0),
                PM.replace(P_RRH=4e-39, P_FIX=1e308, P_0=3e306), 2.0)
    cases += [(*branches, 26), (*branches, 28)]
    expected = [(_outcome(lambda: _optimal_m_by_scan(cfg, pm, gamma, m_max)),
                 _outcome(lambda: _optimal_m_by_scan(cfg, pm, gamma, m_max,
                                                     n=cfg.n)))
                for cfg, pm, gamma, m_max in cases]
    per_m = [tuple(_outcome(lambda: [(r.M, r.n, r.ee, r.p_d, r.x_real)
                                     for r in _each_m(cfg, pm, gamma, m_max,
                                                      n)[0]])
                   for n in (None, cfg.n))
             for cfg, pm, gamma, m_max in cases]
    for outcomes in zip(*expected):   # results and both kinds of error
        assert sum(isinstance(o, str) for o in outcomes) >= 10
        assert {o[0] for o in outcomes if not isinstance(o, str)} == {
            ConfigError, OptimizationError}
    figure_cases = [(CFG, PM), (CFG.replace(d=2, iota=3.3), PM),
                    (CFG.replace(pilot_noise_mode="negligible"), PM),
                    (CFG, PM.replace(P_RRH=1e-320)),
                    (CFG.replace(T=100), PM)]   # K = 100: every symbol a pilot
    figure_rows = [repr(_figure9_by_m(cfg, pm)) for cfg, pm in figure_cases]
    for (cfg, pm, gamma, m_max), want, lanes in zip(cases, expected, per_m):
        got = (_outcome(lambda: optimal_m(cfg, pm, gamma, M_max=m_max)),
               _outcome(lambda: optimal_m(cfg, pm, gamma, M_max=m_max,
                                          n=cfg.n)))
        assert got == want, (cfg, pm, gamma, m_max)
        got = tuple(_outcome(lambda: _scan_lanes(cfg, pm, gamma, m_max, n))
                    for n in (None, cfg.n))
        assert got == lanes, (cfg, pm, gamma, m_max)
    for (cfg, pm), want in zip(figure_cases, figure_rows):
        assert repr(figures.figure9(cfg, pm)) == want, (cfg, pm)


@pytest.mark.parametrize("figure,curves", [(3, 4), (4, 4), (6, 6), (10, 4)])
def test_each_ee_vs_n_curve_builds_one_design(monkeypatch, figure, curves):
    # a curve's EE at every n and its n* come from one Design; patched on
    # the class, so optimize's reference to Design is counted too
    built = []
    init = asymptotic.Design.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(asymptotic.Design, "__init__", counted)
    figures.RUNNERS[figure](CFG, PM)
    assert len(built) == curves


def _optimal_n_by_k(cfg, pm, gamma):
    """(K, n*, EE, p_d, x_real) of optimal_n at each user count K =
    1..T/psi alone, an infeasible K skipped; a ConfigError propagates from
    the first K with one."""
    out = []
    for K in range(1, cfg.T // cfg.psi + 1):
        try:
            res = optimal_n(cfg.replace(K=K), pm, gamma)
        except InfeasibleError:
            continue
        out.append((K, res.n, res.ee, res.p_d, res.x_real))
    return out


def _scan_k(cfg, pm, gamma):
    """(K, n*, EE, p_d, x_real) of every feasible lane of a scan over K."""
    feasible, n_star, ee, p_d, x_real = optimize.scan(
        cfg, pm, gamma, optimize.sweep("K", cfg.T // cfg.psi))
    return [(int(i) + 1, int(n_star[i]), float(ee[i]), float(p_d[i]),
             float(x_real[i])) for i in np.flatnonzero(feasible)]


def test_scan_over_user_counts_equals_optimal_n_per_k():
    # n* at every user count in one pass over K (_antenna_optimum and
    # _floor_ceil_lanes over K lanes) against optimal_n at each K alone:
    # lane for lane, an infeasible K for an infeasible K, and the
    # ConfigError of the first K that raises one, in both pilot-noise modes
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(30):
        cfg, pm, _ = random_scenario(rng)
        cfg = cfg.replace(K=1, psi=int(rng.choice([1, 7])),
                          T=int(rng.integers(7, 197)),
                          iota=float(rng.uniform(2.0, 4.0)))
        cases.append((cfg, pm, float(rng.uniform(0.5, 9.0))))
    cases += [(CFG.replace(K=1, B=1e307), PM, 2.0),   # B*se from K = 10
              (CFG.replace(K=1, B=1e307), PM.replace(P_BT=0.5), 2.0),
              (CFG.replace(K=1), PM.replace(P_RRH=1e-320), 2.0),
              (CFG.replace(K=1, psi=7, iota=60.0),
               PM.replace(P_RRH=4e-39, P_FIX=1e308, P_0=3e306), 2.0),
              (CFG.replace(K=1, beta=1e300), PM, 2.0),
              (CFG.replace(K=1), PM, 2.0)]
    errors, feasible = set(), []   # per curve: (feasible K, swept K)
    for mode in ("exact", "negligible"):
        for cfg, pm, gamma in cases:
            cfg = cfg.replace(pilot_noise_mode=mode)
            try:
                want = _optimal_n_by_k(cfg, pm, gamma)
            except ConfigError as exc:
                errors.add(str(exc))
                with pytest.raises(ConfigError) as got:
                    _scan_k(cfg, pm, gamma)
                assert str(got.value) == str(exc)
                continue
            assert repr(_scan_k(cfg, pm, gamma)) == repr(want), (cfg, pm,
                                                                 gamma)
            feasible.append((len(want), cfg.T // cfg.psi))
    assert len(errors) >= 2 and sum(k for k, _ in feasible) > 1000
    # curves with every K feasible, with some K skipped, and with none
    assert {min(k, 1) + (k == count) for k, count in feasible} == {0, 1, 2}


def test_negligible_antenna_power_is_reported():
    # margin * M * P_RRH underflows to 0 at a subnormal P_RRH (it was a
    # ZeroDivisionError) and the balance point lies beyond 2^53 antennas
    # well before that; optimal_m skips such an M
    for p_rrh in (5e-324, 1e-320, 1e-300):
        with pytest.raises(OptimizationError, match="P_RRH"):
            optimal_n(CFG, PM.replace(P_RRH=p_rrh), 2.0)
        with pytest.raises(OptimizationError, match="no feasible M"):
            optimal_m(CFG, PM.replace(P_RRH=p_rrh), 2.0, M_max=4)


def test_optimal_n_computes_the_rate_margin_once(monkeypatch):
    # n_min, the balance point and the floor/ceil candidates all read one
    # margin; the n-closures recomputed it three times per call
    calls = []

    def counted(brk, gamma, lanes=None):
        calls.append(gamma)
        return rate_margin(brk, gamma, lanes)
    for module in (asymptotic, optimize):
        monkeypatch.setattr(module, "rate_margin", counted)
    res = optimal_n(CFG, PM, 2.0)
    assert res.n == 11 and calls == [2.0]


def test_optimal_m_all_infeasible():
    with pytest.raises((OptimizationError, RateUnachievableError)):
        optimal_m(CFG, PM, 12.0, M_max=3)


def test_antenna_cost_is_quasiconvex():
    # f(n) = n*M*P_RRH + transmit cost: strictly falls then rises
    for cfg in (CFG, CFG.replace(d=2), CFG.replace(K=40),
                CFG.replace(beta=0.2 * CFG.beta)):
        brk = sinr_breakdown(cfg)
        n_min = min_antennas(cfg, brk, 2.0)
        margin = brk.S / 3.0 - brk.I_PC
        f = [n * cfg.M * PM.P_RRH
             + cfg.K * (cfg.T - cfg.tau_u) / (cfg.T * PM.zeta) * cfg.sigma2
             / (n * margin - brk.I_MU_scaled)
             for n in range(n_min, 400)]
        rising = np.diff(f) > 0
        # no local minimum other than the global one
        assert (np.diff(rising.astype(int)) >= 0).all()
        assert rising[-1]
