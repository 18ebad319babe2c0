"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  The suite covers: Monte-Carlo agreement of the asymptotic EE,
reproduction of the reference optimal antenna / user / RRH counts, exact
equivalence of the closed-form and bisection optimizers with exhaustive
integer scans, geometry calibration, and the structural property checks
(quasi-convexity, root uniqueness, covariance consistency, monotonicity).
"""
import math

import numpy as np
import pytest

from dasee.asymptotic import (InfeasibleAntennasError, RateUnachievableError,
                              deterministic_sinr, energy_efficiency,
                              min_antennas, sinr_breakdown, total_power_at_se)
from dasee.config import ConfigError, PowerModel, SystemConfig
from dasee.geometry import build_layout, calibrate
from dasee.montecarlo import (empirical_ee, generate_realization,
                              rate_from_sinr, steering_matrix)
from dasee.optimize import (OptimizationError, exhaustive_argmax, optimal_k,
                            optimal_m, optimal_n, z_of_k)
from dasee.rmt import (general_deterministic_sinr, phi_matrix,
                       simplified_correlation_set)

CFG = SystemConfig()   # reference defaults + calibrated gains, p_u = 0.5 W
PM = PowerModel()


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def ee_evaluator(cfg, pm, gamma):
    def evaluate(value):
        try:
            return energy_efficiency(cfg, pm, gamma, n=value)
        except (InfeasibleAntennasError, RateUnachievableError, ConfigError):
            return None
    return evaluate


def test_criterion_1_monte_carlo_agreement():
    """Empirical EE within 5% of the asymptotic EE at every curve point."""
    worst = 0.0
    for psi in (1, 7):
        for K in (10, 20):
            base = CFG.replace(psi=psi, K=K, p_d=1.0)
            for n in range(10, 61, 10):
                cfg = base.replace(n=n)
                sinr = deterministic_sinr(cfg)
                se = rate_from_sinr(cfg, [sinr] * K)
                ee_de = cfg.B * se / total_power_at_se(cfg, PM, se)
                ee_mc = empirical_ee(cfg, PM, realizations=1000, seed=1)
                rel = abs(ee_mc - ee_de) / ee_de
                worst = max(worst, rel)
                assert rel < 0.05, (psi, K, n, rel)
    report(1, worst < 0.05,
           f"DE vs MC over 24 points, worst relative error {worst:.3%} < 5%")


def test_criterion_2_optimal_antennas_reproduction():
    """Reference n* values (11/17 and 21/26 at 0.2x gain), tolerance +-1."""
    targets = {(1, 1.0): 11, (2, 1.0): 17, (1, 0.2): 21, (2, 0.2): 26}
    achieved = {}
    for (d, scale), expected in targets.items():
        cfg = CFG.replace(d=d, beta=scale * CFG.beta)
        achieved[(d, scale)] = optimal_n(cfg, PM, 2.0).n
    ok = all(abs(achieved[key] - targets[key]) <= 1 for key in targets)
    report(2, ok, f"n* {achieved} vs reference {targets} (tolerance +-1, "
                  f"pilot power 0.5 W documented)")


def test_criterion_3_antenna_oracle_equivalence():
    """Closed-form n* equals the exhaustive integer argmax, 200 configs."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        pm = PowerModel(P_FIX=9.0 * rng.uniform(0.5, 1.5),
                        P_RRH=0.2 * rng.uniform(0.5, 1.5),
                        P_0=0.825 * rng.uniform(0.5, 1.5),
                        P_BT=0.25e-9 * rng.uniform(0.5, 1.5),
                        zeta=min(1.0, 0.4 * rng.uniform(0.5, 1.5)))
        cfg = CFG.replace(M=int(rng.integers(1, 11)),
                          K=int(rng.integers(5, 51)),
                          d=int(rng.integers(1, 3)),
                          sigma2=1e-7 * rng.uniform(0.5, 1.5))
        gamma = float(rng.uniform(0.5, 4.0))
        try:
            result = optimal_n(cfg, pm, gamma)
        except RateUnachievableError:
            continue
        n_min = min_antennas(cfg, sinr_breakdown(cfg), gamma)
        cap = math.ceil(result.x_real) + 100
        scanned = exhaustive_argmax(ee_evaluator(cfg, pm, gamma),
                                    range(n_min, cap))
        assert scanned == result.n, (cfg, pm, gamma, scanned, result.n)
        checked += 1
    report(3, True, f"closed-form n* == scan argmax on {checked}/200 "
                    f"randomized configurations (exact match)")


def test_criterion_4_optimal_users_reproduction_and_oracle():
    """Reference K* (24/14/13) within +-1; bisection == scan on 200 configs."""
    targets = [(CFG.replace(n=20), 24), (CFG.replace(n=20, psi=7), 14),
               (CFG.replace(n=20, d=2), 13)]
    achieved = []
    for cfg, expected in targets:
        k_star = optimal_k(cfg, PM, 2.0).K
        achieved.append(k_star)
        assert abs(k_star - expected) <= 1, (expected, k_star)

    rng = np.random.default_rng(77)
    checked = 0
    while checked < 200:
        pm = PowerModel(P_FIX=9.0 * rng.uniform(0.5, 1.5),
                        P_RRH=0.2 * rng.uniform(0.5, 1.5),
                        P_0=0.825 * rng.uniform(0.5, 1.5),
                        P_BT=0.25e-9 * rng.uniform(0.5, 1.5),
                        zeta=min(1.0, 0.4 * rng.uniform(0.5, 1.5)))
        cfg = CFG.replace(M=int(rng.integers(1, 11)),
                          n=int(rng.integers(5, 101)),
                          d=int(rng.integers(1, 3)),
                          psi=int(rng.choice([1, 7])),
                          sigma2=1e-7 * rng.uniform(0.5, 1.5),
                          pilot_noise_mode="negligible")
        gamma = float(rng.uniform(0.5, 4.0))
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
        assert scanned == result.K, (cfg, pm, gamma, scanned, result.K)
        checked += 1
    report(4, True, f"K* = {achieved} vs reference [24, 14, 13] (+-1); "
                    f"bisection == scan on {checked}/200 configurations")


def test_criterion_5_joint_search_reproduction():
    """Joint (M*, n*) at K = 10/50/100 within +-1; EE within 10%."""
    expected = {10: (5, 17), 50: (7, 40), 100: (9, 54)}
    achieved = {}
    for K, (m_ref, n_ref) in expected.items():
        result = optimal_m(CFG, PM, 2.0, K=K)
        achieved[K] = (result.M, result.n)
        assert abs(result.M - m_ref) <= 1, (K, result.M, m_ref)
        assert abs(result.n - n_ref) <= 1, (K, result.n, n_ref)
        if K == 10:
            ee_ref = 10.12e6
            assert abs(result.ee - ee_ref) / ee_ref < 0.10, result.ee
            ee10 = result.ee
    report(5, True, f"(M*, n*) {achieved} vs {expected} (+-1 each); "
                    f"EE at K=10 is {ee10 / 1e6:.3f} Mbits/J vs 10.12 (10%)")


def test_criterion_6_geometry_calibration():
    """1000 drops reproduce beta (5%), alpha1 (+-0.05), alpha2 (+-0.01)."""
    layout = build_layout(M=7, Rc=2000.0, L=7)
    fit = calibrate(layout, iota=2.5, K=10, drops=1000, seed=7)
    ok = (abs(fit.beta / 2.24e-8 - 1.0) < 0.05
          and abs(fit.alpha1 - 0.54) < 0.05
          and abs(fit.alpha2 - 0.075) < 0.01)
    report(6, ok, f"beta={fit.beta:.3e} (ref 2.24e-8, 5%), "
                  f"alpha1={fit.alpha1:.3f} (ref 0.54 +-0.05), "
                  f"alpha2={fit.alpha2:.4f} (ref 0.075 +-0.01)")


def test_criterion_7_property_suite():
    """Structural properties behind the closed forms."""
    # (a) contamination power vanishes exactly when reuse is orthogonal or
    # the cells do not couple
    rng = np.random.default_rng(11)
    for _ in range(40):
        cfg = CFG.replace(psi=int(rng.choice([1, 7])),
                          alpha2=float(rng.choice([0.0, 0.075, 0.4])))
        pc = sinr_breakdown(cfg).I_PC
        assert (pc == 0.0) == (cfg.psi == cfg.L or cfg.alpha2 == 0.0)

    # (b) the antenna cost curve has a single local minimum
    for cfg in (CFG, CFG.replace(d=2), CFG.replace(K=40, d=2),
                CFG.replace(beta=0.2 * CFG.beta)):
        brk = sinr_breakdown(cfg)
        margin = brk.S / 3.0 - brk.I_PC
        n_lo = min_antennas(cfg, brk, 2.0)
        cost = np.array([
            n * cfg.M * PM.P_RRH
            + cfg.K * (cfg.T - cfg.tau_u) / (cfg.T * PM.zeta) * cfg.sigma2
            / (n * margin - brk.I_MU_scaled) for n in range(n_lo, 400)])
        rising = np.diff(cost) > 0
        assert (np.diff(rising.astype(int)) >= 0).all() and rising[-1]

    # (c) the user-count sign function changes sign exactly once on a
    # 1e4-point grid of its open interval
    import dasee.optimize as op
    for cfg in (CFG.replace(n=20), CFG.replace(n=20, psi=7),
                CFG.replace(n=20, d=2)):
        (_, mu1, _, slope), _ = op._user_count_scalars(cfg, PM, 2.0)
        upper = min(cfg.T / cfg.psi, mu1 / slope)
        grid = np.linspace(upper * 1e-6, upper * (1 - 1e-9), 10_000)
        signs = np.sign([z_of_k(cfg, PM, 2.0, k) for k in grid])
        assert (np.diff(signs) != 0).sum() == 1

    # (d) matrix-valued and closed-form deterministic equivalents agree
    worst_gap = 0.0
    for cfg in (SystemConfig(L=7, M=5, K=10, n=16),
                SystemConfig(L=7, M=7, K=14, n=20, d=2, psi=7)):
        corr = simplified_correlation_set(cfg)
        sinr = general_deterministic_sinr(corr, cfg.p_d, cfg.p_u, cfg.tau_u,
                                          cfg.sigma2)
        gap = float(np.abs(sinr / deterministic_sinr(cfg) - 1.0).max())
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-9

    # (e) empirical MMSE-estimate covariance vs its model value, n = 16
    cfg = SystemConfig(L=2, M=2, K=2, n=16, d=2, psi=1, p_u=1.0)
    steering = steering_matrix(cfg.n, cfg.P)
    corr = simplified_correlation_set(cfg, steering=steering)
    phi = phi_matrix(corr, 0, 0, 0, cfg.p_u, cfg.tau_u, cfg.sigma2)
    samples = np.empty((10_000, cfg.n), dtype=complex)
    for r in range(len(samples)):
        samples[r] = generate_realization(cfg, steering, seed=r).estimates[0, 0, 0]
    cov = samples.T @ samples.conj() / len(samples)
    cov_gap = np.linalg.norm(cov - phi) / np.linalg.norm(phi)
    assert cov_gap < 0.05

    # (f) directional behavior of the optimal antenna count
    base = CFG.replace(pilot_noise_mode="negligible")

    def star(cfg=base, pm=PM):
        return optimal_n(cfg, pm, 2.0).n

    assert star(base.replace(K=5)) <= star(base.replace(K=10)) \
        <= star(base.replace(K=30))
    assert star(base.replace(d=1)) <= star(base.replace(d=2))
    assert star(base.replace(psi=7)) <= star(base.replace(psi=1))
    assert star(pm=PM.replace(P_RRH=0.4)) <= star(pm=PM) \
        <= star(pm=PM.replace(P_RRH=0.1))
    assert star(base.replace(beta=2 * CFG.beta)) <= star(base) \
        <= star(base.replace(beta=CFG.beta / 2))

    report(7, True, f"properties hold (DE equivalence gap {worst_gap:.1e}, "
                    f"covariance gap {cov_gap:.3f})")


def test_criterion_8_rate_tradeoff_shape():
    """Best EE over n first rises then falls as the target rate grows."""
    gammas = [0.5 + 0.25 * i for i in range(23)]
    best = []
    for gamma in gammas:
        try:
            best.append(optimal_n(CFG, PM, gamma).ee)
        except (RateUnachievableError, OptimizationError):
            best.append(0.0)
    peak = int(np.argmax(best))
    ok = 0 < peak < len(best) - 1
    for i in range(1, len(best)):
        if i <= peak:
            ok = ok and best[i] > best[i - 1]
        else:
            ok = ok and best[i] < best[i - 1]
    report(8, ok, f"max-EE curve unimodal over gamma in [0.5, 6], peak at "
                  f"gamma = {gammas[peak]:.2f}")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
