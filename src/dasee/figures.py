"""CSV experiment runners behind the ``figure`` CLI subcommand.

Each runner sweeps the experiment axes of one study (antenna count, user
count, RRH grid, rate trade-off, backhaul comparison, ...) and returns a
(header, rows) pair.  Infeasible sweep points are emitted with feasible=0
and NaN efficiency so curves stay aligned across parameter sets.
"""
from __future__ import annotations

import math

import numpy as np

from . import montecarlo
from .asymptotic import Design, InfeasibleError, operating_point
from .config import PowerModel, SystemConfig
from .optimize import optimal_n, scan

GAMMA_DEFAULT = 2.0
N_SWEEP = tuple(range(2, 61))


def _optimum(cfg: SystemConfig, pm: PowerModel, gamma: float):
    """(n*, EE) of ``optimal_n``, or (-1, NaN) when no n reaches gamma."""
    try:
        res = optimal_n(cfg, pm, gamma)
        return res.n, res.ee
    except InfeasibleError:
        return -1, math.nan


def _curve(key, evaluate, values, tail=()):
    """One row ``key + [v, ee, feasible] + tail`` per swept value v, with
    ee = evaluate(v); infeasible points (None) get NaN, feasible=0."""
    rows = []
    for value in values:
        ee = evaluate(value)
        rows.append([*key, value, math.nan if ee is None else ee,
                     int(ee is not None), *tail])
    return rows


def _ee_of_n(cfg, pm):
    """n -> EE at rate GAMMA_DEFAULT or None, every n from one evaluator; a
    rate above the ceiling leaves no n feasible."""
    try:
        return Design(cfg, pm, GAMMA_DEFAULT).ee
    except InfeasibleError:
        return lambda n: None


def _n_curve(key, cfg, pm, step=1):
    """EE vs n over the multiples of ``step`` in N_SWEEP, each row ending
    in the closed-form n*."""
    tail = (_optimum(cfg, pm, GAMMA_DEFAULT)[0],)
    return _curve(key, _ee_of_n(cfg, pm),
                  [n for n in N_SWEEP if n % step == 0], tail)


def figure2(cfg, pm, realizations=1000, seed=1):
    """Asymptotic vs Monte-Carlo EE over n, fixed p_d, with and w/o reuse."""
    header = ["psi", "K", "n", "ee_de_bits_per_joule", "ee_mc_bits_per_joule",
              "rel_error"]
    rows = []
    for psi in (1, cfg.L):
        for K in (10, 20):
            for n in range(10, 61, 10):
                point = cfg.replace(psi=psi, K=K, n=n)
                ee_de = operating_point(point, pm).ee
                ee_mc = montecarlo.empirical_ee(point, pm, realizations, seed)
                rows.append([psi, K, n, ee_de, ee_mc,
                             montecarlo.relative_error(ee_mc, ee_de)])
    return header, rows


def figure3(cfg, pm, realizations=0, seed=1):
    """EE vs n for d in {1, 2} and the nominal / 5x-weaker channel gain."""
    header = ["d", "beta", "n", "ee_bits_per_joule", "feasible", "n_star"]
    rows = []
    for d in (1, 2):
        for beta in (cfg.beta, 0.2 * cfg.beta):
            rows += _n_curve([d, beta], cfg.replace(d=d, beta=beta), pm, d)
    return header, rows


def figure4(cfg, pm, realizations=0, seed=1):
    """EE vs n for efficient / inefficient RRH hardware, with and w/o PC."""
    header = ["P_RRH", "psi", "n", "ee_bits_per_joule", "feasible", "n_star"]
    rows = []
    for p_rrh in (1.0, 0.2):
        pm_i = pm.replace(P_RRH=p_rrh)
        for psi in (1, cfg.L):
            rows += _n_curve([p_rrh, psi], cfg.replace(psi=psi), pm_i)
    return header, rows


def figure5(cfg, pm, realizations=0, seed=1):
    """Best EE over n, and the maximizing n, as the target rate grows."""
    header = ["psi", "gamma", "ee_star_bits_per_joule", "n_star"]
    rows = []
    gammas = [0.5 + 0.25 * i for i in range(23)]
    for psi in (1, cfg.L):
        base = cfg.replace(psi=psi)
        for gamma in gammas:
            n_star, ee = _optimum(base, pm, gamma)
            rows.append([psi, gamma, ee, n_star])
    return header, rows


def figure6(cfg, pm, realizations=0, seed=1):
    """EE vs n as the inter-cell interference factor grows (d = 2)."""
    header = ["alpha2", "psi", "n", "ee_bits_per_joule", "feasible", "n_star"]
    rows = []
    for alpha2 in (0.075, 0.15, 0.3):
        for psi in (1, cfg.L):
            rows += _n_curve([alpha2, psi],
                             cfg.replace(d=2, alpha2=alpha2, psi=psi), pm, 2)
    return header, rows


def figure7(cfg, pm, realizations=0, seed=1):
    """EE vs user count at n = 20 for the three reuse/correlation cases.

    Each curve is one ``scan`` over K = 1..T/psi: a row holds the bits of
    ``energy_efficiency`` at its K, NaN with feasible=0 where that raises
    an InfeasibleError.  Each curve's config holds K = 1, a count it
    sweeps, so a frame too short for the configured K at psi = L still has
    its curve; a curve that sweeps no count (T < psi) has no config and no
    rows."""
    header = ["psi", "d", "K", "ee_bits_per_joule", "feasible"]
    rows = []
    for psi, d in ((1, 1), (cfg.L, 1), (1, 2)):
        if cfg.T // psi:
            K, feasible, _, ee, *_ = scan(
                cfg.replace(psi=psi, d=d, n=20, K=1), pm, GAMMA_DEFAULT, "K",
                cfg.T // psi, n=20)
            rows += [[psi, d, k, e if ok else math.nan, int(ok)] for k, ok, e
                     in zip(K.tolist(), feasible.tolist(), ee.tolist())]
    return header, rows


def figure8(cfg, pm, realizations=0, seed=1):
    """EE over the (M, n) grid at the configured user count: one ``scan``
    over M = 1..10 at a column of every n of N_SWEEP, NaN with feasible=0
    where a point is infeasible, raising the per-M loop's first ConfigError."""
    header = ["M", "n", "ee_bits_per_joule", "feasible"]
    M, feasible, _, ee, *_ = scan(cfg, pm, GAMMA_DEFAULT, "M", 10,
                                  n=np.array(N_SWEEP, float)[:, None])
    ee = np.where(feasible, ee, np.nan).T.tolist()
    return header, [[m, n, e, int(not math.isnan(e))]
                    for m, curve in zip(M.tolist(), ee)
                    for n, e in zip(N_SWEEP, curve)]


def figure9(cfg, pm, realizations=0, seed=1):
    """Best EE vs RRH count (each M at its own optimal n) for K growing."""
    header = ["K", "M", "n_star", "ee_bits_per_joule", "feasible"]
    rows = []
    for K in (10, 50, 100):
        M, feasible, n_star, ee, *_ = scan(cfg.replace(K=K), pm,
                                           GAMMA_DEFAULT, "M", 15)
        rows += [[K, m, int(n) if ok else -1, e if ok else math.nan, int(ok)]
                 for m, ok, n, e in zip(M.tolist(), feasible.tolist(),
                                        n_star.tolist(), ee.tolist())]
    return header, rows


def figure10(cfg, pm, realizations=0, seed=1):
    """Distributed (M=7) vs co-located (M=1) EE under two backhaul costs."""
    header = ["M", "P_0", "P_BT", "n", "ee_bits_per_joule", "feasible"]
    rows = []
    for p0, pbt in ((0.825, 0.25e-9), (8.25, 2.5e-9)):
        pm_i = pm.replace(P_0=p0, P_BT=pbt)
        for M in (7, 1):
            rows += _curve([M, p0, pbt], _ee_of_n(cfg.replace(M=M), pm_i),
                           N_SWEEP)
    return header, rows


RUNNERS = {2: figure2, 3: figure3, 4: figure4, 5: figure5, 6: figure6,
           7: figure7, 8: figure8, 9: figure9, 10: figure10}
