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
from .asymptotic import Design, InfeasibleError, Lanes, operating_point
from .optimize import _optimal_n, scan, sweep

GAMMA_DEFAULT = 2.0
N_SWEEP = tuple(range(2, 61))


def _n_curve(key, cfg, pm, values=N_SWEEP, optimum=True):
    """One row ``key + [n, ee, feasible]`` per n of ``values``, each ending
    in the closed-form n* with ``optimum``: every EE at rate GAMMA_DEFAULT
    and n* from one ``Design``.  An infeasible n gets NaN with feasible=0,
    an infeasible n* -1; a rate above the ceiling leaves neither."""
    design, tail = None, (-1,) if optimum else ()
    try:
        design = Design(cfg, pm, GAMMA_DEFAULT)
        if optimum:
            tail = (_optimal_n(design).n,)
    except InfeasibleError:
        pass
    rows = []
    for n in values:
        ee = None if design is None else design.ee(n)
        rows.append([*key, n, math.nan if ee is None else ee,
                     int(ee is not None), *tail])
    return rows


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
            rows += _n_curve([d, beta], cfg.replace(d=d, beta=beta), pm,
                             N_SWEEP[::d])
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
    """Best EE over n, and the maximizing n, as the target rate grows: one
    ``scan`` over the rates per psi, (NaN, -1) where no n reaches a rate."""
    header = ["psi", "gamma", "ee_star_bits_per_joule", "n_star"]
    rows = []
    gammas = [0.5 + 0.25 * i for i in range(23)]
    for psi in (1, cfg.L):
        feasible, n_star, ee, *_ = scan(cfg.replace(psi=psi), pm, None,
                                        Lanes(gamma=np.array(gammas)))
        rows += [[psi, g, e if ok else math.nan, int(n) if ok else -1]
                 for g, ok, n, e in zip(gammas, feasible.tolist(),
                                        n_star.tolist(), ee.tolist())]
    return header, rows


def figure6(cfg, pm, realizations=0, seed=1):
    """EE vs n as the inter-cell interference factor grows (d = 2)."""
    header = ["alpha2", "psi", "n", "ee_bits_per_joule", "feasible", "n_star"]
    rows = []
    for alpha2 in (0.075, 0.15, 0.3):
        for psi in (1, cfg.L):
            rows += _n_curve([alpha2, psi],
                             cfg.replace(d=2, alpha2=alpha2, psi=psi), pm,
                             N_SWEEP[::2])
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
            feasible, _, ee, *_ = scan(
                cfg.replace(psi=psi, d=d, n=20, K=1), pm, GAMMA_DEFAULT,
                sweep("K", cfg.T // psi), n=20)
            rows += [[psi, d, k, e if ok else math.nan, int(ok)] for k, (ok, e)
                     in enumerate(zip(feasible.tolist(), ee.tolist()), 1)]
    return header, rows


def figure8(cfg, pm, realizations=0, seed=1):
    """EE over the (M, n) grid at the configured user count: one ``scan``
    over M = 1..10 at a column of every n of N_SWEEP, NaN with feasible=0
    where a point is infeasible, raising the per-M loop's first ConfigError."""
    header = ["M", "n", "ee_bits_per_joule", "feasible"]
    feasible, _, ee, *_ = scan(cfg, pm, GAMMA_DEFAULT, sweep("M", 10),
                               n=np.array(N_SWEEP, float)[:, None])
    ee = np.where(feasible, ee, np.nan).T.tolist()
    return header, [[m, n, e, int(not math.isnan(e))]
                    for m, curve in enumerate(ee, 1)
                    for n, e in zip(N_SWEEP, curve)]


def figure9(cfg, pm, realizations=0, seed=1):
    """Best EE vs RRH count (each M at its own optimal n) for K growing:
    one ``scan`` over the grid of K = 10, 50, 100 by M = 1..15."""
    header = ["K", "M", "n_star", "ee_bits_per_joule", "feasible"]
    ks = (10, 50, 100)
    grid = Lanes(M=np.arange(1, 16), K=np.array(ks)[:, None])
    # the loop's cfg.replace(K=K) raises for a K beyond T/psi: at K = 10
    # before the pass, at a later K after the rows before it
    grid.config_error(cfg.psi * grid.K <= cfg.T)
    feasible, n_star, ee, *_ = scan(cfg.replace(K=10), pm, GAMMA_DEFAULT, grid)
    return header, [[K, m, int(n) if ok else -1, e if ok else math.nan, int(ok)]
                    for K, *grid in zip(ks, feasible.tolist(), n_star.tolist(),
                                        ee.tolist())
                    for m, (ok, n, e) in enumerate(zip(*grid), 1)]


def figure10(cfg, pm, realizations=0, seed=1):
    """Distributed (M=7) vs co-located (M=1) EE under two backhaul costs."""
    header = ["M", "P_0", "P_BT", "n", "ee_bits_per_joule", "feasible"]
    rows = []
    for p0, pbt in ((0.825, 0.25e-9), (8.25, 2.5e-9)):
        pm_i = pm.replace(P_0=p0, P_BT=pbt)
        for M in (7, 1):
            rows += _n_curve([M, p0, pbt], cfg.replace(M=M), pm_i,
                             optimum=False)
    return header, rows


RUNNERS = {2: figure2, 3: figure3, 4: figure4, 5: figure5, 6: figure6,
           7: figure7, 8: figure8, 9: figure9, 10: figure10}
