"""Closed-form deterministic-equivalent SINR, transmit power, and cell EE.

The large-system limit of the per-user downlink SINR under MRT splits into a
desired-signal power S, a pilot-contamination power I_PC (both independent of
the per-RRH antenna count n), and a multi-user interference term that decays
as 1/n.  With S, I_PC and the n-scaled multi-user term I_MU' in hand, the
transmit power needed for a target per-user rate, the total consumed power,
and the energy efficiency are all elementary scalar expressions.  n enters
them only through +, -, * and /, so a sweep over n evaluates every point
from one breakdown and gives the same bits as a configuration per n.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .config import (ConfigError, PowerModel, SystemConfig, _require_count,
                     derived_scalars, override)


# From 2**53 on, not every integer is a double: floor/ceil of an antenna
# count that large no longer name its integer neighbors.
MAX_ANTENNAS = 2.0 ** 53


class RateUnachievableError(ValueError):
    """The target rate exceeds the pilot-contamination ceiling at any n."""

    def __init__(self, gamma: float, ceiling: float):
        self.gamma = gamma
        self.ceiling = ceiling
        if math.isinf(ceiling):   # no contamination: only n limits the rate
            super().__init__(
                f"rate {gamma:g} bits/s/Hz needs more antennas than can be "
                f"represented (>= 2^53 per RRH)")
        else:
            super().__init__(
                f"rate {gamma:g} bits/s/Hz exceeds the interference-limited "
                f"ceiling {ceiling:g} bits/s/Hz")


class InfeasibleAntennasError(ValueError):
    """n is too small for the target rate at positive transmit power."""

    def __init__(self, n: int, n_min: int):
        self.n = n
        self.n_min = n_min
        super().__init__(f"n={n} infeasible, need n >= {n_min}")


class SinrBreakdown(NamedTuple):
    """Deterministic-equivalent SINR components (beta^2-scaled powers)."""

    S: float            # desired-signal power
    I_PC: float         # pilot-contamination interference power
    I_MU_scaled: float  # multi-user interference scaled by n (I_MU' = n*I_MU)


class OperatingPoint(NamedTuple):
    """Cell EE with the transmit and total power that produce it."""

    ee: float       # bits/Joule
    p_d: float      # downlink transmit power, W
    p_total: float  # cell power draw, W


def large_scale_gains(cfg: SystemConfig, nearest=None) -> np.ndarray:
    """Per-link gains of the averaged interference model, shape (L, M, L, K).

    Entry [l, m, j, k] is the large-scale gain between RRH m of cell l and
    user k of cell j: M^(iota/2)*beta for the serving (nearest) RRH,
    alpha1*beta for the other own-cell RRHs, alpha2*beta across cells.
    ``nearest[k]`` gives the serving RRH index of user slot k (identical in
    every cell); the default round-robin assignment k % M spreads users as
    evenly as possible over the RRHs.
    """
    if nearest is None:
        nearest = np.arange(cfg.K) % cfg.M
    nearest = np.asarray(nearest, dtype=int)
    if nearest.shape != (cfg.K,) or nearest.min() < 0 or nearest.max() >= cfg.M:
        raise ValueError("nearest must hold K RRH indices in [0, M)")
    gains = np.full((cfg.L, cfg.M, cfg.L, cfg.K), cfg.alpha2 * cfg.beta)
    for l in range(cfg.L):
        gains[l, :, l, :] = cfg.alpha1 * cfg.beta
        gains[l, nearest, l, np.arange(cfg.K)] = cfg.M ** (cfg.iota / 2) * cfg.beta
    return gains


def sinr_breakdown(cfg: SystemConfig) -> SinrBreakdown:
    """Signal, pilot-contamination, and scaled multi-user powers.

    Raises ConfigError when beta and iota take a term beyond the double range
    (M^iota, beta^2 or, in negligible mode, 1/beta^2 overflows).
    """
    try:
        sc = derived_scalars(cfg)
        M, alpha1, nu1, nu2 = cfg.M, cfg.alpha1, sc.nu1, sc.nu2
        m_half = M ** (cfg.iota / 2.0)
        beta2 = cfg.beta ** 2
        coherent = M ** cfg.iota * nu1 + (M - 1) * alpha1 ** 2 * nu2
        signal = beta2 * coherent
        pc = (beta2 * cfg.alpha2 * (sc.L_bar1 - m_half)
              * (m_half * nu1 + (M - 1) * alpha1 * nu2) ** 2 / coherent)
        # In negligible mode a subnormal beta overflows nu1 to inf without
        # raising, and beta^2 * inf is NaN.
        if not (math.isfinite(signal) and math.isfinite(pc)):
            raise OverflowError
    except OverflowError:
        raise ConfigError("beta and iota take the SINR terms beyond the "
                          "double range") from None
    mu_scaled = cfg.beta * cfg.d * cfg.K * sc.xi
    return SinrBreakdown(signal, pc, mu_scaled)


def deterministic_sinr(cfg: SystemConfig, n: int | None = None,
                       p_d: float | None = None) -> float:
    """Large-system per-user SINR at fixed transmit power."""
    return _sinr(cfg, sinr_breakdown(cfg), cfg.n if n is None else n,
                 cfg.p_d if p_d is None else p_d)


def _sinr(cfg: SystemConfig, brk: SinrBreakdown, n: int, p_d: float) -> float:
    return brk.S / (cfg.sigma2 / (p_d * n) + brk.I_PC + brk.I_MU_scaled / n)


def rate_margin(brk: SinrBreakdown, gamma: float) -> float:
    """S/(2^gamma - 1) - I_PC > 0, or ConfigError / RateUnachievableError."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ConfigError(f"gamma must be finite and positive, got {gamma!r}")
    # 2**gamma overflows a double from gamma = 1024 on; S/inf is then 0.
    if gamma >= 1024.0:
        margin = 0.0 - brk.I_PC
    else:
        target = 2.0 ** gamma - 1.0
        if target == 0.0:   # gamma below about 1.6e-16
            raise ConfigError(f"gamma {gamma!r} is too small: 2**gamma - 1 "
                              f"rounds to 0")
        margin = brk.S / target - brk.I_PC
    if margin <= 0.0:
        raise RateUnachievableError(gamma, _rate_ceiling(brk))
    return margin


def _rate_ceiling(brk: SinrBreakdown) -> float:
    """Per-user rate reached as n -> inf: log2(1 + S/I_PC), inf without I_PC."""
    return math.log2(1.0 + brk.S / brk.I_PC) if brk.I_PC > 0.0 else math.inf


def min_antennas(cfg: SystemConfig, brk: SinrBreakdown, gamma: float) -> int:
    """Smallest per-RRH antenna count at which rate gamma is feasible.

    Raises RateUnachievableError when that count reaches MAX_ANTENNAS (a
    rate near 1024 makes the margin subnormal).
    """
    n_real = brk.I_MU_scaled / rate_margin(brk, gamma)
    if not n_real < MAX_ANTENNAS:
        raise RateUnachievableError(gamma, _rate_ceiling(brk))
    return math.floor(n_real) + 1


def required_transmit_power(cfg: SystemConfig, brk: SinrBreakdown,
                            gamma: float, n: int) -> float:
    """Transmit power that realizes per-user rate gamma with n antennas."""
    p_d = _transmit_power_by_n(cfg, brk, gamma)(n)
    if p_d is None:
        raise InfeasibleAntennasError(n, min_antennas(cfg, brk, gamma))
    return p_d


def _transmit_power_by_n(cfg: SystemConfig, brk: SinrBreakdown,
                         gamma: float) -> Callable[[int], float | None]:
    """n -> ``required_transmit_power``, or None where n is too few."""
    margin = rate_margin(brk, gamma)
    sigma2, mu_scaled = cfg.sigma2, brk.I_MU_scaled

    def transmit_power(n):
        denom = n * margin - mu_scaled
        if denom <= 0.0:
            return None
        return sigma2 / denom
    return transmit_power


def total_power_at_se(cfg: SystemConfig, pm: PowerModel, se: float,
                      n: int | None = None, p_d: float | None = None) -> float:
    """Cell power draw at spectral efficiency ``se`` (bits/s/Hz)."""
    return _power_by_n(cfg, pm, se)(cfg.n if n is None else n,
                                    cfg.p_d if p_d is None else p_d)


def _power_by_n(cfg: SystemConfig, pm: PowerModel,
                se: float) -> Callable[[int, float], float]:
    """(n, p_d) -> ``total_power_at_se``; the backhaul term, which holds
    neither, is computed once (it is the last term of the sum, so the
    additions still run in the same order)."""
    p_fix, m, p_rrh, zeta, k = pm.P_FIX, cfg.M, pm.P_RRH, pm.zeta, cfg.K
    data_fraction = (cfg.T - cfg.tau_u) / cfg.T
    backhaul = m * (pm.P_0 + pm.P_BT * cfg.B * se)

    def power(n, p_d):
        return p_fix + n * m * p_rrh + data_fraction * (p_d / zeta) * k + backhaul
    return power


def total_power(cfg: SystemConfig, pm: PowerModel, gamma: float,
                n: int, p_d: float) -> float:
    """Cell power draw when every user runs at rate gamma."""
    if p_d <= 0.0:
        raise ValueError("p_d must be positive")
    se = (cfg.T - cfg.tau_u) / cfg.T * cfg.K * gamma
    return total_power_at_se(cfg, pm, se, n=n, p_d=p_d)


def rate_from_sinr(cfg: SystemConfig, sinr) -> float:
    """Cell spectral efficiency from per-user SINRs (bits/s/Hz).

    The per-user rates are summed in sorted order, so the result does not
    depend on the order of the users.
    """
    rates = np.sort(np.log2(1.0 + np.asarray(sinr)))
    return float((cfg.T - cfg.tau_u) / cfg.T * rates.sum())


def operating_point(cfg: SystemConfig, pm: PowerModel,
                    gamma: float | None = None,
                    n: int | None = None) -> OperatingPoint:
    """EE, transmit power and total power of the configured cell.

    With ``gamma=None`` the cell transmits at the configured p_d; with a
    target rate gamma it transmits at the p_d that realizes gamma, raising
    InfeasibleAntennasError / RateUnachievableError when no positive power
    does.  ``n`` replaces cfg.n (a positive int, else ConfigError).
    """
    return _operating_point(cfg, pm, sinr_breakdown(cfg), gamma,
                            cfg.n if n is None else n)


def _operating_point(cfg: SystemConfig, pm: PowerModel, brk: SinrBreakdown,
                     gamma: float | None, n: int) -> OperatingPoint:
    """``operating_point`` with n antennas per RRH, from cfg's breakdown."""
    _require_count("n", n)
    point = _points_by_n(cfg, pm, brk, gamma)(n)
    if point is None:
        raise InfeasibleAntennasError(n, min_antennas(cfg, brk, gamma))
    return point


def _points_by_n(cfg: SystemConfig, pm: PowerModel, brk: SinrBreakdown,
                 gamma: float | None) -> Callable[[int], OperatingPoint | None]:
    """n -> the operating point with n antennas per RRH, or None where n
    is too few for gamma; n must be a positive int.

    The one body of ``operating_point``.  What does not involve n (the rate
    margin, the spectral efficiency at rate gamma and the backhaul power)
    is computed once, so an n-sweep pays only the per-n arithmetic.  Raises
    ConfigError / RateUnachievableError for a gamma no n reaches.
    """
    if gamma is None:
        def point(n):
            p_d = cfg.p_d
            se = rate_from_sinr(cfg, [_sinr(cfg, brk, n, p_d)] * cfg.K)
            p_total = _power_by_n(cfg, pm, se)(n, p_d)
            return OperatingPoint(cfg.B * se / p_total, p_d, p_total)
        return point
    transmit_power = _transmit_power_by_n(cfg, brk, gamma)
    se = (cfg.T - cfg.tau_u) / cfg.T * cfg.K * gamma
    power = _power_by_n(cfg, pm, se)
    rate = cfg.B * se

    def point(n):
        p_d = transmit_power(n)
        if p_d is None:
            return None
        p_total = power(n, p_d)
        return OperatingPoint(rate / p_total, p_d, p_total)
    return point


def energy_efficiency(cfg: SystemConfig, pm: PowerModel, gamma: float,
                      n: int | None = None, M: int | None = None,
                      K: int | None = None) -> float:
    """Cell energy efficiency in bits/Joule at target rate gamma.

    The transmit power is set to the level that realizes gamma; raises
    InfeasibleAntennasError / RateUnachievableError when no positive power
    does.  n, M, K override the corresponding config entries.
    """
    return operating_point(override(cfg, M=M, K=K), pm, gamma, n=n).ee
