"""Closed-form deterministic-equivalent SINR, transmit power, and cell EE.

The large-system limit of the per-user downlink SINR under MRT splits into a
desired-signal power S, a pilot-contamination power I_PC (both independent of
the per-RRH antenna count n), and a multi-user interference term that decays
as 1/n.  With S, I_PC and the n-scaled multi-user term I_MU' in hand, the
transmit power needed for a target per-user rate, the total consumed power,
and the energy efficiency are all elementary scalar expressions.  n enters
them only through +, -, * and /, so one ``Design`` evaluates every n of a
sweep from one breakdown and gives the same bits as a configuration per n.
The RRH count M, the user count K and the rate gamma enter through the
same operations and Python's float power, so a ``Design`` over ``Lanes``
(arrays of RRH counts, user counts or rates that broadcast together)
evaluates every lane at once, with the bits of a configuration per lane.
At the configured p_d instead (the model the Monte-Carlo oracle checks)
the rate follows from the SINR, in one helper the oracle shares.
"""
from __future__ import annotations

import math
import operator
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .config import (MAX_COUNT, ConfigError, PowerModel, SystemConfig,
                     _derived_scalars, _pow, _require_count, override)


# Lanes.fail: the kind of the first error a lane's scalar evaluation raises.
CONFIG, INFEASIBLE = 1, 2


# How a scalar evaluation computes and checks (``Lanes`` is the array one):
# Python's float power, math.isfinite and math.sqrt, and a check
# ``config_error(ok)`` / ``infeasible(ok)`` returns whether ``ok`` fails,
# so that the caller raises.  ``counts(cfg)`` is the (M, K) evaluated.
SCALAR = SimpleNamespace(pow=operator.pow, finite=math.isfinite,
                         sqrt=math.sqrt, config_error=operator.not_,
                         infeasible=operator.not_,
                         counts=operator.attrgetter("M", "K"))


class Lanes:
    """RRH counts ``M`` (int64), user counts ``K`` (int64) and rates
    ``gamma`` evaluated at once: any of them an array, the others None,
    arrays that broadcast together (K as a (K, 1) column and M as a row
    give a (K, M) grid), one lane per element of their broadcast shape.
    They replace cfg.M, cfg.K and the Design's gamma.

    The same expressions as a scalar evaluation (``SCALAR``), over arrays:
    ``pow`` is still Python's, lane by lane, and a check raises nothing.
    It marks instead, in ``fail``, the lanes still at 0 that fail it:
    CONFIG where the scalar evaluation at that lane raises a ConfigError,
    INFEASIBLE where it raises an InfeasibleError.  A failed lane's values
    are meaningless.  A check takes a Python or numpy bool (one value for
    every lane) or a bool array, and costs one reduction where every lane
    passes; an array of shape (candidates, *lanes) fails a lane where any
    of its candidates fails.
    """

    pow = staticmethod(_pow)
    finite = staticmethod(np.isfinite)
    sqrt = staticmethod(np.sqrt)

    def __init__(self, M: np.ndarray | None = None,
                 K: np.ndarray | None = None,
                 gamma: np.ndarray | None = None):
        self.M, self.K, self.gamma = M, K, gamma
        shapes = [a.shape for a in (M, K, gamma) if a is not None]
        self.fail = np.zeros(shapes[0] if len(shapes) == 1
                             else np.broadcast_shapes(*shapes), np.int8)

    def counts(self, cfg: SystemConfig) -> tuple:
        """(M, K) of cfg, each replaced by the lanes' array if they have one."""
        return (cfg.M if self.M is None else self.M,
                cfg.K if self.K is None else self.K)

    def lane(self, index: int) -> dict:
        """The arrays' Python values at the row-major ``index`` of fail."""
        return {name: np.broadcast_arrays(array, self.fail)[0].flat[index].item()
                for name, array in (("M", self.M), ("K", self.K),
                                    ("gamma", self.gamma)) if array is not None}

    def config_error(self, ok) -> bool:
        return self._mark(ok, CONFIG)

    def infeasible(self, ok) -> bool:
        return self._mark(ok, INFEASIBLE)

    def _mark(self, ok, kind: int) -> bool:
        if type(ok) is np.ndarray:
            if np.count_nonzero(ok) == ok.size:
                return False
        elif ok:
            return False
        bad = np.logical_not(ok)
        if bad.ndim > self.fail.ndim:   # candidates over the lanes: any fails
            bad = bad.any(axis=tuple(range(bad.ndim - self.fail.ndim)))
        self.fail[bad & (self.fail == 0)] = kind
        return False


class InfeasibleError(ValueError):
    """No design point meets the request (CLI exit 3, a NaN figure row)."""


class RateUnachievableError(InfeasibleError):
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


class InfeasibleAntennasError(InfeasibleError):
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


def large_scale_gains(cfg: SystemConfig) -> np.ndarray:
    """Per-link gains of the averaged interference model, shape (L, M, L, K).

    Entry [l, m, j, k] is the large-scale gain between RRH m of cell l and
    user k of cell j: M^(iota/2)*beta for the serving (nearest) RRH,
    alpha1*beta for the other own-cell RRHs, alpha2*beta across cells.
    User slot k is served by RRH k % M in every cell (round robin), which
    spreads users as evenly as possible over the RRHs.
    """
    nearest = np.arange(cfg.K) % cfg.M
    gains = np.full((cfg.L, cfg.M, cfg.L, cfg.K), cfg.alpha2 * cfg.beta)
    for l in range(cfg.L):
        gains[l, :, l, :] = cfg.alpha1 * cfg.beta
        gains[l, nearest, l, np.arange(cfg.K)] = cfg.M ** (cfg.iota / 2) * cfg.beta
    return gains


def sinr_breakdown(cfg: SystemConfig,
                   lanes: Lanes | None = None) -> SinrBreakdown:
    """Signal, pilot-contamination, and scaled multi-user powers.

    Raises ConfigError when beta and iota take a term beyond the double range
    (M^iota, beta^2 or, in negligible mode, 1/beta^2 overflows) or S to 0.
    With ``lanes`` the terms are arrays over the lanes' counts, and a lane
    where the scalar raises is marked CONFIG.
    """
    ev = lanes or SCALAR
    M, K = ev.counts(cfg)
    try:
        m_half = ev.pow(M, cfg.iota / 2.0)
        sc = _derived_scalars(cfg, M, K, m_half)
        alpha1, nu1, nu2 = cfg.alpha1, sc.nu1, sc.nu2
        beta2 = cfg.beta ** 2
        others = M - 1   # the RRHs of a cell other than the serving one
        coherent = ev.pow(M, cfg.iota) * nu1 + others * alpha1 ** 2 * nu2
        signal = beta2 * coherent
        pc = (beta2 * cfg.alpha2 * (sc.L_bar1 - m_half)
              * ev.pow(m_half * nu1 + others * alpha1 * nu2, 2) / coherent)
        # In negligible mode a subnormal beta overflows nu1 to inf without
        # raising, and beta^2 * inf is NaN.  Over lanes a power that
        # overflows is inf and takes signal or pc beyond the range too.
        if ev.config_error(ev.finite(signal) & ev.finite(pc)):
            raise OverflowError
    except OverflowError:
        raise ConfigError("beta and iota take the SINR terms beyond the "
                          "double range") from None
    except ZeroDivisionError:   # by coherent = 0: nu1 = nu2 = 0, and S = 0
        pc = math.nan
    if ev.config_error(signal > 0.0):
        raise ConfigError("beta, p_u and sigma2 take the signal power S to 0")
    mu_scaled = cfg.beta * cfg.d * K * sc.xi
    return SinrBreakdown(signal, pc, mu_scaled)


def deterministic_sinr(cfg: SystemConfig, n: int | None = None,
                       p_d: float | None = None) -> float:
    """Large-system per-user SINR at fixed transmit power."""
    brk = sinr_breakdown(cfg)
    n = cfg.n if n is None else n
    p_d = cfg.p_d if p_d is None else p_d
    return brk.S / (cfg.sigma2 / (p_d * n) + brk.I_PC + brk.I_MU_scaled / n)


def rate_margin(brk: SinrBreakdown, gamma: float,
                lanes: Lanes | None = None) -> float:
    """S/(2^gamma - 1) - I_PC > 0, or ConfigError / RateUnachievableError
    (marked in ``lanes`` for a breakdown over lanes, where gamma may be an
    array over them)."""
    ev = lanes or SCALAR
    if ev.config_error((gamma > 0.0) & (gamma < math.inf)):   # NaN: False
        raise ConfigError(f"gamma must be finite and positive, got {gamma!r}")
    target = _exp2(gamma) - 1.0
    if ev.config_error(target != 0.0):   # gamma below about 1.6e-16
        raise ConfigError(f"gamma {gamma!r} is too small: 2**gamma - 1 "
                          f"rounds to 0")
    margin = brk.S / target - brk.I_PC   # 0.0 - I_PC where 2**gamma is inf
    if ev.infeasible(margin > 0.0):
        raise RateUnachievableError(gamma, _rate_ceiling(brk))
    return margin


def _exp2(gamma):
    """2**gamma by Python's float power, lane by lane over an array; inf
    where it overflows a double, from gamma = 1024 on (and at NaN)."""
    if isinstance(gamma, np.ndarray):
        return np.reshape([_exp2(g) for g in gamma.ravel().tolist()],
                          gamma.shape)
    return 2.0 ** gamma if gamma < 1024.0 else math.inf


def _rate_ceiling(brk: SinrBreakdown) -> float:
    """Per-user rate reached as n -> inf: log2(1 + S/I_PC), inf without I_PC."""
    return math.log2(1.0 + brk.S / brk.I_PC) if brk.I_PC > 0.0 else math.inf


def min_antennas(cfg: SystemConfig, brk: SinrBreakdown, gamma: float) -> int:
    """Smallest per-RRH antenna count at which rate gamma is feasible.

    Raises RateUnachievableError when that count reaches MAX_COUNT, 2^53
    (a rate near 1024 makes the margin subnormal).
    """
    return _min_antennas(brk, gamma, rate_margin(brk, gamma))


def _min_antennas(brk: SinrBreakdown, gamma: float, margin: float,
                  lanes: Lanes | None = None) -> int:
    n_real = brk.I_MU_scaled / margin
    if (lanes or SCALAR).infeasible(n_real < MAX_COUNT):
        raise RateUnachievableError(gamma, _rate_ceiling(brk))
    return math.floor(n_real) + 1 if lanes is None else np.floor(n_real) + 1


def total_power_at_se(cfg: SystemConfig, pm: PowerModel, se: float,
                      n: int | None = None, p_d: float | None = None) -> float:
    """Cell power draw at spectral efficiency ``se`` (bits/s/Hz)."""
    return _total_power(cfg, pm, cfg.M, cfg.K, cfg.n if n is None else n,
                        cfg.p_d if p_d is None else p_d,
                        _backhaul(cfg, pm, cfg.M, se))


def _throughput(cfg: SystemConfig, se: float,
                lanes: Lanes | None = None) -> float:
    """B * se, the cell throughput in bit/s; ConfigError where it is not
    finite (marked in ``lanes``), since an EE of inf is no answer."""
    ev = lanes or SCALAR
    bits = cfg.B * se
    if ev.config_error(ev.finite(bits)):
        raise ConfigError(f"the bandwidth B = {cfg.B!r} Hz takes the cell "
                          f"throughput B*se beyond the double range")
    return bits


def _backhaul(cfg: SystemConfig, pm: PowerModel, M, se: float) -> float:
    return M * (pm.P_0 + pm.P_BT * cfg.B * se)


def _total_power(cfg: SystemConfig, pm: PowerModel, M, K, n: float,
                 p_d: float, backhaul: float,
                 lanes: Lanes | None = None) -> float:
    """Cell power draw in W, ConfigError where it is not finite; the backhaul
    (the one term without n or p_d) comes last, so it can be computed once.
    Over lanes, one whose p_d is NaN (not evaluated) is not checked."""
    return _finite_power(pm.P_FIX + n * M * pm.P_RRH
                         + (cfg.T - cfg.psi * K) / cfg.T * (p_d / pm.zeta) * K
                         + backhaul, lanes, lanes is not None and np.isnan(p_d))


def _finite_power(value: float, lanes: Lanes | None = None,
                  skip=False) -> float:
    """``value``, a power term; ConfigError (the power rule) if not finite.
    Over lanes the lanes where it is not finite are marked, but not those
    where ``skip``."""
    if lanes is None:
        if math.isfinite(value):
            return value
    elif not lanes.config_error(lanes.finite(value) | skip):
        return value
    raise ConfigError("the power model (P_FIX, P_RRH, zeta, P_0, P_BT) "
                      "takes the total power beyond the double range")


def _efficiency(throughput: float, p_total: float,
                lanes: Lanes | None = None) -> float:
    """throughput / p_total, the EE; ConfigError (marked in ``lanes``) where
    a positive throughput's EE rounds to 0."""
    ee = throughput / p_total
    if lanes is None:
        if ee == 0.0 and throughput > 0.0:
            raise ConfigError(f"the throughput B*se = {throughput!r} bit/s "
                              f"against the total power {p_total!r} W: the "
                              f"EE B*se/p_total rounds to 0")
    elif np.count_nonzero(ee) < ee.size:   # NaN (not evaluated) is not 0
        lanes.config_error((ee != 0.0) | (throughput == 0.0))
    return ee


def _point_at_se(cfg: SystemConfig, pm: PowerModel, se: float,
                 n: int) -> OperatingPoint:
    """The cell at its configured p_d, n antennas per RRH and spectral
    efficiency ``se``: the fixed-p_d point of the DE and of the MC."""
    throughput = _throughput(cfg, se)
    p_total = total_power_at_se(cfg, pm, se, n)
    return OperatingPoint(_efficiency(throughput, p_total), cfg.p_d, p_total)


def rate_from_sinr(cfg: SystemConfig, sinr) -> float:
    """Cell spectral efficiency from per-user SINRs (bits/s/Hz).

    The per-user rates are summed in sorted order, so the result does not
    depend on the order of the users.  Where 1 + SINR rounds to 1 the rate
    is SINR / ln 2, its first-order value, not 0.
    """
    sinr = np.asarray(sinr)
    rates = np.log2(1.0 + sinr)
    if not rates.all():         # a rate is 0 exactly where 1 + SINR == 1
        small = rates == 0.0
        rates[small] = sinr[small] / math.log(2.0)
    rates.sort()
    return float((cfg.T - cfg.tau_u) / cfg.T * rates.sum())


class Design:
    """The cell (cfg, pm) at per-user rate gamma, any n.

    The terms without n (SINR breakdown, rate margin, spectral efficiency,
    throughput, backhaul power) are computed once; a gamma no n reaches
    raises ConfigError / RateUnachievableError here.  Per n (a positive
    int, not checked) each method returns None where n is too few for
    gamma; a non-finite total power or a positive throughput whose EE
    rounds to 0 raises ConfigError.

    With ``lanes`` their arrays replace cfg.M, cfg.K and gamma: the terms
    are arrays, n may be an int, a float or an array of floats (NaN: a
    lane not evaluated), a missing point is NaN instead of None, and the
    errors are marked in lanes.fail instead of raised.
    """

    def __init__(self, cfg: SystemConfig, pm: PowerModel, gamma: float | None,
                 lanes: Lanes | None = None):
        gamma = gamma if lanes is None or lanes.gamma is None else lanes.gamma
        self.cfg, self.pm, self.gamma, self.lanes = cfg, pm, gamma, lanes
        self.M, self.K = (lanes or SCALAR).counts(cfg)
        self.brk = sinr_breakdown(cfg, lanes)
        self.margin = rate_margin(self.brk, gamma, lanes)
        se = (cfg.T - cfg.psi * self.K) / cfg.T * self.K * gamma
        self.throughput = _throughput(cfg, se, lanes)
        self.backhaul = _backhaul(cfg, pm, self.M, se)

    @property
    def n_min(self) -> int:
        """Smallest feasible n, as ``min_antennas``."""
        return _min_antennas(self.brk, self.gamma, self.margin, self.lanes)

    def transmit_power(self, n: int) -> float | None:
        """The p_d that realizes gamma with n antennas per RRH."""
        denom = n * self.margin - self.brk.I_MU_scaled
        if self.lanes is not None:
            return np.where(denom > 0.0, self.cfg.sigma2 / denom, np.nan)
        return self.cfg.sigma2 / denom if denom > 0.0 else None

    def point(self, n: int) -> OperatingPoint | None:
        n = float(n) if isinstance(n, int) else n
        p_d = self.transmit_power(n)
        if p_d is None:
            return None
        p_total = _total_power(self.cfg, self.pm, self.M, self.K, n, p_d,
                               self.backhaul, self.lanes)
        return OperatingPoint(_efficiency(self.throughput, p_total,
                                          self.lanes), p_d, p_total)

    def ee(self, n: int) -> float | None:
        return None if (point := self.point(n)) is None else point.ee


def operating_point(cfg: SystemConfig, pm: PowerModel,
                    gamma: float | None = None,
                    n: int | None = None) -> OperatingPoint:
    """EE, transmit power and total power of the configured cell.

    With ``gamma=None`` the cell transmits at the configured p_d, at the
    rate of the deterministic SINR (ConfigError where that is 0); with a
    target rate gamma, at the p_d that realizes gamma, raising
    InfeasibleAntennasError / RateUnachievableError when no positive power
    does.  ``n`` replaces cfg.n (a positive int, else ConfigError).
    """
    n = cfg.n if n is None else n
    _require_count("n", n)
    if gamma is None:
        sinr = deterministic_sinr(cfg, n)
        if not sinr > 0.0:
            raise ConfigError("p_d, sigma2 and beta take the SINR to 0")
        return _point_at_se(cfg, pm, rate_from_sinr(cfg, [sinr] * cfg.K), n)
    design = Design(cfg, pm, gamma)
    point = design.point(n)
    if point is None:
        raise InfeasibleAntennasError(n, design.n_min)
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
