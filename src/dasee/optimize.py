"""EE maximization over the integer design variables n, K, and M.

The antenna count per RRH has a closed-form continuous optimum (square-root
power balance plus the feasibility offset), the user count is the unique
root of a quartic found by bisection, and the RRH count comes from a
one-dimensional scan, which evaluates every candidate M in one array pass.
``scan`` evaluates any ``Lanes`` so: figure 7 sweeps K with it, figure 8 M
at a column of n, figure 5 the rates and figure 9 a (K, M) grid.
Every routine rounds its continuous optimum with the EE-comparison rule
(take whichever of floor/ceil achieves the higher EE) and an exhaustive
integer scan is provided as the reference oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .asymptotic import (CONFIG, SCALAR, Design, InfeasibleError, Lanes,
                         RateUnachievableError, _finite_power, _rate_ceiling,
                         energy_efficiency, operating_point, rate_margin,
                         sinr_breakdown)
from .config import (MAX_COUNT, ConfigError, PowerModel, SystemConfig,
                     _require_count, override)

BISECTION_WIDTH = 1e-3   # interval width on the continuous user count
DEFAULT_M_MAX = 30
MAX_SWEEP = 2 ** 20      # counts one M or K sweep may run (2^53 runs for days)
# An optimum's EE is 0 only where the throughput B*se is 0 at every n and M.
ZERO_EE = ("the EE is 0 at every {}: psi*K = T leaves no data symbols, or "
           "B*se rounds to 0")


class OptimizationError(InfeasibleError):
    """No feasible point exists in the requested search window."""


@dataclass(frozen=True)
class OptimizationResult:
    """Chosen integers, the continuous optimum they round, and the achieved EE."""

    ee: float                     # bits/Joule at the returned integers
    p_d: float                    # W required at the returned integers
    n: int | None = None
    K: int | None = None
    M: int | None = None
    x_real: float | None = None   # continuous optimum before rounding
    window: tuple[float, float] | None = None  # feasibility window searched

    def to_dict(self) -> dict:
        out = {"ee_bits_per_joule": self.ee, "ee_mbits_per_joule": self.ee / 1e6,
               "p_d_watts": self.p_d}
        for name, value in (("n_star", self.n), ("k_star", self.K),
                            ("m_star", self.M), ("continuous_optimum", self.x_real)):
            if value is not None:
                out[name] = value
        if self.window is not None:
            out["window"] = [None if math.isinf(v) else v for v in self.window]
        return out


def floor_ceil_select(x: float, evaluate: Callable[[int], float | None]) -> int:
    """Round x to whichever of floor/ceil has the higher EE.

    ``evaluate`` returns the EE of an integer candidate or None when the
    candidate is infeasible; an infeasible floor falls back to the ceiling.
    """
    lo, hi = math.floor(x), math.ceil(x)
    ee_lo = evaluate(lo) if lo >= 1 else None
    if lo == hi:
        if ee_lo is None:
            raise OptimizationError(f"integer point {lo} is infeasible")
        return lo
    ee_hi = evaluate(hi)
    if ee_lo is None and ee_hi is None:
        raise OptimizationError(f"both neighbors of {x:g} are infeasible")
    if ee_lo is None:
        return hi
    if ee_hi is None:
        return lo
    return lo if ee_lo > ee_hi else hi


def exhaustive_argmax(evaluate: Callable[[int], float | None],
                      candidates: Iterable[int]) -> int:
    """True integer argmax by full scan; ties break to the smallest value."""
    best_value = None
    best_arg = None
    empty = True
    for cand in candidates:
        empty = False
        value = evaluate(cand)
        if value is not None and (best_value is None or value > best_value):
            best_value, best_arg = value, cand
    if empty:
        raise OptimizationError("empty candidate range")
    if best_arg is None:
        raise OptimizationError("no feasible candidate in range")
    return best_arg


def ee_or_none(cfg: SystemConfig, pm: PowerModel, gamma: float,
               **point) -> float | None:
    """The EE at ``point`` (n, M, K overrides), None where infeasible."""
    try:
        return energy_efficiency(cfg, pm, gamma, **point)
    except InfeasibleError:
        return None


def optimal_n(cfg: SystemConfig, pm: PowerModel, gamma: float,
              M: int | None = None) -> OptimizationResult:
    """Closed-form EE-optimal antennas per RRH for a target rate gamma.

    The continuous optimum balances the per-antenna circuit power against
    the transmit power, offset by the minimum feasible antenna count; the
    integer answer is the EE-preferred neighbor.  ``M`` replaces cfg.M.
    Raises OptimizationError when the balance point lies beyond 2^53
    antennas (a negligible P_RRH) or the EE is 0 at every n (``ZERO_EE``).
    """
    return _optimal_n(Design(override(cfg, M=M), pm, gamma))


def _optimal_n(design: Design) -> OptimizationResult:
    """``optimal_n`` of a scalar ``design``."""
    n_min, n_real = _antenna_optimum(design)
    n_star = floor_ceil_select(n_real, design.ee)
    ee, p_d, _ = design.point(n_star)
    if ee == 0.0:
        raise OptimizationError(ZERO_EE.format("n"))
    return OptimizationResult(ee=ee, p_d=p_d, n=n_star, M=design.cfg.M,
                              K=design.cfg.K, x_real=n_real,
                              window=(float(n_min), math.inf))


def _antenna_optimum(design: Design):
    """(n_min, the continuous EE-optimal n) of ``design``, arrays over its
    lanes (of M or of K), with optimal_n's errors (marked in the lanes
    over lanes)."""
    cfg, pm, lanes = design.cfg, design.pm, design.lanes
    ev = lanes or SCALAR
    n_min = design.n_min  # raises if gamma unachievable
    data_fraction = _finite_power(
        (cfg.T - cfg.psi * design.K) / (cfg.T * pm.zeta), lanes)
    antenna_power = design.margin * design.M * pm.P_RRH
    # numpy's x / 0 is inf (or NaN), infeasible like the scalar's inf
    balance = (math.inf if lanes is None and not antenna_power > 0.0 else
               ev.sqrt(data_fraction * cfg.sigma2 * design.K / antenna_power))
    if ev.infeasible(balance < MAX_COUNT):
        raise OptimizationError(
            f"EE grows with n beyond 2^53 antennas per RRH: the antenna "
            f"power P_RRH = {pm.P_RRH!r} W is negligible against the "
            f"transmit power")
    n_real = balance + design.brk.I_MU_scaled / design.margin
    # no integer neighbors, as for n_min
    if ev.infeasible(n_real < MAX_COUNT):
        raise RateUnachievableError(design.gamma, _rate_ceiling(design.brk))
    return n_min, n_real


def optimal_n_no_pc(cfg: SystemConfig, pm: PowerModel,
                    gamma: float) -> OptimizationResult:
    """Contamination-free lower bound on the optimal antenna count.

    Evaluates the closed form with orthogonal pilots across all cells
    (psi = L) and negligible pilot noise, regardless of the configured
    reuse factor.
    """
    clean = cfg.replace(psi=cfg.L, pilot_noise_mode="negligible")
    return optimal_n(clean, pm, gamma)


def _user_count_scalars(cfg: SystemConfig, pm: PowerModel, gamma: float):
    """mu1, mu2 and the interference slope of the user-count quartic, and
    the upper end min(T/psi, mu1/slope) of its feasibility interval.

    Every returned scalar is independent of the user count (the signal and
    contamination powers do not involve K in negligible mode), so the
    incumbent K is reset to a placeholder rather than constraining the
    search.
    """
    clean = cfg.replace(pilot_noise_mode="negligible", K=1)
    brk = sinr_breakdown(clean)
    margin = rate_margin(brk, gamma)
    mu1 = clean.n * margin
    circuit = pm.P_FIX + clean.n * clean.M * pm.P_RRH + clean.M * pm.P_0
    mu2 = _finite_power(clean.T / gamma * circuit)
    slope = brk.I_MU_scaled             # I_MU' = slope * K
    zeta_gamma = pm.zeta * gamma        # 0 where it underflows: inf power
    _finite_power(clean.sigma2 / zeta_gamma if zeta_gamma else math.inf)
    return (clean, mu1, mu2, slope), min(clean.T / clean.psi, mu1 / slope)


def z_of_k(cfg: SystemConfig, pm: PowerModel, gamma: float, K: float) -> float:
    """Sign function of d(1/EE)/dK on the open feasibility interval.

    Negative where EE still grows with the user count, positive beyond the
    optimum.  Defined (and evaluated) under negligible pilot noise, where
    the signal and contamination powers do not depend on K.
    """
    scalars, upper = _user_count_scalars(cfg, pm, gamma)
    if not 0.0 < K < upper:
        raise ValueError(f"K={K:g} outside the open interval (0, {upper:g})")
    return _quartic(pm, gamma, K, *scalars)


def _quartic(pm: PowerModel, gamma: float, K: float, clean: SystemConfig,
             mu1: float, mu2: float, slope: float) -> float:
    """``z_of_k`` at K from the scalars of ``_user_count_scalars``."""
    try:
        return (mu2 * (2.0 * K * clean.psi - clean.T) * (mu1 - slope * K) ** 2
                + clean.sigma2 / (pm.zeta * gamma) * slope
                * ((clean.T - K * clean.psi) * K) ** 2)
    except OverflowError:   # mu1 = n * margin grows as beta * M^(iota/2)
        raise ConfigError(f"beta, iota, n and gamma = {gamma!r} take the "
                          f"user-count quartic beyond the double range") \
            from None


def optimal_k(cfg: SystemConfig, pm: PowerModel,
              gamma: float) -> OptimizationResult:
    """EE-optimal user count via bisection of the quartic sign function.

    Works in negligible pilot-noise mode (the regime where the quartic
    characterization holds); the reported EE is evaluated in that mode.
    For exact pilot noise, scan ``energy_efficiency`` with
    ``exhaustive_argmax`` instead.
    """
    scalars, upper = _user_count_scalars(cfg, pm, gamma)
    clean = scalars[0]
    z = lambda K: _quartic(pm, gamma, K, *scalars)  # noqa: E731
    lo = upper * 1e-9
    hi = upper * (1.0 - 1e-12)
    if not (z(lo) < 0.0 < z(hi)):
        raise OptimizationError("no sign change on the feasibility interval")
    while hi - lo > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if z(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    k_real = 0.5 * (lo + hi)
    # the root < T/(2 psi): ceil(k_real) > T // psi only for T/psi near 2
    k_star = floor_ceil_select(min(k_real, clean.T // clean.psi),
                               lambda K: ee_or_none(clean, pm, gamma, K=K))
    ee, p_d, _ = operating_point(clean.replace(K=k_star), pm, gamma)
    return OptimizationResult(ee=ee, p_d=p_d, K=k_star, n=clean.n, M=clean.M,
                              x_real=k_real, window=(0.0, upper))


def _alone(cfg: SystemConfig, pm: PowerModel, gamma: float,
           n: int | np.ndarray | None) -> None:
    """Raise the error of one lane evaluated alone: optimal_n's, or with
    ``n`` (an int or a column of them) that of the operating point at each
    n in order, an InfeasibleError at the last n only."""
    if n is None:
        optimal_n(cfg, pm, gamma)
        return
    *head, last = np.ravel(n).astype(int).tolist()
    for each in head:
        ee_or_none(cfg, pm, gamma, n=each)
    operating_point(cfg, pm, gamma, n=last)


def _floor_ceil_lanes(x: np.ndarray, design: Design):
    """``floor_ceil_select`` of every lane: n* and its EE and p_d as
    arrays.  Both neighbors are one (2, lanes) point of ``design``, so a
    lane is CONFIG where either raises a ConfigError, and INFEASIBLE where
    both are infeasible."""
    lo, hi = np.floor(x), np.ceil(x)
    ee, p_d, _ = design.point(np.array((np.where(lo >= 1.0, lo, np.nan),
                                        np.where(lo != hi, hi, np.nan))))
    ok_lo, ok_hi = ~np.isnan(ee)                 # NaN: skipped or infeasible
    design.lanes.infeasible(ok_lo | ok_hi)
    take_lo = ok_lo & ~(ee[1] >= ee[0])          # a NaN compares false
    return (np.where(take_lo, lo, hi), np.where(take_lo, ee[0], ee[1]),
            np.where(take_lo, p_d[0], p_d[1]))


def sweep(axis: str, count: int) -> Lanes:
    """Lanes of the counts 1..count of ``axis`` ("M" or "K"); a
    ConfigError past ``MAX_SWEEP`` counts, before any lane is allocated."""
    if count > MAX_SWEEP:
        raise ConfigError(f"a sweep of {axis} over 1..{count} is longer than "
                          f"{MAX_SWEEP} counts")
    return Lanes(**{axis: np.arange(1, count + 1)})


def scan(cfg: SystemConfig, pm: PowerModel, gamma: float | None,
         lanes: Lanes, n: int | None = None) -> tuple:
    """Every lane of ``lanes`` (M, K and gamma, see ``Lanes``) in one pass.

    Returns the arrays (feasible, n*, ee, p_d, x_real) over the lanes.
    Each feasible lane holds the bits of ``optimal_n`` at that lane's M, K
    and rate (the lanes' or ``gamma``); with ``n`` (a
    positive int, validated by the caller, or an (n, 1) column of them for
    (n, lanes) grids) those of the operating point at n, n* = n and x_real
    None.  A point is infeasible where that evaluation raises an
    InfeasibleError; at the first lane (in row-major order) where it
    raises a ConfigError, that lane is evaluated alone to raise it.
    """
    with np.errstate(all="ignore"):
        design = Design(cfg, pm, gamma, lanes)
        if n is None:
            x_real = _antenna_optimum(design)[1]
            n_star, ee, p_d = _floor_ceil_lanes(x_real, design)
            lanes.infeasible(design.throughput != 0.0)   # optimal_n: ZERO_EE
            feasible = lanes.fail == 0
        else:
            n_star, x_real = n, None
            ee, p_d, _ = design.point(n)
            feasible = (lanes.fail == 0) & ~np.isnan(ee)
    config = lanes.fail == CONFIG
    if np.count_nonzero(config):
        lane = lanes.lane(config.argmax())
        _alone(override(cfg, M=lane.get("M"), K=lane.get("K")), pm,
               lane.get("gamma", gamma), n)
        raise AssertionError(f"{lane}: the array pass marks a ConfigError "
                             f"that the scalar does not")
    return feasible, n_star, ee, p_d, x_real


def optimal_m(cfg: SystemConfig, pm: PowerModel, gamma: float,
              K: int | None = None, M_max: int = DEFAULT_M_MAX,
              n: int | None = None) -> OptimizationResult:
    """EE-optimal RRH count at rate gamma by scanning M = 1..M_max.

    With ``n`` given, every M is evaluated at that fixed antenna count;
    otherwise each candidate M uses its own closed-form optimal n.  The
    averaged-model gains (beta, alpha1, alpha2) are held fixed while the
    serving-RRH gain keeps its M^(iota/2) scaling.  Ties break toward the
    smaller M; an M without a feasible (integer) optimum is skipped.  The
    scan is one ``scan`` over M, bit-identical to evaluating each M alone.
    """
    _require_count("M_max", M_max)
    cfg = override(override(cfg, K=K), n=n)
    feasible, n_star, ee, p_d, x_real = scan(cfg, pm, gamma,
                                             sweep("M", M_max), n)
    i = np.argmax(np.where(feasible, ee, -np.inf))  # first of the best
    if not feasible[i]:   # every M skipped: report why the last one was
        try:
            _alone(cfg.replace(M=M_max), pm, gamma, n)
        except InfeasibleError as exc:
            raise OptimizationError(f"no feasible M <= {M_max}: {exc}") \
                from None
    if ee[i] == 0.0:   # at a fixed n; scan marks such lanes at n* infeasible
        raise OptimizationError(ZERO_EE.format("M"))
    return OptimizationResult(
        ee=float(ee[i]), p_d=float(p_d[i]), K=cfg.K, M=int(i) + 1,
        n=n if n is not None else int(n_star[i]),
        x_real=None if x_real is None else float(x_real[i]),
        window=(1.0, float(M_max)))
