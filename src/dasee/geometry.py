"""Cell/RRH geometry and the distance-based calibration of (beta, a1, a2).

The reference deployment is one center cell surrounded by six neighbors with
centers 2*Rc apart; each cell places one RRH at its center and the remaining
M-1 RRHs equally spaced on a circle of radius (2/3)*Rc.  Users drop uniformly
on the cell disk, kept at least ``min_distance`` away from every RRH, and the
averaged interference model is fitted from the resulting 1/d^iota gains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError

DEFAULT_RING_FRACTION = 2.0 / 3.0
DEFAULT_SPACING_FACTOR = 2.0   # neighbor-center distance in units of Rc
DEFAULT_MIN_DISTANCE = 200.0   # m, user-to-RRH exclusion radius
MAX_EMPTY_ROUNDS = 100         # rejection rounds in a row that keep no user


@dataclass(frozen=True)
class Layout:
    """RRH and cell-center coordinates in meters."""

    cell_centers: np.ndarray   # (L, 2)
    rrh_positions: np.ndarray  # (L, M, 2)
    Rc: float

    @property
    def L(self) -> int:
        return self.cell_centers.shape[0]

    @property
    def M(self) -> int:
        return self.rrh_positions.shape[1]


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted averaged-model parameters and the raw gain means behind them."""

    beta: float
    alpha1: float
    alpha2: float
    mean_gain_nearest: float   # E{mean over users of the serving-RRH gain}
    mean_gain_intra: float     # E{mean gain to the other own-cell RRHs}
    mean_gain_inter: float     # E{mean gain to other-cell RRHs}
    drops: int
    users_per_drop: int

    def config_overrides(self) -> dict:
        return {"beta": self.beta, "alpha1": self.alpha1, "alpha2": self.alpha2}


def build_layout(M: int, Rc: float, L: int = 7,
                 ring_fraction: float = DEFAULT_RING_FRACTION,
                 spacing_factor: float = DEFAULT_SPACING_FACTOR) -> Layout:
    """Center cell plus (L-1) neighbors, one central RRH plus an RRH ring."""
    if L not in (1, 7):
        raise ConfigError(f"unsupported cell count L={L} (expected 1 or 7)")
    if M < 1:
        raise ConfigError("M must be >= 1")
    centers = [(0.0, 0.0)]
    for k in range(L - 1):
        angle = k * np.pi / 3.0
        centers.append((spacing_factor * Rc * np.cos(angle),
                        spacing_factor * Rc * np.sin(angle)))
    cell_centers = np.asarray(centers)
    rrh = np.empty((L, M, 2))
    rrh[:, 0] = cell_centers
    for m in range(1, M):
        angle = (m - 1) * 2.0 * np.pi / (M - 1)
        offset = ring_fraction * Rc * np.array([np.cos(angle), np.sin(angle)])
        rrh[:, m] = cell_centers + offset
    return Layout(cell_centers=cell_centers, rrh_positions=rrh, Rc=Rc)


def drop_users(K: int, Rc: float, seed=None) -> np.ndarray:
    """K positions uniform on the disk of radius Rc, reproducible from seed."""
    if K < 1:
        raise ValueError("K must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    radius = Rc * np.sqrt(rng.random(K))
    angle = 2.0 * np.pi * rng.random(K)
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


def _drop_users_excluded(rng: np.random.Generator, K: int, layout: Layout,
                         min_distance: float) -> np.ndarray:
    """Uniform drop on the disk, rejecting users within min_distance of an RRH."""
    flat_rrh = layout.rrh_positions.reshape(-1, 2)
    users = np.empty((K, 2))
    filled = empty_rounds = 0
    while filled < K:
        cand = drop_users(K, layout.Rc, rng)
        dist = np.linalg.norm(cand[:, None, :] - flat_rrh[None], axis=-1)
        keep = cand[dist.min(axis=1) >= min_distance]
        empty_rounds = 0 if len(keep) else empty_rounds + 1
        if empty_rounds == MAX_EMPTY_ROUNDS:
            raise ConfigError(f"min_distance {min_distance:g} m excludes every user")
        take = min(K - filled, len(keep))
        users[filled:filled + take] = keep[:take]
        filled += take
    return users


def calibrate(layout: Layout, iota: float, K: int, drops: int, seed=None,
              min_distance: float = DEFAULT_MIN_DISTANCE) -> CalibrationResult:
    """Fit (beta, alpha1, alpha2) from center-cell user drops.

    Per drop, each center-cell user contributes 1/d^iota gains to every RRH;
    the nearest own-cell gain, the other own-cell gains and the other-cell
    gains are averaged separately over users and drops, and the averaged
    interference model is read off as beta = E{nearest}/M^(iota/2),
    alpha1 = E{intra}/beta, alpha2 = E{inter}/beta.
    """
    if drops < 1:
        raise ConfigError("drops must be >= 1")
    rng = np.random.default_rng(seed)
    M = layout.M
    sum_nearest = sum_intra = sum_inter = 0.0
    users_idx = np.arange(K)
    for _ in range(drops):
        users = _drop_users_excluded(rng, K, layout, min_distance)
        dist = np.linalg.norm(users[:, None, None, :]
                              - layout.rrh_positions[None], axis=-1)  # (K, L, M)
        gain = np.maximum(dist, 1.0) ** (-iota)
        own = gain[:, 0, :]
        nearest = np.argmax(own, axis=1)
        sum_nearest += own[users_idx, nearest].mean()
        if M > 1:
            others = np.ones((K, M), dtype=bool)
            others[users_idx, nearest] = False
            sum_intra += own[others].mean()
        if layout.L > 1:
            sum_inter += gain[:, 1:, :].mean()
    e_nearest = float(sum_nearest / drops)
    e_intra = float(sum_intra / drops)
    e_inter = float(sum_inter / drops)
    beta = e_nearest / M ** (iota / 2.0)
    return CalibrationResult(
        beta=beta,
        alpha1=e_intra / beta if M > 1 else 0.0,
        alpha2=e_inter / beta if layout.L > 1 else 0.0,
        mean_gain_nearest=e_nearest,
        mean_gain_intra=e_intra,
        mean_gain_inter=e_inter,
        drops=drops,
        users_per_drop=K,
    )
