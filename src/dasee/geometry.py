"""Cell/RRH geometry and the distance-based calibration of (beta, a1, a2).

The reference deployment is one center cell surrounded by six neighbors with
centers 2*Rc apart; each cell places one RRH at its center and the remaining
M-1 RRHs equally spaced on a circle of radius (2/3)*Rc.  Users drop uniformly
on the cell disk, kept at least ``min_distance`` away from every RRH, and the
averaged interference model is fitted from the resulting 1/d^iota gains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, _require_seed

DEFAULT_RING_FRACTION = 2.0 / 3.0
DEFAULT_SPACING_FACTOR = 2.0   # neighbor-center distance in units of Rc
DEFAULT_MIN_DISTANCE = 200.0   # m, user-to-RRH exclusion radius
MAX_EMPTY_ROUNDS = 100         # rejection rounds in a row that keep no user
BLOCK = 1024                   # candidate users drawn at once by calibrate


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


def build_layout(M: int, Rc: float, L: int = 7) -> Layout:
    """Center cell plus (L-1) neighbors, one central RRH plus an RRH ring."""
    if L not in (1, 7):
        raise ConfigError(f"unsupported cell count L={L} (expected 1 or 7)")
    if M < 1:
        raise ConfigError("M must be >= 1")
    centers = [(0.0, 0.0)]
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        for k in range(L - 1):
            angle = k * np.pi / 3.0
            centers.append((DEFAULT_SPACING_FACTOR * Rc * np.cos(angle),
                            DEFAULT_SPACING_FACTOR * Rc * np.sin(angle)))
        cell_centers = np.asarray(centers)
        rrh = np.empty((L, M, 2))
        rrh[:, 0] = cell_centers
        for m in range(1, M):
            angle = (m - 1) * 2.0 * np.pi / (M - 1)
            offset = DEFAULT_RING_FRACTION * Rc * np.array([np.cos(angle),
                                                            np.sin(angle)])
            rrh[:, m] = cell_centers + offset
    if not np.isfinite(rrh).all():
        raise ConfigError(f"Rc {Rc:g} puts the RRH coordinates outside the "
                          f"range of a double")
    return Layout(cell_centers=cell_centers, rrh_positions=rrh, Rc=Rc)


def drop_users(K: int, Rc: float, seed=None) -> np.ndarray:
    """K positions uniform on the disk of radius Rc, reproducible from seed."""
    if K < 1:
        raise ValueError("K must be >= 1")
    rng = np.random.default_rng(seed)
    return _disk_points(rng.random(K), rng.random(K), Rc)


def _disk_points(u_radius: np.ndarray, u_angle: np.ndarray,
                 Rc: float) -> np.ndarray:
    """Points (..., 2) on the disk of radius Rc from U(0, 1) variates."""
    radius = Rc * np.sqrt(u_radius)
    angle = 2.0 * np.pi * u_angle
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


def _square_distances(points: np.ndarray, layout: Layout) -> np.ndarray:
    """Squared distances from points (..., 2) to every RRH, (..., L, M)."""
    rrh = layout.rrh_positions
    dx = points[..., 0, None, None] - rrh[..., 0]
    dy = points[..., 1, None, None] - rrh[..., 1]
    with np.errstate(over="ignore"):    # a distance beyond a double is inf
        return dx * dx + dy * dy    # sqrt: bit-equal to np.linalg.norm


def _drop_means(square: np.ndarray, iota: float) -> np.ndarray:
    """(3, D) per-drop means of the nearest, other own-cell and other-cell
    gains of users whose squared RRH distances are square (D, K, L, M); a
    class with no RRH reads 0."""
    D, _, L, M = square.shape
    gain = np.maximum(np.sqrt(square), 1.0) ** (-iota)
    own = gain[:, :, 0]
    nearest = np.argmax(own, axis=-1)[..., None]
    means = np.zeros((3, D))
    means[0] = np.take_along_axis(own, nearest, -1).reshape(D, -1).mean(axis=1)
    if M > 1:
        others = np.ones(own.shape, dtype=bool)
        np.put_along_axis(others, nearest, False, -1)
        means[1] = own[others].reshape(D, -1).mean(axis=1)
    if L > 1:
        means[2] = gain[:, :, 1:].reshape(D, -1).mean(axis=1)
    return means


def calibrate(layout: Layout, iota: float, K: int, drops: int, seed=None,
              min_distance: float = DEFAULT_MIN_DISTANCE) -> CalibrationResult:
    """Fit (beta, alpha1, alpha2) from center-cell user drops.

    A drop places K users on the center-cell disk: each rejection round
    draws K candidates as ``drop_users`` does and keeps, in order, those
    at least ``min_distance`` from every RRH until the drop is full (a
    round's surplus is discarded).  Each user contributes 1/d^iota gains to
    every RRH; the nearest own-cell gain, the other own-cell gains and the
    other-cell gains are averaged separately over users and drops, and the
    averaged interference model is read off as beta = E{nearest}/M^(iota/2),
    alpha1 = E{intra}/beta, alpha2 = E{inter}/beta.

    The rounds are drawn in blocks of at most ``BLOCK`` candidates, never
    past the last round used (every unfinished drop needs one more), so
    memory does not grow with ``drops``, and the result, and the state of a
    Generator passed as ``seed``, equal those of a drop-by-drop loop (after
    a ConfigError the Generator may have advanced further than the loop's).
    """
    if drops < 1:
        raise ConfigError("drops must be >= 1")
    if K < 1:
        raise ConfigError("K must be >= 1")
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    sums = [0.0, 0.0, 0.0]              # nearest, intra, inter
    pending = np.empty((0, layout.L, layout.M))   # the drop being filled
    need, empty, done = K, 0, 0
    while done < drops:
        rounds = min(drops - done, max(1, BLOCK // K))
        u = rng.random((rounds, 2, K))  # per round: radii, then angles
        cand = _disk_points(u[:, 0], u[:, 1], layout.Rc)   # (rounds, K, 2)
        square = _square_distances(cand, layout)           # (rounds, K, L, M)
        keep = np.sqrt(square.min(axis=(-2, -1))) >= min_distance
        takes = np.empty(rounds, dtype=np.intp)
        for r, count in enumerate(keep.sum(axis=1).tolist()):
            empty = 0 if count else empty + 1
            if empty == MAX_EMPTY_ROUNDS:
                raise ConfigError(
                    f"min_distance {min_distance:g} m excludes every user")
            takes[r] = min(need, count)
            need = need - takes[r] or K
        keep &= np.cumsum(keep, axis=1) <= takes[:, None]
        users = np.concatenate([pending, square[keep]])
        full = len(users) // K
        pending = users[full * K:]
        if full:
            means = _drop_means(users[:full * K].reshape(full, K, layout.L,
                                                         layout.M), iota)
            for i, column in enumerate(means.tolist()):
                for value in column:        # a running sum in drop order
                    sums[i] += value
            done += full
    e_nearest, e_intra, e_inter = (total / drops for total in sums)
    try:
        beta = e_nearest / layout.M ** (iota / 2.0)
    except OverflowError:       # M^(iota/2) beyond a double
        beta = 0.0
    if not 0.0 < beta < math.inf:
        raise ConfigError(f"iota {iota:g} and Rc {layout.Rc:g} take the "
                          f"calibrated gains outside the range of a double "
                          f"(beta = {beta:g})")
    return CalibrationResult(
        beta=beta,
        alpha1=e_intra / beta if layout.M > 1 else 0.0,
        alpha2=e_inter / beta if layout.L > 1 else 0.0,
        mean_gain_nearest=e_nearest,
        mean_gain_intra=e_intra,
        mean_gain_inter=e_inter,
        drops=drops,
        users_per_drop=K,
    )
