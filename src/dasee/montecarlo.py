"""Monte-Carlo link-level oracle for the finite-antenna downlink.

Draws the exact finite-n system: correlated channels, uplink pilots with
contamination and noise, per-link MMSE estimates, MRT precoders with batch
power normalization, and the empirical per-user SINR / cell spectral
efficiency assembled exactly as the analytic formula structures them
(batch mean of the effective channel, batch variance, batch means of the
interference magnitudes, normalization from the same batch).

Reproducibility contract: realization r draws from its own counter-derived
substream SeedSequence(seed, spawn_key=(r,)), and reductions run in fixed
realization order, so results are bit-identical for a given
(config, seed, realization count) regardless of how the work is scheduled.

The channels of the rank-P model live in the steering subspace
(g = sqrt(beta*n/P) A h with A^H A = I_P), and the estimation filter is a
scalar multiple of the projector A A^H, so every inner product entering the
SINR reduces exactly to P-dimensional coordinates; the SINR estimator works
in these coordinates and never materializes A.  It needs only the cell-0
channels g0 = g_{lm0k} and the estimates w = ghat_{lmlk}.  Every other
co-pilot channel and the pilot noise enter w through one sum of independent
Gaussians, so each realization draws two standard (L, M, K, P) arrays a, b:

    g0 = sqrt(beta_{lm0k} d) a
    w  = c_{lmk} (s_l g0 + sqrt(C_{lmk} - s_l beta_{lm0k} d + loading) b)

with s_l = 1 if cell l shares cell 0's pilots (else 0), C_{lmk} the summed
co-pilot gains and c_{lmk} the MMSE coefficient: the joint distribution of
drawing every link, as the full-space reference ``generate_realization`` does.

Layout.  A realization's normals come from one call,
standard_normal((2, L, M, K, P, 2)), whose last axis is read in place as
complex128 (real, imaginary); the first index gives a, the second b, the
same values as two sequential (L, M, K, P) draws.  The 1/sqrt(2) of a unit
complex Gaussian is folded into the scale factors.  Cells with s_l = 1 are
exactly l = 0 (mod psi), so w is built in place: scale b, add g0 on every
psi-th cell, multiply by c.  The inner products
y[l, k, i] = sum_m g_{lm0k}^T conj(w_{lmi}) are one (K, P) x (P, K) GEMM per
(l, m), followed by a sum over m in fixed order.  A single (K, M P) GEMM per
cell is as fast, but its last bits changed between one and two BLAS threads
(measured at psi 1, K 20, n 60), which would break the contract above; the
per-(l, m) products gave the same bytes under one and two BLAS threads at
every size tried, up to K = 196 and P = 300.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotic import large_scale_gains, rate_from_sinr, total_power_at_se
from .config import ConfigError, PowerModel, SystemConfig


@dataclass(frozen=True)
class SteeringMatrix:
    """Orthonormal steering basis of the rank-P channel model."""

    A: np.ndarray  # (n, P), A^H A = I_P
    kind: str
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def P(self) -> int:
        return self.A.shape[1]


def steering_matrix(n: int, P: int | None = None, kind: str = "dft_columns",
                    seed: int | None = None) -> SteeringMatrix:
    """Build an n x P steering matrix with orthonormal columns.

    ``dft_columns`` takes the first P columns of the unitary n-point DFT
    matrix (deterministic); ``random_unitary`` orthonormalizes a complex
    Gaussian matrix drawn from ``seed`` (bit-reproducible for equal seeds).
    """
    if P is None:
        P = n
    if P > n or P < 1:
        raise ValueError(f"need 1 <= P <= n, got P={P}, n={n}")
    if kind == "dft_columns":
        idx = np.arange(n)
        A = np.exp(-2j * np.pi * np.outer(idx, idx[:P]) / n) / np.sqrt(n)
    elif kind == "random_unitary":
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Qm, Rm = np.linalg.qr(G)
        diag = Rm.diagonal()
        A = (Qm * (diag.conj() / np.abs(diag)))[:, :P]
    else:
        raise ValueError(f"unknown steering kind {kind!r}")
    return SteeringMatrix(A=A, kind=kind, seed=seed)


@dataclass(frozen=True)
class ChannelRealization:
    """One finite-n draw: true channels, pilot noise, MMSE estimates."""

    channels: np.ndarray     # (L, M, L, K, n): g_{lmjk}
    pilot_noise: np.ndarray  # (L, M, K, n):    z_{lmk}
    estimates: np.ndarray    # (L, M, K, n):    ghat_{lmlk}
    seed: int


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    z = rng.standard_normal(tuple(shape) + (2,)).view(np.complex128)[..., 0]
    z /= np.sqrt(2.0)
    return z


def _simulation_gains(cfg: SystemConfig, gains: np.ndarray | None) -> np.ndarray:
    """``gains`` or the model's, for a cfg with P = n/d whole steering columns."""
    if cfg.n % cfg.d != 0:
        raise ConfigError("n not divisible by d")
    return large_scale_gains(cfg) if gains is None else gains


def _pilot_model(cfg: SystemConfig, gains: np.ndarray):
    """Co-pilot matrix share[l, j] = (l % psi == j % psi), the summed co-pilot
    gains d sum_j share[l, j] beta_{lmjk}, the pilot loading sigma2/(p_u tau_u)
    (0 when pilot noise is negligible) and the MMSE coefficient per (l, m, k):
    estimate = coeff * A A^H (observation).  A link with no gain gets 0."""
    group = np.arange(cfg.L) % cfg.psi
    share = (group[:, None] == group).astype(float)
    copilot = np.einsum("lj,lmjk->lmk", share, gains) * cfg.d
    loading = (0.0 if cfg.pilot_noise_mode == "negligible"
               else cfg.sigma2 / (cfg.p_u * cfg.tau_u))
    total = loading + copilot
    coeff = np.einsum("lmlk->lmk", gains) * cfg.d / np.where(total > 0.0, total, 1.0)
    return share, copilot, loading, coeff


def generate_realization(cfg: SystemConfig, steering: SteeringMatrix,
                         seed: int, gains: np.ndarray | None = None
                         ) -> ChannelRealization:
    """Draw one full-space channel realization with its MMSE estimates.

    Channels follow g_{lmjk} = sqrt(beta_{lmjk} n/P) A h with i.i.d. standard
    complex Gaussian h; estimates apply the MMSE filter to the pilot
    observation (own channel + co-pilot channels + scaled noise; the noise
    is drawn but left out when negligible).  ``gains`` overrides the
    averaged-model betas, e.g. with position-derived values.
    """
    gains = _simulation_gains(cfg, gains)
    A = steering.A
    if A.shape != (cfg.n, cfg.P):
        raise ValueError(f"steering matrix shape {A.shape} does not match "
                         f"(n, P) = ({cfg.n}, {cfg.P})")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    h = _complex_normal(rng, (cfg.L, cfg.M, cfg.L, cfg.K, cfg.P))
    noise = _complex_normal(rng, (cfg.L, cfg.M, cfg.K, cfg.n)) * np.sqrt(cfg.sigma2)

    # n/P = d, so the amplitude per link is sqrt(beta * d).
    channels = np.sqrt(gains * cfg.d)[..., None] * np.einsum("np,lmjkp->lmjkn", A, h)

    share, _, loading, coeff = _pilot_model(cfg, gains)
    observation = np.einsum("lj,lmjkn->lmkn", share, channels)
    observation += noise * np.sqrt(loading / cfg.sigma2)
    projected = np.einsum("np,lmkp->lmkn", A, np.einsum("np,lmkn->lmkp",
                                                        A.conj(), observation))
    estimates = coeff[..., None] * projected
    return ChannelRealization(channels=channels, pilot_noise=noise,
                              estimates=estimates, seed=seed)


def _draws(cfg: SystemConfig, realizations: int, seed: int,
           gains: np.ndarray | None):
    """Check ``cfg`` and ``realizations`` now; iterate over the (g0, w) of
    each realization in order, realization r drawn from its own substream.
    Both arrays are fresh per realization, so callers may modify them."""
    gains = _simulation_gains(cfg, gains)
    if realizations < 1:
        raise ConfigError(f"realizations must be >= 1, got {realizations}")
    share, copilot, loading, coeff = _pilot_model(cfg, gains)
    own0 = gains[:, :, 0, :, None] * cfg.d          # beta_{lm0k} d
    mix = share[:, 0, None, None, None]             # s_l: cell l reuses cell 0's pilots
    # 1/sqrt(2) makes the two unit normals one standard complex Gaussian.
    g0_scale = np.sqrt(own0 / 2.0)
    rest_scale = np.sqrt((copilot[..., None] - mix * own0 + loading) / 2.0)
    coeff = coeff[..., None]
    shape = (2, cfg.L, cfg.M, cfg.K, cfg.P, 2)

    def draw(r: int):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        g0, w = rng.standard_normal(shape).view(np.complex128)[..., 0]
        g0 *= g0_scale
        w *= rest_scale
        w[::cfg.psi] += g0[::cfg.psi]               # s_l = 1 exactly for l % psi == 0
        w *= coeff
        return g0, w

    return map(draw, range(realizations))


def _power(x: np.ndarray) -> np.ndarray:
    """|x|^2 elementwise, without the square root of ``abs``."""
    return x.real ** 2 + x.imag ** 2


def empirical_sinr_rate(cfg: SystemConfig, realizations: int, seed: int,
                        gains: np.ndarray | None = None
                        ) -> tuple[np.ndarray, float]:
    """Empirical per-user SINR (cell 0) and the cell spectral efficiency.

    Averages over ``realizations`` independent channel draws with per-cell
    power normalization estimated from the same batch.  Returns
    ``(sinr, se)`` with sinr of shape (K,) and se in bits/s/Hz.
    """
    sum_eff = np.zeros(cfg.K, dtype=complex)   # effective channel, user k
    sum_eff2 = np.zeros(cfg.K)
    sum_sci = np.zeros(cfg.K)
    sum_ici = np.zeros((cfg.L, cfg.K))
    sum_wnorm = np.zeros(cfg.L)
    off_diag = ~np.eye(cfg.K, dtype=bool)

    for g0, w in _draws(cfg, realizations, seed, gains):
        sum_wnorm += _power(w).sum(axis=(1, 2, 3))
        # y[l, k, i] = sum_m g_{lm0k}^T w*_{lmi}: one (K, P) x (P, K) product
        # per (l, m), then a sum over m
        np.conjugate(w, out=w)
        y = np.matmul(g0, w.swapaxes(-1, -2)).sum(axis=1)
        power = _power(y)
        sum_eff += y[0].diagonal()
        sum_eff2 += power[0].diagonal()
        sum_sci += np.where(off_diag, power[0], 0.0).sum(axis=1)
        sum_ici += power.sum(axis=2)

    lam = cfg.K / (sum_wnorm / realizations)
    mean_eff = sum_eff / realizations
    var_eff = sum_eff2 / realizations - np.abs(mean_eff) ** 2
    sci = lam[0] * sum_sci / realizations
    ici = (lam[1:, None] * sum_ici[1:] / realizations).sum(axis=0)
    sinr = (lam[0] * np.abs(mean_eff) ** 2
            / (lam[0] * var_eff + sci + ici + cfg.sigma2 / cfg.p_d))
    se = rate_from_sinr(cfg, sinr)
    return sinr, se


def empirical_transmit_power(cfg: SystemConfig, realizations: int, seed: int,
                             lam: np.ndarray | None = None,
                             gains: np.ndarray | None = None) -> np.ndarray:
    """Batch-averaged per-cell transmit power (W) under normalization ``lam``.

    With the batch's own normalization the result is p_d by construction;
    passing the closed-form normalization 1/(n*S) instead makes this a real
    consistency check of the precoder second moment.
    """
    sum_wnorm = np.zeros(cfg.L)
    for _, w in _draws(cfg, realizations, seed, gains):
        sum_wnorm += _power(w).sum(axis=(1, 2, 3))
    if lam is None:
        lam = cfg.K / (sum_wnorm / realizations)
    return cfg.p_d / cfg.K * np.asarray(lam) * sum_wnorm / realizations


def empirical_ee(cfg: SystemConfig, pm: PowerModel, realizations: int,
                 seed: int, gains: np.ndarray | None = None) -> float:
    """Empirical energy efficiency (bits/Joule) at the configured p_d."""
    _, se = empirical_sinr_rate(cfg, realizations, seed, gains=gains)
    return cfg.B * se / total_power_at_se(cfg, pm, se)
