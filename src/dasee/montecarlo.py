"""Monte-Carlo link-level oracle for the finite-antenna downlink.

Simulates the exact finite-n system: correlated channels, uplink pilots with
contamination and noise, per-link MMSE estimates, MRT precoders with batch
power normalization, and the empirical per-user SINR / cell spectral
efficiency assembled exactly as the analytic formula structures them
(batch mean of the effective channel, batch variance, batch means of the
interference magnitudes, normalization from the same batch).

Reproducibility contract: realization r draws from its own run's
substream SeedSequence(seed, spawn_key=(r // RUN,)), going on where
realization r - 1 stopped in the same run; ``RUN`` is a constant of the
contract, independent of ``BLOCK``.  The draws fill row r of a block of
consecutive realizations, at most ``BLOCK`` (l, m, k) entries, so memory
does not grow with the realization count; a block that ends inside a run
hands its generator to the next.  The arithmetic runs once per block, each
sum over m or k on its own axis, and the batch means add the rows in
realization order, carried from block to block.  So results are
bit-identical for a given (config, seed, realization count), whatever the
block size.  No step calls BLAS, so the BLAS thread count does not enter.

The channels of the rank-P model live in the steering subspace
(g = sqrt(beta*n/P) A h with A^H A = I_P), and the estimation filter is a
scalar multiple of the projector A A^H, so every inner product entering the
SINR reduces exactly to P-dimensional coordinates.  With a, b independent
standard complex Gaussian P-vectors, the cell-0 channel and the estimate of
each (cell l, RRH m, user k) are

    g0 = sqrt(o) a,    w = c (s_l g0 + sqrt(q) b),

with o = beta_{lm0k} d, s_l = 1 if cell l shares cell 0's pilots (else 0),
q = (summed co-pilot gains) - s_l o + (pilot loading) and c the MMSE
coefficient: the joint distribution of drawing every link, as the
full-space reference ``generate_realization`` does.  One link model
(``_link_model``: o, q, c, s_l, the co-pilot matrix, the amplitudes), cached
per config, serves this sampler, the full-space draw and rmt's correlation
set; the full-space draw takes h and the pilot noise from one Gaussian draw.

The estimator needs only scalar statistics of these vectors, and the
sampler draws those directly, exact in distribution.  Where s_l = 1,
||a||^2 ~ Gamma(P, 1); given a, a^T conj(b) = ||a|| zeta with zeta a unit
complex Gaussian, and ||b||^2 = |zeta|^2 + Gamma(P - 1, 1) (Gamma(0) = 0),
which give ||w||^2 and the diagonal product y_lkk = sum_m g0^T conj(w).
Where s_l = 0, ||w||^2 = c^2 q Gamma(P, 1).  Each cross term |y_lki|^2 pairs
a cell-0 channel with an independent estimate (every i != k, and i = k where
s_l = 0), so the sampler uses its exact conditional expectation
sum_m o_lmk ||w_lmi||^2 (conditional Monte Carlo): every batch mean keeps
its expectation and loses variance.  A realization thus draws at most four
variates per (l, m, k) and never builds a P-vector.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asymptotic import _point_at_se, large_scale_gains, rate_from_sinr
from .config import ConfigError, PowerModel, SystemConfig, _require_seed

BLOCK = 16384                 # (l, m, k) entries per block of realizations
RUN = 64                      # consecutive realizations per seeded substream


def steering_matrix(n: int, P: int) -> np.ndarray:
    """The (n, P) steering basis A of the rank-P channel model, A^H A = I_P:
    the first P columns of the unitary n-point DFT matrix."""
    if P > n or P < 1:
        raise ValueError(f"need 1 <= P <= n, got P={P}, n={n}")
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx[:P]) / n) / np.sqrt(n)


@dataclass(frozen=True)
class ChannelRealization:
    """One finite-n draw: true channels, pilot noise, MMSE estimates."""

    channels: np.ndarray     # (L, M, L, K, n): g_{lmjk}
    pilot_noise: np.ndarray  # (L, M, K, n):    z_{lmk}
    estimates: np.ndarray    # (L, M, K, n):    ghat_{lmlk}
    seed: int


class _LinkModel(NamedTuple):
    """The config-only factors of one link model, (L, M, K) unless noted."""

    gains: np.ndarray       # (L, M, L, K) beta_{lmjk}
    share: np.ndarray       # (L, L) co-pilot matrix (l % psi == j % psi)
    shared: np.ndarray      # (L,) s_l, cell l shares cell 0's pilots
    loading: float          # sigma2 / (p_u tau_u), 0 when negligible
    o: np.ndarray           # beta_{lm0k} d
    q: np.ndarray           # summed co-pilot gains d - s_l o + loading
    c: np.ndarray           # MMSE: estimate = c A A^H (observation)
    amplitude: np.ndarray   # (L, M, L, K, 1) sqrt(beta d), as n/P = d


def _link_model(cfg: SystemConfig, gains: np.ndarray | None = None) -> _LinkModel:
    """The ``_LinkModel`` of ``cfg`` at ``gains``, for a cfg with P = n/d
    whole steering columns.  At the model's gains it is built once per config
    and its arrays are read-only, so no caller can change a later draw.  A
    link with no gain gets c = 0."""
    if cfg.n % cfg.d != 0:
        raise ConfigError("n not divisible by d")
    if gains is None:
        return _config_link_model(cfg)
    group = np.arange(cfg.L) % cfg.psi
    share = (group[:, None] == group).astype(float)
    shared = share[:, 0] == 1.0
    copilot = np.einsum("lj,lmjk->lmk", share, gains) * cfg.d
    loading = (0.0 if cfg.pilot_noise_mode == "negligible"
               else cfg.sigma2 / (cfg.p_u * cfg.tau_u))
    total = loading + copilot
    c = np.einsum("lmlk->lmk", gains) * cfg.d / np.where(total > 0.0, total, 1.0)
    o = gains[:, :, 0] * cfg.d
    q = copilot - shared[:, None, None] * o + loading
    return _LinkModel(gains, share, shared, loading, o, q, c,
                      np.sqrt(gains * cfg.d)[..., None])


@functools.lru_cache(maxsize=8)
def _config_link_model(cfg: SystemConfig) -> _LinkModel:
    model = _link_model(cfg, large_scale_gains(cfg))
    for factor in model:
        if isinstance(factor, np.ndarray):
            factor.flags.writeable = False
    return model


def generate_realization(cfg: SystemConfig, A: np.ndarray,
                         seed: int) -> ChannelRealization:
    """Draw one full-space channel realization with its MMSE estimates.

    Channels follow g_{lmjk} = sqrt(beta_{lmjk} n/P) A h with A the (n, P)
    ``steering_matrix`` and i.i.d. standard complex Gaussian h; estimates
    apply the MMSE filter to the pilot observation (own channel + co-pilot
    channels + scaled noise; the noise is drawn but left out when
    negligible).  The config-only factors come from the cached
    ``_link_model``; h and the noise come from one Gaussian draw, the same
    values as drawing h, then the noise.
    """
    model = _link_model(cfg)
    if A.shape != (cfg.n, cfg.P):
        raise ValueError(f"steering matrix shape {A.shape} does not match "
                         f"(n, P) = ({cfg.n}, {cfg.P})")
    _require_seed(seed)
    links = (cfg.L, cfg.M, cfg.L, cfg.K, cfg.P)
    size = math.prod(links)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    z = rng.standard_normal(2 * (size + cfg.L * cfg.M * cfg.K * cfg.n)
                            ).view(np.complex128)
    z /= np.sqrt(2.0)
    h = z[:size].reshape(links)
    noise = z[size:].reshape(cfg.L, cfg.M, cfg.K, cfg.n)
    noise *= np.sqrt(cfg.sigma2)

    channels = model.amplitude * np.einsum("np,lmjkp->lmjkn", A, h)
    observation = np.einsum("lj,lmjkn->lmkn", model.share, channels)
    observation += noise * np.sqrt(model.loading / cfg.sigma2)
    projected = np.einsum("np,lmkp->lmkn", A, np.einsum("np,lmkn->lmkp",
                                                        A.conj(), observation))
    estimates = model.c[..., None] * projected
    return ChannelRealization(channels=channels, pilot_noise=noise,
                              estimates=estimates, seed=seed)


def _statistics(cfg: SystemConfig, realizations: int, seed: int,
                gains: np.ndarray | None):
    """Check ``cfg`` and ``realizations`` now; iterate over blocks of
    consecutive realizations, at most ``BLOCK`` (l, m, k) entries each.  A
    block is a tuple of the statistics with a leading realization axis:
    per-cell sum_{m,k} ||w_lmk||^2 (., L), the effective channel y_0kk
    (., K) and its power, cell 0's cross terms sum_{i != k} |y_0ki|^2
    (., K), and sum_i |y_lki|^2 per cell (., L, K).  Realization r draws
    into row r, going on in run r // RUN's substream, which a block that
    ends inside the run hands on; the arithmetic runs once per block."""
    model = _link_model(cfg, gains)
    if realizations < 1:
        raise ConfigError(f"realizations must be >= 1, got {realizations}")
    _require_seed(seed)
    shared, own0 = model.shared, model.o
    other = ~shared
    mix = shared[:, None, None]
    o, q, c = own0[shared], model.q[shared], model.c[shared]
    co, cx = c * o, c * np.sqrt(o * q)      # g0^T conj(w) = co ||a||^2 + cx a^T conj(b)
    c2o, c2x, c2q = c * co, 2.0 * c * cx, c ** 2 * q
    c2q_other = model.c[other] ** 2 * model.q[other]
    P = cfg.P
    rounds = max(1, BLOCK // (cfg.L * cfg.M * cfg.K))

    def blocks():
        for start in range(0, realizations, rounds):
            count = min(rounds, realizations - start)
            norm_a = np.empty((count,) + o.shape)
            zeta = np.empty((count,) + o.shape + (2,))
            gamma_b = np.empty((count,) + o.shape)
            gamma_other = np.empty((count,) + c2q_other.shape)
            for row in range(count):
                run, step = divmod(start + row, RUN)
                if step == 0:
                    rng = np.random.default_rng(
                        np.random.SeedSequence(entropy=seed, spawn_key=(run,)))
                rng.standard_gamma(P, out=norm_a[row])
                rng.standard_normal(out=zeta[row])
                rng.standard_gamma(P - 1, out=gamma_b[row])
                rng.standard_gamma(P, out=gamma_other[row])
            zeta = zeta.view(np.complex128)[..., 0]
            zeta /= np.sqrt(2.0)
            ab = np.sqrt(norm_a) * zeta             # a^T conj(b)
            norm_b = zeta.real ** 2 + zeta.imag ** 2 + gamma_b
            wnorm = np.empty((count,) + own0.shape)
            wnorm[:, shared] = c2o * norm_a + c2x * ab.real + c2q * norm_b
            wnorm[:, other] = c2q_other * gamma_other
            per_rrh = wnorm.sum(axis=3)
            cross = (own0 * (per_rrh[..., None] - mix * wnorm)).sum(axis=2)
            y = (co * norm_a + cx * ab).sum(axis=2)
            power = y.real ** 2 + y.imag ** 2
            total = cross.copy()
            total[:, shared] += power
            yield (per_rrh.sum(axis=2), y[:, 0], power[:, 0], cross[:, 0],
                   total)

    return blocks()


def _batch_means(cfg: SystemConfig, realizations: int, seed: int,
                 gains: np.ndarray | None) -> list[np.ndarray]:
    """Means of the ``_statistics`` terms, summed in realization order: a
    running sum carried from block to block, never a pairwise sum."""
    sums = None
    for terms in _statistics(cfg, realizations, seed, gains):
        if sums is not None:
            for term, total in zip(terms, sums):
                term[0] += total
        sums = [np.add.accumulate(term)[-1] for term in terms]
    return [total / realizations for total in sums]


def _normalization(cfg: SystemConfig, wnorm: np.ndarray) -> np.ndarray:
    """Per-cell precoder normalization K / sum_{m,k} ||w_lmk||^2 from the
    batch means ``wnorm``; a norm that rounds to 0, or so near it that the
    quotient overflows, is a ConfigError, not an inf or NaN downstream."""
    with np.errstate(divide="ignore", over="ignore"):
        lam = cfg.K / wnorm
    if not np.isfinite(lam).all():
        raise ConfigError("beta, p_u and sigma2 take a cell's precoder norm "
                          "||w||^2 below the double range")
    return lam


def empirical_sinr_rate(cfg: SystemConfig, realizations: int, seed: int,
                        gains: np.ndarray | None = None
                        ) -> tuple[np.ndarray, float]:
    """Empirical per-user SINR (cell 0) and the cell spectral efficiency.

    Averages over ``realizations`` independent channel draws with per-cell
    power normalization estimated from the same batch.  Returns
    ``(sinr, se)``: sinr (K,), all > 0 or a ConfigError; se in bits/s/Hz.
    """
    wnorm, eff, eff2, sci, total = _batch_means(cfg, realizations, seed, gains)
    lam = _normalization(cfg, wnorm)
    var_eff = eff2 - np.abs(eff) ** 2
    ici = (lam[1:, None] * total[1:]).sum(axis=0)
    sinr = (lam[0] * np.abs(eff) ** 2
            / (lam[0] * var_eff + lam[0] * sci + ici + cfg.sigma2 / cfg.p_d))
    if not (sinr > 0.0).all():
        raise ConfigError("beta, p_u, p_d and sigma2 take an MC SINR to 0")
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
    wnorm = _batch_means(cfg, realizations, seed, gains)[0]
    own = _normalization(cfg, wnorm)        # checks wnorm for a given lam too
    return cfg.p_d / cfg.K * np.asarray(own if lam is None else lam) * wnorm


def empirical_ee(cfg: SystemConfig, pm: PowerModel, realizations: int,
                 seed: int) -> float:
    """Empirical energy efficiency (bits/Joule) at the configured p_d."""
    _, se = empirical_sinr_rate(cfg, realizations, seed)
    return _point_at_se(cfg, pm, se, cfg.n).ee


def relative_error(estimate: float, reference: float) -> float:
    """|estimate - reference| / reference; a reference that underflows to 0
    leaves no relative error to report: 0 if the two agree, else inf."""
    gap = abs(estimate - reference)
    return gap / reference if reference > 0.0 else 0.0 if gap == 0.0 else math.inf
