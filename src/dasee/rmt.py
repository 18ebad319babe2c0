"""General deterministic-equivalent SINR from per-link correlation matrices.

This is the matrix-valued path: arbitrary nonnegative-definite correlation
matrices R_{lmjk} per (RRH, user) link, MMSE estimation quality expressed
through the matrices Phi = R Q R, and the large-system SINR assembled from
their traces.  The closed forms in :mod:`dasee.asymptotic` are the special
case of rank-P correlation with the averaged gain model; building that
correlation set here and comparing is the library's internal cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


@dataclass(frozen=True)
class CorrelationSet:
    """Per-link correlation matrices plus the pilot-sharing structure.

    Parameters
    ----------
    R : np.ndarray
        Complex array of shape (L, M, L, K, n, n); entry [l, m, j, k] is the
        correlation matrix of the channel between RRH m of cell l and user k
        of cell j.  Each matrix must be Hermitian nonnegative-definite.
    psi : int
        Pilot reuse factor; cells l and j share pilots iff l % psi == j % psi.
    """

    R: np.ndarray
    psi: int

    @property
    def L(self) -> int:
        return self.R.shape[0]

    @property
    def n(self) -> int:
        return self.R.shape[4]

    def pilot_group(self, cell: int) -> np.ndarray:
        """Indices of the cells sharing cell's pilot set (cell included)."""
        cells = np.arange(self.L)
        return cells[cells % self.psi == cell % self.psi]

    def validate(self, tol: float = 1e-10) -> "CorrelationSet":
        """Check that R is nonempty, shaped, finite, Hermitian (to ``tol``)
        and nonnegative-definite; raise ValueError, else return self.

        A matrix passes the last check when its least eigenvalue is not
        below -delta, delta = tol * max(1, max|R|).  The test is a Cholesky
        factorization of R + delta I, which exists when that eigenvalue is
        above -delta; only where it fails are eigenvalues computed, to decide
        the boundary and word the error.  The scans run one cell block R[l]
        at a time.
        """
        if self.R.size == 0:
            raise ValueError("empty correlation set")
        if self.R.ndim != 6 or self.R.shape[2] != self.L or \
                self.R.shape[5] != self.n:
            raise ValueError(f"R must have shape (L, M, L, K, n, n), "
                             f"got {self.R.shape}")
        if self.L % self.psi != 0:
            raise ValueError("L not divisible by psi")
        herm_gap = scale = 0.0
        for block in self.R:
            if not np.isfinite(block).all():
                raise ValueError("correlation matrices have non-finite entries")
            herm_gap = max(herm_gap, np.abs(
                block - block.conj().swapaxes(-1, -2)).max())
            scale = max(scale, np.abs(block).max())
        if herm_gap > tol:
            raise ValueError(f"correlation matrices not Hermitian ({herm_gap:.2e})")
        delta = tol * max(1.0, scale)
        shift = delta * np.eye(self.n)
        try:
            for block in self.R:
                np.linalg.cholesky(block + shift)
        except np.linalg.LinAlgError:
            eigmin = np.linalg.eigvalsh(self.R.reshape(-1, self.n, self.n)).min()
            if eigmin < -delta:
                raise ValueError(f"correlation matrices not nonnegative-definite "
                                 f"({eigmin:.2e})") from None
        return self


def simplified_correlation_set(cfg: SystemConfig,
                               steering=None) -> CorrelationSet:
    """Rank-P correlation set of the averaged gain model.

    R_{lmjk} = beta_{lmjk} * (n/P) * A A^H with A = ``steering``, an (n, P)
    array (default ``steering_matrix(n, P)``).  Like the simulation, it
    needs n = d P and raises ConfigError otherwise.
    """
    # local import, avoids a cycle
    from .montecarlo import _link_model, steering_matrix
    gains = _link_model(cfg).gains
    A = steering_matrix(cfg.n, cfg.P) if steering is None else steering
    projector = A @ A.conj().T
    R = gains[..., None, None] * (cfg.d * projector)
    return CorrelationSet(R=R, psi=cfg.psi)


def _estimation_filters(corr: CorrelationSet, p_u: float, tau_u: float,
                        sigma2: float) -> np.ndarray:
    """Q_{lmlk} = (sigma^2/(p_u tau_u) I + sum_{j in group(l)} R_{lmjk})^-1."""
    L, M, _, K, n, _ = corr.R.shape
    Q = np.empty((L, M, K, n, n), dtype=complex)
    eye = np.eye(n)
    for l in range(L):
        group = corr.pilot_group(l)
        # sum over co-pilot cells -> (M, K, n, n)
        stacked = corr.R[l][:, group].sum(axis=1)
        Q[l] = np.linalg.inv(sigma2 / (p_u * tau_u) * eye + stacked)
    return Q


def phi_matrix(corr: CorrelationSet, l: int, m: int, k: int, p_u: float,
               tau_u: float, sigma2: float, j: int | None = None) -> np.ndarray:
    """Estimate covariance Phi_{lmlk} (j omitted) or cross term Phi_{lmjk}.

    Phi_{lmlk} = R_{lmlk} Q_{lmlk} R_{lmlk} is the covariance of the MMSE
    estimate of the own-cell channel; for a co-pilot cell j != l,
    Phi_{lmjk} = R_{lmlk} Q_{lmlk} R_{lmjk} couples the contaminated
    estimate to the co-pilot user's channel.
    """
    if j is None:
        j = l
    group = corr.pilot_group(l)
    if j not in group:
        raise ValueError(f"cell {j} does not share pilots with cell {l}")
    n = corr.n
    eye = np.eye(n)
    summed = corr.R[l, m, group, k].sum(axis=0)
    Q = np.linalg.inv(sigma2 / (p_u * tau_u) * eye + summed)
    return corr.R[l, m, l, k] @ Q @ corr.R[l, m, j, k]


def general_deterministic_sinr(corr: CorrelationSet, p_d: float, p_u: float,
                               tau_u: float, sigma2: float) -> np.ndarray:
    """Large-system per-user SINR for an arbitrary correlation set.

    Returns an (L, K) array.  The numerator for user (j, k) is
    lambda_bar_j * ((1/n) sum_m tr Phi_{jmjk})^2; the denominator collects
    the coherent co-pilot terms, the trace-product interference
    (1/n) sum_{l,m,i} lambda_bar_l (1/n) tr(R_{lmjk} Phi_{lmli}), and the
    noise sigma^2/(p_d n).
    """
    corr.validate()
    L, M, _, K, n, _ = corr.R.shape
    Q = _estimation_filters(corr, p_u, tau_u, sigma2)

    # Own-link estimate covariances and their aggregates.
    phi_own = np.empty((L, M, K, n, n), dtype=complex)
    for l in range(L):
        own = corr.R[l, :, l]                      # (M, K, n, n)
        phi_own[l] = own @ Q[l] @ own
    tr_own = np.einsum("lmkaa->lmk", phi_own).real          # (L, M, K)
    psi_sum = phi_own.sum(axis=2)                           # (L, M, n, n)
    lam_bar = 1.0 / (tr_own.sum(axis=1).mean(axis=1) / n)   # (L,)

    signal_trace = tr_own.sum(axis=1) / n                   # (L, K): user of cell l
    numerator = lam_bar[:, None] * signal_trace ** 2        # (L, K)

    # Trace-product interference: (1/n^2) sum_{l,m} lam_l tr(R_{lmjk} Psi_lm).
    cross = np.einsum("lmjkab,lmba->ljk", corr.R, psi_sum).real
    interference = np.einsum("l,ljk->jk", lam_bar, cross) / n ** 2

    # Coherent pilot-contamination terms from co-pilot cells l != j.
    pc = np.zeros((L, K))
    for j in range(L):
        for l in corr.pilot_group(j):
            if l == j:
                continue
            phi_cross = corr.R[l, :, l] @ Q[l] @ corr.R[l, :, j]  # (M, K, n, n)
            t = np.einsum("mkaa->k", phi_cross) / n
            pc[j] += lam_bar[l] * np.abs(t) ** 2

    denominator = pc + interference + sigma2 / (p_d * n)
    return numerator / denominator
