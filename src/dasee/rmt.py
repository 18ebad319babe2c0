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
        the boundary and word the error.  Each distinct matrix (by exact
        bytes) is checked once, so a repeated matrix costs one check.
        """
        if self.R.size == 0:
            raise ValueError("empty correlation set")
        if self.R.ndim != 6 or self.R.shape[2] != self.L or \
                self.R.shape[5] != self.n:
            raise ValueError(f"R must have shape (L, M, L, K, n, n), "
                             f"got {self.R.shape}")
        if self.L % self.psi != 0:
            raise ValueError("L not divisible by psi")
        fresh, _ = _distinct(self.R)

        def blocks():  # the distinct matrices of each cell block R[l], if any
            for block, own in zip(self.R, fresh):
                if own.any():
                    yield block if own.all() else block[own]
        herm_gap = scale = 0.0
        for block in blocks():
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
            for block in blocks():
                np.linalg.cholesky(block + shift)
        except np.linalg.LinAlgError:
            eigmin = min(np.linalg.eigvalsh(block).min() for block in blocks())
            if eigmin < -delta:
                raise ValueError(f"correlation matrices not nonnegative-definite "
                                 f"({eigmin:.2e})") from None
        return self


def _distinct(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fresh, inverse) of the (n, n) matrices of ``stack`` grouped by exact
    bytes: fresh marks each group's first matrix, inverse maps every matrix
    (C order) to its group's place among them.  The key is the first row; a
    matrix unequal to its key's first holder, compared in full one
    ``stack[b]`` at a time, is a group of its own."""
    rows = stack[..., 0, :].reshape(-1, stack.shape[-1])
    seen = {}                     # first row's bytes -> index of its first holder
    rep = np.array([seen.setdefault(row.tobytes(), i) for i, row in enumerate(rows)])
    size = len(rep) // len(stack)
    word = f"i{np.gcd(8, rows[0].nbytes)}"      # compare bytes as integers
    for b, block in enumerate(stack):
        span = np.arange(b * size, (b + 1) * size)
        if (rep[span] != span).any():
            ref = stack[np.unravel_index(rep[span], stack.shape[:-2])]
            same = (np.ascontiguousarray(block).reshape(size, -1).view(word)
                    == ref.reshape(size, -1).view(word)).all(axis=1)
            rep[span[~same]] = span[~same]
    fresh = rep == np.arange(len(rep))
    return fresh.reshape(stack.shape[:-2]), (np.cumsum(fresh) - 1)[rep]


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
    if A.shape != (cfg.n, cfg.P):
        raise ValueError(f"steering matrix shape {A.shape} does not match "
                         f"(n, P) = ({cfg.n}, {cfg.P})")
    projector = A @ A.conj().T
    R = gains[..., None, None] * (cfg.d * projector)
    return CorrelationSet(R=R, psi=cfg.psi)


def _estimation_filters(corr: CorrelationSet, p_u: float, tau_u: float,
                        sigma2: float) -> np.ndarray:
    """Q_{lmlk} = (sigma^2/(p_u tau_u) I + sum_{j in group(l)} R_{lmjk})^-1."""
    L, M, _, K, n, _ = corr.R.shape
    Q = np.empty((L, M * K, n, n), dtype=complex)
    eye = np.eye(n)
    for l in range(L):
        group = corr.pilot_group(l)
        # the loading plus the sum over co-pilot cells -> (M, K, n, n)
        filters = sigma2 / (p_u * tau_u) * eye + corr.R[l][:, group].sum(axis=1)
        fresh, inverse = _distinct(filters)     # invert each distinct one once
        Q[l] = np.linalg.inv(filters[fresh])[inverse]
    return Q.reshape(L, M, K, n, n)


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

    # Own-link estimate covariances and their aggregates; the same R_l Q_l
    # gives the co-pilot traces t[l, j] = (1/n) sum_m tr Phi_{lmjk}.
    phi_own = np.empty((L, M, K, n, n), dtype=complex)
    t = np.zeros((L, L, K), dtype=complex)
    for l in range(L):
        own = corr.R[l, :, l]                      # (M, K, n, n)
        RQ = own @ Q[l]
        phi_own[l] = RQ @ own
        for j in corr.pilot_group(l):
            if j != l:
                t[l, j] = np.einsum("mkaa->k", RQ @ corr.R[l, :, j]) / n
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
            if l != j:
                pc[j] += lam_bar[l] * np.abs(t[l, j]) ** 2

    denominator = pc + interference + sigma2 / (p_d * n)
    return numerator / denominator
