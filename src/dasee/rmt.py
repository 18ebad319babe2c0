"""General deterministic-equivalent SINR from per-link correlation matrices.

This is the matrix-valued path: arbitrary nonnegative-definite correlation
matrices R_{lmjk} per (RRH, user) link, MMSE estimation quality expressed
through the matrices Phi = R Q R, and the large-system SINR assembled from
their traces.  The closed forms in :mod:`dasee.asymptotic` are the special
case of rank-P correlation with the averaged gain model; building that
correlation set here and comparing is the library's internal cross-check.
"""
from __future__ import annotations

import math

import numpy as np

from .config import SystemConfig


class CorrelationSet:
    """Per-link correlation matrices plus the pilot-sharing structure.

    ``CorrelationSet(R, psi)`` factors R, a complex array of shape (L, M, L,
    K, n, n) whose entry [l, m, j, k] is the correlation matrix of the
    channel between RRH m of cell l and user k of cell j, into ``table``
    (G, n, n), its G distinct matrices (by exact bytes), and ``index`` (L,
    M, L, K), the place of every link's matrix in the table; a factored set
    may also be given as ``table=`` and ``index=``.  ``R`` rebuilds the full
    array on demand.  Cells l and j share pilots iff l % psi == j % psi.
    Each matrix must be Hermitian nonnegative-definite (see ``validate``).
    """

    def __init__(self, R: np.ndarray | None = None, psi: int | None = None, *,
                 table: np.ndarray | None = None,
                 index: np.ndarray | None = None):
        if R is not None:
            R = np.asarray(R)
            if R.size == 0:
                raise ValueError("empty correlation set")
            if R.ndim != 6 or R.shape[2] != R.shape[0] or \
                    R.shape[5] != R.shape[4]:
                raise ValueError(f"R must have shape (L, M, L, K, n, n), "
                                 f"got {R.shape}")
            fresh, inverse = _distinct(R)
            table, index = R[fresh], inverse.reshape(R.shape[:4])
        self.table, self.index = np.asarray(table), np.asarray(index)
        self.psi = psi

    @property
    def R(self) -> np.ndarray:
        """The full (L, M, L, K, n, n) array, built anew on each access."""
        return self.table[self.index]

    @property
    def L(self) -> int:
        return self.index.shape[0]

    @property
    def n(self) -> int:
        return self.table.shape[-1]

    def pilot_group(self, cell: int) -> np.ndarray:
        """Indices of the cells sharing cell's pilot set (cell included)."""
        cells = np.arange(self.L)
        return cells[cells % self.psi == cell % self.psi]

    def validate(self, tol: float = 1e-10) -> "CorrelationSet":
        """Check that psi is a positive integer dividing L and that every
        matrix is finite, Hermitian (to ``tol``) and nonnegative-definite;
        raise ValueError, else return self.

        A matrix passes the last check when its least eigenvalue is not
        below -delta, delta = tol * max(1, max|R|).  The test is a Cholesky
        factorization of R + delta I, which exists when that eigenvalue is
        above -delta; only where it fails are eigenvalues computed, to decide
        the boundary and word the error.  The checks run on the table, so a
        repeated matrix costs one check, in chunks of about 1 MB.
        """
        table, index = self.table, self.index
        shaped = (table.ndim == 3 and table.size > 0
                  and table.shape[1] == table.shape[2] and index.ndim == 4
                  and index.size > 0 and index.shape[2] == index.shape[0]
                  and np.issubdtype(index.dtype, np.integer))
        if not (shaped and 0 <= index.min() and index.max() < len(table)):
            raise ValueError(f"table must be (G, n, n) and index (L, M, L, K) "
                             f"into it, got {table.shape} and {index.shape}")
        if not isinstance(self.psi, (int, np.integer)) or self.psi < 1:
            raise ValueError(f"psi must be a positive integer, got {self.psi!r}")
        if self.L % self.psi != 0:
            raise ValueError("L not divisible by psi")
        step = max(1, 2 ** 16 // self.n ** 2)
        chunks = [table[i:i + step] for i in range(0, len(table), step)]
        herm_gap = scale = 0.0
        for chunk in chunks:
            if not np.isfinite(chunk).all():
                raise ValueError("correlation matrices have non-finite entries")
            herm_gap = max(herm_gap, np.abs(
                chunk - chunk.conj().swapaxes(-1, -2)).max())
            scale = max(scale, np.abs(chunk).max())
        if herm_gap > tol:
            raise ValueError(f"correlation matrices not Hermitian ({herm_gap:.2e})")
        delta = tol * max(1.0, scale)
        shift = delta * np.eye(self.n)
        try:
            for chunk in chunks:
                np.linalg.cholesky(chunk + shift)
        except np.linalg.LinAlgError:
            eigmin = np.linalg.eigvalsh(table).min()
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
    needs n = d P and raises ConfigError otherwise.  The table holds one
    matrix per distinct gain (by exact bytes).
    """
    # local import, avoids a cycle
    from .montecarlo import _link_model, steering_matrix
    gains = _link_model(cfg).gains
    A = steering_matrix(cfg.n, cfg.P) if steering is None else steering
    if A.shape != (cfg.n, cfg.P):
        raise ValueError(f"steering matrix shape {A.shape} does not match "
                         f"(n, P) = ({cfg.n}, {cfg.P})")
    words, index = np.unique(gains.view(np.int64), return_inverse=True)
    table = words.view(gains.dtype)[:, None, None] * (cfg.d * (A @ A.conj().T))
    return CorrelationSet(psi=cfg.psi, table=table,
                          index=index.reshape(gains.shape))


def _check_scalars(**scalars: float) -> None:
    for name, value in scalars.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` of a 2-d integer
    array: its distinct rows in lexicographic order and the place of every
    row among them, by a stable sort and a compare of adjacent rows."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return ranked[fresh], inverse


def _estimation_filters(corr: CorrelationSet, l: int, p_u: float, tau_u: float,
                        sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """(Q, key) of cell l: Q (F, n, n) its distinct MMSE filters
    (sigma^2/(p_u tau_u) I + sum_{j in group(l)} R_{lmjk})^-1, one per
    distinct co-pilot index tuple, and key (M, K) the filter of each (m, k)."""
    copilot = corr.index[l][:, corr.pilot_group(l)]          # (M, |group|, K)
    tuples, key = _unique_rows(copilot.swapaxes(1, 2).reshape(-1, copilot.shape[1]))
    filters = sigma2 / (p_u * tau_u) * np.eye(corr.n) + corr.table[tuples].sum(axis=1)
    return np.linalg.inv(filters), key.reshape(copilot.shape[0], -1)


def phi_matrix(corr: CorrelationSet, l: int, m: int, k: int, p_u: float,
               tau_u: float, sigma2: float, j: int | None = None) -> np.ndarray:
    """Estimate covariance Phi_{lmlk} (j omitted) or cross term Phi_{lmjk}.

    Phi_{lmlk} = R_{lmlk} Q_{lmlk} R_{lmlk} is the covariance of the MMSE
    estimate of the own-cell channel; for a co-pilot cell j != l,
    Phi_{lmjk} = R_{lmlk} Q_{lmlk} R_{lmjk} couples the contaminated
    estimate to the co-pilot user's channel.
    """
    corr.validate()
    _check_scalars(p_u=p_u, tau_u=tau_u, sigma2=sigma2)
    if j is None:
        j = l
    L, M, _, K = corr.index.shape
    for name, value, size in (("l", l, L), ("m", m, M), ("k", k, K), ("j", j, L)):
        if not (isinstance(value, (int, np.integer)) and 0 <= value < size):
            raise ValueError(f"{name} must be an index in range({size}), "
                             f"got {value!r}")
    group = corr.pilot_group(l)
    if j not in group:
        raise ValueError(f"cell {j} does not share pilots with cell {l}")
    table, links = corr.table, corr.index[l, m, :, k]
    summed = table[links[group]].sum(axis=0)
    Q = np.linalg.inv(sigma2 / (p_u * tau_u) * np.eye(corr.n) + summed)
    return table[links[l]] @ Q @ table[links[j]]


def general_deterministic_sinr(corr: CorrelationSet, p_d: float, p_u: float,
                               tau_u: float, sigma2: float) -> np.ndarray:
    """Large-system per-user SINR for an arbitrary correlation set.

    Returns an (L, K) array.  The numerator for user (j, k) is
    lambda_bar_j * ((1/n) sum_m tr Phi_{jmjk})^2; the denominator collects
    the coherent co-pilot terms, the trace-product interference
    (1/n) sum_{l,m,i} lambda_bar_l (1/n) tr(R_{lmjk} Phi_{lmli}), and the
    noise sigma^2/(p_d n).  A cell whose own and co-pilot links repeat the
    previous cell's reuses that cell's filters, R Q R and trace blocks; at
    most one cell's factors are alive at a time.
    """
    corr.validate()
    _check_scalars(p_d=p_d, p_u=p_u, tau_u=tau_u, sigma2=sigma2)
    table, index = corr.table, corr.index
    L, M, _, K = index.shape
    n = corr.n
    tr_own = np.empty((L, M, K))
    t = np.zeros((L, L, K), dtype=complex)   # t[l, j] = (1/n) sum_m tr Phi_{lmjk}
    cross = np.empty((L, L, K))              # sum_m tr(R_{lmjk} Psi_lm)
    factored = None          # own and co-pilot links of the factored cell
    for l in range(L):
        group = corr.pilot_group(l)
        cell = (index[l, :, l].tobytes(), index[l][:, group].tobytes())
        if cell != factored:     # else the previous cell's factors hold for l
            factored = cell
            Q, key = _estimation_filters(corr, l, p_u, tau_u, sigma2)
            # Own-link estimate covariances, one per (own, filter) pair
            pairs, pair = _unique_rows(np.stack([index[l, :, l], key], axis=-1)
                                       .reshape(-1, 2))
            pair = pair.reshape(M, K)
            own = table[pairs[:, 0]]
            RQ = own @ Q[pairs[:, 1]]
            phi = RQ @ own
            tr = np.einsum("gaa->g", phi).real[pair]
            psi_sum = phi[pair].sum(axis=1)                 # (M, n, n)
            # Blocks of a row with equal link indices give equal terms.
            terms = {}
        tr_own[l] = tr
        for j in range(L):
            links = index[l, :, j]
            block = (links.tobytes(), j != l and j in group)
            if block not in terms:
                R_lj = table[links]                          # (M, K, n, n)
                terms[block] = (np.einsum("mkab,mba->k", R_lj, psi_sum).real,
                                np.einsum("mkaa->k", RQ[pair] @ R_lj) / n
                                if block[1] else 0.0)
                del R_lj                 # one (M, K, n, n) block alive at a time
            cross[l, j], t[l, j] = terms[block]
    lam_bar = 1.0 / (tr_own.sum(axis=1).mean(axis=1) / n)   # (L,)

    signal_trace = tr_own.sum(axis=1) / n                   # (L, K): user of cell l
    numerator = lam_bar[:, None] * signal_trace ** 2        # (L, K)

    # Trace-product interference: (1/n^2) sum_{l,m} lam_l tr(R_{lmjk} Psi_lm).
    interference = np.einsum("l,ljk->jk", lam_bar, cross) / n ** 2

    # Coherent pilot-contamination terms from co-pilot cells l != j (t is 0
    # elsewhere).
    pc = (lam_bar[:, None, None] * np.abs(t) ** 2).sum(axis=0)

    denominator = pc + interference + sigma2 / (p_d * n)
    return numerator / denominator
