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
from .montecarlo import _link_model, steering_matrix


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
            n = R.shape[-1]
            firsts, inverse = _row_groups(R.reshape(-1, n * n))
            table, index = R.reshape(-1, n, n)[firsts], inverse.reshape(R.shape[:4])
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


def simplified_correlation_set(cfg: SystemConfig,
                               steering=None) -> CorrelationSet:
    """Rank-P correlation set of the averaged gain model.

    R_{lmjk} = beta_{lmjk} * (n/P) * A A^H with A = ``steering``, an (n, P)
    array (default ``steering_matrix(n, P)``).  Like the simulation, it
    needs n = d P and raises ConfigError otherwise.  The table holds one
    matrix per distinct gain (by exact bytes).
    """
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


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, inverse): the first row of each group of byte-equal rows of
    a 2-d array, ascending, and every row's group, by a dict of row bytes."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    seen = {}                     # row bytes -> index of its first holder
    holder = np.fromiter(map(seen.setdefault, keys.ravel().tolist(),
                             range(len(rows))), np.intp, len(rows))
    firsts = np.fromiter(seen.values(), np.intp, len(seen))
    return firsts, np.searchsorted(firsts, holder)


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
    noise sigma^2/(p_d n).  Cells with equal co-pilot links and own place
    among them, adjacent or not, share filters, R Q R and trace blocks, built
    for all distinct cells in one batched pass, in chunks of about 1 MB.
    """
    corr.validate()
    _check_scalars(p_d=p_d, p_u=p_u, tau_u=tau_u, sigma2=sigma2)
    table, index = corr.table, corr.index.astype(np.intp, copy=False)
    L, M, _, K = index.shape
    n, cells, G = corr.n, np.arange(L), L // corr.psi
    groups = cells[:, None] % corr.psi + np.arange(0, L, corr.psi)  # pilot_group(l)
    copilot = index[cells[:, None], :, groups].transpose(0, 2, 3, 1)  # (L, M, K, G)
    # cells of equal co-pilot links and own place among them share all factors
    reps, cell = _row_groups(np.column_stack([copilot.reshape(L, -1),
                                              cells // corr.psi]))
    # MMSE filters (sigma^2/(p_u tau_u) I + sum_{j in group(l)} R_{lmjk})^-1,
    # one per distinct co-pilot tuple, and R Q R per (own, filter) pair
    tuples = copilot[reps].reshape(-1, G)
    head, key = _row_groups(tuples)
    tuples, pairs = tuples[head], np.stack([index[reps, :, reps].ravel(), key], axis=-1)
    head, pair = _row_groups(pairs)
    pairs, pair, tr = pairs[head], pair.reshape(-1, M, K), np.empty(len(head))
    # blocks (l, j), at l * L + j, of equal (cell, co-pilot or not, links)
    # give equal terms; shares[l, j]: a cell j != l that shares l's pilots
    shares = (cells[:, None] % corr.psi == cells % corr.psi) & (cells[:, None] != cells)
    links = index.transpose(0, 2, 1, 3).reshape(L * L, M, K)
    firsts, block = _row_groups(np.column_stack(
        [cell.repeat(L), shares.ravel(), links.reshape(L * L, -1)]))
    owner, co = cell[firsts // L], shares.ravel()[firsts]
    cross, t = np.empty((len(firsts), K)), np.zeros((len(firsts), K), dtype=complex)
    # chunks of cells with about 2^16 complex entries (1 MB) of n x n matrices,
    # per tuple its G links, their sum, Q, R, RQ, phi and G - 1 products at most
    step = max(1, len(reps) * 2 ** 16 // (len(tuples) * (2 * G + 4) * n * n))
    for a in range(0, len(reps), step):
        ids, local = np.unique(pair[a:a + step], return_inverse=True)
        local = local.reshape(-1, M, K)
        filters, which = np.unique(pairs[ids, 1], return_inverse=True)
        Q = np.linalg.inv(sigma2 / (p_u * tau_u) * np.eye(n)
                          + table[tuples[filters]].sum(axis=1))
        R = table[pairs[ids, 0]]
        RQ = R @ Q[which]
        phi = RQ @ R
        del Q, R
        tr[ids] = np.einsum("gaa->g", phi).real
        psi_sum = [phi[p].sum(axis=1) for p in local]          # (M, n, n)
        span = np.flatnonzero((owner >= a) & (owner < a + step))
        # one product per distinct (pair, link), F at a time, gathered per block
        cop = span[co[span]]
        combos = np.stack([local[owner[cop] - a], links[firsts[cop]]],
                          axis=-1).reshape(-1, 2)
        head, combo = _row_groups(combos)
        combos = combos[head]
        prods, F = np.empty((len(combos), n, n), dtype=RQ.dtype), len(filters)
        for c in range(0, len(combos), F):
            np.matmul(RQ[combos[c:c + F, 0]], table[combos[c:c + F, 1]],
                      out=prods[c:c + F])
        for b in span:           # one (M, K, n, n) block alive at a time
            cross[b] = np.einsum("mkab,mba->k", table[links[firsts[b]]],
                                 psi_sum[owner[b] - a]).real
        for b, c in zip(cop, combo.reshape(-1, M, K)):
            t[b] = np.einsum("mkaa->k", prods[c]) / n
        del RQ, phi, prods           # before the next chunk's filter stacks
    tr_own = tr[pair[cell]]                                   # (L, M, K)
    cross, t = cross[block].reshape(L, L, K), t[block].reshape(L, L, K)
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
