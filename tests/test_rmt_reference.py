"""general_deterministic_sinr against a reference that factors every cell
anew and groups index rows with ``np.unique``: the same bytes on averaged
sets (up to the sizes of the model-checks rmt sets), on sets tiled from a
few random matrices, on near-miss sets whose consecutive cells differ in
one co-pilot link only, on sets where a cell repeats a non-adjacent
earlier cell, and on mirror sets whose co-pilot cells hold equal links."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dasee.config import PILOT_NOISE_MODES, SystemConfig  # noqa: E402
from dasee.rmt import (CorrelationSet, _check_scalars,  # noqa: E402
                       general_deterministic_sinr, simplified_correlation_set)


def _reference_filters(corr, l, p_u, tau_u, sigma2):
    """(Q, key) of cell l, its distinct co-pilot tuples by np.unique."""
    copilot = corr.index[l][:, corr.pilot_group(l)]          # (M, |group|, K)
    tuples, key = np.unique(copilot.swapaxes(1, 2).reshape(-1, copilot.shape[1]),
                            axis=0, return_inverse=True)
    filters = sigma2 / (p_u * tau_u) * np.eye(corr.n) + corr.table[tuples].sum(axis=1)
    return np.linalg.inv(filters), key.reshape(copilot.shape[0], -1)


def _reference_general_sinr(corr, p_d, p_u, tau_u, sigma2):
    """general_deterministic_sinr with every cell's filters, R Q R and
    trace blocks computed anew."""
    corr.validate()
    _check_scalars(p_d=p_d, p_u=p_u, tau_u=tau_u, sigma2=sigma2)
    table, index = corr.table, corr.index
    L, M, _, K = index.shape
    n = corr.n
    tr_own = np.empty((L, M, K))
    t = np.zeros((L, L, K), dtype=complex)   # t[l, j] = (1/n) sum_m tr Phi_{lmjk}
    cross = np.empty((L, L, K))              # sum_m tr(R_{lmjk} Psi_lm)
    for l in range(L):
        Q, key = _reference_filters(corr, l, p_u, tau_u, sigma2)
        # Own-link estimate covariances, once per distinct (own, filter) pair
        pairs, pair = np.unique(np.stack([index[l, :, l], key], axis=-1)
                                .reshape(-1, 2), axis=0, return_inverse=True)
        pair = pair.reshape(M, K)
        own = table[pairs[:, 0]]
        RQ = own @ Q[pairs[:, 1]]
        phi = RQ @ own
        tr_own[l] = np.einsum("gaa->g", phi).real[pair]
        psi_sum = phi[pair].sum(axis=1)                     # (M, n, n)
        group = corr.pilot_group(l)
        # Blocks of cell l's row with equal link indices give equal terms.
        terms = {}
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


def _divisors(L):
    return [psi for psi in range(1, L + 1) if L % psi == 0]


@st.composite
def _sets(draw):
    """(CorrelationSet, (p_d, p_u, tau_u, sigma2)) of one of six kinds,
    its sizes drawn uniformly from a seeded generator."""
    kind = draw(st.sampled_from(["averaged", "bench-size", "tiled", "near-miss",
                                 "non-adjacent", "mirror"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind in ("averaged", "bench-size"):
        # bench-size reaches the model-checks rmt sets (n 20, M 7, K 14),
        # where BLAS runs other kernels
        M, K, P = (8, 12, 4) if kind == "averaged" else (7, 14, 10)
        L, d = rng.integers(1, 8), rng.choice([1, 2])
        cfg = SystemConfig(L=int(L), M=int(rng.integers(1, M + 1)),
                           K=int(rng.integers(1, K + 1)),
                           n=int(d * rng.integers(1, P + 1)), d=int(d),
                           psi=int(rng.choice(_divisors(L))),
                           pilot_noise_mode=str(rng.choice(PILOT_NOISE_MODES)))
        return (simplified_correlation_set(cfg),
                (cfg.p_d, cfg.p_u, cfg.tau_u, cfg.sigma2))
    L = int(rng.integers({"tiled": 1, "non-adjacent": 3}.get(kind, 2), 5))
    M, K, n = (int(size) for size in rng.integers(1, 4, size=3))
    G = int(rng.integers(2, 4))      # Hermitian nonnegative-definite tiles
    X = rng.standard_normal((G, n, n)) + 1j * rng.standard_normal((G, n, n))
    table = X @ X.conj().swapaxes(-1, -2) / n
    index = rng.integers(G, size=(L, M, L, K))
    if kind == "tiled":
        psi = int(rng.choice(_divisors(L)))
    elif kind == "near-miss":
        # cells l - 1 and l hold one matrix per (m, k) on every link, but
        # for one co-pilot link of cell l
        psi = int(rng.choice(_divisors(L)[:-1]))            # psi < L
        l = int(rng.integers(1, L))
        index[l - 1] = index[l] = rng.integers(G, size=(M, 1, K))
        j = rng.choice([j for j in range(l % psi, L, psi) if j != l])
        m, k = rng.integers(M), rng.integers(K)
        index[l, m, j, k] = (index[l, m, j, k] + 1) % G
    elif kind == "mirror":
        # co-pilot cells l and l + psi hold equal links, so equal co-pilot
        # links, but each its own links at another place among them
        psi = int(rng.choice(_divisors(L)[:-1]))            # psi < L
        l = int(rng.integers(L - psi))
        index[l + psi] = index[l]
    else:
        # cell l2 repeats the own and co-pilot links of cell l0, and cell
        # l1 between them differs from both in its own links
        psi = int(rng.choice(_divisors(L)))
        l0 = int(rng.integers(L - 2))
        l2 = int(rng.integers(l0 + 2, L))
        l1 = int(rng.integers(l0 + 1, l2))
        group0, group2 = range(l0 % psi, L, psi), range(l2 % psi, L, psi)
        index[l0, :, group0[l2 // psi]] = index[l0, :, l0]
        index[l2][:, group2] = index[l0][:, group0]
        index[l1, :, l1] = (index[l0, :, l0] + 1) % G
    return (CorrelationSet(psi=psi, table=table, index=index),
            (1.0, 0.5, float(psi * K), float(rng.choice([1e-2, 1.0]))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_sets())
def test_general_sinr_bytes_equal_the_per_cell_reference(case):
    corr, args = case
    sinr = general_deterministic_sinr(corr, *args)
    assert sinr.tobytes() == _reference_general_sinr(corr, *args).tobytes()


def test_a_cell_repeated_across_chunks_matches_the_reference():
    # every link matrix distinct but cell 3 repeating cell 0 at psi = 7: the
    # pass takes one cell per chunk, and cell 0's chunk also owns the blocks
    # (3, j) of cell 3, which come after those of cells 1 and 2
    cfg = SystemConfig(L=7, M=7, K=14, n=20, d=2, psi=7)
    R = simplified_correlation_set(cfg).R
    rng = np.random.default_rng(0)
    R *= 1.0 + rng.uniform(0.0, 1e-3, R.shape[:4])[..., None, None]
    R[3, :, 3] = R[0, :, 0]
    corr = CorrelationSet(R=R, psi=cfg.psi)
    args = (cfg.p_d, cfg.p_u, cfg.tau_u, cfg.sigma2)
    assert (general_deterministic_sinr(corr, *args).tobytes()
            == _reference_general_sinr(corr, *args).tobytes())
