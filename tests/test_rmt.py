import hashlib
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import dasee
from dasee import rmt
from dasee.asymptotic import deterministic_sinr, large_scale_gains
from dasee.config import ConfigError, SystemConfig, derived_scalars
from dasee.montecarlo import steering_matrix
from dasee.rmt import (CorrelationSet, general_deterministic_sinr, phi_matrix,
                       simplified_correlation_set)

# the two sets of the rmt cross-check ops in bench/workloads.py
RMT_CONFIGS = (SystemConfig(L=7, M=5, K=10, n=16),
               SystemConfig(L=7, M=7, K=14, n=20, d=2, psi=7))


def scalar_correlation_set(n=6, c=0.7):
    R = np.zeros((1, 1, 1, 1, n, n), dtype=complex)
    R[0, 0, 0, 0] = c * np.eye(n)
    return CorrelationSet(R=R, psi=1)


def test_phi_scalar_matrices_commute():
    n, c, p_u, tau_u, sigma2 = 6, 0.7, 2.0, 8.0, 0.3
    corr = scalar_correlation_set(n, c)
    phi = phi_matrix(corr, 0, 0, 0, p_u, tau_u, sigma2)
    expected = c ** 2 / (sigma2 / (p_u * tau_u) + c) * np.eye(n)
    assert np.allclose(phi, expected, rtol=1e-12)


def test_phi_perfect_estimation_limit():
    # lone pilot-sharing cell, p_u -> inf: Phi -> R on the range of R
    cfg = SystemConfig(L=1, M=1, K=1, n=8, d=2, psi=1)
    corr = simplified_correlation_set(cfg)
    phi = phi_matrix(corr, 0, 0, 0, p_u=1e12, tau_u=cfg.tau_u, sigma2=cfg.sigma2)
    assert np.allclose(phi, corr.R[0, 0, 0, 0], rtol=1e-6)


def test_phi_cross_term_coefficient():
    # co-pilot cross term at the serving RRH: M^(iota/2)*a2*beta^2*d*nu1 * A A^H
    cfg = SystemConfig(M=4, K=4, n=12, d=2, psi=1)
    steering = steering_matrix(cfg.n, cfg.P)
    corr = simplified_correlation_set(cfg, steering=steering)
    ds = derived_scalars(cfg)
    k = 1
    serving = k % cfg.M
    phi = phi_matrix(corr, 1, serving, k, cfg.p_u, cfg.tau_u, cfg.sigma2, j=0)
    projector = steering @ steering.conj().T
    coeff = cfg.M ** (cfg.iota / 2) * cfg.alpha2 * cfg.beta ** 2 * cfg.d * ds.nu1
    assert np.allclose(phi, coeff * projector, rtol=1e-10)
    # non-serving RRH: alpha1*alpha2*beta^2*d*nu2 * A A^H
    other = (serving + 1) % cfg.M
    phi2 = phi_matrix(corr, 1, other, k, cfg.p_u, cfg.tau_u, cfg.sigma2, j=0)
    coeff2 = cfg.alpha1 * cfg.alpha2 * cfg.beta ** 2 * cfg.d * ds.nu2
    assert np.allclose(phi2, coeff2 * projector, rtol=1e-10)


def test_phi_rejects_non_copilot_cell():
    cfg = SystemConfig(L=4, M=2, K=2, n=8, psi=2)
    corr = simplified_correlation_set(cfg)
    with pytest.raises(ValueError, match="share pilots"):
        phi_matrix(corr, 0, 0, 0, cfg.p_u, cfg.tau_u, cfg.sigma2, j=1)


@pytest.mark.parametrize("cfg", [
    SystemConfig(L=7, M=5, K=10, n=16, d=1, psi=1),
    SystemConfig(L=7, M=5, K=10, n=16, d=2, psi=7),
    SystemConfig(L=4, M=2, K=6, n=12, d=3, psi=2, alpha2=0.2),
    SystemConfig(L=7, M=7, K=14, n=20, d=1, psi=1),
    SystemConfig(L=1, M=4, K=8, n=16, d=2, psi=1),
], ids=["pc", "orthogonal", "partial-reuse", "full-model", "single-cell"])
def test_general_path_matches_closed_form(cfg):
    # evenly loaded RRHs (M divides K): the averaged model is exact
    corr = simplified_correlation_set(cfg)
    sinr = general_deterministic_sinr(corr, cfg.p_d, cfg.p_u, cfg.tau_u,
                                      cfg.sigma2)
    assert sinr.shape == (cfg.L, cfg.K)
    closed = deterministic_sinr(cfg)
    assert np.abs(sinr / closed - 1.0).max() < 1e-10


def test_correlation_set_needs_whole_steering_columns():
    cfg = SystemConfig(L=3, M=2, K=4, d=2, psi=1)
    with pytest.raises(ConfigError, match="n not divisible by d"):
        simplified_correlation_set(cfg.replace(n=15))
    for n in (14, 16):
        point = cfg.replace(n=n)
        sinr = general_deterministic_sinr(simplified_correlation_set(point),
                                          point.p_d, point.p_u, point.tau_u,
                                          point.sigma2)
        assert np.abs(sinr / deterministic_sinr(point) - 1.0).max() < 1e-9


def test_single_cell_single_user_collapse():
    cfg = SystemConfig(L=1, M=1, K=1, n=10, d=2, psi=1)
    corr = simplified_correlation_set(cfg)
    sinr = general_deterministic_sinr(corr, cfg.p_d, cfg.p_u, cfg.tau_u,
                                      cfg.sigma2)[0, 0]
    phi = phi_matrix(corr, 0, 0, 0, cfg.p_u, cfg.tau_u, cfg.sigma2)
    n = cfg.n
    tr = np.trace(phi).real / n
    lam = 1.0 / tr
    expected = lam * tr ** 2 / (
        lam * np.trace(corr.R[0, 0, 0, 0] @ phi).real / n ** 2
        + cfg.sigma2 / (cfg.p_d * n))
    assert np.isclose(sinr, expected, rtol=1e-12)


def test_general_sinr_monotone_in_power():
    cfg = SystemConfig(L=4, M=2, K=4, n=8, psi=2)
    corr = simplified_correlation_set(cfg)
    low = general_deterministic_sinr(corr, 1.0, cfg.p_u, cfg.tau_u, cfg.sigma2)
    high = general_deterministic_sinr(corr, 2.0, cfg.p_u, cfg.tau_u, cfg.sigma2)
    assert (high > low).all()


def test_validation_rejects_bad_sets():
    cfg = SystemConfig(L=2, M=2, K=2, n=6, psi=1)
    corr = simplified_correlation_set(cfg)
    skewed = corr.R.copy()
    skewed[0, 0, 0, 0, 0, 1] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        CorrelationSet(R=skewed, psi=1).validate()
    indefinite = corr.R.copy()
    indefinite[0, 0, 0, 0] -= 2 * np.abs(indefinite[0, 0, 0, 0]).max() * np.eye(6)
    with pytest.raises(ValueError, match="nonnegative"):
        CorrelationSet(R=indefinite, psi=1).validate()
    for bad in (np.nan, np.inf):
        broken = corr.R.copy()
        broken[1, 0, 1, 1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            CorrelationSet(R=broken, psi=1).validate()
    with pytest.raises(ValueError, match="empty|shape"):
        general_deterministic_sinr(
            CorrelationSet(R=np.zeros((0, 0, 0, 0, 0, 0), complex), psi=1),
            1.0, 1.0, 1.0, 1.0)


def _with_block(block, scale=1.0):
    """The L = M = K = 2 set scaled by ``scale``, with R[1, 1, 0, 1] = block."""
    cfg = SystemConfig(L=2, M=2, K=2, n=6, psi=1)
    R = simplified_correlation_set(cfg).R * scale
    R[1, 1, 0, 1] = block
    return CorrelationSet(R=R, psi=1)


@pytest.mark.parametrize("scale", [1.0, 1e9])
def test_validation_boundary_is_minus_delta(scale):
    # delta = tol * max(1, max|R|): a least eigenvalue of -2 delta fails with
    # the least eigenvalue of the whole set in the message, -delta/2 passes
    tol = 1e-10
    delta = tol * max(1.0, np.abs(_with_block(0.0, scale).R).max())
    v = np.arange(1, 7) + 1j * np.arange(6, 0, -1)
    rank_one = np.outer(v, v.conj()) / np.vdot(v, v).real
    rejected = _with_block(-2.0 * delta * rank_one, scale)
    eigmin = np.linalg.eigvalsh(rejected.R.reshape(-1, 6, 6)).min()
    assert eigmin == pytest.approx(-2.0 * delta, rel=1e-6)
    with pytest.raises(ValueError) as exc:
        rejected.validate(tol)
    assert str(exc.value) == (f"correlation matrices not nonnegative-definite "
                              f"({eigmin:.2e})")
    accepted = _with_block(-0.5 * delta * rank_one, scale)
    assert accepted.validate(tol) is accepted
    # exactly -delta: R + delta I is singular, so the Cholesky factorization
    # fails, but -delta is not below -delta and the set passes
    edge = _with_block(-delta * np.eye(6), scale)
    assert np.linalg.eigvalsh(edge.R[1, 1, 0, 1]).min() == -delta
    assert edge.validate(tol) is edge


def test_validation_accepts_rank_deficient_sets():
    # d = 2: every R is beta (n/P) A A^H of rank P = n/2, half its
    # eigenvalues zero up to rounding
    corr = simplified_correlation_set(SystemConfig(L=7, M=7, K=14, n=20, d=2,
                                                   psi=7))
    assert np.linalg.eigvalsh(corr.R[0, 0, 0, 0]).min() < 1e-20
    assert corr.validate() is corr


def test_correlation_set_rejects_a_misshaped_steering_matrix():
    # (n, P) = (16, 8): a (16, 4) basis once gave SINR[0, 0] = 1.320 instead
    # of 2.634, and a (12, 8) one built 12 x 12 matrices for n = 16
    cfg = SystemConfig(L=2, M=2, K=2, n=16, d=2, psi=1, p_u=1.0)
    for shape in ((16, 4), (12, 8)):
        with pytest.raises(ValueError, match=re.escape(
                f"steering matrix shape {shape} does not match (n, P) = (16, 8)")):
            simplified_correlation_set(cfg, steering=np.ones(shape, complex))
    corr = simplified_correlation_set(cfg, steering=steering_matrix(16, 8))
    sinr = general_deterministic_sinr(corr, cfg.p_d, cfg.p_u, cfg.tau_u,
                                      cfg.sigma2)
    assert sinr[0, 0] == pytest.approx(2.634, abs=1e-3)


# First 16 hex digits of the sha256 of general_deterministic_sinr's bytes,
# recorded before validation and the filters skipped repeated matrices.
PINNED_SINR = {RMT_CONFIGS[0]: "bf97fcbfa7eb9481",
               RMT_CONFIGS[1]: "67e46afa02f0130d",
               SystemConfig(L=4, M=2, K=6, n=12, d=3, psi=2, alpha2=0.2):
                   "ec225e53d2d3b3a4"}


@pytest.mark.parametrize("cfg", list(PINNED_SINR))
def test_general_sinr_bytes_are_pinned(cfg):
    sinr = general_deterministic_sinr(simplified_correlation_set(cfg), cfg.p_d,
                                      cfg.p_u, cfg.tau_u, cfg.sigma2)
    assert hashlib.sha256(sinr.tobytes()).hexdigest()[:16] == PINNED_SINR[cfg]


def test_constructor_groups_matrices_by_exact_bytes():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    stack = base[[0, 1, 0, 2, 1, 0, 2, 2]].reshape(2, 4, 4, 4)
    stack[1, 1, 2, 3] += 1e-9j       # same first row as base[0], one entry off
    stack[0, 3, 1, 1] = np.nan       # NaN copies with equal bytes group together
    stack[1, 2] = stack[0, 3]        # and apart from base[2], same first row
    corr = CorrelationSet(R=stack.reshape(2, 1, 2, 2, 4, 4), psi=1)
    assert corr.index.ravel().tolist() == [0, 1, 0, 2, 1, 3, 2, 4]
    assert corr.table.tobytes() == stack.reshape(8, 4, 4)[[0, 1, 3, 5, 7]].tobytes()
    assert corr.R.tobytes() == stack.tobytes()
    zero = np.zeros((1, 1, 1, 2, 3, 3))
    zero[0, 0, 0, 1, 2, 2] = -0.0    # equal values, different bytes
    assert len(CorrelationSet(R=zero, psi=1).table) == 2
    # A, B, B, B with B sharing A's first row: a first-row key compared each
    # B with A alone and stored it apart
    A, B = base[0], base[0].copy()
    B[1:] = base[1, 1:]
    assert len(CorrelationSet(R=np.stack([A, B, B, B])[None, None, None],
                              psi=1).table) == 2
    # diag(1, g/g_max, ...) of the (7, 5, 10, 16) gains: 3 distinct matrices
    # that share the first row [1, 0, ...], which a first-row key stored as
    # 2,381
    cfg = RMT_CONFIGS[0]
    gains = large_scale_gains(cfg)
    words, index = np.unique(gains, return_inverse=True)
    scale = np.ones((len(words), cfg.n))
    scale[:, 1:] = (words / words.max())[:, None]
    factored = CorrelationSet(psi=cfg.psi, table=scale[:, :, None] * np.eye(cfg.n),
                              index=index.reshape(gains.shape))
    full = CorrelationSet(R=factored.R, psi=cfg.psi)
    assert len(full.table) == 3
    args = (cfg.p_d, cfg.p_u, cfg.tau_u, cfg.sigma2)
    assert (general_deterministic_sinr(full, *args).tobytes()
            == general_deterministic_sinr(factored, *args).tobytes())


def test_row_groups_groups_rows_by_bytes():
    # on random tables of up to 7 columns, on values of 2^21 and more, where
    # a mixed-radix int64 key of 3 or more columns overflows, on 2^62, on a
    # single row and on no row
    rng = np.random.default_rng(21)
    tables = [rng.integers(low, high, size=(int(rng.integers(1, 60)), cols))
              for cols in range(1, 8) for low, high in ((0, 3), (-5, 40))]
    tables += [rng.integers(2 ** 21, 2 ** 21 + 3, size=(50, cols))
               for cols in (3, 7)]
    tables += [rng.choice([0, 2 ** 40, 2 ** 62], size=(40, 4)),
               np.array([[2 ** 21, 0, 7]]), np.zeros((0, 2), dtype=np.intp)]
    for rows in tables:
        firsts, inverse = rmt._row_groups(rows)
        assert (np.diff(firsts) > 0).all()
        assert len({row.tobytes() for row in rows[firsts]}) == len(firsts)
        assert rows[firsts][inverse].tobytes() == rows.tobytes()
        assert inverse.dtype == np.intp
        assert len(firsts) == len(np.unique(rows, axis=0))


def _broken_copy(how):
    """The averaged (7, 5, 10, 16) set with one repeated matrix broken."""
    R = simplified_correlation_set(RMT_CONFIGS[0]).R.copy()
    target = R[3, 2, 5, 7]           # a repeat of the cross-cell matrix
    if how == "nan":
        target[2, 3] = np.nan
    elif how == "skew":
        target[4, 1] += 1e-3
    else:       # push one eigenvalue of g I to about -2 delta, first row kept
        delta = 1e-10 * max(1.0, np.abs(R).max())
        v = np.arange(16) + 1j * np.arange(16, 0, -1)
        v[0] = 0.0
        v /= np.linalg.norm(v)
        g = np.vdot(v, target @ v).real
        target -= (g + 2.0 * delta) * np.outer(v, v.conj())
    return CorrelationSet(R=R, psi=1)


@pytest.mark.parametrize("how", ["nan", "skew", "rank-one"])
def test_validation_finds_one_bad_copy_among_repeats(how):
    corr = _broken_copy(how)
    R, n = corr.R, corr.n
    if how == "nan":
        expected = "correlation matrices have non-finite entries"
    elif how == "skew":
        gap = np.abs(R - R.conj().swapaxes(-1, -2)).max()
        expected = f"correlation matrices not Hermitian ({gap:.2e})"
    else:
        eigmin = np.linalg.eigvalsh(R.reshape(-1, n, n)).min()
        expected = f"correlation matrices not nonnegative-definite ({eigmin:.2e})"
    with pytest.raises(ValueError) as exc:
        corr.validate()
    assert str(exc.value) == expected


def _counting(monkeypatch, name):
    """Count the matrices that rmt hands to np.linalg.<name>."""
    seen = []
    real = getattr(rmt.np.linalg, name)

    def counted(a, *args, **kwargs):
        seen.append(a.size // a.shape[-1] ** 2)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(rmt.np.linalg, name, counted)
    return seen


def test_repeated_matrices_are_factored_and_inverted_once(monkeypatch):
    cfg = RMT_CONFIGS[1]
    corr = simplified_correlation_set(cfg)
    rng = np.random.default_rng(0)
    scale = 1.0 + rng.uniform(0.0, 1e-3, corr.R.shape[:4])
    perturbed = CorrelationSet(R=corr.R * scale[..., None, None], psi=cfg.psi)
    factored = _counting(monkeypatch, "cholesky")
    inverted = _counting(monkeypatch, "inv")
    assert corr.validate() is corr and sum(factored) == 3
    factored.clear()
    assert perturbed.validate() is perturbed and sum(factored) == 4802
    # psi = L: one filter per (l, m, k); serving and other RRHs differ, and
    # every cell repeats cell 0's own and co-pilot links, so cell 0's two
    # filters serve all cells
    general_deterministic_sinr(corr, cfg.p_d, cfg.p_u, cfg.tau_u, cfg.sigma2)
    assert sum(inverted) == 2
    inverted.clear()
    general_deterministic_sinr(perturbed, cfg.p_d, cfg.p_u, cfg.tau_u,
                               cfg.sigma2)
    assert sum(inverted) == cfg.L * cfg.M * cfg.K


@pytest.mark.parametrize("psi", [0, -1, 1.0, None])
def test_validation_rejects_a_psi_that_is_not_a_positive_integer(psi):
    # psi = 0 once raised ZeroDivisionError and psi = -1 passed as full reuse
    R = simplified_correlation_set(SystemConfig(L=2, M=2, K=2, n=6, psi=1)).R
    corr = CorrelationSet(R=R, psi=psi)
    message = f"psi must be a positive integer, got {psi!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        corr.validate()
    with pytest.raises(ValueError, match=re.escape(message)):
        general_deterministic_sinr(corr, 1.0, 1.0, 1.0, 1.0)


def test_validation_rejects_an_index_outside_the_table():
    corr = simplified_correlation_set(SystemConfig(L=2, M=2, K=2, n=6, psi=1))
    for index in (corr.index - 1, corr.index + 3, corr.index[0], corr.index * 0.5):
        with pytest.raises(ValueError, match=r"table must be \(G, n, n\)"):
            CorrelationSet(psi=1, table=corr.table, index=index).validate()
    with pytest.raises(ValueError, match=r"table must be \(G, n, n\)"):
        CorrelationSet(psi=1, table=corr.table[:0], index=corr.index).validate()


@pytest.mark.parametrize("name", ["p_d", "p_u", "tau_u", "sigma2"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_scalar_arguments_must_be_finite_and_positive(name, value):
    # p_u = 0 once raised ZeroDivisionError
    cfg = SystemConfig(L=2, M=2, K=2, n=6, psi=1)
    corr = simplified_correlation_set(cfg)
    scalars = dict(p_d=cfg.p_d, p_u=cfg.p_u, tau_u=cfg.tau_u, sigma2=cfg.sigma2)
    scalars[name] = value
    message = re.escape(f"{name} must be finite and positive, got {value!r}")
    with pytest.raises(ValueError, match=message):
        general_deterministic_sinr(corr, **scalars)
    if name != "p_d":
        del scalars["p_d"]
        with pytest.raises(ValueError, match=message):
            phi_matrix(corr, 0, 0, 0, **scalars)


@pytest.mark.parametrize("name, args", [
    ("l", (5, 0, 0)), ("l", (-1, 0, 0)), ("m", (0, 2, 0)), ("k", (0, 0, 3)),
    ("k", (0, 0, 1.0)), ("j", (0, 0, 0, 2)),
])
def test_phi_rejects_an_index_out_of_range(name, args):
    # cell 5 of a 2-cell set once read "cell 5 does not share pilots with cell 5"
    cfg = SystemConfig(L=2, M=2, K=3, n=6, psi=1)
    corr = simplified_correlation_set(cfg)
    l, m, k, *j = args
    size = {"l": 2, "m": 2, "k": 3, "j": 2}[name]
    value = dict(zip("lmkj", args))[name]
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be an index in range({size}), got {value!r}")):
        phi_matrix(corr, l, m, k, cfg.p_u, cfg.tau_u, cfg.sigma2, *j)


@pytest.mark.parametrize("cfg", list(PINNED_SINR))
def test_factored_set_stores_each_distinct_matrix_once(cfg):
    corr = simplified_correlation_set(cfg)
    gains = large_scale_gains(cfg)
    A = steering_matrix(cfg.n, cfg.P)
    full = gains[..., None, None] * (cfg.d * (A @ A.conj().T))
    assert corr.R.tobytes() == full.tobytes()
    assert len(corr.table) == len(np.unique(gains)) == 3
    assert corr.index.shape == gains.shape
    # the general constructor factors the full array into the same set
    general = CorrelationSet(R=full, psi=cfg.psi)
    assert general.R.tobytes() == full.tobytes()
    args = (cfg.p_d, cfg.p_u, cfg.tau_u, cfg.sigma2)
    assert (general_deterministic_sinr(general, *args).tobytes()
            == general_deterministic_sinr(corr, *args).tobytes())


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
def test_general_sinr_takes_any_integer_index(dtype):
    # a uint64 index stacked with intp row keys once promoted them to float
    # and raised IndexError
    cfg = SystemConfig(L=2, M=2, K=3, n=4)
    corr = simplified_correlation_set(cfg)
    cast = CorrelationSet(psi=cfg.psi, table=corr.table,
                          index=corr.index.astype(dtype))
    args = (cfg.p_d, cfg.p_u, cfg.tau_u, cfg.sigma2)
    assert (general_deterministic_sinr(cast, *args).tobytes()
            == general_deterministic_sinr(corr, *args).tobytes())


def test_factored_cross_check_never_forms_the_full_array():
    # the (7, 7, 7, 14, 20, 20) array alone is 30.7 MB; building it and the
    # dense per-link products once peaked at 40.8 MB
    cfg = RMT_CONFIGS[1]
    tracemalloc.start()
    try:
        corr = simplified_correlation_set(cfg)
        general_deterministic_sinr(corr, cfg.p_d, cfg.p_u, cfg.tau_u, cfg.sigma2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("repeat", [False, True])
@pytest.mark.parametrize("cfg, bound", [(RMT_CONFIGS[0], 2.77e6),
                                        (RMT_CONFIGS[1], 4.38e6)])
def test_cross_check_memory_is_bounded_on_perturbed_sets(cfg, bound, repeat):
    # every link matrix distinct, or all but cell 3's, which repeats cell 0:
    # one cell at a time peaked at 2.52 MB (psi 1) and 3.98 MB (psi 7) on
    # both, one unchunked pass over all cells at 11.6 and 17.7 MB without
    # repeat; the bound is the former plus 10%
    corr = simplified_correlation_set(cfg)
    rng = np.random.default_rng(0)
    R = corr.R * (1.0 + rng.uniform(0.0, 1e-3, corr.R.shape[:4]))[..., None, None]
    if repeat and cfg.psi == 1:     # cell 3's links are cell 0's
        R[0, :, 3] = R[0, :, 0]
        R[3] = R[0]
    elif repeat:                    # cell 3's own links are cell 0's
        R[3, :, 3] = R[0, :, 0]
    perturbed = CorrelationSet(R=R, psi=cfg.psi)
    links = cfg.L ** 2 * cfg.M * cfg.K
    assert len(perturbed.table) < links if repeat else len(perturbed.table) == links
    tracemalloc.start()
    try:
        general_deterministic_sinr(perturbed, cfg.p_d, cfg.p_u, cfg.tau_u,
                                   cfg.sigma2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


_THREAD_PROBE = """
from dasee.config import SystemConfig
from dasee.rmt import general_deterministic_sinr, simplified_correlation_set
for cfg in (SystemConfig(L=7, M=5, K=10, n=16),
            SystemConfig(L=7, M=7, K=14, n=20, d=2, psi=7),
            SystemConfig(L=7, M=3, K=4, n=128)):
    sinr = general_deterministic_sinr(simplified_correlation_set(cfg), cfg.p_d,
                                      cfg.p_u, cfg.tau_u, cfg.sigma2)
    print(sinr.tobytes().hex())
"""


def test_cross_check_bytes_independent_of_blas_threads():
    # both rmt sets of the benchmark and an n = 128 set, whose 128 x 128
    # products BLAS splits over threads; its filters are diagonal (d = 1),
    # as the bytes of np.linalg.inv of a full 128 x 128 matrix depend on
    # the thread count
    src = os.path.dirname(os.path.dirname(os.path.abspath(dasee.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        outputs.append(done.stdout)
    assert len(outputs[0].split()) == 3 and outputs[0] == outputs[1]
