import numpy as np
import pytest

from dasee.asymptotic import deterministic_sinr
from dasee.config import ConfigError, SystemConfig, derived_scalars
from dasee.montecarlo import steering_matrix
from dasee.rmt import (CorrelationSet, general_deterministic_sinr, phi_matrix,
                       simplified_correlation_set)


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
