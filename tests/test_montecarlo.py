import hashlib
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dasee
from dasee.asymptotic import (deterministic_sinr, large_scale_gains,
                              operating_point, sinr_breakdown)
from dasee.config import ConfigError, PowerModel, SystemConfig
from dasee import montecarlo
from dasee.montecarlo import (RUN, _assemble, _link_model, _statistics,
                              empirical_ee, empirical_sinr_rate,
                              empirical_transmit_power, generate_realization,
                              rate_from_sinr, steering_matrix)
from dasee.rmt import phi_matrix, simplified_correlation_set

SMALL = SystemConfig(L=2, M=2, K=2, n=16, d=2, psi=1, p_u=1.0)


def test_steering_full_dft_is_unitary():
    A = steering_matrix(4, 4)
    assert np.allclose(A.conj().T @ A, np.eye(4), atol=1e-12)
    assert np.allclose(A @ A.conj().T, np.eye(4), atol=1e-12)


def test_steering_partial_is_projector():
    A = steering_matrix(4, 2)
    assert np.allclose(A.conj().T @ A, np.eye(2), atol=1e-12)
    proj = A @ A.conj().T
    assert np.allclose(proj @ proj, proj, atol=1e-12)
    assert np.isclose(np.trace(proj).real, 2.0)


def test_steering_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        steering_matrix(4, 5)


def test_realization_perfect_csi_limit():
    # orthogonal pilots, no inter-cell gain, huge pilot power: ghat -> g
    cfg = SystemConfig(L=2, M=2, K=2, n=8, d=1, psi=2, alpha2=0.0, p_u=1e10)
    steering = steering_matrix(cfg.n, cfg.P)
    real = generate_realization(cfg, steering, seed=11)
    own = np.stack([real.channels[l, :, l, :] for l in range(cfg.L)])
    assert np.abs(real.estimates - own).max() < 1e-4 * np.abs(own).max()


def test_realization_deterministic():
    steering = steering_matrix(SMALL.n, SMALL.P)
    a = generate_realization(SMALL, steering, seed=3)
    b = generate_realization(SMALL, steering, seed=3)
    assert (a.channels == b.channels).all()
    assert (a.estimates == b.estimates).all()


def test_channel_covariance_matches_model():
    # empirical covariance of g over 1e4 draws vs beta*(n/P)*A*A^H, 5% Frobenius
    cfg = SMALL
    steering = steering_matrix(cfg.n, cfg.P)
    corr = simplified_correlation_set(cfg, steering=steering)
    samples = np.empty((10_000, cfg.n), dtype=complex)
    for r in range(len(samples)):
        samples[r] = generate_realization(cfg, steering, seed=r).channels[0, 0, 0, 0]
    cov = samples.T @ samples.conj() / len(samples)
    target = corr.R[0, 0, 0, 0]
    rel = np.linalg.norm(cov - target) / np.linalg.norm(target)
    assert rel < 0.05, f"channel covariance off by {rel:.3f}"


def test_estimate_covariance_matches_phi():
    # empirical covariance of ghat vs Phi at n = 16 with 1e4 samples
    cfg = SMALL
    steering = steering_matrix(cfg.n, cfg.P)
    corr = simplified_correlation_set(cfg, steering=steering)
    phi = phi_matrix(corr, 0, 1, 1, cfg.p_u, cfg.tau_u, cfg.sigma2)
    samples = np.empty((10_000, cfg.n), dtype=complex)
    for r in range(len(samples)):
        samples[r] = generate_realization(cfg, steering, seed=r).estimates[0, 1, 1]
    cov = samples.T @ samples.conj() / len(samples)
    rel = np.linalg.norm(cov - phi) / np.linalg.norm(phi)
    assert rel < 0.05, f"estimate covariance off by {rel:.3f}"


def test_empirical_sinr_deterministic():
    cfg = SystemConfig(L=3, M=2, K=4, n=12, psi=3)
    one = empirical_sinr_rate(cfg, 40, seed=9)
    two = empirical_sinr_rate(cfg, 40, seed=9)
    assert (one[0] == two[0]).all() and one[1] == two[1]


def test_single_user_array_gain():
    # L=1, K=1, clean pilots: SINR grows linearly with n
    cfg = SystemConfig(L=1, M=1, K=1, psi=1, p_u=1e8)
    lo = empirical_sinr_rate(cfg.replace(n=32), 400, seed=4)[0][0]
    hi = empirical_sinr_rate(cfg.replace(n=64), 400, seed=4)[0][0]
    assert 1.7 < hi / lo < 2.3


def test_power_normalization_against_theory():
    # closed-form normalization 1/(n*S) applied to a simulated batch
    cfg = SystemConfig(L=3, M=3, K=6, n=18, psi=1)
    lam_theory = 1.0 / (cfg.n * sinr_breakdown(cfg).S)
    measured = empirical_transmit_power(cfg, 1000, seed=21,
                                        lam=np.full(cfg.L, lam_theory))
    assert np.abs(measured / cfg.p_d - 1.0).max() < 0.02


def test_de_convergence_at_fixed_load():
    # relative DE error shrinks as n grows at fixed n/K, below 5% from n=20
    errs = {}
    for n, K in ((10, 5), (30, 15)):
        cfg = SystemConfig(M=3, K=K, n=n, psi=1)
        sinr, _ = empirical_sinr_rate(cfg, 1000, seed=2)
        de = deterministic_sinr(cfg)
        errs[n] = abs(np.log2(1 + sinr).mean() / np.log2(1 + de) - 1.0)
    assert errs[30] < errs[10]
    assert errs[30] < 0.05


def test_cell_rate_symmetric_in_user_order():
    cfg = SystemConfig(L=2, M=2, K=4, n=8, psi=1)
    for seed in (13, *range(20)):
        sinr, se = empirical_sinr_rate(cfg, 50, seed=seed)
        assert se == rate_from_sinr(cfg, sinr[::-1]), seed
        assert se == rate_from_sinr(cfg, sinr[[2, 0, 3, 1]]), seed


def test_empirical_ee_scaling_with_bandwidth():
    cfg = SystemConfig(L=2, M=2, K=4, n=8, psi=1)
    pm = PowerModel()
    full = empirical_ee(cfg, pm, 60, seed=5)
    half = empirical_ee(cfg.replace(B=cfg.B / 2), pm, 60, seed=5)
    # SE is identical (same draws); the traffic-dependent backhaul term also
    # halves, so the ratio sits just above one half
    assert 0.5 <= half / full < 0.52


def test_empirical_ee_positive_and_finite():
    cfg = SystemConfig(L=2, M=2, K=2, n=8, psi=2)
    value = empirical_ee(cfg, PowerModel(), 30, seed=1)
    assert np.isfinite(value) and value > 0


def test_empirical_ee_that_rounds_to_0_is_a_config_error():
    # B*se > 0 against the total power: the EE B*se/p_total rounds to 0,
    # the closed form's ConfigError on the same record, not an EE of 0.0
    cfg, pm = SystemConfig(B=5e-324), PowerModel()
    message = "the EE B\\*se/p_total rounds to 0"
    with pytest.raises(ConfigError, match=message):
        operating_point(cfg, pm)
    with pytest.raises(ConfigError, match=message):
        empirical_ee(cfg, pm, 5, 1)


def test_realizations_must_be_positive():
    with pytest.raises(ConfigError, match="realizations"):
        empirical_sinr_rate(SMALL, 0, seed=1)
    with pytest.raises(ConfigError, match="realizations"):
        empirical_transmit_power(SMALL, 0, seed=1)


def test_realization_rejects_wrong_steering():
    cfg = SystemConfig(L=2, M=2, K=2, n=8, d=2, psi=1)
    with pytest.raises(ValueError, match="steering"):
        generate_realization(cfg, steering_matrix(8, 8), seed=0)


def _link_moments(g0, w):
    """Per-(l, m, k) |g0|^2, |w|^2, Re and Im of g0 w*, averaged over P."""
    cross = g0 * w.conj()
    return np.stack([np.abs(g0) ** 2, np.abs(w) ** 2, cross.real,
                     cross.imag]).mean(axis=-1)


@pytest.mark.parametrize("mode", ["exact", "negligible"])
@pytest.mark.parametrize("psi", [1, 2])
def test_sampler_matches_full_space_moments(psi, mode):
    # the two-Gaussian reference sampler vs every link drawn in the full
    # space and projected onto A, per (l, m, k), within four standard errors
    cfg = SystemConfig(L=2, M=2, K=2, n=8, d=2, psi=psi, pilot_noise_mode=mode)
    A = steering_matrix(cfg.n, cfg.P)
    R = 2000
    g0, w = _reference_draws(cfg, R, 5, large_scale_gains(cfg))
    reduced = np.array([_link_moments(g0[r], w[r]) for r in range(R)])
    full = np.empty_like(reduced)
    for r in range(R):
        real = generate_realization(cfg, A, seed=r)
        full[r] = _link_moments(
            np.einsum("np,lmkn->lmkp", A.conj(), real.channels[:, :, 0]),
            np.einsum("np,lmkn->lmkp", A.conj(), real.estimates))
    gap = np.abs(reduced.mean(axis=0) - full.mean(axis=0))
    se = np.sqrt((reduced.var(axis=0) + full.var(axis=0)) / R)
    assert (gap < 4.0 * se).all(), (gap / se).max()


def test_negligible_pilot_noise_is_not_simulated():
    # the DE drops pilot noise in this mode, and so must the simulation: the
    # estimates do not depend on the pilot power, and the EE matches the DE
    cfg = SystemConfig(L=2, M=2, K=2, n=8, psi=1, pilot_noise_mode="negligible")
    steering = steering_matrix(cfg.n, cfg.P)
    weak = cfg.replace(p_u=1e-9)
    assert np.allclose(generate_realization(cfg, steering, seed=2).estimates,
                       generate_realization(weak, steering, seed=2).estimates,
                       rtol=1e-12, atol=0.0)
    pm = PowerModel()
    for n in (10, 20):
        point = SystemConfig(n=n, pilot_noise_mode="negligible")
        ee_mc = empirical_ee(point, pm, 300, seed=1)
        rel = abs(ee_mc / operating_point(point, pm).ee - 1.0)
        assert rel < 0.03, (n, rel)


def test_zero_gain_link_gets_zero_coefficient():
    # alpha1 = 0 and orthogonal pilots: the non-serving own-cell links carry
    # no gain and no co-pilot power, so their negligible-noise MMSE
    # coefficient is 0, not 0/0
    cfg = SystemConfig(L=2, M=2, K=2, n=8, psi=2, alpha1=0.0,
                       pilot_noise_mode="negligible")
    with np.errstate(divide="raise", invalid="raise"):
        coeff = _link_model(cfg, large_scale_gains(cfg)).c
        sinr, se = empirical_sinr_rate(cfg, 20, seed=3)
        real = generate_realization(cfg, steering_matrix(cfg.n, cfg.P), seed=3)
    assert coeff[:, 1, 0].tolist() == [0.0, 0.0]
    assert (coeff[:, 0, 0] > 0).all()
    assert np.isfinite(sinr).all() and np.isfinite(se)
    assert np.isfinite(real.estimates).all()


def _reference_vectors(cfg, realizations, seed):
    """The standard complex Gaussian P-vectors (a, b) of every realization,
    shape (R, L, M, K, P), from two Gaussian draws."""
    rng = np.random.default_rng(seed)
    shape = (realizations, cfg.L, cfg.M, cfg.K, cfg.P, 2)
    return tuple((z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
                 for z in (rng.standard_normal(shape), rng.standard_normal(shape)))


def _reference_draws(cfg, realizations, seed, gains):
    """(g0, w) of every realization, shape (R, L, M, K, P), assembled term
    by term from the P-vectors (a, b)."""
    model = _link_model(cfg, gains)
    mix = model.shared[:, None, None, None]
    a, b = _reference_vectors(cfg, realizations, seed)
    g0 = np.sqrt(model.o[..., None]) * a
    rest = np.sqrt(model.q[..., None]) * b
    return g0, model.c[..., None] * (mix * g0 + rest)


def _reference_conditional_wnorm(cfg, realizations, seed, gains):
    """Per-cell sum_{m,k} of E[||w||^2 | ||a||^2, xi], formed from the
    reference's P-vectors: with sum_m c sqrt(oq) a^T conj(b) = sqrt(v) xi,
    v = sum_m c^2 o q ||a||^2, and r = c^2 o q ||a||^2 / v (0 where v = 0),
    c^2 (o ||a||^2 + 2 sqrt(r o q ||a||^2) Re xi + q (P + r (|xi|^2 - 1)))
    where s_l = 1, and c^2 q P where s_l = 0, summed over k, then m, as
    the engine sums."""
    model = _link_model(cfg, gains)
    a, b = _reference_vectors(cfg, realizations, seed)
    o, q, c = model.o, model.q, model.c
    norm_a = (np.abs(a) ** 2).sum(axis=-1)
    x = c * np.sqrt(o * q) * (a * b.conj()).sum(axis=-1)
    u = c ** 2 * o * q * norm_a
    v = u.sum(axis=2, keepdims=True)
    safe = np.where(v > 0.0, v, 1.0)
    r, xi = u / safe, x.sum(axis=2, keepdims=True) / np.sqrt(safe)
    wnorm = np.where(model.shared[:, None, None],
                     c ** 2 * (o * norm_a + 2.0 * np.sqrt(r * o * q * norm_a)
                               * xi.real
                               + q * (cfg.P + r * (np.abs(xi) ** 2 - 1.0))),
                     c ** 2 * q * cfg.P)
    return wnorm.sum(axis=3).sum(axis=2)


def _reference_statistics(cfg, realizations, seed, gains):
    """The engine's per-realization statistics from the vectors themselves:
    einsum contraction, abs()**2 powers, no conditional expectations."""
    g0, w = _reference_draws(cfg, realizations, seed, gains)
    y = np.einsum("rlmkp,rlmip->rlki", g0, w.conj())
    power = np.abs(y) ** 2
    own = np.diagonal(y[:, 0], axis1=1, axis2=2)
    off_diag = ~np.eye(cfg.K, dtype=bool)
    return ((np.abs(w) ** 2).sum(axis=(2, 3, 4)), own, np.abs(own) ** 2,
            np.where(off_diag, power[:, 0], 0.0).sum(axis=2), power.sum(axis=3))


def _batch_terms(wnorm, eff, eff2, sci, total):
    """Per-realization values of every batch-mean term of the estimator."""
    return {"signal_re": eff.real, "signal_im": eff.imag, "signal_power": eff2,
            "intra": sci, "inter": total[:, 1:], "wnorm": wnorm}


def _engine_rows(cfg, R, seed, gains):
    """The engine's statistics of every realization, each row assembled into
    the estimator's terms as the batch means are."""
    rows = map(np.concatenate, zip(*_statistics(cfg, R, seed, gains)))
    return _assemble(cfg, gains, *rows)


def _statistics_agree(cfg, gains=None, R=2000):
    """Largest gap of the engine's batch means from the reference's, in
    standard errors of the difference, per term.  The spread of the per-cell
    precoder power around the reference mean is compared too: it is where
    the parts of ||w||^2 that are zero in mean show.  The engine's ||w||^2
    is its conditional mean given (||a||^2, xi), so its spread is compared
    with that of the reference's own conditional mean, formed from the
    P-vectors, not with the raw ||w||^2."""
    gains_at = large_scale_gains(cfg) if gains is None else gains
    reference = _batch_terms(*_reference_statistics(cfg, R, 1, gains_at))
    engine = _batch_terms(*_engine_rows(cfg, R, 2, gains))
    center = reference["wnorm"].mean(axis=0)
    conditional = _reference_conditional_wnorm(cfg, R, 1, gains_at)
    reference["wnorm_spread"] = (conditional - center) ** 2
    engine["wnorm_spread"] = (engine["wnorm"] - center) ** 2
    worst = {}
    for name, ref in reference.items():
        got = engine[name]
        se = np.sqrt((got.var(axis=0) + ref.var(axis=0)) / R)
        gap = np.abs(got.mean(axis=0) - ref.mean(axis=0))
        worst[name] = float(np.max(gap / np.maximum(se, np.finfo(float).tiny)))
    return worst


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("mode", ["exact", "negligible"])
@pytest.mark.parametrize("psi", [1, 2, 4])
def test_engine_matches_reference_estimator(psi, mode, override):
    # the sufficient-statistic engine vs the estimator evaluated on the
    # P-vectors, term by term, within four standard errors; L = 4 so that
    # psi = 2 leaves two co-pilot cells (0 and 2) and two others
    cfg = SystemConfig(L=4, M=3, K=5, n=12, d=2, psi=psi, pilot_noise_mode=mode)
    gains = None
    if override:
        gains = large_scale_gains(cfg) * np.random.default_rng(8).uniform(
            0.5, 2.0, (cfg.L, cfg.M, cfg.L, cfg.K))
    worst = _statistics_agree(cfg, gains)
    assert max(worst.values()) < 4.0, worst


def test_engine_statistics_single_steering_column():
    # P = 1: the conditional mean of ||b||^2 is 1 + r (|xi|^2 - 1), no P - 1
    cfg = SystemConfig(L=2, M=2, K=3, n=2, d=2, psi=1)
    worst = _statistics_agree(cfg)
    assert max(worst.values()) < 4.0, worst


def test_engine_precoder_power_is_its_conditional_mean():
    # the engine draws no ||w||^2 where s_l = 0: the per-cell ||w||^2 there
    # is its mean sum c^2 q P, formed once from the model, in the batch mean
    # and in every assembled row; in the co-pilot cells its per-row
    # variance is at most that of the raw ||w||^2 of the P-vectors.  Low
    # pilot power makes q, which the conditional mean averages over, the
    # larger part of cell 0's ||w||^2, so the reduction there stands clear
    # of the two variances' spread
    cfg = SystemConfig(L=4, M=3, K=5, n=12, d=2, psi=2, p_u=0.01)
    model = _link_model(cfg)
    other = ~model.shared
    R = 2000
    assert all(block[0].shape[1] == model.shared.sum()
               for block in _statistics(cfg, 3, 2, None))
    engine = _engine_rows(cfg, R, 2, None)[0]
    rows = engine[:, other]
    assert rows.tobytes() == np.tile(rows[0], (R, 1)).tobytes()
    mean = (model.c ** 2 * model.q * cfg.P)[other].sum(axis=2).sum(axis=1)
    assert rows[0].tobytes() == mean.tobytes()
    batch = montecarlo._batch_means(cfg, R, 2, None)[0]
    assert batch[other].tobytes() == mean.tobytes()
    reference = _reference_statistics(cfg, R, 1, large_scale_gains(cfg))[0]
    assert (engine.var(axis=0) <= reference.var(axis=0)).all()


def test_orthogonal_pilots_without_pilot_noise_leave_v_at_zero():
    # psi = L in negligible mode: no cell shares cell 0's pilots and q = 0,
    # so cx = 0 and v = 0; r is 0 there, not 0/0, y is the deterministic
    # sum of co ||a||^2, and the SINR is finite with no warning
    cfg = SystemConfig(psi=7, K=10, n=20, pilot_noise_mode="negligible")
    model = _link_model(cfg)
    assert model.shared.tolist() == [True] + [False] * (cfg.L - 1)
    assert not model.q[0].any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sinr, se = empirical_sinr_rate(cfg, 50, seed=3)
        (_, y, _), = _statistics(cfg, 5, 3, None)
    assert np.isfinite(sinr).all() and (sinr > 0.0).all() and np.isfinite(se)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(0,)))
    co = model.c[0] * model.o[0]
    for row in y:
        norm_a = rng.standard_gamma(cfg.P, co.shape)
        rng.standard_normal((cfg.K, 2))               # xi, times sqrt(v) = 0
        assert row.real.tobytes() == (co * norm_a).sum(axis=0).tobytes()
        assert not row.imag.any()


@pytest.mark.parametrize("override", [False, True])
def test_estimator_assembles_batch_means(override):
    # the SINR and the transmit power written plainly from the batch means of
    # the engine's own statistics (same draws; only the summation order differs)
    cfg = SystemConfig(L=4, M=3, K=5, n=12, d=2, psi=2)
    gains = None
    if override:
        gains = large_scale_gains(cfg) * np.random.default_rng(8).uniform(
            0.5, 2.0, (cfg.L, cfg.M, cfg.L, cfg.K))
    R = 30
    wnorm, eff, eff2, sci, total = _assemble(cfg, gains, *(
        np.mean(term, axis=0)
        for term in map(np.concatenate, zip(*_statistics(cfg, R, 4, gains)))))
    lam = cfg.K / wnorm
    inter = sum(lam[l] * total[l] for l in range(1, cfg.L))
    sinr_ref = (lam[0] * np.abs(eff) ** 2
                / (lam[0] * (eff2 - np.abs(eff) ** 2) + lam[0] * sci + inter
                   + cfg.sigma2 / cfg.p_d))
    sinr, se = empirical_sinr_rate(cfg, R, seed=4, gains=gains)
    assert np.allclose(sinr, sinr_ref, rtol=1e-12, atol=0.0)
    assert se == rate_from_sinr(cfg, sinr)
    lam = np.arange(1.0, cfg.L + 1.0)
    power = empirical_transmit_power(cfg, R, seed=4, lam=lam, gains=gains)
    assert np.allclose(power, cfg.p_d / cfg.K * lam * wnorm, rtol=1e-12, atol=0.0)


def reference_realization(cfg, gains):
    """A function of a generator: the engine's statistics of the one
    realization it draws from that generator, in the engine's draw order:
    ||a||^2 of every co-pilot (l, m, k), then xi of every co-pilot (l, k)."""
    model = _link_model(cfg, gains)
    shared = model.shared
    o, q, c = model.o[shared], model.q[shared], model.c[shared]
    co, cx = c * o, c * np.sqrt(o * q)
    cx2, c2o, c2x, c2q = cx * cx, c * co, 2.0 * c * cx, c ** 2 * q

    def realization(rng):
        norm_a = rng.standard_gamma(cfg.P, o.shape)
        xi = rng.standard_normal((len(o), cfg.K, 2)).view(np.complex128)[..., 0]
        xi /= np.sqrt(2.0)
        u = cx2 * norm_a
        v = u.sum(axis=1)
        r = u / np.where(v > 0.0, v, 1.0)[:, None]
        y = (co * norm_a).sum(axis=1) + np.sqrt(v) * xi
        spread = (xi.real ** 2 + xi.imag ** 2 - 1.0)[:, None]
        wnorm = (c2o * norm_a + c2q * (cfg.P + r * spread)
                 + c2x * np.sqrt(norm_a * r) * xi.real[:, None])
        return wnorm, y[0], y.real ** 2 + y.imag ** 2

    return realization


def reference_batch_means(cfg, realizations, seed, gains):
    """The engine one realization at a time, each statistic added into a
    running sum in realization order and the means assembled by the
    engine's ``_assemble``: the layout the block engine must reproduce bit
    for bit.  A fresh generator starts each run of ``RUN`` realizations,
    and the run's later realizations go on from it."""
    realization = reference_realization(cfg, gains)

    def streams():
        for r in range(realizations):
            if r % RUN == 0:
                rng = np.random.default_rng(np.random.SeedSequence(
                    entropy=seed, spawn_key=(r // RUN,)))
            yield rng

    terms = map(realization, streams())
    sums = list(next(terms))
    for row in terms:
        for total, term in zip(sums, row):
            total += term
    return _assemble(cfg, gains, *(total / realizations for total in sums))


BIT_CASES = [
    *((SystemConfig(L=4, M=3, K=5, n=12, d=2, psi=psi, pilot_noise_mode=mode),
       False) for psi in (1, 2, 4) for mode in ("exact", "negligible")),
    (SystemConfig(L=4, M=3, K=5, n=12, d=2, psi=2), True),   # gains= override
    (SystemConfig(L=1, M=2, K=3, n=8, psi=1), False),
    (SystemConfig(L=3, M=2, K=1, n=8, psi=1), False),        # K = 1
    (SystemConfig(L=2, M=9, K=3, n=10, d=2, psi=2), False),
    (SystemConfig(L=2, M=2, K=3, n=2, d=2, psi=1), False),   # P = 1
    (SystemConfig(L=1, M=1, K=1, n=4, psi=1), False),        # one entry each
]


def _estimator_bytes(cfg, R, gains):
    sinr, se = empirical_sinr_rate(cfg, R, seed=6, gains=gains)
    power = empirical_transmit_power(cfg, R, seed=6, gains=gains,
                                     lam=np.arange(1.0, cfg.L + 1.0))
    return sinr.tobytes(), repr(se), power.tobytes()


def _assert_block_engine_bit_identical(monkeypatch, cfg, gains, R):
    engine = _estimator_bytes(cfg, R, gains)
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_batch_means", reference_batch_means)
        reference = _estimator_bytes(cfg, R, gains)
    assert engine == reference


@pytest.mark.parametrize("rows", [None, 2, 3, 7])
@pytest.mark.parametrize("cfg, override", BIT_CASES)
def test_block_engine_bit_identical_to_loop(monkeypatch, cfg, override, rows):
    # BLOCK = 1, 2, 7 (odd) entries, and blocks of exactly 2, 3 and 7 rows;
    # R = 2 RUN + 3 leaves a partial last block wherever a block holds 2+
    # rows, and blocks of 3 and 7 rows end inside a run
    gains = None
    if override:
        gains = large_scale_gains(cfg) * np.random.default_rng(8).uniform(
            0.5, 2.0, (cfg.L, cfg.M, cfg.L, cfg.K))
    size = cfg.L * cfg.M * cfg.K
    for block in ((1, 2, 7) if rows is None else (rows * size,)):
        monkeypatch.setattr(montecarlo, "BLOCK", block)
        _assert_block_engine_bit_identical(monkeypatch, cfg, gains,
                                           2 * RUN + 3)


@pytest.mark.parametrize("cfg", [SystemConfig(psi=1, K=10, n=10),
                                 SystemConfig(psi=7, K=20, n=60),
                                 SystemConfig(M=9, K=3, n=10, d=2)])
def test_block_engine_bit_identical_at_shipped_block(monkeypatch, cfg):
    # more realizations than one block of the shipped BLOCK holds, and past
    # two runs; the blocks of 33 and 86 rows of the first and last config
    # end inside a run
    rounds = montecarlo.BLOCK // (cfg.L * cfg.M * cfg.K)
    _assert_block_engine_bit_identical(monkeypatch, cfg, None,
                                       max(rounds, 2 * RUN) + 3)


def test_realization_statistics_do_not_depend_on_count():
    # the contract: row r depends on (config, seed, r) alone, and row RUN
    # opens the second run's substream
    cfg = SystemConfig(L=4, M=3, K=5, n=12, d=2, psi=2)
    short, long = ([np.concatenate(term) for term in zip(*_statistics(
        cfg, R, 5, None))] for R in (RUN + 5, 3 * RUN))
    for few, many in zip(short, long):
        assert few.tobytes() == many[:RUN + 5].tobytes()
    fresh = reference_realization(cfg, None)(np.random.default_rng(
        np.random.SeedSequence(entropy=5, spawn_key=(1,))))
    for few, row in zip(short, fresh):
        assert few[RUN].tobytes() == np.asarray(row).tobytes()


_THREAD_PROBE = """
from dasee import SystemConfig
from dasee.montecarlo import RUN, empirical_sinr_rate
cfg = SystemConfig(psi=1, K=20, n=60)
sinr, se = empirical_sinr_rate(cfg, RUN + 6, seed=3)   # crosses a run
print(sinr.tobytes().hex(), repr(se))
"""


def test_output_independent_of_blas_threads():
    # the reproducibility contract holds for any BLAS thread count
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
    assert outputs[0] == outputs[1]


def test_realization_complex_normals_bit_identical():
    # generate_realization assembles its normals in place; the bytes equal
    # those of (re + 1j im) / sqrt(2) on the same stream
    cfg = SystemConfig(L=2, M=2, K=3, n=8, d=2, psi=1)
    real = generate_realization(cfg, steering_matrix(cfg.n, cfg.P), seed=6)
    rng = np.random.default_rng(np.random.SeedSequence(6))
    z = rng.standard_normal((cfg.L, cfg.M, cfg.L, cfg.K, cfg.P, 2))
    h = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
    z = rng.standard_normal((cfg.L, cfg.M, cfg.K, cfg.n, 2))
    noise = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0) * np.sqrt(cfg.sigma2)
    assert real.pilot_noise.tobytes() == noise.tobytes()
    steering = steering_matrix(cfg.n, cfg.P)
    channels = (np.sqrt(large_scale_gains(cfg) * cfg.d)[..., None]
                * np.einsum("np,lmjkp->lmjkn", steering, h))
    assert real.channels.tobytes() == channels.tobytes()


def _digests(real):
    """First 16 hex digits of the sha256 of channels, pilot noise and
    estimates."""
    return tuple(hashlib.sha256(array.tobytes()).hexdigest()[:16]
                 for array in (real.channels, real.pilot_noise, real.estimates))


# Realization bytes pinned before the config-only factors were cached and
# the two Gaussian draws merged: psi in {1, L}, d in {1, 2}, both modes.
PINNED = {
    (SystemConfig(L=2, M=2, K=2, n=8, d=1, psi=1), 0):
        ("7d646bcb7d580f29", "a272e3aa5435b3c1", "2bdf7e26bc308661"),
    (SystemConfig(L=2, M=2, K=2, n=8, d=1, psi=1), 1):
        ("1e5f6f8491ff20d9", "d4b7bf19ff41c7a8", "0c03f80fc45d6cf9"),
    (SystemConfig(L=2, M=2, K=2, n=8, d=1, psi=1), 7):
        ("99191834fb79671c", "587d8692701dad94", "36ffd4a589bcbf83"),
    (SystemConfig(L=3, M=2, K=2, n=8, d=2, psi=3), 0):
        ("ddec180435c65981", "c33898d6fbbf2d79", "4a96d2ec14bf5b5b"),
    (SystemConfig(L=3, M=2, K=2, n=8, d=2, psi=3), 2):
        ("925c52d28d80f81d", "a925113c568fff19", "7722233c6f7ceb9f"),
    (SystemConfig(L=3, M=2, K=2, n=8, d=2, psi=3), 9):
        ("18263146079688ef", "dc4e9de6a7b8fb6e", "d2da0119a236cb10"),
    (SystemConfig(L=2, M=3, K=2, n=6, d=2, psi=2,
                  pilot_noise_mode="negligible"), 1):
        ("85c4796daeae5f42", "57f7d163297c3fe4", "c55e2f9ac11238c9"),
    (SystemConfig(L=2, M=3, K=2, n=6, d=2, psi=2,
                  pilot_noise_mode="negligible"), 4):
        ("df78f9f45ebc6eab", "6ea34288aed368b1", "710ed610845f4d0f"),
    (SystemConfig(L=2, M=3, K=2, n=6, d=2, psi=2,
                  pilot_noise_mode="negligible"), 5):
        ("7c741fd11d15f436", "29895690b9ae799f", "7ebab15963c09308"),
    (SystemConfig(L=2, M=2, K=3, n=4, d=1, psi=1,
                  pilot_noise_mode="negligible"), 3):
        ("44a645bc3e1579c4", "38234042dccee828", "cf644b1c5cc25178"),
    (SystemConfig(L=2, M=2, K=3, n=4, d=1, psi=1,
                  pilot_noise_mode="negligible"), 6):
        ("b3aa957ef252da4b", "6f8abe585a7a0f85", "960ec87edde34433"),
    (SystemConfig(L=2, M=2, K=3, n=4, d=1, psi=1,
                  pilot_noise_mode="negligible"), 8):
        ("4f3f666212a3f88c", "d0209e3b3e6290ac", "63f31e434c2b5136"),
}


@pytest.mark.parametrize("cfg,seed", list(PINNED))
def test_realization_bytes_are_pinned(cfg, seed):
    A = steering_matrix(cfg.n, cfg.P)
    assert _digests(generate_realization(cfg, A, seed=seed)) == PINNED[cfg, seed]


@pytest.mark.parametrize("cfg", sorted({cfg for cfg, _ in PINNED}, key=repr))
def test_cached_link_model_is_the_model_at_its_gains(cfg):
    # the cached model and one built at the same gains agree byte for byte
    cached, built = _link_model(cfg), _link_model(cfg, large_scale_gains(cfg))
    assert cached._fields == built._fields
    for name, a, b in zip(cached._fields, cached, built):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_realization_owns_its_arrays():
    # writing into one realization's arrays changes no later draw, and no
    # array of the cached link model can be written at all
    (cfg, seed), pinned = next(iter(PINNED.items()))
    A = steering_matrix(cfg.n, cfg.P)
    real = generate_realization(cfg, A, seed=seed)
    for array in (real.channels, real.pilot_noise, real.estimates):
        array[...] = 7.0
    assert _digests(generate_realization(cfg, A, seed=seed)) == pinned
    model = _link_model(cfg)
    arrays = [name for name, value in model._asdict().items()
              if isinstance(value, np.ndarray)]
    assert arrays == [name for name in model._fields if name != "loading"]
    for name in arrays:
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[...] = 0.0


def test_realization_config_factors_built_once(monkeypatch):
    # the full-space draws and the sampler share one build of the model
    calls = []
    inner = montecarlo.large_scale_gains
    monkeypatch.setattr(montecarlo, "large_scale_gains",
                        lambda cfg: calls.append(cfg) or inner(cfg))
    montecarlo._config_link_model.cache_clear()
    cfg = SystemConfig(L=2, M=2, K=2, n=16, d=2, psi=1, p_u=0.75)
    A = steering_matrix(cfg.n, cfg.P)
    for seed in range(100):
        generate_realization(cfg, A, seed=seed)
    empirical_sinr_rate(cfg, 20, seed=1)
    assert calls == [cfg]
    montecarlo._config_link_model.cache_clear()


def test_realization_checks_divisibility_before_steering():
    # n % d is a ConfigError even when the steering matrix is wrong too
    cfg = SystemConfig(L=2, M=2, K=2, n=9, d=2, psi=1)
    with pytest.raises(ConfigError, match="n not divisible by d"):
        generate_realization(cfg, steering_matrix(9, 3), seed=0)
