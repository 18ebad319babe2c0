import math
import re

import numpy as np
import pytest

from dasee.asymptotic import (CONFIG, INFEASIBLE, Design,
                              InfeasibleAntennasError, Lanes,
                              RateUnachievableError, SinrBreakdown,
                              deterministic_sinr, energy_efficiency,
                              large_scale_gains, min_antennas,
                              operating_point, rate_from_sinr, rate_margin,
                              sinr_breakdown, total_power_at_se)
from dasee.config import (ConfigError, DerivedScalars, PowerModel,
                          SystemConfig, derived_scalars)

CFG = SystemConfig()
PM = PowerModel()


def test_signal_power_reference_point():
    # negligible mode: S = beta*(M^iota/L_bar1 + (M-1)*a1^2/L_bar2) ~= 12.72*beta
    brk = sinr_breakdown(CFG.replace(pilot_noise_mode="negligible"))
    assert math.isclose(brk.S / CFG.beta, 12.720417427765687, rel_tol=1e-12)
    expected = CFG.beta * (7 ** 2.5 / (7 ** 1.25 + 0.45) + 6 * 0.54 ** 2 / 0.99)
    assert math.isclose(brk.S, expected, rel_tol=1e-12)


def test_pc_power_vanishes_iff_orthogonal_or_isolated():
    rng = np.random.default_rng(42)
    for _ in range(50):
        cfg = CFG.replace(M=int(rng.integers(1, 9)),
                          alpha1=float(rng.uniform(0, 1)),
                          alpha2=float(rng.uniform(0.01, 1)),
                          psi=int(rng.choice([1, 7])))
        brk = sinr_breakdown(cfg)
        if cfg.psi == cfg.L:
            assert brk.I_PC == 0.0
        else:
            assert brk.I_PC > 0.0
    assert sinr_breakdown(CFG.replace(alpha2=0.0)).I_PC == 0.0
    assert sinr_breakdown(CFG.replace(psi=7)).I_PC == 0.0


def test_multiuser_power_linear_in_k():
    brk1 = sinr_breakdown(CFG.replace(K=8))
    brk2 = sinr_breakdown(CFG.replace(K=16))
    assert math.isclose(brk2.I_MU_scaled, 2 * brk1.I_MU_scaled, rel_tol=1e-12)
    assert brk1.I_MU_scaled > 0


def test_colocated_collapse():
    # M=1, alpha1=0 reduces to the co-located model
    cfg = CFG.replace(M=1, alpha1=0.0)
    brk = sinr_breakdown(cfg)
    from dasee.config import derived_scalars
    ds = derived_scalars(cfg)
    assert math.isclose(brk.S, cfg.beta ** 2 * ds.nu1, rel_tol=1e-12)
    assert math.isclose(brk.I_MU_scaled,
                        cfg.beta * cfg.d * cfg.K * (1 + cfg.alpha2 * 6),
                        rel_tol=1e-12)


def test_sinr_monotone_in_n_and_power():
    values_n = [deterministic_sinr(CFG, n=n) for n in (10, 20, 40, 80)]
    assert all(a < b for a, b in zip(values_n, values_n[1:]))
    assert deterministic_sinr(CFG, n=20, p_d=2.0) > deterministic_sinr(
        CFG, n=20, p_d=1.0)


def test_pc_ceiling():
    brk = sinr_breakdown(CFG)
    ceiling = brk.S / brk.I_PC
    assert math.isclose(deterministic_sinr(CFG, n=10 ** 12), ceiling, rel_tol=1e-8)
    # orthogonal pilots: SINR grows without bound
    clean = CFG.replace(psi=7)
    assert deterministic_sinr(clean, n=10 ** 9) > 1e5


def test_transmit_power_round_trip():
    # gamma achieved at p_d = 1 W inverts back to 1 W
    for n in (10, 25, 60):
        gamma = math.log2(1.0 + deterministic_sinr(CFG, n=n, p_d=1.0))
        assert math.isclose(Design(CFG, PM, gamma).transmit_power(n), 1.0,
                            rel_tol=1e-10)


def test_transmit_power_limits():
    assert Design(CFG, PM, 2.0).transmit_power(10 ** 7) < 1e-6
    assert Design(CFG, PM, 1e-9).transmit_power(20) < 1e-6


def test_min_antennas_ratio():
    brk = SinrBreakdown(S=2.0 * (2 ** 2.0 - 1.0), I_PC=0.0, I_MU_scaled=1.0)
    # S/(2^gamma - 1) = 2*I_MU' -> ratio 1/2 -> n_min = 1
    assert min_antennas(CFG, brk, 2.0) == 1


def test_min_antennas_is_first_feasible():
    n_min = min_antennas(CFG, sinr_breakdown(CFG), 2.0)
    design = Design(CFG, PM, 2.0)
    assert design.n_min == n_min
    assert design.transmit_power(n_min - 1) is None
    assert design.point(n_min - 1) is None and design.ee(n_min - 1) is None
    with pytest.raises(InfeasibleAntennasError):
        operating_point(CFG, PM, 2.0, n=n_min - 1)
    assert design.transmit_power(n_min) > 0.0


@pytest.mark.parametrize("n", [0, 2.5, -3])
def test_antenna_count_argument_is_validated(n):
    # n is no longer applied to a rebuilt SystemConfig, so the evaluator
    # itself must reject it, with validate_config's message
    message = re.escape(f"n must be a positive integer, got {n!r}")
    with pytest.raises(ConfigError, match=message):
        energy_efficiency(CFG, PM, 2.0, n=n)
    for gamma in (None, 2.0):
        with pytest.raises(ConfigError, match=message):
            operating_point(CFG, PM, gamma, n=n)


@pytest.mark.parametrize("gamma", [1e-16, 1e-300, 5e-324])
def test_rate_too_small_for_a_double_is_a_config_error(gamma):
    # 2**gamma rounds to 1, so S/(2**gamma - 1) was a ZeroDivisionError
    with pytest.raises(ConfigError, match="gamma"):
        rate_margin(sinr_breakdown(CFG), gamma)


@pytest.mark.parametrize("gamma", [2.3e-16, 1e-15, 1e-9, 0.5, 2.0, 9.0,
                                   1023.9])
def test_rate_margin_bits(gamma):
    for cfg in (CFG, CFG.replace(psi=7)):
        brk = sinr_breakdown(cfg)
        try:
            margin = rate_margin(brk, gamma)
        except RateUnachievableError:
            assert brk.S / (2.0 ** gamma - 1.0) - brk.I_PC <= 0.0
            continue
        assert margin == brk.S / (2.0 ** gamma - 1.0) - brk.I_PC


@pytest.mark.parametrize("cfg", [CFG, CFG.replace(psi=7)])
def test_rate_margin_over_rate_lanes_equals_the_scalar(cfg):
    # each lane of rates holds the scalar's outcome at its gamma, in the
    # scalar's order: CONFIG where it raises a ConfigError (not finite and
    # positive, or 2**gamma - 1 rounds to 0), INFEASIBLE where it raises
    # RateUnachievableError (from gamma = 1024 on, where 2**gamma is inf),
    # else its margin bit for bit; also as a (2, 3) grid of rates
    gammas = [math.nan, -1.0, 1e-17, 0.5, 1024.0, math.inf]
    brk = sinr_breakdown(cfg)
    want = []
    for gamma in gammas:
        try:
            want.append((0, rate_margin(brk, gamma)))
        except ConfigError:
            want.append((CONFIG, None))
        except RateUnachievableError:
            want.append((INFEASIBLE, None))
    assert [kind for kind, _ in want] == [CONFIG, CONFIG, CONFIG, 0,
                                          INFEASIBLE, CONFIG]
    for shape in ((6,), (2, 3)):
        lanes = Lanes(gamma=np.array(gammas).reshape(shape))
        with np.errstate(all="ignore"):
            margin = rate_margin(brk, lanes.gamma, lanes)
        assert margin.shape == lanes.fail.shape == shape
        got = [(kind, value if kind == 0 else None) for kind, value
               in zip(lanes.fail.ravel().tolist(), margin.ravel().tolist())]
        assert got == want, shape
    # numpy's power differs from Python's in the last bit for about 5% of
    # these rates; each lane holds the scalar's margin or its error kind
    rates = np.random.default_rng(5).uniform(0.05, 12.0, 200)
    lanes = Lanes(gamma=rates)
    margin = rate_margin(brk, rates, lanes)
    for gamma, kind, value in zip(rates.tolist(), lanes.fail.tolist(),
                                  margin.tolist()):
        try:
            assert (kind, value) == (0, rate_margin(brk, gamma)), gamma
        except RateUnachievableError:
            assert kind == INFEASIBLE, gamma


def test_lanes_broadcast_their_arrays():
    # K as a column and M as a row are one (K, M) grid of lanes: lane()
    # reads them in row-major order, and a check stacked over candidates
    # fails a lane where any candidate fails
    lanes = Lanes(M=np.arange(1, 4), K=np.array([[10], [50]]))
    assert lanes.fail.shape == (2, 3)
    assert [lanes.lane(i) for i in (0, 2, 4)] == [
        {"M": 1, "K": 10}, {"M": 3, "K": 10}, {"M": 2, "K": 50}]
    assert type(lanes.lane(5)["K"]) is int
    assert Lanes(gamma=np.array([0.5, 2.0])).lane(1) == {"gamma": 2.0}
    lanes.config_error(lanes.K <= 20)                 # a check over K only
    candidates = np.ones((2, 2, 3), bool)
    candidates[1, 0, 1] = False
    lanes.infeasible(candidates)
    assert lanes.fail.tolist() == [[0, INFEASIBLE, 0], [CONFIG] * 3]


def test_records_are_tuples_with_named_fields():
    brk = SinrBreakdown(S=1.0, I_PC=0.5, I_MU_scaled=2.0)
    assert isinstance(brk, tuple) and brk.I_PC == 0.5
    assert repr(brk) == "SinrBreakdown(S=1.0, I_PC=0.5, I_MU_scaled=2.0)"
    assert DerivedScalars._fields == ("L_bar1", "L_bar2", "nu1", "nu2", "xi",
                                      "tau_u")


def test_scalar_evaluation_returns_plain_floats():
    # the formulas also take an array of RRH counts; a numpy scalar leaking
    # into a scalar evaluation would slow every per-n and per-K point
    for cfg, n in ((CFG, 17),
                   (CFG.replace(M=1, pilot_noise_mode="negligible"), 178)):
        design = Design(cfg, PM, 2.0)
        for record in (sinr_breakdown(cfg), design.point(n)):
            assert {type(v) for v in record} == {float}, record
        scalars = derived_scalars(cfg)
        assert {type(v) for v in scalars[:-1]} == {float}, scalars
        assert type(design.margin) is float and type(design.n_min) is int


def test_breakdown_over_lanes_has_the_bits_of_each_m():
    # one breakdown over M = 1..60 holds, per M, the scalar's bits: Python's
    # float power, which numpy's differs from in the last bit for some M;
    # so does one over K = 1..T/psi (in negligible mode only I_MU' varies)
    rng = np.random.default_rng(11)
    for _ in range(20):
        cfg = CFG.replace(iota=float(rng.uniform(2.0, 4.0)),
                          pilot_noise_mode=str(rng.choice(["exact",
                                                           "negligible"])),
                          alpha1=float(rng.uniform(0.0, 1.0)),
                          psi=int(rng.choice([1, 7])))
        for name, counts in (("M", range(1, 61)),
                             ("K", range(1, cfg.T // cfg.psi + 1))):
            lanes = Lanes(**{name: np.array(counts)})
            got = sinr_breakdown(cfg, lanes)
            want = [sinr_breakdown(cfg.replace(**{name: count}))
                    for count in counts]
            assert not lanes.fail.any()
            for field, values in zip(SinrBreakdown._fields, got):
                assert np.broadcast_to(values, len(counts)).tolist() == [
                    getattr(w, field) for w in want], (name, field)


@pytest.mark.parametrize("check,kind,other", [
    ("config_error", CONFIG, INFEASIBLE), ("infeasible", INFEASIBLE, CONFIG)])
def test_lane_checks_mark_only_unmarked_lanes(check, kind, other):
    # a check takes one bool for every lane or a bool per lane, raises
    # nothing (returns False), and marks only the lanes still at 0, so a
    # lane keeps the kind of its first error; one that passes marks nothing
    lanes = Lanes(M=np.arange(1, 6))
    lanes.fail[1] = other
    mark = getattr(lanes, check)
    for ok in (True, np.True_, np.ones(5, bool), np.ones((2, 5), bool)):
        assert mark(ok) is False
        assert lanes.fail.tolist() == [0, other, 0, 0, 0]
    assert mark(np.array([True, False, False, True, True])) is False
    assert lanes.fail.tolist() == [0, other, kind, 0, 0]
    # stacked candidates: a lane fails where any of its candidates fails
    assert mark(np.array([[True, True, True, False, True],
                          [True, False, True, True, True]])) is False
    assert lanes.fail.tolist() == [0, other, kind, kind, 0]
    for ok in (False, np.False_):   # every lane fails
        lanes.fail[[0, 4]] = 0
        assert mark(ok) is False
        assert lanes.fail.tolist() == [kind, other, kind, kind, kind]


@pytest.mark.parametrize("gamma", [2.0])
def test_lanes_of_any_shape_equal_a_record_per_point(gamma):
    # a (1, 3) row of RRH counts at a (2, 1) column of n is a (2, 3) grid
    # of points
    design = Design(CFG, PM, gamma, Lanes(M=np.arange(5, 8)[None, :]))
    with np.errstate(all="ignore"):
        ee, p_d, p_total = design.point(np.array([[20.0], [30.0]]))
    assert ee.shape == (2, 3) and not design.lanes.fail.any()
    for i, n in enumerate((20, 30)):
        for j, M in enumerate((5, 6, 7)):
            ref = operating_point(CFG.replace(M=M), PM, gamma, n=n)
            assert (ee[i, j], p_d[i, j], p_total[i, j]) == ref, (n, M)


@pytest.mark.parametrize("gamma", [2.0, 6.0])
def test_n_evaluator_equals_a_record_per_n(gamma):
    # the evaluator computes the n-free terms once; every point must still
    # equal operating_point on its own record, None where that raises
    for cfg, pm in ((CFG, PM), (CFG.replace(psi=7, d=2, K=3),
                                PM.replace(P_0=8.25, P_BT=2.5e-9))):
        design = Design(cfg, pm, gamma)
        for n in range(1, 90):
            try:
                ref = operating_point(cfg.replace(n=n), pm, gamma)
            except InfeasibleAntennasError:
                ref = None
            assert design.point(n) == ref, (cfg, gamma, n)
            assert design.ee(n) == (None if ref is None else ref.ee)
            assert design.transmit_power(n) == (None if ref is None
                                                else ref.p_d)
        n_min = design.n_min   # the first feasible n
        assert design.point(n_min) is not None
        assert n_min == 1 or design.point(n_min - 1) is None


def test_rate_above_ceiling_rejected():
    brk = sinr_breakdown(CFG)
    ceiling = math.log2(1.0 + brk.S / brk.I_PC)
    with pytest.raises(RateUnachievableError):
        min_antennas(CFG, brk, ceiling + 0.01)
    assert min_antennas(CFG, brk, ceiling - 0.01) > 0


def test_total_power_static_floor():
    # traffic terms vanish with zero rate and vanishing transmit power
    floor = total_power_at_se(CFG, PM, se=0.0, n=20, p_d=1e-300)
    assert math.isclose(floor, 9.0 + 20 * 7 * 0.2 + 7 * 0.825, rel_tol=1e-12)


def test_total_power_matches_reference_optimum():
    # back-computed from the reference joint optimum: 379.6 Mbit/s at
    # 10.12 Mbits/J requires ~37.5 W total
    cfg = CFG.replace(M=5, n=17)
    ptot = Design(cfg, PM, 2.0).point(17).p_total
    assert abs(ptot - 37.51) / 37.51 < 0.005


def test_total_power_linear_in_rrh_power():
    p_d = 0.3
    se = (CFG.T - CFG.tau_u) / CFG.T * CFG.K * 2.0
    base = total_power_at_se(CFG, PM, se, n=20, p_d=p_d)
    doubled = total_power_at_se(CFG, PM.replace(P_RRH=0.4), se, n=20, p_d=p_d)
    assert math.isclose(doubled - base, 20 * 7 * 0.2, rel_tol=1e-12)


@pytest.mark.parametrize("pm", [PM.replace(zeta=5e-324),
                                PM.replace(P_BT=1e300),
                                PM.replace(P_0=1e308),
                                PM.replace(P_FIX=1.7e308, P_RRH=1e306)])
def test_non_finite_total_power_is_a_config_error(pm):
    # the one power sum checks its result: an overflowing power model is a
    # ConfigError naming its fields, at fixed p_d and at a rate gamma
    se = (CFG.T - CFG.tau_u) / CFG.T * CFG.K * 2.0
    message = "P_FIX, P_RRH, zeta, P_0, P_BT"
    with pytest.raises(ConfigError, match=message):
        total_power_at_se(CFG, pm, se)
    with pytest.raises(ConfigError, match=message):
        Design(CFG, pm, 2.0).ee(20)
    for gamma in (None, 2.0):
        with pytest.raises(ConfigError, match=message):
            operating_point(CFG, pm, gamma)
    # a point too few antennas for gamma is still None, not an error
    assert Design(CFG, pm, 2.0).point(1) is None


def test_rate_of_a_tiny_sinr_is_not_zero():
    # log2(1 + SINR) rounds to 0 where 1 + SINR == 1; the rate there is its
    # first-order value SINR / ln 2, and every other rate keeps log2(1 + SINR)
    cfg = CFG.replace(K=3)
    fraction = (cfg.T - cfg.tau_u) / cfg.T
    for sinr in ([1e-300] * 3, [5e-324, 1e-17, 1e-200]):
        exact = sum(sorted(s / math.log(2.0) for s in sinr))
        assert math.isclose(rate_from_sinr(cfg, sinr), fraction * exact,
                            rel_tol=1e-15)
    for sinr in ([1e-15, 0.3, 5.0], [0.0, 2.0, 1e-300], [3.0] * 3):
        rates = [s / math.log(2.0) if 1.0 + s == 1.0 else math.log2(1.0 + s)
                 for s in sinr]
        assert rate_from_sinr(cfg, sinr) == float(
            fraction * np.sort(np.array(rates)).sum())


def test_zero_data_symbols_zero_efficiency():
    # pilots consume the whole interval; n large enough to stay feasible
    cfg = CFG.replace(K=196, psi=1, n=150)
    assert energy_efficiency(cfg, PM, 2.0) == 0.0


def test_efficiency_composition_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        cfg = CFG.replace(M=int(rng.integers(1, 9)),
                          K=int(rng.integers(2, 40)),
                          d=int(rng.choice([1, 2])),
                          n=int(rng.integers(5, 120)))
        gamma = float(rng.uniform(0.3, 3.0))
        try:
            ee = energy_efficiency(cfg, PM, gamma)
        except (InfeasibleAntennasError, RateUnachievableError):
            continue
        p_d = Design(cfg, PM, gamma).transmit_power(cfg.n)
        se = (cfg.T - cfg.tau_u) / cfg.T * cfg.K * gamma
        assert math.isclose(ee * total_power_at_se(cfg, PM, se, p_d=p_d),
                            cfg.B * se, rel_tol=1e-12)


def test_bandwidth_invariant_argmax():
    def argmax_n(B):
        best = (-1.0, None)
        for n in range(8, 60):
            try:
                best = max(best, (energy_efficiency(CFG.replace(B=B), PM, 2.0,
                                                    n=n), n))
            except InfeasibleAntennasError:
                continue
        return best[1]

    assert argmax_n(20e6) == argmax_n(200e6) == argmax_n(5e6)


def test_reference_curve_peaks_at_eleven():
    # with-PC EE curve at the calibrated defaults peaks at n = 11
    values = {}
    for n in range(8, 40):
        try:
            values[n] = energy_efficiency(CFG, PM, 2.0, n=n)
        except InfeasibleAntennasError:
            continue
    assert max(values, key=values.get) == 11


def test_large_scale_gains_tensor():
    gains = large_scale_gains(CFG)
    assert gains.shape == (7, 7, 7, 10)
    # cross-cell entries are uniform at alpha2*beta
    assert np.allclose(gains[1, :, 0, :], CFG.alpha2 * CFG.beta)
    # per user: one serving RRH, M-1 secondary own-cell RRHs
    own = gains[0, :, 0, :]
    assert np.isclose(own.max(axis=0), 7 ** 1.25 * CFG.beta).all()
    assert (np.isclose(own, CFG.alpha1 * CFG.beta).sum(axis=0) == 6).all()
