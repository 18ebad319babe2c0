import dataclasses
import math
import sys

import numpy as np
import pytest

from dasee.asymptotic import energy_efficiency, sinr_breakdown
from dasee.config import (_RULES, ConfigError, _pow, PowerModel, SystemConfig,
                          dbm_from_watts, derived_scalars, load_scenario,
                          validate_config, watts_from_dbm, write_scenario)
from dasee.montecarlo import (empirical_ee, generate_realization,
                              steering_matrix)


def test_reference_defaults_accepted():
    cfg = SystemConfig(L=7, M=7, K=10, psi=1)
    pm = PowerModel()
    assert validate_config(cfg, pm) is cfg
    assert pm.zeta == 0.4 and cfg.T == 196 and cfg.B == 20e6
    assert pm.P_0 == 0.825 and pm.P_BT == 0.25e-9
    assert pm.P_FIX == 9.0 and pm.P_RRH == 0.2 and cfg.sigma2 == 1e-7


def test_pilot_overflow_rejected():
    with pytest.raises(ConfigError, match=r"psi\*K exceeds T"):
        validate_config(SystemConfig(K=200, psi=1, T=196))


def test_steering_divisibility_rejected():
    # only the simulation materializes P = n/d steering columns
    cfg = SystemConfig(n=15, d=2)
    with pytest.raises(ConfigError, match="n not divisible by d"):
        generate_realization(cfg, steering_matrix(15, 7), seed=0)
    with pytest.raises(ConfigError, match="n not divisible by d"):
        empirical_ee(cfg, PowerModel(), 2, seed=1)
    # the closed-form path admits any integer n
    assert energy_efficiency(cfg, PowerModel(), 2.0) > 0


def test_records_are_valid_when_built():
    with pytest.raises(ConfigError, match=r"psi\*K exceeds T"):
        SystemConfig(K=200)
    with pytest.raises(ConfigError, match="psi exceeds L"):
        SystemConfig().replace(psi=9)
    with pytest.raises(ConfigError, match="zeta exceeds 1"):
        PowerModel(zeta=1.2)
    with pytest.raises(ConfigError, match="P_RRH"):
        PowerModel().replace(P_RRH=-1.0)
    with pytest.raises(TypeError):
        validate_config(SystemConfig(), analytic=True)


@pytest.mark.parametrize("record,name", [
    (record, f.name) for record in (SystemConfig, PowerModel)
    for f in dataclasses.fields(record) if f.type == "float"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_fields_rejected(record, name, value):
    with pytest.raises(ConfigError, match=name):
        record(**{name: value})


@pytest.mark.parametrize("field,value", [
    ("psi", 9), ("L", 0), ("beta", -1.0), ("alpha1", 1.5), ("alpha2", -0.1),
    ("p_u", 0.0), ("sigma2", -2.0), ("pilot_noise_mode", "sometimes"),
])
def test_invalid_fields_rejected(field, value):
    with pytest.raises(ConfigError):
        validate_config(SystemConfig(**{field: value}))


def test_power_model_validated():
    with pytest.raises(ConfigError, match="zeta"):
        validate_config(SystemConfig(), PowerModel(zeta=1.2))
    with pytest.raises(ConfigError, match="P_RRH"):
        validate_config(SystemConfig(), PowerModel(P_RRH=0.0))


def test_derived_scalars_reference_point():
    # M=7, iota=2.5, a1=0.54, a2=0.075, L=7, psi=1
    ds = derived_scalars(SystemConfig())
    assert math.isclose(ds.L_bar1, 7 ** 1.25 + 0.45, rel_tol=1e-12)
    assert math.isclose(ds.L_bar1, 11.8360359318845, rel_tol=1e-12)
    assert math.isclose(ds.L_bar2, 0.99, rel_tol=1e-12)
    assert ds.tau_u == 10


def test_orthogonal_pilots_kill_copilot_terms():
    ds = derived_scalars(SystemConfig(psi=7))
    assert math.isclose(ds.L_bar1, 7 ** 1.25, rel_tol=1e-14)
    assert math.isclose(ds.L_bar2, 0.54, rel_tol=1e-14)


def test_colocated_interference_coefficient():
    # M=1, alpha1=0 -> xi = 1 + alpha2*(L-1)
    ds = derived_scalars(SystemConfig(M=1, alpha1=0.0))
    assert math.isclose(ds.xi, 1.0 + 0.075 * 6, rel_tol=1e-14)


def test_copilot_excess_nonnegative():
    # L_bar1 - M^(iota/2) = alpha2*(L/psi - 1) >= 0, zero iff psi = L
    for psi in (1, 7):
        for M in (1, 3, 7):
            cfg = SystemConfig(M=M, psi=psi)
            ds = derived_scalars(cfg)
            excess = ds.L_bar1 - M ** (cfg.iota / 2)
            assert math.isclose(excess, cfg.alpha2 * (cfg.L / psi - 1),
                                rel_tol=1e-12, abs_tol=1e-15)
            assert excess >= 0.0
            assert (excess == 0.0) == (psi == cfg.L)


def test_negligible_mode_is_high_pilot_power_limit():
    base = SystemConfig(pilot_noise_mode="negligible")
    limit = derived_scalars(base)
    for p_u in (1e-2, 1.0, 1e2, 1e4):
        exact = derived_scalars(base.replace(pilot_noise_mode="exact", p_u=p_u))
        cfg = base.replace(p_u=p_u)
        energy = p_u * cfg.tau_u * cfg.d
        rel1 = abs(exact.nu1 / limit.nu1 - 1.0)
        # documented convergence threshold
        if energy * limit.L_bar1 * cfg.beta > 1e3 * cfg.sigma2:
            assert rel1 < 1e-3
        assert exact.nu1 < limit.nu1  # noise only degrades the estimate
    near = derived_scalars(base.replace(pilot_noise_mode="exact", p_u=1e9))
    assert math.isclose(near.nu1, limit.nu1, rel_tol=1e-6)
    assert math.isclose(near.nu2, limit.nu2, rel_tol=1e-6)


def test_gainless_group_has_zero_quality_factor():
    # alpha1 = 0 without co-pilot cells: L_bar2 = 0, and nu2 is 0 rather
    # than 1/0; the SINR powers match exact mode's limit
    cfg = SystemConfig(psi=7, alpha1=0.0, pilot_noise_mode="negligible")
    scalars = derived_scalars(cfg)
    assert scalars.L_bar2 == 0.0 and scalars.nu2 == 0.0
    brk = sinr_breakdown(cfg)
    near = sinr_breakdown(cfg.replace(pilot_noise_mode="exact", p_u=1e9))
    assert math.isclose(brk.S, near.S, rel_tol=1e-6) and brk.I_PC == 0.0


@pytest.mark.parametrize("alpha1", [1e-310, 5e-324])
def test_underflowing_group_gain_is_gainless(alpha1):
    # L_bar2 * beta too small for 1/(L_bar2 * beta) to be a double: nu2 was
    # inf (NaN SINR powers, a NaN row marked feasible) or, where the product
    # underflows to 0, a ZeroDivisionError; the group is gainless instead
    cfg = SystemConfig(psi=7, alpha1=alpha1, pilot_noise_mode="negligible")
    assert derived_scalars(cfg).nu2 == 0.0
    gainless = sinr_breakdown(cfg.replace(alpha1=0.0))
    assert sinr_breakdown(cfg) == gainless


def test_subnormal_gain_is_beyond_the_double_range():
    # nu1 = 1/(L_bar1 * beta) overflows to inf and beta^2 * inf is NaN
    cfg = SystemConfig(beta=5e-324, pilot_noise_mode="negligible")
    with pytest.raises(ConfigError, match="double range"):
        sinr_breakdown(cfg)


class _Reads:
    """A record stand-in that notes every field read through it."""

    def __init__(self, record):
        self.record, self.names = record, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.record, name)


@pytest.mark.parametrize("record", [SystemConfig(), PowerModel()])
def test_rules_name_every_field_they_read(record):
    # replace re-runs only the rules that read a changed field, which is
    # complete only if each rule names all the fields its check reads
    for fields, check in _RULES[type(record)]:
        reads = _Reads(record)
        check(reads)
        assert reads.names and reads.names <= set(fields), (fields, reads.names)


def test_dbm_round_trip():
    assert math.isclose(watts_from_dbm(30.0), 1.0, rel_tol=1e-12)
    assert math.isclose(watts_from_dbm(-40.0), 1e-7, rel_tol=1e-12)
    for watts in (1e-7, 0.5, 2.0):
        assert math.isclose(watts_from_dbm(dbm_from_watts(watts)), watts,
                            rel_tol=1e-12)
    # beyond 1.8e305 W the milliwatts overflow; the dBm stay finite
    assert dbm_from_watts(1.0) == 30.0
    for watts in (1.797693134862316e+305, 1e306, sys.float_info.max):
        assert dbm_from_watts(watts) == 10.0 * math.log10(watts) + 30.0


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "scenario.cfg"
    for cfg, pm in ((SystemConfig(M=5, K=12, n=24, d=2, beta=3.3e-8, p_u=0.7),
                     PowerModel(P_RRH=0.31)),
                    # the largest counts, where every integer is a double
                    (SystemConfig(n=2 ** 53, T=2 ** 53), PowerModel())):
        write_scenario(cfg, pm, path)
        cfg2, pm2 = load_scenario(path)
        assert cfg2 == cfg and pm2 == pm


@pytest.mark.parametrize("name", ["L", "M", "K", "n", "psi", "T", "d"])
def test_every_count_is_at_most_2_to_the_53(name):
    # each integer up to 2^53 is a double, so the closed forms compute with
    # every count exactly; 2^53 + 1 is not one, so no count may be it
    base = dict(L=2 ** 53, K=1, T=2 ** 53)   # room for psi and K at 2^53
    assert getattr(SystemConfig(**{**base, name: 2 ** 53}), name) == 2 ** 53
    assert getattr(SystemConfig(**base).replace(**{name: 2 ** 53}),
                   name) == 2 ** 53
    message = f"^{name} must be at most 2\\^53, got {2 ** 53 + 1}$"
    with pytest.raises(ConfigError, match=message):
        SystemConfig(**{**base, name: 2 ** 53 + 1})
    with pytest.raises(ConfigError, match=message):
        SystemConfig(**base).replace(**{name: 2 ** 53 + 1})
    with pytest.raises(ConfigError, match="positive integer"):
        SystemConfig(**{**base, name: 0})


def test_config_file_dbm_and_overrides(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("# comment\np_d_dbm = 30\nK = 12\n")
    cfg, _ = load_scenario(path, overrides={"K": 14})
    assert math.isclose(cfg.p_d, 1.0, rel_tol=1e-12)
    assert cfg.K == 14


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_scenario(overrides={"bandwidth": 1.0})


@pytest.mark.parametrize("shape", [(6,), (2, 3), (3, 1, 2), ()])
def test_pow_of_bases_of_any_shape_is_pythons_power(shape):
    # element by element the bits of Python's ``**``, inf where that
    # overflows, in the shape of the bases
    bases = [1.0, 7.0, 1e300, 3.5, 1e10, 2.0][:max(1, math.prod(shape))]
    for exponent in (2.5, 1.25, 2):
        want = []
        for base in bases:
            try:
                want.append(base ** exponent)
            except OverflowError:
                want.append(math.inf)
        got = _pow(np.array(bases).reshape(shape), exponent)
        assert got.shape == shape
        assert got.ravel().tolist() == want
        assert (math.inf in want) == (len(bases) > 2)   # 1e300 ** exponent
