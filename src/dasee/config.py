"""System parameters, power-model parameters, and derived scalar quantities.

All powers are kept in watts internally; dBm values are converted at the
configuration boundary (``*_dbm`` keys in config files, ``--*-dbm`` CLI
flags).  Every type here is an immutable value record and every function is
pure, so they are safe to share across threads.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

PILOT_NOISE_MODES = ("exact", "negligible")
# Every count (L, M, K, n, psi, T, d, an n or M_max argument) is at most
# 2^53: each integer up to it is a double, so the closed forms compute
# with every count exactly, and a product of two counts rounds once.
MAX_COUNT = 2 ** 53


class ConfigError(ValueError):
    """A configuration violates a model invariant."""


def watts_from_dbm(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def dbm_from_watts(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError("power must be positive to convert to dBm")
    milliwatts = watts * 1000.0
    if math.isinf(milliwatts):   # watts beyond the double range over 1000
        return 10.0 * math.log10(watts) + 30.0
    return 10.0 * math.log10(milliwatts)


@dataclass(frozen=True)
class SystemConfig:
    """Scalar parameters of the multi-cell distributed-antenna downlink."""

    L: int = 7              # number of cells
    M: int = 7              # RRHs per cell
    K: int = 10             # users per cell
    n: int = 20             # antennas per RRH (N = n*M per cell)
    psi: int = 1            # pilot reuse factor (1 = full reuse, L = orthogonal)
    T: int = 196            # coherence interval, symbols
    B: float = 20e6         # system bandwidth, Hz
    d: int = 1              # correlation factor; P = n/d steering directions
    iota: float = 2.5       # path-loss exponent
    Rc: float = 2000.0      # cell radius, m
    beta: float = 2.24e-8   # average large-scale gain (calibrated, Rc = 2 km)
    alpha1: float = 0.54    # intra-cell interference factor (non-serving RRHs)
    alpha2: float = 0.075   # inter-cell interference factor
    p_u: float = 0.5        # uplink pilot power, W
    p_d: float = 1.0        # downlink transmit power, W (fixed-power mode)
    sigma2: float = 1e-7    # total noise power, W (-40 dBm)
    pilot_noise_mode: str = "exact"

    def __post_init__(self):
        validate_config(self)

    @property
    def tau_u(self) -> int:
        """Pilot length in symbols."""
        return self.psi * self.K

    @property
    def P(self) -> int:
        """Degrees of freedom per RRH channel (steering-matrix columns)."""
        return self.n // self.d

    def replace(self, **changes) -> "SystemConfig":
        return _derive(self, changes)


def override(cfg: SystemConfig, **changes) -> SystemConfig:
    """``cfg`` with the entries of ``changes`` that are not None applied."""
    changes = {k: v for k, v in changes.items() if v is not None}
    return cfg.replace(**changes) if changes else cfg


@dataclass(frozen=True)
class PowerModel:
    """Per-cell power consumption parameters."""

    P_FIX: float = 9.0      # static circuit power, W
    P_RRH: float = 0.2      # power per RRH antenna, W
    P_0: float = 0.825      # fixed power per backhaul link, W
    P_BT: float = 0.25e-9   # traffic-dependent backhaul power, W per bit/s
    zeta: float = 0.4       # power-amplifier efficiency

    def __post_init__(self):
        validate_config(None, self)

    def replace(self, **changes) -> "PowerModel":
        return _derive(self, changes)


class DerivedScalars(NamedTuple):
    """Scalar aggregates shared by the closed-form SINR and the optimizers."""

    L_bar1: float   # effective co-pilot gain sum seen by the serving RRH
    L_bar2: float   # same, seen by the non-serving own-cell RRHs
    nu1: float      # estimation-quality factor of the serving-RRH link
    nu2: float      # estimation-quality factor of the other own-cell links
    xi: float       # per-user multi-user interference coefficient
    tau_u: int      # pilot length, symbols


def _require_count(name: str, value) -> None:
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    if value > MAX_COUNT:
        raise ConfigError(f"{name} must be at most 2^53, got {value!r}")


def _require_seed(seed) -> None:
    if isinstance(seed, (int, np.integer)) and seed < 0:   # not a Generator
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


# Every invariant of a record is one rule: the fields it reads and a check
# that raises ConfigError naming its violation.  validate_config runs the
# rules of a record in the order listed, so the first violation is reported.

def _count(name):
    return (name,), lambda r: _require_count(name, getattr(r, name))


def _positive(name):
    def check(r):
        if getattr(r, name) <= 0.0:
            raise ConfigError(f"{name} must be positive")
    return (name,), check


def _unit_interval(name):
    def check(r):
        if not 0.0 <= getattr(r, name) <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1]")
    return (name,), check


def _finite(name):
    def check(r):
        if not math.isfinite(getattr(r, name)):
            raise ConfigError(f"{name} must be finite")
    return (name,), check


def _rule(fields: str, violated, message: str):
    def check(r):
        if violated(r):
            raise ConfigError(message)
    return tuple(fields.split()), check


def _known_mode(cfg):
    if cfg.pilot_noise_mode not in PILOT_NOISE_MODES:
        raise ConfigError(
            f"pilot_noise_mode must be one of {PILOT_NOISE_MODES}, "
            f"got {cfg.pilot_noise_mode!r}")


_FLOAT_FIELDS = {cls: tuple(f.name for f in dataclasses.fields(cls) if f.type == "float")
                 for cls in (SystemConfig, PowerModel)}
_RULES = {
    PowerModel: (
        *map(_positive, ("P_FIX", "P_RRH", "P_0", "P_BT", "zeta")),
        _rule("zeta", lambda pm: pm.zeta > 1.0, "zeta exceeds 1"),
        *map(_finite, _FLOAT_FIELDS[PowerModel]),
    ),
    SystemConfig: (
        *map(_count, ("L", "M", "K", "n", "psi", "T", "d")),
        _rule("psi L", lambda c: c.psi > c.L, "psi exceeds L"),
        _rule("L psi", lambda c: c.L % c.psi != 0, "L not divisible by psi"),
        _rule("psi K T", lambda c: c.psi * c.K > c.T, "psi*K exceeds T"),
        *map(_positive, ("B", "Rc", "beta", "p_u", "p_d", "sigma2", "iota")),
        *map(_unit_interval, ("alpha1", "alpha2")),
        (("pilot_noise_mode",), _known_mode),
        *map(_finite, _FLOAT_FIELDS[SystemConfig]),
    ),
}


def validate_config(cfg: SystemConfig | None,
                    pm: PowerModel | None = None) -> SystemConfig | None:
    """Check every invariant; raise ConfigError naming the first violation.

    Both records call this when they are built, so one that exists is valid.
    The simulation checks n mod d = 0; the closed forms use d only as a scalar.
    """
    for record in (pm, cfg):
        if record is not None:
            for _, check in _RULES[type(record)]:
                check(record)
    return cfg


def _derive(record, changes: dict):
    """``record`` with ``changes`` applied, as its constructor would build it.

    Only the rules that read a changed field run: ``record`` was valid when
    it was built and cannot change, so every other rule still holds, and
    the rules that run keep their order, so the first violation is the one
    the constructor reports.
    """
    cls = type(record)
    for name in changes:
        if name not in cls.__dataclass_fields__:
            raise TypeError(f"{cls.__name__}.__init__() got an unexpected "
                            f"keyword argument {name!r}")
    derived = object.__new__(cls)
    derived.__dict__.update(record.__dict__)
    derived.__dict__.update(changes)
    for check in _rules_reading(cls, frozenset(changes)):
        check(derived)
    return derived


@functools.cache
def _rules_reading(cls, names: frozenset) -> tuple:
    """The checks of ``cls``'s rules that read any of ``names``, in order."""
    return tuple(check for fields, check in _RULES[cls]
                 if not names.isdisjoint(fields))


def _pow(base, exponent):
    """``base ** exponent`` by Python's float power, also over an array of
    bases of any shape (numpy's power differs from it in the last bit for
    some), where a power beyond the double range is inf instead of an
    OverflowError.  math.pow and ``**`` both return the C library's pow."""
    if not isinstance(base, np.ndarray):
        return base ** exponent
    if base.ndim != 1:
        return _pow(base.ravel(), exponent).reshape(base.shape)
    values = base.tolist()
    try:
        return np.fromiter(map(math.pow, values, repeat(exponent)),
                           float, len(values))
    except OverflowError:
        powers = []
        for value in values:
            try:
                powers.append(value ** exponent)
            except OverflowError:
                powers.append(math.inf)
        return np.array(powers)


def derived_scalars(cfg: SystemConfig) -> DerivedScalars:
    """Aggregate scalars of the averaged interference model.

    In ``negligible`` pilot-noise mode the noise term is dropped from the
    estimation-quality factors, which then reduce to 1/(L_bar * beta).
    L_bar2 = 0 (alpha1 = 0, no co-pilot cell) gives nu2 = 0: nu2 only enters
    the SINR multiplied by alpha1, so those terms are 0 as in exact mode.
    So does an L_bar2 * beta too small for its inverse to be a double.
    """
    return _derived_scalars(cfg, cfg.M, cfg.K, _pow(cfg.M, cfg.iota / 2.0))


def _derived_scalars(cfg: SystemConfig, M, K, m_half) -> DerivedScalars:
    """``derived_scalars`` at M, given its M^(iota/2) ``m_half``, and K; at
    an array of counts, per count the bits of the scalar evaluation."""
    L, alpha1, alpha2, beta = cfg.L, cfg.alpha1, cfg.alpha2, cfg.beta
    copilot = alpha2 * (L / cfg.psi - 1.0)
    l_bar1 = m_half + copilot
    l_bar2 = alpha1 + copilot
    tau_u = cfg.psi * K
    if cfg.pilot_noise_mode == "negligible":
        nu1 = 1.0 / (l_bar1 * beta)
        gain2 = l_bar2 * beta
        nu2 = 1.0 / gain2 if gain2 > 0.0 else 0.0
        if nu2 == math.inf:
            nu2 = 0.0
    else:
        energy = cfg.p_u * tau_u * cfg.d
        nu1 = energy / (cfg.sigma2 + energy * l_bar1 * beta)
        nu2 = energy / (cfg.sigma2 + energy * l_bar2 * beta)
    xi = m_half / M + (1.0 - 1.0 / M) * alpha1 + alpha2 * (L - 1)
    return DerivedScalars(l_bar1, l_bar2, nu1, nu2, xi, tau_u)


# --- configuration files -------------------------------------------------

_SYSTEM_FIELDS = {f.name: f.type for f in dataclasses.fields(SystemConfig)}
_POWER_FIELDS = {f.name: f.type for f in dataclasses.fields(PowerModel)}
_DBM_CONVERTIBLE = ("p_u", "p_d", "sigma2")


def parse_config_file(path: str | Path) -> dict:
    """Read a key = value config file into a raw {key: string} dict.

    Blank lines and ``#`` comments are ignored.  Keys are the field names of
    SystemConfig and PowerModel; power keys also accept a ``_dbm`` suffix.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        raw[key] = value
    return raw


def _coerce(name: str, annotation: str, text: str):
    """The value of a config key's text, from a file line or a flag alike.
    Integer text of an int field is read exactly, so the count rule sees
    2^53 + 1 as itself."""
    if annotation == "str":
        return text
    if annotation == "int":
        try:
            return int(text)
        except ValueError:
            pass   # read as a float below: not integer text
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {text!r}") from None
    if annotation == "int":
        if not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {text!r}")
        return int(value)
    return value


def load_scenario(path: str | Path | None = None,
                  overrides: dict | None = None) -> tuple[SystemConfig, PowerModel]:
    """Defaults <- config file <- explicit overrides, validated."""
    sys_kw, pm_kw = _keywords(path, overrides)
    return SystemConfig(**sys_kw), PowerModel(**pm_kw)


def load_fields(names: tuple, path: str | Path | None = None,
                overrides: dict | None = None) -> SimpleNamespace:
    """The SystemConfig fields ``names`` as ``load_scenario`` resolves them,
    checked only by the rules that read no other field (not psi*K <= T)."""
    sys_kw, _ = _keywords(path, overrides)
    fields = SimpleNamespace(**{name: sys_kw.get(name, getattr(SystemConfig, name))
                                for name in names})
    for read, check in _RULES[SystemConfig]:
        if set(read) <= set(names):
            check(fields)
    return fields


def _keywords(path: str | Path | None,
              overrides: dict | None) -> tuple[dict, dict]:
    """The config file's raw key/value mapping <- the overrides that are
    not None, as SystemConfig and PowerModel arguments."""
    values: dict = {}
    if path is not None:
        values.update(parse_config_file(path))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    sys_kw: dict = {}
    pm_kw: dict = {}
    for key, text in values.items():
        name, dbm = key, False
        if key.endswith("_dbm") and key[:-4] in _DBM_CONVERTIBLE:
            name, dbm = key[:-4], True
        if name in _SYSTEM_FIELDS:
            target, ann = sys_kw, _SYSTEM_FIELDS[name]
        elif name in _POWER_FIELDS:
            target, ann = pm_kw, _POWER_FIELDS[name]
        else:
            raise ConfigError(f"unknown config key {key!r}")
        value = _coerce(name, ann, text) if not isinstance(text, (int, float)) \
            else text
        if dbm:
            try:
                value = watts_from_dbm(float(value))
            except OverflowError:
                raise ConfigError(f"{key} = {value!r} is out of range") from None
        target[name] = value
    return sys_kw, pm_kw


def write_scenario(cfg: SystemConfig, pm: PowerModel, path: str | Path) -> None:
    """Serialize a scenario as a config file readable by load_scenario."""
    lines = ["# system model"]
    for field in dataclasses.fields(SystemConfig):
        lines.append(f"{field.name} = {getattr(cfg, field.name)!r}".replace("'", ""))
    lines.append("# power model")
    for field in dataclasses.fields(PowerModel):
        lines.append(f"{field.name} = {getattr(pm, field.name)!r}")
    Path(path).write_text("\n".join(lines) + "\n")
