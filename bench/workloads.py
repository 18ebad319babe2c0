"""The three benchmark workloads: seeded inputs, timed ops, output checks.

A workload is a fixed list of ops (one *pass*) built from the workload
seed.  The harness runs whole passes in a closed loop with one caller; an
op takes its sequence number and returns an outcome, and every outcome is
checked after the timed section.  Infeasible optimizer results are valid
outcomes, recorded as ``Infeasible``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from dasee import asymptotic, cli, figures, montecarlo, optimize, rmt
from dasee.asymptotic import (InfeasibleAntennasError, RateUnachievableError,
                              energy_efficiency, min_antennas, sinr_breakdown)
from dasee.config import ConfigError, PowerModel, SystemConfig

# --- mc-validate ------------------------------------------------------------

MC_REALIZATIONS = 100        # R: Monte-Carlo realizations per grid point
MC_BOUND = 0.05              # criterion 1: relative DE-vs-MC EE error
MC_GRID = tuple((psi, K, n) for psi in (1, 7) for K in (10, 20)
                for n in range(10, 61, 10))
MC_CORNERS = tuple((psi, K, n) for psi in (1, 7) for K in (10, 20)
                   for n in (10, 60))

# --- design-explore ---------------------------------------------------------

DESIGN_SCENARIOS = 200       # scenarios per pass; scenario 0 is the reference
DESIGN_TRACED = 40           # scenarios of a pass a traced run covers
DESIGN_M_MAX = 30
FIGURES = tuple(range(3, 11))
# Ops per scenario and pass, chosen so that p50 falls inside the joint
# optimal_m ops and p90 inside the figure runners (see README.md).
DESIGN_MIX = (("optimal_n", 1), ("optimal_k", 1), ("optimal_m_fixed_n", 1),
              ("optimal_m", 3), ("figure", 2))
INFEASIBLE = (RateUnachievableError, optimize.OptimizationError)

# --- model-checks -----------------------------------------------------------

CAL_DROPS = 1000
RMT_CONFIGS = (SystemConfig(L=7, M=5, K=10, n=16),
               SystemConfig(L=7, M=7, K=14, n=20, d=2, psi=7))
RMT_BOUND = 1e-9
COV_CONFIG = SystemConfig(L=2, M=2, K=2, n=16, d=2, psi=1, p_u=1.0)
COV_BATCH = 2000             # generate_realization draws per op
COV_BOUND = 0.05
# (kind, count) per pass, chosen so that p50 falls inside rmt_large; the
# covariance check pools the draws of a pass (4 x 2000, criterion 7(e) used
# 10,000).
MODEL_MIX = (("rmt_small", 3), ("calibrate", 3), ("rmt_large", 5),
             ("covariance", 4))


@dataclass(frozen=True)
class Infeasible:
    """An optimizer or runner reported an infeasible problem."""

    error: str


@dataclass
class Op:
    kind: str
    run: Callable[[int], object]     # sequence number -> outcome
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]                    # one pass
    check: Callable                  # (records of a pass) -> {seq: failure}
    warm_up: Callable[[], None]
    trace_ops: int | None = None     # ops of a pass a --trace 1 run covers


def _quiet(fn, *args):
    """Call ``fn`` with stdout captured; return (result, captured text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        result = fn(*args)
    return result, buffer.getvalue()


def _ee_or_none(cfg, pm, gamma, **point):
    try:
        return energy_efficiency(cfg, pm, gamma, **point)
    except (InfeasibleAntennasError, RateUnachievableError, ConfigError):
        return None


def _finite_rows(header, rows) -> bool:
    """Rows are complete; each EE is NaN (infeasible) or finite and >= 0,
    and NaN exactly where a ``feasible`` column holds 0."""
    if not rows:
        return False
    ee_cols = [i for i, h in enumerate(header) if h.startswith("ee")]
    ok_col = header.index("feasible") if "feasible" in header else None
    for row in rows:
        if len(row) != len(header):
            return False
        for i in ee_cols:
            ee = row[i]
            if not (math.isnan(ee) or (math.isfinite(ee) and ee >= 0)):
                return False
            if ok_col is not None and math.isnan(ee) != (row[ok_col] == 0):
                return False
    return True


# --- mc-validate ------------------------------------------------------------

def mc_validate(seed: int, tmpdir: str, points=MC_GRID) -> Workload:
    """One in-process ``dasee mc-validate`` call per criterion-1 grid point."""

    def make(psi, K, n):
        def run(seq):
            out = os.path.join(tmpdir, f"mc-{seq}.csv")
            return cli.main(["mc-validate", "--psi", str(psi), "--K", str(K),
                             "--n-range", f"{n}:{n}", "--realizations",
                             str(MC_REALIZATIONS), "--seed", str(seed),
                             "--output", out])
        return Op("mc-validate", run, {"psi": psi, "K": K, "n": n})

    ops = [make(*point) for point in points]

    def check(records):
        failures = {}
        for seq, index, outcome in records:
            path = os.path.join(tmpdir, f"mc-{seq}.csv")
            if outcome != 0:
                failures[seq] = f"exit code {outcome!r}"
                continue
            with open(path, newline="") as handle:
                rows = list(csv.DictReader(handle))
            os.remove(path)
            if len(rows) != 1:
                failures[seq] = f"{len(rows)} rows"
                continue
            rel = float(rows[0]["rel_error"])
            ops[index].meta.setdefault("rel_errors", []).append(rel)
            if not (rows[0]["feasible"] == "1" and rel < MC_BOUND):
                failures[seq] = f"rel_error {rel!r} (bound {MC_BOUND})"
        return failures

    def warm_up():
        psi, K, n = min(points, key=lambda p: (p[1] * p[2]) / p[0])
        code = cli.main(["mc-validate", "--psi", str(psi), "--K", str(K),
                         "--n-range", f"{n}:{n}", "--realizations", "2",
                         "--seed", str(seed),
                         "--output", os.path.join(tmpdir, "warm-up.csv")])
        os.remove(os.path.join(tmpdir, "warm-up.csv"))
        if code != 0:
            raise RuntimeError(f"warm-up mc-validate exited {code}")

    return Workload("mc-validate", ops, check, warm_up)


# --- design-explore ---------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    cfg: SystemConfig
    pm: PowerModel
    gamma: float
    figure: int


def design_scenarios(seed: int,
                     count: int = DESIGN_SCENARIOS) -> list[Scenario]:
    """Random designs over the ranges of acceptance criteria 3 and 4.

    Scenario 0 is the reference point (defaults, gamma = 2), whose optima
    are known: n* = 11, joint (M*, n*) = (5, 17), K*(n = 20) = 24 +- 1.
    K stays below T / psi, so every design keeps data symbols.
    """
    rng = np.random.default_rng(seed)
    base = SystemConfig()
    out = [Scenario(base, PowerModel(), 2.0, FIGURES[0])]
    for i in range(1, count):
        psi = int(rng.choice([1, 7]))
        k_max = (base.T - 1) // psi
        pm = PowerModel(P_FIX=9.0 * rng.uniform(0.5, 1.5),
                        P_RRH=0.2 * rng.uniform(0.5, 1.5),
                        P_0=0.825 * rng.uniform(0.5, 1.5),
                        P_BT=0.25e-9 * rng.uniform(0.5, 1.5),
                        zeta=min(1.0, 0.4 * rng.uniform(0.5, 1.5)))
        cfg = base.replace(M=int(rng.integers(1, 11)),
                           K=int(rng.integers(5, min(50, k_max) + 1)),
                           n=int(rng.integers(5, 101)),
                           d=int(rng.integers(1, 3)), psi=psi,
                           sigma2=1e-7 * rng.uniform(0.5, 1.5))
        gamma = float(rng.uniform(0.5, 4.0))
        out.append(Scenario(cfg, pm, gamma, FIGURES[i % len(FIGURES)]))
    return out


def _design_op(kind: str, sc: Scenario) -> Callable[[int], object]:
    cfg, pm, gamma = sc.cfg, sc.pm, sc.gamma
    if kind == "optimal_n":
        call = lambda: optimize.optimal_n(cfg, pm, gamma)  # noqa: E731
    elif kind == "optimal_k":
        call = lambda: optimize.optimal_k(cfg, pm, gamma)  # noqa: E731
    elif kind == "optimal_m":
        call = lambda: optimize.optimal_m(  # noqa: E731
            cfg, pm, gamma, M_max=DESIGN_M_MAX)
    elif kind == "optimal_m_fixed_n":
        call = lambda: optimize.optimal_m(  # noqa: E731
            cfg, pm, gamma, M_max=DESIGN_M_MAX, n=cfg.n)
    else:
        # The runners sweep psi up to L themselves (figure 9 also sweeps K
        # up to 100), so they get full reuse and a K that leaves data
        # symbols at psi = L.
        fig_cfg = cfg.replace(psi=1, K=min(cfg.K, (cfg.T - 1) // cfg.L))
        call = lambda: figures.RUNNERS[sc.figure](fig_cfg, pm)  # noqa: E731

    def run(seq):
        try:
            return call()
        except INFEASIBLE as exc:
            return Infeasible(type(exc).__name__)
    return run


def _check_design(kind: str, sc: Scenario, outcome) -> str | None:
    """Failure text, or None when the outcome is right."""
    cfg, pm, gamma = sc.cfg, sc.pm, sc.gamma
    if isinstance(outcome, Infeasible):
        return None
    if kind == "figure":
        header, rows = outcome
        return None if _finite_rows(header, rows) else "malformed figure rows"
    if not (math.isfinite(outcome.ee) and outcome.ee > 0):
        return f"non-finite EE {outcome.ee!r}"
    if kind == "optimal_n":
        n_min = min_antennas(cfg, sinr_breakdown(cfg), gamma)
        window = range(n_min, math.ceil(outcome.x_real) + 100)
        best = optimize.exhaustive_argmax(
            lambda n: _ee_or_none(cfg, pm, gamma, n=n), window)
        return None if best == outcome.n else f"n* {outcome.n} != scan {best}"
    if kind == "optimal_k":
        clean = cfg.replace(pilot_noise_mode="negligible")
        best = optimize.exhaustive_argmax(
            lambda K: _ee_or_none(clean, pm, gamma, K=K),
            range(1, cfg.T // cfg.psi + 1))
        return None if best == outcome.K else f"K* {outcome.K} != scan {best}"
    if kind == "optimal_m_fixed_n":
        best = optimize.exhaustive_argmax(
            lambda M: _ee_or_none(cfg, pm, gamma, n=cfg.n, M=M),
            range(1, DESIGN_M_MAX + 1))
        return None if best == outcome.M else f"M* {outcome.M} != scan {best}"
    if not 1 <= outcome.M <= DESIGN_M_MAX:
        return f"M* {outcome.M} outside 1..{DESIGN_M_MAX}"
    return None


def _check_reference(kind: str, outcome) -> str | None:
    """The known optima of the reference scenario (criteria 2, 4 and 5)."""
    if isinstance(outcome, Infeasible):
        return f"reference point infeasible ({outcome.error})"
    if kind == "optimal_n" and outcome.n != 11:
        return f"reference n* {outcome.n} != 11"
    if kind == "optimal_m" and (outcome.M, outcome.n) != (5, 17):
        return f"reference (M*, n*) {(outcome.M, outcome.n)} != (5, 17)"
    if kind == "optimal_k" and abs(outcome.K - 24) > 1:
        return f"reference K* {outcome.K} not within 1 of 24"
    return None


def design_explore(seed: int) -> Workload:
    """Optimizers and figure runners over seeded random designs."""
    pool = design_scenarios(seed)
    ops = []
    for index, sc in enumerate(pool):
        for kind, count in DESIGN_MIX:
            for _ in range(count):
                ops.append(Op(kind, _design_op(kind, sc), {"scenario": index}))

    first: dict[int, str] = {}               # op index -> repr, first pass
    verdict: dict[int, str | None] = {}

    def check(records):
        failures = {}
        for seq, index, outcome in records:
            op = ops[index]
            text = repr(outcome)
            if index not in first:
                first[index] = text
                sc = pool[op.meta["scenario"]]
                verdict[index] = _check_design(op.kind, sc, outcome)
                if verdict[index] is None and op.meta["scenario"] == 0:
                    verdict[index] = _check_reference(op.kind, outcome)
                if op.kind == "figure" and verdict[index] is None:
                    op.meta["rows"] = (len(outcome[1]),)
            if verdict[index] is not None:
                failures[seq] = verdict[index]
            elif text != first[index]:
                failures[seq] = "outcome differs from the first pass"
        return failures

    def warm_up():
        for op in ops[:sum(count for _, count in DESIGN_MIX)]:
            op.run(-1)

    return Workload("design-explore", ops, check, warm_up,
                    trace_ops=DESIGN_TRACED * sum(c for _, c in DESIGN_MIX))


# --- model-checks -----------------------------------------------------------

def _rmt_gap(cfg: SystemConfig) -> float:
    corr = rmt.simplified_correlation_set(cfg)
    sinr = rmt.general_deterministic_sinr(corr, cfg.p_d, cfg.p_u, cfg.tau_u,
                                          cfg.sigma2)
    return float(np.abs(sinr / asymptotic.deterministic_sinr(cfg) - 1.0).max())


def calibration_failure(text: str) -> str | None:
    """Criterion 6's tolerances on the printed (beta, alpha1, alpha2)."""
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        values[key.strip()] = float(value)
    beta, a1, a2 = values["beta"], values["alpha1"], values["alpha2"]
    if (abs(beta / 2.24e-8 - 1.0) < 0.05 and abs(a1 - 0.54) < 0.05
            and abs(a2 - 0.075) < 0.01):
        return None
    return f"calibration ({beta!r}, {a1!r}, {a2!r}) outside criterion 6"


def model_checks(seed: int) -> Workload:
    """Geometry calibration, the rmt cross-check, full-space covariance."""
    steering = montecarlo.steering_matrix(COV_CONFIG.n, COV_CONFIG.P)
    corr = rmt.simplified_correlation_set(COV_CONFIG, steering=steering)
    phi = rmt.phi_matrix(corr, 0, 0, 0, COV_CONFIG.p_u, COV_CONFIG.tau_u,
                         COV_CONFIG.sigma2)
    rng = np.random.default_rng(seed)
    next_draw = int(rng.integers(2**40))     # seed of the next full-space draw
    ops: list[Op] = []
    for kind, count in MODEL_MIX:
        for _ in range(count):
            if kind == "calibrate":
                argv = ["calibrate", "--drops", str(CAL_DROPS),
                        "--seed", str(int(rng.integers(1, 2**31)))]

                def run(seq, argv=argv):
                    return _quiet(cli.main, argv)
            elif kind.startswith("rmt"):
                cfg = RMT_CONFIGS[kind == "rmt_large"]

                def run(seq, cfg=cfg):
                    return _rmt_gap(cfg)
            else:
                first, next_draw = next_draw, next_draw + COV_BATCH

                def run(seq, first=first):
                    draws = np.empty((COV_BATCH, COV_CONFIG.n), dtype=complex)
                    for r in range(COV_BATCH):
                        draws[r] = montecarlo.generate_realization(
                            COV_CONFIG, steering, seed=first + r
                        ).estimates[0, 0, 0]
                    return draws
            ops.append(Op(kind, run))

    def check(records):
        failures = {}
        pooled = []        # the covariance check pools the draws of a pass
        for seq, index, outcome in records:
            kind = ops[index].kind
            if kind == "calibrate":
                code, text = outcome
                failure = (f"exit code {code}" if code != 0
                           else calibration_failure(text))
            elif kind.startswith("rmt"):
                ops[index].meta.setdefault("rmt_gaps", []).append(outcome)
                failure = (None if outcome < RMT_BOUND
                           else f"rmt gap {outcome!r} >= {RMT_BOUND}")
            else:
                pooled.append((seq, outcome))
                failure = (None if np.isfinite(outcome).all()
                           else "non-finite draws")
            if failure is not None:
                failures[seq] = failure
        if pooled:
            draws = np.concatenate([draws for _, draws in pooled])
            cov = draws.T @ draws.conj() / len(draws)
            gap = float(np.linalg.norm(cov - phi) / np.linalg.norm(phi))
            for seq, _ in pooled:
                if gap >= COV_BOUND:
                    failures.setdefault(
                        seq, f"covariance gap {gap!r} >= {COV_BOUND}")
        return failures

    def warm_up():
        _quiet(cli.main, ["calibrate", "--drops", "10", "--seed", str(seed)])
        _rmt_gap(RMT_CONFIGS[0])
        montecarlo.generate_realization(COV_CONFIG, steering, seed=seed)

    return Workload("model-checks", ops, check, warm_up)


def build(name: str, seed: int, tmpdir: str) -> Workload:
    if name == "mc-validate":
        return mc_validate(seed, tmpdir)
    if name == "design-explore":
        return design_explore(seed)
    if name == "model-checks":
        return model_checks(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc-validate", "design-explore", "model-checks")
