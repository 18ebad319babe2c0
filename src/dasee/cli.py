"""Command-line front end: calibration, curves, optimizers, figure runners.

Exit codes: 0 success, 2 configuration error, 3 infeasible problem, 4 I/O
failure.  All tabular output is CSV with LF line endings and full double
precision; optimizer results print as JSON.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from . import geometry, montecarlo
from .asymptotic import InfeasibleError, OperatingPoint, operating_point
from .config import (_DBM_CONVERTIBLE, _POWER_FIELDS, _SYSTEM_FIELDS,
                     PILOT_NOISE_MODES, ConfigError, PowerModel, SystemConfig,
                     dbm_from_watts, load_fields, load_scenario)
from .optimize import (DEFAULT_M_MAX, optimal_k, optimal_m, optimal_n,
                       optimal_n_no_pc)

# Every config field, and the dBm form of each power, is a model flag.
_MODEL_ARGS = (*_SYSTEM_FIELDS, *(key + "_dbm" for key in _DBM_CONVERTIBLE),
               *_POWER_FIELDS)
_FIT_FIELDS = ("M", "L", "K", "Rc", "iota")   # all that calibrate reads

# The subcommands' flags other than the config keys, each declared once.
_FLAGS = {"number": {"type": int},
          "--gamma": {"type": float, "required": True},
          "--M-max": {"type": int, "default": DEFAULT_M_MAX},
          "--n-range": {"default": "10:60:10"},
          "--drops": {"type": int, "default": 1000},
          "--realizations": {"type": int, "default": 1000},
          "--seed": {"type": int, "default": 1},
          "--min-distance": {"type": float,
                             "default": geometry.DEFAULT_MIN_DISTANCE},
          "--output": {},
          "--no-pc": {"action": "store_true",
                      "help": "contamination-free bound (orthogonal pilots)"},
          "--fixed-n": {"action": "store_true",
                        "help": "evaluate every M at the configured n"}}


def model_flags(keys=_MODEL_ARGS) -> argparse.ArgumentParser:
    """A parent parser of ``--config`` and a flag per config key in ``keys``.

    A flag's text is read as the key's line in a config file is, by
    ``config._keywords``, so no flag has a type or choices of its own.
    """
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="key = value config file")
    for key in keys:
        modes = ({"metavar": "{" + ",".join(PILOT_NOISE_MODES) + "}"}
                 if key == "pilot_noise_mode" else {})
        parser.add_argument("--" + key.replace("_", "-"), dest=key, **modes)
    return parser


def _overrides(args) -> dict:
    """The text of the config-key flags given on the line (None if not)."""
    return {key: getattr(args, key, None) for key in _MODEL_ARGS}


def scenario_from_args(args) -> tuple[SystemConfig, PowerModel]:
    """Defaults <- ``--config`` file <- the model flags given on the line."""
    return load_scenario(args.config, _overrides(args))


def write_rows(header, rows, output=None) -> None:
    """CSV with LF endings; numbers at full double precision via repr."""
    handle = open(output, "w", newline="") if output else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    finally:
        if output:
            handle.close()


def n_sweep(cfg: SystemConfig, pm: PowerModel, n_values
            ) -> list[tuple[SystemConfig, OperatingPoint]]:
    """Each antenna count's config and its operating point at fixed p_d."""
    if not n_values:
        raise ConfigError("empty sweep range")
    points = [cfg.replace(n=n) for n in n_values]
    return [(point, operating_point(point, pm)) for point in points]


def _int_range(text: str):
    """Parse '10:60:10' or comma list '10,20,30' into a tuple of ints."""
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            # a fourth part is a ValueError too: too many values to unpack
            start, stop, step = parts if len(parts) > 2 else (*parts, 1)
            return tuple(range(start, stop + (1 if step > 0 else -1), step))
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}: {exc}") from None


# --- subcommands ----------------------------------------------------------

def cmd_calibrate(args) -> int:
    fit = load_fields(_FIT_FIELDS, args.config, _overrides(args))
    layout = geometry.build_layout(fit.M, fit.Rc, L=fit.L)
    result = geometry.calibrate(layout, fit.iota, fit.K, args.drops,
                                seed=args.seed,
                                min_distance=args.min_distance)
    lines = [f"{key} = {value!r}" for key, value in
             result.config_overrides().items()]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return 0


def cmd_de_curve(args) -> int:
    cfg, pm = scenario_from_args(args)
    points = n_sweep(cfg, pm, _int_range(args.n_range))
    write_rows(["n", "ee_de_bits_per_joule", "ee_de_mbits_per_joule",
                "p_d_watts", "p_d_dbm", "p_total_watts", "feasible"],
               [[point.n, op.ee, op.ee / 1e6, op.p_d, dbm_from_watts(op.p_d),
                 op.p_total, 1] for point, op in points], args.output)
    return 0


def cmd_mc_validate(args) -> int:
    cfg, pm = scenario_from_args(args)
    rows = []
    for point, op in n_sweep(cfg, pm, _int_range(args.n_range)):
        ee_mc = montecarlo.empirical_ee(point, pm, args.realizations, args.seed)
        rel = montecarlo.relative_error(ee_mc, op.ee)
        rows.append([point.n, op.ee, ee_mc, rel, op.p_d, op.p_total,
                     int(math.isfinite(rel))])
    write_rows(["n", "ee_de_bits_per_joule", "ee_mc_bits_per_joule",
                "rel_error", "p_d_watts", "p_total_watts", "feasible"],
               rows, args.output)
    return 0


def _print_result(result) -> int:
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_opt_n(args) -> int:
    cfg, pm = scenario_from_args(args)
    fn = optimal_n_no_pc if args.no_pc else optimal_n
    return _print_result(fn(cfg, pm, args.gamma))


def cmd_opt_k(args) -> int:
    cfg, pm = scenario_from_args(args)
    return _print_result(optimal_k(cfg, pm, args.gamma))


def cmd_opt_m(args) -> int:
    cfg, pm = scenario_from_args(args)
    fixed_n = cfg.n if args.fixed_n else None
    return _print_result(optimal_m(cfg, pm, args.gamma, M_max=args.M_max,
                                   n=fixed_n))


def cmd_figure(args) -> int:
    from . import figures
    runner = figures.RUNNERS.get(args.number)
    if runner is None:
        raise ConfigError(f"no runner for figure {args.number} (valid: 2..10)")
    cfg, pm = scenario_from_args(args)
    header, rows = runner(cfg, pm, realizations=args.realizations,
                          seed=args.seed)
    write_rows(header, rows, args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dasee`` parser, built once per process and shared by every
    ``main`` call (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="dasee",
        description="Energy efficiency of multi-cell massive distributed-"
                    "antenna downlinks: deterministic equivalents, Monte-"
                    "Carlo validation, and EE-optimal n / K / M.")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {}
    for flag, spec in _FLAGS.items():
        flags[flag] = argparse.ArgumentParser(add_help=False)
        flags[flag].add_argument(flag, **spec)
    model = model_flags()

    def command(name, help, fn, *names, model=model, **defaults):
        sub.add_parser(name, help=help, parents=[
            model, *map(flags.get, names)]).set_defaults(fn=fn, **defaults)

    command("calibrate", "fit (beta, alpha1, alpha2) from geometry",
            cmd_calibrate, "--drops", "--seed", "--min-distance", "--output",
            model=model_flags(_FIT_FIELDS))
    command("de-curve", "deterministic-equivalent EE vs n at fixed p_d",
            cmd_de_curve, "--n-range", "--output")
    command("mc-validate", "Monte-Carlo EE vs the deterministic curve",
            cmd_mc_validate, "--n-range", "--realizations", "--seed",
            "--output")
    command("opt-n", "EE-optimal antennas per RRH", cmd_opt_n, "--gamma",
            "--no-pc")
    command("opt-k", "EE-optimal user count", cmd_opt_k, "--gamma")
    command("opt-m", "EE-optimal RRH count", cmd_opt_m, "--gamma", "--M-max",
            "--fixed-n")
    command("joint", "joint (M, n) search at the configured K", cmd_opt_m,
            "--gamma", "--M-max", fixed_n=False)
    command("figure", "run a predefined study sweep as CSV", cmd_figure,
            "number", "--realizations", "--seed", "--output")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # counts too large for any machine's memory
        print("configuration error: the counts need more memory than can be "
              "allocated" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
