import ast
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dasee
from dasee import figures, optimize
from dasee.asymptotic import (InfeasibleAntennasError, RateUnachievableError,
                              deterministic_sinr, energy_efficiency,
                              total_power_at_se)
from dasee.cli import build_parser, main, n_sweep, scenario_from_args
from dasee.config import (_DBM_CONVERTIBLE, ConfigError, PowerModel,
                          SystemConfig, load_scenario)
from dasee.montecarlo import rate_from_sinr
from dasee.optimize import OptimizationError, ee_or_none, optimal_n

MODEL_SUBCOMMANDS = ("de-curve", "mc-validate", "opt-n", "opt-k", "opt-m",
                     "joint", "figure")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for sub in ("calibrate", "de-curve", "mc-validate", "opt-n", "opt-k",
                "opt-m", "joint", "figure"):
        assert sub in out


def test_opt_n_json(capsys):
    code, out, _ = run(capsys, "opt-n", "--gamma", "2", "--M", "7", "--K", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_star"] == 11
    assert payload["ee_mbits_per_joule"] > 9.0


def test_opt_k_orthogonal_pilots(capsys):
    code, out, _ = run(capsys, "opt-k", "--gamma", "2", "--n", "20",
                       "--M", "7", "--psi", "7")
    assert code == 0
    assert json.loads(out)["k_star"] == 14


def test_joint_search(capsys):
    code, out, _ = run(capsys, "joint", "--gamma", "2", "--K", "10")
    assert code == 0
    payload = json.loads(out)
    assert (payload["m_star"], payload["n_star"]) == (5, 17)


def test_infeasible_rate_exit_code(capsys):
    code, _, err = run(capsys, "opt-n", "--gamma", "12")
    assert code == 3
    assert "infeasible" in err
    # 2**gamma overflows a double; without contamination no ceiling binds
    # and the message names the antenna count instead of "ceiling inf"
    for psi in ("1", "7"):
        code, out, err = run(capsys, "opt-n", "--gamma", "1100", "--psi", psi)
        assert code == 3 and out == "" and "infeasible" in err
        assert "ceiling inf" not in err, err
        assert ("more antennas than can be represented" in err) == (psi == "7")
    # just below 1024 the margin is subnormal and n_min exceeds every double
    for cmd in ("opt-n", "opt-m"):
        code, out, err = run(capsys, cmd, "--gamma", "1023.9", "--psi", "7")
        assert code == 3 and out == "" and "infeasible" in err, err


def test_unrepresentable_optimum_exit_code(capsys):
    # a continuous optimum beyond 2**53 antennas reads as an unachievable
    # rate (opt-n) or an M skipped in the scan (opt-m, joint): exit 3 with a
    # short message, not a 300-digit "integer point"
    for argv in (("opt-n", "--gamma", "1000"), ("opt-m", "--gamma", "1023.9"),
                 ("joint", "--gamma", "1023.9")):
        code, out, err = run(capsys, *argv, "--psi", "7")
        assert code == 3 and out == "" and "integer point" not in err, err
        assert len(err) < 120, err


@pytest.mark.parametrize("command", ["opt-n", "opt-k", "opt-m", "joint"])
@pytest.mark.parametrize("gamma", ["1e-16", "1e-300"])
def test_rate_too_small_for_a_double_exit_2(capsys, command, gamma):
    # 2**gamma - 1 rounds to 0: this was a ZeroDivisionError traceback
    code, out, err = run(capsys, command, "--gamma", gamma)
    assert code == 2 and out == "" and "gamma" in err, err


@pytest.mark.parametrize("p_rrh", ["1e-320", "5e-324"])
def test_subnormal_antenna_power_exits_cleanly(capsys, p_rrh):
    # margin * M * P_RRH underflows to 0: this was a ZeroDivisionError
    code, out, err = run(capsys, "opt-n", "--gamma", "2", "--P-RRH", p_rrh)
    assert code == 3 and out == "" and "P_RRH" in err, err
    assert "more antennas" not in err
    for command in ("opt-m", "joint"):
        code, out, err = run(capsys, command, "--gamma", "2", "--P-RRH", p_rrh)
        assert code == 3 and out == "" and "infeasible" in err, err
        # every M is skipped; the message names the reason of the last one
        assert "no feasible M" in err and "P_RRH" in err, err
    for number in ("5", "9"):
        code, out, _ = run(capsys, "figure", number, "--P-RRH", p_rrh)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and rows
        for row in rows:
            ee = row.get("ee_star_bits_per_joule", row.get("ee_bits_per_joule"))
            assert row["n_star"] == "-1" and ee == "nan", row


@pytest.mark.parametrize("argv", [
    ("de-curve", "--zeta", "5e-324"), ("de-curve", "--P-BT", "1e300"),
    ("opt-n", "--gamma", "2", "--P-0", "1e308"),
    ("opt-m", "--gamma", "2", "--P-0", "1e308")])
def test_non_finite_total_power_exits_2(capsys, argv):
    # p_d/zeta, P_BT*B*se or M*P_0 overflows: these printed an infinite
    # p_total with feasible=1 or an "optimum" among EE = 0 ties, exit 0
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", (code, out)
    assert "P_FIX, P_RRH, zeta, P_0, P_BT" in err, err


# Every subcommand form that evaluates the model, each with a breakdown or a
# power beyond the double range.  figure 10 sets P_0 and P_BT itself.
_MODEL_FORMS = (("de-curve",), ("opt-n", "--gamma", "2"),
                ("opt-k", "--gamma", "2"), ("opt-m", "--gamma", "2"),
                ("opt-m", "--gamma", "2", "--fixed-n"),
                ("joint", "--gamma", "2"),
                *(("figure", str(number)) for number in range(2, 11)))
_BEYOND_DOUBLES = [(*form, *flag) for flag in (("--beta", "1e300"),
                                               ("--zeta", "5e-324"),
                                               ("--P-0", "1e308"),
                                               ("--B", "1.7e308"))
                   for form in _MODEL_FORMS
                   if (form, flag[0]) != (("figure", "10"), "--P-0")]


@pytest.mark.parametrize("argv", [
    *_BEYOND_DOUBLES,
    # sigma2/(zeta*gamma) underflowed to a ZeroDivisionError traceback
    ("opt-k", "--gamma", "0.05", "--zeta", "5e-324"),
    # the backhaul overflows at both rounding candidates: was exit 3
    ("opt-k", "--gamma", "2", "--P-BT", "1e300"),
    # (mu1 - slope*K)**2 overflowed to an OverflowError traceback
    ("opt-k", "--gamma", "0.5", "--iota", "300", "--alpha2", "0",
     "--P-RRH", "0.5", "--beta", "1e30"),
    # the int n * M beyond the double range was an OverflowError traceback
    ("opt-m", "--gamma", "2", "--fixed-n", "--n", "1e307")], ids=" ".join)
def test_model_beyond_the_double_range_exits_2_everywhere(capsys, argv):
    # figures 7, 8 and 10 printed all-NaN rows (exit 0) and the optimizers
    # blamed P_RRH or the quartic (exit 3): one handler, in main, decides;
    # B*se beyond the range printed an EE of inf, feasible, or Infinity
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", (code, out)
    assert err.startswith("configuration error: ") and "double range" in err, err


def test_figure10_sets_its_own_backhaul_power(capsys):
    code, out, _ = run(capsys, "figure", "10", "--P-0", "1e308")
    assert code == 0 and out == run(capsys, "figure", "10")[1]


@pytest.mark.parametrize("argv,message", [
    (("opt-n", "--gamma", "2", "--P-RRH", "1e-320"),
     "EE grows with n beyond 2^53 antennas per RRH: the antenna power "
     "P_RRH = 1e-320 W is negligible against the transmit power"),
    (("opt-n", "--gamma", "2", "--zeta", "1e-300"),
     "EE grows with n beyond 2^53 antennas per RRH: the antenna power "
     "P_RRH = 0.2 W is negligible against the transmit power"),
    (("opt-k", "--gamma", "2", "--zeta", "1e-300"),
     "no sign change on the feasibility interval"),
    (("opt-n", "--gamma", "12"),
     "rate 12 bits/s/Hz exceeds the interference-limited ceiling "
     "9.06635 bits/s/Hz"),
    (("opt-m", "--gamma", "1023.9", "--psi", "7"),
     "no feasible M <= 30: rate 1023.9 bits/s/Hz needs more antennas than "
     "can be represented (>= 2^53 per RRH)")])
def test_infeasible_problems_keep_exit_3(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"infeasible: {message}\n")


def _except_clauses(node, owner):
    """(enclosing function, handler) of every except clause under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield owner, child
        inner = child.name if isinstance(child, ast.FunctionDef) else owner
        yield from _except_clauses(child, inner)


def _caught(handler) -> set:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return {getattr(kind, "id", getattr(kind, "attr", None)) for kind in kinds}


def test_only_main_catches_a_config_error():
    # the exit contract is decided in cli.main: a handler elsewhere that
    # caught ConfigError turned a configuration error into a NaN row or a
    # skipped point; the infeasibility handlers name the one base class
    clauses = {}
    for path in Path(dasee.__file__).parent.glob("*.py"):
        for owner, handler in _except_clauses(ast.parse(path.read_text()),
                                              "<module>"):
            clauses.setdefault(f"{path.stem}.{owner}", []).append(
                _caught(handler))
    assert [where for where, caught in clauses.items()
            if any("ConfigError" in names for names in caught)] == ["cli.main"]
    assert clauses["cli.main"] == [{"ConfigError"}, {"InfeasibleError"},
                                   {"OSError"}]
    for where in ("optimize.optimal_m", "optimize.ee_or_none",
                  "figures._optimum", "figures._ee_of_n"):
        assert clauses[where] == [{"InfeasibleError"}], where


def test_non_finite_total_power_is_no_feasible_row(capsys):
    # at K = T/psi the data fraction 0 times p_d/zeta = inf was a NaN EE
    # marked feasible=1; the power rule now rejects the whole figure
    code, out, err = run(capsys, "figure", "7", "--zeta", "5e-324")
    assert code == 2 and out == "", (code, out)
    assert "P_FIX, P_RRH, zeta, P_0, P_BT" in err, err


def test_underflowing_gains_in_negligible_mode(capsys):
    # a subnormal beta printed a NaN row marked feasible=1; a subnormal
    # alpha1 without co-pilot cells was a ZeroDivisionError traceback
    code, out, err = run(capsys, "de-curve", "--pilot-noise-mode",
                         "negligible", "--beta", "5e-324")
    assert code == 2 and out == "" and "double range" in err
    _, reference, _ = run(capsys, "opt-n", "--gamma", "2", "--no-pc",
                          "--alpha1", "0")
    code, out, err = run(capsys, "opt-n", "--gamma", "2", "--no-pc",
                         "--alpha1", "5e-324")
    assert code == 0 and err == "" and out == reference


def test_python_m_dasee_runs_the_cli():
    src = str(Path(dasee.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (
               src, os.environ.get("PYTHONPATH"))))}

    def dasee_m(*argv):
        return subprocess.run([sys.executable, "-m", "dasee", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    ok = dasee_m("opt-n", "--gamma", "2")
    assert ok.returncode == 0 and json.loads(ok.stdout)["n_star"] == 11
    bad = dasee_m("de-curve", "--K", "200")
    assert bad.returncode == 2 and bad.stdout == ""
    assert "configuration error" in bad.stderr


def test_config_error_exit_code(capsys):
    code, _, err = run(capsys, "de-curve", "--K", "200")
    assert code == 2
    assert "configuration error" in err


def test_unknown_figure_exit_code(capsys):
    code, _, err = run(capsys, "figure", "11")
    assert code == 2


def test_missing_config_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "opt-n", "--gamma", "2",
                       "--config", str(tmp_path / "absent.cfg"))
    assert code == 4


def test_calibrate_fragment_feeds_model(capsys, tmp_path):
    out_path = tmp_path / "fit.cfg"
    code, out, _ = run(capsys, "calibrate", "--drops", "50", "--seed", "4",
                       "--output", str(out_path))
    assert code == 0
    cfg, _ = load_scenario(out_path)
    assert 1e-8 < cfg.beta < 4e-8
    assert 0.3 < cfg.alpha1 < 0.8


def test_calibrate_reads_config_file(capsys, tmp_path):
    # --config resolves like every other subcommand's; flags still win
    path = tmp_path / "k12.cfg"
    path.write_text("K = 12\nM = 3\n")
    args = ("calibrate", "--drops", "20", "--seed", "3")
    code_file, out_file, _ = run(capsys, *args, "--config", str(path), "--M", "7")
    code_flag, out_flag, _ = run(capsys, *args, "--K", "12")
    assert code_file == code_flag == 0
    assert out_file == out_flag
    assert out_file != run(capsys, *args)[1]


def test_de_curve_reruns_byte_identical(capsys):
    args = ("de-curve", "--n-range", "10,20,30")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert len(lines) == 4  # header + 3 sweep points
    assert lines[0].startswith("n,ee_de_bits_per_joule")


def test_mc_validate_small(capsys):
    code, out, _ = run(capsys, "mc-validate", "--n-range", "12,16",
                       "--realizations", "60", "--seed", "2",
                       "--L", "2", "--M", "2", "--K", "2", "--psi", "2")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    for row in rows:
        rel = float(row.split(",")[3])
        assert rel < 0.25


def test_mc_validate_zero_de_ee_row_is_not_feasible(capsys):
    # a pilot power this small and a bandwidth this narrow make the DE EE
    # underflow to 0 (the MC EE, biased up at 3 realizations, does not): the
    # relative error is not finite, and the row says so instead of raising
    code, out, _ = run(capsys, "mc-validate", "--n-range", "10",
                       "--realizations", "3", "--p-u", "1e-30",
                       "--B", "1e-300")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert float(row["ee_de_bits_per_joule"]) == 0.0
    assert row["rel_error"] == "inf" and row["feasible"] == "0"


@pytest.mark.parametrize("flag", ["--p-d", "--p-u"])
def test_tiny_sinr_row_has_a_positive_ee(capsys, flag):
    # an SINR near 1e-298 made log2(1 + SINR) round to 0: a feasible row
    # printed an EE of exactly 0
    code, out, _ = run(capsys, "de-curve", flag, "1e-300", "--n-range", "20")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["feasible"] == "1"
    assert 0.0 < float(row["ee_de_bits_per_joule"]) < 1e-280, row


@pytest.mark.parametrize("argv", [
    ["de-curve", "--p-d", "5e-324", "--n-range", "20"],
    ["de-curve", "--sigma2", "1e300", "--n-range", "20"],
    ["de-curve", "--beta", "1e-200", "--n-range", "20"],
    ["mc-validate", "--beta", "1e-150", "--n-range", "10",
     "--realizations", "5"],
    ["opt-n", "--gamma", "2", "--beta", "1e-200"],
    ["mc-validate", "--p-u", "5e-324", "--sigma2", "1e300", "--n-range",
     "10", "--realizations", "3"],
    *([*form, "--p-u", "5e-324", "--sigma2", "1e300"]
      for form in _MODEL_FORMS if form[0] != "opt-k"),
])
def test_zero_sinr_exits_2(capsys, argv):
    # a SINR (or the signal power S) that rounds to 0 printed a feasible EE
    # of exactly 0, and opt-n blamed the antenna count (exit 3); where nu1
    # and nu2 both underflow, S was a ZeroDivisionError traceback
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", (code, out)
    assert "to 0" in err, err


@pytest.mark.parametrize("argv", [
    ("de-curve", "--B", "5e-324"),
    ("de-curve", "--zeta", "1e-300", "--B", "1e-280"),
    ("opt-n", "--gamma", "1", "--B", "5e-324"),
    ("opt-k", "--gamma", "1", "--L", "1", "--zeta", "0.015625", "--B",
     "5e-324"),
    ("figure", "3", "--B", "5e-324")])
def test_ee_that_rounds_to_0_exits_2(capsys, argv):
    # B*se > 0 against a total power so large that the EE rounds to 0:
    # these printed feasible rows of EE 0.0 or an "optimum" among EE = 0
    # ties, exit 0
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "", (code, out)
    assert "EE B*se/p_total rounds to 0" in err, err


def test_p_d_dbm_beyond_a_milliwatt_double_is_finite(capsys):
    # p_d * 1000 overflows: the row printed p_d_dbm = inf with feasible=1
    code, out, _ = run(capsys, "de-curve", "--p-d", "1.797693134862316e+305",
                       "--n-range", "20")
    assert code == 0
    row = list(csv.DictReader(io.StringIO(out)))[0]
    assert row["feasible"] == "1"
    assert float(row["p_d_dbm"]) == 10.0 * math.log10(1.797693134862316e+305) \
        + 30.0


@pytest.mark.parametrize("argv", [
    ["--beta", "1e-300"],
    ["--p-u=1e-300", "--n-range", "10:20:10", "--realizations", "3"],
    ["--beta", "1e-160", "--n-range", "10", "--realizations", "5"],
])
def test_mc_precoder_norm_underflow_exits_2(capsys, argv):
    # the per-cell precoder norm rounds to 0 (or to a subnormal whose
    # normalization K / ||w||^2 overflows): numpy warned, then the NaN rate
    # was blamed on the power model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "mc-validate", *argv)
    assert code == 2 and out == "", (code, out)
    assert "beta, p_u and sigma2" in err and "Warning" not in err, err


def test_figure2_zero_de_ee_reports_infinite_error(capsys):
    # the same underflow in the figure-2 runner: a relative error of inf,
    # as mc-validate reports it, instead of a division by zero
    code, out, _ = run(capsys, "figure", "2", "--realizations", "3",
                       "--p-u", "1e-30", "--B", "1e-300")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 24
    for row in rows:
        assert float(row["ee_de_bits_per_joule"]) == 0.0
        assert float(row["ee_mc_bits_per_joule"]) > 0.0
        assert row["rel_error"] == "inf"


def _alone(capsys, *argv):
    """``run`` with a parser built for this call only."""
    build_parser.cache_clear()
    return run(capsys, *argv)


def _help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    return exc.value.code, capsys.readouterr().out


def test_parser_reuse_leaks_no_defaults(capsys):
    # main builds its parser once per process; a call after another
    # subcommand prints what the same call prints alone
    joint = ("joint", "--gamma", "2", "--M-max", "8")
    opt_m = ("opt-m", "--gamma", "2", "--M-max", "8")
    fixed = (*opt_m, "--fixed-n")
    no_pc = ("opt-n", "--gamma", "2", "--no-pc")
    outputs = {}
    for sequence in ((joint, opt_m), (joint, fixed, joint),
                     (no_pc, no_pc[:-1], no_pc)):
        alone = [_alone(capsys, *argv) for argv in sequence]
        build_parser.cache_clear()
        shared = [run(capsys, *argv) for argv in sequence]
        assert shared == alone
        outputs.update(zip(sequence, alone))
    assert all(code == 0 for code, _, _ in outputs.values())
    # a leaked --fixed-n or --no-pc would show in the call after it
    assert outputs[fixed] != outputs[joint]
    assert outputs[no_pc] != outputs[no_pc[:-1]]
    parser = build_parser()
    commands = ("calibrate", *MODEL_SUBCOMMANDS)
    helps = [_help(capsys, command) for command in commands]
    assert build_parser() is parser
    build_parser.cache_clear()
    assert [_help(capsys, command) for command in commands] == helps


def test_empty_sweep_rejected_and_no_file(tmp_path):
    cfg, pm = SystemConfig(), PowerModel()
    with pytest.raises(ConfigError, match="empty sweep"):
        n_sweep(cfg, pm, ())


def test_ee_or_none_marks_infeasible_points():
    cfg, pm = SystemConfig(), PowerModel()
    assert ee_or_none(cfg, pm, 2.0, n=5) is None
    assert ee_or_none(cfg, pm, 2.0, n=40) > 0
    rows = {row[1]: row for row in figures.figure8(cfg, pm)[1] if row[0] == 7}
    assert rows[5][3] == 0 and math.isnan(rows[5][2])
    assert rows[40][3] == 1 and rows[40][2] > 0


def test_figure8_grid_peaks_at_reference_optimum(capsys):
    code, out, _ = run(capsys, "figure", "8")
    assert code == 0
    best, arg = -1.0, None
    for line in out.strip().split("\n")[1:]:
        M, n, ee, ok = line.split(",")
        if int(ok) and float(ee) > best:
            best, arg = float(ee), (int(M), int(n))
    assert arg == (5, 17)


def test_dbm_flags(capsys):
    code, out, _ = run(capsys, "opt-n", "--gamma", "2", "--p-d-dbm", "30")
    assert code == 0
    assert json.loads(out)["n_star"] == 11


@pytest.mark.parametrize("argv", [
    ("mc-validate", "--realizations", "0", "--n-range", "10"),
    ("de-curve", "--n-range", "10:60:0"),
    ("de-curve", "--n-range", "1.5"),
    ("de-curve", "--n-range", "a:b"),
    ("mc-validate", "--n-range", "10:60:0", "--realizations", "2"),
    ("figure", "2", "--realizations", "0"),
    ("de-curve", "--beta", "nan", "--n-range", "20"),
    ("de-curve", "--p-d", "inf", "--n-range", "20"),
    ("de-curve", "--p-d-dbm", "1e300", "--n-range", "20"),
    ("de-curve", "--iota", "1e300", "--n-range", "20"),
    ("opt-n", "--gamma", "2", "--beta", "1e300"),
    ("opt-k", "--gamma", "1", "--beta", "1e-300"),
    ("opt-n", "--gamma", "2", "--beta", "nan"),
    ("opt-n", "--gamma", "0"),
    ("opt-m", "--gamma", "0"),
    ("opt-n", "--gamma", "-1"),
    ("opt-k", "--gamma", "nan"),
    ("joint", "--gamma", "inf"),
    ("de-curve", "--config", "K = inf"),
    ("opt-n", "--gamma", "2", "--config", "beta = abc"),
    ("opt-m", "--gamma", "2", "--M-max", "0"),
    ("joint", "--gamma", "2", "--M-max", "-3"),
    ("opt-m", "--gamma", "2", "--fixed-n", "--M-max", "0"),
    # an integer beyond the double range, from a flag or a file line alike
    ("opt-m", "--gamma", "2", "--fixed-n", "--n", "1" + "0" * 400),
    ("opt-m", "--gamma", "2", "--fixed-n", "--config", "n = 1" + "0" * 400),
])
def test_bad_sweep_arguments_exit_2(capsys, tmp_path, argv):
    if "--config" in argv:  # the argument after --config is the file's text
        path = tmp_path / "scenario.cfg"
        at = argv.index("--config") + 1
        path.write_text(argv[at] + "\n")
        argv = (*argv[:at], str(path), *argv[at + 1:])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "configuration error" in err


def test_negative_step_range_includes_endpoint(capsys):
    code, out, _ = run(capsys, "de-curve", "--n-range", "60:10:-10")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [int(row[0]) for row in rows] == [60, 50, 40, 30, 20, 10]


@pytest.mark.parametrize("flag,value", [("--M", "0"), ("--L", "3"),
                                        ("--min-distance", "5000"),
                                        ("--iota", "300"), ("--iota", "800")])
def test_calibrate_rejects_invalid_geometry(capsys, flag, value):
    # iota 300 underflows every gain (beta = 0); 800 overflows M^(iota/2)
    code, out, err = run(capsys, "calibrate", "--drops", "5", flag, value)
    assert code == 2 and out == ""
    assert "configuration error" in err
    if flag == "--iota":
        assert "iota" in err


@pytest.mark.parametrize("Rc", ["1e308", "1e200", "1e160"])
def test_calibrate_at_an_extreme_cell_radius_exits_2(capsys, Rc):
    # 2 Rc once overflowed into inf and NaN cell centers (1e308) and the
    # squared distances overflowed (1e160, 1e200), each with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "calibrate", "--drops", "2", "--Rc", Rc)
    assert code == 2 and out == ""
    assert f"Rc {float(Rc):g}" in err, err


def test_calibrate_is_not_bound_by_the_pilot_budget(capsys):
    # the fit reads M, L, K, Rc and iota only: psi*K <= T does not bind it
    code, out, err = run(capsys, "calibrate", "--K", "200", "--drops", "2")
    assert code == 0 and err == "", err
    values = [float(line.partition(" = ")[2]) for line in out.splitlines()]
    assert len(values) == 3 and all(map(math.isfinite, values)), out
    for flag, value, message in (("--K", "0", "K must be a positive integer"),
                                 ("--L", "3", "unsupported cell count L=3"),
                                 ("--Rc", "-1", "Rc must be positive"),
                                 ("--iota", "nan", "iota must be finite")):
        code, out, err = run(capsys, "calibrate", "--drops", "2", flag, value)
        assert code == 2 and out == "" and message in err, err


def test_calibrate_defaults_come_from_system_config(capsys):
    cfg = SystemConfig()
    explicit = ("--M", str(cfg.M), "--L", str(cfg.L), "--K", str(cfg.K),
                "--Rc", repr(cfg.Rc), "--iota", repr(cfg.iota))
    _, default_out, _ = run(capsys, "calibrate", "--drops", "20")
    _, explicit_out, _ = run(capsys, "calibrate", "--drops", "20", *explicit)
    assert default_out == explicit_out


def test_de_curve_rows_match_criterion_1_formula(capsys):
    code, out, _ = run(capsys, "de-curve", "--n-range", "2:80")
    assert code == 0
    cfg, pm = SystemConfig(), PowerModel()
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [int(row[0]) for row in rows] == list(range(2, 81))
    for row in rows:
        point = cfg.replace(n=int(row[0]))
        se = rate_from_sinr(point, [deterministic_sinr(point)] * point.K)
        assert float(row[1]) == point.B * se / total_power_at_se(point, pm, se)
        assert row[-1] == "1"


def _ee_or_nan(cfg, pm, **point):
    try:
        return energy_efficiency(cfg, pm, figures.GAMMA_DEFAULT, **point)
    except (InfeasibleAntennasError, RateUnachievableError):
        return math.nan


def _figure7_cases():
    """Both pilot-noise modes at the defaults, and seeded power models and
    gains around them."""
    cases = [(SystemConfig(pilot_noise_mode=mode), PowerModel())
             for mode in ("exact", "negligible")]
    rng = np.random.default_rng(19)
    for mode in ("exact", "negligible") * 3:
        pm = PowerModel(**{name: value * rng.uniform(0.5, 1.5) for name, value
                           in dataclasses.asdict(PowerModel()).items()
                           if name != "zeta"}, zeta=rng.uniform(0.1, 1.0))
        cases.append((SystemConfig(pilot_noise_mode=mode,
                                   beta=2.24e-8 * 10 ** rng.uniform(-1.5, 1),
                                   M=int(rng.integers(1, 11))), pm))
    return cases


def test_figure7_and_figure8_rows_equal_energy_efficiency():
    # figure 7 evaluates each curve's user counts in one array pass; every
    # row must still equal energy_efficiency at that K bit for bit
    feasible_flags = set()
    for cfg, pm in _figure7_cases():
        header, rows = figures.figure7(cfg, pm)
        assert header == ["psi", "d", "K", "ee_bits_per_joule", "feasible"]
        assert len(rows) == cfg.T * 2 + cfg.T // cfg.L
        for psi, d, K, ee, feasible in rows:
            ref = _ee_or_nan(cfg.replace(psi=psi, d=d, n=20), pm, K=K)
            assert type(K) is int and type(ee) is float
            assert feasible == int(not math.isnan(ref))
            assert ee == ref or (math.isnan(ee) and math.isnan(ref)), (
                cfg, pm, psi, d, K)
            feasible_flags.add(feasible)
    assert feasible_flags == {0, 1}
    cfg, pm = SystemConfig(), PowerModel()
    header, rows = figures.figure8(cfg, pm)
    assert header == ["M", "n", "ee_bits_per_joule", "feasible"]
    for M, n, ee, feasible in rows:
        ref = _ee_or_nan(cfg.replace(M=M), pm, n=n)
        assert feasible == int(not math.isnan(ref))
        assert ee == ref or (math.isnan(ee) and math.isnan(ref))
    assert {0, 1} <= {row[-1] for row in rows}


def _figure7_by_k(cfg, pm):
    """figure7's rows one user count at a time, as energy_efficiency gives
    them; a ConfigError propagates from the first K with one."""
    rows = []
    for psi, d in ((1, 1), (cfg.L, 1), (1, 2)):
        for K in range(1, cfg.T // psi + 1):
            ee = ee_or_none(cfg.replace(psi=psi, d=d, n=20, K=K), pm,
                            figures.GAMMA_DEFAULT)
            rows.append([psi, d, K, math.nan if ee is None else ee,
                         int(ee is not None)])
    return rows


@pytest.mark.parametrize("changes,power", [
    ({"B": 1e307}, {}),                # B*se beyond the range from K = 10
    # M*P_BT*B*se beyond it from K = 3, before B*se from K = 10
    ({"B": 1e307}, {"P_BT": 0.5})])
def test_figure7_raises_the_config_error_of_its_first_k(monkeypatch, changes,
                                                        power):
    # some user counts of the first curve evaluate, later ones raise a
    # ConfigError: the array pass raises the one the per-K loop raises,
    # whatever the number of counts per pass
    cfg, pm = SystemConfig(**changes), PowerModel(**power)
    point = cfg.replace(n=20)
    assert ee_or_none(point, pm, figures.GAMMA_DEFAULT, K=1) is not None
    with pytest.raises(ConfigError) as per_k:
        _figure7_by_k(cfg, pm)
    for chunk in (1, 7, optimize.LANE_CHUNK):
        monkeypatch.setattr(optimize, "LANE_CHUNK", chunk)
        with pytest.raises(ConfigError) as lanes:
            figures.figure7(cfg, pm)
        assert str(lanes.value) == str(per_k.value)
        monkeypatch.undo()
    for chunk in (1, 7):   # and rows as the loop's where nothing raises
        monkeypatch.setattr(optimize, "LANE_CHUNK", chunk)
        assert repr(figures.figure7(SystemConfig(), PowerModel())[1]) == \
            repr(_figure7_by_k(SystemConfig(), PowerModel()))


def test_figure7_at_a_frame_too_short_for_the_configured_k(capsys):
    # T = 20 admits K = 10 at psi = 1 but only K <= 2 at psi = L = 7: each
    # curve's rows are those of its own user counts, the psi = L ones too
    code, out, err = run(capsys, "figure", "7", "--T", "20")
    assert (code, err) == (0, "")
    rows = [[psi, d, K, repr(ee), feasible] for psi, d, K, ee, feasible
            in _figure7_by_k(SystemConfig(T=20), PowerModel())]
    assert [row[0] for row in rows].count(7) == 2
    assert out == "psi,d,K,ee_bits_per_joule,feasible\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in rows)
    code, _, err = run(capsys, "figure", "7", "--T", "5")   # K = 10 > T
    assert code == 2 and "psi*K exceeds T" in err


def test_figure7_prints_no_rows_for_a_curve_with_no_user_count(capsys):
    # T = 6 < L = 7: the psi = L curve sweeps no count and once stopped the
    # two psi = 1 curves with "psi*K exceeds T"
    code, out, err = run(capsys, "figure", "7", "--T", "6", "--K", "5")
    assert (code, err) == (0, "")
    rows = [[psi, d, K, repr(ee), feasible] for psi, d, K, ee, feasible
            in _figure7_by_k(SystemConfig(T=6, K=5), PowerModel())]
    assert [row[:2] for row in rows] == [[1, 1]] * 6 + [[1, 2]] * 6
    assert out == "psi,d,K,ee_bits_per_joule,feasible\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in rows)


def _ee_or_nan_any(cfg, pm, n):
    """energy_efficiency at n, NaN wherever it raises (ConfigError too)."""
    try:
        return energy_efficiency(cfg, pm, figures.GAMMA_DEFAULT, n=n)
    except (InfeasibleAntennasError, RateUnachievableError, ConfigError):
        return math.nan


def _n_star_or_missing(cfg, pm, gamma=figures.GAMMA_DEFAULT, M=None):
    try:
        result = optimal_n(cfg, pm, gamma, M=M)
    except (RateUnachievableError, OptimizationError):
        return -1, math.nan
    return result.n, result.ee


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# Each n-sweep runner with the (cfg, pm) behind each row, from the row's key.
N_SWEEPS = {
    3: lambda cfg, pm, d, beta: (cfg.replace(d=d, beta=beta), pm),
    4: lambda cfg, pm, p_rrh, psi: (cfg.replace(psi=psi),
                                    pm.replace(P_RRH=p_rrh)),
    6: lambda cfg, pm, alpha2, psi: (cfg.replace(d=2, alpha2=alpha2, psi=psi),
                                     pm),
    10: lambda cfg, pm, M, p0, pbt: (cfg.replace(M=M),
                                     pm.replace(P_0=p0, P_BT=pbt)),
}


@pytest.mark.parametrize("changes", [{}, {"K": 20, "alpha2": 0.2},
                                     {"beta": 1e300}])
def test_n_sweep_figures_equal_energy_efficiency(changes):
    # every n of a curve shares one SINR breakdown; each row must still equal
    # a per-point energy_efficiency bit for bit, NaN/feasible=0 where it raises
    cfg, pm = SystemConfig(**changes), PowerModel()
    feasible = set()
    for number, point_of in N_SWEEPS.items():
        if "beta" in changes:   # a breakdown beyond the double range
            with pytest.raises(ConfigError, match="double range"):
                figures.RUNNERS[number](cfg, pm)
            continue
        header, rows = figures.RUNNERS[number](cfg, pm)
        n_col = header.index("n")
        for row in rows:
            cfg_i, pm_i = point_of(cfg, pm, *row[:n_col])
            ref = _ee_or_nan_any(cfg_i, pm_i, row[n_col])
            assert _same(row[n_col + 1], ref), (number, row)
            assert row[n_col + 2] == int(not math.isnan(ref)), (number, row)
            if number != 10:
                assert row[-1] == _n_star_or_missing(cfg_i, pm_i)[0]
            feasible.add(row[n_col + 2])
    if "beta" in changes:
        return
    assert feasible == {0, 1}
    _, rows = figures.figure5(cfg, pm)
    for psi, gamma, ee, n_star in rows:
        ref = _n_star_or_missing(cfg.replace(psi=psi), pm, gamma)
        assert n_star == ref[0] and _same(ee, ref[1])
    _, rows = figures.figure9(cfg, pm)
    for K, M, n_star, ee, ok in rows:
        ref = _n_star_or_missing(cfg.replace(K=K), pm, M=M)
        assert n_star == ref[0] and _same(ee, ref[1]) and ok == int(n_star > 0)


def test_every_config_field_is_a_flag_on_every_model_subcommand():
    names = [f.name for cls in (SystemConfig, PowerModel)
             for f in dataclasses.fields(cls)]
    names += [name + "_dbm" for name in _DBM_CONVERTIBLE]
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action.choices, dict))
    for command in MODEL_SUBCOMMANDS:
        flags = subparsers.choices[command]._option_string_actions
        for name in names:
            flag = "--" + name.replace("_", "-")
            assert flag in flags and flags[flag].dest == name, (command, flag)
            # read as config-file text: no type or choices of the flag's own
            assert flags[flag].type is flags[flag].choices is None, flag


@pytest.mark.parametrize("text", ["10", "10.0", "1e1", "9007199254740993",
                                  "1" + "0" * 400, "0.5", "nan", "abc",
                                  "exact", "bogus"], ids=lambda text: text[:20])
@pytest.mark.parametrize("key", [
    *(f.name for cls in (SystemConfig, PowerModel)
      for f in dataclasses.fields(cls)),
    *(name + "_dbm" for name in _DBM_CONVERTIBLE)])
def test_a_flag_reads_as_its_config_file_line(capsys, tmp_path, key, text):
    # one reader: "--key TEXT" and the line "key = TEXT" give the same
    # (cfg, pm), or exit 2 with the same message; argparse typed the flags,
    # so --K 1e1 was a usage error and 2^53 + 1 loaded from a file as 2^53
    path = tmp_path / "line.cfg"
    path.write_text(f"{key} = {text}\n")
    outcomes = []
    for argv in (("--" + key.replace("_", "-"), text), ("--config", str(path))):
        try:
            outcomes.append(scenario_from_args(
                build_parser().parse_args(["de-curve", *argv])))
        except ConfigError:
            code, out, err = run(capsys, "de-curve", *argv)
            assert code == 2 and out == "", (code, out)
            outcomes.append(err)
    assert outcomes[0] == outcomes[1]


def test_gainless_non_serving_links_run(capsys):
    # alpha1 = 0 without co-pilot cells ran into 1/0 in negligible mode; at
    # M = 1 alpha1 does not enter the model, so the output is unchanged
    _, reference, _ = run(capsys, "opt-n", "--gamma", "2", "--no-pc",
                          "--M", "1", "--alpha1", "0.54")
    code, out, err = run(capsys, "opt-n", "--gamma", "2", "--no-pc",
                         "--M", "1", "--alpha1", "0")
    assert code == 0 and err == "" and out == reference
    for argv in (("opt-n", "--gamma", "2", "--no-pc", "--alpha1", "0"),
                 ("opt-k", "--gamma", "2", "--alpha1", "0", "--psi", "7")):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["ee_bits_per_joule"] > 0
