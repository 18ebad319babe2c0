"""Benchmark of dasee: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload {mc-validate,design-explore,model-checks} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  The workload's op list (one *pass*) is built from the seed and
repeated until the passes' op time adds up to ``--seconds`` (at least
``MIN_PASSES`` passes).  Every op's output is checked after its pass, with
the clock stopped.  ``--trace 0`` reports the end-to-end metrics from
speed-adjusted op times (see speed.py); ``--trace 1`` runs ``TRACE_PASSES``
untraced and then as many traced passes and reports per-layer metrics from
the speed-adjusted spans (see spans.py and layers.py).  The last line of
standard output is one JSON object; a fuller record with the machine and
provenance block goes to ``bench/results/``.
"""
import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

MIN_PASSES = 2         # timed passes per run, at least
TRACE_PASSES = 1       # untraced and traced passes of a --trace 1 run
SETUP_SAMPLES = 7      # set-ups timed in fresh children
TAIL_BEYOND = 10       # samples a reported percentile needs beyond it
CHILD_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no library source)."""


def load_library() -> None:
    """Put the checkout's ``src`` first on sys.path and import dasee."""
    package = ROOT / "src" / "dasee"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no dasee source under {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import dasee
    if Path(dasee.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported dasee from {dasee.__file__}, "
                         f"not from {package}")


# --- statistics --------------------------------------------------------------

def percentile(samples, q: float, min_beyond: int = 0):
    """Nearest-rank q-quantile, or None if fewer than ``min_beyond``
    samples rank above it."""
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


# --- the closed loop ---------------------------------------------------------

@dataclass(frozen=True)
class Failed:
    """An op raised an unexpected exception."""

    error: str


@dataclass
class Section:
    durations: list          # per pass, seconds per op
    adjusted: list           # per pass, speed-adjusted seconds per op
    attempted: int
    failures: dict           # seq -> failure text
    scale: dict              # seq -> speed factor (adjusted / raw time)

    @property
    def pass_times(self) -> list[float]:
        return [sum(durations) for durations in self.durations]

    @property
    def timed_s(self) -> float:
        return sum(self.pass_times)

    def op_s(self) -> list[float]:
        """Each op's median speed-adjusted time over the passes."""
        return [statistics.median(times) for times in zip(*self.adjusted)]


def run_passes(workload, seconds: float, min_passes: int,
               max_passes: int | None = None, tracer=None,
               first_seq: int = 0, limit: int | None = None,
               after_pass=None, meter=None) -> Section:
    """Whole passes until ``seconds`` of op time, checking each pass.

    ``limit`` runs only the first ``limit`` ops of each pass;
    ``after_pass()`` runs after each pass, with the clock stopped; a
    ``speed.Meter`` samples the reference kernel between ops.
    """
    ops = workload.ops[:limit]
    section = Section([], [], 0, {}, {})
    seq = first_seq
    clock = time.perf_counter
    while True:
        records = []
        durations = []
        adjusted = []
        if meter is not None:
            meter.start()
        for index, op in enumerate(ops):
            start = clock()
            try:
                if tracer is None:
                    outcome = op.run(seq)
                else:
                    tracer.op = seq
                    outcome = tracer.call(spans.OP_SPAN, op.run, (seq,), {})
            except Exception:
                outcome = Failed(traceback.format_exc())
            durations.append(clock() - start)
            if meter is not None:
                meter.add(adjusted, durations[-1])
            records.append((seq, index, outcome))
            seq += 1
        if meter is not None:
            meter.flush()
            section.scale.update(
                (seq, adj / raw) for (seq, _, _), raw, adj
                in zip(records, durations, adjusted) if raw > 0)
        section.durations.append(durations)
        section.adjusted.append(adjusted)
        section.attempted += len(records)
        section.failures.update(check_records(workload, records))
        if after_pass is not None:
            after_pass()
        done = len(section.pass_times)
        if max_passes is not None and done >= max_passes:
            return section
        if done >= min_passes and section.timed_s >= seconds:
            return section


def check_records(workload, records) -> dict:
    failures = {seq: out.error.strip().splitlines()[-1]
                for seq, _, out in records if isinstance(out, Failed)}
    good = [r for r in records if r[0] not in failures]
    try:
        failures.update(workload.check(good))
    except Exception:
        text = traceback.format_exc().strip().splitlines()[-1]
        failures.update({seq: f"check raised: {text}" for seq, _, _ in good})
    return failures


# --- machine and provenance -------------------------------------------------

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    import numpy

    import workloads
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "realizations": workloads.MC_REALIZATIONS,
        "loop": "closed, one caller",
    }


# --- set-up -----------------------------------------------------------------

def set_up(args, tmpdir):
    """Import dasee, build the seeded inputs and warm up; return the
    workload and the seconds that took.

    The interpreter's start and numpy's import are left out: they are not
    dasee's, and they follow the host's file and memory load, which the
    reference kernel does not track (numpy's import time once halved
    between two runs while the rest of set-up got 1.2x faster).
    """
    start = time.perf_counter()
    load_library()
    import workloads
    workload = workloads.build(args.workload, args.seed, tmpdir)
    workload.warm_up()
    return workload, time.perf_counter() - start


def child(args, mode: str, env=None) -> dict:
    """Run this script in a fresh interpreter; parse its last stdout line."""
    argv = [sys.executable, str(Path(__file__).resolve()), mode,
            "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- metrics ----------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(section: Section, setup_samples, meter) -> tuple[dict, dict]:
    """(gated metrics, extra figures) of an untraced run.

    Op timings are speed-adjusted (see speed.py); each op counts with its
    median over the passes.  wall_s sums those into one pass, ops_per_s is
    ops per such pass, op_ms_p50 is their median and op_ms_p90 their
    nearest-rank 90th percentile.  The raw figures go to the extras.
    """
    per_op = section.op_s()
    wall = sum(per_op)
    p90 = percentile(per_op, 0.9, TAIL_BEYOND)
    raw = [d for durations in section.durations for d in durations]
    gated = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(len(per_op) / wall, "1/s"),
        "op_ms_p50": metric(1e3 * statistics.median(per_op), "ms"),
        "peak_rss_mb": metric(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"op_ms_p90": None if p90 is None else 1e3 * p90,
             "ops": len(raw),
             "ops_per_pass": len(per_op),
             "passes": len(section.durations),
             "raw_pass_s": section.pass_times,
             "raw_ops_per_s": len(raw) / section.timed_s,
             "raw_op_ms_p50": 1e3 * percentile(raw, 0.5),
             "op_ms": [1e3 * t for t in per_op],
             "reference_s": {"nominal": speed.REF_S,
                             "median": statistics.median(meter.samples),
                             "min": min(meter.samples),
                             "max": max(meter.samples)},
             "setup_samples_s": setup_samples}
    return gated, extra


def run_untraced(args, workload, setup_s):
    samples = []               # (adjusted, raw) seconds

    def sample_setup():
        # Spread over the run, so that the median sees its machine states.
        # A set-up is computation, scaled like the ops, by kernel samples
        # this warm process takes around the child.
        if len(samples) < SETUP_SAMPLES:
            before = speed.sample()
            raw = child(args, "--setup-only")["setup_s"]
            kernel = (before + speed.sample()) / 2.0
            samples.append((raw * speed.REF_S / kernel, raw))

    meter = speed.Meter()
    section = run_passes(workload, args.seconds, MIN_PASSES,
                         after_pass=sample_setup, meter=meter)
    while len(samples) < SETUP_SAMPLES:
        sample_setup()
    gated, extra = end_to_end(section, [s for s, _ in samples], meter)
    extra["raw_setup_samples_s"] = [raw for _, raw in samples]
    extra["raw_setup_s"] = setup_s
    return section.attempted, section.failures, gated, extra


def run_traced(args, workload):
    import layers
    limit = workload.trace_ops
    untraced = run_passes(workload, 0.0, TRACE_PASSES, TRACE_PASSES,
                          limit=limit, meter=speed.Meter())
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        traced = run_passes(workload, 0.0, TRACE_PASSES, TRACE_PASSES, tracer,
                            first_seq=len(workload.ops) * TRACE_PASSES,
                            limit=limit, meter=speed.Meter())
    finally:
        uninstall()
    attempted = untraced.attempted + traced.attempted
    failures = {**untraced.failures, **traced.failures}
    # The wrapper's cost per call, timed here and scaled like the ops.
    before = speed.sample()
    cost = spans.wrapper_cost()
    span_cost_s = cost * speed.REF_S / ((before + speed.sample()) / 2.0)
    corners = {}
    if args.workload == "mc-validate":
        # Default threads, then one BLAS thread, each in a fresh child.
        one = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
        for label, env in (("default", None), ("blas1", one)):
            out = child(args, "--corners", env)
            corners[label] = out["realization_ms"]
            attempted += out["attempted"]
            failures.update({f"{label}-{k}": v
                             for k, v in out["failures"].items()})
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    # The overhead compares speed-adjusted times of the same ops.
    untraced_s = sum(sum(times) for times in untraced.adjusted)
    traced_s = sum(sum(times) for times in traced.adjusted)
    trace = tracer.spans()
    metrics = layers.per_layer(workload, trace, traced.scale, untraced_s,
                               traced_s, span_cost_s, corners)
    extra = {"spans": len(trace),
             "raw_span_cost_s": cost,
             "raw_untraced_pass_s": untraced.pass_times,
             "raw_traced_pass_s": traced.pass_times}
    return attempted, failures, metrics, extra


def corner_pass(args, tmpdir) -> dict:
    """Traced, speed-adjusted pass over the 8 corner points, in this
    process with the BLAS threads its environment gives."""
    load_library()
    import layers
    import workloads
    workload = workloads.mc_validate(args.seed, tmpdir,
                                     points=workloads.MC_CORNERS)
    workload.warm_up()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        section = run_passes(workload, 0.0, 1, 1, tracer, meter=speed.Meter())
    finally:
        uninstall()
    return {"blas_threads": blas_threads(),
            "realization_ms": layers.realization_ms(
                workload, tracer.spans(), section.scale),
            "attempted": section.attempted,
            "failures": {str(k): v for k, v in section.failures.items()}}


# --- entry point ------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-validate", "design-explore",
                                 "model-checks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true",
                      help=argparse.SUPPRESS)
    mode.add_argument("--corners", action="store_true",
                      help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    RESULTS.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    try:
        try:
            if args.corners:
                print(json.dumps(corner_pass(args, tmpdir)))
                return 0
            workload, setup_s = set_up(args, tmpdir)
        except SetupError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            attempted, failures, metrics, extra = run_traced(args, workload)
        else:
            attempted, failures, metrics, extra = run_untraced(
                args, workload, setup_s)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    failed = len(failures)
    record = {"provenance": provenance(args), "metrics": metrics,
              "error_rate": failed / attempted, "attempted": attempted,
              "failed": failed, "failures": dict(list(failures.items())[:20]),
              **extra}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, default=str) + "\n")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        p90 = extra["op_ms_p90"]
        print(f"{'op_ms_p90':48s} " + ("omitted (fewer than "
              f"{TAIL_BEYOND} ops beyond it)" if p90 is None
              else f"{p90:.6g} ms") + f"  [{extra['ops_per_pass']} ops "
              f"x {extra['passes']} passes]")
    print(f"{'error_rate':48s} {failed}/{attempted}")
    for key, text in list(failures.items())[:5]:
        print(f"failed op {key}: {text}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
