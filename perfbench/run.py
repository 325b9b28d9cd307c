"""nafdrive benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/`` next to this directory, so nothing has to be installed or built.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer split of a
traced run instead.  See README.md in this directory for the workloads and
what each metric means.
"""

import os

# The same BLAS thread setting on every side of every comparison.  It must be
# in the environment before numpy is first imported, here and in set-up probes.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train-default", "eval-greedy", "traffic-dense")
SETUP_REPEATS = 7
NOT_MEASURED = ["Tier-1 test suite wall time", "hardware counters"]


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "not_measured": NOT_MEASURED,
    }


def measure_setup(work_dir: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: (normalised, as measured).

    Each probe also times the simulation kernel right after its set-up, and
    its set-up time is stated in seconds of the reference machine.
    """
    from calibrate import SIMULATION
    from workloads import CheckFailed

    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), work_dir, str(seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CheckFailed(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["setup_s"] * SIMULATION.reference_s / probe["kernel_s"])
        walls.append(probe["setup_s"])
    return statistics.median(times), statistics.median(walls)


def _median(values):
    return statistics.median(values) if values else 0.0


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: str,
        smoke: bool = False) -> dict:
    """Run one workload and return the result object that run.py prints."""
    from nafdrive.errors import NumericalError, SimulationFault
    from calibrate import Windows
    from tracing import EXACT_COUNTS, SELF_TIME_METRICS, Region, Tracer, layer_metrics
    from workloads import WORKLOADS, CheckFailed

    workload = WORKLOADS[name](work_dir, seed, smoke)
    setup_s, setup_wall_s = (0.0, 0.0) if trace else measure_setup(work_dir, seed)
    if not trace:
        workload.kernel.warm_up()
    jobs, traced_flags, tracers = [], [], []
    attempted = failed = 0
    error = None
    start = time.perf_counter()
    i = 0
    # A job starts only if it is expected to end within `seconds`; at least
    # two run, for the check that repeats at one seed give the same outputs.
    # A traced run alternates untraced and traced jobs in pairs, each pair in
    # the other order than the last (U T, T U, U T, ...), so that drift of the
    # machine does not pass for tracing overhead.
    last = 0.0
    while i < 2 or (trace and i % 2) or time.perf_counter() - start + last <= seconds:
        job_start = time.perf_counter()
        traced = trace and i % 4 in (1, 2)
        tracer = Tracer() if traced else None
        job_dir = os.path.join(work_dir, f"job-{i}")
        os.makedirs(job_dir)
        attempted += workload.ops
        try:
            windows = Windows(None if trace else workload.kernel)
            result = workload.run_job(job_dir, Region(tracer), windows)
            if jobs and result.digest != jobs[0].digest:
                raise CheckFailed("outputs differ from the first job's at the same seed")
        except (CheckFailed, NumericalError, SimulationFault, RuntimeError) as exc:
            failed += workload.ops
            error = f"{type(exc).__name__}: {exc}"
            break
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
        last = time.perf_counter() - job_start
        jobs.append(result)
        traced_flags.append(traced)
        if traced:
            tracers.append(tracer)
        i += 1

    as_measured = {}  # the same rates and times in wall time, printed but not compared
    if not trace:
        windows = [w for j in jobs for w in j.windows]
        metrics = {
            "ops_per_s": (_median([w.ops / w.seconds for w in windows]), "1/s"),
            "sim_ticks_per_s": (_median([w.ticks / w.seconds for w in windows]), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        as_measured = {
            "ops_per_s": (_median([w.ops / w.wall_s for w in windows]), "1/s"),
            "sim_ticks_per_s": (_median([w.ticks / w.wall_s for w in windows]), "1/s"),
            "setup_s": (setup_wall_s, "s"),
        }
    else:
        # per-layer values are means over the traced jobs; equal values are
        # kept as they are, so counts stay whole numbers
        per_job = [layer_metrics(t) for t in tracers] or [layer_metrics(Tracer())]
        metrics = {}
        for key, (value, unit) in per_job[0].items():
            values = [m[key][0] for m in per_job]
            metrics[key] = (value if len(set(values)) == 1 else statistics.fmean(values), unit)
            if key in EXACT_COUNTS and len(set(values)) > 1 and error is None:
                error = f"CheckFailed: {key} differs between traced jobs at one seed"
        split = sum(metrics[key][0] for key in SELF_TIME_METRICS) + metrics["trace.untraced_s"][0]
        wall = metrics["trace.wall_s"][0]
        if abs(split - wall) > 1e-9 * max(wall, 1.0) and error is None:
            error = f"CheckFailed: layer times add up to {split} s, traced wall time is {wall} s"
        pairs = list(zip(jobs[0::2], traced_flags[0::2], jobs[1::2]))
        ratios = [(b.seconds / a.seconds) if not a_traced else (a.seconds / b.seconds)
                  for a, a_traced, b in pairs]
        metrics["trace.overhead_ratio"] = (_median(ratios), "ratio")

    return {
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "as_measured": as_measured,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny jobs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "nafdrive")):
        print(f"error: no nafdrive sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work_root = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(work_root, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir,
                     smoke=args.smoke)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it

    from workloads import WORKLOADS

    error = result.pop("error")
    as_measured = result.pop("as_measured")
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    op = WORKLOADS[args.workload].op
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} {op} "
          f"attempted, {result['failed']} failed, correct={result['correct']}")
    for key, m in result["metrics"].items():
        wall = (f"  (as measured: {as_measured[key][0]:.6g} {as_measured[key][1]})"
                if key in as_measured else "")
        print(f"  {key} = {m['value']:.6g} {m['unit']}{wall}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
