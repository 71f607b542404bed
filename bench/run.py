"""Benchmark of the chiralcmm command line.

    python3 bench/run.py --workload figure_sweeps --seed 0 --seconds 60 --trace 0

Each workload runs its CLI invocations (see workloads.py) through
``chiralcmm.cli.main`` in fresh interpreters started by this script, from
the ``src`` directory of the checkout this file sits in.

Host speed.  On a shared host the speed a process gets drifts by up to 2x
within seconds, which no number of repetitions averages out.  So every
worker samples the host's speed while it works: it times a fixed kernel
that uses no chiralcmm code (worker.kernel) before and after set-up,
between invocations and, from a timer signal, every half second during
each 1-worker invocation; the time the samples take is not counted.  Each
time below is reported at the reference speed: the measured time of an
invocation times the mean of CAL_REF_S / kernel time over its samples.
CAL_REF_S is the kernel's duration on a 2-core cloud VM at its faster
speed, so a reported second is about a second there.  The unscaled medians
are printed too, as notes.

--trace 0 repeats the workload, one fresh process per repetition, while
another repetition is expected to end within --seconds (there is always at
least one), and reports the medians of the end-to-end metrics:

  setup_s      interpreter start to the first timed call (import of
               chiralcmm.cli and loading the configs), at least 5 samples
  wall_s       wall time of the workload's CLI invocations
  rows_per_s   output rows per second of wall_s (for comb_search, whose
               output is one threshold, bisection probes per second)
  cpu_s        user plus system time of the worker and its pool processes
  peak_rss_mb  peak RSS of the worker plus that of its largest child

figure_sweeps ends each repetition with fig2a behind a pool of 2 worker
processes, and its CSV must be byte-identical to the 1-worker fig2a CSV.

--trace 1 runs the workload's 1-worker invocations once, traced, and
reports the per-layer metrics of tracer.py.

Every output is checked (checks.py).  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402

OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0      # whole run, so that the script ends within 180 s
CAL_REF_S = 0.02          # worker.kernel's duration on the reference host
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("rows_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def at_reference_speed(times, samples) -> float:
    """Sum of ``times``, each scaled by the mean of CAL_REF_S over the kernel
    times of its speed samples."""
    return sum(t * statistics.fmean(CAL_REF_S / s for s in taken)
               for t, taken in zip(times, samples))


class Run:
    """Spawns worker processes for one workload and seed, and checks them."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.setups: list[tuple[float, float]] = []    # (scaled, measured)
        self.reps: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passed: list[str] = []
        self.n_children = 0

    def spawn(self, mode: str):
        """One worker process; returns (its result or None, its invocations)."""
        out = OUT_DIR / self.workload.name / f"p{self.n_children}"
        self.n_children += 1
        out.mkdir(parents=True)
        calls = invocations(self.workload, self.seed, str(out))
        if mode == "traced":
            calls = [c for c in calls if c.workers == 1]
        spec = {"invocations": [list(c.argv) for c in calls], "mode": mode,
                "pooled": [i for i, c in enumerate(calls) if c.workers > 1]}
        env = dict(self.env, TMPDIR=str(out))
        started = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                                  input=json.dumps(spec), capture_output=True,
                                  text=True, cwd=ROOT, env=env,
                                  timeout=max(self.deadline - started, 1.0))
        except subprocess.TimeoutExpired:
            self.fail(f"{mode} process ran past the {TIME_LIMIT_S:.0f} s limit")
            return None, calls
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.fail(f"{mode} process exited with {proc.returncode}: {tail}")
            return None, calls
        result = json.loads(lines[-1])
        setup = result["ready"] - started
        self.setups.append((at_reference_speed([setup], [result["setup_samples"]]),
                            setup))
        return result, calls

    def fail(self, message: str) -> None:
        self.problems.append(message)
        self.failed += 1

    def check(self, label: str, problems: list[str]) -> None:
        for p in problems:
            self.fail(p)
        if not problems:
            self.passed.append(label)

    def execute(self, mode: str):
        """Run and check the workload once; the result is None on failure."""
        result, calls = self.spawn(mode)
        self.attempted += sum(c.rows for c in calls)
        if result is None:
            self.failed += sum(c.rows for c in calls)
            return None, calls
        for call, code in zip(calls, result["codes"]):
            self.check_output(call, code, result["probes"])
        for pooled in (c for c in calls if c.workers > 1):
            self.check_pool(pooled, next(c for c in calls if c.workers == 1
                                         and c.config == pooled.config))
        return result, calls

    def check_output(self, call, code: int, probes) -> None:
        path = Path(call.out)
        if code != 0 or not path.is_file():
            self.failed += call.rows
            self.problems.append(f"{call.config}: exit code {code}")
            return
        header, rows = checks.read_csv(path)
        if self.workload.comb:
            if not probes:
                self.fail(f"{call.config}: no bisection probes recorded")
                return
            self.check("comb probes and threshold",
                       checks.comb_result(rows, probes[0]))
        else:
            if len(rows) != call.rows:
                self.fail(f"{call.config}: {len(rows)} rows, expected {call.rows}")
            errors = sum(1 for r in rows if r[-1])
            if errors:
                self.failed += errors
                self.problems.append(f"{call.config}: {errors} rows carry an error")
        if call.workers > 1:
            return      # the same rows as the 1-worker CSV, see check_pool
        if self.seed == 0:
            self.check(f"{call.config} matches its reference",
                       checks.compare_reference(call.config, header, rows))
        if call.config == "fig2a":
            self.check("fig2a optimum", checks.fig2a_optimum(header, rows))
        elif call.config == "fig2d_magnon":
            self.check("fig2d_magnon filtered resource",
                       checks.filtered_resource(header, rows))

    def check_pool(self, pooled, single) -> None:
        """ROADMAP's worker-count gate: the pooled CSV equals the 1-worker one."""
        a, b = Path(pooled.out), Path(single.out)
        same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
        self.check(f"{pooled.config} CSV identical for 1 and {pooled.workers} "
                   "workers", [] if same else [
                       f"{pooled.config}: {pooled.workers}-worker CSV differs "
                       "from the 1-worker CSV"])

    def measure(self, seconds: float) -> dict:
        start = time.monotonic()
        while True:
            result, calls = self.execute("timed")
            if result is None:
                break
            wall = at_reference_speed(result["walls"], result["samples"])
            self.reps.append({
                "wall_s": wall,
                "cpu_s": at_reference_speed(result["cpus"], result["samples"]),
                "peak_rss_mb": result["peak_rss_mb"],
                "rows_per_s": sum(c.rows for c in calls) / wall,
                "measured_wall_s": sum(result["walls"]),
                "measured_cpu_s": sum(result["cpus"]),
                "speed_probe_s": statistics.median(
                    s for taken in result["samples"] for s in taken)})
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(self.reps) > seconds:
                break
        while len(self.setups) < SETUP_SAMPLES and not self.problems:
            result, _ = self.spawn("setup")
            if result is None:
                break
        return self.medians()

    def medians(self) -> dict:
        if not self.reps or not self.setups:
            return {}
        out = {"setup_s": statistics.median(s for s, _ in self.setups),
               "measured_setup_s": statistics.median(m for _, m in self.setups)}
        for name in self.reps[0]:
            out[name] = statistics.median(s[name] for s in self.reps)
        return out

    def trace(self) -> dict:
        traced, _ = self.execute("traced")
        return {} if traced is None else traced["layers"]


def machine(seed: int) -> dict:
    """Where and what the benchmark ran: hardware, versions, BLAS threads."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            src.update(path.relative_to(ROOT).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k, "unset") for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[Path(path).name] = getattr(lib, symbol)()
                break
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chiralcmm" / "cli.py").is_file():
        print(f"error: no chiralcmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    info = machine(args.seed)
    shutil.rmtree(OUT_DIR / args.workload, ignore_errors=True)
    run = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        values = run.trace()
        from tracer import LAYER_METRICS
        units = [(name, unit) for name, unit, *_ in LAYER_METRICS]
    else:
        values = run.measure(args.seconds)
        units = END_TO_END
    correct = (not run.problems and run.failed == 0
               and all(name in values for name, _ in units))

    print("machine " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.n_children} worker process(es), {len(run.reps)} timed "
          f"repetition(s), {len(run.setups)} set-up sample(s)")
    for name, unit in units:
        if name in values:
            print(f"  {name:42s} {values[name]:.6g} {unit}")
    error_frac = run.failed / max(run.attempted, 1)
    print(f"  {'error_frac':42s} {error_frac:.6g} ({run.failed}/{run.attempted})")
    for name in ("measured_setup_s", "measured_wall_s", "measured_cpu_s",
                 "speed_probe_s"):
        if name in values:
            print(f"  {name:42s} {values[name]:.6g} s (not scaled)")
    for label in dict.fromkeys(run.passed):
        print(f"check passed: {label}")
    for problem in run.problems:
        print(f"check FAILED: {problem}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units if name in values}
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
