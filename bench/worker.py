"""One fresh interpreter running CLI invocations through ``chiralcmm.cli.main``.

Reads a JSON spec from standard input::

    {"invocations": [[argv...], ...], "mode": "setup" | "timed" | "traced",
     "pooled": [index of each invocation that runs a process pool, ...]}

Set-up is importing ``chiralcmm.cli`` from the checkout's ``src`` and
loading every invocation's config; the monotonic clock reading at its end
is reported as ``ready``, so the parent can time set-up from the moment it
started this process.  The host-speed probe (``SpeedProbe``) takes a sample
before and after set-up; the time of the first is taken off ``ready``.  In
"timed" and "traced" modes the invocations run back to back, and the last
line of standard output is a JSON object with the wall and CPU time of each
invocation, peak memory, exit codes and, for the comb search, the bisection
probes.  "timed" adds the speed samples taken during and around each
invocation, "traced" the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np
import scipy.linalg

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

KERNEL_MATRIX = np.random.default_rng(0).standard_normal((8, 8)) - 4.0 * np.eye(8)
KERNEL_REPS = 200
SAMPLE_INTERVAL_S = 0.5


def kernel() -> float:
    """CPU seconds of a fixed piece of work that uses no chiralcmm code:
    small dense LAPACK calls and interpreted Python, the mix the workloads
    spend their time on.  Its duration follows the speed the host gives
    this process at the moment it runs; CPU time rather than wall time, so
    that a reading taken while pool workers hold both cores still measures
    the host and not the queue for a core."""
    c0 = time.process_time()
    eye = np.eye(8)
    for _ in range(KERNEL_REPS):
        scipy.linalg.solve_continuous_lyapunov(KERNEL_MATRIX, -eye)
        np.linalg.eigvals(KERNEL_MATRIX)
        total = 0
        for k in range(60):
            total += k * k
    return time.process_time() - c0


class SpeedProbe:
    """Samples the host's speed by running ``kernel`` every
    SAMPLE_INTERVAL_S of wall time from a timer signal, and counts the time
    those samples take so that it can be taken off the measured times."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = self.spent_cpu = 0.0

    def sample(self, *_signal) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(kernel())
        self.spent_wall += time.perf_counter() - w0
        self.spent_cpu += time.process_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def _usage() -> tuple[float, float]:
    """CPU seconds of this process and its waited-for children, peak RSS in MB."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, (me.ru_maxrss + kids.ru_maxrss) / 1024.0


def main() -> int:
    spec = json.load(sys.stdin)
    probe = SpeedProbe()
    probe.sample()
    from chiralcmm import cli
    from chiralcmm.constants import to_hz

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"chiralcmm imported from {cli.__file__}, "
                         f"not from {ROOT / 'src'}")
    parser = cli.build_parser()
    for argv in spec["invocations"]:
        cli.load_config(parser.parse_args(argv))
    result = {"ready": time.monotonic() - probe.spent_wall}
    probe.sample()
    result["setup_samples"] = probe.samples[:]
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return 0

    probes = []
    search = cli.comb_threshold

    def recording_search(*args, **kwargs):
        res = search(*args, **kwargs)
        probes.append([(to_hz(target), kind, to_hz(realized))
                       for target, kind, realized in res.probes])
        return res

    cli.comb_threshold = recording_search
    run = cli.main
    tracer = None
    if spec["mode"] == "traced":
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)

    # Invocation i is timed without the samples taken during it, and its
    # samples are those taken during it and the ones just before and after.
    # Pooled invocations are not sampled while they run: a sample would
    # take a core from the pool and read the speed of a loaded host.
    codes, walls, cpus, samples = [], [], [], []
    for i, argv in enumerate(spec["invocations"]):
        first = len(probe.samples) - 1
        spent = probe.spent_wall, probe.spent_cpu
        if tracer is not None:
            tracer.invocation = i
        if tracer is None and i not in spec["pooled"]:
            probe.start()
        cpu0, _ = _usage()
        t0 = time.perf_counter()
        codes.append(run(list(argv)))
        probe.stop()
        wall = time.perf_counter() - t0
        cpu = _usage()[0] - cpu0
        walls.append(wall - (probe.spent_wall - spent[0]))
        cpus.append(cpu - (probe.spent_cpu - spent[1]))
        if tracer is None:
            probe.sample()
            samples.append(probe.samples[first:])

    result.update(walls=walls, cpus=cpus, samples=samples,
                  peak_rss_mb=_usage()[1], codes=codes, probes=probes)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
