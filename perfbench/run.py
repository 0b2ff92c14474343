"""Benchmark of the ``brauer`` package: one workload per run.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload words --seed 1 --seconds 10 --trace 0

Readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing code in the path.  ``--trace 1`` is a separate run that records
spans at the layer boundaries and reports the per-layer metrics; it also
writes every span to ``.perfbench/trace-<workload>-seed<seed>.jsonl.gz``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bfs-cold", "lookup-warm", "words", "audit")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
clock = time.perf_counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _speed_loop():
    counts = {}
    for i in range(1500):
        key = (i & 255, i >> 3)
        counts[key] = counts.get(key, 0) + 1


class SpeedProbe:
    """Turns times taken on a machine whose speed drifts into
    reference-speed seconds.

    On a shared 2-vCPU Intel Xeon virtual machine (Python 3.11.7) a fixed
    Python loop took up to twice as long in some stretches of seconds as in
    others, and two sets of runs a quarter of an hour apart differed by
    40 %.  While the probe
    is active, a SIGALRM every ``INTERVAL`` seconds runs a fixed loop and
    records how long it took.  ``now`` is the clock minus the time spent in
    those samples, so they never count as measured work.  ``scale(mark)``
    is ``REFERENCE`` times the mean of 1/duration over the samples since
    ``mark`` (at least the last ``WINDOW``): the machine's mean speed over
    that span, relative to one on which the loop takes ``REFERENCE``
    seconds.  A time multiplied by it is in reference-speed seconds.
    """

    INTERVAL = 0.025
    REFERENCE = 0.0003
    WINDOW = 16

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum=None, frame=None):
        t0 = clock()
        _speed_loop()
        t1 = clock()
        self.samples.append(t1 - t0)
        self.stolen += clock() - t0

    def now(self) -> float:
        return clock() - self.stolen

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        if not self.samples:
            self._sample()
        window = self.samples[min(mark, len(self.samples) - self.WINDOW):]
        return self.REFERENCE * statistics.fmean(1 / s for s in window)


def end_to_end(workload, seconds: float):
    """Set-ups, then rounds until their measured time adds up to
    ``seconds``; each round's outputs are checked between rounds, outside
    the measured time.  Times are scaled to reference speed."""
    setups, walls, latencies, raw_walls = [], [], [], []
    attempted = failed = 0
    with SpeedProbe() as probe:
        workload.clock = probe.now
        for _ in range(workload.setups):
            mark, t0 = probe.mark(), probe.now()
            workload.setup()
            setups.append((probe.now() - t0) * probe.scale(mark))
        while sum(raw_walls) < seconds:
            mark = probe.mark()
            wall, ops = workload.round()
            scale = probe.scale(mark)
            raw_walls.append(wall)
            walls.append(wall * scale)
            latencies.extend(op * scale for op in ops)
            a, f = workload.check()
            attempted, failed = attempted + a, failed + f
        speed = probe.scale(0)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": percentile(latencies, 99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(walls)} rounds; unscaled {statistics.median(raw_walls):.6g} s"
                  f" at mean speed {speed:.3f} of reference",
        "op_p50_ms": f"{len(latencies)} operations",
        "op_p99_ms": f"{len(latencies)} operations, nearest rank",
        "peak_rss_mb": "whole process",
    }
    units = dict(END_TO_END)
    return metrics, units, notes, attempted, failed


def layers(workload, seconds: float, seed: int, scratch: str, env: dict):
    """Traced run: the workload's rounds alternate untraced and traced
    (their difference is the tracing overhead), then one traced probe of
    every other workload, so every per-layer metric has spans behind it."""
    from tracing import PER_LAYER, Instrumented, Tracer, call_sites, layer_metrics
    from workloads import WORKLOADS, api, micro_layers

    workload.setup()
    tracer = Tracer()
    sites = call_sites(api)
    plain, traced, own_rounds = [], [], []
    attempted = failed = 0
    while not traced or sum(plain) + sum(traced) < seconds:
        if len(traced) < len(plain):
            first = len(tracer)
            with Instrumented(tracer, sites):
                wall, _ = workload.round()
            traced.append(wall)
            own_rounds.append((first, len(tracer)))
        else:
            plain.append(workload.round()[0])
        a, f = workload.check()
        attempted, failed = attempted + a, failed + f
    for other, cls in WORKLOADS.items():
        if other == workload.name:
            continue
        extra = cls(seed, scratch)
        with Instrumented(tracer, sites):
            extra.setup()
            extra.round()
        a, f = extra.check()
        attempted, failed = attempted + a, failed + f

    own = tracer.self_times()
    roots_self = sum(
        own[s] for first, last in own_rounds for s in range(first, last)
        if tracer.parents[s] < 0
    )
    metrics = layer_metrics(tracer)
    metrics.update(micro_layers(seed))
    metrics["cli.other.s"] = roots_self / len(traced)
    metrics["trace.overhead.s"] = statistics.median(traced) - statistics.median(plain)
    metrics = {m: metrics[m] for m in PER_LAYER}
    units = {m: unit for m, (unit, _) in PER_LAYER.items()}
    notes = {
        "cli.other.s": f"per round, {len(traced)} traced rounds",
        "trace.overhead.s": f"{len(traced)} traced vs {len(plain)} untraced rounds",
    }
    trace_file = ROOT / ".perfbench" / f"trace-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(trace_file, {"workload": workload.name, "seed": seed, "env": env,
                              "metrics": metrics})
    print(f"spans: {len(tracer)} written to {trace_file.relative_to(ROOT)}")
    return metrics, units, notes, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "brauer" / "__init__.py").is_file():
        print(f"error: no brauer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # a user's cache must never turn bfs-cold warm or feed lookup-warm
    os.environ.pop("BRAUER_CACHE_DIR", None)
    from workloads import WORKLOADS

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench")
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        if args.trace:
            result = layers(workload, args.seconds, args.seed, scratch, env)
        else:
            result = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics, units, notes, attempted, failed = result
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
