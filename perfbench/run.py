"""Closed-loop root-query benchmark for braidkit.

    python3 perfbench/run.py --workload planted-n7 --seed 1 --seconds 50 --trace 0

One process, one client, no threads: queries go to the public API back to
back for ``--seconds`` seconds of query time (and at least one window of
queries), and every answer is checked.  The library is imported from the
``src`` directory next to this one, never from an installed copy.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload's window of queries untraced, then the same queries traced, and
prints the per-layer metrics, including the tracing overhead.

Set-up (a cold-start ``braidkit nf`` subprocess plus drawing the first block
of inputs) runs five times; set-up metrics are the medians.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Lines before it give the run's meta data, the outcome digest of
the window and each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
RUN_LIMIT_S = 150.0  # stop querying then, window finished or not, to exit in time
COLD_WORD = "1 2 -1 3 2 -3 1"
MAX_FAILURES_SHOWN = 5


class SetupError(Exception):
    """The benchmark cannot run in this checkout."""


def import_braidkit():
    package = SRC / "braidkit" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"no braidkit sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import braidkit
    import braidkit.core
    import braidkit.roots

    if Path(braidkit.__file__).resolve() != package.resolve():
        raise SetupError(f"imported braidkit from {braidkit.__file__}, "
                         f"not from {package.parent}")
    return braidkit


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def backend(braidkit) -> str:
    for owner in (braidkit, getattr(braidkit, "kernel", None)):
        name = getattr(owner, "backend_name", None)
        if callable(name):
            return name()
    return "absent"


def cold_start_seconds(expected: str) -> float:
    """Wall time of one ``braidkit nf`` call in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "braidkit.cli", "nf", "-n", "4", COLD_WORD],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0 or proc.stdout.strip() != expected:
        raise SetupError(f"cold-start nf call failed (exit {proc.returncode}): "
                         f"{proc.stdout.strip()!r} {proc.stderr.strip()!r}")
    return elapsed


@dataclass
class Setup:
    cases: list  # the first block of inputs
    setup_s: float
    sample_s: float
    cold_start_s: float


def set_up(draw: Callable[[], tuple[list, float]], braidkit) -> Setup:
    """Set up SETUP_REPEATS times; ``draw()`` must give the same block each time.

    ``draw`` returns the first block of inputs and the seconds spent in
    ``lab.sample``.
    """
    core = braidkit.core
    expected = core.render_nf(core.normalize(core.BraidWord.parse(4, COLD_WORD)))
    totals, samples, colds = [], [], []
    cases = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        cold = cold_start_seconds(expected)
        drawn, sample_s = draw()
        totals.append(time.perf_counter() - started)
        samples.append(sample_s)
        colds.append(cold)
        if cases is not None and drawn != cases:
            raise SetupError("the same seed drew different inputs")
        cases = drawn
    return Setup(cases, statistics.median(totals), statistics.median(samples),
                 statistics.median(colds))


def end_to_end(loop, setup: Setup) -> dict:
    """End-to-end metrics, as ``name: (value, unit)``."""
    ms = [t * 1e3 for t in loop.latencies]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "queries_per_s": ((loop.attempted - len(loop.failures)) / loop.wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "generic_fraction": (loop.generic_fraction(), "ratio"),
        "setup_s": (setup.setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def per_layer(tracer: tracing.Tracer, traced, untraced, setup: Setup) -> dict:
    """Per-layer metrics of the traced window plus those of set-up."""
    return {
        **tracing.layer_metrics(tracer, traced, untraced),
        "lab.sample_s": (setup.sample_s, "s"),
        "cli.cold_start_ms": (setup.cold_start_s * 1e3, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    try:
        braidkit = import_braidkit()
        import workloads
        workload = workloads.WORKLOADS.get(args.workload)
        if workload is None:
            raise SetupError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        workloads.lab_seed(args.seed)  # rejects seeds outside the stream layout
        setup = set_up(lambda: workloads.draw_cases(workload, args.seed), braidkit)
    except (SetupError, ImportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": backend(braidkit),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit_id(), "window": workload.window, "block": workload.block,
    }
    print("meta " + json.dumps(meta, sort_keys=True))

    deadline = started + RUN_LIMIT_S
    inputs = workloads.Inputs(workload, args.seed, setup.cases)
    if args.trace:
        untraced = workloads.run_loop(workload, inputs, 0.0, workload.window,
                                      deadline)
        tracer = tracing.Tracer()
        loop = workloads.run_loop(workload, inputs, 0.0, workload.window,
                                  deadline, lambda: tracing.traced(tracer, braidkit))
        metrics = per_layer(tracer, loop, untraced, setup)
        if tracer.absent:
            print("absent entry points: " + " ".join(tracer.absent))
        failures = untraced.failures + loop.failures
        if untraced.window != loop.window:
            failures.append("tracing changed the outcome stream")
    else:
        loop = workloads.run_loop(workload, inputs, args.seconds,
                                  workload.window, deadline)
        metrics = end_to_end(loop, setup)
        failures = loop.failures

    kinds = loop.kinds()
    print(f"{workload.name} window={len(loop.window)} "
          f"digest={workloads.digest(loop.window)} "
          + " ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds)))
    print(f"{workload.name} attempted={loop.attempted} failed={len(loop.failures)} "
          f"failed_fraction={len(loop.failures) / max(loop.attempted, 1)}")
    for problem in failures[:MAX_FAILURES_SHOWN]:
        print(f"failure: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value} {unit}")
    result = {
        "correct": not failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
