"""Per-layer tracing by wrapping library entry points from outside the package.

Two kinds of wrapper:

* a *stage* is a pipeline step a query passes through (``core.normalize``,
  ``roots.extract_root`` and the ``conjugacy`` functions that
  ``braidkit.roots`` imports).  Stages nest: a stage's self time is its
  duration minus that of the stages it called.
* an *op* is a ``braidkit.kernel`` entry point: calls and inclusive time only.
  Ops are leaves as far as the stages are concerned, so a stage's self time
  still contains the kernel work done directly under it.

An entry point that no longer exists is recorded as absent rather than
failing the run.  Wrappers are installed for the duration of a ``with``
block and the originals are put back on exit.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

KERNEL_OPS = (
    "identity", "delta", "compose", "invert", "inv_count", "tau",
    "right_complement", "left_complement", "join", "meet", "is_prefix",
    "is_left_weighted", "normalize_factors", "is_normal",
)

# The stages a query's time splits into, apart from extract_root's own time
# (root assembly and powering verification) and rendering the root.  They
# never nest in each other.
SPLIT_STAGES = (
    "core.normalize", "conjugacy.slide_to_rigid",
    "conjugacy.is_uss_minimal", "conjugacy.cycling_orbit",
    "conjugacy.centralizer_basis",
)


class Tracer:
    """Counts calls and nanoseconds per wrapped entry point."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._open: list[int] = []  # child-stage nanoseconds of each open stage
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, label: str, make) -> None:
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(label)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def stage(self, owner, attr: str, label: str,
              observe: Callable | None = None,
              observe_error: Callable | None = None) -> None:
        """Wrap ``owner.attr`` as a stage.

        ``observe(args, result)`` and ``observe_error(exc)`` may add counts.
        """
        clock, calls, ns, self_ns, open_ = (
            self.clock, self.calls, self.ns, self.self_ns, self._open)

        def make(original):
            def wrapper(*args, **kwargs):
                open_.append(0)
                started = clock()
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    if observe_error is not None:
                        observe_error(exc)
                    raise
                finally:
                    elapsed = clock() - started
                    children = open_.pop()
                    if open_:
                        open_[-1] += elapsed
                    calls[label] += 1
                    ns[label] += elapsed
                    self_ns[label] += elapsed - children
                if observe is not None:
                    observe(args, result)
                return result
            return wrapper

        self._replace(owner, attr, label, make)

    def op(self, owner, attr: str, label: str,
           size: Callable | None = None) -> None:
        """Wrap ``owner.attr`` as an op; ``size(args)`` adds to ``label + "_in"``."""
        clock, calls, ns, counts = self.clock, self.calls, self.ns, self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                if size is not None:
                    counts[label + "_in"] += size(args)
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    ns[label] += clock() - started
                    calls[label] += 1
            return wrapper

        self._replace(owner, attr, label, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def seconds(self, label: str) -> float:
        return self.ns[label] / 1e9


@contextmanager
def traced(tracer: Tracer, braidkit) -> Iterator[Tracer]:
    """Install the benchmark's wrappers on ``braidkit`` for the block."""
    core = getattr(braidkit, "core", None)
    roots = getattr(braidkit, "roots", None)
    kernel = getattr(braidkit, "kernel", None)
    counts = tracer.counts

    def count_letters(args, result):
        counts["core.normalize_letters"] += len(args[0].letters)

    def count_slidings(args, result):
        counts["conjugacy.slidings"] += result.iterations

    def count_bound_slidings(exc):
        # SlidingBoundExceeded carries the slidings made before the bound hit.
        counts["conjugacy.slidings"] += getattr(exc, "iterations", 0)

    def count_minimal(args, result):
        counts["conjugacy.uss_minimal_true"] += bool(result)

    def count_orbit(args, result):
        counts["conjugacy.orbit_t"] += result.t

    try:
        tracer.stage(core, "normalize", "core.normalize", observe=count_letters)
        tracer.stage(roots, "extract_root", "roots.extract_root")
        tracer.stage(roots, "slide_to_rigid", "conjugacy.slide_to_rigid",
                     observe=count_slidings, observe_error=count_bound_slidings)
        tracer.stage(roots, "is_uss_minimal", "conjugacy.is_uss_minimal",
                     observe=count_minimal)
        tracer.stage(roots, "cycling_orbit", "conjugacy.cycling_orbit",
                     observe=count_orbit)
        tracer.stage(roots, "centralizer_basis", "conjugacy.centralizer_basis")
        for name in KERNEL_OPS:
            size = (lambda args: len(args[0])) if name == "normalize_factors" else None
            tracer.op(kernel, name, f"kernel.{name}", size=size)
        yield tracer
    finally:
        tracer.restore()


NON_GENERIC_REASONS = (
    ("not rigid within bound", "roots.non_generic_not_rigid"),
    ("power of Delta", "roots.non_generic_power_of_delta"),
    ("USS not minimal", "roots.non_generic_uss_not_minimal"),
    ("centralizer decomposition failed", "roots.non_generic_centralizer"),
)


def layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer metrics of a traced loop, as ``name: (value, unit)``.

    ``untraced`` ran the same queries without wrappers; the difference in
    query time is the tracing overhead.
    """
    calls, counts, sec = tracer.calls, tracer.counts, tracer.seconds
    uss_calls = calls["conjugacy.is_uss_minimal"]
    kinds = traced.kinds()
    reason_labels = [label for _, label in NON_GENERIC_REASONS]
    reason_labels.append("roots.non_generic_other")
    reasons = Counter()
    for kind, _, reason in traced.window:
        if kind == "non_generic":
            reasons[next((label for prefix, label in NON_GENERIC_REASONS
                          if reason.startswith(prefix)),
                         "roots.non_generic_other")] += 1
    kernel_labels = [f"kernel.{name}" for name in KERNEL_OPS]
    split_s = sum(sec(label) for label in SPLIT_STAGES)
    return {
        "core.normalize_s": (sec("core.normalize"), "s"),
        "core.normalize_letters": (counts["core.normalize_letters"], "count"),
        "kernel.normalize_factors_calls": (calls["kernel.normalize_factors"], "count"),
        "kernel.normalize_factors_s": (sec("kernel.normalize_factors"), "s"),
        "kernel.normalize_factors_in": (counts["kernel.normalize_factors_in"], "count"),
        "kernel.is_normal_calls": (calls["kernel.is_normal"], "count"),
        "kernel.is_normal_s": (sec("kernel.is_normal"), "s"),
        "kernel.meet_calls": (calls["kernel.meet"], "count"),
        "kernel.is_left_weighted_calls": (calls["kernel.is_left_weighted"], "count"),
        "kernel.tau_calls": (calls["kernel.tau"], "count"),
        "kernel.total_calls": (sum(calls[label] for label in kernel_labels), "count"),
        "kernel.total_s": (sum(sec(label) for label in kernel_labels), "s"),
        "conjugacy.slide_to_rigid_s": (sec("conjugacy.slide_to_rigid"), "s"),
        "conjugacy.slidings": (counts["conjugacy.slidings"], "count"),
        "conjugacy.is_uss_minimal_s": (sec("conjugacy.is_uss_minimal"), "s"),
        "conjugacy.is_uss_minimal_calls": (uss_calls, "count"),
        "conjugacy.uss_minimal_ratio": (
            counts["conjugacy.uss_minimal_true"] / uss_calls if uss_calls else 0.0,
            "ratio"),
        "conjugacy.cycling_orbit_s": (sec("conjugacy.cycling_orbit"), "s"),
        "conjugacy.orbit_t": (counts["conjugacy.orbit_t"], "count"),
        "conjugacy.centralizer_basis_s": (sec("conjugacy.centralizer_basis"), "s"),
        "roots.extract_root_s": (sec("roots.extract_root"), "s"),
        "roots.self_s": (tracer.self_ns["roots.extract_root"] / 1e9, "s"),
        "roots.outcome_root": (kinds["root"], "count"),
        "roots.outcome_no_root": (kinds["no_root"], "count"),
        "roots.outcome_non_generic": (kinds["non_generic"], "count"),
        **{label: (reasons[label], "count") for label in reason_labels},
        "trace.query_wall_s": (traced.wall_s, "s"),
        "trace.untraced_wall_s": (untraced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
        "trace.stage_coverage": (split_s / traced.wall_s, "ratio"),
    }
