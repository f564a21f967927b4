"""Workload inputs, queries and answer checks for the root-query benchmark.

Two closed-loop, single-client workloads.  Inputs are drawn from the
benchmark seed a block at a time, so no input repeats within a run:

* ``planted-n7`` (library-shaped): ``extract_root(x, 2)`` on a prebuilt
  ``x = a^2``, where ``a`` is a product of 16 uniform nontrivial permutation
  braids on 7 strands.  About 85% of the time goes to the USS-minimality
  walk, and its large walks set the p90; ``normalize`` is never called.
  (On 8 strands the walk's heavy tail leaves too few queries in a run, and
  run-to-run spreads came out wider than the benchmark's bounds.)
* ``random-n6`` (CLI-shaped, negative): word text -> ``normalize`` ->
  ``extract_root(., 2)`` (-> ``render_nf`` on a Root) for random 64-letter
  signed words on 6 strands.  Nearly all are certified NoRoot by
  divisibility inside a minimal USS, the rest are NonGeneric, and no root is
  ever assembled; ``normalize`` takes more time than the USS walk.

Queries look up the library functions on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager

from braidkit import core, lab, roots
from braidkit.core import BraidWord, CanonicalBraid, SimpleElement
from braidkit.roots import NonGeneric, NoRoot, Root

# lab.sample seeds sample i with ``seed ^ i``, so nearby seeds share samples
# (seeds 1, 3 and 7 give one 400-sample set).  The benchmark seed and the
# stream number therefore sit above the sample-index bits.
INDEX_BITS = 16
STREAM_BITS = 16
SEED_LIMIT = 1 << 32


def lab_seed(seed: int, stream: int = 0) -> int:
    """The lab.sample seed for one stream of a benchmark seed.

    Distinct ``(seed, stream)`` pairs give disjoint sample streams as long as
    each stream draws fewer than ``2**INDEX_BITS`` samples.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**32), got {seed}")
    if not 0 <= stream < 1 << STREAM_BITS:
        raise ValueError(f"stream must lie in [0, 2**{STREAM_BITS}), got {stream}")
    return (seed << (INDEX_BITS + STREAM_BITS)) | (stream << INDEX_BITS)


Sampler = Callable[[lab.SampleSpec], list[BraidWord]]


@dataclass(frozen=True)
class Case:
    """One query input.  ``planted`` is the known root, if there is one."""

    payload: object
    planted: CanonicalBraid | None = None


@dataclass(frozen=True)
class Answer:
    """What a query returned: the queried braid and its outcome."""

    x: CanonicalBraid
    outcome: object


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    window: int  # queries whose outcomes feed the digest and generic_fraction
    block: int  # inputs drawn in set-up, and again each time a run uses them up
    draw: Callable[[int, int, int, int, Sampler], list[Case]]
    query: Callable[[Case, int, int], Answer]


def _draw_planted(seed: int, n: int, block: int, count: int,
                  sample: Sampler) -> list[Case]:
    cases = []
    for j in range(block * count, (block + 1) * count):
        # r = 1 draws one uniform nontrivial permutation braid per sample.
        spec = lab.SampleSpec(n=n, r=1, model=lab.POSITIVE_SIMPLE_PRODUCT,
                              seed=lab_seed(seed, j), count=16)
        factors = [SimpleElement.from_letters(n, w.letters) for w in sample(spec)]
        a = CanonicalBraid.from_factors(n, factors)
        cases.append(Case(payload=a * a, planted=a))
    return cases


def _draw_random_words(seed: int, n: int, block: int, count: int,
                       sample: Sampler) -> list[Case]:
    spec = lab.SampleSpec(n=n, r=64, model=lab.SIGNED_ARTIN_WORD,
                          seed=lab_seed(seed, block), count=count)
    return [Case(payload=w.text()) for w in sample(spec)]


def _library_query(case: Case, n: int, k: int) -> Answer:
    return Answer(case.payload, roots.extract_root(case.payload, k))


def _cli_query(case: Case, n: int, k: int) -> Answer:
    x = core.normalize(BraidWord.parse(n, case.payload))
    outcome = roots.extract_root(x, k)
    if isinstance(outcome, Root):
        core.render_nf(outcome.root)
    return Answer(x, outcome)


WORKLOADS = {
    w.name: w for w in (
        Workload("planted-n7", n=7, k=2, window=400, block=256,
                 draw=_draw_planted, query=_library_query),
        Workload("random-n6", n=6, k=2, window=400, block=2048,
                 draw=_draw_random_words, query=_cli_query),
    )
}


def draw_cases(workload: Workload, seed: int,
               block: int = 0) -> tuple[list[Case], float]:
    """One block of the workload's inputs and the seconds spent in lab.sample."""
    spent = 0.0

    def timed_sample(spec: lab.SampleSpec) -> list[BraidWord]:
        nonlocal spent
        if spec.count > 1 << INDEX_BITS:
            raise ValueError("a stream draws at most 2**INDEX_BITS samples")
        started = time.perf_counter()
        words = list(lab.sample(spec))
        spent += time.perf_counter() - started
        return words

    cases = workload.draw(seed, workload.n, block, workload.block, timed_sample)
    return cases, spent


class Inputs:
    """A run's inputs: the set-up block, then more blocks as queries need them.

    A block drawn during a run is drawn between two queries, outside their
    timing.
    """

    def __init__(self, workload: Workload, seed: int, cases: list[Case]):
        self.workload = workload
        self.seed = seed
        self.cases = list(cases)

    def __getitem__(self, i: int) -> Case:
        while i >= len(self.cases):
            block = len(self.cases) // self.workload.block
            self.cases += draw_cases(self.workload, self.seed, block)[0]
        return self.cases[i]


def reason_text(outcome: NonGeneric) -> str:
    reason = outcome.reason
    return str(getattr(reason, "value", reason))


def outcome_class(outcome) -> str:
    if isinstance(outcome, Root):
        return "root"
    if isinstance(outcome, NoRoot):
        return "no_root"
    if isinstance(outcome, NonGeneric):
        return "non_generic"
    raise TypeError(f"unexpected outcome {outcome!r}")


def check(case: Case, k: int, answer: Answer) -> str | None:
    """Why the answer is wrong, or None when it is acceptable.

    A Root must power back to the query and equal the planted root, which is
    unique in the minimal-USS regime; NoRoot is wrong on a planted input.
    NonGeneric is never wrong, only counted against generic_fraction.
    """
    outcome = answer.outcome
    kind = outcome_class(outcome)
    if kind == "root":
        if outcome.root ** k != answer.x:
            return "Root with root ** k != x"
        if case.planted is not None and outcome.root != case.planted:
            return "Root differs from the planted root"
    elif kind == "no_root" and case.planted is not None:
        return "NoRoot on a planted input"
    return None


Record = tuple[str, str, str]
RAISED: Record = ("raised", "", "")


def record(outcome) -> Record:
    """Outcome class, rendered root and NonGeneric reason of one query."""
    kind = outcome_class(outcome)
    root = core.render_nf(outcome.root) if kind == "root" else ""
    reason = reason_text(outcome) if kind == "non_generic" else ""
    return kind, root, reason


def digest(records: list[Record]) -> str:
    text = "".join("\t".join(r) + "\n" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Loop:
    """Latencies of every query, and the records of the window's queries."""

    latencies: list[float] = field(default_factory=list)
    window: list[Record] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def kinds(self) -> Counter[str]:
        return Counter(kind for kind, _, _ in self.window)

    def generic_fraction(self) -> float:
        kinds = self.kinds()
        return (kinds["root"] + kinds["no_root"]) / len(self.window)


def run_loop(workload: Workload, cases: Inputs | list[Case], budget_s: float,
             minimum: int, deadline: float = math.inf,
             tracing: Callable[[], ContextManager] = nullcontext) -> Loop:
    """Issue queries back to back and check each answer.

    Runs until ``budget_s`` seconds of query time are spent and ``minimum``
    queries are done, or until ``time.perf_counter()`` passes ``deadline``.
    Only the query runs timed and inside ``tracing()``; checking and
    recording happen outside.
    """
    loop = Loop()
    i = 0
    while ((loop.wall_s < budget_s or i < minimum)
           and time.perf_counter() < deadline):
        case = cases[i]
        answer = error = None
        with tracing():
            started = time.perf_counter()
            try:
                answer = workload.query(case, workload.n, workload.k)
            except Exception as exc:  # a raising query is a failed query
                error = exc
            elapsed = time.perf_counter() - started
        loop.latencies.append(elapsed)
        loop.wall_s += elapsed
        if error is None:
            try:
                problem = check(case, workload.k, answer)
                rec = record(answer.outcome)
            except Exception as exc:  # e.g. an outcome of an unknown type
                error = exc
        if error is not None:
            problem = f"raised {error!r}"
            rec = RAISED
        if problem is not None:
            loop.failures.append(f"query {i}: {problem}")
        if i < workload.window:
            loop.window.append(rec)
        i += 1
    return loop
