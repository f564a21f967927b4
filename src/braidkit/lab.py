"""Statistics lab: reproducible sampling, brute-force oracles, experiments, benchmarks.

Sampling is deterministic across platforms: the generator is splitmix64 (the
standard 64-bit mixer with increment 0x9E3779B97F4A7C15), and the stream for
sample ``i`` of a spec is seeded with ``seed XOR i``, so samples are
independent of processing order and the whole stream is reproducible from
``(spec, seed)`` alone.  Uniform ranges use the multiply-shift reduction
``(next64() * bound) >> 64``.

Both sampling models draw words, not elements, so neither is the uniform
distribution on a ball of the Cayley graph over simple generators; the
experiment output headers carry that caveat.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import json
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .conjugacy import SlidingBoundExceeded, is_uss_minimal, slide_to_rigid
from .core import BraidWord, SimpleElement, _check_ints, _check_strands, _letters, normalize
from .roots import NonGeneric, Root, RootExtractionError, extract_root, verify_root

_MASK64 = (1 << 64) - 1

SIGNED_ARTIN_WORD = "signed-artin-word"
POSITIVE_SIMPLE_PRODUCT = "positive-simple-product"
SAMPLE_MODELS = (SIGNED_ARTIN_WORD, POSITIVE_SIMPLE_PRODUCT)

SAMPLING_NOTE = (
    "sampling: uniform random words per model, not uniform on a Cayley-graph ball"
)


class SplitMix64:
    """splitmix64: fixed mixing constants, 64-bit state, platform independent."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by multiply-shift reduction."""
        return (self.next64() * bound) >> 64

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True, slots=True)
class SampleSpec:
    """A reproducible stream of random braid words."""

    n: int
    r: int
    model: str
    seed: int
    count: int

    def __post_init__(self):
        for name in ("r", "count", "seed"):
            _check_ints(name, (getattr(self, name),))
        if self.model not in SAMPLE_MODELS:
            raise ValueError(f"unknown sampling model {self.model!r}")
        if self.count <= 0 or self.r <= 0:
            raise ValueError("count and r must be positive")
        _check_strands(self.n)


def _sample_rng(seed: int, index: int) -> SplitMix64:
    return SplitMix64((seed ^ index) & _MASK64)


def _draw_signed_word(n: int, r: int, rng: SplitMix64) -> BraidWord:
    letters = []
    for _ in range(r):
        u = rng.below(2 * (n - 1))
        index = (u >> 1) + 1
        letters.append(index if u & 1 == 0 else -index)
    return BraidWord(n, tuple(letters))


def _draw_nontrivial_simple(n: int, rng: SplitMix64) -> tuple[int, ...]:
    perm = list(range(n))
    while True:
        rng.shuffle(perm)
        if any(perm[i] != i for i in range(n)):
            return tuple(perm)


def _draw_positive_product(n: int, r: int, rng: SplitMix64) -> BraidWord:
    simples = [_draw_nontrivial_simple(n, rng) for _ in range(r)]
    return BraidWord(n, tuple([e for perm in simples for e in _letters(perm)]))


def sample(spec: SampleSpec) -> Iterator[BraidWord]:
    """The deterministic word stream of a spec, in sample-index order."""
    for i in range(spec.count):
        rng = _sample_rng(spec.seed, i)
        if spec.model == SIGNED_ARTIN_WORD:
            yield _draw_signed_word(spec.n, spec.r, rng)
        else:
            yield _draw_positive_product(spec.n, spec.r, rng)


# --- brute-force lattice oracles (factorial enumeration, n <= 6) ---

_BRUTE_LIMIT = 6


def _check_brute_n(n: int) -> None:
    if n > _BRUTE_LIMIT:
        raise ValueError(f"brute-force oracles enumerate n! permutations; n <= {_BRUTE_LIMIT}")


@functools.lru_cache(maxsize=None)
def _brute_tables(n: int):
    """All simple elements of B_n plus the prefix relation built by enumeration.

    The relation is derived only from the defining property: u is a prefix of
    t when some simple s satisfies u*s = t with crossing numbers adding.  It
    shares no code with the kernel's prefix test or meet.
    """
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    index = {p: i for i, p in enumerate(perms)}
    lengths = [sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
               for p in perms]
    prefixes_of: list[set[int]] = [set() for _ in perms]
    for ui, u in enumerate(perms):
        for s in perms:
            t = tuple(s[x] for x in u)
            ti = index[t]
            if lengths[ui] + lengths[index[s]] == lengths[ti]:
                prefixes_of[ti].add(ui)
    return perms, index, lengths, prefixes_of


def brute_prefix(s: SimpleElement, t: SimpleElement) -> bool:
    """Oracle prefix test by exhaustive enumeration (n <= 6)."""
    _check_brute_n(s.n)
    if s.n != t.n:
        raise ValueError("mixed strand counts")
    _, index, _, prefixes_of = _brute_tables(s.n)
    return index[s.perm] in prefixes_of[index[t.perm]]


def brute_meet(s: SimpleElement, t: SimpleElement) -> SimpleElement:
    """Oracle meet: filter common prefixes, return the unique dominating one."""
    _check_brute_n(s.n)
    if s.n != t.n:
        raise ValueError("mixed strand counts")
    perms, index, lengths, prefixes_of = _brute_tables(s.n)
    common = prefixes_of[index[s.perm]] & prefixes_of[index[t.perm]]
    best = [u for u in common if all(c in prefixes_of[u] for c in common)]
    if len(best) != 1:
        raise RuntimeError("prefix lattice lost its unique meet")
    return SimpleElement(s.n, perms[best[0]])


# --- result rows: output columns are the dataclass fields, camel-cased ---

def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _record(row) -> dict:
    """A result row as a dict from output column to value, in field order."""
    return {_camel(f.name): getattr(row, f.name) for f in dataclasses.fields(row)}


# --- genericity experiment ---

@dataclass(frozen=True, slots=True)
class ExperimentRow:
    r: int
    fraction_rigid_within_bound: float
    fraction_uss_minimal: float
    mean_slidings: float
    samples: int


EXPERIMENT_FIELDS = tuple(_camel(f.name) for f in dataclasses.fields(ExperimentRow))


def run_genericity_experiment(specs: Iterable[SampleSpec]) -> list[ExperimentRow]:
    """Fraction of samples that reach a rigid conjugate in bound, and of those
    whose ultra summit set is minimal; rows come back in increasing r."""
    rows = []
    for spec in specs:
        rigid = minimal = 0
        slidings = 0
        for word in sample(spec):
            x = normalize(word)
            try:
                cert = slide_to_rigid(x)
            except SlidingBoundExceeded as exc:
                slidings += exc.iterations
                continue
            slidings += cert.iterations
            rigid += 1
            if is_uss_minimal(cert.target):
                minimal += 1
        rows.append(ExperimentRow(
            r=spec.r,
            fraction_rigid_within_bound=rigid / spec.count,
            fraction_uss_minimal=minimal / spec.count,
            mean_slidings=slidings / spec.count,
            samples=spec.count,
        ))
    return sorted(rows, key=lambda row: row.r)


# --- planted-root round trip ---

@dataclass(frozen=True, slots=True)
class RootRoundtripSummary:
    n: int
    l: int
    k: int
    samples: int
    roots: int
    non_generic: int
    no_root: int
    verify_failures: int
    mean_seconds: float | None
    max_seconds: float


def run_root_roundtrip(n: int, l: int, k: int, count: int, seed: int,
                       model: str = SIGNED_ARTIN_WORD) -> RootRoundtripSummary:
    """Plant roots (x = a^k for sampled a), extract, and verify.

    Planted roots always exist, so any NoRoot outcome or verification failure
    is counted as a defect; callers treat nonzero counts as test failures.
    ``mean_seconds`` is the mean extract_root time over verified roots, or
    ``None`` when there are none; ``max_seconds`` is over every sample.
    """
    spec = SampleSpec(n=n, r=l, model=model, seed=seed, count=count)
    roots = non_generic = no_root = failures = 0
    times = []
    root_seconds = 0.0
    for word in sample(spec):
        a = normalize(word)
        x = a ** k
        started = time.perf_counter()
        outcome = extract_root(x, k)
        times.append(time.perf_counter() - started)
        if isinstance(outcome, Root):
            if verify_root(x, k, outcome.root):
                roots += 1
                root_seconds += times[-1]
            else:
                failures += 1
        elif isinstance(outcome, NonGeneric):
            non_generic += 1
        else:
            no_root += 1
    return RootRoundtripSummary(
        n=n, l=l, k=k, samples=count, roots=roots, non_generic=non_generic,
        no_root=no_root, verify_failures=failures,
        mean_seconds=root_seconds / roots if roots else None,
        max_seconds=max(times),
    )


# --- runtime benchmark ---

@dataclass(frozen=True, slots=True)
class BenchCell:
    n: int
    l: int
    k: int
    samples: int
    generic: int
    non_generic: int
    mean_seconds: float | None
    ratio_to_half_l: float | None


BENCH_FIELDS = tuple(_camel(f.name) for f in dataclasses.fields(BenchCell))


def benchmark_root(ns: Sequence[int], ls: Sequence[int], k: int, count: int,
                   seed: int, model: str = POSITIVE_SIMPLE_PRODUCT) -> list[BenchCell]:
    """Mean extract_root wall time per (n, l) cell over planted roots.

    Each cell is a :func:`run_root_roundtrip`; non-generic instances are
    excluded from the mean but counted, and a NoRoot or a root that fails
    verification raises :class:`RootExtractionError`.  Each cell also
    carries the runtime ratio against the cell at half its l, the shape
    probe for the expected roughly quadratic growth in l at fixed n.
    """
    summaries = {}
    for n, l in dict.fromkeys(itertools.product(ns, ls)):  # a repeated cell runs once
        summary = run_root_roundtrip(n, l, k, count, seed, model)
        if summary.no_root or summary.verify_failures:
            raise RootExtractionError(
                f"planted roots at n={n}, l={l}, k={k}: {summary.no_root} NoRoot, "
                f"{summary.verify_failures} failed verification")
        summaries[(n, l)] = summary
    cells = []
    for n, l in itertools.product(ns, ls):
        summary = summaries[(n, l)]
        mean = summary.mean_seconds
        half = summaries.get((n, l // 2)) if l % 2 == 0 else None
        half_mean = half.mean_seconds if half else None
        ratio = mean / half_mean if (mean is not None and half_mean) else None
        cells.append(BenchCell(n=n, l=l, k=k, samples=count, generic=summary.roots,
                               non_generic=summary.non_generic, mean_seconds=mean,
                               ratio_to_half_l=ratio))
    return cells


# --- serialization (CSV and JSON, floats at 6 significant digits) ---

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _round6(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    return value


def rows_to_csv(rows: Iterable, fields: Sequence[str], note: str | None = None) -> str:
    out = io.StringIO()
    if note:
        out.write(f"# {note}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        record = _record(row)
        writer.writerow([_fmt(record[field]) for field in fields])
    return out.getvalue()


def rows_to_json(rows: Iterable, note: str | None = None) -> str:
    payload: dict = {}
    if note:
        payload["note"] = note
    payload["rows"] = [
        {key: _round6(value) for key, value in _record(row).items()} for row in rows
    ]
    return json.dumps(payload, indent=2)
