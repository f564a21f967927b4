"""Exact arithmetic in the braid group B_n via left Garside normal forms.

Values come in three layers:

* :class:`SimpleElement` -- a permutation braid, i.e. a positive braid in
  which every pair of strands crosses at most once.  These are the letters
  of normal forms; the identity and the half twist ``delta`` are the bottom
  and top of their prefix lattice.
* :class:`BraidWord` -- a word in the Artin generators, written as signed
  integers (``+i`` for the i-th generator, ``-i`` for its inverse).
* :class:`CanonicalBraid` -- the left normal form ``delta^p x_1 ... x_l``
  with every adjacent factor pair left weighted.  This is the universal
  value type: two braids are equal in the group iff their canonical forms
  compare equal componentwise.

All values are immutable and all operations are pure functions, so they are
safe to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from . import kernel


def _check_ints(what: str, values: Sequence) -> None:
    """Reject any value that is not an ``int``; a ``bool`` is not one here."""
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} {bad!r} is not an int")


def _check_strands(n: int) -> None:
    if type(n) is not int:
        raise ValueError(f"strand count {n!r} is not an int")
    if n < 2:
        raise ValueError("a braid group needs at least 2 strands")


@dataclass(frozen=True, slots=True)
class SimpleElement:
    """A permutation braid on ``n`` strands.

    ``perm[i]`` is the 0-indexed final position of the strand starting at
    position ``i``; the identity permutation is the trivial braid and the
    order-reversing permutation is the half twist.  The constructor
    accepts any sequence and stores it as a tuple.
    """

    n: int
    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        _check_strands(self.n)
        if (len(self.perm) != self.n or not set(map(type, self.perm)) <= {int}
                or sorted(self.perm) != list(range(self.n))):
            raise ValueError(f"{self.perm!r} is not a permutation of 0..{self.n - 1}")

    @classmethod
    def identity(cls, n: int) -> SimpleElement:
        return cls(n, kernel.identity(n))

    @classmethod
    def delta(cls, n: int) -> SimpleElement:
        """The Garside element: every pair of strands crosses exactly once."""
        return cls(n, kernel.delta(n))

    @classmethod
    def atom(cls, i: int, n: int) -> SimpleElement:
        """The i-th Artin generator (1-indexed), crossing strands i and i+1."""
        _check_strands(n)
        _check_index(i, n)
        return cls(n, _atom(i, n))

    @classmethod
    def from_letters(cls, n: int, letters: Iterable[int]) -> SimpleElement:
        """Product of positive generators, which must form a permutation braid.

        The first letter out of range is reported before anything else.  The
        product is built on its inverse ``q``, where ``q[j]`` is the strand
        at position ``j``: the letter ``i`` crosses the strands ``q[i-1]``
        and ``q[i]`` and swaps them.  A positive word spells a simple braid
        exactly when no two strands cross twice, that is when every letter
        finds its two strands uncrossed, ``q[i-1] < q[i]``.
        """
        letters = tuple(letters)
        _check_strands(n)
        for i in letters:
            _check_index(i, n)
        q = list(range(n))
        for i in letters:
            if q[i - 1] > q[i]:
                raise ValueError(f"letters {letters!r} do not spell a simple braid")
            q[i - 1], q[i] = q[i], q[i - 1]
        return cls(n, kernel.invert(q))

    @property
    def length(self) -> int:
        """Number of crossings (inversions); between 0 and n(n-1)/2."""
        return kernel.inv_count(self.perm)

    def is_identity(self) -> bool:
        return self.perm == kernel.identity(self.n)

    def is_delta(self) -> bool:
        return self.perm == kernel.delta(self.n)

    def tau(self) -> SimpleElement:
        """Conjugate by the half twist."""
        return SimpleElement(self.n, kernel.tau(self.perm))

    def complement(self) -> SimpleElement:
        """The unique simple ``t`` with ``self * t = delta``."""
        return SimpleElement(self.n, kernel.right_complement(self.perm))

    def meet(self, other: SimpleElement) -> SimpleElement:
        """Greatest common prefix in the lattice of simple elements."""
        self._check_same_group(other)
        return SimpleElement(self.n, kernel.meet(self.perm, other.perm))

    def is_prefix_of(self, other: SimpleElement) -> bool:
        self._check_same_group(other)
        return kernel.is_prefix(self.perm, other.perm)

    def canonical_letters(self) -> tuple[int, ...]:
        """Deterministic positive word: repeatedly peel the smallest atom prefix.

        The atom ``i`` is a prefix exactly when ``perm[i-1] > perm[i]``, and
        peeling it swaps those two entries.  That can only change whether
        the atoms ``i-1``, ``i`` and ``i+1`` are prefixes, and no atom below
        ``i`` was one, so the next smallest prefix is ``i-1`` or larger: one
        scan that steps back once after each swap spells the word in
        ``O(n + length)`` steps, where restarting from the first atom after
        each swap would take ``O(n * length)``.
        """
        return _letters(self.perm)

    def braid(self) -> CanonicalBraid:
        return CanonicalBraid.from_factors(self.n, (self,))

    def __str__(self) -> str:
        return " ".join(map(str, _letters(self.perm))) or "1"

    def _check_same_group(self, other: SimpleElement) -> None:
        if self.n != other.n:
            raise ValueError(f"mixed strand counts {self.n} and {other.n}")


@dataclass(frozen=True, slots=True)
class BraidWord:
    """A word in the Artin generators, as signed 1-indexed letters."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        _check_strands(self.n)
        _check_ints("letter", self.letters)
        for e in dict.fromkeys(self.letters):  # first bad letter first
            if not 1 <= abs(e) <= self.n - 1:
                raise ValueError(f"letter {e} out of range for {self.n} strands")

    @classmethod
    def parse(cls, n: int, text: str) -> BraidWord:
        """Parse whitespace-separated signed integers, e.g. ``"1 2 -1"``."""
        try:
            letters = tuple(int(tok) for tok in text.split())
        except ValueError as exc:
            raise ValueError(f"malformed braid word {text!r}") from exc
        return cls(n, letters)

    def text(self) -> str:
        return " ".join(str(e) for e in self.letters)

    def braid(self) -> CanonicalBraid:
        return normalize(self)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True, slots=True)
class CanonicalBraid:
    """A braid in left normal form ``delta^power x_1 ... x_l``.

    ``factors`` holds the permutations of the ``x_i``; each is neither
    trivial nor the half twist and every adjacent pair is left weighted.
    The constructor accepts any sequences of ints, stores them as tuples,
    so equal braids compare and hash equal, and checks the normal form;
    braids from :func:`normalize`, the conversions and group operations
    come from the kernel and skip it.
    """

    n: int
    power: int
    factors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(map(tuple, self.factors)))
        _check_strands(self.n)
        _check_ints("power", (self.power,))
        _check_ints("permutation entry", [x for f in self.factors for x in f])
        if not kernel.is_normal(self.factors, self.n):
            raise ValueError(f"factors {self.factors} are not a left normal form")

    @classmethod
    def identity(cls, n: int) -> CanonicalBraid:
        return cls(n, 0, ())

    @classmethod
    def delta_power(cls, n: int, p: int) -> CanonicalBraid:
        return cls(n, p, ())

    @classmethod
    def from_factors(cls, n: int, factors: Iterable[SimpleElement]) -> CanonicalBraid:
        _check_strands(n)
        perms = []
        for f in factors:
            if not isinstance(f, SimpleElement):
                raise ValueError(f"factor {f!r} is not a SimpleElement")
            perms.append(f.perm)
        if any(len(f) != n for f in perms):
            raise ValueError(f"factors must be simple elements on {n} strands")
        p, core = kernel.normalize_factors(perms, n)
        return _trusted(n, p, tuple(core))

    @property
    def inf(self) -> int:
        return self.power

    @property
    def sup(self) -> int:
        return self.power + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def simple_factors(self) -> tuple[SimpleElement, ...]:
        return tuple(SimpleElement(self.n, f) for f in self.factors)

    def is_identity(self) -> bool:
        return self.power == 0 and not self.factors

    def is_positive(self) -> bool:
        """Whether the braid lies in the positive monoid (infimum >= 0)."""
        return self.power >= 0

    def __mul__(self, other: CanonicalBraid) -> CanonicalBraid:
        if not isinstance(other, CanonicalBraid):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mixed strand counts {self.n} and {other.n}")
        mine = self.factors
        if other.power & 1:
            mine = tuple(kernel.tau(f) for f in mine)
        p, core = kernel.normalize_factors(list(mine) + list(other.factors), self.n)
        return _trusted(self.n, self.power + other.power + p, tuple(core))

    def inverse(self) -> CanonicalBraid:
        """``delta^-(p+l) tau^(p+l)(dx_l) ... tau^(p+1)(dx_1)``, read off ``self``.

        With ``d`` the right complement, ``x_i^-1 = dx_i delta^-1``, and the
        ``p + i`` half twists right of ``dx_i`` pass it as ``y delta^-1 =
        delta^-1 tau(y)``.  This is normal (Elrifai and Morton 1994): ``d``
        swaps 1 and ``delta``; tau commutes with ``d`` and ``/\\``; and as
        ``dd = tau``, the pair ``(tau^(k+1)(dx_(i+1)), tau^k(dx_i))``, ``k =
        p + i``, is left weighted iff ``tau^k(x_(i+1) /\\ dx_i) = 1``, which
        holds as ``(x_i, x_(i+1))`` is left weighted.
        """
        p, factors = self.power, []
        for i in range(len(self.factors), 0, -1):
            dx = kernel.right_complement(self.factors[i - 1])
            factors.append(kernel.tau(dx) if (p + i) & 1 else dx)
        return _trusted(self.n, -(p + len(self.factors)), tuple(factors))

    def __pow__(self, exp: int) -> CanonicalBraid:
        """Square-and-multiply from the top bit; no product by the identity."""
        if exp == 0:
            return CanonicalBraid.identity(self.n)
        base = self if exp > 0 else self.inverse()
        acc = base
        for bit in bin(abs(exp))[3:]:
            acc = acc * acc
            if bit == "1":
                acc = acc * base
        return acc

    def conjugate_by(self, g: CanonicalBraid) -> CanonicalBraid:
        """``g^-1 * self * g``."""
        return g.inverse() * self * g

    def tau(self) -> CanonicalBraid:
        """Conjugate by the half twist; acts factorwise, no renormalization."""
        return _trusted(self.n, self.power, tuple(kernel.tau(f) for f in self.factors))

    def exponent_sum(self) -> int:
        """Image under the abelianization homomorphism to the integers."""
        half = self.n * (self.n - 1) // 2
        return self.power * half + sum(kernel.inv_count(f) for f in self.factors)

    def __str__(self) -> str:
        return render_nf(self)

    def __repr__(self) -> str:
        return f"CanonicalBraid({self.n}, {render_nf(self)!r})"


def _check_index(i: int, n: int) -> None:
    if type(i) is not int or not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i!r} out of range for {n} strands")


def _atom(i: int, n: int) -> tuple[int, ...]:
    """The permutation of the i-th Artin generator, for a range-checked ``i``."""
    return (*range(i - 1), i, i - 1, *range(i + 1, n))


def _letters(perm: Sequence[int]) -> tuple[int, ...]:
    """The canonical positive word of a permutation braid; see
    :meth:`SimpleElement.canonical_letters`.

    ``p[i]`` is ``perm[i-1]``, after a sentinel ``p[0] = -1`` that is below
    every entry, so the step back after a swap needs no bound check.
    """
    p, out = [-1, *perm], []
    i, last = 1, len(perm)
    while i < last:
        if p[i] > p[i + 1]:
            p[i], p[i + 1] = p[i + 1], p[i]
            out.append(i)
            i -= 1
        else:
            i += 1
    return tuple(out)


def _trusted(n: int, power: int, factors: tuple) -> CanonicalBraid:
    """A braid from kernel-built factors, without the normal-form check.

    Sound for output of ``kernel.normalize_factors``, its ``tau`` twists,
    runs of a normal form's factors and inverses, all normal by construction.
    """
    braid = object.__new__(CanonicalBraid)
    object.__setattr__(braid, "n", n)
    object.__setattr__(braid, "power", power)
    object.__setattr__(braid, "factors", factors)
    return braid


def normalize(word: BraidWord) -> CanonicalBraid:
    """Left normal form of a word in the Artin generators.

    As ``sigma * rc(sigma) = delta`` for the right complement ``rc``, a letter
    ``sigma^-1`` is ``rc(sigma) delta delta^-2``, and ``delta^2`` is central:
    the kernel normalizes the positive factors, moving each half twist to the
    front, and the power drops by two per negative letter.  The word's
    constructor has range-checked every letter, so each letter's factors are
    built once, unchecked.
    """
    n = word.n
    simples = {}
    for e in set(word.letters):
        perm = _atom(abs(e), n)
        simples[e] = ((perm,) if e > 0 else
                      (kernel.right_complement(perm), kernel.delta(n)))
    factors = [*chain.from_iterable(map(simples.__getitem__, word.letters))]
    p, core = kernel.normalize_factors(factors, n)
    negatives = len(factors) - len(word.letters)  # each gave two factors
    return _trusted(n, p - 2 * negatives, tuple(core))


def braid_from_text(n: int, text: str) -> CanonicalBraid:
    return normalize(BraidWord.parse(n, text))


_NF_HEAD = re.compile(r"^D\^(-?\d+)$")


def render_nf(x: CanonicalBraid) -> str:
    """Render ``delta^p x_1 ... x_l`` as ``"D^p | w1 | ... | wl"``.

    Each ``wi`` is the canonical positive word of the factor; a braid of
    canonical length zero renders as just ``"D^p"``.
    """
    words = (" ".join(map(str, _letters(f))) for f in x.factors)
    return " | ".join((f"D^{x.power}", *words))


def parse_nf(n: int, text: str) -> CanonicalBraid:
    """Parse the :func:`render_nf` format back into a braid.

    The factor words, which must be positive, are joined into one word and
    normalized once, so a braid's rendering parses back to it even when the
    words are not in canonical spelling or not simple.
    """
    parts = [part.strip() for part in text.split("|")]
    m = _NF_HEAD.match(parts[0])
    if m is None:
        raise ValueError(f"malformed normal form text {text!r}")
    letters = []
    for part in parts[1:]:
        word = BraidWord.parse(n, part).letters
        if any(e < 0 for e in word):
            raise ValueError(f"factor word {part!r} must be positive")
        letters += word
    body = normalize(BraidWord(n, tuple(letters)))
    return _trusted(n, int(m.group(1)) + body.power, body.factors)
