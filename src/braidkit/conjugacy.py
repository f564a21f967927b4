"""Conjugacy machinery: cycling, cyclic sliding, rigidity, orbits, centralizers.

The route to a canonical conjugacy representative used here is iterated
cyclic sliding: conjugating by the preferred prefix (the common part of the
initial factor and the complement of the final factor) until it becomes
trivial, i.e. until the braid is rigid.  Each sliding grows the accumulated
positive conjugator by at least one atom, and in the generic regime a rigid
conjugate is reachable through a conjugator of fewer atoms than the
iteration bound allows, so exceeding the bound is treated as leaving that
regime.

On a rigid braid, cycling just rotates the normal form factors (twisting by
tau when the infimum is odd), which makes the cycling orbit, the preferred
cycling conjugator and an explicit basis of the centralizer all cheaply
computable, provided the ultra summit set is minimal.  Minimality is decided
from a single rigid representative by computing its minimal simple
conjugators and comparing them with the initial factor and the complement of
the final factor.  For each atom, the smallest rigid conjugator above it
grows in one loop over the conjugate it reaches: while that conjugate leaves
the super summit set, the conjugator joins in the remainder of the bound
that fails, the least it must contain; inside that set, cyclic sliding grows
it without overshooting, because transport along sliding is monotone there.
The cost is a polynomial in the strand count times the canonical length,
nearly all of it in joins that fold a remainder through the factors of the
braid or of its inverse.  One sound early stop cuts that down: an atom
whose growing conjugator reaches an atom already shown to lead to some ``c``
above both leads to ``c`` too.  Both callers reject a non-rigid braid.

Simple elements are kernel permutation tuples here, like the entries of
``CanonicalBraid.factors``; only :func:`minimal_simple_elements` wraps its
results as :class:`SimpleElement`, the type users pass in and get back.
Everything here is a pure function over immutable values and safe to call
concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import kernel
from .core import CanonicalBraid, SimpleElement, _atom, _trusted


class SlidingBoundExceeded(Exception):
    """Iterated cyclic sliding hit its bound, or a repeat, before a rigid braid.

    Carries the last iterate and the conjugator accumulated so far, so a
    caller can hand the state to a fallback solver.  ``repeated`` tells
    whether sliding stopped because ``last`` had been slid before; such a
    braid lies on a sliding circuit, hence in the super summit set.
    """

    reason = "not rigid within bound"  # as a non-generic outcome reports it

    def __init__(self, last: CanonicalBraid, conjugator: CanonicalBraid,
                 iterations: int, repeated: bool):
        super().__init__(
            f"no rigid conjugate within {iterations} cyclic slidings"
        )
        self.last = last
        self.conjugator = conjugator
        self.iterations = iterations
        self.repeated = repeated


class CentralizerError(Exception):
    """The centralizer decomposition failed an exactness or reconstruction check.

    This signals that the minimal ultra summit set precondition was violated;
    root extraction reports such inputs as non-generic rather than guessing.
    """


@dataclass(frozen=True, slots=True)
class ConjugationCertificate:
    """The claim ``conjugator^-1 * source * conjugator = target``; nothing checks it."""

    source: CanonicalBraid
    target: CanonicalBraid
    conjugator: CanonicalBraid
    iterations: int


@dataclass(frozen=True, slots=True)
class OrbitData:
    """Summary of the cycling orbit of a rigid braid.

    ``t`` counts the cyclings applied until the orbit closed up: either the
    base itself reappeared (``self_conjugate`` false) or its tau-image was
    reached (``self_conjugate`` true; the base then reappears after ``2 t``
    cyclings when base != tau(base)).  ``pc`` is the product of the cycling
    conjugators ``p_1 ... p_t``; when the orbit closed at the base this is
    the preferred cycling conjugator and commutes with the base, while in
    the self-conjugate twisted case it conjugates the base to its tau-image.
    """

    base: CanonicalBraid
    t: int
    pc: CanonicalBraid
    self_conjugate: bool


class CentralizerCase(enum.Enum):
    TWO_ORBITS = "two-orbits"
    ONE_ORBIT_TAU_FIXED = "one-orbit-tau-fixed"
    ONE_ORBIT_TAU_FREE = "one-orbit-tau-free"


@dataclass(frozen=True, slots=True)
class CentralizerBasis:
    """Generators ``v, w`` of the rank-two centralizer with ``v^c * w^d = base``."""

    v: CanonicalBraid
    w: CanonicalBraid
    c: int
    d: int
    case: CentralizerCase


def initial_factor(x: CanonicalBraid) -> tuple[int, ...]:
    """The first factor pulled in front of the half-twist block; 1 when trivial.

    For ``delta^p x_1 ... x_l`` this is the permutation of ``tau^-p(x_1)``,
    the simple element by which cycling conjugates.
    """
    if x.canonical_length == 0:
        return kernel.identity(x.n)
    first = x.factors[0]
    return kernel.tau(first) if x.power & 1 else first


def final_factor(x: CanonicalBraid) -> tuple[int, ...]:
    """The last normal form factor's permutation; delta when the length is zero."""
    if x.canonical_length == 0:
        return kernel.delta(x.n)
    return x.factors[-1]


def preferred_prefix(x: CanonicalBraid) -> tuple[int, ...]:
    """Common prefix of the initial factor and the final factor's complement."""
    return kernel.meet(initial_factor(x), kernel.right_complement(final_factor(x)))


def is_rigid(x: CanonicalBraid) -> bool:
    """Whether the final and initial factors form a left weighted pair."""
    return kernel.is_left_weighted(final_factor(x), initial_factor(x))


def _conjugate_by_simple(x: CanonicalBraid, s: tuple) -> CanonicalBraid:
    """``s^-1 x s`` for the simple ``s``; every conjugation here goes through it.

    With ``u = tau^p(s)`` for ``x = delta^p x_1 ... x_l``, ``s^-1 delta^p =
    delta^p u^-1`` and ``u^-1 = delta^-1 lc(u)`` for the left complement
    ``lc``, so the conjugate is ``delta^(p-1) lc(u) x_1 ... x_l s``,
    renormalized.  When ``u`` is a prefix of ``x_1`` (cycling, sliding),
    ``lc(u) x_1`` makes a half twist at the front, which the kernel moves
    to the power without twisting anything.
    """
    u = kernel.tau(s) if x.power & 1 else s
    p, core = kernel.normalize_factors(
        [kernel.left_complement(u), *x.factors, s], x.n)
    return _trusted(x.n, x.power - 1 + p, tuple(core))


def cycling(x: CanonicalBraid) -> CanonicalBraid:
    """Conjugate by the initial factor: ``delta^p x_2 ... x_l tau^p(x_1)``."""
    return _conjugate_by_simple(x, initial_factor(x))


def decycling(x: CanonicalBraid) -> CanonicalBraid:
    """Conjugate by the inverse of the final factor: ``x_l delta^p x_1 ... x_{l-1}``.

    ``x_l^-1 = d(x_l) delta^-1`` for the right complement ``d(x_l)``, and
    conjugating by ``delta^-1`` is ``tau``, so this is ``tau`` of the
    conjugate by ``d(x_l)``.
    """
    return _conjugate_by_simple(
        x, kernel.right_complement(final_factor(x))).tau()


def cyclic_sliding(x: CanonicalBraid) -> CanonicalBraid:
    """Conjugate by the preferred prefix; fixed exactly on rigid braids."""
    return _conjugate_by_simple(x, preferred_prefix(x))


def sliding_iteration_bound(x: CanonicalBraid) -> int:
    """Cyclic slidings allowed before declaring the input non-generic.

    In the generic regime the full sliding conjugator is a positive braid of
    canonical length below that of the input with no half-twist factor, so
    its atom length -- and hence the number of slidings, each of which grows
    the conjugator -- is at most ``l * (n(n-1)/2 - 1)``.
    """
    return x.canonical_length * (x.n * (x.n - 1) // 2 - 1)


def slide_to_rigid(x: CanonicalBraid) -> ConjugationCertificate:
    """Iterate cyclic sliding until rigid, accumulating the conjugator.

    Raises :class:`SlidingBoundExceeded` at the first repeat, which cycles
    (a rigid braid is its own slide), or else after
    :func:`sliding_iteration_bound` slidings; ``repeated`` says which.
    """
    bound = sliding_iteration_bound(x)
    y = x
    seen: dict[CanonicalBraid, tuple] = {}  # iterate -> its prefix
    while True:
        prefix = preferred_prefix(y)
        if not kernel.inv_count(prefix) or y in seen or len(seen) >= bound:
            break
        seen[y] = prefix
        y = _conjugate_by_simple(y, prefix)
    p, core = kernel.normalize_factors(list(seen.values()), x.n)
    alpha = _trusted(x.n, p, tuple(core))
    if kernel.inv_count(prefix):
        raise SlidingBoundExceeded(y, alpha, len(seen), y in seen)
    return ConjugationCertificate(x, y, alpha, len(seen))


def _remainder(fs, s):
    # y'^-1 (y' v s) for the positive braid y' spelled by the factors fs:
    # (f g)^-1 ((f g) v s) = g^-1 (g v f^-1 (f v s)), and it stays simple.
    # No step meets the identity, so there is no early stop for it: the one
    # caller folds only a side whose bound fails, so the result is no prefix
    # of t and hence not 1; and as f^-1 (f v 1) = 1, a fold that met 1
    # would end at 1.
    for f in fs:
        s = kernel.compose(kernel.invert(f), kernel.join(f, s))
    return s


def _minimal_rigid_conjugator(y: CanonicalBraid, y_inv: CanonicalBraid,
                              i: int, known: dict) -> tuple[int, ...]:
    """The smallest simple ``c`` with ``a = s_i`` a prefix and ``y^c`` rigid.

    ``y`` is rigid, ``y_inv`` its inverse.  Each pass reads ``z = y^t``,
    from ``t = a``.  As ``y`` lies in its super summit set, ``inf(z) <=
    inf(y)`` and ``sup(z) >= sup(y)``, with equality in both just when
    ``z`` lies there too.  For ``y = delta^p y'``, ``inf(z) = inf(y)``
    exactly when ``t`` has ``y'^-1 (y' v tau^p(t))`` as a prefix; the same
    remainder on ``y^-1`` decides ``sup(z) = sup(y)``.

    Invariant, ``t <= c_y(a)``: a remainder grows with ``t``, and ``c_y(a)``
    has both of its own as prefixes, so joining in the failing side's keeps
    the invariant.  Inside the super summit set, transport along cyclic
    sliding is monotone and fixes the rigid conjugator ``c_y(a)``, so ``t s
    <= c_y(a)`` for the preferred prefix ``s`` of ``z``; a ``t s`` that is
    not simple raises ``RuntimeError``, an internal fault.  Termination:
    every pass grows ``t``, so there are at most ``n(n-1)/2``; the failing
    side's remainder is no prefix of ``t``, and a join that leaves ``t``
    unchanged raises ``RuntimeError`` anyway.  Result: the loop returns
    only at a rigid ``z``, so ``t = c_y(a)``.

    ``known`` maps atom indices ``j`` to ``c_y(s_j)``, as far as the caller
    has them; ``c = known[j]`` is returned as soon as ``t`` has ``s_j`` as
    a prefix, if ``a`` is a prefix of ``c``.  This is sound: ``c_y(a) <=
    c``, since ``c`` is a rigid conjugator above ``a``, and ``t <= c_y(a)``
    throughout, by the above.  Rigid conjugators are closed under meets
    (Gebhardt and Gonzalez-Meneses, Math. Z. 2010), so ``c`` is the least
    rigid conjugator above ``s_j``, and ``s_j <= t <= c_y(a)`` gives ``c
    <= c_y(a)``.  Hence ``c_y(a) = c``.
    """
    above = [(j, c) for j, c in known.items() if c[i - 1] > c[i]]
    t = _atom(i, y.n)
    while True:
        z = _conjugate_by_simple(y, t)
        if z.inf < y.inf or z.sup > y.sup:
            side = y if z.inf < y.inf else y_inv
            grown = kernel.join(t, _remainder(
                side.factors, kernel.tau(t) if side.power & 1 else t))
            if grown == t:
                raise RuntimeError(f"conjugator of {y} by atom s{i} stopped growing")
        else:
            s = preferred_prefix(z)
            if not kernel.inv_count(s):
                return t
            grown = kernel.compose(t, s)
            if kernel.inv_count(grown) != kernel.inv_count(t) + kernel.inv_count(s):
                raise RuntimeError(
                    f"transported conjugator of {y} by atom s{i} is not simple")
        for j, c in above:
            if grown[j - 1] > grown[j]:
                return c
        t = grown


def minimal_simple_elements(y: CanonicalBraid) -> frozenset[SimpleElement]:
    """Minimal simple conjugators keeping a rigid ``y`` inside its ultra summit set.

    A simple element qualifies when conjugating by it lands on a rigid braid
    and no proper nontrivial prefix does.  Rigid conjugators are closed
    under meets, so every atom ``a`` has a smallest rigid conjugator
    ``c_y(a)`` above it, and the qualifying elements are the prefix-minimal
    ones among the ``n - 1`` values ``c_y(a)``.  Sliding alone cannot find
    ``c_y(a)``: conjugating by ``a`` and then running :func:`slide_to_rigid`
    can overshoot it, as already in B_4, where conjugating ``s2^2`` by
    ``s1`` and sliding to rigidity accumulates ``s1 s2 s3 s2 s1``, although
    ``s1 s2`` already reaches the rigid ``s1^2``.  So the conjugator above
    ``a`` grows by joins while its conjugate is outside the super summit
    set, and slides only inside it, where sliding cannot overshoot.  Raises
    ``ValueError`` when ``l <= 1`` or ``y`` is not rigid.
    """
    if y.canonical_length <= 1:
        raise ValueError("minimal simple elements need canonical length > 1")
    if not is_rigid(y):
        raise ValueError(f"minimal simple elements need a rigid braid, got {y}")
    y_inv = y.inverse()
    known: dict[int, tuple[int, ...]] = {}
    for i in range(1, y.n):
        known[i] = _minimal_rigid_conjugator(y, y_inv, i, known)
    found = set(known.values())
    return frozenset(
        SimpleElement(y.n, u) for u in found
        if not any(v != u and kernel.is_prefix(v, u) for v in found)
    )


def is_uss_minimal(y: CanonicalBraid) -> bool:
    """Whether the ultra summit set of rigid ``y`` is minimal.

    True exactly when the canonical length exceeds one and the minimal
    simple elements are precisely the initial factor and the complement of
    the final factor; then the ultra summit set consists of at most
    ``2 l`` rigid braids arranged in one or two cycling orbits.  Raises
    ``ValueError`` on a non-rigid ``y`` with ``l > 1``.

    Those two elements always keep a rigid braid in its ultra summit set
    (they implement cycling and twisted decycling), have trivial meet, and
    every minimal simple element is a prefix of one of them.  So the test
    asks, for each atom ``a`` below either element, whether the smallest
    rigid conjugator above ``a`` is that element, and stops at the first
    atom where it is not.  The answers found so far settle later atoms
    early (see :func:`_minimal_rigid_conjugator`): an atom whose conjugator
    grows to take in one that led to its element has that element too.
    """
    if y.canonical_length <= 1:
        return False
    if not is_rigid(y):
        raise ValueError(f"the USS test needs a rigid braid, got {y}")
    y_inv = y.inverse()
    known: dict[int, tuple[int, ...]] = {}
    for goal in (initial_factor(y), kernel.right_complement(final_factor(y))):
        for i in range(1, y.n):
            if goal[i - 1] < goal[i]:
                continue
            known[i] = _minimal_rigid_conjugator(y, y_inv, i, known)
            if known[i] != goal:
                return False
    return True


def cycling_orbit(y: CanonicalBraid) -> OrbitData:
    """Read the cycling orbit of rigid ``y`` off the rotation of its factors.

    Cycling rigid ``y = delta^p x_1 ... x_l`` gives ``delta^p x_2 ... x_l
    tau^p(x_1)``, again a rigid normal form, since ``tau`` keeps pairs left
    weighted.  So ``k <= l`` cyclings rotate the factors by ``k``, twisting
    the wrapped ones by ``tau^p``, and ``t`` is the least shift in ``1..l``
    that gives ``y`` or ``tau(y)``: the shift by ``l`` gives ``tau^p(y)``,
    so the orbit always closes.  ``pc = tau^p(x_1 ... x_t)`` is normal as a
    subword of a normal form.  ``self_conjugate`` is set whenever the shift
    gives ``tau(y)``, also when ``y = tau(y)``; for ``l = 0`` the orbit is
    ``t = 1``, ``pc = 1``.  Raises ``ValueError`` when ``y`` is not rigid.
    """
    if not is_rigid(y):
        raise ValueError(f"cycling orbit needs a rigid braid, got {y}")
    fs = y.factors
    tau_fs = y.tau().factors
    wrapped = tau_fs if y.power & 1 else fs
    for t in range(1, max(1, len(fs)) + 1):
        rotated = fs[t:] + wrapped[:t]
        if rotated == fs or rotated == tau_fs:
            break
    return OrbitData(
        base=y,
        t=t,
        pc=_trusted(y.n, 0, wrapped[:t]),
        self_conjugate=(rotated == tau_fs),
    )


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise CentralizerError(f"{what}: {num} is not divisible by {den}")
    return q


def centralizer_basis(y: CanonicalBraid, orbit: OrbitData) -> CentralizerBasis:
    """Express rigid ``y`` with minimal ultra summit set as ``v^c * w^d``.

    The three shapes follow the structure of the orbit: two cycling orbits
    swapped by the half twist, one tau-fixed orbit, or one orbit reaching
    tau(y) halfway around.  All divisions are checked exact and the
    reconstruction ``v^c * w^d == y`` is verified before returning;
    violations raise :class:`CentralizerError`.
    """
    n, p, l = y.n, y.power, y.canonical_length
    tau_y = y.tau()
    if not orbit.self_conjugate:
        case = CentralizerCase.TWO_ORBITS
        v = CanonicalBraid.delta_power(n, 2)
        w = orbit.pc
        c = _exact_div(p, 2, "two-orbit infimum")
        d = _exact_div(l, orbit.t, "two-orbit length")
    elif y == tau_y:
        case = CentralizerCase.ONE_ORBIT_TAU_FIXED
        v = CanonicalBraid.delta_power(n, 1)
        w = orbit.pc
        c = p
        d = _exact_div(l, orbit.t, "tau-fixed length")
    else:
        case = CentralizerCase.ONE_ORBIT_TAU_FREE
        t = 2 * orbit.t
        v = CanonicalBraid.delta_power(n, 2)
        w = orbit.pc * CanonicalBraid.delta_power(n, -1)
        c = _exact_div(p * t + 2 * l, 2 * t, "tau-free exponent")
        d = _exact_div(2 * l, t, "tau-free length")
    if v * w != w * v:
        raise CentralizerError("candidate generators do not commute")
    if (v ** c) * (w ** d) != y:
        raise CentralizerError("decomposition does not reconstruct the braid")
    return CentralizerBasis(v=v, w=w, c=c, d=d, case=case)
