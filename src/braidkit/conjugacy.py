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
the final factor.  For each atom, the smallest rigid conjugator above it is
found in two phases: joins close the atom to the smallest conjugator that
stays in the super summit set (the set of such conjugators is closed under
joins and meets), then cyclic sliding carries that conjugator to a rigid
braid without overshooting, because transport along sliding is monotone
inside the super summit set.  Each phase costs a polynomial in the strand
count times the canonical length, nearly all of it in joins that fold a
remainder through the factors of the braid and of its inverse.  Two sound
early stops cut that down: a fold ends once its remainder is trivial, and
an atom whose growing conjugator reaches an atom already shown to lead to
the whole factor leads there too, so it needs no further rounds.

Everything here is a pure function over immutable values and safe to call
concurrently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import kernel
from .core import CanonicalBraid, SimpleElement, _trusted


class SlidingBoundExceeded(Exception):
    """Iterated cyclic sliding hit its bound, or a repeat, before a rigid braid.

    Carries the last iterate and the conjugator accumulated so far, so a
    caller can hand the state to a fallback solver.  ``repeated`` tells
    whether sliding stopped because ``last`` had been slid before; such a
    braid lies on a sliding circuit, hence in the super summit set.
    """

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
    """A verified conjugation ``conjugator^-1 * source * conjugator = target``."""

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


def initial_factor(x: CanonicalBraid) -> SimpleElement:
    """The first factor pulled in front of the half-twist block; 1 when trivial.

    For ``delta^p x_1 ... x_l`` this is ``tau^-p(x_1)``, the simple element
    by which cycling conjugates.
    """
    if x.canonical_length == 0:
        return SimpleElement.identity(x.n)
    first = x.factors[0]
    if x.power & 1:
        first = kernel.tau(first)
    return SimpleElement(x.n, first)


def final_factor(x: CanonicalBraid) -> SimpleElement:
    """The last normal form factor; delta when the canonical length is zero."""
    if x.canonical_length == 0:
        return SimpleElement.delta(x.n)
    return SimpleElement(x.n, x.factors[-1])


def preferred_prefix(x: CanonicalBraid) -> SimpleElement:
    """Common prefix of the initial factor and the final factor's complement."""
    return initial_factor(x).meet(final_factor(x).complement())


def is_rigid(x: CanonicalBraid) -> bool:
    """Whether the final and initial factors form a left weighted pair."""
    return kernel.is_left_weighted(final_factor(x).perm, initial_factor(x).perm)


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
    if x.canonical_length == 0:
        return x
    return _conjugate_by_simple(x, initial_factor(x).perm)


def decycling(x: CanonicalBraid) -> CanonicalBraid:
    """Conjugate by the inverse of the final factor: ``x_l delta^p x_1 ... x_{l-1}``.

    ``x_l^-1 = d(x_l) delta^-1`` for the right complement ``d(x_l)``, and
    conjugating by ``delta^-1`` is ``tau``, so this is ``tau`` of the
    conjugate by ``d(x_l)``.
    """
    if x.canonical_length == 0:
        return x
    return _conjugate_by_simple(
        x, kernel.right_complement(x.factors[-1])).tau()


def cyclic_sliding(x: CanonicalBraid) -> CanonicalBraid:
    """Conjugate by the preferred prefix; fixed exactly on rigid braids."""
    prefix = preferred_prefix(x)
    if prefix.is_identity():
        return x
    return _conjugate_by_simple(x, prefix.perm)


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
    seen: dict[CanonicalBraid, SimpleElement] = {}  # iterate -> its prefix
    while True:
        prefix = preferred_prefix(y)
        if prefix.is_identity() or y in seen or len(seen) >= bound:
            break
        seen[y] = prefix
        y = _conjugate_by_simple(y, prefix.perm)
    alpha = CanonicalBraid.from_factors(x.n, seen.values())
    if not prefix.is_identity():
        raise SlidingBoundExceeded(y, alpha, len(seen), y in seen)
    return ConjugationCertificate(x, y, alpha, len(seen))


def _remainder(fs, s):
    # y'^-1 (y' v s) for the positive braid y' spelled by the factors fs:
    # (f g)^-1 ((f g) v s) = g^-1 (g v f^-1 (f v s)), and it stays simple.
    # Once s is the identity every later step gives the identity again,
    # since f^-1 (f v 1) = 1, so the fold stops there.
    idp = tuple(range(len(s)))
    for f in fs:
        if s == idp:
            break
        s = kernel.compose(kernel.invert(f), kernel.join(f, s))
    return s


def _minimal_rigid_conjugator(y: CanonicalBraid, y_inv: CanonicalBraid,
                              a: tuple, top: SimpleElement | None = None,
                              settled: tuple = ()) -> SimpleElement:
    """The smallest simple ``c`` with ``a`` a prefix and ``y^c`` rigid.

    ``y`` is rigid and ``y_inv`` is its inverse.  Phase 1 closes ``t = a``
    to the super summit set: ``inf(y^t) >= inf(y)`` holds exactly when
    ``t`` has ``y'^-1 (y' v tau^p(t))`` as a prefix, for ``y = delta^p y'``,
    and the same test on ``y^-1`` enforces ``sup(y^t) <= sup(y)``; both
    remainders grow with ``t``, so joining them in until nothing changes
    gives the smallest such ``t`` above ``a``.  Phase 2 slides ``z = y^t``
    to rigidity, growing ``t`` by each preferred prefix ``s``.  Transport
    along cyclic sliding is monotone inside the super summit set and leaves
    every rigid conjugator of ``y`` fixed, so ``t`` stays a prefix of the
    answer and ends on it.  In particular ``t s`` stays simple, that is,
    the crossing counts of ``t`` and ``s`` add; a product where they do not
    raises ``RuntimeError``, an internal fault.  That check also bounds
    the loop: every sliding adds at least one crossing to ``t``, and a
    simple element has at most ``n(n-1)/2``.

    ``settled`` lists indices ``i`` of atoms ``s_i`` already known to have
    ``c_y(s_i) = top``, for a rigid conjugator ``top`` of which ``a`` is a
    prefix; ``top`` is returned as soon as ``t`` has one of them as a
    prefix, in either phase.  This is sound: ``c_y(a) <= top``, since
    ``top`` is a rigid conjugator above ``a``, and ``t <= c_y(a)``
    throughout, by the above.  Rigid conjugators are closed under meets
    (Gebhardt and Gonzalez-Meneses, Math. Z. 2010), so ``c_y(s_i)`` is the
    least rigid conjugator above ``s_i``, and ``s_i <= t <= c_y(a)`` gives
    ``top = c_y(s_i) <= c_y(a)``.  Hence ``c_y(a) = top``.
    """
    p, q = y.power & 1, y_inv.power & 1
    t = a
    while True:
        grown = kernel.join(t, _remainder(y.factors, kernel.tau(t) if p else t))
        grown = kernel.join(
            grown, _remainder(y_inv.factors, kernel.tau(t) if q else t))
        if any(grown[i - 1] > grown[i] for i in settled):
            return top
        if grown == t:
            break
        t = grown
    z = _conjugate_by_simple(y, t)
    while True:
        s = preferred_prefix(z)
        if s.is_identity():
            return SimpleElement(y.n, t)
        grown = kernel.compose(t, s.perm)
        if kernel.inv_count(grown) != kernel.inv_count(t) + s.length:
            raise RuntimeError(
                f"transported conjugator of {y} by atom {a} is not simple")
        if any(grown[i - 1] > grown[i] for i in settled):
            return top
        t = grown
        z = _conjugate_by_simple(z, s.perm)


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
    ``s1 s2`` already reaches the rigid ``s1^2``.  So ``a`` is first closed
    under joins to the smallest conjugator that stays in the super summit
    set, where sliding can no longer overshoot.  The cost is polynomial in
    the strand count and the canonical length.
    """
    if y.canonical_length <= 1:
        raise ValueError("minimal simple elements need canonical length > 1")
    y_inv = y.inverse()
    found = {_minimal_rigid_conjugator(y, y_inv, SimpleElement.atom(i, y.n).perm)
             for i in range(1, y.n)}
    return frozenset(
        u for u in found
        if not any(v != u and v.is_prefix_of(u) for v in found)
    )


def is_uss_minimal(y: CanonicalBraid) -> bool:
    """Whether the ultra summit set of rigid ``y`` is minimal.

    True exactly when the canonical length exceeds one and the minimal
    simple elements are precisely the initial factor and the complement of
    the final factor; then the ultra summit set consists of at most
    ``2 l`` rigid braids arranged in one or two cycling orbits.

    Those two elements always keep a rigid braid in its ultra summit set
    (they implement cycling and twisted decycling), have trivial meet, and
    every minimal simple element is a prefix of one of them.  So the test
    asks, for each atom ``a`` below either top, whether the smallest rigid
    conjugator above ``a`` is that top itself, and stops at the first atom
    where it is not.  The atoms of one top that passed settle the later
    ones early (see :func:`_minimal_rigid_conjugator`): a later atom whose
    growing conjugator reaches one of them needs no further joins.
    """
    if y.canonical_length <= 1:
        return False
    y_inv = y.inverse()
    for top in (initial_factor(y), final_factor(y).complement()):
        settled: tuple = ()
        for i in range(1, y.n):
            if top.perm[i - 1] < top.perm[i]:
                continue
            if _minimal_rigid_conjugator(y, y_inv, SimpleElement.atom(i, y.n).perm,
                                         top, settled) != top:
                return False
            settled += (i,)
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


def render_certificate(cert: ConjugationCertificate) -> str:
    return (
        f"target={cert.target}\n"
        f"conjugator={cert.conjugator}\n"
        f"iterations={cert.iterations}"
    )


def render_orbit(orbit: OrbitData) -> str:
    flag = "true" if orbit.self_conjugate else "false"
    return f"t={orbit.t}, pc={orbit.pc}, self={flag}"
