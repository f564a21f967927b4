"""Generic-case k-th root extraction in braid groups.

Given ``x`` and ``k > 1``, find ``a`` with ``a^k = x`` or certify that no
such braid exists.  The fast path works when ``x`` is conjugate to a rigid
braid whose ultra summit set is minimal: the rigid representative then lives
in a rank-two abelian centralizer with explicit generators ``v, w`` and
exponents ``c, d``, a k-th root exists iff ``k`` divides both exponents, and
the root is unique.

Inputs outside that regime get the distinguished :class:`NonGeneric` outcome
(carrying the reduced braid and the conjugator accumulated so far, so an
external general-purpose solver could resume), never a negative answer:
``NoRoot`` is only ever certified by the abelianization test or by the
divisibility test inside a verified minimal ultra summit set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conjugacy import (
    CentralizerError,
    SlidingBoundExceeded,
    centralizer_basis,
    cycling_orbit,
    is_uss_minimal,
    slide_to_rigid,
)
from .core import CanonicalBraid


@dataclass(frozen=True, slots=True)
class Root:
    """A verified k-th root: ``root ** k`` equals the queried braid."""

    root: CanonicalBraid


@dataclass(frozen=True, slots=True)
class NoRoot:
    """Certified non-existence of a k-th root."""


@dataclass(frozen=True, slots=True)
class NonGeneric:
    """The query left the generic regime; no verdict on root existence.

    ``reduced`` and ``conjugator`` describe how far the reduction got:
    ``conjugator^-1 * x * conjugator = reduced``.
    """

    reason: str
    reduced: CanonicalBraid
    conjugator: CanonicalBraid


RootOutcome = Root | NoRoot | NonGeneric


class RootExtractionError(RuntimeError):
    """An internal consistency check failed; never reported as NoRoot."""


def quick_no_root(x: CanonicalBraid, k: int) -> bool:
    """Certified-negative shortcut: the exponent sum of a k-th power is a multiple of k.

    A ``False`` answer is inconclusive.
    """
    _check_degree(k)
    return x.exponent_sum() % k != 0


def verify_root(x: CanonicalBraid, k: int, a: CanonicalBraid) -> bool:
    """Whether ``a ** k == x``.

    Necessary conditions are checked before powering, so a large ``k`` is
    refuted without building ``a ** k`` when they fail: the exponent sum is
    a homomorphism, inf is super-additive and sup is sub-additive.  Then
    ``a`` is slid to a rigid conjugate ``y``; ``a^k`` is conjugate to the
    rigid ``y^k``, whose inf and sup are the largest and smallest in its
    conjugacy class, so ``inf(x) <= k inf(y)`` and ``sup(x) >= k sup(y)``
    (hence ``l(x) >= k l(y)``) must hold.  When ``a`` has a rigid conjugate,
    powering after these checks is cheap: either ``k <= l(x)``, or ``a`` is
    conjugate to a half-twist power and so are all its powers.

    When sliding ``a`` stops at a repeat, the repeated iterate ``z`` lies on
    a sliding circuit, and sliding circuits lie in the ultra summit set,
    hence in the super summit set (Gebhardt and Gonzalez-Meneses, "The
    cyclic sliding operation in Garside groups", Math. Z. 2010).  So
    ``inf(z)`` and ``sup(z)`` are the summit inf and sup of ``a``, the
    largest inf and smallest sup in its conjugacy class.  The stable inf
    ``lim inf(g^m)/m`` and stable sup satisfy ``inf_ss(g) <= inf_s(g) <
    inf_ss(g) + 1`` and ``sup_ss(g) - 1 < sup_s(g) <= sup_ss(g)`` (Lee and
    Lee, "Translation numbers in a Garside group are rational with
    uniformly bounded denominators", J. Pure Appl. Algebra), and they
    are homogeneous, ``inf_s(g^k) = k inf_s(g)``, by definition.  If
    ``a^k = x``, then ``inf(x) <= inf_ss(x) <= inf_s(x) = k inf_s(a) <
    k (inf(z) + 1)`` and likewise ``sup(x) >= sup_ss(x) >= sup_s(x) =
    k sup_s(a) > k (sup(z) - 1)``; either bracket failing refutes ``a``.
    On 4 strands ``s1 s3^-1`` repeats at ``D^-1 | 2 1 3 2 1 | 1``, so it is
    refuted as a root of the identity for every ``k`` without building
    ``a ** k``, of canonical length ``2k``.  When sliding stops at its
    bound instead, only powering decides.
    """
    _check_degree(k)
    if k * a.exponent_sum() != x.exponent_sum():
        return False
    if k * a.inf > x.inf or x.sup > k * a.sup:
        return False
    try:
        y = slide_to_rigid(a).target
    except SlidingBoundExceeded as exc:
        z = exc.last
        if exc.repeated and (x.inf >= k * (z.inf + 1) or x.sup <= k * (z.sup - 1)):
            return False
    else:
        if x.inf > k * y.inf or x.sup < k * y.sup:
            return False
    return a ** k == x


def extract_root(x: CanonicalBraid, k: int) -> RootOutcome:
    """Find a k-th root of ``x``, certify there is none, or report non-generic.

    The route: abelianization shortcut; conjugate to a rigid braid by
    iterated cyclic sliding (bounded); pure half-twist powers are handled
    directly; otherwise require a minimal ultra summit set, decompose the
    rigid representative over its centralizer basis and decide by
    divisibility.  Every returned root is re-verified by powering.
    """
    _check_degree(k)
    if quick_no_root(x, k):
        return NoRoot()

    try:
        cert = slide_to_rigid(x)
    except SlidingBoundExceeded as exc:
        return NonGeneric("not rigid within bound", exc.last, exc.conjugator)
    y, alpha = cert.target, cert.conjugator

    if y.canonical_length == 0:
        # Pure power of the half twist.  Dividing the exponent is the only
        # root shape this branch certifies; other roots of periodic braids
        # exist (the half-twist square has cube roots in B_3), so failure
        # here is non-generic, not a negative answer.
        if y.power % k == 0:
            root = alpha * CanonicalBraid.delta_power(x.n, y.power // k) * alpha.inverse()
            return _verified(x, k, root)
        return NonGeneric("power of Delta", y, alpha)

    if not is_uss_minimal(y):
        return NonGeneric("USS not minimal", y, alpha)

    orbit = cycling_orbit(y)
    try:
        basis = centralizer_basis(y, orbit)
    except CentralizerError as exc:
        return NonGeneric(f"centralizer decomposition failed: {exc}", y, alpha)

    if basis.c % k == 0 and basis.d % k == 0:
        root = alpha * (basis.v ** (basis.c // k)) * (basis.w ** (basis.d // k)) \
            * alpha.inverse()
        return _verified(x, k, root)
    # Inside a minimal ultra summit set the centralizer is free abelian on
    # (v, w), so any root would force k to divide both exponents.
    return NoRoot()


def _verified(x: CanonicalBraid, k: int, root: CanonicalBraid) -> Root:
    if root ** k != x:
        raise RootExtractionError(
            f"computed root failed verification for k={k}: {root}"
        )
    return Root(root)


def _check_degree(k: int) -> None:
    if not isinstance(k, int) or k <= 1:
        raise ValueError(f"root degree must be an integer > 1, got {k!r}")
