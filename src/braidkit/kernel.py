"""Permutation kernels for braid normal form arithmetic.

The low-level operations on simple braids (permutation braids), in pure
Python; everything above this module calls ``kernel.<op>``.

Conventions, used consistently everywhere:

* A simple braid on ``n`` strands is stored as a tuple ``p`` of length ``n``
  with ``p[i]`` the 0-indexed final position of the strand starting at
  position ``i``.
* ``compose(a, b)`` is the braid product "``a`` first, then ``b``", i.e.
  ``compose(a, b)[i] = b[a[i]]``.
* The crossing set of a simple braid is its inversion set
  ``{(i, j) : i < j, p[i] > p[j]}``; a simple ``s`` is a prefix of ``t``
  exactly when the crossing set of ``s`` is contained in that of ``t``.

The prefix-order join of two simples is the permutation whose inversion set
is the transitive closure of the union of their inversion sets.  The lattice
is self-dual (Epstein et al., *Word Processing in Groups*, ch. 9), so the
meet's inversion set is ``P - closure(P - (I(a) & I(b)))`` for the crossing
set ``P`` of the half twist: one closure of the packed set serves both.

Each permutation the kernel meets gets one immutable record: the shared
tuple itself, its inverse, its inversion set packed into one int (bit
``i*n + j`` for the pair ``(i, j)``, so row ``i`` is ``n`` bits wide), and
the descent masks of it and of its inverse (bit ``i`` for ``p[i] >
p[i+1]``).  A record is built once, in O(n) big-int operations, and the
records of a permutation and of its inverse share their two tuples.  Then
``invert`` and ``inv_count`` are lookups, and ``is_prefix`` and
``is_left_weighted`` one AND each.  Equal factors returned by
``normalize_factors`` are the record's own tuple, so braids that stay alive
together (planted inputs, orbits, powers) share one copy of each factor.
The table of records holds more than the 7! simples of B_7 and is emptied
when full, which bounds it on any strand count.  It is safe to share between
threads without a lock: every record is immutable and depends only on its
permutation, and each dict operation is atomic, so an insert lost to a
concurrent one or a record dropped by a clear only loses cached work.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Sequence


class _Record(NamedTuple):
    perm: tuple[int, ...]
    inverse: tuple[int, ...]
    rows: int
    descents: int
    inverse_descents: int


_RECORDS: dict[tuple[int, ...], _Record] = {}
_RECORDS_BOUND = 1 << 14


def _descents(p: Sequence[int]) -> int:
    mask = 0
    for i in range(len(p) - 1):
        if p[i] > p[i + 1]:
            mask |= 1 << i
    return mask


def _rows(inverse: Sequence[int]) -> int:
    """The packed inversion set of the permutation with this inverse."""
    n = len(inverse)
    # Visit the strands by final position: the strands right of i that end
    # left of it are then the ones already seen.
    rows = seen = 0
    for i in inverse:
        rows |= (seen >> (i + 1)) << (i * n + i + 1)
        seen |= 1 << i
    return rows


def _record(p: Sequence[int]) -> _Record:
    """The record of the permutation ``p``, built on first sight."""
    if type(p) is not tuple:
        p = tuple(p)
    rec = _RECORDS.get(p)
    if rec is not None:
        return rec
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    q = tuple(inv)
    twin = _RECORDS.get(q)
    if twin is not None:
        # Take both tuples from the record of p^-1, so a pair of inverses
        # holds one copy of each.
        p, q = twin.inverse, twin.perm
    elif q == p:
        q = p
    rec = _Record(p, q, _rows(q), _descents(p), _descents(q))
    if len(_RECORDS) >= _RECORDS_BOUND:
        _RECORDS.clear()
    _RECORDS[p] = rec
    return rec


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def delta(n: int) -> tuple[int, ...]:
    """The half twist: the order-reversing permutation."""
    return tuple(range(n - 1, -1, -1))


def compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Product of simple braids: ``a`` first, then ``b``."""
    return tuple(b[x] for x in a)


def invert(a: Sequence[int]) -> tuple[int, ...]:
    return _record(a).inverse


def inv_count(a: Sequence[int]) -> int:
    """Number of inversions = number of strand crossings = Coxeter length."""
    return _record(a).rows.bit_count()


def tau(a: Sequence[int]) -> tuple[int, ...]:
    """Conjugation by the half twist; sends the i-th Artin generator to the (n-i)-th."""
    n = len(a)
    return tuple(n - 1 - a[n - 1 - i] for i in range(n))


def right_complement(a: Sequence[int]) -> tuple[int, ...]:
    """The simple ``t`` with ``a * t = delta``."""
    n = len(a)
    ainv = invert(a)
    return tuple(n - 1 - ainv[i] for i in range(n))


def left_complement(a: Sequence[int]) -> tuple[int, ...]:
    """The simple ``t`` with ``t * a = delta``."""
    return invert(a)[::-1]


@cache
def _masks(n: int) -> tuple[int, int]:
    """Bit 0 of every row, and the packed crossing set of the half twist."""
    return sum(1 << (i * n) for i in range(n)), _rows(range(n - 1, -1, -1))


def _perm_from_rows(pairs: int, n: int) -> tuple[int, ...]:
    """The permutation whose packed inversion set is ``pairs``, checked.

    Row ``i`` holds as many bits as strands right of ``i`` end left of it,
    so that popcount picks ``p[i]`` among the values still free.
    """
    full = (1 << n) - 1
    free = list(range(n))
    try:
        rec = _record([free.pop(((pairs >> (i * n)) & full).bit_count())
                       for i in range(n)])
    except IndexError:
        rec = None
    if rec is None or rec.rows != pairs:
        raise RuntimeError(f"row family {pairs:#x} is not an inversion set")
    return rec.perm


def _closed(a: Sequence[int], b: Sequence[int], flip: int) -> tuple[int, ...]:
    """The simple with crossing set ``flip ^ closure((flip ^ I(a)) | (flip ^ I(b)))``.

    ``flip`` is 0 for a join and ``P`` for a meet.  The closure is
    Warshall's: for each ``j`` one product, which cannot carry since rows
    are ``n`` bits wide, copies row ``j`` into each row holding (i, j).
    """
    ra, rb = _record(a), _record(b)
    fa, fb = ra.rows ^ flip, rb.rows ^ flip
    pairs = fa | fb
    if pairs == fa:
        return ra.perm
    if pairs == fb:
        return rb.perm
    n = len(ra.perm)
    full = (1 << n) - 1
    column = _masks(n)[0]
    for j in range(n - 2, 0, -1):
        row = (pairs >> (j * n)) & full
        if row:
            pairs |= ((pairs >> j) & column) * row
    return _perm_from_rows(pairs ^ flip, n)


def join(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Prefix-order join: transitive closure of the union of the inversion sets."""
    return _closed(a, b, 0)


def meet(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Prefix-order meet: the join of the inversion-set complements, complemented."""
    return _closed(a, b, _masks(len(a))[1])


def is_prefix(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether ``a`` is a prefix of ``b``: its crossing set lies in that of ``b``."""
    return not _record(a).rows & ~_record(b).rows


def is_left_weighted(s: Sequence[int], t: Sequence[int]) -> bool:
    """Whether the pair ``s, t`` is left weighted: complement(s) and t share no atom.

    An atom divides ``t`` iff ``t`` descends at that position, and it divides
    ``complement(s)`` iff ``s^-1`` does not descend there, so the test reduces
    to comparing descent sets.
    """
    return not _record(t).descents & ~_record(s).inverse_descents


def normalize_factors(
    factors: Sequence[Sequence[int]], n: int
) -> tuple[int, list[tuple[int, ...]]]:
    """Left normal form of a product of simple braids, built one factor at a time.

    The factors are read left to right onto ``delta^p x_1 ... x_l`` with the
    body ``x_1 ... x_l`` kept in left normal form:

    * an identity factor is skipped;
    * a half twist adds one to ``p`` and, since ``x * delta = delta *
      tau(x)``, applies ``tau`` to the body, if there is one;
    * any other factor is appended, and a right-to-left pass replaces each
      pair ``(s, t)`` by ``(s*m, m^-1*t)`` with ``m = complement(s) /\\ t``,
      stopping at the first pair that is already left weighted -- the pairs
      to its left are untouched and were left weighted before.

    By the standard theorem on multiplying a normal form by a simple element
    (Epstein et al., *Word Processing in Groups*, ch. 9; Elrifai and Morton
    1994), one such pass gives the normal form: no interior factor becomes
    trivial, and a half twist can only travel to the front.  So a trivial
    tail factor is dropped, and once a pass makes a half twist, the rest of
    the pass would only turn each ``(u, delta)`` into ``(delta, tau(u))``:
    the half twist leaves the body for ``p`` and everything left of it is
    twisted by ``tau``.

    Twisting is deferred: the body is held as ``tau^flip`` of the true
    factors, so twisting everything left of position ``j`` flips ``flip``
    and twists only the factors right of ``j``, which the pass has just
    visited.  Incoming factors are twisted into the held frame, and the
    body is twisted back once at the end.  A half twist with nothing left
    of it -- one that arrives at an empty body, or one the pass makes at
    position 0 -- twists nothing, so it leaves ``flip`` alone.  Thus
    ``delta^-1 lc(u) x_1 ... x_l`` with ``u`` a prefix of ``x_1``, for the
    left complement ``lc``, costs one ``is_left_weighted`` check and one
    meet more than ``(u^-1 x_1) x_2 ... x_l``, and no ``tau``.

    Cost: a factor appended to an already normal prefix costs one
    ``is_left_weighted`` check and no meet, so a normal input of ``m``
    factors costs ``m - 1`` checks.  In general each input factor costs one
    pass of at most ``l`` transfers (``l`` the body length), each a meet
    of ``n - 2`` steps on ``n^2``-bit integers, and at most one ``tau``, plus
    one per factor right of a half twist the pass makes.

    Returns ``(delta_count, core)`` with the input product equal to
    ``delta^delta_count * core`` and ``core`` in left normal form.  The
    factors of ``core`` are the tuples of their records, so equal factors
    are shared between results.
    """
    idp = identity(n)
    dp = delta(n)
    power = 0
    flip = 0  # body holds tau^flip of the true factors
    body: list[tuple[int, ...]] = []
    for f in factors:
        f = tuple(f)
        if f == idp:
            continue
        if f == dp:
            power += 1
            if body:
                flip ^= 1
            continue
        body.append(tau(f) if flip else f)
        i = len(body) - 1
        while i > 0:
            s, t = body[i - 1], body[i]
            if is_left_weighted(s, t):
                break
            move = meet(right_complement(s), t)
            body[i] = compose(invert(move), t)
            s = compose(s, move)
            if s == dp:
                del body[i - 1]
                power += 1
                if i > 1:
                    body[i - 1:] = map(tau, body[i - 1:])
                    flip ^= 1
                break
            body[i - 1] = s
            i -= 1
        if body[-1] == idp:
            body.pop()
    if flip:
        body = list(map(tau, body))
    return power, [_record(f).perm for f in body]


def is_normal(factors: Sequence[Sequence[int]], n: int) -> bool:
    """Whether a factor sequence is a valid left normal form body."""
    idp = identity(n)
    dp = delta(n)
    for f in factors:
        if len(f) != n or sorted(f) != list(range(n)):
            return False
        if tuple(f) == idp or tuple(f) == dp:
            return False
    for i in range(len(factors) - 1):
        if not is_left_weighted(factors[i], factors[i + 1]):
            return False
    return True
