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
set ``P`` of the half twist: one closure of the packed set serves both, and
the transfers of ``normalize_factors``.

Each permutation the kernel meets gets one record: the shared tuple
itself, its inverse, and the inversion sets of both packed into one int
each (bit ``i*n + j`` for the pair ``(i, j)``, so row ``i`` is ``n`` bits
wide).  A record is built once, in O(n) big-int operations, and the records
of a permutation and of its inverse share their two tuples and are read off
each other.  Then ``invert`` and ``inv_count`` are lookups, and
``is_prefix`` and ``is_left_weighted`` one AND each.  A record is immutable
apart from its write-once twist link, filled on first use with the record
of its ``tau``-image; ``tau`` is an involution, so one fill links both
records of the pair, and ``tau`` is a lookup too.  A second table indexes
the records by strand count and packed inversion set, so a closure finds its
result's record without decoding it; the key needs the strand count, since
the identities on 3 and on 4 strands, among others, have the same packed
set.  Equal factors returned by ``normalize_factors`` are the record's own
tuple, so braids that stay alive together (planted inputs, orbits, powers)
share one copy of each factor.  The tables hold more than the 7! simples of
B_7 and are emptied together when full, which bounds them on any strand
count.  A fill links a record to a twin in the tables, and the twin back
only if its link is empty, so the records the tables hold keep at most as
many dropped records alive through their links.  The tables are safe to
share between threads without a lock: every field of a record depends only
on its permutation, so a racing fill of a twist link writes an equal
record, and each dict operation is atomic, so an insert lost to a
concurrent one or a record dropped by a clear only loses cached work.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence


class _Record:
    __slots__ = ("perm", "inverse", "rows", "inverse_rows", "twist")

    def __init__(self, perm: tuple[int, ...], inverse: tuple[int, ...],
                 rows: int, inverse_rows: int) -> None:
        self.perm = perm
        self.inverse = inverse
        self.rows = rows
        self.inverse_rows = inverse_rows
        self.twist: _Record | None = None  # the record of tau(perm), once filled


_RECORDS: dict[tuple[int, ...], _Record] = {}
_BY_ROWS: dict[tuple[int, int], _Record] = {}  # (n, rows) -> record
_RECORDS_BOUND = 1 << 14


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
        # Read everything off the record of p^-1, so a pair of inverses
        # holds one copy of each tuple.
        rec = _Record(twin.inverse, twin.perm, twin.inverse_rows, twin.rows)
    else:
        if q == p:
            q = p
        rec = _Record(p, q, _rows(q), _rows(p))
    if len(_RECORDS) >= _RECORDS_BOUND:
        _RECORDS.clear()
        _BY_ROWS.clear()
    _RECORDS[rec.perm] = rec
    _BY_ROWS[len(p), rec.rows] = rec
    return rec


def _twisted(rec: _Record) -> _Record:
    """The record of ``tau(rec.perm)``, linked to ``rec`` on first use."""
    twin = rec.twist
    if twin is None:
        p = rec.perm
        n1 = len(p) - 1
        twin = _record([n1 - x for x in p[::-1]])
        if twin.twist is None:
            twin.twist = rec
        rec.twist = twin
    return twin


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def delta(n: int) -> tuple[int, ...]:
    """The half twist: the order-reversing permutation."""
    return tuple(range(n - 1, -1, -1))


def compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Product of simple braids: ``a`` first, then ``b``."""
    return tuple([b[x] for x in a])


def invert(a: Sequence[int]) -> tuple[int, ...]:
    return _record(a).inverse


def inv_count(a: Sequence[int]) -> int:
    """Number of inversions = number of strand crossings = Coxeter length."""
    return _record(a).rows.bit_count()


def tau(a: Sequence[int]) -> tuple[int, ...]:
    """Conjugation by the half twist; sends the i-th Artin generator to the (n-i)-th."""
    return _twisted(_record(a)).perm


def right_complement(a: Sequence[int]) -> tuple[int, ...]:
    """The simple ``t`` with ``a * t = delta``."""
    n1 = len(a) - 1
    return tuple([n1 - x for x in _record(a).inverse])


def left_complement(a: Sequence[int]) -> tuple[int, ...]:
    """The simple ``t`` with ``t * a = delta``."""
    return invert(a)[::-1]


@cache
def _masks(n: int) -> tuple[int, int, int]:
    """Bit 0 of every row, and the packed crossing sets of the half twist and
    of all atoms, the pairs ``(i, i+1)``."""
    return (sum(1 << (i * n) for i in range(n)), _rows(range(n - 1, -1, -1)),
            sum(1 << (i * n + i + 1) for i in range(n - 1)))


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


def _close(pairs: int, flip: int, n: int) -> _Record:
    """The record of the simple with crossing set ``flip ^ closure(pairs)``.

    The closure is Warshall's: for each ``j`` one product, which cannot
    carry since rows are ``n`` bits wide, copies row ``j`` into each row
    holding (i, j).  The result is looked up by its crossing set and only
    decoded, and checked, when no record has that set.
    """
    full = (1 << n) - 1
    column = _masks(n)[0]
    for j in range(n - 2, 0, -1):
        row = (pairs >> (j * n)) & full
        if row:
            pairs |= ((pairs >> j) & column) * row
    pairs ^= flip
    rec = _BY_ROWS.get((n, pairs))
    return rec if rec is not None else _record(_perm_from_rows(pairs, n))


def _closed(a: Sequence[int], b: Sequence[int], flip: int) -> tuple[int, ...]:
    """The simple with crossing set ``flip ^ closure((flip ^ I(a)) | (flip ^ I(b)))``.

    ``flip`` is 0 for a join and ``P`` for a meet.
    """
    ra, rb = _record(a), _record(b)
    fa, fb = ra.rows ^ flip, rb.rows ^ flip
    pairs = fa | fb
    if pairs == fa:
        return ra.perm
    if pairs == fb:
        return rb.perm
    return _close(pairs, flip, len(ra.perm)).perm


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

    The atom ``sigma_i`` divides ``t`` iff ``(i, i+1)`` is a crossing of
    ``t``, and it divides ``complement(s)`` iff ``(i, i+1)`` is not a
    crossing of ``s^-1``, so the test reads the atoms' pairs of two packed
    sets.
    """
    return not _record(t).rows & ~_record(s).inverse_rows & _masks(len(s))[2]


def normalize_factors(
    factors: Sequence[Sequence[int]], n: int
) -> tuple[int, list[tuple[int, ...]]]:
    """Left normal form of a product of simple braids, built one factor at a time.

    The factors are read left to right onto ``delta^p x_1 ... x_l`` with the
    body ``x_1 ... x_l`` kept in left normal form:

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

    The body is held as records.  The left-weighting test is one AND of
    packed sets, and the transfer's meet is one closure in the meet's
    flipped form, where ``complement(s)`` contributes ``P - I(complement(s))
    = I(s^-1)``, read off the record of ``s``: no tuple or record of the
    complement is built.  The closure's result is looked up by its crossing
    set, and ``s*m`` and ``m^-1*t`` are composed from the records' tuples.
    Factors are twisted through their records' twist links.

    Twisting is deferred: the body is held as ``tau^flip`` of the true
    factors, so twisting everything left of position ``j`` flips ``flip``
    and twists only the factors right of ``j``, which the pass has just
    visited.  Incoming factors are twisted into the held frame, and the
    body is twisted back once at the end.  A half twist with nothing left
    of it -- one that arrives at an empty body, or one the pass makes at
    position 0 -- twists nothing, so it leaves ``flip`` alone.  Thus
    ``delta^-1 lc(u) x_1 ... x_l`` with ``u`` a prefix of ``x_1``, for the
    left complement ``lc``, costs one left-weighting test and one transfer
    more than ``(u^-1 x_1) x_2 ... x_l``, and no twist.

    Cost: a factor appended to an already normal prefix costs one
    left-weighting test and no transfer, so a normal input of ``m`` factors
    costs ``m - 1`` tests.  In general each input factor costs one pass of
    at most ``l`` transfers (``l`` the body length), each one closure of
    ``n - 2`` steps on ``n^2``-bit integers (none when ``t`` is a prefix of
    ``complement(s)``), one lookup by crossing set and two compositions,
    and at most one twist lookup, plus one per factor right of a half twist
    the pass makes.

    Returns ``(delta_count, core)`` with the input product equal to
    ``delta^delta_count * core`` and ``core`` in left normal form.  The
    factors of ``core`` are the tuples of their records, so equal factors
    are shared between results.
    """
    _, half, atoms = _masks(n)
    power = 0
    flip = 0  # body holds tau^flip of the true factors
    body: list[_Record] = []
    for f in factors:
        rec = _record(f)
        if rec.rows == half:
            power += 1
            if body:
                flip ^= 1
            continue
        body.append(_twisted(rec) if flip else rec)
        i = len(body) - 1
        while i > 0:
            s, t = body[i - 1], body[i]
            if not t.rows & ~s.inverse_rows & atoms:
                break
            flipped = t.rows ^ half
            pairs = s.inverse_rows | flipped
            move = t if pairs == flipped else _close(pairs, half, n)
            tp, mp = t.perm, move.perm
            body[i] = _record([tp[x] for x in move.inverse])
            s = _record([mp[x] for x in s.perm])
            if s.rows == half:
                del body[i - 1]
                power += 1
                if i > 1:
                    body[i - 1:] = [_twisted(r) for r in body[i - 1:]]
                    flip ^= 1
                break
            body[i - 1] = s
            i -= 1
        if not body[-1].rows:
            body.pop()
    if flip:
        return power, [_twisted(r).perm for r in body]
    return power, [r.perm for r in body]


def is_normal(factors: Sequence[Sequence[int]], n: int) -> bool:
    """Whether a factor sequence is a valid left normal form body.

    Normal forms are unique, so permutations of ``0..n-1`` form a normal body
    exactly when :func:`normalize_factors` gives them back with no half twist,
    for ``m - 1`` left-weighting tests on ``m`` normal factors.  They are
    checked to be permutations first, so no record is built for anything else.
    """
    if any(len(f) != n or sorted(f) != list(range(n)) for f in factors):
        return False
    return normalize_factors(factors, n) == (0, [tuple(f) for f in factors])
