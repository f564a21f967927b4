"""Kernel-level unit tests."""

import ast
import itertools
import random
from pathlib import Path

import braidkit.kernel as pyk

from braid_strategies import run_optimized


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def empty_record_table():
    pyk._RECORDS.clear()
    pyk._BY_ROWS.clear()


def test_delta_is_reversal():
    assert pyk.delta(4) == (3, 2, 1, 0)
    assert pyk.identity(3) == (0, 1, 2)
    # the identity left_complement relies on
    assert all(pyk.compose(pyk.delta(n), a) == a[::-1]
               for n in range(1, 6) for a in itertools.permutations(range(n)))


def test_complement_laws():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 7)
        a = random_perm(rng, n)
        d = pyk.delta(n)
        assert pyk.compose(a, pyk.right_complement(a)) == d
        assert pyk.compose(pyk.left_complement(a), a) == d
        assert pyk.right_complement(pyk.right_complement(a)) == pyk.tau(a)


def test_tau_is_an_involution():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(2, 7)
        a = random_perm(rng, n)
        assert pyk.tau(pyk.tau(a)) == a


def test_prefix_matches_enumeration_oracle():
    # oracle: u <= t iff some simple s has u*s = t with crossing counts adding
    for n in (2, 3, 4):
        perms = [tuple(p) for p in itertools.permutations(range(n))]
        for u in perms:
            for t in perms:
                oracle = any(
                    pyk.compose(u, s) == t
                    and pyk.inv_count(u) + pyk.inv_count(s) == pyk.inv_count(t)
                    for s in perms
                )
                assert pyk.is_prefix(u, t) == oracle


def test_meet_is_the_greatest_common_prefix_exhaustively():
    for n in (2, 3, 4):
        perms = [tuple(p) for p in itertools.permutations(range(n))]
        for a in perms:
            for b in perms:
                m = pyk.meet(a, b)
                assert pyk.is_prefix(m, a) and pyk.is_prefix(m, b)
                for u in perms:
                    if pyk.is_prefix(u, a) and pyk.is_prefix(u, b):
                        assert pyk.is_prefix(u, m)


def test_normalize_factors_outputs_normal_forms():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(2, 6)
        factors = [random_perm(rng, n) for _ in range(rng.randint(0, 10))]
        power, core = pyk.normalize_factors(factors, n)
        assert pyk.is_normal(core, n) and ref_is_normal(core, n)
        assert power >= 0
        # product is preserved
        def product(fs):
            acc = pyk.identity(n)
            for f in fs:
                acc = pyk.compose(acc, f)
            return acc
        lhs = product(factors)
        rhs = product([pyk.delta(n)] * power + list(core))
        assert lhs == rhs
        assert sum(map(pyk.inv_count, factors)) == \
            power * n * (n - 1) // 2 + sum(map(pyk.inv_count, core))



def test_invalid_row_family_raises_under_optimization():
    # (0, 2) inverted without (0, 1) or (1, 2) is no inversion set, and nor
    # is a row holding bits at or below its own index; the check raises
    # rather than asserts, so ``python -O`` keeps it
    out = run_optimized("""
        import braidkit.kernel as k
        for pairs in (0b100, 0b11 << 3):
            try:
                k._perm_from_rows(pairs, 3)
            except RuntimeError as exc:
                print(exc)
        """)
    assert out.count("is not an inversion set") == 2, out


def test_meet_records_only_its_result():
    # meet reads its operands' packed sets; it builds no record for a
    # permutation the caller does not get back
    rng = random.Random(12)
    for n in (3, 8, 20):
        for _ in range(30):
            a, b = random_perm(rng, n), random_perm(rng, n)
            empty_record_table()
            for p in (a, b, pyk.delta(n)):
                pyk._record(p)
            before = set(pyk._RECORDS)
            m = pyk.meet(a, b)
            assert set(pyk._RECORDS) - before <= {m}


# The kernel's loop bodies before per-permutation records and the packed
# closure, kept as the reference the record-based ops are checked against.

def ref_tau(a):
    n = len(a)
    return tuple(n - 1 - a[n - 1 - i] for i in range(n))


def ref_compose(a, b):
    return tuple(b[a[i]] for i in range(len(a)))


def ref_invert(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def ref_inv_count(a):
    n = len(a)
    total = 0
    for i in range(n):
        ai = a[i]
        for j in range(i + 1, n):
            if ai > a[j]:
                total += 1
    return total


def ref_inversion_rows(a):
    """Row bitmasks of the inversion set: bit j of rows[i] is set iff i<j and a[i]>a[j]."""
    n = len(a)
    rows = [0] * n
    for i in range(n):
        ai = a[i]
        m = 0
        for j in range(i + 1, n):
            if ai > a[j]:
                m |= 1 << j
        rows[i] = m
    return rows


def ref_perm_from_rows(rows):
    """Rebuild the permutation whose inversion set is the (valid) row family."""
    n = len(rows)
    out = []
    for i in range(n):
        v = rows[i].bit_count()
        for j in range(i):
            if not (rows[j] >> i) & 1:
                v += 1
        out.append(v)
    if sorted(out) != list(range(n)):
        raise RuntimeError(f"row family {rows!r} is not an inversion set")
    return tuple(out)


def ref_close_rows(rows: list[int]) -> list[int]:
    """Transitive closure under (i,j),(j,k) -> (i,k); rows[i] only holds bits > i."""
    n = len(rows)
    for j in range(n - 2, 0, -1):
        rj = rows[j]
        if not rj:
            continue
        bit = 1 << j
        for i in range(j):
            if rows[i] & bit:
                rows[i] |= rj
    return rows


def ref_join(a, b):
    rows = [x | y for x, y in zip(ref_inversion_rows(a), ref_inversion_rows(b))]
    return ref_perm_from_rows(ref_close_rows(rows))


def ref_meet(a, b):
    return ref_join(a[::-1], b[::-1])[::-1]


def ref_is_prefix(a, b):
    return ref_inv_count(a) + ref_inv_count(pyk.compose(ref_invert(a), b)) == ref_inv_count(b)


def ref_is_left_weighted(s, t):
    sinv = ref_invert(s)
    for i in range(len(s) - 1):
        if t[i] > t[i + 1] and sinv[i] < sinv[i + 1]:
            return False
    return True


def ref_is_normal(factors, n):
    """Reference normal-form test by the definition: permutations of 0..n-1,
    neither the identity nor the half twist, every adjacent pair left weighted."""
    for f in factors:
        if len(f) != n or sorted(f) != list(range(n)):
            return False
        if tuple(f) in (pyk.identity(n), pyk.delta(n)):
            return False
    return all(ref_is_left_weighted(s, t) for s, t in zip(factors, factors[1:]))


def test_is_normal_matches_the_walk():
    rng = random.Random(19)
    seen = set()
    for _ in range(3000):
        n = rng.randint(2, 6)
        # mostly normal bodies, each of them then spoiled one way at random
        factors = pyk.normalize_factors(
            [random_perm(rng, n) for _ in range(rng.randint(0, 6))], n)[1]
        spoil = rng.randrange(6)
        if spoil and factors:
            i = rng.randrange(len(factors))
            if spoil == 1:
                factors[i] = random_perm(rng, n)
            elif spoil == 2:
                factors[i] = rng.choice((pyk.identity(n), pyk.delta(n)))
            elif spoil == 3:
                factors[i] = random_perm(rng, rng.choice((n - 1, n + 1)))
            elif spoil == 4:
                factors[i] = factors[i][:-1] + (rng.choice((0, n, -1)),)
            else:
                factors.insert(i, random_perm(rng, n))
        if rng.random() < 0.5:
            factors = [list(f) for f in factors]
        expected = ref_is_normal(factors, n)
        assert pyk.is_normal(factors, n) == expected, (factors, n)
        seen.add((spoil, expected))
    assert {normal for _, normal in seen} == {True, False}
    assert {spoil for spoil, normal in seen if not normal} == set(range(1, 6))


def test_is_normal_builds_no_record_for_a_non_permutation():
    empty_record_table()
    assert not pyk.is_normal([(1, 0, 2), (0, 0, 2)], 3)
    assert not pyk.is_normal([(1, 0, 2), (1, 0)], 3)
    assert not pyk._RECORDS


def test_kernel_ops_match_the_loop_references():
    pairs = [(a, b) for n in range(1, 6)
             for a in itertools.permutations(range(n))
             for b in itertools.permutations(range(n))]
    rng = random.Random(9)
    for n, size in ((8, 200), (12, 200), (20, 200), (32, 60), (64, 20)):
        pairs += [(random_perm(rng, n), random_perm(rng, n)) for _ in range(size)]
        a = random_perm(rng, n)
        pairs += [(pyk.identity(n), a), (a, pyk.delta(n)), (a, a)]
    empty_record_table()
    for count, (a, b) in enumerate(pairs):
        if count == len(pairs) // 2:
            empty_record_table()  # records are rebuilt on demand
        for x, y in ((a, b), (list(a), list(b))):
            assert pyk.join(x, y) == ref_join(x, y)
            assert pyk.meet(x, y) == ref_meet(x, y)
            assert pyk.is_prefix(x, y) == ref_is_prefix(x, y)
            assert pyk.is_left_weighted(x, y) == ref_is_left_weighted(x, y)
            assert pyk.invert(x) == ref_invert(x)
            assert pyk.inv_count(x) == ref_inv_count(x)
            assert pyk.tau(x) == ref_tau(x)
            # a * rc(a) = delta, and rc(a) = tau(lc(a)) with lc(a) = a^-1 reversed
            assert pyk.right_complement(x) == ref_tau(ref_invert(x)[::-1])
            assert pyk.compose(x, y) == ref_compose(x, y)
            assert all(type(r) is tuple for r in (
                pyk.tau(x), pyk.right_complement(x), pyk.compose(x, y)))


def test_traced_kernel_names_are_kernel_entry_points():
    # perfbench wraps these names for its traced runs; a kernel refactor must
    # not leave any of them absent
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    names = next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "KERNEL_OPS" for target in node.targets))
    assert names
    assert all(callable(getattr(pyk, name, None)) for name in names), names


def step_back_sweep(factors, n):
    """Reference normalization: sweep adjacent pairs, stepping back after each change.

    Each non-left-weighted pair ``(s, t)`` becomes ``(s*m, m^-1*t)`` with
    ``m = complement(s) /\\ t``; the sweep steps back one pair after a
    change, so half twists bubble to the front and trivial factors to the
    back, where both are stripped.  Quadratic in the number of factors.
    """
    fac = [tuple(f) for f in factors]
    m = len(fac)
    i = 0
    while i < m - 1:
        s, t = fac[i], fac[i + 1]
        if pyk.is_left_weighted(s, t):
            i += 1
            continue
        move = pyk.meet(pyk.right_complement(s), t)
        fac[i] = pyk.compose(s, move)
        fac[i + 1] = pyk.compose(pyk.invert(move), t)
        if i > 0:
            i -= 1
    lo, hi = 0, m
    while lo < hi and fac[lo] == pyk.delta(n):
        lo += 1
    while lo < hi and fac[hi - 1] == pyk.identity(n):
        hi -= 1
    return lo, fac[lo:hi]


def random_factor_sequence(rng, n):
    """Random simples mixed with half twists, identities, atoms and complements."""
    out = []
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if roll < 0.05:
            out.append(pyk.delta(n))
        elif roll < 0.1:
            out.append(pyk.identity(n))
        elif roll < 0.2 and out:
            out.append(pyk.right_complement(out[-1]))
        elif roll < 0.4:
            i = rng.randrange(n - 1)
            out.append(tuple(i + 1 if j == i else i if j == i + 1 else j
                             for j in range(n)))
        else:
            out.append(random_perm(rng, n))
    return out


def conjugation_sequence(rng, n):
    """``lc(u) x_1 ... x_l s``, the input of conjugating a normal form by ``s``.

    ``s`` is ``u`` or ``tau(u)``, and ``u`` is ``x_1`` (cycling), a prefix
    of ``x_1`` (sliding) or any simple.
    """
    _, body = pyk.normalize_factors(random_factor_sequence(rng, n), n)
    roll = rng.random()
    if body and roll < 0.3:
        u = body[0]
    elif body and roll < 0.6:
        u = pyk.meet(random_perm(rng, n), body[0])
    else:
        u = random_perm(rng, n)
    s = pyk.tau(u) if rng.random() < 0.5 else u
    return [pyk.left_complement(u), *body, s]


def test_normalize_factors_matches_the_step_back_sweep():
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randint(2, 7)
        factors = random_factor_sequence(rng, n)
        assert pyk.normalize_factors(factors, n) == step_back_sweep(factors, n)
    rng = random.Random(6)
    for _ in range(600):
        n = rng.randint(2, 7)
        factors = conjugation_sequence(rng, n)
        assert pyk.normalize_factors(factors, n) == step_back_sweep(factors, n)
    # Past n = 7 the table is emptied when full; start each sequence from
    # an empty one, so transfers decode new results as well as look them up
    rng = random.Random(13)
    for n in (9, 12, 20):
        for make in (random_factor_sequence, conjugation_sequence) * 15:
            factors = make(rng, n)
            empty_record_table()
            assert pyk.normalize_factors(factors, n) == step_back_sweep(factors, n)


def test_half_twists_at_the_front_twist_nothing(monkeypatch):
    # delta or lc(x_1) x_1 in front of a normal body leaves for the power
    # without flipping the deferred twist, so no factor is ever twisted
    rng = random.Random(7)
    bodies = []
    while len(bodies) < 60:
        n = rng.randint(3, 7)
        _, fs = pyk.normalize_factors([random_perm(rng, n) for _ in range(8)], n)
        if len(fs) >= 3:
            bodies.append((n, fs))
    calls = []

    def counting(name):
        op = getattr(pyk, name)

        def wrapped(a):
            calls.append((name, a))
            return op(a)

        monkeypatch.setattr(pyk, name, wrapped)

    # normalize_factors twists records through their links, not through tau
    counting("tau")
    counting("_twisted")
    for n, fs in bodies:
        assert pyk.normalize_factors([pyk.delta(n), *fs], n) == (1, fs)
        assert pyk.normalize_factors(
            [pyk.left_complement(fs[0]), *fs], n) == (1, fs[1:])
    assert calls == []


def test_equal_normal_forms_share_factor_objects():
    from braidkit import braid_from_text
    empty_record_table()
    x = braid_from_text(4, "1 2 1 3 3 2")
    y = braid_from_text(4, "2 1 2 3 3 2")
    assert x == y and x.factors
    assert all(f is g for f, g in zip(x.factors, y.factors))


def test_planted_braids_built_twice_share_factor_objects():
    from braidkit import CanonicalBraid, SimpleElement
    from braidkit.lab import POSITIVE_SIMPLE_PRODUCT, SampleSpec, sample

    spec = SampleSpec(n=7, r=1, model=POSITIVE_SIMPLE_PRODUCT, seed=11, count=12)

    def planted():
        return CanonicalBraid.from_factors(
            7, [SimpleElement.from_letters(7, w.letters) for w in sample(spec)])

    a, b = planted(), planted()
    assert a == b and a.factors
    assert all(f is g for f, g in zip(a.factors, b.factors))
    aa, bb = a * a, b * b
    assert aa == bb
    assert all(f is g for f, g in zip(aa.factors, bb.factors))


def packed_rows(a):
    n = len(a)
    return sum(row << (i * n) for i, row in enumerate(ref_inversion_rows(a)))


def test_inverse_records_share_their_tuples():
    rng = random.Random(10)
    for n in (3, 7, 12):
        empty_record_table()
        a = pyk._record(random_perm(rng, n))  # built without its twin
        b = pyk._record(tuple(list(a.inverse)))  # an equal tuple, not the same one
        assert b.perm is a.inverse and b.inverse is a.perm
        # the transfer reads I(s^-1) off the record of s, on both build paths
        for rec in (a, b):
            assert rec.rows == packed_rows(rec.perm)
            assert rec.inverse_rows == packed_rows(rec.inverse)
            assert rec.inverse_rows == pyk._record(rec.inverse).rows


def test_twist_links_pair_the_records_of_tau_images():
    rng = random.Random(15)
    for n in (3, 7, 12, 64):
        perms = [random_perm(rng, n) for _ in range(20)]
        perms += [pyk.identity(n), pyk.delta(n)]  # their own tau-images
        for a in perms:
            # fill the link from either record of the pair
            for first in (a, ref_tau(a)):
                empty_record_table()
                pyk._twisted(pyk._record(first))
                r = pyk._record(a)
                assert pyk._twisted(pyk._twisted(r)) is r
                assert pyk._twisted(r).perm == ref_tau(a)
                assert pyk._twisted(r).rows == packed_rows(ref_tau(a))
                assert pyk.tau(a) is pyk.tau(list(a)) is pyk._twisted(r).perm
                before = set(pyk._RECORDS)
                pyk.tau(a)
                pyk.tau(ref_tau(a))
                assert set(pyk._RECORDS) == before  # a warm tau adds no record


def test_twist_links_survive_emptied_tables(monkeypatch):
    # records held across a clear, like the body of normalize_factors, link
    # to twins in the new table; results stay those of the references
    rng = random.Random(16)
    for n in (4, 7, 12):
        held = [pyk._record(random_perm(rng, n)) for _ in range(20)]
        empty_record_table()
        for r in held[::2]:
            pyk._twisted(pyk._record(r.perm))  # fill the new pair first
        for r in held:
            assert pyk._twisted(r).perm == ref_tau(r.perm)
            assert pyk.tau(r.perm) == ref_tau(r.perm)
    # tables emptied many times within each call
    monkeypatch.setattr(pyk, "_RECORDS_BOUND", 40)
    for n in (4, 7, 12):
        for make in (random_factor_sequence, conjugation_sequence) * 20:
            factors = make(rng, n)
            assert pyk.normalize_factors(factors, n) == step_back_sweep(factors, n)
            for f in factors:
                assert pyk.tau(f) == ref_tau(f)


def test_shared_factor_table_stays_within_its_bound():
    rng = random.Random(8)
    d = pyk.delta(9)
    sizes = []
    for _ in range(pyk._RECORDS_BOUND + 4000):
        # the half twist flips the deferred twist: the last factor is twisted
        # on entry and the body twisted back at the end
        pyk.normalize_factors([random_perm(rng, 9), d, random_perm(rng, 9)], 9)
        sizes.append(len(pyk._RECORDS))
        # the index by crossing set holds the same records, emptied together
        assert len(pyk._BY_ROWS) == sizes[-1]
    assert max(sizes) <= pyk._RECORDS_BOUND
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it was emptied
    # the table's twist links keep at most as many dropped records alive
    alive, todo = {}, list(pyk._RECORDS.values())
    while todo:
        r = todo.pop()
        if id(r) not in alive:
            alive[id(r)] = r
            if r.twist is not None:
                todo.append(r.twist)
    assert len(alive) <= 2 * len(pyk._RECORDS)


def test_kernel_builds_no_tuple_from_a_generator():
    # tuple(<generator>) runs the generator frame once per element; a list
    # comprehension is 1.2-2x faster at the kernel's sizes
    kernel = Path(pyk.__file__)
    offenders = [
        node.lineno for node in ast.walk(ast.parse(kernel.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tuple"
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)]
    assert offenders == []


def test_results_keep_their_strand_count():
    # the identities on 3 and 4 strands both pack to 0, and (1, 0, 2) and
    # (1, 0, 2, 3) both to bit 1: a lookup by packed set alone would hand a
    # record on one strand count to the other
    rng = random.Random(14)
    for first, second in ((3, 4), (4, 3)):
        def table_of_the_other_count():
            empty_record_table()
            for p in itertools.permutations(range(first)):
                pyk._record(p)

        perms = list(itertools.permutations(range(second)))
        for a in perms:
            for b in perms:
                table_of_the_other_count()
                assert pyk.join(a, b) == ref_join(a, b)
                table_of_the_other_count()
                assert pyk.meet(a, b) == ref_meet(a, b)
        for _ in range(100):
            factors = random_factor_sequence(rng, second)
            table_of_the_other_count()
            power, core = pyk.normalize_factors(factors, second)
            assert all(len(f) == second for f in core)
            assert (power, core) == step_back_sweep(factors, second)
