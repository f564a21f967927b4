"""Kernel-level unit tests."""

import itertools
import random

import pytest

import braidkit.kernel as pyk


def random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def test_delta_is_reversal():
    assert pyk.delta(4) == (3, 2, 1, 0)
    assert pyk.identity(3) == (0, 1, 2)
    # the identity meet and left_complement rely on
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
        assert pyk.is_normal(core, n)
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
    # (0, 2) inverted without (0, 1) or (1, 2) is no inversion set; the check
    # raises rather than asserts, so ``python -O`` keeps it
    with pytest.raises(RuntimeError, match="not an inversion set"):
        pyk._perm_from_rows([0b100, 0, 0])


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
    tau = pyk.tau

    def counting(a):
        calls.append(a)
        return tau(a)

    monkeypatch.setattr(pyk, "tau", counting)
    for n, fs in bodies:
        assert pyk.normalize_factors([pyk.delta(n), *fs], n) == (1, fs)
        assert pyk.normalize_factors(
            [pyk.left_complement(fs[0]), *fs], n) == (1, fs[1:])
    assert calls == []


def test_equal_normal_forms_share_factor_objects():
    from braidkit import braid_from_text
    pyk._SHARED.clear()
    x = braid_from_text(4, "1 2 1 3 3 2")
    y = braid_from_text(4, "2 1 2 3 3 2")
    assert x == y and x.factors
    assert all(f is g for f, g in zip(x.factors, y.factors))


def test_shared_factor_table_stays_within_its_bound():
    rng = random.Random(8)
    sizes = []
    for _ in range(pyk._SHARED_BOUND + 4000):
        pyk.normalize_factors([random_perm(rng, 9)], 9)
        sizes.append(len(pyk._SHARED))
    assert max(sizes) <= pyk._SHARED_BOUND
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it was emptied
