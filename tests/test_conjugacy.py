"""Cycling, sliding, rigidity, minimal conjugators, orbits, centralizers."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings

from braidkit import conjugacy, kernel
from braidkit import (
    CanonicalBraid,
    CentralizerCase,
    SimpleElement,
    SlidingBoundExceeded,
    braid_from_text,
    centralizer_basis,
    cycling,
    cycling_orbit,
    cyclic_sliding,
    decycling,
    final_factor,
    initial_factor,
    is_rigid,
    is_uss_minimal,
    minimal_simple_elements,
    normalize,
    preferred_prefix,
    slide_to_rigid,
)
from braidkit.conjugacy import (
    _minimal_rigid_conjugator,
    _remainder,
    render_certificate,
    render_orbit,
)
from braidkit.lab import (
    POSITIVE_SIMPLE_PRODUCT,
    SIGNED_ARTIN_WORD,
    SampleSpec,
    sample,
)

from braid_strategies import braids


def B(n, text):
    return braid_from_text(n, text)


def rigid_samples(count=60, seed=1):
    """Seeded rigid braids obtained by sliding random braids to rigidity."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 5)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(2, 12)))
        x = braid_from_text(n, " ".join(map(str, letters)))
        try:
            cert = slide_to_rigid(x)
        except SlidingBoundExceeded:
            continue
        if cert.target.canonical_length > 0:
            out.append(cert.target)
    return out


# --- reference: the prefix-interval walk (exponential in n, used for n <= 7) ---

def _raw_is_rigid(power, factors):
    if not factors:
        return True
    first = kernel.tau(factors[0]) if power & 1 else factors[0]
    return kernel.is_left_weighted(factors[-1], first)


def _walk_rigid_prefixes(y, top, skip_top):
    """Breadth-first walk of the prefix interval [1, top], yielding prefixes
    whose conjugate of ``y`` is rigid.

    Children extend a prefix by one atom, so each node's conjugate is updated
    incrementally from its parent's (the conjugate depends only on the prefix,
    not on the path): for an atom ``a``, the conjugate ``a^-1 z a`` of
    ``z = delta^p F`` renormalizes ``delta^(p-1) tau^p(lc(a)) F a`` in one
    sweep, where ``lc(a)`` is the left complement.  Rigid nodes are yielded
    and not expanded: every extension has them as a proper prefix.  With
    ``skip_top`` the top itself is not tested, restricting the walk to
    proper prefixes.
    """
    n = y.n
    atoms = [SimpleElement.atom(i, n).perm for i in range(1, n)]
    atom_lcs = [kernel.left_complement(a) for a in atoms]
    seen = {kernel.identity(n)}
    frontier = [(kernel.identity(n), y.power, y.factors)]
    while frontier:
        next_frontier = []
        for perm, power, factors in frontier:
            rest = kernel.compose(kernel.invert(perm), top.perm)
            for i in range(n - 1):
                if rest[i] <= rest[i + 1]:
                    continue
                grown = kernel.compose(perm, atoms[i])
                if grown in seen or (skip_top and grown == top.perm):
                    continue
                seen.add(grown)
                head = kernel.tau(atom_lcs[i]) if power & 1 else atom_lcs[i]
                dp, core = kernel.normalize_factors(
                    [head, *factors, atoms[i]], n)
                new_power = power - 1 + dp
                new_factors = tuple(core)
                if _raw_is_rigid(new_power, new_factors):
                    yield SimpleElement(n, grown)
                else:
                    next_frontier.append((grown, new_power, new_factors))
        frontier = next_frontier


def walk_minimal_simple_elements(y):
    found = set(_walk_rigid_prefixes(y, initial_factor(y), skip_top=False))
    found.update(_walk_rigid_prefixes(y, final_factor(y).complement(),
                                      skip_top=False))
    return frozenset(
        u for u in found
        if not any(v != u and v.is_prefix_of(u) for v in found)
    )


def walk_is_uss_minimal(y):
    if y.canonical_length <= 1:
        return False
    return not any(
        True
        for top in (initial_factor(y), final_factor(y).complement())
        for _ in _walk_rigid_prefixes(y, top, skip_top=True)
    )


# --- reference: the USS test without its early stops (any n) ---

def reference_remainder(fs, s):
    # y'^-1 (y' v s) for the positive braid y' spelled by the factors fs:
    # (f g)^-1 ((f g) v s) = g^-1 (g v f^-1 (f v s)), and it stays simple.
    for f in fs:
        s = kernel.compose(kernel.invert(f), kernel.join(f, s))
    return s


def reference_minimal_rigid_conjugator(y, y_inv, a):
    """c_y(a): join-close ``a`` into the super summit set, then slide."""
    p, q = y.power & 1, y_inv.power & 1
    t = a
    while True:
        grown = kernel.join(
            t, reference_remainder(y.factors, kernel.tau(t) if p else t))
        grown = kernel.join(
            grown, reference_remainder(y_inv.factors, kernel.tau(t) if q else t))
        if grown == t:
            break
        t = grown
    z = y.conjugate_by(SimpleElement(y.n, t).braid())
    while True:
        s = preferred_prefix(z)
        if s.is_identity():
            return SimpleElement(y.n, t)
        t = kernel.compose(t, s.perm)
        z = z.conjugate_by(s.braid())


def reference_is_uss_minimal(y):
    if y.canonical_length <= 1:
        return False
    y_inv = y.inverse()
    for top in (initial_factor(y), final_factor(y).complement()):
        for i in range(1, y.n):
            if top.perm[i - 1] > top.perm[i] and reference_minimal_rigid_conjugator(
                    y, y_inv, SimpleElement.atom(i, y.n).perm) != top:
                return False
    return True


def lab_rigid_samples(seed=7, count=18):
    """Rigid braids of canonical length > 1 on 8 to 12 strands from lab
    streams, from both sampling models; roughly 40 % of them have a
    non-minimal ultra summit set."""
    out = []
    for n in range(8, 13):
        for model, r in ((POSITIVE_SIMPLE_PRODUCT, 3), (SIGNED_ARTIN_WORD, 4 * n)):
            for word in sample(SampleSpec(n, r, model, seed, count)):
                try:
                    y = slide_to_rigid(normalize(word)).target
                except SlidingBoundExceeded:
                    continue
                if y.canonical_length > 1:
                    out.append(y)
    return out


# --- reference: follow the cycling orbit one cycling at a time ---

def loop_cycling_orbit(y):
    """``(base, t, pc, self_conjugate)`` of rigid ``y``, by cycling until it
    returns to ``y`` or reaches ``tau(y)``, with ``pc`` the normalized
    product of the cycling conjugators."""
    tau_y = y.tau()
    conjugators = [initial_factor(y)]
    z = cycling(y)
    while z != y and z != tau_y:
        conjugators.append(initial_factor(z))
        z = cycling(z)
        assert len(conjugators) <= 2 * max(1, y.canonical_length) + 1, \
            "cycling orbit of a rigid braid failed to close"
    pc = CanonicalBraid.from_factors(y.n, conjugators)
    return y, len(conjugators), pc, z == tau_y


def orbit_samples(count, seed):
    """Seeded rigid braids on 3 to 7 strands, about a quarter of them tau-fixed.

    Most slide a random signed word to rigidity.  The tau-fixed ones slide a
    product of joins ``s v tau(s)`` of random simples, with a random power of
    delta in front; sliding commutes with tau, so the result is tau-fixed.
    Short words and low strand counts make half-twist powers (``l = 0``)
    and odd infima common.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 7)
        if len(out) % 4 == 3:
            x = CanonicalBraid.delta_power(n, rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4)):
                s = list(range(n))
                rng.shuffle(s)
                x = x * SimpleElement(n, kernel.join(s, kernel.tau(s))).braid()
        else:
            letters = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                       for _ in range(rng.randint(0, 16))]
            x = braid_from_text(n, " ".join(map(str, letters)))
        for _ in range(10):
            x = cyclic_sliding(x)
        if is_rigid(x):
            out.append(x)
    return out


def large_rigid_samples(count, seed):
    """Seeded rigid braids of canonical length > 1 on 6 or 7 strands."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((6, 7))
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1)
                   for _ in range(rng.randint(4, 24))]
        y = braid_from_text(n, " ".join(map(str, letters)))
        for _ in range(20):
            y = cyclic_sliding(y)
        if is_rigid(y) and y.canonical_length > 1:
            out.append(y)
    return out


def _count_joins(monkeypatch):
    """Count ``kernel.join`` calls from here on; the count is ``joins[0]``."""
    joins = [0]
    join = kernel.join

    def counted(a, b):
        joins[0] += 1
        return join(a, b)

    monkeypatch.setattr(kernel, "join", counted)
    return joins


class TestFactors:
    def test_initial_final_fixtures(self):
        x = B(3, "1 1")
        assert initial_factor(x) == SimpleElement.atom(1, 3)
        assert final_factor(x) == SimpleElement.atom(1, 3)
        y = CanonicalBraid.delta_power(3, -1) * B(3, "1 2")
        assert initial_factor(y) == SimpleElement.from_letters(3, (2, 1))
        d5 = CanonicalBraid.delta_power(3, 5)
        assert initial_factor(d5).is_identity()
        assert final_factor(d5).is_delta()


class TestCyclingDecycling:
    def test_cycling_fixtures(self):
        assert cycling(B(3, "1 1")) == B(3, "1 1")
        assert cycling(B(3, "2 1 1")) == CanonicalBraid.delta_power(3, 1)
        assert cycling(CanonicalBraid.delta_power(3, 4)) == \
            CanonicalBraid.delta_power(3, 4)

    @settings(max_examples=80, deadline=None)
    @given(braids(min_n=3, max_n=6, max_len=10))
    def test_cycling_is_conjugation_by_initial_factor(self, x):
        if x.canonical_length == 0:
            assert cycling(x) == x
            return
        g = initial_factor(x).braid()
        assert cycling(x) == g.inverse() * x * g

    @settings(max_examples=80, deadline=None)
    @given(braids(min_n=3, max_n=6, max_len=10))
    def test_decycling_is_conjugation_by_final_factor_inverse(self, x):
        if x.canonical_length == 0:
            assert decycling(x) == x
            return
        g = final_factor(x).braid()
        assert decycling(x) == g * x * g.inverse()

    def test_rigid_rotation_laws(self):
        for y in rigid_samples(40, seed=5):
            l = y.canonical_length
            z = y
            steps = l if y.power % 2 == 0 else 2 * l
            for _ in range(steps):
                z = cycling(z)
            assert z == y
            assert decycling(cycling(y)) == y

    def test_rotation_shape_for_even_power(self):
        for y in rigid_samples(30, seed=6):
            if y.power % 2 or y.canonical_length < 2:
                continue
            rotated = cycling(y)
            assert rotated.factors == y.factors[1:] + (y.factors[0],)


class TestSliding:
    def test_preferred_prefix_fixtures(self):
        assert preferred_prefix(B(3, "2 1 1")) == SimpleElement.from_letters(3, (2, 1))
        assert preferred_prefix(CanonicalBraid.delta_power(3, 2)).is_identity()
        for y in rigid_samples(15, seed=7):
            assert preferred_prefix(y).is_identity()

    def test_rigidity_fixtures(self):
        assert is_rigid(B(3, "1 1"))
        assert not is_rigid(B(3, "2 1 1"))
        assert is_rigid(CanonicalBraid.delta_power(3, 9))

    def test_sliding_fixtures(self):
        assert cyclic_sliding(B(3, "1 1")) == B(3, "1 1")
        assert cyclic_sliding(B(3, "2 1 1")) == CanonicalBraid.delta_power(3, 1)
        assert cyclic_sliding(CanonicalBraid.delta_power(3, -3)) == \
            CanonicalBraid.delta_power(3, -3)

    @settings(max_examples=60, deadline=None)
    @given(braids(min_n=3, max_n=6, max_len=10))
    def test_sliding_is_conjugation_by_preferred_prefix(self, x):
        g = preferred_prefix(x).braid()
        assert cyclic_sliding(x) == g.inverse() * x * g

    def test_slide_to_rigid_fixtures(self):
        cert = slide_to_rigid(B(3, "1 1"))
        assert cert.iterations == 0 and cert.conjugator.is_identity()
        cert = slide_to_rigid(B(3, "2 1 1"))
        assert cert.target == CanonicalBraid.delta_power(3, 1)
        assert cert.conjugator == B(3, "2 1")
        assert cert.iterations == 1

    @settings(max_examples=60, deadline=None)
    @given(braids(min_n=3, max_n=6, max_len=10))
    def test_certificates_reconstruct(self, x):
        try:
            cert = slide_to_rigid(x)
        except SlidingBoundExceeded as exc:
            assert exc.conjugator.inverse() * x * exc.conjugator == exc.last
            return
        assert cert.source.conjugate_by(cert.conjugator) == cert.target
        assert is_rigid(cert.target)
        assert cert.iterations <= max(
            0, x.canonical_length * (x.n * (x.n - 1) // 2 - 1))

    @settings(max_examples=40, deadline=None)
    @given(braids(min_n=3, max_n=5, max_len=8))
    def test_sliding_trajectory_is_eventually_periodic_at_minimal_length(self, x):
        seen = {}
        trajectory = []
        cur = x
        for step in range(400):
            if cur in seen:
                entry = seen[cur]
                cycle = trajectory[entry:]
                lengths = {z.canonical_length for z in cycle}
                assert len(lengths) == 1
                assert lengths.pop() == min(z.canonical_length for z in trajectory)
                return
            seen[cur] = step
            trajectory.append(cur)
            cur = cyclic_sliding(cur)
        raise AssertionError("sliding trajectory did not become periodic")

    def test_sliding_failure_says_whether_it_repeated(self, monkeypatch):
        x = B(4, "1 -3")
        with pytest.raises(SlidingBoundExceeded) as info:
            slide_to_rigid(x)
        exc = info.value
        assert exc.repeated and exc.iterations == 2
        assert str(exc.last) == "D^-1 | 2 1 3 2 1 | 1"
        assert str(exc) == "no rigid conjugate within 2 cyclic slidings"
        # a bound of one slide stops it before anything repeats
        monkeypatch.setattr(conjugacy, "sliding_iteration_bound", lambda x: 1)
        with pytest.raises(SlidingBoundExceeded) as info:
            slide_to_rigid(x)
        assert not info.value.repeated and info.value.iterations == 1

    def test_sliding_conjugator_can_overshoot_a_smaller_witness(self):
        # The accumulated sliding conjugator is a valid positive conjugator to
        # a rigid braid but not always the prefix-smallest one: here a single
        # atom already reaches a rigid conjugate, yet sliding returns a
        # length-four conjugator that the atom does not divide.
        y = B(4, "2 2")
        z = B(4, "1").inverse() * y * B(4, "1")
        witness = B(4, "2")
        assert is_rigid(z.conjugate_by(witness))
        cert = slide_to_rigid(z)
        assert cert.source.conjugate_by(cert.conjugator) == cert.target
        assert is_rigid(cert.target)
        assert cert.conjugator == B(4, "2 3 2 1")
        assert not (cert.conjugator.inverse() * witness).is_positive()


class TestMinimalSimpleElements:
    def test_minimal_simple_elements_fixture_b3(self):
        got = minimal_simple_elements(B(3, "1 1"))
        assert got == frozenset({SimpleElement.atom(1, 3),
                                 SimpleElement.from_letters(3, (2, 1))})

    def test_minimal_simple_elements_fixture_b4(self):
        got = minimal_simple_elements(B(4, "2 2"))
        assert got == frozenset({SimpleElement.atom(2, 4),
                                 SimpleElement.from_letters(4, (1, 2)),
                                 SimpleElement.from_letters(4, (3, 2))})

    @staticmethod
    def _rigid_conjugators(y):
        # ground truth by scanning every nontrivial simple conjugator
        reaching = []
        for p in itertools.permutations(range(y.n)):
            s = SimpleElement(y.n, p)
            if s.is_identity():
                continue
            if is_rigid(y.conjugate_by(s.braid())):
                reaching.append(s)
        return reaching

    @classmethod
    def _exhaustive_minimal_elements(cls, y):
        reaching = cls._rigid_conjugators(y)
        return frozenset(
            s for s in reaching
            if not any(t != s and t.is_prefix_of(s) for t in reaching)
        )

    def test_minimal_elements_match_exhaustive_definition(self):
        for y in [B(3, "1 1"), B(3, "1 2 2 1"), B(4, "2 2"), B(4, "1 3 1 3"),
                  B(4, "1 2 2 3")]:
            if not is_rigid(y) or y.canonical_length <= 1:
                continue
            assert minimal_simple_elements(y) == \
                self._exhaustive_minimal_elements(y)

    def test_minimal_elements_match_exhaustive_on_random_rigids(self):
        count = 0
        for y in rigid_samples(200, seed=12):
            if y.canonical_length <= 1 or y.n > 5:
                continue
            expected = self._exhaustive_minimal_elements(y)
            assert minimal_simple_elements(y) == expected, y
            assert is_uss_minimal(y) == (expected == {
                initial_factor(y), final_factor(y).complement()})
            count += 1
            if count >= 40:
                break
        assert count >= 40

    def test_every_minimal_rigid_conjugator_matches_exhaustive(self):
        # c_y(a) for every atom a, not only the prefix-minimal values
        count = 0
        for y in rigid_samples(200, seed=12):
            if y.canonical_length <= 1 or y.n > 5:
                continue
            reaching = self._rigid_conjugators(y)
            y_inv = y.inverse()
            for i in range(1, y.n):
                a = SimpleElement.atom(i, y.n)
                got = _minimal_rigid_conjugator(y, y_inv, a.perm)
                above = [s for s in reaching if a.is_prefix_of(s)]
                assert got in above, (y, a)
                assert all(got.is_prefix_of(s) for s in above), (y, a)
            count += 1
            if count >= 40:
                break
        assert count >= 40

    def test_minimal_rigid_conjugator_fault_ends_in_one_error(self, monkeypatch):
        # a preferred prefix that never runs out grows t past the simples
        s1 = SimpleElement.atom(1, 3)
        monkeypatch.setattr(conjugacy, "preferred_prefix", lambda x: s1)
        y = B(3, "1 1")
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="not simple"):
            _minimal_rigid_conjugator(y, y.inverse(), s1.perm)
        assert time.perf_counter() - start < 1.0

    def test_minimal_elements_match_walk_on_six_and_seven_strands(self):
        minimal = 0
        samples = large_rigid_samples(120, seed=3)
        for y in samples:
            got = minimal_simple_elements(y)
            assert got == walk_minimal_simple_elements(y), y
            assert is_uss_minimal(y) == walk_is_uss_minimal(y), y
            minimal += is_uss_minimal(y)
        assert 10 <= minimal <= len(samples) - 10

    def test_uss_test_matches_the_reference_on_eight_to_twelve_strands(self):
        # both early stops leave c_y(a) and the verdict unchanged; the
        # settled cut is checked on every atom, also past the first atom
        # whose c_y(a) misses its top
        samples = lab_rigid_samples()
        minimal = 0
        for y in samples:
            y_inv = y.inverse()
            expected = {i: reference_minimal_rigid_conjugator(
                y, y_inv, SimpleElement.atom(i, y.n).perm) for i in range(1, y.n)}
            for i, c in expected.items():
                assert _minimal_rigid_conjugator(
                    y, y_inv, SimpleElement.atom(i, y.n).perm) == c, (y, i)
            verdict = True
            for top in (initial_factor(y), final_factor(y).complement()):
                below = [i for i in expected if top.perm[i - 1] > top.perm[i]]
                verdict = verdict and all(expected[i] == top for i in below)
                for i in below:
                    settled = tuple(j for j in below if j < i and expected[j] == top)
                    if settled:
                        got = _minimal_rigid_conjugator(
                            y, y_inv, SimpleElement.atom(i, y.n).perm, top, settled)
                        assert got == expected[i], (y, i, settled)
            assert is_uss_minimal(y) == verdict, y
            minimal += verdict
        assert len(samples) >= 90 and {y.n for y in samples} == set(range(8, 13))
        assert 20 <= minimal <= len(samples) - 20

    def test_remainder_of_the_identity_makes_no_join(self, monkeypatch):
        y = B(6, "1 2 3 4 5 1 2 3 -4 5 5 2")
        joins = _count_joins(monkeypatch)
        assert _remainder(y.factors, kernel.identity(6)) == kernel.identity(6)
        assert joins == [0]

    def test_uss_test_makes_fewer_joins_than_the_reference(self, monkeypatch):
        # y = D^0 | 1 3 | 3 2 4 | 2 1 3 has a minimal ultra summit set, and
        # both of its tops have two atoms
        y = B(5, "3 3 4 4 1 -4 2 2 -1 3 1 1")
        assert is_rigid(y)
        for top in (initial_factor(y), final_factor(y).complement()):
            assert sum(top.perm[i - 1] > top.perm[i] for i in range(1, 5)) == 2
        joins = _count_joins(monkeypatch)
        assert reference_is_uss_minimal(y)
        reference = joins[0]
        joins[0] = 0
        assert is_uss_minimal(y)
        assert 0 < joins[0] < reference

    def test_minimal_rigid_conjugator_is_not_the_inf_shortcut(self):
        # Appending initial factors of y^t while inf drops reaches delta
        # here; the smallest rigid conjugator above s2 is s2 s1.
        y = B(3, "1 1")
        got = _minimal_rigid_conjugator(y, y.inverse(),
                                        SimpleElement.atom(2, 3).perm)
        assert got == SimpleElement.from_letters(3, (2, 1))

    def test_uss_minimal_fixtures(self):
        assert is_uss_minimal(B(3, "1 1"))
        assert is_uss_minimal(B(3, "1 1 1 1"))
        assert is_uss_minimal(B(3, "1 2 2 1"))
        assert not is_uss_minimal(B(4, "2 2"))
        assert not is_uss_minimal(B(4, "1 3 1 3"))
        assert not is_uss_minimal(B(3, "1"))  # canonical length one
        assert not is_uss_minimal(CanonicalBraid.delta_power(3, 2))

    def test_minimal_simple_elements_rejects_short_braids(self):
        with pytest.raises(ValueError):
            minimal_simple_elements(B(3, "1"))


class TestOrbits:
    def test_orbit_fixture_single_step(self):
        orbit = cycling_orbit(B(3, "1 1"))
        assert orbit.t == 1 and not orbit.self_conjugate
        assert orbit.pc == B(3, "1")
        assert render_orbit(orbit) == "t=1, pc=D^0 | 1, self=false"

    def test_orbit_fixture_tau_free(self):
        orbit = cycling_orbit(B(3, "1 2 2 1"))
        assert orbit.t == 1 and orbit.self_conjugate
        assert orbit.pc == B(3, "1 2")

    def test_orbit_fixture_tau_fixed(self):
        y = B(4, "2 2")
        orbit = cycling_orbit(y)
        assert orbit.self_conjugate and y.tau() == y

    def test_orbit_conjugation_laws(self):
        for y in rigid_samples(40, seed=9):
            orbit = cycling_orbit(y)
            assert 0 < orbit.t <= max(1, y.canonical_length)
            if not orbit.self_conjugate or y.tau() == y:
                assert orbit.pc * y == y * orbit.pc
            else:
                assert y.conjugate_by(orbit.pc) == y.tau()

    def test_orbit_rejects_non_rigid_input(self):
        with pytest.raises(ValueError, match="rigid"):
            cycling_orbit(B(3, "2 1 1"))

    def test_orbit_by_rotation_matches_the_cycling_loop(self):
        cases = {"l = 0": 0, "odd inf": 0, "tau-fixed": 0,
                 "self-conjugate, not tau-fixed": 0, "0 < t < l": 0}
        samples = orbit_samples(1000, seed=17)
        for y in samples:
            orbit = cycling_orbit(y)
            assert (orbit.base, orbit.t, orbit.pc, orbit.self_conjugate) == \
                loop_cycling_orbit(y), y
            cases["l = 0"] += y.canonical_length == 0
            cases["odd inf"] += y.power % 2
            cases["tau-fixed"] += y.canonical_length > 0 and y.tau() == y
            cases["self-conjugate, not tau-fixed"] += \
                orbit.self_conjugate and y.tau() != y
            cases["0 < t < l"] += orbit.t < y.canonical_length
        assert len(samples) >= 1000
        assert all(cases.values()), cases


class TestCentralizer:
    def test_two_orbit_fixture(self):
        y = B(3, "1 1 1 1")
        basis = centralizer_basis(y, cycling_orbit(y))
        assert basis.case is CentralizerCase.TWO_ORBITS
        assert (basis.c, basis.d) == (0, 4)
        assert basis.v == CanonicalBraid.delta_power(3, 2)
        assert basis.w == B(3, "1")

    def test_tau_free_fixture(self):
        y = B(3, "1 2 2 1")
        basis = centralizer_basis(y, cycling_orbit(y))
        assert basis.case is CentralizerCase.ONE_ORBIT_TAU_FREE
        assert (basis.c, basis.d) == (1, 2)
        assert basis.w == B(3, "1 2") * CanonicalBraid.delta_power(3, -1)

    def test_tau_fixed_case(self):
        # tau-invariant rigid braid with a full orbit: delta^2-central shift
        y = B(4, "2 2")  # tau(y) = y; USS not minimal but decomposition laws hold
        orbit = cycling_orbit(y)
        basis = centralizer_basis(y, orbit)
        assert basis.case is CentralizerCase.ONE_ORBIT_TAU_FIXED
        assert basis.v == CanonicalBraid.delta_power(4, 1)
        assert (basis.v ** basis.c) * (basis.w ** basis.d) == y

    def test_reconstruction_and_commutation(self):
        for y in rigid_samples(40, seed=10):
            if y.canonical_length <= 1 or not is_uss_minimal(y):
                continue
            basis = centralizer_basis(y, cycling_orbit(y))
            assert basis.v * basis.w == basis.w * basis.v
            assert (basis.v ** basis.c) * (basis.w ** basis.d) == y
            assert basis.v * y == y * basis.v
            assert basis.w * y == y * basis.w


def test_certificate_rendering():
    cert = slide_to_rigid(B(3, "2 1 1"))
    assert render_certificate(cert) == (
        "target=D^1\nconjugator=D^0 | 2 1\niterations=1"
    )
