"""Root extraction: fixtures, soundness, planted-root completeness."""

import time

import pytest
from hypothesis import given, settings

from braidkit import (
    BraidWord,
    CanonicalBraid,
    NonGeneric,
    NoRoot,
    Root,
    SimpleElement,
    SlidingBoundExceeded,
    braid_from_text,
    extract_root,
    kernel,
    normalize,
    quick_no_root,
    slide_to_rigid,
    verify_root,
)
from braidkit.conjugacy import sliding_iteration_bound
from braidkit.lab import POSITIVE_SIMPLE_PRODUCT, SIGNED_ARTIN_WORD, SampleSpec, sample

from braid_strategies import braids


def B(n, text):
    return braid_from_text(n, text)


class TestQuickNoRoot:
    def test_fixtures(self):
        assert quick_no_root(CanonicalBraid.delta_power(3, 1), 2)
        assert not quick_no_root(B(3, "1 1 1 1"), 2)
        assert not quick_no_root(CanonicalBraid.identity(3), 5)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            quick_no_root(B(3, "1"), 1)


class TestVerifyRoot:
    def test_fixtures(self):
        assert verify_root(B(3, "1 1 1 1"), 2, B(3, "1 1"))
        assert not verify_root(B(3, "1 1 1 1"), 2, B(3, "2 2"))
        assert verify_root(CanonicalBraid.identity(3), 3,
                           CanonicalBraid.identity(3))
        # exponent sums agree; refuted by inf (2 * 1 > 0), then by sup (3 > 2 * 1)
        assert not verify_root(B(3, "1 1 1 1 1 1"), 2, B(3, "1 2 1"))
        assert not verify_root(B(3, "2 1 -2 1 1 -2"), 2, B(3, "1"))

    def test_summit_brackets_refute_without_powering(self):
        # s1 s3^-1 slides to a repeat at D^-1 | 2 1 3 2 1 | 1, so a k-th
        # power has inf < 0 and sup > 0, and the identity is none of them
        identity, a = CanonicalBraid.identity(4), B(4, "1 -3")
        started = time.perf_counter()
        assert not verify_root(identity, 1000, a)
        assert not verify_root(identity, 10 ** 8, a)
        assert time.perf_counter() - started < 0.5

    def test_summit_brackets_keep_true_roots(self):
        # true roots that slide to no rigid braid pass the brackets
        repeats = 0
        for word in sample(SampleSpec(5, 8, SIGNED_ARTIN_WORD, 13, 80)):
            a = normalize(word)
            try:
                slide_to_rigid(a)
                continue
            except SlidingBoundExceeded as exc:
                repeats += exc.repeated
            for k in (2, 3, 5):
                assert verify_root(a ** k, k, a), (a, k)
        assert repeats >= 20


class TestExtractRootFixtures:
    def test_square_root_of_atom_power(self):
        out = extract_root(B(3, "1 1 1 1"), 2)
        assert isinstance(out, Root) and out.root == B(3, "1 1")

    def test_no_cube_root_of_atom_fourth_power(self):
        assert isinstance(extract_root(B(3, "1 1 1 1"), 3), NoRoot)

    def test_tau_free_square(self):
        x = B(3, "1 2 2 1") ** 2
        out = extract_root(x, 2)
        assert isinstance(out, Root) and out.root == B(3, "1 2 2 1")

    def test_tau_free_odd_exponent_has_no_square_root(self):
        assert isinstance(extract_root(B(3, "1 2 2 1"), 2), NoRoot)

    def test_half_twist_square(self):
        out = extract_root(CanonicalBraid.delta_power(3, 2), 2)
        assert isinstance(out, Root)
        assert out.root == CanonicalBraid.delta_power(3, 1)

    def test_half_twist_square_cube_is_non_generic(self):
        # Delta^2 = (s1 s2)^3 has a genuine cube root, but the pure-power
        # branch only divides the exponent; it must decline, not deny.
        out = extract_root(CanonicalBraid.delta_power(3, 2), 3)
        assert isinstance(out, NonGeneric)
        assert out.reason == "power of Delta"
        assert verify_root(CanonicalBraid.delta_power(3, 2), 3, B(3, "1 2"))

    def test_identity_root(self):
        out = extract_root(CanonicalBraid.identity(4), 9)
        assert isinstance(out, Root) and out.root.is_identity()

    def test_negative_half_twist_power(self):
        out = extract_root(CanonicalBraid.delta_power(3, -4), 2)
        assert isinstance(out, Root)
        assert out.root == CanonicalBraid.delta_power(3, -2)

    def test_two_strand_group_is_fully_decided(self):
        # B_2 is infinite cyclic, so every query resolves through the
        # half-twist power branch or the exponent test
        out = extract_root(B(2, "1 1 1 1"), 2)
        assert isinstance(out, Root) and out.root == B(2, "1 1")
        assert isinstance(extract_root(B(2, "1 1 1"), 2), NoRoot)
        out = extract_root(B(2, "-1 -1 -1"), 3)
        assert isinstance(out, Root) and out.root == B(2, "-1")

    def test_negative_exponent_centralizer_cases(self):
        # rigid representatives with negative infimum: the exponent c of the
        # decomposition goes negative in both orbit shapes
        for n, word in ((3, "2 -2 -2 -2 1 -2 -2"), (3, "-1 2 -1 -1 -2 -2")):
            a = B(n, word)
            x = a ** 2
            out = extract_root(x, 2)
            assert isinstance(out, Root)
            assert out.root ** 2 == x

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            extract_root(B(3, "1"), 1)

    @pytest.mark.parametrize("word", ["-6 -2 4 5 4 4 6 -2", "-5 3 2 5 -6 3 2 -6"])
    def test_cycling_slide_trajectory_stops_at_first_repeat(self, word):
        # fifth powers from the criterion-5 round trip whose slides enter a
        # cycle at once; running out the bound of 340 slides took over a second
        x = B(7, word) ** 5
        started = time.perf_counter()
        out = extract_root(x, 5)
        assert time.perf_counter() - started < 0.1
        assert isinstance(out, NonGeneric)
        assert out.reason == "not rigid within bound"
        with pytest.raises(SlidingBoundExceeded) as info:
            slide_to_rigid(x)
        assert info.value.iterations < sliding_iteration_bound(x)

    def test_kernel_output_is_not_rechecked(self, monkeypatch):
        # only braids built from outside factors run the normal-form check;
        # inside the pipeline that is identity() and delta_power(), whose
        # bodies are empty
        sizes = []
        is_normal = kernel.is_normal

        def counting(factors, n):
            sizes.append(len(factors))
            return is_normal(factors, n)

        monkeypatch.setattr(kernel, "is_normal", counting)
        a = normalize(BraidWord.parse(6, "1 -5 -3 4 1 3 5 1 -2 4"))
        assert extract_root(a * a, 2) == Root(a)
        assert sizes and not any(sizes)

    def test_rigid_length_one_is_uss_not_minimal(self):
        # D^2 s1 is rigid of canonical length one and its exponent sum 7
        # passes the abelianization test, so the USS test itself says no
        out = extract_root(CanonicalBraid.delta_power(3, 2) * B(3, "1"), 7)
        assert isinstance(out, NonGeneric)
        assert out.reason == "USS not minimal"

    def test_non_generic_carries_resume_state(self):
        out = extract_root(CanonicalBraid.delta_power(3, 2), 3)
        assert isinstance(out, NonGeneric)
        assert out.conjugator.inverse() * CanonicalBraid.delta_power(3, 2) \
            * out.conjugator == out.reduced


def _all_b3_braids(max_len, p_lo, p_hi):
    """Every left normal form in B_3 with the given bounds, by enumeration."""
    from braidkit import kernel

    simples = [(1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0)]
    sequences = [()]
    frontier = [(s,) for s in simples]
    while frontier:
        sequences.extend(frontier)
        frontier = [
            seq + (t,) for seq in frontier for t in simples
            if len(seq) < max_len and kernel.is_left_weighted(seq[-1], t)
        ]
    sequences = [seq for seq in sequences if len(seq) <= max_len]
    return [CanonicalBraid(3, p, seq)
            for p in range(p_lo, p_hi + 1) for seq in sequences]


class TestNoRootSoundnessOracle:
    """Certified negatives checked against exhaustive root search.

    The one outcome that powering cannot confirm is NoRoot; here every
    certified negative on small three-strand inputs is replayed against a
    brute-force search over all candidate roots of canonical length at most
    five and half-twist power within [-3, 3], an ample range for the inputs
    used (any root of these would have to fit).
    """

    def test_no_root_verdicts_survive_exhaustive_search(self):
        from braidkit import BraidWord, normalize
        from braidkit.lab import SplitMix64

        candidates = _all_b3_braids(max_len=5, p_lo=-3, p_hi=3)
        # the search space is not vacuous: it knows the cube root of the
        # central half-twist square
        assert any(a ** 3 == CanonicalBraid.delta_power(3, 2)
                   for a in candidates)
        rng = SplitMix64(99)
        no_root_checked = 0
        for _ in range(150):
            letters = tuple((-1 if rng.below(2) else 1) * (rng.below(2) + 1)
                            for _ in range(rng.below(6) + 1))
            x = normalize(BraidWord(3, letters))
            if x.canonical_length > 4 or abs(x.power) > 2:
                continue
            for k in (2, 3):
                out = extract_root(x, k)
                if isinstance(out, NoRoot):
                    no_root_checked += 1
                    assert not any(a ** k == x for a in candidates), (letters, k)
                elif isinstance(out, Root):
                    assert out.root ** k == x
        assert no_root_checked >= 20


class TestRootProperties:
    @settings(max_examples=40, deadline=None)
    @given(braids(min_n=3, max_n=5, max_len=6))
    def test_planted_roots_are_never_denied(self, a):
        for k in (2, 3):
            x = a ** k
            out = extract_root(x, k)
            assert not isinstance(out, NoRoot)
            if isinstance(out, Root):
                assert out.root ** k == x
                assert out.root.exponent_sum() * k == x.exponent_sum()

    @settings(max_examples=40, deadline=None)
    @given(braids(min_n=3, max_n=5, max_len=8))
    def test_extraction_is_deterministic(self, x):
        assert extract_root(x, 2) == extract_root(x, 2)

    @settings(max_examples=30, deadline=None)
    @given(braids(min_n=3, max_n=5, max_len=5))
    def test_found_root_is_conjugate_to_planted_root(self, a):
        k = 2
        x = a ** k
        out = extract_root(x, k)
        if not isinstance(out, Root):
            return
        r = out.root
        assert r.exponent_sum() == a.exponent_sum()
        try:
            ra = slide_to_rigid(a).target
            rr = slide_to_rigid(r).target
        except SlidingBoundExceeded:
            return
        assert ra.canonical_length == rr.canonical_length
        assert ra.inf == rr.inf


def test_planted_square_roots_on_ten_strands_take_polynomial_time():
    # An exhaustive search of the minimal simple elements took 1 to 9 s per
    # query on these inputs; the join closure takes tens of milliseconds.
    cases = []
    for j in range(3):
        spec = SampleSpec(n=10, r=1, model=POSITIVE_SIMPLE_PRODUCT,
                          seed=1000 + 977 * j, count=16)
        a = CanonicalBraid.from_factors(
            10, [SimpleElement.from_letters(10, w.letters) for w in sample(spec)])
        cases.append((a, a * a))
    started = time.perf_counter()
    outcomes = [extract_root(x, 2) for _, x in cases]
    assert time.perf_counter() - started < 2.0
    assert outcomes == [Root(a) for a, _ in cases]
