"""Braid arithmetic: simple elements, words, normal forms, group laws."""

import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from braidkit import (
    BraidWord,
    CanonicalBraid,
    NonGeneric,
    SimpleElement,
    braid_from_text,
    extract_root,
    normalize,
    parse_nf,
    render_nf,
)
from braidkit import cycling, cyclic_sliding, decycling, kernel, lab

from braid_strategies import braid_pairs, braid_triples, braid_words, braids


def B(n, text):
    return braid_from_text(n, text)


class TestSimpleElements:
    def test_atom_fixtures(self):
        assert SimpleElement.atom(1, 2).is_delta()
        assert SimpleElement.atom(1, 3).perm == (1, 0, 2)
        assert not SimpleElement.atom(1, 3).is_delta()
        with pytest.raises(ValueError):
            SimpleElement.atom(3, 3)

    def test_delta_fixtures(self):
        assert SimpleElement.delta(2) == SimpleElement.atom(1, 2)
        assert SimpleElement.delta(3).perm == (2, 1, 0)
        assert SimpleElement.delta(4).perm == (3, 2, 1, 0)
        assert B(3, "1 2 1") == CanonicalBraid.delta_power(3, 1)

    def test_delta_recursion(self):
        # delta on n strands = delta on the first n-1 strands followed by the
        # descending run of generators n-1 .. 1
        for n in (3, 4, 5, 6):
            word = []
            for m in range(2, n + 1):
                word.extend(range(m - 1, 0, -1))
            assert normalize(BraidWord(n, tuple(word))) == \
                CanonicalBraid.delta_power(n, 1)

    def test_tau_fixtures(self):
        assert SimpleElement.atom(1, 4).tau() == SimpleElement.atom(3, 4)
        assert SimpleElement.delta(4).tau() == SimpleElement.delta(4)

    def test_complement_fixtures(self):
        assert SimpleElement.identity(3).complement().is_delta()
        assert SimpleElement.delta(3).complement().is_identity()
        assert SimpleElement.atom(1, 3).complement() == \
            SimpleElement.from_letters(3, (2, 1))

    def test_complement_laws_and_involution(self):
        import itertools
        for n in (2, 3, 4):
            for p in itertools.permutations(range(n)):
                s = SimpleElement(n, p)
                assert kernel.compose(s.perm, s.complement().perm) == \
                    kernel.delta(n)
                assert s.complement().complement() == s.tau()
                assert s.tau().tau() == s

    def test_meet_fixtures(self):
        s1, s2 = SimpleElement.atom(1, 3), SimpleElement.atom(2, 3)
        assert s1.meet(s2).is_identity()
        assert s1.meet(s1) == s1
        s13 = SimpleElement.from_letters(4, (1, 3))
        s32 = SimpleElement.from_letters(4, (3, 2))
        assert s13.meet(s32) == SimpleElement.atom(3, 4)

    def test_prefix_fixtures(self):
        one = SimpleElement.identity(3)
        top = SimpleElement.delta(3)
        s12 = SimpleElement.from_letters(3, (1, 2))
        assert one.is_prefix_of(s12)
        assert s12.is_prefix_of(top)
        assert not SimpleElement.atom(2, 3).is_prefix_of(s12)

    def test_meet_algebraic_laws(self):
        from braidkit.lab import SplitMix64
        rng = SplitMix64(17)
        for n in (3, 4, 5):
            one = SimpleElement.identity(n)
            top = SimpleElement.delta(n)
            for _ in range(200):
                a = list(range(n))
                b = list(range(n))
                rng.shuffle(a)
                rng.shuffle(b)
                s, t = SimpleElement(n, tuple(a)), SimpleElement(n, tuple(b))
                assert s.meet(t) == t.meet(s)
                assert s.meet(s) == s
                assert s.meet(top) == s
                assert s.meet(one) == one
                m = s.meet(t)
                assert m.is_prefix_of(s) and m.is_prefix_of(t)

    def test_mixed_strand_counts_rejected(self):
        with pytest.raises(ValueError):
            SimpleElement.atom(1, 3).meet(SimpleElement.atom(1, 4))

    def test_coxeter_length_bounds(self):
        assert SimpleElement.identity(5).length == 0
        assert SimpleElement.delta(5).length == 10

    def test_canonical_word_greedy(self):
        s = SimpleElement.from_letters(3, (2, 1))
        assert s.canonical_letters() == (2, 1)
        assert str(SimpleElement.identity(4)) == "1"

    def test_from_letters_rejects_non_simple(self):
        with pytest.raises(ValueError):
            SimpleElement.from_letters(3, (1, 1))
        with pytest.raises(ValueError, match=r"letters \(2, 1, 2, 1\) do not"):
            SimpleElement.from_letters(3, (i for i in (2, 1, 2, 1)))


class TestNormalForms:
    def test_normalize_fixtures(self):
        assert B(2, "1 1") == CanonicalBraid.delta_power(2, 2)
        assert B(3, "1 2 1") == CanonicalBraid.delta_power(3, 1)
        x = B(3, "2 1 1")
        assert x.power == 0
        assert [f.canonical_letters() for f in x.simple_factors()] == [(2, 1), (1,)]
        y = B(3, "-1")
        assert y.power == -1
        assert [f.canonical_letters() for f in y.simple_factors()] == [(1, 2)]

    def test_non_normal_factors_rejected(self):
        # s1 followed by s2 s1 is not left weighted; a half twist or a
        # trivial factor never appears in the body; one strand is no group
        for n, factors in ((3, ((1, 0, 2), (1, 2, 0))), (3, ((2, 1, 0),)),
                           (3, ((0, 1, 2),)), (1, ())):
            with pytest.raises(ValueError):
                CanonicalBraid(n, 0, factors)

    def test_constructors_store_tuples(self):
        # lists from a caller must give the same, hashable values as tuples
        assert SimpleElement(3, [1, 0, 2]) == SimpleElement.atom(1, 3)
        assert SimpleElement(3, [0, 1, 2]).is_identity()
        x = CanonicalBraid(3, 0, [[1, 2, 0], [1, 0, 2]])
        assert x == B(3, "2 1 1") and hash(x) == hash(B(3, "2 1 1"))
        assert extract_root(x, 3) == NonGeneric(
            "power of Delta", CanonicalBraid.delta_power(3, 1), B(3, "2 1"))

    def test_from_factors_rejects_foreign_strand_counts(self):
        with pytest.raises(ValueError):
            CanonicalBraid.from_factors(4, [SimpleElement.atom(1, 3)])
        with pytest.raises(ValueError):
            CanonicalBraid.from_factors(1, [])

    @pytest.mark.parametrize("spec, power, length", [
        # 552 positive letters; 10 s with the quadratic step-back sweep
        (lab.SampleSpec(n=12, r=16, model=lab.POSITIVE_SIMPLE_PRODUCT,
                        seed=80, count=1), 2, 14),
        # 2,000 signed letters; 829 half twists leave the body for the power
        (lab.SampleSpec(n=6, r=2000, model=lab.SIGNED_ARTIN_WORD,
                        seed=80, count=1), -199, 390),
    ])
    def test_long_words_normalize_in_bounded_time(self, spec, power, length):
        word = next(lab.sample(spec))
        start = time.perf_counter()
        x = normalize(word)
        assert time.perf_counter() - start < 1.0
        assert (x.power, x.canonical_length) == (power, length)
        assert x.exponent_sum() == sum(1 if e > 0 else -1 for e in word.letters)

    def test_braid_relation_fixture(self):
        assert B(3, "1 2 1") == B(3, "2 1 2")

    @settings(max_examples=60, deadline=None)
    @given(braid_words(min_n=3, max_n=6, max_len=8), braid_words(min_n=3, max_n=6, max_len=8))
    def test_relation_invariance(self, u, v):
        # insert both defining relations between two random words
        n = u.n
        if v.n != n:
            v = BraidWord(n, tuple(e for e in v.letters if abs(e) < n))
        i = 1
        lhs = BraidWord(n, u.letters + (i, i + 1, i) + v.letters)
        rhs = BraidWord(n, u.letters + (i + 1, i, i + 1) + v.letters)
        assert normalize(lhs) == normalize(rhs)
        if n >= 4:
            lhs = BraidWord(n, u.letters + (1, 3) + v.letters)
            rhs = BraidWord(n, u.letters + (3, 1) + v.letters)
            assert normalize(lhs) == normalize(rhs)

    @settings(max_examples=80, deadline=None)
    @given(braids())
    def test_inf_sup_sandwich(self, x):
        lower = CanonicalBraid.delta_power(x.n, -x.inf) * x
        upper = x.inverse() * CanonicalBraid.delta_power(x.n, x.sup)
        assert lower.is_positive()
        assert upper.is_positive()

    @settings(max_examples=80, deadline=None)
    @given(braids())
    def test_tau_braid_is_normal_factorwise(self, x):
        t = x.tau()
        assert t.power == x.power
        assert t.canonical_length == x.canonical_length
        assert t.tau() == x
        # agrees with conjugation by the half twist
        d = CanonicalBraid.delta_power(x.n, 1)
        assert t == d.inverse() * x * d


class TestKernelOutputIsNormal:
    """Braids built from kernel output skip the constructor's check, so the
    check is made here: every producing operation returns a normal form that
    the public constructor accepts and that equals the result."""

    @staticmethod
    def assert_normal(z):
        assert kernel.is_normal(z.factors, z.n)
        assert CanonicalBraid(z.n, z.power, z.factors) == z

    @settings(max_examples=60, deadline=None)
    @given(braid_pairs(), st.integers(-3, 3))
    def test_producing_operations_return_normal_forms(self, pair, exp):
        x, y = pair
        simples = (*x.simple_factors(), SimpleElement.delta(x.n),
                   *y.simple_factors(), SimpleElement.identity(x.n))
        produced = [x, y, x * y, x.inverse(), x ** exp, x.tau(), cycling(x),
                    decycling(x), cyclic_sliding(x),
                    CanonicalBraid.from_factors(x.n, simples),
                    *(s.braid() for s in simples)]
        for z in produced:
            self.assert_normal(z)


class TestGroupLaws:
    def test_power_fixtures(self):
        x = B(3, "1")
        p = x ** 4
        assert p.power == 0 and p.canonical_length == 4
        assert x ** 0 == CanonicalBraid.identity(3)
        assert B(3, "1") * B(3, "2 1") == CanonicalBraid.delta_power(3, 1)
        d = CanonicalBraid.delta_power(3, 1)
        assert d * d == CanonicalBraid.delta_power(3, 2)

    def test_power_makes_one_product_per_bit_below_the_top(self, monkeypatch):
        # square-and-multiply: floor(log2 k) squarings and popcount(k) - 1
        # products by the base, none by the identity
        x = B(4, "1 -2 3 3 -1 2")
        products = [x]
        for _ in range(16):
            products.append(products[-1] * x)
        calls = []
        normalize_factors = kernel.normalize_factors

        def counting(factors, n):
            calls.append(n)
            return normalize_factors(factors, n)

        monkeypatch.setattr(kernel, "normalize_factors", counting)
        for k in range(1, 18):
            calls.clear()
            assert x ** k == products[k - 1]
            assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1

    @settings(max_examples=60, deadline=None)
    @given(braid_triples())
    def test_associativity(self, triple):
        x, y, z = triple
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=80, deadline=None)
    @given(braids())
    def test_inverse_law(self, x):
        assert (x * x.inverse()).is_identity()
        assert (x.inverse() * x).is_identity()
        assert x.inverse().inverse() == x

    @settings(max_examples=40, deadline=None)
    @given(braids(max_len=6))
    def test_power_laws(self, x):
        assert x ** 3 == x * x * x
        assert x ** -2 == (x.inverse()) ** 2
        assert (x ** 2) * (x ** -2) == CanonicalBraid.identity(x.n)

    @settings(max_examples=60, deadline=None)
    @given(braid_pairs())
    def test_exponent_sum_is_a_homomorphism(self, pair):
        x, y = pair
        assert (x * y).exponent_sum() == x.exponent_sum() + y.exponent_sum()

    def test_exponent_sum_fixtures(self):
        assert CanonicalBraid.identity(3).exponent_sum() == 0
        assert CanonicalBraid.delta_power(3, 2).exponent_sum() == 6
        assert B(3, "1 -2").exponent_sum() == 0


class TestTextFormats:
    def test_render_fixture(self):
        assert render_nf(B(3, "2 1 1")) == "D^0 | 2 1 | 1"
        assert render_nf(CanonicalBraid.delta_power(3, -2)) == "D^-2"

    @settings(max_examples=80, deadline=None)
    @given(braids())
    def test_render_parse_roundtrip(self, x):
        assert parse_nf(x.n, render_nf(x)) == x

    def test_word_roundtrip(self):
        w = BraidWord.parse(4, "1 -3 2 -1")
        assert w.letters == (1, -3, 2, -1)
        assert BraidWord.parse(4, w.text()) == w

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            BraidWord.parse(3, "1 x")
        with pytest.raises(ValueError):
            BraidWord.parse(3, "3")
        with pytest.raises(ValueError):
            BraidWord.parse(3, "0")
        with pytest.raises(ValueError):
            parse_nf(3, "2 1 | 1")
