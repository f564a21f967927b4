"""Sampling determinism, brute-force oracles, experiments, serialization."""

import json

import pytest

from braidkit import NoRoot, RootExtractionError, SimpleElement, lab, normalize
from braidkit.cli import main
from braidkit.lab import (
    BENCH_FIELDS,
    EXPERIMENT_FIELDS,
    POSITIVE_SIMPLE_PRODUCT,
    SIGNED_ARTIN_WORD,
    SampleSpec,
    SplitMix64,
    benchmark_root,
    brute_meet,
    brute_prefix,
    rows_to_csv,
    rows_to_json,
    run_genericity_experiment,
    run_root_roundtrip,
    sample,
)

from braid_strategies import run_optimized


class TestRng:
    def test_splitmix_reference_values(self):
        # first outputs for seed 1234567, from the standard splitmix64
        rng = SplitMix64(1234567)
        assert rng.next64() == 6457827717110365317
        assert rng.next64() == 3203168211198807973

    def test_below_is_in_range(self):
        rng = SplitMix64(9)
        for bound in (1, 2, 7, 1000):
            for _ in range(50):
                assert 0 <= rng.below(bound) < bound


class TestSampling:
    def test_identical_specs_give_identical_streams(self):
        spec = SampleSpec(n=4, r=9, model=SIGNED_ARTIN_WORD, seed=77, count=25)
        first = [w.letters for w in sample(spec)]
        second = [w.letters for w in sample(spec)]
        assert first == second

    def test_frozen_stream_golden(self):
        spec = SampleSpec(n=3, r=4, model=SIGNED_ARTIN_WORD, seed=5, count=3)
        assert [w.text() for w in sample(spec)] == \
            ["-1 -2 1 1", "-1 -2 -2 -1", "-1 1 -2 2"]

    def test_signed_letters_respect_strand_count(self):
        spec = SampleSpec(n=3, r=100, model=SIGNED_ARTIN_WORD, seed=1, count=5)
        for word in sample(spec):
            assert all(1 <= abs(e) <= 2 for e in word.letters)

    def test_positive_model_on_two_strands_is_forced(self):
        spec = SampleSpec(n=2, r=5, model=POSITIVE_SIMPLE_PRODUCT, seed=3, count=4)
        for word in sample(spec):
            assert word.letters == (1, 1, 1, 1, 1)

    def test_positive_model_factors_are_simple(self):
        spec = SampleSpec(n=5, r=6, model=POSITIVE_SIMPLE_PRODUCT, seed=11, count=10)
        for word in sample(spec):
            braid = normalize(word)
            assert braid.is_positive()
            assert braid.sup <= 6

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(n=3, r=1, model="bogus", seed=0, count=1)
        with pytest.raises(ValueError):
            SampleSpec(n=3, r=0, model=SIGNED_ARTIN_WORD, seed=0, count=1)

    @pytest.mark.parametrize("field, value", [
        ("r", 2.5), ("seed", 1.5), ("count", True), ("n", 4.0)])
    def test_spec_rejects_non_int_fields(self, field, value):
        fields = dict(n=4, r=2, model=SIGNED_ARTIN_WORD, seed=1, count=3)
        fields[field] = value
        with pytest.raises(ValueError, match="is not an int"):
            SampleSpec(**fields)


class TestBruteOracles:
    def test_brute_meet_fixtures(self):
        s1, s2 = SimpleElement.atom(1, 3), SimpleElement.atom(2, 3)
        assert brute_meet(s1, s2).is_identity()
        top = SimpleElement.delta(4)
        t = SimpleElement.from_letters(4, (2, 1, 3))
        assert brute_meet(top, t) == t
        assert brute_prefix(SimpleElement.identity(3), s2)
        assert brute_prefix(s2, SimpleElement.delta(3))
        assert not brute_prefix(s2, SimpleElement.from_letters(3, (1, 2)))

    def test_oracle_agrees_with_kernel_on_random_pairs(self):
        for n in (3, 4, 5):
            rng = SplitMix64(n)
            for _ in range(300):
                a = list(range(n))
                b = list(range(n))
                rng.shuffle(a)
                rng.shuffle(b)
                s, t = SimpleElement(n, tuple(a)), SimpleElement(n, tuple(b))
                assert brute_meet(s, t) == s.meet(t)
                assert brute_prefix(s, t) == s.is_prefix_of(t)

    def test_brute_meet_raises_without_a_unique_top(self):
        # A doctored relation that lists only 1, s1 and s2 as prefixes of
        # delta: neither atom is a prefix of the other, so the common
        # prefixes of delta and delta have no top.  The check raises rather
        # than asserts, so it also holds under python -O.
        out = run_optimized("""
            from braidkit import SimpleElement, kernel, lab
            n = 3
            perms = [kernel.identity(n), SimpleElement.atom(1, n).perm,
                     SimpleElement.atom(2, n).perm, kernel.delta(n)]
            prefixes_of = [{0}, {0, 1}, {0, 2}, {0, 1, 2}]
            index = {p: i for i, p in enumerate(perms)}
            lab._brute_tables = lambda n: (perms, index, None, prefixes_of)
            top = SimpleElement.delta(n)
            try:
                lab.brute_meet(top, top)
            except RuntimeError as exc:
                print(exc)
            """)
        assert "unique meet" in out, out

    def test_brute_oracles_refuse_large_groups(self):
        with pytest.raises(ValueError):
            brute_prefix(SimpleElement.identity(7), SimpleElement.delta(7))


class TestExperiment:
    def test_two_strand_degenerate_group(self):
        spec = SampleSpec(n=2, r=6, model=POSITIVE_SIMPLE_PRODUCT, seed=0, count=10)
        rows = run_genericity_experiment([spec])
        assert rows[0].fraction_uss_minimal == 0.0
        assert rows[0].fraction_rigid_within_bound == 1.0

    def test_rows_sorted_and_reproducible(self):
        specs = [SampleSpec(n=3, r=r, model=SIGNED_ARTIN_WORD, seed=4, count=30)
                 for r in (8, 2, 4)]
        rows = run_genericity_experiment(specs)
        assert [row.r for row in rows] == [2, 4, 8]
        again = run_genericity_experiment(specs)
        assert rows == again
        for row in rows:
            assert 0.0 <= row.fraction_rigid_within_bound <= 1.0
            assert 0.0 <= row.fraction_uss_minimal <= 1.0
            assert row.samples == 30


class TestRoundtrip:
    def test_planted_roots_summary(self):
        summary = run_root_roundtrip(n=3, l=4, k=2, count=40, seed=21)
        assert summary.no_root == 0
        assert summary.verify_failures == 0
        assert summary.roots + summary.non_generic == 40
        assert summary.roots > 0


class TestBenchmark:
    def test_bench_cells_and_ratios(self):
        cells = benchmark_root(ns=[3], ls=[2, 4], k=2, count=4, seed=2)
        by_l = {cell.l: cell for cell in cells}
        assert set(by_l) == {2, 4}
        for cell in cells:
            assert cell.generic + cell.non_generic == cell.samples == 4
            if cell.generic == 0:
                assert cell.mean_seconds is None
        if by_l[2].mean_seconds and by_l[4].mean_seconds:
            assert by_l[4].ratio_to_half_l == pytest.approx(
                by_l[4].mean_seconds / by_l[2].mean_seconds)

    def test_no_root_on_a_planted_power_is_an_internal_error(self, monkeypatch, capsys):
        monkeypatch.setattr(lab, "extract_root", lambda x, k: NoRoot())
        with pytest.raises(RootExtractionError):
            benchmark_root(ns=[3], ls=[2], k=2, count=2, seed=1)
        assert main(["bench", "--strands", "3", "--lengths", "2", "--count", "2"]) == 4
        assert capsys.readouterr().err.startswith("error: internal: ")


class TestSerialization:
    def test_experiment_csv_golden_schema(self):
        specs = [SampleSpec(n=3, r=2, model=SIGNED_ARTIN_WORD, seed=4, count=10)]
        rows = run_genericity_experiment(specs)
        text = rows_to_csv(rows, EXPERIMENT_FIELDS, note="model=signed-artin-word")
        lines = text.splitlines()
        assert lines[0] == "# model=signed-artin-word"
        assert lines[1] == "r,fractionRigidWithinBound,fractionUssMinimal,meanSlidings,samples"
        assert len(lines) == 3

    def test_json_variant_has_identical_field_names(self):
        specs = [SampleSpec(n=3, r=2, model=SIGNED_ARTIN_WORD, seed=4, count=10)]
        rows = run_genericity_experiment(specs)
        payload = json.loads(rows_to_json(rows, note="x"))
        assert payload["note"] == "x"
        assert list(payload["rows"][0]) == list(EXPERIMENT_FIELDS)

    def test_six_significant_digits(self):
        cells = benchmark_root(ns=[3], ls=[2], k=2, count=2, seed=3)
        text = rows_to_csv(cells, BENCH_FIELDS)
        mean_field = text.splitlines()[1].split(",")[6]
        if mean_field:
            digits = mean_field.replace(".", "").replace("-", "").lstrip("0")
            digits = digits.split("e")[0].replace("e", "")
            assert len(digits) <= 6

    def test_absent_cells_are_empty_not_zero(self):
        from braidkit.lab import BenchCell
        cell = BenchCell(n=9, l=2, k=2, samples=1, generic=0, non_generic=1,
                         mean_seconds=None, ratio_to_half_l=None)
        text = rows_to_csv([cell], BENCH_FIELDS)
        assert text.splitlines()[1].endswith(",,")
        payload = json.loads(rows_to_json([cell]))
        assert payload["rows"][0]["meanSeconds"] is None
