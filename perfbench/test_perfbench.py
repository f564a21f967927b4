"""Tests of the benchmark's own logic: seeds, answer checks, tracing."""

import dataclasses
import json
import types

import pytest

import braidkit
import run
import tracing
import workloads
from braidkit import core, kernel, roots
from braidkit.core import CanonicalBraid, SimpleElement
from braidkit.roots import NonGeneric, NoRoot, Root


def _payloads(name, seed, count):
    workload = dataclasses.replace(workloads.WORKLOADS[name], block=count)
    cases, _ = workloads.draw_cases(workload, seed)
    return [case.payload for case in cases]


@pytest.mark.parametrize("seeds", [(1, 3, 7), (80, 81)])
def test_nearby_seeds_draw_disjoint_words(seeds):
    # lab.sample seeds sample i with seed ^ i, so without the derivation
    # these seeds would share most of their samples.
    sets = [set(_payloads("random-n6", seed, 400)) for seed in seeds]
    for i, first in enumerate(sets):
        assert len(first) == 400
        for second in sets[i + 1:]:
            assert not first & second


def test_nearby_seeds_draw_disjoint_planted_braids():
    first, second = (_payloads("planted-n7", seed, 8) for seed in (80, 81))
    assert not set(first) & set(second)
    assert len(set(first)) == 8


def test_same_seed_draws_same_inputs():
    assert _payloads("random-n6", 5, 50) == _payloads("random-n6", 5, 50)


@pytest.mark.parametrize("name", ["planted-n7", "random-n6"])
def test_inputs_draw_fresh_blocks_on_demand(name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], block=3)
    first, _ = workloads.draw_cases(workload, 9)
    inputs = workloads.Inputs(workload, 9, first)
    payloads = [inputs[i].payload for i in range(7)]
    assert payloads[:3] == [case.payload for case in first]
    assert len(set(payloads)) == 7
    again = workloads.Inputs(workload, 9, first)
    assert [again[i].payload for i in range(7)] == payloads


def test_lab_seed_streams_do_not_overlap():
    limit = 1 << workloads.INDEX_BITS
    assert workloads.lab_seed(1, 0) ^ (limit - 1) < workloads.lab_seed(1, 1)
    assert workloads.lab_seed(2, 0) > workloads.lab_seed(1, (1 << workloads.STREAM_BITS) - 1)
    with pytest.raises(ValueError):
        workloads.lab_seed(-1)
    with pytest.raises(ValueError):
        workloads.lab_seed(1 << 32)


def _planted_case():
    factors = [SimpleElement.from_letters(4, letters)
               for letters in ((1, 2), (3,), (2, 1, 3), (1,))]
    a = CanonicalBraid.from_factors(4, factors)
    return workloads.Case(payload=a * a, planted=a), a


def test_check_accepts_the_planted_root():
    case, a = _planted_case()
    assert workloads.check(case, 2, workloads.Answer(case.payload, Root(a))) is None


def test_check_flags_a_root_that_does_not_power_back():
    case, a = _planted_case()
    wrong = a * SimpleElement.atom(1, 4).braid()
    problem = workloads.check(case, 2, workloads.Answer(case.payload, Root(wrong)))
    assert problem == "Root with root ** k != x"


def test_check_flags_a_root_other_than_the_planted_one():
    # Every conjugate of the half twist squares to the central delta^2.
    delta = CanonicalBraid.delta_power(3, 1)
    g = SimpleElement.atom(1, 3).braid()
    other = delta.conjugate_by(g)
    assert other != delta and other ** 2 == delta ** 2
    case = workloads.Case(payload=delta ** 2, planted=delta)
    problem = workloads.check(case, 2, workloads.Answer(case.payload, Root(other)))
    assert problem == "Root differs from the planted root"


def test_check_flags_no_root_on_a_planted_input_only():
    case, _ = _planted_case()
    answer = workloads.Answer(case.payload, NoRoot())
    assert workloads.check(case, 2, answer) == "NoRoot on a planted input"
    assert workloads.check(workloads.Case(payload="1 2"), 2, answer) is None


def test_check_accepts_non_generic():
    case, a = _planted_case()
    outcome = NonGeneric("USS not minimal", a, CanonicalBraid.identity(4))
    assert workloads.check(case, 2, workloads.Answer(case.payload, outcome)) is None


def test_digest_separates_outcome_streams():
    _, a = _planted_case()
    ident = CanonicalBraid.identity(4)
    root = workloads.record(Root(a))
    no_root = workloads.record(NoRoot())
    non_generic = workloads.record(NonGeneric("power of Delta", a, ident))
    assert len({root, no_root, non_generic}) == 3
    assert workloads.digest([root, no_root]) != workloads.digest([no_root, root])


def test_traced_restores_the_originals():
    originals = (kernel.meet, kernel.normalize_factors, roots.is_uss_minimal,
                 roots.extract_root, core.normalize)
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer, braidkit):
            assert kernel.meet is not originals[0]
            assert roots.is_uss_minimal is not originals[2]
            raise RuntimeError("leave the block early")
    assert (kernel.meet, kernel.normalize_factors, roots.is_uss_minimal,
            roots.extract_root, core.normalize) == originals
    assert not tracer.absent


def test_traced_reports_missing_entry_points_as_absent():
    fake_kernel = types.SimpleNamespace(meet=kernel.meet)
    fake = types.SimpleNamespace(core=core, roots=roots, kernel=fake_kernel)
    tracer = tracing.Tracer()
    with tracing.traced(tracer, fake):
        assert fake_kernel.meet(kernel.delta(3), kernel.identity(3)) == kernel.identity(3)
    assert fake_kernel.meet is kernel.meet
    assert "kernel.is_normal" in tracer.absent
    assert "kernel.meet" not in tracer.absent
    assert tracer.calls["kernel.meet"] == 1


def test_stage_self_time_excludes_nested_stages():
    ticks = iter(range(0, 1000, 10))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    owner = types.SimpleNamespace(inner=lambda: None)
    owner.outer = lambda: owner.inner()
    tracer.stage(owner, "outer", "outer")
    tracer.stage(owner, "inner", "inner")
    try:
        owner.outer()
    finally:
        tracer.restore()
    # outer runs from 0 to 30, inner from 10 to 20
    assert tracer.ns["outer"] == 30 and tracer.ns["inner"] == 10
    assert tracer.self_ns["outer"] == 20


def test_run_loop_checks_and_digests_repeatably():
    workload = dataclasses.replace(workloads.WORKLOADS["planted-n7"], block=3, window=3)
    cases, _ = workloads.draw_cases(workload, 1)
    loops = [workloads.run_loop(workload, cases, 0.0, 3) for _ in range(2)]
    assert [loop.attempted for loop in loops] == [3, 3]
    assert not loops[0].failures
    assert loops[0].window == loops[1].window


def _raising(case, n, k):
    raise ArithmeticError("boom")


def _unknown_outcome(case, n, k):
    return workloads.Answer(CanonicalBraid.identity(n), object())


@pytest.mark.parametrize("query", [_raising, _unknown_outcome])
def test_run_loop_counts_a_bad_query_as_failed(query):
    workload = dataclasses.replace(workloads.WORKLOADS["random-n6"], block=2,
                                   window=2, query=query)
    cases, _ = workloads.draw_cases(workload, 1)
    loop = workloads.run_loop(workload, cases, 0.0, 2)
    assert len(loop.failures) == 2 and loop.generic_fraction() == 0.0


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    workload = dataclasses.replace(workloads.WORKLOADS["random-n6"], block=4, window=4)
    cases, _ = workloads.draw_cases(workload, 1)
    untraced = workloads.run_loop(workload, cases, 0.0, 4)
    tracer = tracing.Tracer()
    traced = workloads.run_loop(workload, cases, 0.0, 4,
                                tracing=lambda: tracing.traced(tracer, braidkit))
    setup = run.Setup(cases, setup_s=1.0, sample_s=0.1, cold_start_s=0.2)
    layers = run.per_layer(tracer, traced, untraced, setup)
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert set(run.end_to_end(untraced, setup)) == {m["name"] for m in spec["end_to_end"]}
    assert untraced.window == traced.window
    assert layers["trace.stage_coverage"][0] >= 0.9
