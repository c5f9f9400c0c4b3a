"""Tests of the benchmark's own helpers (no program runs here)."""

from __future__ import annotations

import collections
import json

import pytest

from perfbench import plan, spans, stats


# -- percentiles ----------------------------------------------------------------


def test_nearest_rank_percentile_is_a_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 90) == 5.0
    assert stats.percentile(values, 20) == 1.0


def test_tail_percentile_needs_ten_samples_beyond():
    hundred = [float(i) for i in range(100)]
    assert stats.samples_beyond(100, 90) == 10
    assert stats.tail_percentile(hundred, 90) == 89.0
    assert stats.samples_beyond(99, 90) == 9
    assert stats.tail_percentile(hundred[:99], 90) is None
    # The median of a handful of ops is still a median.
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


# -- goodput accounting -------------------------------------------------------------


def test_goodput_counts_only_correct_jobs_within_the_limit():
    outcomes = [
        stats.Outcome("a", 0.5, ok=True),    # good
        stats.Outcome("a", 2.0, ok=True),    # exactly at the limit: good
        stats.Outcome("a", 2.5, ok=True),    # late
        stats.Outcome("a", 0.1, ok=False),   # wrong artifact
        stats.Outcome("a", None, ok=True),   # never finished
    ]
    assert stats.goodput(outcomes, limit_s=2.0, phase_s=4.0) == 0.5
    assert stats.ok_count(outcomes) == 3


def test_goodput_needs_a_phase():
    with pytest.raises(ValueError):
        stats.goodput([], limit_s=1.0, phase_s=0.0)


# -- the seeded service plan ---------------------------------------------------------


def _dump(jobs):
    return [(job.due_s, job.request_key) for job in jobs]


def test_plan_is_deterministic_per_seed():
    assert _dump(plan.build_plan(7, 30.0, 132)) == \
        _dump(plan.build_plan(7, 30.0, 132))
    assert _dump(plan.build_plan(7, 30.0, 132)) != \
        _dump(plan.build_plan(8, 30.0, 132))


@pytest.mark.parametrize("seed", [1, 2, 3, 42])
def test_plan_shape_is_fixed(seed):
    jobs = plan.build_plan(seed, 30.0, 132)
    assert len(jobs) == 132
    dues = [job.due_s for job in jobs]
    assert dues == sorted(dues)
    assert 0.0 <= dues[0] and dues[-1] < 30.0
    counts = collections.Counter(job.experiment for job in jobs)
    shares = [spec.share for spec in plan.SERVICE_MIX]
    expected = plan._apportion(132, shares)
    assert [counts[spec.experiment] for spec in plan.SERVICE_MIX] == expected
    # Duplicates are exact per kind, so the ratio is seed-independent.
    duplicates = sum(round(n * spec.duplicate_share)
                     for spec, n in zip(plan.SERVICE_MIX, expected))
    assert plan.duplicate_ratio(jobs) == pytest.approx(duplicates / 132)
    margins = [job.request_key for job in jobs
               if job.experiment == "margins"]
    assert len(set(margins)) == len(margins)


def test_warmup_keys_never_appear_in_a_plan():
    warm = {json.dumps([e, p], sort_keys=True)
            for e, p in plan.warmup_requests()}
    for seed in range(20):
        keys = {job.request_key for job in plan.build_plan(seed, 30.0, 132)}
        assert not warm & keys


def test_plan_rejects_an_empty_phase():
    with pytest.raises(ValueError):
        plan.build_plan(1, 0.0, 10)


# -- spans ---------------------------------------------------------------------------


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
        sum(range(20000))
    records = {s["name"]: s for s in tracer.spans}
    outer, inner = records["outer"], records["inner"]
    assert inner["parent"] == outer["id"]
    assert outer["self"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))


class _Thing:
    @classmethod
    def make(cls, value):
        return (cls.__name__, value)

    def double(self, value):
        return 2 * value


def test_patches_restore_methods_classmethods_and_items():
    tracer = spans.Tracer()
    patches = spans.Patches()
    table = {"k": len}
    patches.set(_Thing, "make", classmethod(spans.traced(
        tracer, "make", vars(_Thing)["make"].__func__)))
    patches.set(_Thing, "double", spans.traced(tracer, "double",
                                               _Thing.double))
    patches.set_item(table, "k", spans.traced(tracer, "len", len))
    assert _Thing.make(3) == ("_Thing", 3)
    assert _Thing().double(4) == 8
    assert table["k"]("abc") == 3
    assert [s["name"] for s in tracer.spans] == ["make", "double", "len"]
    patches.restore()
    assert isinstance(vars(_Thing)["make"], classmethod)
    assert vars(_Thing)["make"].__func__.__name__ == "make"
    assert table["k"] is len
    _Thing().double(1)
    assert len(tracer.spans) == 3


def test_traced_context_spans_the_body_or_only_enter_and_exit():
    import contextlib

    tracer = spans.Tracer()

    @contextlib.contextmanager
    def resource():
        yield "r"

    whole = spans.traced_context(tracer, "whole", resource, whole_body=True)
    edges = spans.traced_context(tracer, "edges", resource, whole_body=False)
    with whole() as value:
        with tracer.span("child"):
            pass
    assert value == "r"
    with edges():
        pass
    names = [s["name"] for s in tracer.spans]
    assert names.count("whole") == 1 and names.count("edges") == 2
    child = next(s for s in tracer.spans if s["name"] == "child")
    whole_span = next(s for s in tracer.spans if s["name"] == "whole")
    assert child["parent"] == whole_span["id"]
