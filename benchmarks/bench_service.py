"""Benchmark the coalescing simulation service against per-request runs.

The headline measurement is a mixed 200-request workload with heavily
overlapping keys - margin grids sharing operating points, Figure 14
requests sharing programs, duplicate analytic reports - run two ways
(``make bench-service`` writes BENCH_service.json):

* **naive**: every request computed alone and sequentially
  (:func:`repro.service.run_job_naive` - no batching, no dedup, no
  caches), the cost a script-per-request workflow pays today,
* **coalesced**: the same requests submitted through the HTTP service
  with its default settings, where strangers' analog lanes that queue
  while every worker is busy share batched transients, duplicate keys
  collapse in flight, and repeats are served from the on-disk cache.

``test_service_speedup_summary`` asserts the >= 3x jobs/sec acceptance
bar and that every artifact is bitwise identical to its naive twin.
The CI smoke job relaxes the floor (shared runners are noisy) via
``REPRO_BENCH_SERVICE_MIN_SPEEDUP`` and shrinks the workload via
``REPRO_BENCH_SERVICE_REQUESTS``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

import pytest

from repro.experiments.parallel import CACHE_ENV_VAR, ResultCache
from repro.service import ServiceClient, ServiceThread, run_job_naive

MIN_SERVICE_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_SERVICE_MIN_SPEEDUP", "3.0"))
NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVICE_REQUESTS", "200"))
MIX_SEED = 2024

#: Cheap HC-DRO margin grids: short settle/spacing keeps one scalar
#: lane in the ~150 ms range, so the naive baseline finishes in minutes
#: while staying integer-identical to the batched tier.
_MARGIN_BASE = {"write_counts": [0, 2], "reads": 2,
                "settle_ps": 10.0, "pulse_spacing_ps": 15.0}
_CPU_BASE = {"scale": 0.3, "workloads": ["vvadd"]}

#: The request pool: strangers whose unit items overlap without their
#: requests being equal (plus exact duplicates via repeated sampling).
TEMPLATES = [
    ("margins", dict(_MARGIN_BASE, scales=[0.95, 1.0])),
    ("margins", dict(_MARGIN_BASE, scales=[1.0, 1.05])),
    ("margins", dict(_MARGIN_BASE, scales=[0.95, 1.05])),
    ("figure14", dict(_CPU_BASE, designs=["ndro_rf", "hiperrf"])),
    ("figure14", dict(_CPU_BASE, designs=["ndro_rf", "dual_bank_hiperrf"])),
    ("figure14", dict(_CPU_BASE,
                      designs=["ndro_rf", "hiperrf", "dual_bank_hiperrf"])),
    ("figure15", {}),
    ("figure15", {"cell_pitch_um": 80.0}),
    ("pulse_rf", {"registers": 4, "width": 4, "pattern": [[1, 5], [2, 10]]}),
]
#: margins/cpu-heavy: the kinds whose unit work actually costs something.
WEIGHTS = [6, 6, 6, 4, 4, 4, 2, 2, 2]


def _workload(count: int):
    rng = random.Random(MIX_SEED)
    return rng.choices(TEMPLATES, weights=WEIGHTS, k=count)


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    """Both tiers must run from this benchmark's own state, not the
    developer's warm ``REPRO_CACHE_DIR``."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)


def _run_coalesced(requests, tmp_path):
    cache = ResultCache(tmp_path / "service-cache")
    with ServiceThread(cache=cache) as svc:
        client = ServiceClient(*svc.address)
        t0 = time.perf_counter()
        jobs = [client.submit(experiment, params)
                for experiment, params in requests]
        artifacts = [client.wait(job["id"], timeout=600) for job in jobs]
        elapsed = time.perf_counter() - t0
        snapshots = [client.status(job["id"]) for job in jobs]
        stats = client.stats()
    return artifacts, elapsed, snapshots, stats


def _run_naive(requests):
    t0 = time.perf_counter()
    artifacts = [run_job_naive(experiment, params)
                 for experiment, params in requests]
    return artifacts, time.perf_counter() - t0


def test_service_http_roundtrip(benchmark, tmp_path):
    """Protocol overhead: submit+poll+fetch one cached analytic job."""
    cache = ResultCache(tmp_path / "rt-cache")
    with ServiceThread(cache=cache, window_ms=0) as svc:
        client = ServiceClient(*svc.address)
        client.wait(client.submit("figure15", {})["id"])  # warm the key

        def roundtrip():
            return client.wait(client.submit("figure15", {})["id"],
                               poll_s=0.002)

        benchmark.pedantic(roundtrip, rounds=10, iterations=1)


def test_service_speedup_summary(benchmark, tmp_path):
    """Record (and enforce) coalesced-vs-naive jobs/sec on a mixed
    workload, with bitwise-identical artifacts."""
    requests = _workload(NUM_REQUESTS)

    # Service first: it pays every compiled-netlist/tape build, the
    # naive pass then reuses those process-level structures - any
    # warm-up bias favours the baseline.
    coalesced, t_service, snapshots, stats = _run_coalesced(
        requests, tmp_path)
    naive, t_naive = _run_naive(requests)

    mismatches = [index for index, (a, b) in enumerate(zip(coalesced, naive))
                  if _canonical(a) != _canonical(b)]
    assert not mismatches, (
        f"{len(mismatches)} of {len(requests)} artifacts differ from the "
        f"naive run (first at request {mismatches[0]})")

    speedup = t_naive / t_service
    latencies = sorted(s["latency_s"] for s in snapshots)
    quantiles = statistics.quantiles(latencies, n=20)
    benchmark.extra_info["requests"] = len(requests)
    benchmark.extra_info["distinct_requests"] = len(
        {(_canonical([e, p])) for e, p in requests})
    benchmark.extra_info["naive_s"] = t_naive
    benchmark.extra_info["coalesced_s"] = t_service
    benchmark.extra_info["naive_jobs_per_s"] = len(requests) / t_naive
    benchmark.extra_info["coalesced_jobs_per_s"] = len(requests) / t_service
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["latency_p50_s"] = latencies[len(latencies) // 2]
    benchmark.extra_info["latency_p95_s"] = quantiles[18]
    benchmark.extra_info["dispatches"] = stats["dispatches"]
    benchmark.extra_info["dispatched_items"] = stats["dispatched_items"]
    benchmark.extra_info["largest_group"] = stats["largest_group"]
    benchmark.extra_info["item_cache_hits"] = stats["item_cache_hits"]
    benchmark.extra_info["item_coalesced"] = stats["item_coalesced"]
    benchmark.extra_info["item_computed"] = stats["item_computed"]
    assert speedup >= MIN_SERVICE_SPEEDUP, (
        f"coalesced service speedup {speedup:.2f}x < "
        f"{MIN_SERVICE_SPEEDUP:g}x over {len(requests)} requests")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
