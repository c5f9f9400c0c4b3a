"""Lane-batched sweeps elaborate their netlist exactly once.

The skew and fault studies replay every trial as a stimulus lane over
one cached build; the compiled-netlist cache's hit/miss counters are
the build spy.  The sweeps must also be path-independent: moving the
lane-count threshold so the other replay path runs gives the identical
outcomes.
"""

from __future__ import annotations

from repro.experiments import fault_study, skew
from repro.pulse import batched
from repro.pulse.cache import DEFAULT_CACHE
from repro.rf.geometry import RFGeometry

SMALL = RFGeometry(4, 8)  # 2 fault kinds x 4 registers x 4 columns


class TestSingleBuildPerSweep:
    def test_skew_sweep_builds_once(self):
        DEFAULT_CACHE.clear()
        rows = skew.run([-4.0, 0.0, 4.0])
        assert len(rows) == 3
        assert DEFAULT_CACHE.stats()["misses"] == 1

    def test_restore_ok_reuses_the_cached_build(self):
        DEFAULT_CACHE.clear()
        assert skew.restore_ok(0.0)
        assert skew.restore_ok(2.0)
        stats = DEFAULT_CACHE.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_fault_sweep_builds_once(self):
        DEFAULT_CACHE.clear()
        outcomes = fault_study.run_sweep(geometry=SMALL)
        assert len(outcomes) == 2 * 4 * 4
        assert DEFAULT_CACHE.stats()["misses"] == 1


def run_both_paths(monkeypatch, sweep):
    """``sweep()`` with every lane set batched, then all sequential."""
    monkeypatch.setattr(batched, "BATCHED_MIN_LANES", 1)
    wheel = sweep()
    monkeypatch.setattr(batched, "BATCHED_MIN_LANES", 1 << 30)
    return wheel, sweep()


class TestSweepTierEquivalence:
    def test_fault_sweep_tiers_agree(self, monkeypatch):
        wheel, sequential = run_both_paths(
            monkeypatch, lambda: fault_study.run_sweep(geometry=SMALL))
        assert wheel == sequential
        summary = fault_study.sweep_summary(wheel)
        assert summary["drop_loopback_pulse"]["trials"] == 16
        assert summary["extra_data_pulse"]["trials"] == 16
        # A dropped loopback pulse corrupts whenever the struck column
        # held fluxons; an extra data pulse only bumps the count.
        assert summary["drop_loopback_pulse"]["state_corrupted"] > 0
        assert summary["extra_data_pulse"]["state_corrupted"] == 0

    def test_skew_tiers_agree(self, monkeypatch):
        skews = [-4.0, 0.0, 8.0]
        wheel, sequential = run_both_paths(monkeypatch,
                                           lambda: skew.run(skews))
        assert wheel == sequential
