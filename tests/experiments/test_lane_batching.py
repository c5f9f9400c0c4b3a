"""Lane-replayed sweeps elaborate their netlist exactly once.

The skew and fault studies replay every trial as a stimulus lane over
one cached build; the compiled-netlist cache's hit/miss counters are
the build spy.  Each lane must also give what the same trial gives run
live on its own.
"""

from __future__ import annotations

from repro.experiments import fault_study, skew
from repro.pulse.cache import DEFAULT_CACHE
from repro.rf.faults import inject_hiperrf_fault
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


class TestSweepMatchesLiveRuns:
    def test_fault_sweep_matches_single_injections(self):
        outcomes = fault_study.run_sweep(geometry=SMALL)
        trials = fault_study.sweep_trials(SMALL)
        assert outcomes == [
            inject_hiperrf_fault(trial.fault, trial.register, trial.value,
                                 trial.column)
            for trial in trials]
        summary = fault_study.sweep_summary(outcomes)
        assert summary["drop_loopback_pulse"]["trials"] == 16
        assert summary["extra_data_pulse"]["trials"] == 16
        # A dropped loopback pulse corrupts whenever the struck column
        # held fluxons; an extra data pulse only bumps the count.
        assert summary["drop_loopback_pulse"]["state_corrupted"] > 0
        assert summary["extra_data_pulse"]["state_corrupted"] == 0

    def test_skew_sweep_matches_restore_ok(self):
        skews = [-16.0, -4.0, 0.0, 8.0]
        rows = skew.run(skews)
        assert [row["restored"] for row in rows] == [
            float(skew.restore_ok(s)) for s in skews]
        assert rows[0]["restored"] == 0.0 and rows[2]["restored"] == 1.0
