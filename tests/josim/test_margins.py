"""Tests for the HC-DRO operating-margin analysis."""

import pytest

from repro.josim.margins import (
    MarginPoint,
    margin_configs,
    margin_points,
    sweep_margin_grid,
    working_margin_percent,
)
from repro.josim.cells import RECOMMENDED_J2_BIAS_UA, \
    RECOMMENDED_READ_PULSE_UA


class TestOperatingPoint:
    def test_nominal_point_works(self):
        [point] = sweep_margin_grid((1.0,), write_counts=(0, 3))
        assert point == MarginPoint(RECOMMENDED_READ_PULSE_UA,
                                    RECOMMENDED_J2_BIAS_UA, True)

    def test_gross_overdrive_fails(self):
        # A hugely overdriven read pops fluxons that were never stored.
        [point] = sweep_margin_grid((1.5,), write_counts=(0,))
        assert not point.correct


class TestMarginAccounting:
    def _points(self, verdicts):
        return [MarginPoint(RECOMMENDED_READ_PULSE_UA * scale,
                            RECOMMENDED_J2_BIAS_UA, ok)
                for scale, ok in verdicts]

    def test_symmetric_window(self):
        points = self._points([(0.9, False), (0.95, True), (1.0, True),
                               (1.05, True), (1.1, False)])
        assert working_margin_percent(points) == pytest.approx(5.0)

    def test_failed_nominal_gives_zero(self):
        points = self._points([(0.95, True), (1.0, False), (1.05, True)])
        assert working_margin_percent(points) == 0.0

    def test_missing_nominal_gives_zero(self):
        # Every tested point works, but the nominal point itself was
        # never swept: the window around nominal is unknown, not "all
        # of it".  The seed guard silently fell through here.
        points = self._points([(0.90, True), (0.95, True), (1.05, True),
                               (1.10, True)])
        assert working_margin_percent(points) == 0.0

    def test_no_points_gives_zero(self):
        assert working_margin_percent([]) == 0.0

    def test_asymmetric_window_takes_minimum(self):
        points = self._points([(0.9, True), (0.95, True), (1.0, True),
                               (1.05, True), (1.1, False)])
        assert working_margin_percent(points) == pytest.approx(5.0)


class TestSweep:
    def test_small_sweep_has_working_nominal(self):
        points = sweep_margin_grid((1.0,))
        assert len(points) == 1
        assert points[0].correct


class TestGridBuilders:
    def test_configs_are_point_major_and_verdicts_fold_per_point(self):
        points = [(430.0, 75.0), (450.0, 73.0)]
        configs = margin_configs(points, write_counts=(0, 3), reads=2,
                                 settle_ps=10.0)
        assert [(c.read_amplitude_ua, c.j2_bias_ua, c.writes, c.reads,
                 c.settle_ps) for c in configs] == [
            (430.0, 75.0, 0, 2, 10.0), (430.0, 75.0, 3, 2, 10.0),
            (450.0, 73.0, 0, 2, 10.0), (450.0, 73.0, 3, 2, 10.0)]
        assert margin_points(points, [True, True, True, False]) == [
            MarginPoint(430.0, 75.0, True), MarginPoint(450.0, 73.0, False)]
