"""Monte Carlo yield tier: sampling determinism, invariance, oracle.

The contract under test: the same ``(spreads, samples, seed)`` triple
produces bitwise-identical parameter multipliers and identical yield
numbers no matter how the lanes are sharded, chunked or spread across
workers — and every batched lane is bitwise equal to a scalar solver
run of the same perturbed circuit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.josim.montecarlo as mc
import repro.josim.solver as solver_mod
from repro.errors import ConfigError
from repro.josim.cells import build_hcdro_cell
from repro.josim.montecarlo import (
    SpreadSpec,
    YieldConfig,
    apply_multipliers,
    hcdro_parameter_specs,
    main,
    run_yield_analysis,
    sample_multipliers,
    verify_against_scalar,
)


#: Small-but-nontrivial study used by the invariance tests: 18 lanes.
SMALL = YieldConfig(samples=6, seed=97, read_scales=(0.95, 1.0, 1.05))


def _report_key(report):
    """Everything in a report that must be invariant to scheduling."""
    return (report.yield_percent, report.scale_yield,
            report.margin_mean_percent, report.margin_p5_percent,
            report.margin_p50_percent, report.margin_p95_percent,
            report.sensitivity)


class TestParameterSpecs:
    def test_hcdro_parameters_enumerated(self):
        labels = {spec.label for spec in hcdro_parameter_specs()}
        assert labels == {"J1.ic", "J2.ic", "J3.ic",
                          "L1.l", "L2.l", "L3.l", "LOUT.l",
                          "IB1.bias", "IB2.bias"}

    def test_zero_sigma_class_is_omitted(self):
        specs = hcdro_parameter_specs(SpreadSpec(sigma_l=0.0))
        assert all(spec.kind != "l" for spec in specs)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError, match="sigma_ic"):
            SpreadSpec(sigma_ic=-0.1)


class TestSampling:
    def test_same_seed_bitwise_identical(self):
        specs = hcdro_parameter_specs()
        first = sample_multipliers(specs, 100, seed=5)
        second = sample_multipliers(specs, 100, seed=5)
        assert first.shape == (100, len(specs))
        np.testing.assert_array_equal(first, second)

    def test_different_seed_differs(self):
        specs = hcdro_parameter_specs()
        assert not np.array_equal(sample_multipliers(specs, 10, seed=1),
                                  sample_multipliers(specs, 10, seed=2))

    def test_multipliers_clipped_positive(self):
        specs = hcdro_parameter_specs(SpreadSpec(sigma_ic=50.0,
                                                 sigma_l=50.0,
                                                 sigma_bias=50.0))
        multipliers = sample_multipliers(specs, 200, seed=3)
        assert float(multipliers.min()) >= 0.05

    def test_apply_multipliers_updates_derived_constants(self):
        handles = build_hcdro_cell()
        specs = hcdro_parameter_specs()
        row = np.ones(len(specs))
        row[[spec.label for spec in specs].index("L2.l")] = 1.5
        baseline_inv_l = handles.circuit.element("L2").inv_l
        apply_multipliers(handles, specs, row)
        assert handles.circuit.element("L2").inv_l == pytest.approx(
            baseline_inv_l / 1.5)

    def test_apply_multipliers_row_length_checked(self):
        handles = build_hcdro_cell()
        with pytest.raises(ConfigError, match="entries"):
            apply_multipliers(handles, hcdro_parameter_specs(), np.ones(2))


class TestSchedulingInvariance:
    def test_shard_size_does_not_change_results(self, monkeypatch):
        """A shard is one solver chunk: 18 lanes at 4 per chunk run as
        five shards and roll up exactly like one."""
        reference = run_yield_analysis(SMALL, workers=1)
        widths = []
        run_shard = mc._run_shard

        def spy(task):
            widths.append(len(task.read_scales))
            return run_shard(task)

        monkeypatch.setattr(mc, "_run_shard", spy)
        monkeypatch.setattr(solver_mod, "CHUNK_LANES", 4)
        resharded = run_yield_analysis(SMALL, workers=1)
        assert widths == [4, 4, 4, 4, 2]
        assert _report_key(resharded) == _report_key(reference)

    def test_solver_chunk_does_not_change_results(self, monkeypatch):
        reference = run_yield_analysis(SMALL, workers=1)
        monkeypatch.setattr(solver_mod, "CHUNK_LANES", 3)
        chunked = run_yield_analysis(SMALL, workers=1)
        assert _report_key(chunked) == _report_key(reference)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "CHUNK_LANES", 5)
        reference = run_yield_analysis(SMALL, workers=1)
        fanned = run_yield_analysis(SMALL, workers=2)
        assert _report_key(fanned) == _report_key(reference)

    def test_same_seed_same_report(self):
        assert (_report_key(run_yield_analysis(SMALL, workers=1))
                == _report_key(run_yield_analysis(SMALL, workers=1)))


class TestScalarOracle:
    def test_batched_lanes_match_scalar_oracle(self):
        """32 sampled lanes, bitwise equal to the scalar solver."""
        config = YieldConfig(samples=11, seed=13,
                             read_scales=(0.95, 1.0, 1.05))
        deviation = verify_against_scalar(config, lanes=32)
        assert deviation == 0.0, f"max |dphi| = {deviation:.3e}"

    def test_near_threshold_lanes_match_exactly(self):
        """Study 1014052714 picks lanes whose junctions swing near their
        switching threshold; two formulations of the same physics once
        drifted 3.0e-9 apart on them."""
        config = YieldConfig(samples=96, seed=1014052714)
        deviation = verify_against_scalar(config, lanes=3)
        assert deviation == 0.0, f"max |dphi| = {deviation:.3e}"


class TestRollups:
    def test_report_shapes_and_ranges(self):
        report = run_yield_analysis(SMALL, workers=1)
        assert 0.0 <= report.yield_percent <= 100.0
        assert set(report.scale_yield) == {0.95, 1.0, 1.05}
        assert report.margin_p5_percent <= report.margin_p50_percent
        assert report.margin_p50_percent <= report.margin_p95_percent
        labels = {spec.label for spec in hcdro_parameter_specs()}
        assert set(report.sensitivity) == labels

    def test_zero_spread_yields_100_percent(self):
        config = YieldConfig(
            samples=2, seed=1,
            spreads=SpreadSpec(sigma_ic=0.0, sigma_l=0.0, sigma_bias=0.0),
            read_scales=(1.0,))
        report = run_yield_analysis(config, workers=1)
        assert report.yield_percent == 100.0
        assert report.sensitivity == {}

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="samples"):
            YieldConfig(samples=0)
        with pytest.raises(ConfigError, match="read_scales"):
            YieldConfig(read_scales=())
        with pytest.raises(ConfigError, match="record_every"):
            YieldConfig(record_every=0)


class TestCLI:
    def test_json_output(self, capsys):
        code = main(["--samples", "3", "--seed", "2", "--scales", "1.0",
                     "--workers", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["samples"] == 3
        assert payload["lanes"] == 3
        assert 0.0 <= payload["yield_percent"] <= 100.0

    def test_human_output_with_verify(self, capsys):
        code = main(["--samples", "3", "--seed", "2", "--scales", "1.0",
                     "--workers", "1", "--verify", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "parametric yield" in out
        assert "scalar-oracle max |dphi|" in out

    def test_bad_scales_exits_nonzero(self, capsys):
        assert main(["--scales", "abc"]) == 2
        assert "bad --scales" in capsys.readouterr().err

    def test_module_runs_without_a_double_import_warning(self):
        """``python -m repro.josim.montecarlo`` must not find the module
        already imported by its package (runpy's RuntimeWarning)."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.josim.montecarlo", "--help"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestLintCleanliness:
    def test_sampled_testbench_decks_pass_lint(self):
        """Every deck the MC driver builds must satisfy the deck rules."""
        from repro.josim.montecarlo import _build_lane
        from repro.lint import check_deck

        config = YieldConfig(samples=4, seed=21)
        specs = hcdro_parameter_specs()
        multipliers = sample_multipliers(specs, config.samples, config.seed)
        for sample in range(config.samples):
            handles, _, _ = _build_lane(config, specs, multipliers[sample],
                                        read_scale=1.0)
            issues = check_deck(handles.circuit, name=f"mc-sample-{sample}")
            assert issues == [], [str(issue) for issue in issues]
