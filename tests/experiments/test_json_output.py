"""Tests for the runner's --json machine-readable output."""

import json

import pytest

from repro.experiments.runner import main


def run_json(args, capsys):
    assert main(args + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestJsonOutput:
    def test_table1_payload(self, capsys):
        payload = run_json(["table1"], capsys)
        cell = payload["table1"]["hiperrf"]["32x32"]
        assert cell["paper_jj"] == 16133.0
        assert cell["jj"] == pytest.approx(16133, rel=0.02)

    def test_multiple_experiments(self, capsys):
        payload = run_json(["table3", "fullchip"], capsys)
        assert set(payload) == {"table3", "fullchip"}
        assert payload["fullchip"]["saving_percent"] == \
            pytest.approx(16.3, abs=0.5)

    def test_dataclasses_serialise(self, capsys):
        payload = run_json(["faults"], capsys)
        outcomes = payload["faults"]
        assert isinstance(outcomes, list)
        assert outcomes[0]["fault"] == "drop_loopback_pulse"

    def test_enum_values_flattened(self, capsys):
        payload = run_json(["faults"], capsys)
        for outcome in payload["faults"]:
            assert "FaultKind" not in str(outcome["fault"])

    def test_every_experiment_has_a_payload(self, capsys):
        from repro.experiments import figure14
        from repro.experiments.parallel import jsonable

        timing = run_json(["timing"], capsys)["timing"]
        assert timing["figure8_ndro"]["cycle_time_ps"] > 0
        payload = run_json(["figure14", "--scale", "0.3"], capsys)
        assert payload["figure14"] == jsonable(figure14.run(0.3))

    def test_scaling_rows(self, capsys):
        payload = run_json(["scaling"], capsys)
        assert len(payload["scaling"]) == 7
        assert payload["scaling"][0]["num_registers"] == 4.0
