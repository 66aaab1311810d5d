"""Self-test of the benchmark harness on tiny campaigns (``--smoke``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import cli_load, common, reference, workloads  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace",
    [("seu_campaigns", 0), ("fault_models", 1), ("service_mix", 0), ("service_mix", 1)],
)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_layer_map_matches_benchmark_json():
    with open(os.path.join(ROOT, "perfbench", "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)["metrics"]
    assert [
        {"name": entry["name"], "unit": entry["unit"], "better": entry["better"]}
        for entry in layers
    ] == _declared()["per_layer"]
    end_to_end = {metric["name"] for metric in _declared()["end_to_end"]}
    for entry in layers:
        assert set(entry["moves"]) <= end_to_end
        assert entry["workload"] in (*workloads.WORKLOADS, "all")


def test_every_campaign_has_a_reference():
    recorded = reference.load_references()
    assert {campaign.key for campaign in workloads.all_campaigns()} <= set(
        recorded["campaigns"]
    )


def test_trailing_json_skips_human_lines():
    text = 'summary line\n  {"not": "this"}\n{\n  "a": {\n    "b": 1\n  }\n}\n'
    assert reference.trailing_json(text) == {"a": {"b": 1}}


def test_corrupted_outcome_makes_failed_ratio_nonzero(tmp_path, monkeypatch):
    common.use_checkout_sources()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifacts"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    from repro.run.runner import CampaignRunner

    merge = CampaignRunner._merge

    def corrupted_merge(self, *args, **kwargs):
        oracle = merge(self, *args, **kwargs)
        oracle.fail_cycles[0] += 1
        return oracle

    monkeypatch.setattr(CampaignRunner, "_merge", corrupted_merge)
    checker = reference.Checker(reference.load_references())
    cli_load.run(workloads.SMOKE, 0, str(tmp_path / "rounds"), checker)
    assert checker.attempted >= 1
    assert checker.failed / checker.attempted > 0
    assert "oracle_digest" in checker.problems[0]
