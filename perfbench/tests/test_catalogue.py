"""BENCHMARK.json, the metric catalogue in `ledger` and predictions.json
agree, and every name and unit has the allowed shape."""

import json
import os
import re

import pytest

from perfbench import ledger, run

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def bench_spec():
    return load(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))


@pytest.fixture(scope="module")
def predictions():
    return load(os.path.join(HERE, "predictions.json"))


def test_every_metric_name_and_unit_has_the_allowed_shape(bench_spec):
    metrics = bench_spec["end_to_end"] + bench_spec["per_layer"]
    names = [metric["name"] for metric in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    for workload in bench_spec["workloads"]:
        assert NAME.fullmatch(workload["name"])
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_catalogue_matches_benchmark_json(bench_spec):
    assert {m["name"]: m["unit"] for m in bench_spec["end_to_end"]} == ledger.END_TO_END
    assert {m["name"]: m["unit"] for m in bench_spec["per_layer"]} == ledger.PER_LAYER
    gated = [name for name in run.WORKLOADS if name not in run.REPORT_ONLY]
    assert [w["name"] for w in bench_spec["workloads"]] == gated
    assert bench_spec["command"] == ["python3", "perfbench/run.py"]
    assert bench_spec["paths"] == ["perfbench"]


def test_bounds(bench_spec):
    bounds = {m["name"]: m["bound"] for m in bench_spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    keys = {"name", "unit", "better", "bound"}
    assert all(set(m) == keys for m in bench_spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in bench_spec["per_layer"])


def test_every_span_layer_has_a_metric():
    assert "core.analytic.summarize" in ledger.LAYER_SPANS
    assert "serve.overhead" not in ledger.LAYER_SPANS
    assert all(f"{span}_ms" in ledger.PER_LAYER for span in ledger.LAYER_SPANS)


def test_every_per_layer_metric_belongs_to_one_layer(predictions):
    placed = [name for names in predictions["layers"].values() for name in names]
    assert sorted(placed) == sorted(ledger.PER_LAYER)


def test_predictions_cite_known_names(predictions):
    workloads = set(run.WORKLOADS)
    assert set(predictions["workloads"]) == workloads
    ids = [prediction["id"] for prediction in predictions["predictions"]]
    assert len(ids) == len(set(ids))
    for prediction in predictions["predictions"]:
        assert set(prediction["per_layer"]) <= set(ledger.PER_LAYER)
        assert set(prediction["should_move"]) <= set(ledger.END_TO_END)
        assert set(prediction["on"]) <= workloads
        assert set(prediction["no_change_on"]) <= workloads
        assert not set(prediction["on"]) & set(prediction["no_change_on"])
