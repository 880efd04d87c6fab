"""Harness test of the performance ledger, at toy sizes.

Runs every workload in this process, untraced and traced, and checks
what the ledger promises: the metric names and units of
``BENCHMARK.json``, strict JSON output, and identical outputs with
tracing on and off.  It is not part of tier-1 (``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json

import layers
import pytest
import run

TINY = {
    "fig6": {"n_nodes": 20},
    "plan": {"n_nodes": 20},
    "zonal": {"n_nodes": 200, "n_crac": 4},
    "serve": {"n_nodes": 20, "ticks": 3},
    "control": {"horizon_s": 120.0, "factors": (),
                "controllers": ("interval",)},
}


def _no_constants(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text: str):
    return json.loads(text, parse_constant=_no_constants)


@pytest.fixture(scope="module")
def reports() -> dict[str, tuple[dict, dict, dict]]:
    """Per workload: seed 1 untraced, seed 1 traced, seed 2 untraced."""
    return {name: (run.measure(name, 1, 0.0, False, sizes),
                   run.measure(name, 1, 0.0, True, sizes),
                   run.measure(name, 2, 0.0, False, sizes))
            for name, sizes in TINY.items()}


def test_every_workload_is_covered():
    assert set(TINY) == set(run.NAMES)


@pytest.mark.parametrize("name", sorted(TINY))
def test_metric_names_and_units_match_benchmark_json(reports, name):
    declared = run.declared()
    untraced, traced, _ = reports[name]
    assert list(untraced["metrics"]) == list(declared["end_to_end"])
    assert list(traced["metrics"]) == list(declared["per_layer"])
    for units in declared.values():
        assert all(units.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_output_is_strict_json(reports, name):
    declared = run.declared()
    for report, kind in zip(reports[name][:2], ("end_to_end", "per_layer")):
        doc = strict_loads(run.result_line(report, declared[kind]))
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True
        assert doc["attempted"] >= 1 and doc["failed"] == 0
        for metric in doc["metrics"].values():
            assert isinstance(metric["value"], (int, float))
            assert metric["unit"]
        if kind == "end_to_end":
            assert doc["metrics"]["reward_rate"]["value"] > 0
        # the full report, profile tree included, is strict as well
        strict_loads(run.dumps(report))


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_outputs_equal_untraced(reports, name):
    untraced, traced, _ = reports[name]
    assert untraced["outputs"]
    assert untraced["outputs"] == traced["outputs"]
    assert run.compare_outputs(untraced, traced) == []


@pytest.mark.parametrize("name", sorted(TINY))
def test_reward_rate_is_the_same_for_every_seed(reports, name):
    # the seed draws only request order and serve's arrivals, so the
    # gated quality metric can carry an exact bound
    seed1, _, seed2 = reports[name]
    assert seed1["metrics"]["reward_rate"] == seed2["metrics"]["reward_rate"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_setup_is_repeated_where_there_is_one(reports, name):
    from workloads import SETUP_REPEATS  # importable once run set the path

    repeats = reports[name][0]["setup_repeats_s"]
    expected = SETUP_REPEATS if name in ("plan", "serve") else 0
    assert len(repeats) == expected


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_shares_cover_the_traced_wall_time(reports, name):
    metrics = reports[name][1]["metrics"]
    total = sum(metrics[f"{layer}.pct"] for layer in layers.LAYERS)
    assert total + metrics["trace.unattributed_pct"] == pytest.approx(100.0)


def test_unknown_lp_name_is_an_error():
    spans = [{"path": "solve.lp", "name": "lp", "dur": 1.0,
              "attrs": {"lp": "new-lp"}},
             {"path": "solve", "name": "solve", "dur": 2.0, "attrs": {}}]
    assert layers.attribute(spans)["errors"] == [
        "lp span 'new-lp' maps to no layer"]


def test_merged_capture_records_nest_under_the_open_benchmark_span():
    # parallel_map appends each traced item's records, rooted at the
    # item, before the enclosing benchmark span closes
    spans = [{"path": "sweep_control.lp", "name": "lp", "dur": 1.0,
              "attrs": {"lp": "interference-feasibility"}},
             {"path": "interval.lp", "name": "lp", "dur": 3.0,
              "attrs": {"lp": "stage1"}},
             {"path": "interval", "name": "interval", "dur": 4.0,
              "attrs": {}},
             {"path": "sweep_control", "name": "sweep_control",
              "dur": 6.0, "attrs": {}}]
    att = layers.attribute(spans)
    assert att["covered_s"] == 6.0
    assert att["layer_s"] == {"generate": 1.0, "stage1": 3.0,
                              "chaos": 1.0, "control": 1.0}
