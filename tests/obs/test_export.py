"""Tests for repro.obs.export — profile tree, JSONL round-trip, render."""

import json

import pytest

from repro import obs
from repro.obs import (build_profile, profile_from_snapshot,
                       profile_to_dict, read_events_jsonl, render_metrics,
                       render_profile, write_events_jsonl)
from repro.obs.trace import span


def _rec(path, dur):
    name = path.rsplit(".", 1)[-1]
    return {"path": path, "name": name, "t0": 0.0, "dur": dur, "attrs": {}}


class TestBuildProfile:
    def test_aggregates_by_path(self):
        root = build_profile([_rec("a.b", 1.0), _rec("a.b", 3.0),
                              _rec("a", 5.0)])
        a = root.children["a"]
        b = a.children["b"]
        assert b.count == 2 and b.total_s == 4.0
        assert b.min_s == 1.0 and b.max_s == 3.0
        assert a.count == 1 and a.total_s == 5.0

    def test_self_time_excludes_children(self):
        root = build_profile([_rec("a.b", 4.0), _rec("a", 5.0)])
        assert root.children["a"].self_s == 1.0

    def test_self_time_clamped_at_zero(self):
        # child totals can exceed the parent by clock granularity
        root = build_profile([_rec("a.b", 5.1), _rec("a", 5.0)])
        assert root.children["a"].self_s == 0.0

    def test_parent_seen_only_via_children_has_zero_count(self):
        root = build_profile([_rec("a.b", 1.0)])
        assert root.children["a"].count == 0
        assert root.children["a"].children["b"].count == 1

    def test_root_spans_top_level_children(self):
        root = build_profile([_rec("a", 1.0), _rec("b", 2.0)])
        assert root.name == "total"
        assert root.count == 2
        assert root.total_s == 3.0

    def test_structure_is_timing_free_and_sorted(self):
        s1 = build_profile([_rec("a", 1.0), _rec("b.c", 2.0)]).structure()
        s2 = build_profile([_rec("b.c", 9.0), _rec("a", 0.1)]).structure()
        assert s1 == s2
        assert list(s1["children"]) == ["a", "b"]

    def test_profile_to_dict_round_trips_json(self):
        root = build_profile([_rec("a.b", 1.0), _rec("a", 2.0)])
        doc = json.loads(json.dumps(profile_to_dict(root)))
        assert doc["children"]["a"]["children"]["b"]["count"] == 1
        assert doc["children"]["a"]["total_s"] == 2.0

    def test_profile_to_dict_is_strict_json(self):
        """The root aggregates counts but observes no duration: its
        infinite ``min_s`` and ``max_s`` are written as ``null``, never
        ``Infinity``."""
        root = build_profile([_rec("a", 1.0), _rec("b", 2.0)])
        doc = json.loads(json.dumps(profile_to_dict(root), allow_nan=False))
        assert doc["count"] == 2
        assert doc["min_s"] is None and doc["max_s"] is None
        assert doc["children"]["a"]["min_s"] == 1.0
        assert doc["children"]["a"]["max_s"] == 1.0


class TestJsonlRoundTrip:
    def test_write_then_read_is_identity(self, tmp_path):
        obs.enable()
        with span("solve", psi=50.0):
            with span("lp"):
                pass
        obs.current_registry().counter("lp.solves").inc(2)
        path = tmp_path / "events.jsonl"
        n = write_events_jsonl(path, meta={"command": "test"})
        assert n == 2
        back = obs.obs_snapshot()
        parsed = read_events_jsonl(path)
        assert parsed["spans"] == back["spans"]
        assert parsed["metrics"] == back["metrics"]
        assert parsed["meta"]["command"] == "test"

    def test_every_line_is_json(self, tmp_path):
        obs.enable()
        with span("x"):
            pass
        path = tmp_path / "events.jsonl"
        write_events_jsonl(path)
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert kinds == ["meta", "span", "metrics"]

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "schema": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_events_jsonl(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown event kind"):
            read_events_jsonl(path)


class TestRender:
    def test_render_profile_lists_all_paths(self):
        root = build_profile([_rec("solve.lp", 0.5), _rec("solve", 1.0)])
        text = render_profile(root)
        assert "total" in text and "solve" in text and "lp" in text

    def test_render_profile_min_total_hides_small_spans(self):
        root = build_profile([_rec("big", 5.0), _rec("tiny", 0.001)])
        text = render_profile(root, min_total_s=0.1)
        assert "big" in text
        assert "tiny" not in text

    def test_render_metrics_empty(self):
        assert "no metrics" in render_metrics({})

    def test_render_metrics_lists_all_names(self):
        obs.enable()
        obs.current_registry().counter("a.count").inc()
        obs.current_registry().histogram("b.sizes").observe(3.0)
        text = render_metrics(obs.current_registry().snapshot())
        assert "a.count" in text and "b.sizes" in text

    def test_profile_from_snapshot_accepts_parsed_log(self, tmp_path):
        obs.enable()
        with span("s"):
            pass
        path = tmp_path / "e.jsonl"
        write_events_jsonl(path)
        root = profile_from_snapshot(read_events_jsonl(path))
        assert "s" in root.children
