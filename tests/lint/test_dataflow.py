"""Project-level dataflow analyses: interprocedural traces, the PR-3
regression shape, and the engine's changed-files restriction."""

import ast
import textwrap
from pathlib import Path

from repro.lint import (LintConfig, build_project, lint_paths,
                        select_rules)
from repro.lint.callgraph import build_callgraph
from repro.lint.engine import _parse_file

FIXTURES = Path(__file__).parent / "fixtures"


def _lint(paths, codes, config=None):
    return lint_paths([Path(p) for p in paths],
                      rules=select_rules(select=codes),
                      config=config or LintConfig())


class TestTraces:
    """Taint findings carry a full source-to-sink chain."""

    def test_wallclock_through_helper_has_three_steps(self):
        report = _lint([FIXTURES / "rl040_bad.py"], ["RL040"])
        finding = next(f for f in report.findings
                       if f.line == 17 and "wall-clock" in f.message)
        assert len(finding.trace) == 3
        assert "wall-clock source time()" in finding.trace[0]
        assert ":12:" in finding.trace[0]
        assert "returned by stamp()" in finding.trace[1]
        assert "cache_key()" in finding.trace[2]

    def test_every_taint_finding_has_a_trace(self):
        report = _lint([FIXTURES / "rl040_bad.py"], ["RL040"])
        assert report.findings
        for finding in report.findings:
            assert finding.trace, finding.message
            assert "source" in finding.trace[0] \
                or "constructed" in finding.trace[0]
            assert "flows into" in finding.trace[-1]

    def test_unit_finding_traces_name_both_operands(self):
        report = _lint([FIXTURES / "rl030_bad.py"], ["RL030"])
        finding = next(f for f in report.findings if f.line == 9)
        assert any("temperature" in step for step in finding.trace)
        assert any("power" in step for step in finding.trace)

    def test_unit_dimension_crosses_call_boundary(self):
        # line 12 subtracts the *return value* of cooling_power_kw();
        # only an interprocedural summary can know its dimension
        report = _lint([FIXTURES / "rl030_bad.py"], ["RL030"])
        finding = next(f for f in report.findings if f.line == 12)
        assert any("return of rl030_bad.cooling_power_kw()" in step
                   for step in finding.trace)


class TestCrossModule:
    def test_trace_spans_both_files(self):
        report = _lint([FIXTURES / "crossmod_source.py",
                        FIXTURES / "crossmod_sink.py"], ["RL040"])
        assert len(report.findings) == 2
        for finding in report.findings:
            assert finding.path.endswith("crossmod_source.py")
            assert finding.line == 9
        json_finding = next(f for f in report.findings
                            if "JSON" in f.message)
        assert any("crossmod_sink.py:7" in step
                   for step in json_finding.trace)

    def test_sink_file_alone_is_clean(self):
        # the sink function is only dangerous when fed a set
        report = _lint([FIXTURES / "crossmod_sink.py"], ["RL040"])
        assert report.findings == []


class TestPr3Regression:
    """The PR-3 cache-split defect — a set serialized with
    ``json.dumps(..., default=list)`` feeding a digest — must stay
    flagged by the taint analysis."""

    def test_cache_split_fixture_is_flagged(self):
        report = _lint([FIXTURES / "pr3_cache_split.py"], ["RL040"])
        lines = sorted(f.line for f in report.findings)
        assert lines == [20, 21]

    def test_both_sinks_blame_the_set_construction(self):
        report = _lint([FIXTURES / "pr3_cache_split.py"], ["RL040"])
        for finding in report.findings:
            assert "set-order" in finding.message
            assert any(":17:" in step and "set constructed" in step
                       for step in finding.trace)


class TestProjectAndCallGraph:
    def _project(self, tmp_path, sources):
        paths = []
        for name, text in sources.items():
            p = tmp_path / name
            p.write_text(textwrap.dedent(text))
            paths.append(p)
        contexts = [_parse_file(p)[0] for p in paths]
        return build_project([c for c in contexts if c is not None])

    def test_resolution_follows_from_imports(self, tmp_path):
        project = self._project(tmp_path, {
            "a.py": "def helper():\n    return 1\n",
            "b.py": "from a import helper\n\n"
                    "def caller():\n    return helper()\n",
        })
        assert "a.helper" in project.functions
        b = project.modules["b"]
        name = ast.parse("helper", mode="eval").body
        assert project.resolve(b, name) == "a.helper"

    def test_call_graph_orders_callees_first(self, tmp_path):
        project = self._project(tmp_path, {
            "chain.py": "def low():\n    return 1\n\n"
                        "def mid():\n    return low()\n\n"
                        "def high():\n    return mid()\n",
        })
        graph = build_callgraph(project)
        order = [f.qualname for f in graph.bottom_up(project)
                 if f.qualname.startswith("chain.")]
        assert order.index("chain.low") < order.index("chain.mid")
        assert order.index("chain.mid") < order.index("chain.high")

    def test_recursion_does_not_hang(self, tmp_path):
        project = self._project(tmp_path, {
            "rec.py": "def ping():\n    return pong()\n\n"
                      "def pong():\n    return ping()\n",
        })
        graph = build_callgraph(project)
        order = [f.qualname for f in graph.bottom_up(project)]
        assert "rec.ping" in order and "rec.pong" in order


class TestRestrictTo:
    """Engine plumbing for ``--since``: the project still sees every
    file, but findings are reported only for the changed set."""

    def test_findings_limited_to_restricted_files(self, tmp_path):
        changed = tmp_path / "changed.py"
        unchanged = tmp_path / "unchanged.py"
        changed.write_text("import time\nA = time.time()\n")
        unchanged.write_text("import time\nB = time.time()\n")
        report = lint_paths(
            [changed, unchanged],
            rules=select_rules(select=["RL004"]),
            config=LintConfig(),
            restrict_to={changed.resolve().as_posix()})
        assert [f.path for f in report.findings] == \
            [changed.resolve().as_posix()]
        assert report.files_checked == 1

    def test_restricted_run_reports_no_stale_entries(self, tmp_path):
        # entries for files outside the changed set are unjudgeable,
        # not stale: a --since run must not cry wolf about them
        from repro.lint import Baseline
        changed = tmp_path / "changed.py"
        unchanged = tmp_path / "unchanged.py"
        changed.write_text("x = 1\n")
        unchanged.write_text("import time\nB = time.time()\n")
        base = Baseline([{"code": "RL004",
                          "path": unchanged.resolve().as_posix(),
                          "context": "B = time.time()",
                          "reason": "legacy"}])
        report = lint_paths(
            [changed, unchanged],
            rules=select_rules(select=["RL004"]),
            config=LintConfig(), baseline=base,
            restrict_to={changed.resolve().as_posix()})
        assert report.ok
        assert report.stale_baseline == []

    def test_dataflow_still_sees_excluded_files(self, tmp_path):
        # the source module changed; the sink module did not.  The
        # cross-module trace must still resolve through the sink.
        source = tmp_path / "srcmod.py"
        sink = tmp_path / "sinkmod.py"
        source.write_text(
            "from sinkmod import cache_key\n\n\n"
            "def write_key(members):\n"
            "    payload = {'m': set(members)}\n"
            "    return cache_key(payload)\n")
        sink.write_text(
            "import json\n\n\n"
            "def cache_key(payload):\n"
            "    return json.dumps(payload, default=list)\n")
        report = lint_paths(
            [source, sink],
            rules=select_rules(select=["RL040"]),
            config=LintConfig(),
            restrict_to={source.resolve().as_posix()})
        assert report.findings
        assert all(f.path.endswith("srcmod.py")
                   for f in report.findings)
        assert any("sinkmod.py" in step
                   for f in report.findings for step in f.trace)
