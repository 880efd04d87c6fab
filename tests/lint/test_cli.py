"""CLI behavior: exit codes, formats, selection, error handling."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import Baseline, LintConfig, lint_paths, select_rules
from repro.lint.cli import main as lint_main

FIXDIR = str(Path(__file__).parent / "fixtures")


def run(capsys, argv):
    code = lint_main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys, tmp_path):
        mod = tmp_path / "ok.py"
        mod.write_text("x = 1\n")
        code, out, _ = run(capsys, [str(mod), "--no-baseline"])
        assert code == 0
        assert "0 findings" in out

    @pytest.mark.parametrize("name", [
        "rl001_bad.py", "rl002_bad.py", "rl003_bad.py", "rl004_bad.py",
        "rl010_bad.py", "rl011_bad.py", "rl020_bad.py", "rl021_bad.py",
        "rl022_bad.py",
    ])
    def test_every_bad_fixture_fails(self, capsys, name):
        code, out, _ = run(capsys, [f"{FIXDIR}/{name}", "--no-baseline"])
        assert code == 1
        assert name.split("_")[0].upper() in out

    def test_unknown_rule_code_is_usage_error(self, capsys):
        code, _, err = run(capsys, [FIXDIR, "--select", "RL999",
                                    "--no-baseline"])
        assert code == 2
        assert "unknown rule code" in err

    def test_missing_path_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["definitely/not/here",
                                    "--no-baseline"])
        assert code == 2

    def test_syntax_error_reported_as_rl000(self, capsys, tmp_path):
        mod = tmp_path / "broken.py"
        mod.write_text("def f(:\n")
        code, out, _ = run(capsys, [str(mod), "--no-baseline"])
        assert code == 1
        assert "RL000" in out


class TestFormats:
    def test_json_format_schema(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl004_bad.py",
                                    "--format", "json", "--no-baseline"])
        doc = json.loads(out)
        assert doc["schema"] == 3 and doc["ok"] is False
        assert [f["line"] for f in doc["findings"]
                if f["code"] == "RL004"] == [9, 10]

    def test_github_format_annotations(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl004_bad.py",
                                    "--format", "github", "--no-baseline"])
        lines = out.splitlines()
        assert any(line.startswith("::error file=") and "RL004" in line
                   for line in lines)

    def test_text_format_is_compiler_style(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl004_bad.py",
                                    "--no-baseline"])
        assert any(line.split(":")[1:3] == ["9", "9"] or ":9:" in line
                   for line in out.splitlines())


class TestSelection:
    def test_select_runs_only_that_rule(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl003_bad.py",
                                    "--select", "RL004", "--no-baseline"])
        assert code == 0          # file has RL003 sins, not RL004

    def test_ignore_drops_a_rule(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl004_bad.py",
                                    "--ignore", "RL004", "--no-baseline"])
        assert code == 0

    def test_list_rules(self, capsys):
        code, out, _ = run(capsys, ["--list-rules"])
        assert code == 0
        for expected in ("RL001", "RL011", "RL022"):
            assert expected in out


class TestWriteBaseline:
    def test_write_baseline_then_clean(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        code, out, _ = run(capsys, [f"{FIXDIR}/rl004_bad.py",
                                    "--baseline", str(baseline),
                                    "--write-baseline"])
        assert code == 0 and baseline.exists()
        code, out, _ = run(capsys, [f"{FIXDIR}/rl004_bad.py",
                                    "--baseline", str(baseline)])
        assert code == 0
        assert "2 baselined" in out


class TestSpanTaxonomy:
    def test_copy_of_src_without_the_doc_is_clean(self, capsys, tmp_path):
        """RL022 checks span names against docs/OBSERVABILITY.md only:
        a copy of ``src/`` with no doc above it has no table to check
        against, so documented spans must not be reported."""
        src = Path(__file__).parents[2] / "src"
        shutil.copytree(src, tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = run(capsys, [str(tmp_path / "src"),
                                    "--select", "RL022", "--no-baseline"])
        assert code == 0
        assert out.startswith("0 findings")


class TestRetiredOptions:
    def test_analysis_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main([f"{FIXDIR}/rl004_bad.py", "--analysis", "ast",
                       "--no-baseline"])
        assert exc.value.code == 2
        assert "--analysis" in capsys.readouterr().err


class TestSince:
    @staticmethod
    def _git(cwd, *cmd):
        import subprocess
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *cmd],
            cwd=cwd, check=True, capture_output=True)

    def test_since_restricts_reported_files(self, capsys, tmp_path,
                                            monkeypatch):
        old = tmp_path / "old.py"
        new = tmp_path / "new.py"
        old.write_text("import time\nSTAMP = time.time()\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "old.py")
        self._git(tmp_path, "commit", "-qm", "seed")
        new.write_text("import time\nSTAMP = time.time()\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, [str(old), str(new),
                                    "--since", "HEAD", "--no-baseline"])
        assert code == 1
        assert "new.py" in out and "old.py" not in out
        assert "1 files checked" in out

    def test_since_bad_revision_is_usage_error(self, capsys, tmp_path,
                                               monkeypatch):
        mod = tmp_path / "ok.py"
        mod.write_text("x = 1\n")
        self._git(tmp_path, "init", "-q")
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, [str(mod), "--since", "nope",
                                    "--no-baseline"])
        assert code == 2
        assert "git" in err


class TestRestrictTo:
    """Engine plumbing for ``--since``: findings and the files count
    cover only the changed set."""

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


class TestStaleBaseline:
    """A baseline entry is judged stale only when its rule ran and its
    file was checked."""

    REPO = Path(__file__).parents[2]

    def _stale(self, capsys, monkeypatch, argv, baseline):
        monkeypatch.chdir(self.REPO)
        code, out, _ = run(capsys, [*argv, "--baseline", str(baseline),
                                    "--format", "json"])
        return code, json.loads(out)["stale_baseline"]

    def test_unselected_rule_entries_are_not_stale(self, capsys,
                                                   monkeypatch):
        code, stale = self._stale(capsys, monkeypatch,
                                  ["src", "--select", "RL002"],
                                  "lint-baseline.json")
        assert code == 0
        assert stale == []

    def test_unchecked_file_entries_are_not_stale(self, capsys,
                                                  monkeypatch):
        code, stale = self._stale(
            capsys, monkeypatch,
            ["tests/lint/fixtures/pr3_cache_split.py", "--select", "RL002"],
            "lint-baseline.json")
        assert code == 1            # the fixture's own RL002 finding
        assert stale == []

    def test_checked_entry_without_a_finding_is_stale(self, capsys,
                                                      monkeypatch, tmp_path):
        doc = json.loads((self.REPO / "lint-baseline.json").read_text())
        gone = {"code": "RL003", "path": "src/repro/datacenter/builder.py",
                "context": "rng = np.random.default_rng(0)",
                "reason": "an entry whose finding was fixed meanwhile"}
        doc["entries"].append(gone)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(doc))
        code, stale = self._stale(capsys, monkeypatch,
                                  ["src/repro/datacenter", "--select",
                                   "RL003"], baseline)
        assert code == 0
        assert stale == [gone]


class TestMainCliIntegration:
    def test_repro_lint_subcommand(self, capsys):
        code = repro_main(["lint", f"{FIXDIR}/rl004_bad.py",
                           "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL004" in out
