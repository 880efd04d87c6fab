"""CLI behavior: exit codes, formats, selection, error handling."""

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
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
        "rl022_bad.py", "rl030_bad.py", "rl031_bad.py", "rl040_bad.py",
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
        assert doc["schema"] == 2 and doc["ok"] is False
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


class TestAnalysisTiers:
    def test_ast_tier_skips_dataflow_rules(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl040_bad.py",
                                    "--select", "RL040",
                                    "--analysis", "ast", "--no-baseline"])
        assert code == 0
        assert "RL040" not in out

    def test_dataflow_tier_skips_ast_rules(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl004_bad.py",
                                    "--select", "RL004",
                                    "--analysis", "dataflow",
                                    "--no-baseline"])
        assert code == 0

    def test_all_tier_runs_both(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl040_bad.py",
                                    "--select", "RL004,RL040",
                                    "--analysis", "all", "--no-baseline"])
        assert code == 1
        assert "RL004" in out and "RL040" in out

    def test_trace_lines_in_text_output(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl040_bad.py",
                                    "--select", "RL040", "--no-baseline"])
        assert code == 1
        assert "    trace:" in out

    def test_trace_in_github_annotations(self, capsys):
        code, out, _ = run(capsys, [f"{FIXDIR}/rl040_bad.py",
                                    "--select", "RL040",
                                    "--format", "github", "--no-baseline"])
        assert any(line.startswith("::error") and "trace" in line
                   for line in out.splitlines())


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


class TestMainCliIntegration:
    def test_repro_lint_subcommand(self, capsys):
        code = repro_main(["lint", f"{FIXDIR}/rl004_bad.py",
                           "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RL004" in out
