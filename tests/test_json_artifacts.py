"""Every JSON file in the repository is strict RFC 8259 JSON.

Python's :mod:`json` reads and writes ``NaN``, ``Infinity`` and
``-Infinity`` by default, but they are not JSON, and strict parsers
(``jq``, browsers, most other languages) reject the whole file.
Artifacts that may hold a non-finite value write ``null`` instead.
"""

import json
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _committed_json() -> list[Path]:
    try:
        out = subprocess.run(["git", "ls-files", "-z", "*.json"], cwd=REPO,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return []
    names = [n for n in out.stdout.split("\0") if n]
    return [REPO / n for n in sorted(names) if (REPO / n).is_file()]


COMMITTED_JSON = _committed_json()
needs_git = pytest.mark.skipif(
    not COMMITTED_JSON, reason="needs a git checkout to list committed files")


def _reject(constant: str):
    raise ValueError(f"non-standard JSON constant {constant}")


@needs_git
def test_repository_has_json_files():
    assert any(p.name == "BENCHMARK.json" for p in COMMITTED_JSON)


@needs_git
@pytest.mark.parametrize(
    "path", COMMITTED_JSON, ids=lambda p: str(p.relative_to(REPO)))
def test_json_file_is_strict(path):
    json.loads(path.read_text(), parse_constant=_reject)
