"""Committed baseline of grandfathered findings.

The baseline lets the CI gate demand *zero new* findings while known,
deliberate ones stay documented in one reviewable file.  Entries match
on ``(code, path, context)`` — the stripped source line — rather than
line numbers, so unrelated edits above a grandfathered site do not
invalidate it.  Matching normalizes internal whitespace (runs collapse
to one space), so a formatting-only reflow cannot orphan an entry;
entries whose stored context matched only through that normalization
are reported as *drifted* (refresh the text), separately from *stale*
entries that match nothing at all (delete them).  Every entry carries
a mandatory ``reason``.

File format (JSON, sorted keys, one entry per kept finding)::

    {
      "schema": 2,
      "entries": [
        {"code": "RL003", "path": "src/repro/datacenter/builder.py",
         "context": "rng = np.random.default_rng()",
         "reason": "documented convenience fallback; callers pass ..."}
      ]
    }

Schema history: 1 — exact-context matching (PR 4); 2 — whitespace-
normalized matching plus the drift report (schema-1 files load
unchanged; the entry shape is identical).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.lint.findings import Finding

__all__ = ["Baseline", "load_baseline", "normalize_context",
           "write_baseline"]

BASELINE_SCHEMA = 2

#: Schemas :func:`load_baseline` accepts; 1 migrates transparently (the
#: entry shape never changed, only the matching semantics).
_COMPATIBLE_SCHEMAS = (1, 2)


def normalize_context(text: str) -> str:
    """Whitespace-insensitive form of a context line.

    Collapses every run of whitespace to a single space and strips the
    ends, so a ruff reflow (indentation shifts, spaces around
    operators) cannot orphan a baseline entry.
    """
    return " ".join(text.split())


class Baseline:
    """Multiset of grandfathered findings keyed on (code, path, context).

    Context matching is whitespace-normalized; exact-text matches are
    preferred when both an exact and a reflowed candidate exist, so the
    drift report never fires spuriously on duplicated entries.
    """

    def __init__(self, entries: list[dict[str, str]]) -> None:
        self.entries = entries
        self._budget: Counter[tuple[str, str, str]] = Counter(
            self._key_of(e) for e in entries)
        self._used: Counter[tuple[str, str, str]] = Counter()
        self._exact: Counter[tuple[str, str, str]] = Counter(
            (e["code"], e["path"], e["context"]) for e in entries)
        self._drift: dict[tuple[str, str, str], str] = {}

    @staticmethod
    def _key_of(entry: dict[str, str]) -> tuple[str, str, str]:
        return (entry["code"], entry["path"],
                normalize_context(entry["context"]))

    @staticmethod
    def _key_for(finding: Finding) -> tuple[str, str, str]:
        return (finding.code, finding.path,
                normalize_context(finding.context))

    def absorb(self, finding: Finding) -> bool:
        """Consume one matching entry; False when none remains."""
        key = self._key_for(finding)
        if self._used[key] < self._budget[key]:
            self._used[key] += 1
            exact = (finding.code, finding.path, finding.context)
            if self._exact[exact] == 0:
                self._drift.setdefault(key, finding.context)
            return True
        return False

    def stale_entries(self, codes: set[str] | None = None,
                      paths: set[str] | None = None
                      ) -> list[dict[str, str]]:
        """Entries that matched no finding this run (fixed meanwhile).

        ``codes`` and ``paths``, when given, limit the verdict to entries
        of those rules and files: the ones the run actually checked.
        """
        leftover = self._budget - self._used
        stale: list[dict[str, str]] = []
        seen: Counter[tuple[str, str, str]] = Counter()
        for entry in self.entries:
            if (codes is not None and entry["code"] not in codes) \
                    or (paths is not None and entry["path"] not in paths):
                continue
            key = self._key_of(entry)
            if seen[key] < leftover[key]:
                seen[key] += 1
                stale.append(entry)
        return stale

    def drifted_entries(self) -> list[dict[str, str]]:
        """Entries that matched only after whitespace normalization.

        The finding is still grandfathered — these are housekeeping
        notices, not failures.  Each row pairs the stored context with
        the reflowed source text so the refresh is a copy-paste.
        """
        out: list[dict[str, str]] = []
        emitted: set[tuple[str, str, str]] = set()
        for entry in self.entries:
            key = self._key_of(entry)
            if key in self._drift and key not in emitted:
                emitted.add(key)
                out.append({"code": entry["code"], "path": entry["path"],
                            "context": entry["context"],
                            "found_context": self._drift[key]})
        return out


def load_baseline(path: str | Path) -> Baseline:
    """Read a baseline file; a missing file is an empty baseline."""
    p = Path(path)
    if not p.exists():
        return Baseline([])
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable baseline {p}: {exc}") from exc
    if doc.get("schema") not in _COMPATIBLE_SCHEMAS:
        raise ValueError(
            f"baseline {p}: unsupported schema {doc.get('schema')!r} "
            f"(supported: {', '.join(map(str, _COMPATIBLE_SCHEMAS))})")
    entries = doc.get("entries", [])
    for entry in entries:
        missing = {"code", "path", "context", "reason"} - set(entry)
        if missing:
            raise ValueError(
                f"baseline {p}: entry {entry!r} missing {sorted(missing)}")
    return Baseline(list(entries))


def write_baseline(findings: list[Finding], path: str | Path,
                   reason: str = "TODO: justify this exemption") -> None:
    """Write every finding as a baseline entry (the adoption workflow).

    Reasons default to a marker that reviewers are expected to replace
    — a baseline entry without a real justification defeats its point.
    """
    entries = [
        {"code": f.code, "path": f.path, "context": f.context,
         "reason": reason}
        for f in sorted(findings)
    ]
    doc = {"schema": BASELINE_SCHEMA, "entries": entries}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
