"""Export, aggregation and cross-process merge for :mod:`repro.obs`.

Two artifacts come out of a traced run:

* an **event log** — one JSON object per line (``--trace-out``):
  a ``meta`` header, every finished span in exit order, and a final
  ``metrics`` line with the registry snapshot.  The format round-trips:
  :func:`read_events_jsonl` reconstructs exactly what
  :func:`write_events_jsonl` wrote.
* a **profile tree** — spans aggregated by dotted path
  (:func:`build_profile`): per node the call count, total/min/max wall
  time, and children.  ``repro profile`` renders it, and
  ``repro profile --json`` emits it as nested objects.

Worker processes ship their spans back as snapshots
(:meth:`repro.obs.trace.Tracer.snapshot`); :func:`merge_snapshot` folds
one into the live global state.  Merging is *append + add*, so the
merged profile tree's structure (paths and counts) depends only on the
merge order, which the experiment engine fixes to seed order — a sweep
therefore profiles bit-identically (up to measured durations) for any
``--jobs`` value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = ["ProfileNode", "build_profile", "profile_from_snapshot",
           "write_events_jsonl", "read_events_jsonl", "merge_snapshot",
           "obs_snapshot", "render_profile", "render_metrics",
           "profile_to_dict"]


class ProfileNode:
    """One aggregated span path in the profile tree."""

    __slots__ = ("name", "count", "total_s", "min_s", "max_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = float("-inf")
        self.children: dict[str, ProfileNode] = {}

    def observe(self, dur: float) -> None:
        self.count += 1
        self.total_s += dur
        if dur < self.min_s:
            self.min_s = dur
        if dur > self.max_s:
            self.max_s = dur

    @property
    def child_total_s(self) -> float:
        return sum(c.total_s for c in self.children.values())

    @property
    def self_s(self) -> float:
        """Time in this span not covered by child spans (>= 0 clamped)."""
        return max(0.0, self.total_s - self.child_total_s)

    def structure(self) -> dict:
        """Timing-free view (paths + counts) — the part that must be
        identical across worker counts for the same sweep."""
        return {
            "name": self.name,
            "count": self.count,
            "children": {k: c.structure()
                         for k, c in sorted(self.children.items())},
        }


def build_profile(spans: list[dict]) -> ProfileNode:
    """Aggregate span records into a profile tree rooted at ``"total"``.

    Every record lands on the tree node addressed by its dotted
    ``path``; intermediate nodes that never closed a span themselves
    (e.g. a parent that only appears via children) still exist with
    ``count == 0``.
    """
    root = ProfileNode("total")
    for rec in spans:
        node = root
        for part in rec["path"].split("."):
            nxt = node.children.get(part)
            if nxt is None:
                nxt = ProfileNode(part)
                node.children[part] = nxt
            node = nxt
        node.observe(float(rec["dur"]))
    # the synthetic root spans the union of its top-level children
    root.count = sum(c.count for c in root.children.values())
    root.total_s = root.child_total_s
    return root


def _finite_or_none(value: float) -> float | None:
    """``value`` if finite, else ``None`` (JSON ``null``): a node that
    observed no duration — the synthetic root aggregates its children's
    counts but observes none — keeps an infinite ``min_s``/``max_s``,
    which strict RFC 8259 JSON cannot hold."""
    return value if math.isfinite(value) else None


def profile_to_dict(node: ProfileNode) -> dict:
    return {
        "name": node.name,
        "count": node.count,
        "total_s": node.total_s,
        "self_s": node.self_s,
        "min_s": _finite_or_none(node.min_s),
        "max_s": _finite_or_none(node.max_s),
        "children": {k: profile_to_dict(c)
                     for k, c in sorted(node.children.items())},
    }


# ----------------------------------------------------------------------
def obs_snapshot() -> dict:
    """Spans + metrics of the live global state, picklable/JSON-able."""
    return {
        "schema": 1,
        "spans": _trace.current_tracer().snapshot()["spans"],
        "metrics": _metrics.current_registry().snapshot(),
    }


def merge_snapshot(snapshot: dict) -> None:
    """Fold a worker's (or capture's) snapshot into the global state.

    Call sites needing determinism must fix the merge order themselves;
    the experiment engine merges in seed order, ``parallel_map`` in item
    order.
    """
    _trace.current_tracer().merge(snapshot)
    _metrics.current_registry().merge(snapshot.get("metrics", {}))


def write_events_jsonl(path: str | Path, *, snapshot: dict | None = None,
                       meta: dict | None = None) -> int:
    """Write the event log; returns the number of span lines written."""
    snap = obs_snapshot() if snapshot is None else snapshot
    spans = snap.get("spans", [])
    out = Path(path)
    with out.open("w") as fh:
        header = {"kind": "meta", "schema": 1}
        if meta:
            header.update(meta)
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in spans:
            doc = {"kind": "span"}
            doc.update(rec)
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
        fh.write(json.dumps({"kind": "metrics",
                             "metrics": snap.get("metrics", {})},
                            sort_keys=True) + "\n")
    return len(spans)


def read_events_jsonl(path: str | Path) -> dict:
    """Parse an event log back into ``{"spans": [...], "metrics": {...},
    "meta": {...}}`` (the inverse of :func:`write_events_jsonl`)."""
    spans: list[dict] = []
    metrics: dict = {}
    meta: dict = {}
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not valid JSON ({exc})") from exc
            kind = doc.pop("kind", None)
            if kind == "span":
                spans.append(doc)
            elif kind == "metrics":
                metrics = doc.get("metrics", {})
            elif kind == "meta":
                meta = doc
            else:
                raise ValueError(
                    f"{path}:{line_no}: unknown event kind {kind!r}")
    return {"schema": 1, "spans": spans, "metrics": metrics, "meta": meta}


# ----------------------------------------------------------------------
def render_profile(root: ProfileNode, *, min_total_s: float = 0.0,
                   indent: str = "  ") -> str:
    """Human-readable profile tree, children sorted by total time."""
    lines = [f"{'span':<44}{'calls':>8}{'total s':>10}{'self s':>10}"
             f"{'mean ms':>10}"]

    def walk(node: ProfileNode, depth: int) -> None:
        label = indent * depth + node.name
        mean_ms = node.total_s / node.count * 1e3 if node.count else 0.0
        lines.append(f"{label:<44}{node.count:>8d}{node.total_s:>10.3f}"
                     f"{node.self_s:>10.3f}{mean_ms:>10.2f}")
        children = sorted(node.children.values(),
                          key=lambda c: (-c.total_s, c.name))
        for child in children:
            if child.total_s >= min_total_s:
                walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def render_metrics(metrics: dict) -> str:
    """Fixed-width text dump of a metrics snapshot."""
    if not metrics:
        return "(no metrics recorded)"
    lines = [f"{'metric':<44}{'kind':>10}  value"]
    for name, doc in sorted(metrics.items()):
        kind = doc.get("kind", "?")
        if kind == "histogram":
            count = doc["count"]
            mean = doc["total"] / count if count else 0.0
            value = (f"count={count} mean={mean:.4g} "
                     f"min={doc['min']} max={doc['max']}")
        else:
            value = f"{doc.get('value')}"
        lines.append(f"{name:<44}{kind:>10}  {value}")
    return "\n".join(lines)


def profile_from_snapshot(snapshot: dict) -> ProfileNode:
    """Profile tree of one snapshot (``obs_snapshot`` or a parsed log)."""
    return build_profile(snapshot.get("spans", []))
