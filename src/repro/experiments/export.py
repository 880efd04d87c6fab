"""CSV export of experiment series (for external plotting tools).

Each exporter emits exactly the series a figure plots — one row per
bar/point, plain CSV, no third-party dependencies — so the paper's
figures can be regenerated in any plotting stack from the committed
artifacts.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.experiments.runner import SetResult
from repro.experiments.sweeps import CapSweepPoint

__all__ = ["fig6_csv", "capacity_csv", "write_csv"]


def fig6_csv(results: dict[str, SetResult]) -> str:
    """Figure 6 series: one row per (set, psi-label) bar with CI bounds."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["set", "static_fraction", "v_prop", "label",
                     "mean_improvement_pct", "ci_low", "ci_high",
                     "n_runs"])
    for name, res in results.items():
        cfg = res.config
        for label, ci in res.intervals.items():
            writer.writerow([
                name, cfg.static_fraction, cfg.v_prop, label,
                f"{ci.mean:.6f}", f"{ci.low:.6f}", f"{ci.high:.6f}",
                len(res.runs),
            ])
    return buf.getvalue()


def _cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def capacity_csv(points: list[CapSweepPoint]) -> str:
    """Capacity-planning series: one row per power cap.

    Undefined values (no baseline, the last point's marginal) are empty
    cells.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["p_const_kw", "reward_three_stage", "reward_baseline",
                     "improvement_pct", "power_used_kw",
                     "marginal_reward_per_kw"])
    for p in points:
        writer.writerow([
            f"{p.p_const:.6f}", f"{p.reward_three_stage:.6f}",
            _cell(p.reward_baseline), _cell(p.improvement_pct),
            f"{p.power_used_kw:.6f}", _cell(p.marginal_reward_per_kw),
        ])
    return buf.getvalue()


def write_csv(content: str, path: str | Path) -> None:
    """Write exporter output to a file."""
    Path(path).write_text(content)
