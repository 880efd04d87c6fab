"""Per-layer metrics of a traced run.

Every traced second is attributed to the layer of the innermost span
covering it, read from the span paths.  A span's layer comes
from its name: the benchmark's spans are named after the public
function they wrap, the program's spans follow the taxonomy in
``docs/OBSERVABILITY.md``, and an ``lp`` span belongs to the layer of
its ``lp`` attribute.  An ``lp`` name missing from :data:`LP_LAYERS` is
an error, so a new LP shows up in the ledger instead of disappearing
into its parent; any other unknown span inherits its parent's layer.

Layer times are reported as shares of the traced wall time
(``trace.wall_s``): a layer a workload never enters reads 0 %.
Counters come from the metrics registry snapshot.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["LAYERS", "LP_LAYERS", "BENCHMARK_SPANS", "SPAN_LAYERS",
           "attribute", "per_layer_metrics"]

#: Layers in report order.
LAYERS = ("generate", "baseline", "solve", "stage1", "stage2", "stage3",
          "zonal", "guard", "transient", "thermal", "serve", "mpc", "chaos",
          "des", "control", "demand", "check")

#: The benchmark's own spans -> layer: the public entry points it calls,
#: plus ``demand`` and ``check`` for its input generation and checks.
BENCHMARK_SPANS = {
    "generate_scenario": "generate", "build_datacenter": "generate",
    "generate_workload": "generate",
    "total_power": "generate", "run_comparison": "baseline",
    "solve": "solve", "verify": "check", "attach_zonal_thermal": "zonal",
    "solve_stage1_zonal": "zonal", "convert_power_to_pstates": "stage2",
    "solve_stage3": "stage3", "serve_trace": "serve",
    "sweep_control": "control", "demand": "demand", "check": "check",
}

#: Every span name -> layer: the benchmark's, then the program's.
SPAN_LAYERS = {
    **BENCHMARK_SPANS,
    "three_stage": "solve", "stage1": "stage1", "stage2": "stage2",
    "stage3": "stage3", "stage1_zonal": "zonal",
    "transient_guard": "guard", "transient": "transient",
    "steady_state_batch": "thermal", "serve": "serve",
    "serve.tick": "serve", "mpc": "mpc", "lookahead": "mpc",
    "interval": "chaos", "replan": "chaos", "epoch": "control",
    "des_replay": "des",
}

#: ``lp`` span attribute -> layer.
LP_LAYERS = {
    "interference-feasibility": "generate", "baseline": "baseline",
    "stage1": "stage1", "stage3": "stage3", "stage1_zone": "zonal",
    "stage1_zonal_master": "zonal",
}


def _rooted_paths(spans: list[dict]) -> list[str]:
    """Each record's path, with merged capture blocks re-rooted.

    ``parallel_map`` runs each item of a traced sweep in its own capture
    and appends the item's records afterwards, rooted at the item (and
    timed from the capture's own clock).  Such a record's path starts
    with a program span, never a benchmark one; it belongs under the
    benchmark root span that was open at the merge, which is the next
    root record in exit order.
    """
    paths: list[str] = []
    pending: list[int] = []
    for i, rec in enumerate(spans):
        path = rec["path"]
        paths.append(path)
        if path.split(".", 1)[0] not in BENCHMARK_SPANS:
            pending.append(i)
        elif path == rec["name"]:
            for j in pending:
                paths[j] = f"{path}.{paths[j]}"
            pending.clear()
    return paths


def attribute(spans: list[dict]) -> dict:
    """Exclusive seconds per layer, ``lp`` seconds per LP name, seconds
    covered by root spans, per-name span counts, and errors.

    Records aggregate by path, as in the obs profile tree: a path's
    self time is its total minus its children's totals.
    """
    total = defaultdict(float)
    child_s = defaultdict(float)
    name_of: dict[str, str] = {}
    layer_s = defaultdict(float)
    lp_s = defaultdict(float)
    names = defaultdict(int)
    unknown_lps: set[str] = set()
    covered = 0.0
    for rec, path in zip(spans, _rooted_paths(spans)):
        name = rec["name"]
        names[name] += 1
        if path == name:
            covered += rec["dur"]
        else:
            child_s[path[:-len(name) - 1]] += rec["dur"]
        if name == "lp":
            lp = rec.get("attrs", {}).get("lp")
            lp_s[lp] += rec["dur"]
            if lp in LP_LAYERS:
                layer_s[LP_LAYERS[lp]] += rec["dur"]
            else:
                unknown_lps.add(str(lp))
        else:
            total[path] += rec["dur"]
            name_of[path] = name
    layer_of: dict[str, str | None] = {}
    for path in sorted(total, key=len):
        name = name_of[path]
        parent = None if path == name else path[:-len(name) - 1]
        layer = SPAN_LAYERS.get(name, layer_of.get(parent))
        layer_of[path] = layer
        if layer is not None:
            layer_s[layer] += max(0.0, total[path] - child_s[path])
    errors = [f"lp span {lp!r} maps to no layer"
              for lp in sorted(unknown_lps)]
    return {"layer_s": dict(layer_s), "lp_s": dict(lp_s),
            "covered_s": covered, "names": dict(names), "errors": errors}


def _count(metrics: dict, name: str) -> float:
    doc = metrics.get(name)
    if doc is None:
        return 0
    if doc["kind"] == "histogram":
        return doc["count"]
    return doc["value"]


def _mean(metrics: dict, name: str) -> float:
    doc = metrics.get(name)
    if doc is None or not doc["count"]:
        return 0.0
    return doc["total"] / doc["count"]


def per_layer_metrics(snapshot: dict, wall_s: float, notes: dict
                      ) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of one traced run, and attribution errors.

    ``wall_s`` is the traced region's wall time; ``notes`` the
    workload's notes (``plan`` supplies the redline binding share).
    """
    att = attribute(snapshot["spans"])
    m = snapshot["metrics"]
    layer_s, lp_s = att["layer_s"], att["lp_s"]

    def pct(seconds: float) -> float:
        return 100.0 * seconds / wall_s

    out: dict[str, float] = {f"{layer}.pct": pct(layer_s.get(layer, 0.0))
                             for layer in LAYERS}
    for layer, lp in (("generate", "interference-feasibility"),
                      ("baseline", "baseline"), ("stage1", "stage1"),
                      ("stage3", "stage3")):
        out[f"{layer}.lp_pct"] = pct(lp_s.get(lp, 0.0))
    out["zonal.lp_pct"] = pct(lp_s.get("stage1_zone", 0.0)
                              + lp_s.get("stage1_zonal_master", 0.0))
    out["stage1.self_pct"] = out["stage1.pct"] - out["stage1.lp_pct"]
    thermal_build = sum(r["dur"] for r in snapshot["spans"]
                        if r["name"] == "attach_zonal_thermal")
    out["zonal.thermal_build_pct"] = pct(thermal_build)

    probes = _count(m, "stage1.probes")
    infeasible = _count(m, "stage1.infeasible_probes")
    des_tasks = (_count(m, "des.tasks_completed")
                 + _count(m, "des.tasks_dropped"))
    des_s = layer_s.get("des", 0.0)
    out.update({
        "generate.lp_solves": _count(m, "lp.solves.interference-feasibility"),
        "generate.lp_infeasible":
            _count(m, "lp.infeasible.interference-feasibility"),
        "generate.lp_vars": _mean(m, "lp.vars.interference-feasibility"),
        "baseline.lp_solves": _count(m, "lp.solves.baseline"),
        "solve.warm_none": _count(m, "solve.warm_level.none"),
        "solve.warm_structure": _count(m, "solve.warm_level.structure"),
        "solve.warm_stage1": _count(m, "solve.warm_level.stage1"),
        "solve.warm_request": _count(m, "solve.warm_level.request"),
        "solve.replays": _count(m, "solve.replays"),
        "stage2.reuses": _count(m, "stage2.reuses"),
        "stage1.lp_solves": _count(m, "lp.solves.stage1"),
        "stage1.lp_warm_hits": _count(m, "lp.warm_hits.stage1"),
        "stage1.probes": probes,
        "stage1.infeasible_probes": infeasible,
        "stage1.useful_probe_ratio":
            (probes - infeasible) / probes if probes else 0.0,
        "stage1.lp_vars": _mean(m, "lp.vars.stage1"),
        "stage1.lp_rows": _mean(m, "lp.constraints.stage1"),
        "stage1.redline_bound_share": notes.get("redline_bound_share", 0.0),
        "stage3.lp_solves": _count(m, "lp.solves.stage3"),
        "stage3.classes": _mean(m, "stage3.classes"),
        "zonal.lp_solves": (_count(m, "lp.solves.stage1_zone")
                            + _count(m, "lp.solves.stage1_zonal_master")),
        "zonal.sweeps": _count(m, "stage1.zonal_sweeps"),
        "zonal.cuts": _count(m, "stage1.zonal_cuts"),
        "guard.derates": _count(m, "controller.derates"),
        "transient.calls": att["names"].get("transient", 0),
        "thermal.steady_state_calls": _count(m, "thermal.steady_state_calls"),
        "serve.ticks": _count(m, "serve.ticks"),
        "serve.shed_tasks": _count(m, "serve.shed_tasks"),
        "mpc.decisions": _count(m, "mpc.decisions"),
        "mpc.lookahead_solves": _count(m, "mpc.lookahead_solves"),
        "mpc.precools": _count(m, "mpc.precools"),
        "chaos.replans": _count(m, "chaos.replans"),
        "chaos.censored_rebuilds": _count(m, "thermal.censored_rebuilds"),
        "chaos.censored_cache_hits": _count(m, "thermal.censored_cache_hits"),
        "des.replays": _count(m, "des.replays"),
        "des.tasks": des_tasks,
        "des.tasks_dropped": _count(m, "des.tasks_dropped"),
        "des.tasks_per_s": des_tasks / des_s if des_s else 0.0,
        "trace.wall_s": wall_s,
        "trace.unattributed_pct": pct(wall_s - att["covered_s"]),
    })
    return out, att["errors"]
