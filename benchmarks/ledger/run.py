"""Performance ledger: end-to-end and per-layer metrics of five workloads.

One workload, one mode, one process (the benchmark contract)::

    python3 benchmarks/ledger/run.py --workload plan --seed 1 \\
        --seconds 5 --trace 0

prints the metrics as a table, then, as its last line, one strict JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics with tracing off; ``--trace 1`` traces
the same work and reports the per-layer metrics.  Metric names and
units are those declared in ``BENCHMARK.json`` at the repository root.

The whole ledger::

    python3 benchmarks/ledger/run.py --seed 1

runs every workload in its own fresh process, untraced and then traced,
prints both tables, checks that the traced run reproduced the untraced
run's outputs byte for byte, and writes
``benchmarks/ledger/out/ledger-seed1.json``.  See README.md.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("fig6", "plan", "zonal", "serve", "control")

#: A traced run fails when more than this share of its wall time lies
#: outside every benchmark span.
MAX_UNATTRIBUTED_PCT = 5.0

#: glibc's ``mallopt`` parameter for the mmap threshold (malloc.h).
M_MMAP_THRESHOLD = -3

#: Allocations of this many bytes or more get their own mapping.
MMAP_THRESHOLD = 1 << 20


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout that "
              "holds the program's sources", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _fix_mmap_threshold() -> None:
    """Make glibc map every allocation of :data:`MMAP_THRESHOLD` bytes
    or more on its own, so that freeing it returns it to the system.

    By default glibc raises that threshold to the size of each large
    block freed (up to 32 MB), after which such blocks come from the
    heap and stay resident once freed, depending on allocation order:
    the peak resident set of the same three zonal plans varied from
    386 MB to 420 MB; with a fixed threshold it repeats within 0.2 MB.
    Without glibc this does nothing.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def _source_digest() -> str:
    """Hash of the program's and the benchmark's sources: outputs are
    compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def declared() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    ``BENCHMARK.json``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in doc[kind]}
            for kind in ("end_to_end", "per_layer")}


def dumps(doc, **kwargs) -> str:
    """Strict RFC 8259 JSON: non-finite floats become ``null``."""
    from workloads import strict

    return json.dumps(strict(doc), allow_nan=False, **kwargs)


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None) -> dict:
    """Run one workload in this process and return its report."""
    _import_program()
    import layers
    import workloads
    from repro import obs

    fn = workloads.WORKLOADS[name]
    snapshot = None
    t0 = time.perf_counter()
    if trace:
        with obs.capture() as snap_fn:
            outcome = fn(seed, seconds, **(sizes or {}))
        wall_s = time.perf_counter() - t0
        snapshot = snap_fn()
    else:
        outcome = fn(seed, seconds, **(sizes or {}))
    errors = list(outcome.errors)
    if snapshot is None:
        imports_s = t0 - T_START
        metrics = {
            "setup_s": imports_s + (float(statistics.median(outcome.setup_s))
                                    if outcome.setup_s else 0.0),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "reward_rate": outcome.reward_rate,
        }
    else:
        metrics, attribution_errors = layers.per_layer_metrics(
            snapshot, wall_s, outcome.notes)
        errors += attribution_errors
        if metrics["trace.unattributed_pct"] > MAX_UNATTRIBUTED_PCT:
            errors.append(
                f"{metrics['trace.unattributed_pct']:.1f}% of the traced "
                "wall time is outside every benchmark span "
                f"(limit {MAX_UNATTRIBUTED_PCT}%)")
    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "source": _source_digest(),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "ops": outcome.ops, "op_s": outcome.op_s,
        "ops_per_s": float(statistics.median(outcome.rates)),
        "setup_repeats_s": outcome.setup_s,
        "metrics": metrics, "outputs": outcome.outputs,
        "notes": outcome.notes, "errors": errors,
    }
    if snapshot is not None:
        report["profile"] = obs.profile_to_dict(
            obs.profile_from_snapshot(snapshot))
        report["obs_metrics"] = snapshot["metrics"]
        report["snapshot"] = snapshot
    report["correct"] = not errors and outcome.failed == 0
    return report


def compare_outputs(untraced: dict, traced: dict) -> list[str]:
    """Errors where the traced run's outputs differ from the untraced
    run's, over the operations both completed."""
    pairs = zip(untraced["outputs"], traced["outputs"])
    return [f"{traced['workload']}: operation {k} output differs between "
            "the untraced and the traced run"
            for k, (a, b) in enumerate(pairs) if a != b]


def result_line(report: dict, units: dict[str, str]) -> str:
    """The contract's last line: correctness, counts, metrics + units."""
    if set(report["metrics"]) != set(units):
        raise ValueError(
            f"metrics {sorted(set(report['metrics']) ^ set(units))} differ "
            "from BENCHMARK.json")
    metrics = {name: {"value": report["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return dumps({"correct": report["correct"],
                  "attempted": report["attempted"],
                  "failed": report["failed"], "metrics": metrics})


def _report_path(name: str, seed: int, trace: int) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def _print_table(title: str, metrics: dict, units: dict[str, str]) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:<30}{metrics[name]:>16.6g}  {unit}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """The contract mode: measure, check, write the report, print."""
    report = measure(name, seed, seconds, trace)
    kind = "per_layer" if trace else "end_to_end"
    units = declared()[kind]
    other = _report_path(name, seed, 1 - int(trace))
    if other.is_file():
        prior = json.loads(other.read_text())
        if prior["source"] == report["source"]:
            pair = (report, prior) if not trace else (prior, report)
            report["errors"] += compare_outputs(*pair)
            report["correct"] = report["correct"] and not report["errors"]
    OUT.mkdir(exist_ok=True)
    snapshot = report.pop("snapshot", None)
    if snapshot is not None:
        from repro import obs
        from workloads import strict

        obs.write_events_jsonl(OUT / f"{name}-seed{seed}.jsonl",
                               snapshot=strict(snapshot),
                               meta={"workload": name, "seed": seed})
    _report_path(name, seed, int(trace)).write_text(
        dumps(report, indent=1, sort_keys=True) + "\n")
    _print_table(f"{name} (seed {seed}, {kind.replace('_', '-')}, "
                 f"{report['ops']} operations at a median "
                 f"{report['ops_per_s']:.4g}/s, not gated)",
                 report["metrics"], units)
    for error in report["errors"]:
        print(f"  ERROR {error}")
    print(result_line(report, units))
    return 0 if report["correct"] else 1


def ledger(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    units = declared()
    reports: dict[str, dict] = {}
    status = 0
    for name in NAMES:
        # the traced run compares its outputs with the fresh untraced
        # report; a stale pair would be compared by the untraced run too
        for trace in (0, 1):
            _report_path(name, seed, trace).unlink(missing_ok=True)
        pair = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if proc.returncode not in (0, 1) \
                    or not _report_path(name, seed, trace).is_file():
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{name}: trace {trace} run exited with status "
                      f"{proc.returncode}")
                status = 1
                break
            pair.append(json.loads(
                _report_path(name, seed, trace).read_text()))
        if len(pair) < 2:
            continue
        untraced, traced = pair
        errors = untraced["errors"] + traced["errors"]
        overhead = float("nan")
        if traced["ops"] and untraced["ops"]:
            overhead = 100.0 * (
                sum(traced["op_s"]) / traced["ops"]
                / (sum(untraced["op_s"]) / untraced["ops"]) - 1.0)
        reports[name] = {"end_to_end": untraced["metrics"],
                         "per_layer": traced["metrics"],
                         "ops_per_s": untraced["ops_per_s"],
                         "trace_overhead_pct": overhead,
                         "attempted": untraced["attempted"],
                         "failed": untraced["failed"] + traced["failed"],
                         "notes": untraced["notes"], "errors": errors}
        print()
        _print_table(f"{name}: end to end (tracing off, "
                     f"{untraced['ops']} operations at a median "
                     f"{untraced['ops_per_s']:.4g}/s, not gated)",
                     untraced["metrics"], units["end_to_end"])
        _print_table(f"{name}: per layer (traced, overhead "
                     f"{overhead:+.1f}%)", traced["metrics"],
                     units["per_layer"])
        for error in errors:
            print(f"  ERROR {error}")
        if errors or untraced["failed"] or traced["failed"]:
            status = 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"ledger-seed{seed}.json"
    path.write_text(dumps({"schema": 1, "seed": seed, "seconds": seconds,
                           "units": units, "workloads": reports},
                          indent=1, sort_keys=True) + "\n")
    print(f"\nwritten to {path.relative_to(ROOT)}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES,
                        help="run one workload (default: the whole ledger)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="measured time per run (default 5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics")
    args = parser.parse_args(argv)
    # one thread per process: OpenBLAS would otherwise start one per
    # core; set before the program (and numpy) is first imported
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _fix_mmap_threshold()
    _import_program()
    if args.workload is None:
        return ledger(args.seed, args.seconds)
    # a fresh, empty working directory, removed afterwards: nothing the
    # program writes there can make a later run's set-up look fast
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as cwd:
        os.chdir(cwd)
        try:
            return run_one(args.workload, args.seed, args.seconds,
                           bool(args.trace))
        finally:
            os.chdir(ROOT)


if __name__ == "__main__":
    sys.exit(main())
