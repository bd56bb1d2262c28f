"""The biquo benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0

Every pass runs in a fresh interpreter (``worker.py``), as every ``biquo``
CLI call does, single-threaded and serial, and repeats the run's one
input.  Passes repeat until the next one would overrun ``--seconds``.

Other tenants of a shared machine only ever add time, and their load
comes in bursts: on a 2-vCPU KVM guest, the median time of a fixed 10 ms
task moved between 11.6 and 17.2 ms across 10 s windows while its minimum
stayed at 10.4-10.6 ms in 10 of 11 windows, and whole 2 s passes of one
input ranged from 2.1 to 3.6 s.  So a time metric sums, over the public
calls a pass makes, each call's fastest time across the run's passes;
set-up time is the median of many fresh imports.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` passes alternate traced and untraced and the
last line holds the per-layer metrics and the tracing overhead.  The line
before it records the conditions of the run.  Every output is checked
against a reference; the exit code is 0 only when all of them agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS = HERE / "out" / "spans"

SETUP_SAMPLES = 5
MIN_PASSES = 3
# A pass takes seconds; a hung one must not keep the run past 180 s.
PASS_TIMEOUT_S = 90
# One interpreter per pass on 2 shared cores: keep numpy's BLAS pool to one
# thread so it does not compete with the measured process.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_worker(job: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(job)],
            cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the pass
        return {"crashed": f"pass exceeded {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": f"exit {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(lines[-1])


def pass_job(args, spec: dict, index: int, trace: bool, spans: Path | None = None) -> dict:
    return {
        "workload": args.workload,
        "spec": spec,
        "trace": trace,
        "spans": str(spans) if spans else None,
        "request": f"{args.workload}:{args.seed}:{index}",
    }


def measure(args) -> tuple[list[dict], list[dict]]:
    """Timed passes until the next would overrun; returns (traced, untraced)."""
    spec = workloads.inputs(args.workload, args.seed)
    spans = SPANS / args.workload
    if args.trace:
        shutil.rmtree(spans, ignore_errors=True)
        spans.mkdir(parents=True)
    traced, plain = [], []
    walls: list[float] = []
    start = time.monotonic()
    while True:
        index = len(walls)
        with_trace = bool(args.trace) and index % 2 == 0
        out = spans / f"seed{args.seed}.jsonl" if with_trace and not traced else None
        t0 = time.monotonic()
        result = run_worker(pass_job(args, spec, index, with_trace, out))
        walls.append(time.monotonic() - t0)
        (traced if with_trace else plain).append(result)
        if "crashed" in result:
            return traced, plain
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        elapsed = time.monotonic() - start
        if enough and elapsed + statistics.median(walls) > args.seconds:
            return traced, plain


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def fastest(passes: list[dict], units: str) -> float:
    """Sum over the named calls of each call's fastest time in the passes."""
    return sum(min(p["units"][name] for p in passes) for name in passes[0][units])


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(statistics.median(p["rss_mb"] for p in passes), "MB"),
        "items_per_s": metric(passes[0]["items"] / fastest(passes, "item_units"), "1/s"),
        "pass_s": metric(fastest(passes, "pass_units"), "s"),
    }


def _calls(result: dict) -> dict:
    return {k: v for k, v in result["layers"].items() if k.endswith(".calls")}


def per_layer(workload: str, traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and any broken trace invariant."""
    first = traced[0]["layers"]
    metrics = {}
    for name in tracer.layer_metric_names():
        if name.endswith(".self_s"):
            metrics[name] = metric(min(p["layers"][name] for p in traced), "s")
        elif name.endswith(".calls"):
            metrics[name] = metric(first[name], "count")
        else:
            metrics[name] = metric(first[name], "ratio")
    traced_s = fastest(traced, "pass_units")
    plain_s = fastest(plain, "pass_units")
    metrics["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    metrics["trace.overhead_frac"] = metric(traced_s / plain_s - 1, "ratio")
    metrics["trace.items"] = metric(traced[0]["items"], "count")

    broken = []
    if any(_calls(p) != _calls(traced[0]) for p in traced):
        broken.append("call counts differ between traced passes of one input")
    if workload == "scan":
        # Only t1 rows take cube classes (two each) and no family reaches
        # nodal; a name the tracer failed to rebind would break these counts.
        nodal = {k: v for k, v in _calls(traced[0]).items() if k.startswith("nodal.")}
        if any(nodal.values()):
            broken.append(f"scan reached nodal: {nodal}")
        families = traced[0]["family_rows"]
        if first["report.scan.calls"] != len(families):
            broken.append(f"report.scan traced {first['report.scan.calls']} times")
        cube = first["arith.cube_class_mod_q.calls"]
        if cube != 2 * families["t1"]:
            broken.append(f"cube_class_mod_q calls {cube} != 2 x {families['t1']} t1 rows")
    return metrics, broken


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "biquo").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def record(args, passes: list[dict], setup: list[float], checked: list[dict]) -> dict:
    rec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "setup_samples": len(setup),
        "passes": len(passes),
        "pass_s_samples": [sum(p["units"][n] for n in p["pass_units"]) for p in passes],
        "scan_radii": workloads.SCAN_RADII,
        "ring_ranks": list(workloads.RING_RANKS),
        "ring_rank_checked_once": workloads.CHECKED_RANK,
        "ring_entries": workloads.RING_ENTRIES,
        "pipeline": f"{workloads.PIPELINE_ITEMS} (b1, c1) in "
                    f"[-{workloads.PIPELINE_RADIUS}, {workloads.PIPELINE_RADIUS}]^2 from the seed",
    }
    if not passes:
        return rec
    if args.workload == "scan":
        rec["seed_effect"] = "none: the grids are fixed by the golden radii"
        for family, rows in passes[0]["family_rows"].items():
            rec[f"{family}_rows"] = rows
            rec[f"{family}_rows_per_s"] = rows / sum(
                min(p["units"][name] for p in passes)
                for name in passes[0]["pass_units"] if name.startswith(f"{family}.")
            )
    if args.workload == "ring":
        for k in workloads.RING_RANKS:
            rec[f"ring_rank{k}_s"] = sum(
                min(p["units"][name] for p in passes)
                for name in passes[0]["pass_units"] if name.startswith(f"rank{k}.")
            )
        for p in checked:
            if "units" in p:
                rec[f"ring_rank{workloads.CHECKED_RANK}_s"] = sum(
                    dt for name, dt in p["units"].items()
                    if name.startswith(f"rank{workloads.CHECKED_RANK}.")
                )
        times = [p["units"][name] for p in passes for name in p["item_units"]]
        rec["pipeline_samples"] = len(times)
        rec["pipeline_p50_ms"] = 1e3 * percentile(times, 0.50)
        rec["pipeline_p99_ms"] = 1e3 * percentile(times, 0.99)
    if args.workload == "verify":
        rec["verify_seeds"] = {
            "timed": "the suite default",
            "checked": [s["verify_seed"] for s in workloads.checked_inputs("verify", args.seed)],
        }
    return rec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "biquo" / "__init__.py").is_file():
        print(f"error: no biquo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    warm = run_worker({"workload": "setup"})  # writes bytecode; not a sample
    if "crashed" in warm:
        print(f"error: cannot import biquo: {warm['crashed']}", file=sys.stderr)
        return 2
    setup = [run_worker({"workload": "setup"}) for _ in range(SETUP_SAMPLES)]
    checked = [
        run_worker(pass_job(args, spec, -1, False))
        for spec in workloads.checked_inputs(args.workload, args.seed)
    ]
    traced, plain = measure(args)
    passes = traced + plain
    runs = setup + checked + passes
    crashed = [p["crashed"] for p in runs if "crashed" in p]
    import_s = [p["import_s"] for p in runs if "import_s" in p]

    attempted = sum(p.get("attempted", 1) for p in checked + passes)
    failed = sum(p.get("failed", 1) for p in checked + passes)
    errors = crashed + [e for p in checked + passes for e in p.get("errors", [])]
    if crashed:
        metrics = {}
    elif args.trace:
        metrics, broken = per_layer(args.workload, traced, plain)
        attempted += len(broken) + 1
        failed += len(broken)
        errors += broken
    else:
        metrics = end_to_end(plain, import_s)

    rec = record(args, [p for p in passes if "crashed" not in p], import_s, checked)
    rec["failed_frac"] = failed / attempted
    rec["errors"] = errors[:10]
    print(json.dumps({"record": rec}))
    correct = failed == 0 and not crashed
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
