"""Run one workload in this process: set up, print READY, measure, print
one JSON line with the results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this in a fresh interpreter, so set-up time and peak
memory belong to the workload alone; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))  # the source tree, as the tests use it

import poset_ramsey  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from metrics import PER_LAYER, SOURCE_SPAN, SPAN_METRICS  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"

#: Percentiles op_tail_s may use; the highest with >= TAIL_BEYOND samples
#: above it is taken.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10

@dataclass
class Record:
    op: workloads.Op
    calls: list[workloads.Call]
    latency: float
    pass_index: int


@dataclass
class Phase:
    records: list[Record]
    wall: float
    passes: int


def measure(
    workload: workloads.Workload,
    seconds: float,
    first_pass: int = 0,
    tracer: tracing.Tracer | None = None,
    max_ops: int | None = None,
) -> Phase:
    """Closed loop, one client: whole passes, back to back.

    A new pass starts only if one more pass of the last pass's length still
    fits in ``seconds``, so every run issues each op of the pool equally
    often.  ``max_ops`` cuts the run short, for the self-test.
    """
    records: list[Record] = []
    index = first_pass
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in workload.pass_ops(index):
            if tracer is not None:
                tracer.op_id = len(records)
            t0 = time.perf_counter()
            calls = workload.run(op)
            records.append(Record(op, calls, time.perf_counter() - t0, index))
            if max_ops is not None and len(records) >= max_ops:
                return Phase(records, time.perf_counter() - start, index - first_pass + 1)
        now = time.perf_counter()
        index += 1
        if now - start + (now - pass_start) > seconds:
            return Phase(records, now - start, index - first_pass)


def evaluate(workload: workloads.Workload, records: list[Record]) -> dict:
    """Judge every op after the timed phase; collect work counts and drift."""
    failed = 0
    problems: list[str] = []
    totals: dict[str, int] = defaultdict(int)
    by_key: dict[str, dict[str, int]] = {}
    drift: list[str] = []
    first_pass = records[0].pass_index if records else 0
    first_pass_work = []
    for record in records:
        found, work = workload.check(record.op, record.calls)
        if found:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{record.op.key}: {found[0]}")
            continue
        for name, count in work.items():
            totals[name] += count
        seen = by_key.setdefault(record.op.key, work)
        if seen != work and len(drift) < 5:
            drift.append(f"{record.op.key}: {seen} then {work}")
        if record.pass_index == first_pass:
            first_pass_work.append((record.op.key, sorted(work.items())))
    digest = hashlib.sha256(json.dumps(sorted(first_pass_work)).encode()).hexdigest()[:16]
    return {
        "attempted": len(records),
        "failed": failed,
        "problems": problems,
        "drift": drift,
        "work_totals": dict(totals),
        "work_digest": digest,
    }


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    rank = (len(sorted_values) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def latency_metrics(phase: Phase) -> dict:
    latencies = sorted(r.latency for r in phase.records)
    count = len(latencies)
    tail_pct = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            tail_pct = pct
    return {
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, tail_pct),
        "op_tail_pct": tail_pct,
        "ops_per_s": count / phase.wall,
        "samples": count,
        "passes": phase.passes,
        "wall_s": phase.wall,
    }


def peak_rss_mb() -> float:
    """ru_maxrss of this process (KiB on Linux) in MB of 2^20 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per_op(totals: dict[str, int], name: str, ops: int) -> float:
    return totals.get(name, 0) / ops if ops else 0.0


def layer_metrics(
    tracer: tracing.Tracer, evaluation: dict, untraced: dict, traced: dict, ops: int
) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced phase, and the names found absent."""
    calls, busy, own, extra = tracer.calls, tracer.busy, tracer.self_time, tracer.extra

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values: dict[str, float] = {}
    for span, items in SPAN_METRICS:
        for suffix, _ in items:
            values[f"{span}.{suffix}"] = {
                "calls": calls.get(span, 0),
                "busy_s": busy.get(span, 0.0),
                "self_s": own.get(span, 0.0),
                "us_per_call": ratio(busy.get(span, 0.0) * 1e6, calls.get(span, 0)),
            }[suffix]
    values["kernels.witness_search.nodes"] = extra.get("kernels.witness_search.nodes", 0)
    for group in ("sym", "plain", "N4", "N5", "N6"):
        values[f"kernels.witness_search.{group}.nodes_per_s"] = ratio(
            extra.get(f"kernels.witness_search.{group}.nodes", 0),
            extra.get(f"kernels.witness_search.{group}.busy_s", 0.0),
        )
    values["kernels.find_induced_copy.found_ratio"] = ratio(
        extra.get("kernels.find_induced_copy.found", 0), calls.get("kernels.find_induced_copy", 0)
    )
    for name in ("search.dims_closed", "search.witnesses", "bounds.scan_steps"):
        values[name] = extra.get(name, 0)
    totals = evaluation["work_totals"]
    for outcome in ("spindle", "contradiction", "cover", "red"):
        values[f"extract.outcome.{outcome}"] = totals.get(f"outcome.{outcome}", 0)
    # every certify op is one extract, so this is also certificates per op
    values["extract.certified_ratio"] = _per_op(totals, "certificates", ops)
    values["work.nodes_per_op"] = _per_op(totals, "nodes", ops)
    values["work.k_star_per_op"] = _per_op(totals, "k_star", ops)
    values["work.orderings_per_op"] = _per_op(totals, "orderings", ops)
    values["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    values["trace.traced_ops_per_s"] = traced["ops_per_s"]
    values["trace.ops_per_s_ratio"] = ratio(traced["ops_per_s"], untraced["ops_per_s"])
    absent = [name for name, _ in PER_LAYER if SOURCE_SPAN.get(name) in tracer.absent]
    return {name: values[name] for name, _ in PER_LAYER if name not in absent}, absent


def run(args: argparse.Namespace, workdir: Path) -> dict | None:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up layers (input generation) show in the trace
    workload.setup()
    for argv in workload.warmup_argvs():
        workloads.call_cli(argv)
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return None

    result = {"workload": args.workload, "seed": args.seed, "backend": poset_ramsey.kernel_backend()}
    if tracer is None:
        phase = measure(workload, args.seconds)
        evaluation = evaluate(workload, phase.records)
        result["latency"] = latency_metrics(phase)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        # a third untraced, then the traced rest: their ratio is the overhead
        plain = measure(workload, args.seconds / 3)
        tracer.install()
        phase = measure(workload, args.seconds * 2 / 3, plain.passes, tracer)
        tracer.uninstall()
        records = plain.records + phase.records
        evaluation = evaluate(workload, records)
        traced = latency_metrics(phase)
        result["latency"] = traced
        layers, absent = layer_metrics(
            tracer, evaluation, latency_metrics(plain), traced, len(records)
        )
        result["layers"] = layers
        result["absent"] = absent
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    result.update(evaluation)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
