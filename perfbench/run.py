"""Benchmark of the ``ramsey`` CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exact_scan|bound_eval|certify \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``, as the
tests import it.  Each workload runs in a fresh interpreter (``worker.py``),
so its set-up time and peak memory are its own.  A plain run (``--trace 0``)
first starts SETUP_RUNS - 1 set-up-only interpreters, then the measuring
one, and reports the median set-up time of all of them with the end-to-end
metrics.  A traced run (``--trace 1``) reports the per-layer metrics, the
tracing overhead, and writes its spans under ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit and sample count, the run's
metadata, and any failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "poset_ramsey" / "__init__.py"

WORKLOAD_NAMES = ("exact_scan", "bound_eval", "certify")

#: Interpreters whose set-up time makes the setup_s median.
SETUP_RUNS = 5

#: Wall-clock limit for the whole run, under the 180 s a run may take.
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start worker.py; return (seconds until it printed READY, its result)."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready = None
    last = ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - started
            elif line.strip():
                last = line
    except BaseException:
        proc.kill()  # do not leave a worker running behind an interrupted launcher
        raise
    finally:
        watchdog.cancel()
        watchdog.join()
        proc.stdout.close()
        code = proc.wait()
        # a killed worker cannot remove its own inputs
        shutil.rmtree(ROOT / ".perfbench_out" / f"work-{proc.pid}", ignore_errors=True)
    if code != 0 or ready is None:
        raise WorkerError(f"worker exited with code {code}")
    if setup_only:
        return ready, None
    try:
        return ready, json.loads(last)
    except json.JSONDecodeError:
        raise WorkerError("worker printed no result") from None


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setup_times = []
    try:
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup_times.append(run_worker(args, True, deadline)[0])
        ready, result = run_worker(args, False, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_times.append(ready)

    latency = result["latency"]
    attempted = result["attempted"]
    failed = result["failed"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_backend": result["backend"],
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops": latency["samples"],
        "passes": latency["passes"],
        "measured_s": latency["wall_s"],
        "op_tail_percentile": latency["op_tail_pct"],
        "work_totals": result["work_totals"],
        "work_digest": result["work_digest"],
    }
    if args.trace:
        layers = result["layers"]
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER if name in layers}
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        for name in result["absent"]:
            print(f"{name} = absent")
        meta["absent_metrics"] = result["absent"]
        meta["spans_file"] = result["spans_file"]
    else:
        values = {
            "setup_s": (statistics.median(setup_times), len(setup_times)),
            "op_p50_s": (latency["op_p50_s"], latency["samples"]),
            "op_tail_s": (latency["op_tail_s"], latency["samples"]),
            "ops_per_s": (latency["ops_per_s"], latency["samples"]),
            "peak_rss_mb": (result["peak_rss_mb"], 1),
            "failed_frac": (failed / attempted, attempted),
        }
        units = dict(END_TO_END, failed_frac="ratio")
        for name, (value, samples) in values.items():
            print(f"{name} = {value:.6g} {units[name]} (n={samples})")
        meta["setup_samples_s"] = setup_times
        metrics = {name: (values[name][0], unit) for name, unit in END_TO_END}
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    for drift in result["drift"]:
        print(f"benchmark error: work-count drift: {drift}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and not result["drift"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
