"""Self-test of the benchmark: every metric is emitted with its unit, the
oracles catch planted faults, work counts repeat, and tracing degrades to
"absent" instead of crashing.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import poset_ramsey  # noqa: E402
from poset_ramsey import cli, extract  # noqa: E402


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["exact_scan", "bound_eval", "certify"])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    meta = json.loads(lines[-2])["meta"]
    for key in ("kernel_backend", "git_rev", "python", "nproc", "seed", "ops", "op_tail_percentile"):
        assert key in meta
    if not trace:
        printed = {line.split(" = ")[0] for line in lines if " = " in line}
        assert printed == {name for name, _ in metrics.END_TO_END} | {"failed_frac"}


def _evaluate_one_pass(workload: workloads.Workload) -> dict:
    workload.workdir.mkdir(exist_ok=True)
    workload.setup()
    phase = worker.measure(workload, 0.0)
    return worker.evaluate(workload, phase.records)


def test_planted_wrong_expected_value_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "EXACT_POOL", [
        (("--chain", "2"), 1, 2, "formula", (False,)),
        (("--chain", "2"), 2, 4, "planted wrong value", (False,)),  # truly 3
    ])
    monkeypatch.setattr(workloads, "WITNESS_POOL", [])
    evaluation = _evaluate_one_pass(workloads.ExactScan(1, tmp_path))
    assert evaluation["attempted"] == 2 and evaluation["failed"] == 1
    assert "planted wrong value" in evaluation["problems"][0]


def test_planted_tampered_certificate_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CERTIFY_CELLS", [("chain", 3, 3, workloads.Fraction(7, 8), ())])
    monkeypatch.setattr(workloads, "COLORINGS_PER_CELL", 1)
    genuine = extract.certificate_to_json_dict

    def tampered(cert):
        data = genuine(cert)
        data["vertices"] = data["vertices"][::-1]  # no longer ascends
        return json.dumps(data)

    clean = _evaluate_one_pass(workloads.Certify(1, tmp_path / "a"))
    assert clean["failed"] == 0
    monkeypatch.setattr(extract, "certificate_to_json", tampered)
    evaluation = _evaluate_one_pass(workloads.Certify(1, tmp_path / "b"))
    assert evaluation["failed"] == 1
    assert "expected 0" in evaluation["problems"][0]


@pytest.mark.parametrize("name", ["exact_scan", "bound_eval", "certify"])
def test_work_counts_repeat_for_one_seed(tmp_path, name):
    digests = []
    for attempt in ("a", "b"):
        (tmp_path / attempt).mkdir()
        workload = workloads.WORKLOADS[name](3, tmp_path / attempt)
        workload.setup()
        phase = worker.measure(workload, 0.0, max_ops=12)
        evaluation = worker.evaluate(workload, phase.records)
        assert evaluation["failed"] == 0, evaluation["problems"]
        digests.append((evaluation["work_digest"], evaluation["work_totals"]))
    assert digests[0] == digests[1]


def test_clear_oracle_rejects_a_wrong_partition():
    bits = 0b1011  # dimension 2: vertices 0, 1, 3 blue
    good = {"blue": [0, 1, 3], "p1_clear": [True, False, True], "p2_clear": [True, True, True],
            "green": [0, 3], "yellow": [1, 2]}
    assert workloads.check_clear(good, 2, bits) == []
    assert workloads.check_clear(dict(good, yellow=[1]), 2, bits)
    assert workloads.check_clear(dict(good, p2_clear=[True]), 2, bits)


def test_missing_trace_target_is_absent_not_a_crash(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_TARGETS", tracing.SPAN_TARGETS + [
        ("search.gone", "poset_ramsey.search", "no_such_function"),
        ("nowhere.gone", "poset_ramsey.no_such_module", "f"),
    ])
    original = cli.ramsey_exact
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.ramsey_exact is not original
        assert workloads.call_cli(["exact", "--chain", "2", "--n", "1", "--json"]).code == 0
    finally:
        tracer.uninstall()
    assert cli.ramsey_exact is original
    assert tracer.absent == ["search.gone", "nowhere.gone"]
    assert tracer.calls["search.ramsey_exact"] == 1
    assert tracer.calls["cli.main"] == 1
    assert tracer.extra["search.witnesses"] == 1  # N = 1 has a witness, N = 2 closes
    assert poset_ramsey.kernel_backend()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run_bench(tmp_path, "--workload", "exact_scan", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
