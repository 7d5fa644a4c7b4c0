"""The benchmark's own tests (not collected by the package's test run).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from deltaconvex import independence
from deltaconvex.independence import InvariantResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt(fn):
    def wrong(g, max_size=None):
        res = fn(g, max_size)
        return InvariantResult(res.value, frozenset(range(res.value)), res.exhaustive,
                               res.search_bound_used)
    return wrong


def test_wrong_extremal_set_is_counted_as_failed(monkeypatch):
    ref = workloads.load_reference()
    clean = workloads.run_ops(
        workloads.build_search_product(0, "tiny", ref, tracing.NullTracer()), tracing.NullTracer()
    )
    assert clean.failed == 0
    monkeypatch.setattr(independence, "exchange_number", _corrupt(independence.exchange_number))
    res = workloads.run_ops(
        workloads.build_search_product(0, "tiny", ref, tracing.NullTracer()), tracing.NullTracer()
    )
    assert res.attempted == clean.attempted
    assert res.failed == 1 and "gc3xP2.e" in res.failures[0]


def test_raising_operation_is_counted_as_failed(monkeypatch):
    def broken(g, max_size=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(independence, "caratheodory_number", broken)
    ops = workloads.build_search_product(0, "tiny", workloads.load_reference(), tracing.NullTracer())
    res = workloads.run_ops(ops, tracing.NullTracer())
    assert res.attempted == len(ops) and res.failed == 1 and "boom" in res.failures[0]


def _report(failing: list[str], fail: int) -> bytes:
    rows = [json.dumps({"theorem_id": t, "status": "fail"}) for t in failing]
    return ("\n".join(rows + [json.dumps({"summary": {"fail": fail}})]) + "\n").encode()


def test_verify_report_checks_reject_changed_bytes_rows_and_exit_code():
    good = _report(["cart_pn_e_eq"] * 3, 3)
    assert workloads.check_report(1, good, workloads.report_digest(good)) is None
    assert workloads.check_report(0, good, None) is not None
    assert workloads.check_report(1, good, workloads.report_digest(good + b" ")) is not None
    assert workloads.check_report(1, _report(["cart_pn_e_eq", "lex_e", "cart_pn_e_eq"], 3), None) is not None


def test_hull_checks_reject_a_non_closed_or_apex_hull():
    gadgets, _ = workloads.closure_inputs(0, "tiny", tracing.NullTracer())
    g, chain, apex = gadgets[0]
    everything = frozenset(range(g.n))
    assert workloads.check_hull(g, chain, everything, None) is None
    assert workloads.check_hull(g, chain, chain, None) is not None  # not convex
    assert workloads.check_hull(g, chain, everything, apex) is not None


def _inputs(seed: int):
    searches = [(label, g.n, g.edges, kind) for label, g, kind, _ in workloads.search_instances(seed, "full")]
    gadgets, chordals = workloads.closure_inputs(seed, "tiny", tracing.NullTracer())
    closure = [(g.edges, sorted(chain), apex) for g, chain, apex in gadgets] + [g.edges for g in chordals]
    order = [op.label for op in workloads.build_hull_closure(seed, "tiny", tracing.NullTracer())]
    return searches, closure, order, workloads.verify_seeds(seed, "full")


def test_latency_pass_runs_only_the_short_searches():
    ref = workloads.load_reference()
    every = workloads.build_search_product(0, "full", ref, tracing.NullTracer())
    short = workloads.build_search_product(0, "full", ref, tracing.NullTracer(), latency=True)
    assert {op.label for op in short} == workloads.LATENCY_OPS["full"]
    assert workloads.LATENCY_OPS["full"] < {op.label for op in every}


def test_same_seed_gives_identical_inputs():
    assert _inputs(5) == _inputs(5)
    assert _inputs(5) != _inputs(6)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    import run

    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert run.tail([float(i) for i in range(12)]) == (11.0, 100.0, 12)


def test_without_package_source_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "hull-closure", "--seed", "0", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
