import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from deltaconvex import verifier
from deltaconvex.families import (
    block_chain,
    block_tree,
    complete,
    gadget_c,
    path,
    two_connected_chordal,
)
from deltaconvex.verifier import (
    SuiteConfig,
    build_corpus,
    covered_theorem_ids,
    run_suite,
    verify_family,
    verify_graph_universal,
    verify_products,
    write_report,
)

def _by_id(checks, tid):
    return [c for c in checks if c.theorem_id == tid]


def test_universal_checks_pass_on_small_graphs():
    cfg = SuiteConfig()
    for inst in (path(5), complete(4), gadget_c(3)):
        rows = verify_graph_universal(inst, cfg)
        assert {r.theorem_id for r in rows} == {
            "sierksma", "cara_triangle_bound", "exch_triangle_bound", "cara_prop_iii",
        }
        assert all(r.status in ("pass", "flagged") for r in rows)


def test_universal_checks_skip_over_budget():
    # K6 exceeds a budget of 3 on both tiers (n and triangle vertices)
    rows = verify_graph_universal(complete(6), SuiteConfig(budget=3))
    assert all(r.status == "skipped" for r in rows)
    assert all("over budget" in r.reason for r in rows)
    # a triangle-free graph over the vertex budget still qualifies through
    # the small-pruned-space tier
    rows = verify_graph_universal(path(5), SuiteConfig(budget=3))
    assert all(r.status in ("pass", "flagged") for r in rows)


def test_family_checks():
    cfg = SuiteConfig()
    rows = verify_family(block_chain([3, 3, 3]), cfg)
    assert [(r.theorem_id, r.status) for r in rows] == [
        ("block_c_i", "pass"),
        ("block_e_i", "pass"),
    ]
    rows = verify_family(block_tree([[3], [3], [3]]), cfg)
    assert [(r.theorem_id, r.status) for r in rows] == [
        ("block_c_ii", "pass"),
        ("block_e_ii", "pass"),
    ]
    rows = verify_family(two_connected_chordal(8, 1), cfg)
    ids = [r.theorem_id for r in rows]
    assert ids == ["chordal_c2", "chordal_e23", "hull2_chordal"]
    assert all(r.status == "pass" for r in rows)


def test_family_checks_skip_over_budget():
    rows = verify_family(block_chain([3, 3, 3]), SuiteConfig(budget=3))
    assert [(r.theorem_id, r.observed, r.status, r.reason) for r in rows] == [
        ("block_c_i", "not computed", "skipped", "over budget (n=7, budget=3)"),
        ("block_e_i", "not computed", "skipped", "over budget (n=7, budget=3)"),
    ]
    rows = verify_family(two_connected_chordal(8, 1), SuiteConfig(budget=0))
    assert [(r.theorem_id, r.observed, r.status, r.reason) for r in rows] == [
        ("chordal_c2", "not computed", "skipped", "over budget (n=8, budget=0)"),
        ("chordal_e23", "not computed", "skipped", "over budget (n=8, budget=0)"),
        ("hull2_chordal", "not computed", "skipped", "budget is 0"),
    ]


def test_product_checks_cartesian_lower_bounds():
    cfg = SuiteConfig()
    gc3 = gadget_c(3)
    rows = verify_products(gc3, gc3, "cartesian", cfg)
    by = {r.theorem_id: r for r in rows}
    assert by["cart_e_lb"].status == "pass"
    assert "witness size 5" in by["cart_e_lb"].observed
    assert by["cart_c_lb"].status == "pass"
    assert "witness size 9" in by["cart_c_lb"].observed
    # neither factor is a path, so the path equality does not apply
    assert by["cart_pn_e_eq"].status == "hypothesis_unmet"


def test_product_search_over_cost_limit_is_skipped(monkeypatch):
    # gc3 box P4 (20 vertices) meets the path equality's hypothesis, but its
    # e-search would test 616,665 candidate subsets; only factors are searched
    searched = []
    for name in ("caratheodory_number", "exchange_number"):
        search = getattr(verifier, name)
        monkeypatch.setattr(verifier, name, lambda g, f=search: searched.append(g.n) or f(g))
    rows = verify_products(gadget_c(3), path(4), "cartesian", SuiteConfig())
    by = {r.theorem_id: r for r in rows}
    assert by["cart_pn_e_eq"].status == "skipped"
    assert by["cart_pn_e_eq"].reason == "search cost 616665 over limit 200000"
    assert searched and 20 not in searched


def test_product_checks_path_equalities():
    cfg = SuiteConfig()
    rows = verify_products(gadget_c(4), path(2), "cartesian", cfg)
    by = {r.theorem_id: r for r in rows}
    # the Caratheodory equality holds; the exchange equality is refuted by
    # brute force and must be reported as a failure with its counterexample
    assert by["cart_pn_c_eq"].status == "pass"
    assert by["cart_pn_e_eq"].status == "fail"
    assert "extremal set" in by["cart_pn_e_eq"].reason


def test_product_checks_strong_and_lex():
    cfg = SuiteConfig()
    rows = verify_products(path(4), path(2), "strong", cfg)
    by = {r.theorem_id: r for r in rows}
    assert by["strong_e3_strict"].status == "pass"
    assert by["strong_e3_weak"].status == "pass"
    assert by["strong_lex_c2"].status == "pass"

    rows = verify_products(path(3), path(2), "strong", cfg)
    by = {r.theorem_id: r for r in rows}
    assert by["strong_e3_strict"].status == "hypothesis_unmet"
    assert by["strong_e3_weak"].status == "pass"

    rows = verify_products(complete(3), complete(3), "lexicographic", cfg)
    by = {r.theorem_id: r for r in rows}
    assert by["lex_e"].status == "pass" and "e=2" in by["lex_e"].observed
    rows = verify_products(complete(3), path(4), "lexicographic", cfg)
    by = {r.theorem_id: r for r in rows}
    assert by["lex_e"].status == "pass" and "e=3" in by["lex_e"].observed


def test_run_suite_counts_and_failures():
    report = run_suite(SuiteConfig())
    s = report.summary
    assert s["total"] == s["pass"] + s["fail"] + s["skipped"] + s["hypothesis_unmet"] + s["flagged"]
    # the only failures are the brute-force refutations of the path-product
    # exchange equality
    failing = [c for c in report.checks if c.status == "fail"]
    assert failing and all(c.theorem_id == "cart_pn_e_eq" for c in failing)


def test_run_suite_covers_every_theorem_id():
    report = run_suite(SuiteConfig())
    expected = {
        "sierksma", "cara_triangle_bound", "exch_triangle_bound", "cara_prop_iii",
        "triangle_free_c1", "triangle_free_e2", "complete_c2", "complete_e2",
        "block_c_i", "block_e_i", "block_c_ii", "block_e_ii",
        "block_c_iii", "block_e_iii",
        "chordal_c2", "chordal_e23", "hull2_chordal",
        "gadget_c_exact", "gadget_e_exact",
        "cart_e_lb", "cart_c_lb", "cart_pn_e_eq", "cart_pn_c_eq",
        "strong_e3_strict", "strong_e3_weak", "strong_lex_c2", "lex_e",
    }
    assert expected <= covered_theorem_ids(report.checks)


def test_run_suite_deterministic_across_jobs():
    r1 = run_suite(SuiteConfig())
    r2 = run_suite(SuiteConfig(jobs=3))
    assert r1.lines() == r2.lines()


def _blocks_config(jobs: int = 1) -> SuiteConfig:
    """The 9-task ``blocks`` suite: cheap enough to fork for."""
    return SuiteConfig(suites=("blocks",), jobs=jobs)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_suite_starts_no_more_workers_than_tasks(monkeypatch):
    forks = []
    real_fork = os.fork

    def recording_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    config = _blocks_config()
    tasks = len(verifier._collect_tasks(config, build_corpus(config.seed)))
    assert tasks > 2
    serial = run_suite(config).lines()
    assert not forks
    for jobs, workers in ((1000, tasks), (2, 2)):
        report = run_suite(_blocks_config(jobs))
        # the caller is one of the workers
        assert len(forks) == workers - 1
        forks.clear()
        assert report.lines() == serial
    _assert_no_child_left()


def _in_children_only(monkeypatch, fail):
    """Make ``verify_family`` call ``fail()`` in forked children only."""
    caller = os.getpid()
    real = verifier.verify_family

    def verify_family(inst, config):
        if os.getpid() != caller:
            fail()
        return real(inst, config)

    monkeypatch.setattr(verifier, "verify_family", verify_family)


def test_run_suite_raises_a_child_exception_again(monkeypatch):
    def fail():
        raise ValueError("broken in a child")

    _in_children_only(monkeypatch, fail)
    with pytest.raises(ValueError, match="broken in a child") as info:
        run_suite(_blocks_config(jobs=2))
    assert "Traceback" in str(info.value.__cause__)
    _assert_no_child_left()


def test_run_suite_carries_an_unpicklable_child_exception_as_text(monkeypatch):
    class LocalError(Exception):
        """Defined in a function, so pickle cannot find it by name."""

    def fail():
        raise LocalError("only the traceback survives")

    _in_children_only(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="only the traceback survives"):
        run_suite(_blocks_config(jobs=3))
    _assert_no_child_left()


def test_run_suite_raises_when_a_child_exits_without_a_result(monkeypatch):
    _in_children_only(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with status 3 without a result"):
        run_suite(_blocks_config(jobs=2))
    _assert_no_child_left()


def test_run_suite_reaps_children_when_the_caller_share_fails(monkeypatch):
    caller = os.getpid()
    real = verifier.verify_family

    def verify_family(inst, config):
        if os.getpid() == caller:
            raise KeyError("caller share")
        return real(inst, config)

    monkeypatch.setattr(verifier, "verify_family", verify_family)
    with pytest.raises(KeyError, match="caller share"):
        run_suite(_blocks_config(jobs=3))
    _assert_no_child_left()


def test_run_suite_without_fork_runs_serially(monkeypatch):
    serial = run_suite(_blocks_config()).lines()
    monkeypatch.delattr(os, "fork")
    assert run_suite(_blocks_config(jobs=2)).lines() == serial


def test_shares_hold_every_task_once_largest_first():
    for count in range(21):
        sizes = [(i * 7) % 5 + 2 for i in range(count)]
        for workers in range(1, 9):
            shares = verifier._shares(sizes, workers)
            assert len(shares) == workers
            assert sorted(i for share in shares for i in share) == list(range(count))
            assert max(map(len, shares)) - min(map(len, shares)) <= 1
            for share in shares:
                assert [sizes[i] for i in share] == sorted((sizes[i] for i in share), reverse=True)


def test_cli_import_loads_no_process_machinery():
    code = (
        "import sys, deltaconvex.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('concurrent', 'multiprocessing')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(verifier.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_run_suite_rejects_jobs_below_one():
    with pytest.raises(ValueError, match="jobs"):
        run_suite(SuiteConfig(jobs=0))


def test_run_suite_budget_zero_skips_everything():
    report = run_suite(SuiteConfig(budget=0))
    assert report.summary["total"] == report.summary["skipped"]
    assert report.failed == 0


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(suites=("nonsense",)))


def test_suite_subsets():
    report = run_suite(SuiteConfig(suites=("blocks",)))
    ids = covered_theorem_ids(report.checks)
    assert "block_c_i" in ids and "sierksma" not in ids


def test_report_format():
    report = run_suite(SuiteConfig(suites=("gadgets",)))
    buf = io.StringIO()
    write_report(report, buf)
    lines = buf.getvalue().strip().split("\n")
    *rows, summary = [json.loads(line) for line in lines]
    assert list(rows[0]) == ["theorem_id", "graph", "predicted", "observed", "status", "reason"]
    assert "summary" in summary
    assert summary["summary"]["total"] == len(rows)


def test_gadget_reconstruction_failure_surfaces_loudly(monkeypatch):
    import deltaconvex.verifier as verifier_mod
    from deltaconvex.families import ReconstructionError

    def broken(n):
        raise ReconstructionError(f"synthetic discrepancy for n={n}")

    monkeypatch.setattr(verifier_mod, "gadget_c", broken)
    report = run_suite(SuiteConfig(suites=("gadgets",)))
    failing = [c for c in report.checks if c.status == "fail"]
    assert len(failing) == 3
    assert all(c.theorem_id == "gadget_c_exact" for c in failing)
    assert all("synthetic discrepancy" in c.reason for c in failing)
    assert report.failed == 3


def test_seed_changes_random_corpus():
    c0 = build_corpus(0)
    c1 = build_corpus(1)
    r0 = [i.graph for i in c0.base if i.family == "random"]
    r1 = [i.graph for i in c1.base if i.family == "random"]
    assert r0 != r1


def test_corpus_has_enough_small_graphs(small_corpus):
    assert len(small_corpus) >= 20
