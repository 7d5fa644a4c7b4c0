"""One pass of one workload in a fresh interpreter.

Started by ``run.py`` with one JSON argument and prints one JSON object.
The parent passes its ``time.monotonic()`` reading from just before it
started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports, input generation and filling the graphs' lazy
triangle caches.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from deltaconvex import cli, verifier

import tracing
import workloads


def _cli_in_process(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _scoped_cli(tracer):
    """In-process CLI calls that count distinct work per call, like a process."""

    def call(argv: list[str]) -> int:
        tracer.new_scope()
        return _cli_in_process(argv)

    return call


def build(cfg: dict, tracer, report_stats: dict) -> list[workloads.Op]:
    """The workload's operations, built from its seed (the set-up phase)."""
    workload, seed, size = cfg["workload"], cfg["seed"], cfg["size"]
    ref = workloads.load_reference()
    if workload == "search-product":
        return workloads.build_search_product(seed, size, ref, tracer, cfg["latency"])
    if workload == "hull-closure":
        return workloads.build_hull_closure(seed, size, tracer)
    scratch = Path(cfg["scratch"])
    if cfg["in_process"]:
        return workloads.build_verify(seed, size, ref, 1, scratch, report_stats, _scoped_cli(tracer))
    jobs = 2 if workload == "verify-parallel" else 1
    return workloads.build_verify(seed, size, ref, jobs, scratch, report_stats)


def _task_timing(cfg: dict) -> dict[str, float]:
    """Critical-path metrics from lightly timed in-process verify runs.

    Only ``run_suite`` and the ``verify_*`` task functions are timed, so
    task times carry no tracing overhead. Task times come from a ``--jobs 1``
    run; at ``--jobs 2`` tasks run in pool workers, where only the parent's
    ``run_suite`` is seen.
    """
    jobs = 2 if cfg["workload"] == "verify-parallel" else 1
    scratch = Path(cfg["scratch"])
    targets = [(cli, "run_suite")] + [(verifier, t) for t in tracing.TASKS]
    seconds = {}
    for run_jobs in sorted({1, jobs}):
        with tracing.timed_calls(*targets) as seconds[run_jobs]:
            for s in workloads.verify_seeds(cfg["seed"], cfg["size"]):
                report = scratch / f"verify-seed{s}-timing.jsonl"
                _cli_in_process(workloads.verify_argv(s, run_jobs, report))
                report.unlink()
    tasks = [t for name in tracing.TASKS for t in seconds[1][f"verifier.{name}"]]
    return {
        "verifier.longest_task_s": max(tasks),
        "verifier.parallel_efficiency": sum(tasks) / (jobs * sum(seconds[jobs]["cli.run_suite"])),
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    startup_s = time.monotonic() - cfg["spawned"]
    tracer = tracing.Tracer() if cfg["trace"] else tracing.NullTracer()
    tracer.install()
    report_stats = {"rows": 0, "bytes": 0}
    ops = build(cfg, tracer, report_stats)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "setup_s": time.monotonic() - cfg["spawned"],
        "setup_cpu_s": ru.ru_utime + ru.ru_stime,
    }
    if not cfg["setup_only"]:
        res = workloads.run_ops(ops, tracer)
        tracer.uninstall()
        out.update(
            wall_s=res.wall_s, op_labels=res.op_labels, op_seconds=res.op_seconds,
            attempted=res.attempted, failed=res.failed, failures=res.failures,
        )
    if cfg["trace"]:
        layer = tracer.metrics()
        if cfg["workload"].startswith("verify"):
            layer.update(_task_timing(cfg))
        layer.update(
            {
                "verifier.checks": report_stats["rows"],
                "cli.report_bytes": report_stats["bytes"],
                "cli.startup_s": startup_s,
            }
        )
        out["layer"] = layer
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
