"""Benchmark entry point: one run of one workload, printed as metrics.

    PYTHONPATH=src python3 perfbench/run.py --workload search-product --seed 0 --seconds 27 --trace 0

Run it from anywhere; it finds ``src/`` next to this directory and hands
it to every child through ``PYTHONPATH`` (nothing is installed). Each
pass of the workload's fixed work runs in a fresh interpreter
(``worker.py``), one at a time (a single client in a closed loop), so no
cache outlives a pass. ``--trace 0`` repeats passes for ``--seconds`` and
reports the end-to-end metrics over them; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics. The last
line of standard output is the JSON result; the lines above it give every
metric with its unit, the op-latency sample counts and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("search-product", "verify-serial", "verify-parallel", "hull-closure")
RUN_DEADLINE_S = 170.0
# At least two passes, so every operation's time is a median of two or
# more even when one pass takes more than half of ``--seconds``.
MIN_PASSES = 2
MIN_SETUPS = 5
# Workloads whose median operation is short next to a pass: latency passes
# (only the short operations, in a fresh interpreter each) sample it more
# often, this many before and as many after every pass.
LATENCY_WORKLOADS = {"search-product"}
LATENCY_PASSES = 1
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}
SEARCH_OPS = [
    f"{label}.{kind}"
    for label in ("gc3xP3", "ge2xP3", "gc4xP2", "bc333xP2", "gc3xP4")
    for kind in "ce"
] + ["rand16.h", "rand18.h"]
PER_LAYER = {
    "hull.calls": "count",
    "hull.distinct_masks": "count",
    "hull.unique_ratio": "ratio",
    "hull.self_s": "s",
    "hull.ns_per_call": "ns",
    "hull.delta_hull_p50_ms": "ms",
    "hull.is_hull_set_p50_ms": "ms",
    "hull.traced_p50_ms": "ms",
    **{f"independence.search_s.{op}": "s" for op in SEARCH_OPS},
    "independence.self_s": "s",
    "independence.hull_share": "ratio",
    "verifier.checks": "count",
    "verifier.searches": "count",
    "verifier.distinct_searches": "count",
    "verifier.search_s": "s",
    "verifier.self_s": "s",
    "verifier.run_suite_s": "s",
    "verifier.longest_task_s": "s",
    "verifier.parallel_efficiency": "ratio",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "families.generate_s": "s",
    "graphs.build_s": "s",
    "products.build_s": "s",
    "error_rate": "ratio",
    "trace.overhead_s": "s",
}


class PassFailed(RuntimeError):
    pass


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with at least ten
    samples above it; with fewer than 21 samples no such percentile lies
    above the median, so the maximum (p100) is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND
    if k + 1 <= n / 2:
        k = n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def environment(args: argparse.Namespace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "deltaconvex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": Path("/proc/loadavg").read_text().split()[:3],
    }


class Runner:
    def __init__(self, args: argparse.Namespace, scratch: Path) -> None:
        self.args = args
        self.scratch = scratch
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(
        self, *, trace: bool = False, in_process: bool = False, setup_only: bool = False,
        latency: bool = False,
    ) -> dict:
        """Run one pass in a fresh interpreter; adds its CPU time as ``cpu_s``."""
        cfg = {
            "workload": self.args.workload, "seed": self.args.seed, "size": self.args.size,
            "trace": trace, "in_process": in_process, "setup_only": setup_only,
            "latency": latency, "scratch": str(self.scratch),
        }
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        cfg["spawned"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, text=True,
            start_new_session=True,  # one process group: a kill reaches its children too
        )
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.started)
        try:
            out, err = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"pass did not finish within the {RUN_DEADLINE_S:.0f} s run deadline")
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise PassFailed(f"pass exited with {proc.returncode}:\n{err}")
        result = json.loads(out.strip().splitlines()[-1])
        result["elapsed_s"] = time.monotonic() - cfg["spawned"]
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result["cpu_s"] = cpu - result["setup_cpu_s"]
        return result

    def timed(self) -> tuple[dict, dict, list[str]]:
        """Passes until the next one would overrun ``--seconds``.

        On a workload with latency passes, they run before and after every
        pass, so the short operations are sampled across the whole run.
        """
        passes, quick = [], []
        n_quick = LATENCY_PASSES if self.args.workload in LATENCY_WORKLOADS else 0

        def run_pass() -> None:
            quick.extend(self.spawn(latency=True) for _ in range(n_quick))
            passes.append(self.spawn())
            quick.extend(self.spawn(latency=True) for _ in range(n_quick))

        run_pass()
        while True:
            elapsed = time.monotonic() - self.started
            typical = statistics.median(p["elapsed_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > self.args.seconds:
                break
            run_pass()
        setups = [p["setup_s"] for p in passes]
        while len(setups) < MIN_SETUPS:
            setups.append(self.spawn(setup_only=True)["setup_s"])
        # Each operation's time is its fastest over the passes (latency
        # passes included), as timeit takes the best of its repeats: on a
        # shared machine the slower samples are other tenants' load, which
        # comes in spells of seconds that a median over a few samples
        # either catches or misses.
        samples: dict[str, list[float]] = {}
        for p in passes + quick:
            for label, seconds in zip(p["op_labels"], p["op_seconds"]):
                samples.setdefault(label, []).append(seconds)
        per_op = [min(ts) for ts in samples.values()]
        tail_s, tail_pct, n_ops = tail(per_op)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_op),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": peak_kb / 1024.0,
            "op_p50_ms": statistics.median(per_op) * 1000.0,
            "op_tail_ms": tail_s * 1000.0,
        }
        counts = {
            "attempted": sum(p["attempted"] for p in passes + quick),
            "failed": sum(p["failed"] for p in passes + quick),
        }
        notes = [
            f"passes {len(passes)}, latency passes {len(quick)}, set-ups {len(setups)}; pass wall_s "
            + ", ".join(f"{p['wall_s']:.4f}" for p in passes),
            f"op_tail_ms is p{tail_pct:.1f} of {n_ops} ops (each the fastest over passes)",
        ]
        return metrics, counts, notes + [f for p in passes + quick for f in p["failures"]]

    def traced(self) -> tuple[dict, dict, list[str]]:
        """One untraced and one traced pass; the traced one gives the layers."""
        verify = self.args.workload.startswith("verify")
        plain = self.spawn(in_process=verify)
        traced = self.spawn(trace=True, in_process=verify)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(traced["layer"])
        for label, seconds in zip(plain["op_labels"], plain["op_seconds"]):
            key = f"independence.search_s.{label}"
            if key in metrics:
                metrics[key] = seconds
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        metrics["error_rate"] = failed / attempted
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        notes = [
            f"untraced wall_s {plain['wall_s']:.4f} s, traced wall_s {traced['wall_s']:.4f} s"
            + (" (verify passes run --jobs 1 in-process)" if verify else ""),
        ]
        return metrics, {"attempted": attempted, "failed": failed}, notes + plain["failures"] + traced["failures"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=27)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input, for the benchmark's own smoke tests",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "deltaconvex" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'deltaconvex'}", file=sys.stderr)
        return 2
    env = environment(args)
    scratch = ROOT / ".perfbench-tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, scratch)
    try:
        metrics, counts, notes = runner.traced() if args.trace else runner.timed()
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            scratch.parent.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:.6g} {unit}")
    rate = counts["failed"] / counts["attempted"]
    print(f"checks: {counts['failed']} of {counts['attempted']} ops failed (error_rate {rate:.6g})")
    for note in notes:
        print(note)
    env["loadavg_after"] = Path("/proc/loadavg").read_text().split()[:3]
    print("env " + json.dumps(env))
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
