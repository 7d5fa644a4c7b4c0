"""Record the reference outputs the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: ``(value, extremal_set)`` of every
seed-free search, of the seeded Helly searches for the first workload
seeds, and the SHA-256 of the ``verify --suite all --jobs 1`` report for
every verify seed. Re-record only for a deliberate behaviour change: a
speed-up that changes any of these outputs is a behaviour change.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from deltaconvex import cli, independence  # noqa: E402

import workloads  # noqa: E402


def _search(g, kind: str) -> list:
    res = getattr(independence, workloads.SEARCH_KINDS[kind])(g)
    return [res.value, sorted(res.extremal_set)]


def _seeded_searches(seed: int) -> dict:
    return {
        workloads.search_key(label, kind): _search(g, kind)
        for size in ("full", "tiny")
        for label, g, kind, seed_free in workloads.search_instances(seed, size)
        if not seed_free
    }


def _verify_digest(seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.jsonl"
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(workloads.verify_argv(seed, 1, report))
        data = report.read_bytes()
    problem = workloads.check_report(code, data, None)
    if problem is not None:
        raise RuntimeError(f"verify seed {seed}: {problem}")
    return workloads.report_digest(data)


def main() -> int:
    seed_free = {
        workloads.search_key(label, kind): _search(g, kind)
        for size in ("full", "tiny")
        for label, g, kind, free in workloads.search_instances(0, size)
        if free
    }
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        seeded = list(pool.map(_seeded_searches, range(workloads.HELLY_REFERENCE_SEEDS)))
        digests = list(pool.map(_verify_digest, range(workloads.VERIFY_SEED_SPAN)))
    ref = {
        "search-product": {
            "seed_free": seed_free,
            "seeded": {str(s): refs for s, refs in enumerate(seeded)},
        },
        "verify": {str(s): d for s, d in enumerate(digests)},
    }
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
