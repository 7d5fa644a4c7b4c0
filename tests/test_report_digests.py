"""The bytes of the verify report are pinned by recorded digests.

``perfbench/reference.json`` holds, under ``"verify"``, the SHA-256 of the
``deltaconvex verify --suite all --seed S --jobs 1`` report for every
recorded seed S. The test checks seeds 0-3, and seed 0 again at
``--jobs 2``, since the worker count must not change the report. Run as a
script,

    PYTHONPATH=src python tests/test_report_digests.py [--jobs N] [--first K]

checks the first K recorded seeds (all by default) at ``--jobs N``
(1 by default) and exits 1 listing the seeds whose report or exit code
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from deltaconvex.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def recorded_digests() -> dict[int, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return {int(seed): digest for seed, digest in json.load(fh)["verify"].items()}


def report_digest(seed: int, directory: Path, jobs: int = 1) -> tuple[int, str]:
    """Exit code and report SHA-256 of ``verify --suite all`` at ``seed``."""
    report = directory / f"verify-seed{seed}.jsonl"
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--jobs", str(jobs)]
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--report", str(report)])
    return code, hashlib.sha256(report.read_bytes()).hexdigest()


def test_verify_report_matches_recorded_digests(tmp_path):
    recorded = recorded_digests()
    for seed in range(4):
        # the recorded reports each carry the three refuted cart_pn_e_eq rows
        assert report_digest(seed, tmp_path) == (1, recorded[seed]), seed
    assert report_digest(0, tmp_path, jobs=2) == (1, recorded[0])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check verify reports against recorded digests.")
    parser.add_argument("--jobs", type=int, default=1, help="verify --jobs value (default 1)")
    parser.add_argument("--first", type=int, default=None, help="check only the first K seeds")
    args = parser.parse_args()
    recorded = recorded_digests()
    seeds = sorted(recorded)[: args.first]
    with tempfile.TemporaryDirectory() as tmp:
        bad = [s for s in seeds if report_digest(s, Path(tmp), args.jobs) != (1, recorded[s])]
    print(f"{len(seeds) - len(bad)}/{len(seeds)} recorded report digests match at --jobs {args.jobs}")
    if bad:
        print(f"mismatched seeds: {bad}", file=sys.stderr)
    sys.exit(1 if bad else 0)
