"""The bytes of the verify report are pinned by recorded digests.

``perfbench/reference.json`` holds, under ``"verify"``, the SHA-256 of the
``deltaconvex verify --suite all --seed S --jobs 1`` report for every
recorded seed S. The test checks seeds 0-3; run as a script,

    PYTHONPATH=src python tests/test_report_digests.py

checks every recorded seed and exits 1 listing the seeds whose report
or exit code differs.
"""

from __future__ import annotations

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


def report_digest(seed: int, directory: Path) -> tuple[int, str]:
    """Exit code and report SHA-256 of ``verify --suite all`` at ``seed``."""
    report = directory / f"verify-seed{seed}.jsonl"
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--jobs", "1"]
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--report", str(report)])
    return code, hashlib.sha256(report.read_bytes()).hexdigest()


def test_verify_report_matches_recorded_digests(tmp_path):
    recorded = recorded_digests()
    for seed in range(4):
        # the recorded reports each carry the three refuted cart_pn_e_eq rows
        assert report_digest(seed, tmp_path) == (1, recorded[seed]), seed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = recorded_digests()
        bad = [s for s in sorted(recorded) if report_digest(s, Path(tmp)) != (1, recorded[s])]
    print(f"{len(recorded) - len(bad)}/{len(recorded)} recorded report digests match")
    if bad:
        print(f"mismatched seeds: {bad}", file=sys.stderr)
    sys.exit(1 if bad else 0)
