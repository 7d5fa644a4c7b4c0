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

The benchmark pins only the default budget, so ``PINNED_CONFIGS`` also
pins the exit code and report SHA-256 at other budgets, seeds and suites,
where more rows are skipped or fewer graphs are searched.
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


# (suite, budget, seed) -> (exit code, report SHA-256)
PINNED_CONFIGS = {
    # all 426 rows skipped
    ("all", 0, 0): (0, "7d03ad3ef101fb460185df65bb195132407bb7d20f8d18b56bf76e678e2ef03b"),
    # 198 pass, 213 skipped, 15 hypothesis_unmet
    ("all", 6, 0): (0, "f4d1a502fc60afcd10b23444036bd9ff90884c17996be9d36a1323f2babf8274"),
    # 373 pass, 1 fail, 37 skipped, 15 hypothesis_unmet
    ("all", 9, 0): (1, "3b762da49243d60d7f42e22cb6a888c885557a7e9d51a60061029e2ab6b31f6a"),
    # 408 pass, 3 fail, 0 skipped, 15 hypothesis_unmet
    ("all", 14, 0): (1, "98c5c9239ca68e8fd8ce9da8580a74258b5fa3b9c8cda2055a0e511b75c2bbfa"),
    ("products", 6, 3): (0, "e7b86fea817690fca3aef3d95ff9e7f182d791e14eb7c263053c18726f6b25cb"),
    ("chordal", 9, 5): (0, "daa235903da355d831eb4f36dfa46f413a0439406a75776fc07c8a0d86715efc"),
}


def recorded_digests() -> dict[int, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return {int(seed): digest for seed, digest in json.load(fh)["verify"].items()}


def report_digest(
    seed: int, directory: Path, jobs: int = 1, suite: str = "all", budget: int | None = None
) -> tuple[int, str]:
    """Exit code and report SHA-256 of ``verify --suite SUITE`` at ``seed``."""
    report = directory / f"verify-{suite}-seed{seed}.jsonl"
    argv = ["verify", "--suite", suite, "--seed", str(seed), "--jobs", str(jobs)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--report", str(report)])
    return code, hashlib.sha256(report.read_bytes()).hexdigest()


def test_verify_report_matches_recorded_digests(tmp_path):
    recorded = recorded_digests()
    for seed in range(4):
        # the recorded reports each carry the three refuted cart_pn_e_eq rows
        assert report_digest(seed, tmp_path) == (1, recorded[seed]), seed
    assert report_digest(0, tmp_path, jobs=2) == (1, recorded[0])


def test_unpinned_configs_match_recorded_digests(tmp_path):
    for (suite, budget, seed), want in PINNED_CONFIGS.items():
        got = report_digest(seed, tmp_path, suite=suite, budget=budget)
        assert got == want, (suite, budget, seed)
    # skipped rows at a low budget must not depend on the worker count either
    assert report_digest(0, tmp_path, jobs=3, budget=9) == PINNED_CONFIGS["all", 9, 0]


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
