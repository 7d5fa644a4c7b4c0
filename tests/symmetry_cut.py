"""The symmetry cut keeps three large product searches fast and unchanged.

The graphs are gadget_c(3) x gadget_c(3) (Cartesian), C6 x C4 (strong) and
P6 o P4 (lexicographic), built with ``deltaconvex generate`` and
``deltaconvex product``. Each ``deltaconvex invariant --which c|e`` call
runs in its own process under a 20 s limit, and its JSON output must be
the recorded value and extremal set, exhaustive. With the cut the
gc3 x gc3 c and e searches take about 0.8 s each; without it, 28 s and
36 s. Run as

    PYTHONPATH=src python tests/symmetry_cut.py

It exits 1 listing each search that differs or runs out of time. pytest
does not collect this file, as its name does not start with ``test_``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from deltaconvex import cli

SRC = Path(__file__).resolve().parents[1] / "src"
TIME_LIMIT_S = 20

FACTORS = {
    "gc3": ("gadget_c", {"n": 3}),
    "c6": ("cycle", {"n": 6}),
    "c4": ("cycle", {"n": 4}),
    "p6": ("path", {"n": 6}),
    "p4": ("path", {"n": 4}),
}
PRODUCTS = {
    "sq": ("cartesian", "gc3", "gc3"),
    "c6c4": ("strong", "c6", "c4"),
    "p6p4": ("lex", "p6", "p4"),
}
# (product, invariant) -> (value, extremal_set); every search is exhaustive
EXPECTED = {
    ("sq", "c"): (9, [0, 1, 2, 5, 6, 7, 10, 11, 12]),
    ("sq", "e"): (9, [0, 1, 2, 5, 6, 7, 10, 12, 13]),
    ("c6c4", "c"): (2, [0, 1]),
    ("c6c4", "e"): (3, [0, 1, 8]),
    ("p6p4", "c"): (2, [0, 1]),
    ("p6p4", "e"): (3, [0, 1, 3]),
}


def build_graphs(directory: Path) -> None:
    """Write every factor and product graph file into ``directory``."""
    commands = [
        ["generate", family, "--params", json.dumps(params), "-o", f"{directory}/{name}.json"]
        for name, (family, params) in FACTORS.items()
    ] + [
        ["product", "--kind", kind, f"{directory}/{g}.json", f"{directory}/{h}.json",
         "-o", f"{directory}/{name}.json"]
        for name, (kind, g, h) in PRODUCTS.items()
    ]
    for argv in commands:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            if cli.main(argv) != 0:
                raise RuntimeError(f"deltaconvex {' '.join(argv)} failed: {err.getvalue()}")


def invariant(graph_file: Path, which: str) -> dict | str:
    """The JSON output of ``deltaconvex invariant``, or why there is none."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-m", "deltaconvex.cli", "invariant", "--which", which,
            "--graph", str(graph_file)]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return f"no result within {TIME_LIMIT_S} s"
    if done.returncode != 0:
        return f"exit code {done.returncode}: {done.stderr.strip()}"
    return json.loads(done.stdout)


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        build_graphs(directory)
        for (name, which), (value, extremal_set) in EXPECTED.items():
            got = invariant(directory / f"{name}.json", which)
            want = {"value": value, "extremal_set": extremal_set, "exhaustive": True}
            if got != want:
                bad.append((name, which, got))
    print(f"{len(EXPECTED) - len(bad)}/{len(EXPECTED)} symmetry-cut searches match")
    for name, which, got in bad:
        print(f"{name} {which}: {got}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
