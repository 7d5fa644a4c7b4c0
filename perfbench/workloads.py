"""Workload inputs, fixed work and output checks.

Each workload is built from the workload seed in ``build`` (the set-up
phase) and then run as a list of timed operations. Every operation's
output is checked after its timer stops; a failed check counts towards
``failed``. The package is reached through module attributes
(``hull.delta_hull``, ``independence.exchange_number``, ...) so that the
traced run can wrap those bindings without editing the package.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from deltaconvex import families, hull, independence, products
from deltaconvex.graphs import Graph

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Verify seeds wrap modulo the number of recorded reference reports, so
# every generated seed has a byte-level reference. Helly references exist
# for the first HELLY_REFERENCE_SEEDS workload seeds.
VERIFY_SEED_SPAN = 256
HELLY_REFERENCE_SEEDS = 64
VERIFY_SEEDS_PER_PASS = {"full": 12, "tiny": 2}
EXPECTED_FAILING_THEOREM = "cart_pn_e_eq"
EXPECTED_FAILS = 3

SEARCH_KINDS = {"c": "caratheodory_number", "e": "exchange_number", "h": "helly_number"}
# The searches that take well under half a second: the median search is
# always one of them. Latency passes (see ``run.py``) repeat just these in
# fresh interpreters, so they are sampled across the whole run and not only
# in the first second of each pass.
LATENCY_OPS = {
    "full": frozenset(
        ["gc3xP3.c", "gc3xP3.e", "ge2xP3.c", "gc4xP2.c", "gc4xP2.e", "bc333xP2.c", "bc333xP2.e"]
    ),
    "tiny": frozenset(["gc3xP2.c", "gc3xP2.e"]),
}
_CHECK_KINDS = {"c": "is_c_independent", "e": "is_e_independent", "h": "is_h_independent"}


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class PassResult:
    op_labels: list[str] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    @property
    def wall_s(self) -> float:
        """Time of the fixed work: the timed operations, checks excluded."""
        return sum(self.op_seconds)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_ops(ops: list[Op], tracer) -> PassResult:
    """Run ``ops`` in order; tracing is paused while outputs are checked."""
    res = PassResult()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, problem = op.run(), None
        except Exception as exc:  # a raising operation counts as a failed one
            out, problem = None, f"raised {exc!r}"
        res.op_seconds.append(time.perf_counter() - t0)
        res.op_labels.append(op.label)
        if problem is None:
            with tracer.paused():
                problem = op.check(out)
        if problem is not None:
            res.failed += 1
            if len(res.failures) < 5:
                res.failures.append(f"{op.label}: {problem}")
    return res


def relabel(g: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    """Copy of ``g`` under a random vertex permutation, and the permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    return Graph(g.n, edges, name=f"{g.name} relabelled"), perm


# --- search-product ----------------------------------------------------

def _cartesian(left: Graph, right: Graph) -> Graph:
    return products.product(left, right, "cartesian").graph


def search_instances(seed: int, size: str) -> list[tuple[str, Graph, str, bool]]:
    """(label, graph, kind, seed_free) for every search, in run order."""
    gc3, gc4 = families.gadget_c(3).graph, families.gadget_c(4).graph
    p2, p3 = families.path(2).graph, families.path(3).graph
    if size == "tiny":
        cases = [("gc3xP2", _cartesian(gc3, p2), "ce", True)]
        randoms = [("rand8", families.random_graph(8, 0.5, 0).graph)]
    else:
        ge2 = families.gadget_e(2).graph
        bc333 = families.block_chain([3, 3, 3]).graph
        cases = [
            ("gc3xP3", _cartesian(gc3, p3), "ce", True),
            ("ge2xP3", _cartesian(ge2, p3), "ce", True),
            ("gc4xP2", _cartesian(gc4, p2), "ce", True),
            ("bc333xP2", _cartesian(bc333, p2), "ce", True),
            ("gc3xP4", _cartesian(gc3, families.path(4).graph), "ce", True),
        ]
        randoms = [
            ("rand16", families.random_graph(16, 0.5, 0).graph),
            ("rand18", families.random_graph(18, 0.3, 1).graph),
        ]
    # The Helly graphs are the default seed's random graphs, relabelled from
    # the workload seed. Drawing the graphs themselves from the seed made one
    # Helly search take 1.3-3.8 s depending on the seed, more than the
    # machine's own noise; a relabelling moves it by about a tenth.
    rng = random.Random(seed)
    out = [(label, g, kind, True) for label, g, kinds, _ in cases for kind in kinds]
    out += [(label, relabel(g, rng)[0], "h", False) for label, g in randoms]
    return out


def search_key(label: str, kind: str) -> str:
    return f"{label}.{kind}"


def check_search(g: Graph, kind: str, result, expected: list | None) -> str | None:
    """None when ``result`` is a valid extremal set and matches ``expected``."""
    members = sorted(result.extremal_set)
    if len(members) != result.value:
        return f"value {result.value} but extremal set {members}"
    if members and not getattr(independence, _CHECK_KINDS[kind])(g, members).independent:
        return f"extremal set {members} is not {kind}-independent"
    if expected is not None and [result.value, members] != expected:
        return f"(value, set) = ({result.value}, {members}), reference {expected}"
    return None


def build_search_product(seed: int, size: str, ref: dict, tracer, latency: bool = False) -> list[Op]:
    """Every search, or with ``latency`` only the ``LATENCY_OPS`` ones."""
    refs = ref["search-product"]
    ops = []
    for label, g, kind, seed_free in search_instances(seed, size):
        key = search_key(label, kind)
        if latency and key not in LATENCY_OPS[size]:
            continue
        with tracer.span("graphs", "graphs.build"):
            g.triangle_masks
        expected = refs["seed_free"].get(key) if seed_free else refs["seeded"].get(str(seed), {}).get(key)
        fn_name = SEARCH_KINDS[kind]
        ops.append(
            Op(
                key,
                lambda g=g, fn_name=fn_name: getattr(independence, fn_name)(g),
                lambda res, g=g, kind=kind, expected=expected: check_search(g, kind, res, expected),
            )
        )
    return ops


# --- verify-serial / verify-parallel -------------------------------------

def verify_seeds(seed: int, size: str) -> list[int]:
    return [(seed + i) % VERIFY_SEED_SPAN for i in range(VERIFY_SEEDS_PER_PASS[size])]


def report_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(exit_code: int, data: bytes, expected_digest: str | None) -> str | None:
    """Verify exits 1 with exactly the refuted ``cart_pn_e_eq`` rows failing."""
    if exit_code != 1:
        return f"exit code {exit_code}, expected 1"
    lines = data.decode("utf-8").splitlines()
    if not lines:
        return "empty report"
    summary = json.loads(lines[-1]).get("summary", {})
    rows = [json.loads(line) for line in lines[:-1]]
    failing = [row["theorem_id"] for row in rows if row["status"] == "fail"]
    if summary.get("fail") != EXPECTED_FAILS or failing != [EXPECTED_FAILING_THEOREM] * EXPECTED_FAILS:
        return f"summary fail={summary.get('fail')}, failing rows {failing}"
    if expected_digest is not None and report_digest(data) != expected_digest:
        return "report bytes differ from the reference"
    return None


def verify_argv(seed: int, jobs: int, report: Path) -> list[str]:
    return ["verify", "--suite", "all", "--seed", str(seed), "--jobs", str(jobs), "--report", str(report)]


def _cli_subprocess(argv: list[str]) -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "deltaconvex.cli", *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return proc.returncode


def build_verify(
    seed: int, size: str, ref: dict, jobs: int, scratch: Path, stats: dict,
    cli_call: Callable[[list[str]], int] = _cli_subprocess,
) -> list[Op]:
    """One operation per seed: a whole ``deltaconvex verify`` invocation.

    The checks add each report's rows (checks) and bytes to ``stats``.
    """
    digests = ref["verify"]
    ops = []
    for s in verify_seeds(seed, size):
        report = scratch / f"verify-seed{s}-jobs{jobs}.jsonl"

        def run(s=s, report=report) -> tuple[int, Path]:
            return cli_call(verify_argv(s, jobs, report)), report

        def check(out, s=s) -> str | None:
            code, path = out
            if not path.exists():
                return f"exit code {code} and no report written"
            data = path.read_bytes()
            path.unlink()
            stats["rows"] += data.count(b"\n") - 1
            stats["bytes"] += len(data)
            return check_report(code, data, digests.get(str(s)))

        ops.append(Op(f"seed{s}", run, check))
    return ops


# --- hull-closure --------------------------------------------------------

# (gadget_c size, relabelled copies), (chordal size, graphs). Several
# graphs per pass, so a pass's time averages over relabellings rather than
# hanging on one: shuffled labels change the number of closure passes.
CLOSURE_SIZES = {"full": ((200, 4), (400, 6)), "tiny": ((6, 1), (12, 1))}


def closure_inputs(seed: int, size: str, tracer):
    """Seeded relabellings of gadgets (with chain and terminal apex) and of
    chordal graphs.

    The chordal graphs themselves are the generator's first ``count``
    seeds whatever the workload seed: their shapes differ in closure cost
    by up to a third, relabellings of one shape by under a tenth, so only
    the labels come from the workload seed.
    """
    (gadget_n, copies), (chordal_n, count) = CLOSURE_SIZES[size]
    rng = random.Random(seed)
    gadget = families.gadget_c(gadget_n).graph
    bases = [gadget] * copies + [
        families.two_connected_chordal(chordal_n, i).graph for i in range(count)
    ]
    relabelled = []
    for base in bases:
        with tracer.span("graphs", "graphs.build"):
            g, perm = relabel(base, rng)
            g.triangle_masks
        relabelled.append((g, perm))
    gadgets = [
        (g, frozenset(perm[i] for i in range(gadget_n)), perm[2 * gadget_n - 2])
        for g, perm in relabelled[:copies]
    ]
    return gadgets, [g for g, _ in relabelled[copies:]]


def check_hull(g: Graph, given: frozenset[int], got: frozenset[int], apex: int | None) -> str | None:
    if not given <= got:
        return "hull does not contain its input"
    if not hull.is_delta_convex(g, got):
        return "hull is not delta-convex"
    if apex is not None and apex in got:
        return f"terminal apex {apex} is in a leave-one-out hull"
    return None


def build_hull_closure(seed: int, size: str, tracer) -> list[Op]:
    """Every query, in an order shuffled from the seed: a slow spell of the
    machine then slows queries of every graph a little rather than the
    queries of one graph a lot."""
    gadgets, chordals = closure_inputs(seed, size, tracer)
    ops: list[Op] = []
    for gi, (g, chain, apex) in enumerate(gadgets):

        def check_whole(got, g=g, chain=chain) -> str | None:
            if got != frozenset(range(g.n)):
                return "the whole chain is not a hull set"
            return check_hull(g, chain, got, None)

        ops.append(Op(f"g{gi}.hull", lambda g=g, chain=chain: hull.delta_hull(g, chain), check_whole))
        for a in sorted(chain):
            rest = chain - {a}
            ops.append(
                Op(
                    f"g{gi}.loo{a}",
                    lambda g=g, rest=rest: hull.delta_hull(g, rest),
                    lambda got, g=g, rest=rest, apex=apex: check_hull(g, rest, got, apex),
                )
            )

        def check_traced(trace, g=g, chain=chain) -> str | None:
            if trace.rounds[-1] != hull.delta_hull(g, chain):
                return "last traced round differs from delta_hull"
            return None

        ops.append(
            Op(f"g{gi}.traced", lambda g=g, chain=chain: hull.delta_hull_traced(g, chain), check_traced)
        )
    for ci, g in enumerate(chordals):
        for u, v in g.edges:
            ops.append(
                Op(
                    f"c{ci}.edge{u}-{v}",
                    lambda g=g, u=u, v=v: hull.is_hull_set(g, (u, v)),
                    lambda ok: None if ok is True else "edge is not a hull set",
                )
            )
    random.Random(seed).shuffle(ops)
    return ops
