"""Corpus runner: check every theorem's prediction against brute force.

Builds a deterministic corpus of family instances from a seed, computes
invariants exhaustively where the budget allows, and emits one
machine-readable record per (graph, theorem) pair. Records are
line-delimited JSON with stable field order followed by a summary object,
so identical configurations produce byte-identical reports regardless of
parallelism width.

Statuses: ``pass`` and ``fail`` compare an exhaustively computed value
with the prediction; ``hypothesis_unmet`` records that a theorem's
preconditions do not hold for the graph (never silently dropped);
``skipped`` marks searches the budget ruled out; ``flagged`` marks
diagnostic findings that are surfaced without failing the run.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb
from typing import IO, Iterable

from .families import (
    FamilyInstance,
    ReconstructionError,
    block_chain,
    block_tree,
    complete,
    complete_bipartite,
    cycle,
    gadget_c,
    gadget_e,
    path,
    random_graph,
    two_connected_chordal,
)
from .graphs import Graph, diameter, is_connected
from .hull import is_hull_set
from .independence import (
    cara_property_iii_violations,
    caratheodory_number,
    exchange_number,
    helly_number,
    is_c_independent,
    is_e_independent,
)
from .products import (
    cartesian_c_witness,
    cartesian_e_witness,
    has_edge_vertex_property,
    normalize_kind,
    product,
)

SUITES = ("universal", "blocks", "chordal", "gadgets", "products")

_UNIVERSAL_IDS = ("sierksma", "cara_triangle_bound", "exch_triangle_bound", "cara_prop_iii")
_PRODUCT_IDS = {
    "cartesian": ("cart_e_lb", "cart_c_lb", "cart_pn_e_eq", "cart_pn_c_eq"),
    "strong": ("strong_e3_strict", "strong_e3_weak", "strong_lex_c2"),
    "lexicographic": ("lex_e", "strong_lex_c2"),
}


@dataclass(frozen=True)
class TheoremCheck:
    theorem_id: str
    graph: str
    predicted: str
    observed: str
    status: str
    reason: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "theorem_id": self.theorem_id,
                "graph": self.graph,
                "predicted": self.predicted,
                "observed": self.observed,
                "status": self.status,
                "reason": self.reason,
            }
        )


@dataclass(frozen=True)
class SuiteConfig:
    """Corpus and budget knobs; identical configs give identical reports.

    ``families`` restricts corpus instances by family tag and ``theorems``
    restricts the emitted records by theorem id; None means no filter.
    """

    seed: int = 0
    budget: int = 12
    suites: tuple[str, ...] = SUITES
    jobs: int = 1
    random_count: int = 30
    chordal_count: int = 10
    search_cost_limit: int = 200_000
    families: tuple[str, ...] | None = None
    theorems: tuple[str, ...] | None = None


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[TheoremCheck, ...]
    summary: dict

    @property
    def failed(self) -> int:
        return self.summary["fail"]

    def lines(self) -> list[str]:
        out = [c.to_json() for c in self.checks]
        out.append(json.dumps({"summary": self.summary}))
        return out


def _row(
    theorem_id: str,
    graph: str,
    predicted: str,
    observed: str,
    status: str,
    reason: str | None = None,
) -> TheoremCheck:
    return TheoremCheck(theorem_id, graph, predicted, observed, status, reason)


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# --- budgets -----------------------------------------------------------

def _universal_feasible(g: Graph, budget: int) -> bool:
    """Cheap feasibility test for the exhaustive c/e/h triple."""
    if budget <= 0:
        return False
    if g.n <= budget:
        return True
    return g.triangle_vertex_mask.bit_count() <= budget and g.n <= budget + 4


def _search_cost(g: Graph, which: str) -> int:
    """Candidate-subset count of the pruned c- or e-search."""
    k = len(g.triangles)
    if which == "c":
        cap = min(k + 1, g.n)
        pool = g.triangle_vertex_mask.bit_count()
    else:
        cap = min(k + 2, g.n)
        pool = g.n
    return sum(comb(pool, s) for s in range(1, cap + 1))


def _search_feasible(g: Graph, which: str, config: SuiteConfig) -> bool:
    return config.budget > 0 and _search_cost(g, which) <= config.search_cost_limit


# --- per-graph checks --------------------------------------------------

def verify_graph_universal(inst: FamilyInstance, config: SuiteConfig) -> list[TheoremCheck]:
    """Sierksma inequalities plus the two triangle-count bounds."""
    g = inst.graph
    name = g.name
    if not _universal_feasible(g, config.budget):
        reason = (
            f"over budget (n={g.n}, triangle vertices="
            f"{g.triangle_vertex_mask.bit_count()}, budget={config.budget})"
        )
        return [
            _row(tid, name, "exhaustive invariants", "not computed", "skipped", reason)
            for tid in _UNIVERSAL_IDS
        ]
    c = caratheodory_number(g)
    e = exchange_number(g)
    h = helly_number(g)
    k = len(g.triangles)
    rows = [
        _row(
            "sierksma",
            name,
            "e - 1 <= c <= max(h, e - 1)",
            f"c={c.value}, e={e.value}, h={h.value}",
            _verdict(e.value - 1 <= c.value <= max(h.value, e.value - 1)),
        ),
        _row(
            "cara_triangle_bound",
            name,
            f"c <= {k + 1}",
            f"c={c.value}",
            _verdict(c.value <= k + 1),
        ),
        _row(
            "exch_triangle_bound",
            name,
            f"e <= {k + 2}",
            f"e={e.value}",
            _verdict(e.value <= k + 2),
        ),
    ]
    violations = (
        cara_property_iii_violations(g, c.extremal_set) if c.value >= 2 else ()
    )
    rows.append(
        _row(
            "cara_prop_iii",
            name,
            "no violating pair on the extremal set",
            "none" if not violations else f"pairs {sorted(violations)}",
            "pass" if not violations else "flagged",
            None if not violations else "diagnostic only; not used for pruning",
        )
    )
    return rows


def verify_family(inst: FamilyInstance, config: SuiteConfig) -> list[TheoremCheck]:
    """Compare the instance's predicted invariants with brute force."""
    g = inst.graph
    rows: list[TheoremCheck] = []
    feasible = _universal_feasible(g, config.budget)
    for inv in sorted(inst.predictions):
        pred = inst.predictions[inv]
        if not feasible:
            rows.append(
                _row(
                    pred.theorem,
                    g.name,
                    pred.describe(inv),
                    "not computed",
                    "skipped",
                    f"over budget (n={g.n}, budget={config.budget})",
                )
            )
            continue
        res = caratheodory_number(g) if inv == "c" else exchange_number(g)
        rows.append(
            _row(
                pred.theorem,
                g.name,
                pred.describe(inv),
                f"{inv}={res.value}",
                _verdict(pred.holds(res.value)),
            )
        )
    if inst.family == "two_connected_chordal":
        rows.append(_hull2_row(g, config))
    return rows


def _hull2_row(g: Graph, config: SuiteConfig) -> TheoremCheck:
    if config.budget <= 0:
        return _row(
            "hull2_chordal", g.name, "every adjacent pair is a hull set",
            "not computed", "skipped", "budget is 0",
        )
    bad = [(u, v) for u, v in g.edges if not is_hull_set(g, (u, v))]
    total = len(g.edges)
    if bad:
        return _row(
            "hull2_chordal",
            g.name,
            "every adjacent pair is a hull set",
            f"{total - len(bad)}/{total} pairs; first failure {bad[0]}",
            "fail",
        )
    return _row(
        "hull2_chordal",
        g.name,
        "every adjacent pair is a hull set",
        f"{total}/{total} adjacent pairs are hull sets",
        "pass",
    )


def verify_products(
    gi: FamilyInstance, hi: FamilyInstance, kind: str, config: SuiteConfig
) -> list[TheoremCheck]:
    kind = normalize_kind(kind)
    p = product(gi.graph, hi.graph, kind)
    name = p.graph.name
    if config.budget <= 0:
        return [
            _row(tid, name, "product theorem", "not computed", "skipped", "budget is 0")
            for tid in _PRODUCT_IDS[kind]
        ]
    if kind == "cartesian":
        return _cartesian_rows(gi, hi, p.graph, name, config)
    if kind == "strong":
        return _strong_rows(gi, hi, p.graph, name, config)
    return _lex_rows(gi, hi, p.graph, name, config)


def _full_search_row(
    tid: str, name: str, pg: Graph, which: str, predicted: str,
    expected_ok, observe, config: SuiteConfig,
) -> TheoremCheck:
    """Run a full pruned search on the product if affordable.

    A failing row carries the extremal set, so a refuted prediction comes
    with its machine-checkable counterexample.
    """
    if not _search_feasible(pg, which, config):
        return _row(
            tid, name, predicted, "not computed", "skipped",
            f"search cost {_search_cost(pg, which)} over limit {config.search_cost_limit}",
        )
    res = caratheodory_number(pg) if which == "c" else exchange_number(pg)
    ok = expected_ok(res.value)
    reason = None if ok else f"extremal set {sorted(res.extremal_set)}"
    return _row(tid, name, predicted, observe(res.value), _verdict(ok), reason)


def _cartesian_rows(
    gi: FamilyInstance, hi: FamilyInstance, pg: Graph, name: str, config: SuiteConfig
) -> list[TheoremCheck]:
    rows = []
    eg = exchange_number(gi.graph)
    eh = exchange_number(hi.graph)
    cg = caratheodory_number(gi.graph)
    ch = caratheodory_number(hi.graph)

    # Lower bound via the explicit witness construction.
    if eg.value > 2 and eh.value > 2:
        bound = (eg.value - 1) * (eh.value - 1) + 1
        pivot_g = is_e_independent(gi.graph, eg.extremal_set).witness[0]
        pivot_h = is_e_independent(hi.graph, eh.extremal_set).witness[0]
        witness = cartesian_e_witness(
            gi.graph, eg.extremal_set, pivot_g, hi.graph, eh.extremal_set, pivot_h
        )
        verdict = is_e_independent(pg, witness)
        ok = verdict.independent and len(witness) == bound
        observed = f"witness size {len(witness)}, independent={verdict.independent}"
        if _search_feasible(pg, "e", config):
            ep = exchange_number(pg)
            ok = ok and ep.value >= bound
            observed += f", e={ep.value}"
        rows.append(
            _row("cart_e_lb", name, f"e >= {bound}", observed, _verdict(ok))
        )
    else:
        rows.append(
            _row(
                "cart_e_lb", name, "e >= (e(G)-1)(e(H)-1)+1",
                f"e(G)={eg.value}, e(H)={eh.value}", "hypothesis_unmet",
                "needs e > 2 in both factors",
            )
        )

    if cg.value > 2 and ch.value > 2:
        bound = cg.value * ch.value
        witness = cartesian_c_witness(
            gi.graph, cg.extremal_set, hi.graph, ch.extremal_set
        )
        verdict = is_c_independent(pg, witness)
        ok = verdict.independent and len(witness) == bound
        observed = f"witness size {len(witness)}, independent={verdict.independent}"
        if _search_feasible(pg, "c", config):
            cp = caratheodory_number(pg)
            ok = ok and cp.value >= bound
            observed += f", c={cp.value}"
        rows.append(
            _row("cart_c_lb", name, f"c >= {bound}", observed, _verdict(ok))
        )
    else:
        rows.append(
            _row(
                "cart_c_lb", name, "c >= c(G)c(H)",
                f"c(G)={cg.value}, c(H)={ch.value}", "hypothesis_unmet",
                "needs c > 2 in both factors",
            )
        )

    # Equality against a path factor.
    if hi.family == "path" and eg.value >= 3:
        rows.append(
            _full_search_row(
                "cart_pn_e_eq", name, pg, "e", f"e = e(G) = {eg.value}",
                lambda v: v == eg.value, lambda v: f"e={v}", config,
            )
        )
    elif gi.family == "path" and eh.value >= 3:
        rows.append(
            _full_search_row(
                "cart_pn_e_eq", name, pg, "e", f"e = e(H) = {eh.value}",
                lambda v: v == eh.value, lambda v: f"e={v}", config,
            )
        )
    else:
        rows.append(
            _row(
                "cart_pn_e_eq", name, "e(G box Pn) = e(G)",
                f"e(G)={eg.value}, e(H)={eh.value}", "hypothesis_unmet",
                "needs a path factor and e >= 3 in the other factor",
            )
        )

    if hi.family == "path" and cg.value >= 4:
        rows.append(
            _full_search_row(
                "cart_pn_c_eq", name, pg, "c", f"c = c(G) = {cg.value}",
                lambda v: v == cg.value, lambda v: f"c={v}", config,
            )
        )
    elif gi.family == "path" and ch.value >= 4:
        rows.append(
            _full_search_row(
                "cart_pn_c_eq", name, pg, "c", f"c = c(H) = {ch.value}",
                lambda v: v == ch.value, lambda v: f"c={v}", config,
            )
        )
    else:
        rows.append(
            _row(
                "cart_pn_c_eq", name, "c(G box Pn) = c(G)",
                f"c(G)={cg.value}, c(H)={ch.value}", "hypothesis_unmet",
                "needs a path factor and c >= 4 in the other factor",
            )
        )
    return rows


def _connected_nontrivial(g: Graph) -> bool:
    return g.n >= 2 and is_connected(g)


def _strong_rows(
    gi: FamilyInstance, hi: FamilyInstance, pg: Graph, name: str, config: SuiteConfig
) -> list[TheoremCheck]:
    rows = []
    ok_factors = _connected_nontrivial(gi.graph) and _connected_nontrivial(hi.graph)
    dg = diameter(gi.graph)
    dh = diameter(hi.graph)
    for tid, hypot, label in (
        ("strong_e3_strict", lambda d: d > 2, "diameter > 2"),
        ("strong_e3_weak", lambda d: d >= 2, "diameter >= 2"),
    ):
        if ok_factors and (hypot(dg) or hypot(dh)):
            rows.append(
                _full_search_row(
                    tid, name, pg, "e", "e = 3",
                    lambda v: v == 3, lambda v: f"e={v}", config,
                )
            )
        else:
            rows.append(
                _row(
                    tid, name, "e = 3",
                    f"diam(G)={dg}, diam(H)={dh}", "hypothesis_unmet",
                    f"needs connected nontrivial factors, one with {label}",
                )
            )
    rows.append(_c2_row(gi, hi, pg, name, config))
    return rows


def _c2_row(
    gi: FamilyInstance, hi: FamilyInstance, pg: Graph, name: str, config: SuiteConfig
) -> TheoremCheck:
    ok_factors = _connected_nontrivial(gi.graph) and _connected_nontrivial(hi.graph)
    if not ok_factors or not pg.edges:
        return _row(
            "strong_lex_c2", name, "c = 2", "hypothesis not satisfied",
            "hypothesis_unmet", "needs connected nontrivial factors",
        )
    return _full_search_row(
        "strong_lex_c2", name, pg, "c", "c = 2",
        lambda v: v == 2, lambda v: f"c={v}", config,
    )


def _lex_rows(
    gi: FamilyInstance, hi: FamilyInstance, pg: Graph, name: str, config: SuiteConfig
) -> list[TheoremCheck]:
    rows = []
    if _connected_nontrivial(gi.graph) and _connected_nontrivial(hi.graph):
        evp, _ = has_edge_vertex_property(hi.graph)
        big_diam = diameter(gi.graph) >= 2
        expected = 3 if big_diam or evp else 2
        why = (
            f"diam(G) >= 2: {big_diam}, H edge-vertex property: {evp}"
        )
        rows.append(
            _full_search_row(
                "lex_e", pg.name, pg, "e", f"e = {expected} ({why})",
                lambda v: v == expected, lambda v: f"e={v}", config,
            )
        )
    else:
        rows.append(
            _row(
                "lex_e", name, "e = 3 or 2 by case", "hypothesis not satisfied",
                "hypothesis_unmet", "needs connected nontrivial factors",
            )
        )
    rows.append(_c2_row(gi, hi, pg, name, config))
    return rows


# --- corpus ------------------------------------------------------------

@dataclass(frozen=True)
class Corpus:
    base: tuple[FamilyInstance, ...]
    gadgets: tuple[FamilyInstance, ...]
    blocks: tuple[FamilyInstance, ...]
    chordal: tuple[FamilyInstance, ...]
    product_cases: tuple[tuple[FamilyInstance, FamilyInstance, str], ...]
    failures: tuple[TheoremCheck, ...] = field(default_factory=tuple)

    def universal_instances(self) -> tuple[FamilyInstance, ...]:
        return self.base + self.gadgets + self.blocks + self.chordal


def triangle_free_corpus() -> list[FamilyInstance]:
    out = [path(n) for n in range(2, 9)]
    out.extend(cycle(n) for n in range(4, 9))
    out.append(complete_bipartite(2, 3))
    out.append(complete_bipartite(3, 3))
    return out


def complete_corpus() -> list[FamilyInstance]:
    return [complete(n) for n in range(3, 8)]


def random_corpus(seed: int, count: int) -> list[FamilyInstance]:
    return [
        random_graph(5 + i % 6, 0.3 if i % 2 == 0 else 0.5, seed * 1009 + i)
        for i in range(count)
    ]


def block_corpus() -> list[FamilyInstance]:
    return [
        block_chain([3]),
        block_chain([4, 3]),
        block_chain([3, 3, 3]),
        block_chain([3, 2, 3, 3]),
        block_tree([[3], [3]]),
        block_tree([[3, 3], [3]]),
        block_tree([[4, 3], [3, 3]]),
        block_tree([[3], [3], [3]]),
        block_tree([[3, 3], [3], [3]]),
    ]


def chordal_corpus(seed: int, count: int) -> list[FamilyInstance]:
    return [
        two_connected_chordal(5 + i % 6, seed * 2003 + i + 1) for i in range(count)
    ]


def build_corpus(config: SuiteConfig) -> Corpus:
    failures: list[TheoremCheck] = []
    gadgets: list[FamilyInstance] = []
    for tid, build, args in (
        ("gadget_c_exact", gadget_c, (3, 4, 5)),
        ("gadget_e_exact", gadget_e, (1, 2, 3)),
    ):
        for a in args:
            try:
                gadgets.append(build(a))
            except ReconstructionError as exc:
                failures.append(
                    _row(
                        tid, f"{build.__name__}({a})", "valid reconstruction",
                        "reconstruction discrepancy", "fail", str(exc),
                    )
                )
    base = triangle_free_corpus() + complete_corpus() + random_corpus(
        config.seed, config.random_count
    )
    blocks = block_corpus()
    chordal = chordal_corpus(config.seed, config.chordal_count)
    by_name = {inst.name: inst for inst in gadgets}
    gc3 = by_name.get("gadget_c(3)")
    gc4 = by_name.get("gadget_c(4)")
    cases = []
    if gc3 is not None:
        cases += [
            (gc3, gc3, "cartesian"),
            (gc3, path(2), "cartesian"),
            (gc3, path(3), "cartesian"),
        ]
    if gc4 is not None:
        cases.append((gc4, path(2), "cartesian"))
    cases += [
        (path(3), path(3), "cartesian"),
        (path(4), path(2), "strong"),
        (path(3), path(2), "strong"),
        (complete(3), path(4), "lexicographic"),
        (complete(3), complete(3), "lexicographic"),
        (path(3), complete(3), "lexicographic"),
    ]
    return Corpus(
        tuple(base), tuple(gadgets), tuple(blocks), tuple(chordal),
        tuple(cases), tuple(failures),
    )


# --- suite driver ------------------------------------------------------

def _collect_tasks(config: SuiteConfig, corpus: Corpus) -> list[tuple]:
    suites = set(config.suites)

    def wanted(inst: FamilyInstance) -> bool:
        return config.families is None or inst.family in config.families

    tasks: list[tuple] = []
    if "universal" in suites:
        for inst in corpus.universal_instances():
            if wanted(inst):
                tasks.append((config, "universal", inst))
        for inst in corpus.base:
            if inst.predictions and wanted(inst):
                tasks.append((config, "family", inst))
    if "blocks" in suites:
        for inst in corpus.blocks:
            if wanted(inst):
                tasks.append((config, "family", inst))
    if "chordal" in suites:
        for inst in corpus.chordal:
            if wanted(inst):
                tasks.append((config, "family", inst))
    if "gadgets" in suites:
        for inst in corpus.gadgets:
            if wanted(inst):
                tasks.append((config, "family", inst))
    if "products" in suites:
        for gi, hi, kind in corpus.product_cases:
            if wanted(gi) and wanted(hi):
                tasks.append((config, "products", (gi, hi, kind)))
    return tasks


def _execute_task(task: tuple) -> list[TheoremCheck]:
    config, tag, payload = task
    if tag == "universal":
        return verify_graph_universal(payload, config)
    if tag == "family":
        return verify_family(payload, config)
    gi, hi, kind = payload
    return verify_products(gi, hi, kind, config)


def run_suite(config: SuiteConfig) -> SuiteReport:
    for s in config.suites:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}; use subsets of {SUITES}")
    if config.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {config.jobs}")
    corpus = build_corpus(config)
    tasks = _collect_tasks(config, corpus)
    # The pool starts all its workers at once; no more than there are tasks.
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute_task, tasks))
    else:
        results = [_execute_task(t) for t in tasks]
    checks: list[TheoremCheck] = list(corpus.failures)
    for rows in results:
        checks.extend(rows)
    if config.theorems is not None:
        checks = [c for c in checks if c.theorem_id in config.theorems]
    counts = {"pass": 0, "fail": 0, "skipped": 0, "hypothesis_unmet": 0, "flagged": 0}
    for c in checks:
        counts[c.status] += 1
    summary = {
        **counts,
        "total": len(checks),
        "seed": config.seed,
        "budget": config.budget,
        "suites": list(config.suites),
    }
    return SuiteReport(tuple(checks), summary)


def write_report(report: SuiteReport, stream: IO[str]) -> None:
    for line in report.lines():
        stream.write(line + "\n")


def covered_theorem_ids(checks: Iterable[TheoremCheck]) -> frozenset[str]:
    return frozenset(c.theorem_id for c in checks)
