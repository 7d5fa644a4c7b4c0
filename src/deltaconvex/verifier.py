"""Corpus runner: check every theorem's prediction against brute force.

``SuiteConfig`` holds the four settings of ``deltaconvex verify``: seed,
budget, suites and jobs. The corpus is fixed apart from the seed, which
draws its 30 random graphs and 10 two-connected chordal graphs. The runner
computes invariants exhaustively where the budget allows and emits one
machine-readable record per (graph, theorem) pair. Records are
line-delimited JSON with stable field order followed by a summary object,
so identical configurations produce byte-identical reports regardless of
parallelism width.

Each universal and product theorem is declared once, in
``_UNIVERSAL_THEOREMS`` or under its product kind in ``_PRODUCT_THEOREMS``,
in report order: an id plus one check that maps a ``_Case`` to
``(predicted, observed, status, reason)``. The same tables name the
skipped rows when the budget rules a task out. A ``_Case`` holds one
task's graphs and a memo, so each (invariant, graph) search runs at most
once per task. Checks reach searches, witnesses and graph queries through
module globals at call time, so rebinding those names (as the benchmark's
tracer does) sees every call.

Caps: the searches of the universal rows (``sierksma``, the two triangle
bounds, ``cara_prop_iii``) and of the family rows pass ``max_size=n``, as
the default cap, the component bound, is proved by the triangle bounds'
own argument and would keep ``cara_triangle_bound``,
``exch_triangle_bound`` and the families' ``c <= k+1`` predictions from
ever failing. The product rows and their factor searches keep the default
cap: it is proved in ``independence`` and no product theorem rests on it.

Budget: ``_Case.runs`` runs a search of ``graph`` iff its space, the
number of candidate sets its pool and cap allow (``search_space``), is
below 2^budget, and none at a budget <= 0. An e or h search to size n
has a space of 2^n - 1, so universal and family rows run iff n <= budget.
An over-budget product row is skipped, and ``cart_*_lb`` leaves its
optional full search out; factor searches are not gated.

Tasks: each is a ``(size, call)`` pair. ``call()`` returns its rows; it
is a ``partial`` of a ``verify_*`` function over one instance or product
case, made when ``run_suite`` runs, so rebinding those names reaches
every task. ``size`` is n_G * n_H for a product task, n for any other.

``jobs`` processes run the tasks, the caller included, in static shares:
the tasks are ordered by size, largest first, and dealt round-robin into
``min(jobs, tasks)`` shares. The caller forks one child per share past
the first and runs share 0 itself; each child sends its rows back as one
pickled message on a pipe and leaves by ``os._exit``. Rows are placed by
task index, so the report does not depend on ``jobs``. A child's
exception is raised again in the caller (as a ``RuntimeError`` with the
child's traceback if it cannot be pickled), a child that exits without
a result raises a ``RuntimeError`` naming its exit status, every child
is reaped before ``run_suite`` returns or raises, and no partial report
is made. Without ``os.fork`` the tasks run serially. A fork copies only
the calling thread, so ``jobs > 1`` expects a caller without threads.

Statuses: ``pass`` and ``fail`` compare an exhaustively computed value
with the prediction; ``hypothesis_unmet`` records that a theorem's
preconditions do not hold for the graph (never silently dropped);
``skipped`` marks rows whose searches the budget ruled out (Budget
above); ``flagged`` marks diagnostic findings that are surfaced without
failing the run.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import IO, Callable, Iterable

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
    InvariantResult,
    cara_property_iii_violations,
    caratheodory_number,
    exchange_number,
    helly_number,
    is_c_independent,
    is_e_independent,
    search_space,
)
from .products import (
    cartesian_c_witness,
    cartesian_e_witness,
    has_edge_vertex_property,
    normalize_kind,
    product,
)

SUITES = ("universal", "blocks", "chordal", "gadgets", "products")


@dataclass(frozen=True)
class TheoremCheck:
    theorem_id: str
    graph: str
    predicted: str
    observed: str
    status: str
    reason: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class SuiteConfig:
    """The four ``verify`` settings; identical configs give identical reports.

    ``seed`` picks the corpus's 30 random and 10 chordal graphs, a
    ``budget`` of b runs a search only if it may meet fewer than 2^b
    candidate sets, so it covers any b-vertex graph (module docstring:
    budget), ``suites`` selects from ``SUITES`` and ``jobs`` is the number
    of processes that run the tasks, the caller included:
    ``min(jobs, tasks) - 1`` forked children, none without ``os.fork``. It
    never changes the report (module docstring: shares and failure rules).
    """

    seed: int = 0
    budget: int = 12
    suites: tuple[str, ...] = SUITES
    jobs: int = 1


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


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# --- theorem tables ----------------------------------------------------

Outcome = tuple[str, str, str, "str | None"]  # predicted, observed, status, reason


@dataclass
class _Case:
    """The graphs one task checks: ``graph`` itself (the product, for a
    product case) and the factor instances ``g`` and ``h``; each
    (invariant, graph) search runs at most once, to size n in a case
    without factors, else to the proven cap (module docstring: caps)."""

    graph: Graph
    budget: int
    g: FamilyInstance | None = None
    h: FamilyInstance | None = None
    _found: dict[tuple[str, Graph], InvariantResult] = field(default_factory=dict, init=False)

    @property
    def max_size(self) -> int | None:
        return self.graph.n if self.g is None else None

    def search(self, inv: str, graph: Graph | None = None) -> InvariantResult:
        key = (inv, self.graph if graph is None else graph)
        if key not in self._found:
            fn = {"c": caratheodory_number, "e": exchange_number, "h": helly_number}[inv]
            self._found[key] = fn(key[1], max_size=self.max_size)
        return self._found[key]

    @cached_property
    def spaces(self) -> dict[str, int]:
        """The search space of each invariant on ``graph``, counted once."""
        return {inv: search_space(self.graph, inv, self.max_size) for inv in "ceh"}

    def runs(self, inv: str) -> bool:
        """The budget rule: a search runs iff its space is below 2^budget."""
        return self.budget > 0 and self.spaces[inv].bit_length() <= self.budget

    def factors_connected(self) -> bool:
        return all(f.graph.n >= 2 and is_connected(f.graph) for f in (self.g, self.h))


def _full_search(case: _Case, inv: str, predicted: str, expected: int) -> Outcome:
    """Compare the product's exhaustive ``inv`` with ``expected`` if the
    search is affordable. A failing row carries the extremal set, so a
    refuted prediction comes with its machine-checkable counterexample."""
    if not case.runs(inv):
        reason = f"search space {case.spaces[inv]} over budget 2^{case.budget}"
        return predicted, "not computed", "skipped", reason
    res = case.search(inv)
    ok = res.value == expected
    reason = None if ok else f"extremal set {sorted(res.extremal_set)}"
    return predicted, f"{inv}={res.value}", _verdict(ok), reason


def _sierksma(case: _Case) -> Outcome:
    c, e, h = (case.search(inv).value for inv in "ceh")
    ok = e - 1 <= c <= max(h, e - 1)
    return "e - 1 <= c <= max(h, e - 1)", f"c={c}, e={e}, h={h}", _verdict(ok), None


def _triangle_bound(inv: str, extra: int, case: _Case) -> Outcome:
    """``inv`` is at most the number of triangles plus ``extra``."""
    bound = len(case.graph.triangles) + extra
    value = case.search(inv).value
    return f"{inv} <= {bound}", f"{inv}={value}", _verdict(value <= bound), None


def _prop_iii(case: _Case) -> Outcome:
    c = case.search("c")
    violations = cara_property_iii_violations(case.graph, c.extremal_set) if c.value >= 2 else ()
    predicted = "no violating pair on the extremal set"
    if violations:
        return (predicted, f"pairs {sorted(violations)}", "flagged",
                "diagnostic only; not used for pruning")
    return predicted, "none", "pass", None


def _cart_lower_bound(inv: str, case: _Case) -> Outcome:
    """The explicit witness of the Cartesian lower bound on ``inv`` is
    independent and as large as the bound; where affordable, the full
    search agrees."""
    g, h = case.g.graph, case.h.graph
    rg, rh = case.search(inv, g), case.search(inv, h)
    if rg.value <= 2 or rh.value <= 2:
        formula = "(e(G)-1)(e(H)-1)+1" if inv == "e" else "c(G)c(H)"
        return (f"{inv} >= {formula}", f"{inv}(G)={rg.value}, {inv}(H)={rh.value}",
                "hypothesis_unmet", f"needs {inv} > 2 in both factors")
    if inv == "e":
        bound = (rg.value - 1) * (rh.value - 1) + 1
        build, test = cartesian_e_witness, is_e_independent
    else:
        bound = rg.value * rh.value
        build, test = cartesian_c_witness, is_c_independent
    witness = build(g, rg.extremal_set, h, rh.extremal_set)
    verdict = test(case.graph, witness)
    ok = verdict.independent and len(witness) == bound
    observed = f"witness size {len(witness)}, independent={verdict.independent}"
    if case.runs(inv):
        value = case.search(inv).value
        ok = ok and value >= bound
        observed += f", {inv}={value}"
    return f"{inv} >= {bound}", observed, _verdict(ok), None


def _is_path(g: Graph) -> bool:
    """Whether ``g`` is a path: connected, n - 1 edges, no degree above 2."""
    return len(g.edges) == g.n - 1 and all(a.bit_count() <= 2 for a in g.adj) and is_connected(g)


def _cart_path_equality(inv: str, least: int, case: _Case) -> Outcome:
    """``inv`` of a Cartesian product with a path is the other factor's if >= ``least``."""
    values = {}
    for side, other, path_factor in (("G", case.g, case.h), ("H", case.h, case.g)):
        values[side] = case.search(inv, other.graph).value
        if values[side] >= least and _is_path(path_factor.graph):
            predicted = f"{inv} = {inv}({side}) = {values[side]}"
            return _full_search(case, inv, predicted, values[side])
    return (f"{inv}(G box Pn) = {inv}(G)", f"{inv}(G)={values['G']}, {inv}(H)={values['H']}",
            "hypothesis_unmet", f"needs a path factor and {inv} >= {least} in the other factor")


def _strong_e3(compare: Callable[[int, int], bool], label: str, case: _Case) -> Outcome:
    """e = 3 for connected nontrivial factors, one with ``compare(diameter, 2)``."""
    dg, dh = diameter(case.g.graph), diameter(case.h.graph)
    if case.factors_connected() and (compare(dg, 2) or compare(dh, 2)):
        return _full_search(case, "e", "e = 3", 3)
    return ("e = 3", f"diam(G)={dg}, diam(H)={dh}", "hypothesis_unmet",
            f"needs connected nontrivial factors, one with diameter {label} 2")


def _lex_e(case: _Case) -> Outcome:
    if not case.factors_connected():
        return ("e = 3 or 2 by case", "hypothesis not satisfied", "hypothesis_unmet",
                "needs connected nontrivial factors")
    evp, _ = has_edge_vertex_property(case.h.graph)
    big_diam = diameter(case.g.graph) >= 2
    expected = 3 if big_diam or evp else 2
    why = f"diam(G) >= 2: {big_diam}, H edge-vertex property: {evp}"
    return _full_search(case, "e", f"e = {expected} ({why})", expected)


def _c2(case: _Case) -> Outcome:
    if not case.factors_connected() or not case.graph.edges:
        return ("c = 2", "hypothesis not satisfied", "hypothesis_unmet",
                "needs connected nontrivial factors")
    return _full_search(case, "c", "c = 2", 2)


Theorems = tuple[tuple[str, Callable[[_Case], Outcome]], ...]

_UNIVERSAL_THEOREMS: Theorems = (
    ("sierksma", _sierksma),
    ("cara_triangle_bound", partial(_triangle_bound, "c", 1)),
    ("exch_triangle_bound", partial(_triangle_bound, "e", 2)),
    ("cara_prop_iii", _prop_iii),
)
_PRODUCT_THEOREMS: dict[str, Theorems] = {
    "cartesian": (
        ("cart_e_lb", partial(_cart_lower_bound, "e")),
        ("cart_c_lb", partial(_cart_lower_bound, "c")),
        ("cart_pn_e_eq", partial(_cart_path_equality, "e", 3)),
        ("cart_pn_c_eq", partial(_cart_path_equality, "c", 4)),
    ),
    "strong": (
        ("strong_e3_strict", partial(_strong_e3, operator.gt, ">")),
        ("strong_e3_weak", partial(_strong_e3, operator.ge, ">=")),
        ("strong_lex_c2", _c2),
    ),
    "lexicographic": (
        ("lex_e", _lex_e),
        ("strong_lex_c2", _c2),
    ),
}


def _check_all(theorems: Theorems, case: _Case) -> list[TheoremCheck]:
    return [TheoremCheck(tid, case.graph.name, *check(case)) for tid, check in theorems]


def _skip_all(theorems: Theorems, name: str, predicted: str, reason: str) -> list[TheoremCheck]:
    return [
        TheoremCheck(tid, name, predicted, "not computed", "skipped", reason)
        for tid, _ in theorems
    ]


# --- per-task checks ---------------------------------------------------

def verify_graph_universal(inst: FamilyInstance, config: SuiteConfig) -> list[TheoremCheck]:
    """Sierksma inequalities plus the two triangle-count bounds."""
    g = inst.graph
    case = _Case(g, config.budget)
    if not all(map(case.runs, "ceh")):
        reason = f"over budget (n={g.n}, budget={config.budget})"
        return _skip_all(_UNIVERSAL_THEOREMS, g.name, "exhaustive invariants", reason)
    return _check_all(_UNIVERSAL_THEOREMS, case)


def verify_family(inst: FamilyInstance, config: SuiteConfig) -> list[TheoremCheck]:
    """Compare the instance's predicted invariants with brute force."""
    g = inst.graph
    rows: list[TheoremCheck] = []
    case = _Case(g, config.budget)
    feasible = all(map(case.runs, inst.predictions))
    for inv, pred in sorted(inst.predictions.items()):
        if feasible:
            value = case.search(inv).value
            outcome = f"{inv}={value}", _verdict(pred.holds(value)), None
        else:
            outcome = "not computed", "skipped", f"over budget (n={g.n}, budget={config.budget})"
        rows.append(TheoremCheck(pred.theorem, g.name, pred.describe(inv), *outcome))
    if inst.family == "two_connected_chordal":
        rows.append(_hull2_row(g, config))
    return rows


def _hull2_row(g: Graph, config: SuiteConfig) -> TheoremCheck:
    row = partial(TheoremCheck, "hull2_chordal", g.name, "every adjacent pair is a hull set")
    if config.budget <= 0:
        return row("not computed", "skipped", "budget is 0")
    bad = [(u, v) for u, v in g.edges if not is_hull_set(g, (u, v))]
    total = len(g.edges)
    if bad:
        return row(f"{total - len(bad)}/{total} pairs; first failure {bad[0]}", "fail")
    return row(f"{total}/{total} adjacent pairs are hull sets", "pass")


def verify_products(
    gi: FamilyInstance, hi: FamilyInstance, kind: str, config: SuiteConfig
) -> list[TheoremCheck]:
    kind = normalize_kind(kind)
    pg = product(gi.graph, hi.graph, kind).graph
    theorems = _PRODUCT_THEOREMS[kind]
    if config.budget <= 0:
        return _skip_all(theorems, pg.name, "product theorem", "budget is 0")
    return _check_all(theorems, _Case(pg, config.budget, gi, hi))


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


def build_corpus(seed: int) -> Corpus:
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
                name = f"{build.__name__}({a})"
                failures.append(TheoremCheck(tid, name, "valid reconstruction",
                                             "reconstruction discrepancy", "fail", str(exc)))
    base = triangle_free_corpus() + complete_corpus() + random_corpus(seed, 30)
    blocks = block_corpus()
    chordal = chordal_corpus(seed, 10)
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

Task = tuple[int, Callable[[], list[TheoremCheck]]]  # size, call (module docstring: tasks)


def _collect_tasks(config: SuiteConfig, corpus: Corpus) -> list[Task]:
    """The selected suites' tasks, in ``SUITES`` order."""
    def each(verify: Callable, instances: Iterable[FamilyInstance]) -> list[Task]:
        return [(inst.graph.n, partial(verify, inst, config)) for inst in instances]

    by_suite = {
        "universal": each(verify_graph_universal, corpus.universal_instances())
        + each(verify_family, [inst for inst in corpus.base if inst.predictions]),
        "blocks": each(verify_family, corpus.blocks),
        "chordal": each(verify_family, corpus.chordal),
        "gadgets": each(verify_family, corpus.gadgets),
        "products": [
            (gi.graph.n * hi.graph.n, partial(verify_products, gi, hi, kind, config))
            for gi, hi, kind in corpus.product_cases
        ],
    }
    return [task for suite in SUITES if suite in config.suites for task in by_suite[suite]]


def _shares(sizes: list[int], workers: int) -> list[list[int]]:
    """Task indices, largest size first (ties in task order), dealt
    round-robin into ``workers`` shares."""
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    return [order[w::workers] for w in range(workers)]


def _run_child(tasks: list[Task], share: list[int], fd: int, inherited: list[int]) -> None:
    """In a forked child: close the ``inherited`` pipe ends, run ``share``
    and send its rows, or its error, to ``fd``.

    Never returns: ``os._exit`` skips the buffers and atexit hooks the
    child inherited, so nothing the caller owns runs twice. An interrupt
    sends nothing; the caller then reports the exit status."""
    import pickle
    import traceback

    code = 1
    try:
        for other in inherited:
            os.close(other)
        try:
            message = ("rows", [tasks[i][1]() for i in share])
            code = 0
        except Exception as exc:
            try:
                exc_bytes = pickle.dumps(exc)
            except Exception:
                exc_bytes = None
            message = ("error", traceback.format_exc(), exc_bytes)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(pickle.dumps(message))
    finally:
        os._exit(code)


def _receive(pid: int, fd: int) -> list[list[TheoremCheck]]:
    """Read a child's message to EOF, reap the child (also on error), and
    return its rows or raise its error."""
    import pickle

    try:
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        message = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(f"verify worker {pid} {how} without a result") from None
    if message[0] == "rows":
        return message[1]
    _, text, exc_bytes = message
    remote = RuntimeError(f"verify worker {pid} failed:\n{text}")
    if exc_bytes is None:
        raise remote
    try:
        exc = pickle.loads(exc_bytes)
    except Exception:  # an exception class that pickles but cannot be rebuilt
        raise remote from None
    raise exc from remote


def _run_shares(tasks: list[Task], workers: int) -> list[list[TheoremCheck]]:
    """Each task's rows, in task order, from ``workers`` static shares:
    the caller runs share 0 and one forked child runs each of the others."""
    fork = getattr(os, "fork", None)
    if workers <= 1 or fork is None:
        return [call() for _, call in tasks]
    import signal  # here and in the helpers: a serial run imports none of it

    shares = _shares([size for size, _ in tasks], workers)
    results: list = [None] * len(tasks)
    unread: dict[int, int] = {}  # child pid -> read end of its pipe
    try:
        for share in shares[1:]:
            fd_read, fd_write = os.pipe()
            pid = fork()
            if pid == 0:
                _run_child(tasks, share, fd_write, [fd_read, *unread.values()])
            os.close(fd_write)
            unread[pid] = fd_read
        for i in shares[0]:
            results[i] = tasks[i][1]()
        for (pid, fd), share in zip(list(unread.items()), shares[1:]):
            del unread[pid]
            for i, rows in zip(share, _receive(pid, fd)):
                results[i] = rows
    finally:
        # Left only after a failure: stop and reap them, so no partial
        # report is made and no child outlives the call.
        for pid, fd in unread.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def run_suite(config: SuiteConfig) -> SuiteReport:
    for s in config.suites:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}; use subsets of {SUITES}")
    if config.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {config.jobs}")
    corpus = build_corpus(config.seed)
    tasks = _collect_tasks(config, corpus)
    results = _run_shares(tasks, min(config.jobs, len(tasks)))
    checks = [c for rows in (corpus.failures, *results) for c in rows]
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
