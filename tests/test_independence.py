import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import oracles
from deltaconvex import independence
from deltaconvex import (
    Graph,
    GraphError,
    cara_property_iii_violations,
    caratheodory_number,
    delta_hull,
    exchange_number,
    helly_number,
    is_c_independent,
    is_e_independent,
    is_h_independent,
    naive_caratheodory_number,
    naive_exchange_number,
    naive_helly_number,
    verify_graph_universal,
)
from deltaconvex.families import (
    block_chain,
    complete,
    complete_bipartite,
    cycle,
    gadget_c,
    gadget_e,
    path,
)
from deltaconvex.products import product
from deltaconvex.verifier import SuiteConfig
from conftest import random_graph_raw

K3 = complete(3).graph
P3 = path(3).graph


def test_empty_set_rejected():
    for fn in (is_c_independent, is_e_independent, is_h_independent):
        with pytest.raises(GraphError):
            fn(K3, ())
    with pytest.raises(GraphError, match=f"vertex {K3.n} out of range 0..2"):
        is_c_independent(K3, {0, K3.n})


def test_c_independent_examples():
    v = is_c_independent(K3, {0, 1})
    assert v.independent and v.witness == 2
    # three pairwise non-adjacent vertices on no triangle
    p7 = path(7).graph
    assert not is_c_independent(p7, {0, 3, 6}).independent
    # the n=4 chain gadget: removing any chain vertex leaves the far apex uncovered
    g4 = gadget_c(4).graph
    v = is_c_independent(g4, {0, 1, 2, 3})
    assert v.independent and v.witness == 6


def test_c_independent_singletons():
    for g in (K3, P3, complete(5).graph):
        for v in range(g.n):
            assert is_c_independent(g, {v}).independent


def test_e_independent_examples():
    # any two distinct vertices
    for s in combinations(range(4), 2):
        assert is_e_independent(path(4).graph, s).independent
    assert not is_e_independent(K3, {0, 1, 2}).independent
    ge2 = gadget_e(2).graph
    v = is_e_independent(ge2, {0, 1, 2, 5})
    assert v.independent
    assert v.witness == (5, 4)  # pivot is the pendant, uncovered vertex the last apex


def test_e_independent_singleton():
    v = is_e_independent(K3, {1})
    assert v.independent and v.witness is None


def test_h_independent_examples():
    assert is_h_independent(K3, {0}).independent
    assert not is_h_independent(K3, {0, 1, 2}).independent
    assert is_h_independent(P3, {0, 2}).independent


def test_witnesses_revalidate_against_oracle_hulls():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph_raw(rng, rng.randint(2, 8), rng.choice([0.3, 0.6]))
        adj = oracles.adjacency(g.n, g.edges)
        members = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        s = set(members)
        cv = is_c_independent(g, s)
        if cv.independent:
            p = cv.witness
            assert p in oracles.hull(adj, s)
            assert all(p not in oracles.hull(adj, s - {a}) for a in s)
        ev = is_e_independent(g, s)
        if ev.independent and len(s) > 1:
            p, p2 = ev.witness
            assert p2 in oracles.hull(adj, s - {p})
            assert all(p2 not in oracles.hull(adj, s - {a}) for a in s - {p})


def test_verdicts_match_oracle():
    rng = random.Random(32)
    for _ in range(60):
        g = random_graph_raw(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.8]))
        adj = oracles.adjacency(g.n, g.edges)
        members = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        assert is_c_independent(g, members).independent == oracles.c_independent(adj, members)
        assert is_e_independent(g, members).independent == oracles.e_independent(adj, members)
        assert is_h_independent(g, members).independent == oracles.h_independent(adj, members)


def test_caratheodory_number_observations():
    for inst in (path(6), cycle(5), complete_bipartite(2, 3)):
        res = caratheodory_number(inst.graph)
        assert res.value == 1 and res.exhaustive
    res = caratheodory_number(complete(5).graph)
    assert res.value == 2 and res.exhaustive
    res = caratheodory_number(block_chain([3, 3, 3]).graph)
    assert res.value == 4


def test_exchange_number_observations():
    for inst in (path(6), cycle(6), complete_bipartite(3, 3)):
        res = exchange_number(inst.graph)
        assert res.value == 2 and res.exhaustive
    for n in (3, 5):
        assert exchange_number(complete(n).graph).value == 2
    assert exchange_number(gadget_e(2).graph).value == 4


def test_exchange_number_single_vertex():
    assert exchange_number(Graph(1, [])).value == 1


def test_helly_number_small():
    assert helly_number(Graph(1, [])).value == 1
    # triangle-free graphs have only trivial hulls, so every set is
    # Helly independent and the number equals n (frozen from the oracle)
    assert helly_number(P3).value == 3
    assert oracles.invariant(3, P3.edges, "h") == 3
    k4 = complete(4).graph
    assert helly_number(k4).value == 2
    assert oracles.invariant(4, k4.edges, "h") == 2


def test_invariants_match_triangle_bounds():
    # To size n: the default searches stop at the component bound, which is
    # at most k + 1, so they could not break these bounds.
    rng = random.Random(33)
    for _ in range(25):
        g = random_graph_raw(rng, rng.randint(1, 9), rng.choice([0.3, 0.5]))
        k = len(g.triangles)
        assert caratheodory_number(g, max_size=g.n).value <= k + 1
        e = exchange_number(g, max_size=g.n).value
        assert e <= k + 2
        if g.n >= 2:
            assert e >= 2


def test_extremal_sets_revalidate():
    rng = random.Random(34)
    for _ in range(20):
        g = random_graph_raw(rng, rng.randint(1, 8), 0.5)
        c = caratheodory_number(g)
        assert is_c_independent(g, c.extremal_set).independent
        e = exchange_number(g)
        assert len(e.extremal_set) == 1 or is_e_independent(g, e.extremal_set).independent
        h = helly_number(g)
        assert is_h_independent(g, h.extremal_set).independent


def test_pruned_equals_naive_and_oracle():
    rng = random.Random(35)
    for _ in range(12):
        g = random_graph_raw(rng, rng.randint(1, 7), rng.choice([0.3, 0.6]))
        for which, pruned, naive in (
            ("c", caratheodory_number, naive_caratheodory_number),
            ("e", exchange_number, naive_exchange_number),
            ("h", helly_number, naive_helly_number),
        ):
            a = pruned(g)
            b = naive(g)
            assert a.value == b.value
            assert a.extremal_set == b.extremal_set
            assert a.value == oracles.invariant(g.n, g.edges, which)


def test_max_size_cap_flags_non_exhaustive():
    g = gadget_c(5).graph  # c = 5
    res = caratheodory_number(g, max_size=3)
    assert not res.exhaustive
    assert res.value == 3  # lower bound
    assert res.search_bound_used == 3
    full = caratheodory_number(g)
    assert full.exhaustive and full.value == 5
    e_capped = exchange_number(g, max_size=2)
    assert not e_capped.exhaustive and e_capped.value == 2


def test_max_size_above_the_proven_cap_searches_on_to_it():
    # gc3 box P4: 20 triangle vertices, B = 3 = c. A search to size 20 finds
    # no larger set, and the first set of size 3 is the default search's.
    g = product(gadget_c(3).graph, path(4).graph, "cartesian").graph
    default = caratheodory_number(g)
    assert default.search_bound_used == 3
    res = caratheodory_number(g, max_size=20)
    assert res.search_bound_used == 20 and res.exhaustive
    assert (res.value, res.extremal_set) == (default.value, default.extremal_set)


def test_search_space_counts_the_sets_the_search_may_meet():
    # Pools and caps written out here, independent of ``_plan``: triangle
    # vertices up to B for c, all vertices up to B + 1 for e and up to n for
    # h; with max_size=n, the candidate count (at least 1) for c and e.
    rng = random.Random(36)
    graphs = [path(1).graph, path(5).graph, K3, gadget_c(3).graph, gadget_e(2).graph]
    graphs += [random_graph_raw(rng, rng.randint(1, 9), 0.5) for _ in range(20)]
    for g in graphs:
        b = independence.component_bound(g)
        tri = [v for v in range(g.n) if any(v in t for t in g.triangles)]
        every = list(range(g.n))
        for kind, pool, cap, pool_cap, search in (
            (independence.CARATHEODORY, tri, min(b, g.n), max(1, len(tri)), caratheodory_number),
            (independence.EXCHANGE, every, min(b + 1, g.n), g.n, exchange_number),
            (independence.HELLY, every, g.n, g.n, None),
        ):
            for max_size, size in ((None, cap), (g.n, pool_cap)):
                brute = sum(1 for s in range(1, size + 1) for _ in combinations(pool, s))
                assert independence.search_space(g, kind, max_size) == brute
                if search is not None:
                    assert search(g, max_size=max_size).search_bound_used == size
    # the capped exchange search of gc3 box P4 (B = 3) stops at size 4
    g = product(gadget_c(3).graph, path(4).graph, "cartesian").graph
    assert independence.search_space(g, independence.EXCHANGE) == 20 + 190 + 1140 + 4845


def test_searches_to_n_do_not_read_the_component_bound(monkeypatch):
    # The proven cap is at most the pool size, so a search to size n is
    # exhaustive without B; only a cap below the pool needs it.
    calls = []
    bound = independence.component_bound
    monkeypatch.setattr(independence, "component_bound", lambda g: calls.append(g) or bound(g))
    g = product(gadget_c(3).graph, path(2).graph, "cartesian").graph
    small = gadget_c(3).graph
    for kind, search, naive in (
        (independence.CARATHEODORY, caratheodory_number, naive_caratheodory_number),
        (independence.EXCHANGE, exchange_number, naive_exchange_number),
        (independence.HELLY, helly_number, naive_helly_number),
    ):
        assert search(g, max_size=g.n).exhaustive
        independence.search_space(g, kind, g.n)
        assert naive(small).exhaustive
    assert calls == []
    assert caratheodory_number(g).exhaustive and calls == [g]


def test_helly_early_stop_is_exhaustive():
    k4 = complete(4).graph
    res = helly_number(k4)
    assert res.exhaustive
    assert res.search_bound_used == 3  # stopped after finding size 3 empty


def test_helly_search_is_not_limited_by_recursion_depth():
    res = helly_number(path(1100).graph)
    assert res.value == 1100 and res.exhaustive


def test_helly_search_memory_is_linear_in_depth():
    # Peak RSS growth of a fresh process over the search, untraced: about
    # 17 MB, and about 64 MB when every level keeps its leave-one-out hulls.
    code = (
        "import resource, sys\n"
        "from deltaconvex.families import path\n"
        "from deltaconvex.independence import helly_number\n"
        "g = path(1100).graph\n"
        "g.triangle_pairs\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "value = helly_number(g).value\n"
        "print(value, peak() - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(independence.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    value, growth = map(int, out.stdout.split())
    assert value == 1100
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS
    assert growth * (1 if sys.platform == "darwin" else 1024) < 40 * 2**20


def test_only_long_searches_fetch_the_symmetry_group():
    # To size n, as the default search stops at size 4 after a few nodes.
    small = product(gadget_c(3).graph, path(2).graph, "cartesian").graph
    exchange_number(small, max_size=small.n)
    assert "symmetries" not in vars(small)
    large = product(gadget_c(3).graph, path(3).graph, "cartesian").graph
    res = exchange_number(large, max_size=large.n)
    assert len(vars(large)["symmetries"]) == 15
    assert (res.value, sorted(res.extremal_set)) == (4, [0, 1, 3, 6])


def test_symmetry_cut_removes_nodes(monkeypatch):
    # Counted hull extensions, a deterministic stand-in for search time.
    g = product(gadget_c(3).graph, path(3).graph, "cartesian").graph
    real = independence.extend_hull
    calls = []
    monkeypatch.setattr(
        independence, "extend_hull", lambda g, h, v: calls.append(v) or real(g, h, v)
    )
    cost = {}
    for label, group in (("none", ()), ("cut", g.symmetries)):
        calls.clear()
        found = independence._lex_search(g, independence.EXCHANGE, list(range(g.n)), 3, 6, group)
        cost[label] = len(calls)
        assert found == {3: 0b1011, 4: 0b1001011}
    assert cost["cut"] * 3 < cost["none"]


def test_extremal_set_is_first_in_enumeration_order():
    res = exchange_number(path(5).graph)
    assert res.extremal_set == {0, 1}
    res = caratheodory_number(complete(6).graph)
    assert res.extremal_set == {0, 1}


def _sierksma_row(inst):
    """The ``sierksma`` row of the verifier's universal rows on ``inst``."""
    rows = verify_graph_universal(inst, SuiteConfig(budget=inst.graph.n))
    return next(row for row in rows if row.theorem_id == "sierksma")


def test_sierksma_check():
    for inst, observed in ((complete(4), "c=2, e=2, h=2"), (path(5), "c=1, e=2, h=5")):
        row = _sierksma_row(inst)
        assert row.status == "pass" and row.observed == observed
    row = _sierksma_row(gadget_c(4))
    assert row.status == "pass" and row.observed.startswith("c=4, e=4, h=")


def test_prop_e_dependent_conditions():
    """Sets whose leave-one-out hulls pairwise cover the full hull are
    exchange dependent (three- and four-member cover conditions)."""
    rng = random.Random(36)
    tested_triples = 0
    for _ in range(40):
        g = random_graph_raw(rng, rng.randint(3, 7), 0.6)
        members = sorted(rng.sample(range(g.n), rng.randint(3, min(5, g.n))))
        s = frozenset(members)
        hull_s = delta_hull(g, s)
        sub = {a: delta_hull(g, s - {a}) for a in members}
        for u, v, w in combinations(members, 3):
            if (
                sub[u] | sub[v] == hull_s
                and sub[u] | sub[w] == hull_s
                and sub[v] | sub[w] == hull_s
            ):
                assert not is_e_independent(g, s).independent
                tested_triples += 1
        if len(members) >= 4:
            for u, v, w, x in combinations(members, 4):
                if sub[u] | sub[v] == hull_s and sub[w] | sub[x] == hull_s:
                    assert not is_e_independent(g, s).independent
    assert tested_triples > 0


def test_cara_property_iii_diagnostic():
    # holds on a genuinely independent set
    g = gadget_c(4).graph
    assert cara_property_iii_violations(g, {0, 1, 2, 3}) == ()
    # the helper itself reports violations on dependent sets, e.g. in K4
    k4 = complete(4).graph
    assert cara_property_iii_violations(k4, {0, 1, 2}) != ()
