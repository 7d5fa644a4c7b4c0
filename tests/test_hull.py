import random

import pytest

import oracles
from deltaconvex import (
    Graph,
    GraphError,
    delta_hull,
    delta_hull_traced,
    delta_interval,
    is_delta_convex,
    is_hull_set,
)
from deltaconvex.families import complete, cycle, gadget_c, path, two_connected_chordal
from deltaconvex.hull import hull_mask
from conftest import random_graph_raw, random_subset

K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K4 = complete(4).graph


def test_interval_examples():
    assert delta_interval(K3, {0, 1}) == {0, 1, 2}
    assert delta_interval(P4, {0, 3}) == {0, 3}
    assert delta_interval(K4, {0, 1}) == {0, 1, 2, 3}


def test_interval_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        delta_interval(K3, {0, 7})
    with pytest.raises(GraphError):
        delta_hull(K3, {-1})


def test_hull_examples():
    for n in (3, 5, 7):
        kn = complete(n).graph
        assert delta_hull(kn, {0, 1}) == frozenset(range(n))
    assert delta_hull(P4, {0, 1, 3}) == {0, 1, 3}
    g4 = gadget_c(4).graph
    assert delta_hull(g4, {0, 1, 2, 3}) == frozenset(range(7))


def test_hull_empty_and_singleton():
    assert delta_hull(K3, ()) == frozenset()
    assert delta_hull(K3, {1}) == {1}
    assert is_delta_convex(K3, ())
    assert is_delta_convex(K3, {2})


def test_is_delta_convex():
    assert is_delta_convex(K3, range(3))
    assert not is_delta_convex(K3, {0, 1})
    assert is_delta_convex(P4, {1, 2})  # triangle-free: everything convex


def test_is_hull_set():
    assert is_hull_set(K3, {0, 1})
    assert is_hull_set(P4, range(4))
    assert not is_hull_set(path(5).graph, {0, 4})
    chordal = two_connected_chordal(8, 3).graph
    for u, v in chordal.edges:
        assert is_hull_set(chordal, {u, v})


def test_hull_mask_edge_cases():
    empty = Graph(0, [])
    assert hull_mask(empty, 0) == 0 == empty.full_mask
    assert is_hull_set(empty, ())
    for g in (K3, P4, K4, gadget_c(5).graph, cycle(6).graph):
        assert hull_mask(g, 0) == 0
        assert hull_mask(g, g.full_mask) == g.full_mask
    # triangle-free: every set is its own hull, adjacent members or not
    c6 = cycle(6).graph
    for mask in range(1 << c6.n):
        assert hull_mask(c6, mask) == mask


def test_is_hull_set_on_relabelled_chordal_graph():
    base = two_connected_chordal(60, 0).graph
    perm = list(range(base.n))
    random.Random(60).shuffle(perm)
    g = Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges])
    for u, v in g.edges:
        assert is_hull_set(g, {u, v})


def test_hull_matches_oracle():
    rng = random.Random(21)
    for _ in range(80):
        g = random_graph_raw(rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6]))
        s = random_subset(rng, g.n)
        adj = oracles.adjacency(g.n, g.edges)
        assert delta_interval(g, s) == oracles.interval(adj, s)
        assert delta_hull(g, s) == oracles.hull(adj, s)


def test_trace_structure():
    g4 = gadget_c(4).graph
    trace = delta_hull_traced(g4, {0, 1, 2, 3})
    # rounds strictly increase to the hull, one apex added per round
    assert trace.rounds[0] == {0, 1, 2, 3}
    assert [sorted(r) for r in trace.rounds] == [
        [0, 1, 2, 3],
        [0, 1, 2, 3, 4],
        [0, 1, 2, 3, 4, 5],
        [0, 1, 2, 3, 4, 5, 6],
    ]
    assert trace.added_by == {4: (0, 1), 5: (2, 4), 6: (3, 5)}
    assert trace.result == delta_hull(g4, {0, 1, 2, 3})


def test_trace_round_invariants():
    rng = random.Random(22)
    for _ in range(40):
        g = random_graph_raw(rng, rng.randint(2, 9), 0.5)
        s = random_subset(rng, g.n)
        trace = delta_hull_traced(g, s)
        assert trace.rounds[0] == frozenset(s)
        assert len(trace.rounds) <= g.n + 1
        for a, b in zip(trace.rounds, trace.rounds[1:]):
            assert a < b  # strict growth until the fixpoint
            assert delta_interval(g, a) == b
        assert delta_interval(g, trace.result) == trace.result
        for w, (u, v) in trace.added_by.items():
            assert g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)


def test_trace_witness_is_least_pair():
    # both (0,1) and (2,3) complete a triangle with 4; witness must be (0,1)
    g = Graph(5, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
    trace = delta_hull_traced(g, {0, 1, 2, 3})
    assert trace.added_by == {4: (0, 1)}
