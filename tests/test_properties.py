from itertools import combinations

import hypothesis.strategies as st
from hypothesis import given, settings

from deltaconvex import (
    Graph,
    delta_hull,
    delta_hull_traced,
    delta_interval,
    is_delta_convex,
    caratheodory_number,
    exchange_number,
    helly_number,
    naive_caratheodory_number,
    naive_exchange_number,
    naive_helly_number,
)
from deltaconvex.graphs import vertex_mask
from deltaconvex.hull import extend_hull, hull_mask


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def graph_and_subset(draw, max_n=8):
    g = draw(graphs(max_n))
    s = draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    return g, frozenset(s)


@st.composite
def graph_and_nested_subsets(draw, max_n=8):
    g = draw(graphs(max_n))
    t = draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
    s = draw(st.sets(st.sampled_from(sorted(t)), max_size=len(t))) if t else set()
    return g, frozenset(s), frozenset(t)


@given(graph_and_subset())
def test_extensive(gs):
    g, s = gs
    interval = delta_interval(g, s)
    hull = delta_hull(g, s)
    assert s <= interval <= hull


@given(graph_and_nested_subsets())
def test_monotone(gst):
    g, s, t = gst
    assert delta_hull(g, s) <= delta_hull(g, t)


@given(graph_and_subset())
def test_idempotent(gs):
    g, s = gs
    hull = delta_hull(g, s)
    assert delta_hull(g, hull) == hull
    assert is_delta_convex(g, hull)


@given(graph_and_subset(), st.sets(st.integers(0, 7), max_size=8))
def test_intersection_of_convex_sets_is_convex(gs, raw):
    g, s = gs
    other = frozenset(v for v in raw if v < g.n)
    inter = delta_hull(g, s) & delta_hull(g, other)
    assert is_delta_convex(g, inter)


@given(graph_and_subset())
def test_triangle_free_graphs_are_inert(gs):
    g, s = gs
    if not g.triangles:
        assert delta_hull(g, s) == s
        assert is_delta_convex(g, s)


@given(graph_and_subset())
def test_closure_rounds_bounded_by_n(gs):
    g, s = gs
    trace = delta_hull_traced(g, s)
    assert len(trace.rounds) <= g.n + 1
    for a, b in zip(trace.rounds, trace.rounds[1:]):
        assert a < b


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7))
def test_pruned_search_equals_naive(g):
    for max_size in [None, *range(1, g.n + 1)]:
        for pruned, naive in (
            (caratheodory_number, naive_caratheodory_number),
            (exchange_number, naive_exchange_number),
            (helly_number, naive_helly_number),
        ):
            a, b = pruned(g, max_size), naive(g, max_size)
            assert (a.value, a.extremal_set) == (b.value, b.extremal_set)


@given(graph_and_subset(), st.integers(0, 7))
def test_extend_hull_equals_hull_from_scratch(gs, v):
    g, s = gs
    v %= g.n
    closed = hull_mask(g, vertex_mask(s))
    assert extend_hull(g, closed, v) == hull_mask(g, vertex_mask(s) | 1 << v)


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6))
def test_helly_early_stop_matches_full_scan(g):
    early = helly_number(g)
    full = naive_helly_number(g)
    assert early.value == full.value
    assert early.extremal_set == full.extremal_set
