import random
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
from deltaconvex.graphs import iter_bits, vertex_mask
from deltaconvex.hull import extend_hull, hull_mask, interval_mask
from deltaconvex import independence
from deltaconvex.families import complete, gadget_c, path, two_connected_chordal
from deltaconvex.independence import CARATHEODORY, EXCHANGE, HELLY, _lex_search
from deltaconvex.products import product


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
            assert (a.value, a.extremal_set, a.exhaustive) == (
                b.value, b.extremal_set, b.exhaustive
            )


@given(graph_and_subset(), st.integers(0, 7))
def test_extend_hull_equals_hull_from_scratch(gs, v):
    g, s = gs
    v %= g.n
    closed = hull_mask(g, vertex_mask(s))
    assert extend_hull(g, closed, v) == hull_mask(g, vertex_mask(s) | 1 << v)


@st.composite
def large_graph_and_mask(draw, max_n=90):
    """Seeded random graphs up to ``max_n`` vertices (several int digits)
    with a mask of any density, the empty and full masks included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    p = draw(st.sampled_from([0.03, 0.08, 0.15, 0.3, 0.6]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    mask = draw(st.one_of(st.integers(0, g.full_mask), st.just(g.full_mask)))
    return g, mask


def _interval_fixpoint(g, mask):
    while True:
        grown = interval_mask(g, mask)
        if grown == mask:
            return mask
        mask = grown


@st.composite
def class_heavy_graph_and_mask(draw):
    """Graphs whose triangle classes are large, each relabelled, with a
    mask that is usually small: dense random graphs on up to 60 vertices,
    complete graphs and generated 2-connected chordal graphs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["dense", "complete", "chordal"]))
    n = draw(st.integers(min_value=3, max_value=60))
    if shape == "dense":
        p = draw(st.sampled_from([0.4, 0.6, 0.8, 0.95]))
        base = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    elif shape == "complete":
        base = complete(n).graph
    else:
        base = two_connected_chordal(n, rng.randrange(1000)).graph
    perm = list(range(n))
    rng.shuffle(perm)
    g = _relabelled(base, perm)
    size = draw(st.sampled_from([0, 1, 2, 3, n // 2, n]))
    return g, vertex_mask(rng.sample(range(n), size))


@settings(max_examples=300, deadline=None)
@given(st.one_of(large_graph_and_mask(), class_heavy_graph_and_mask()))
def test_hull_mask_equals_interval_fixpoint(gm):
    g, mask = gm
    assert hull_mask(g, mask) == _interval_fixpoint(g, mask)


@settings(max_examples=60, deadline=None)
@given(large_graph_and_mask(max_n=40), st.randoms(use_true_random=False))
def test_hull_commutes_with_relabelling(gm, rnd):
    g, mask = gm
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    moved = vertex_mask(perm[v] for v in range(g.n) if mask >> v & 1)
    hull = hull_mask(g, mask)
    assert hull_mask(relabelled, moved) == vertex_mask(
        perm[v] for v in range(g.n) if hull >> v & 1
    )


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6))
def test_helly_early_stop_matches_full_scan(g):
    early = helly_number(g)
    full = naive_helly_number(g)
    assert early.value == full.value
    assert early.extremal_set == full.extremal_set


def _relabelled(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def relabelled_graphs(draw, max_n=10):
    g = draw(graphs(max_n))
    return _relabelled(g, draw(st.permutations(range(g.n))))


@st.composite
def small_products(draw):
    left = draw(graphs(max_n=4))
    right = draw(graphs(max_n=3))
    kind = draw(st.sampled_from(["cartesian", "strong", "lexicographic"]))
    g = product(left, right, kind).graph
    return _relabelled(g, draw(st.permutations(range(g.n))))


def _search_setups(g):
    """(kind, candidates, least size) of each pruned search of ``g``."""
    everything = list(range(g.n))
    return (
        (CARATHEODORY, list(iter_bits(g.triangle_vertex_mask)), 2),
        (EXCHANGE, everything, 3),
        (HELLY, everything, 1),
    )


def _assert_symmetry_cut_keeps_results(g):
    """The searches with the symmetry group from the first node and with no
    group find the same sets, at every size cap."""
    for kind, candidates, lo in _search_setups(g):
        for cap in range(1, len(candidates) + 1):
            cut = _lex_search(g, kind, candidates, lo, cap, group=g.symmetries)
            assert cut == _lex_search(g, kind, candidates, lo, cap, group=()), (kind, cap)


@settings(max_examples=40, deadline=None)
@given(relabelled_graphs())
def test_symmetry_cut_keeps_results_on_random_graphs(g):
    _assert_symmetry_cut_keeps_results(g)


@settings(max_examples=40, deadline=None)
@given(small_products())
def test_symmetry_cut_keeps_results_on_products(g):
    _assert_symmetry_cut_keeps_results(g)


def test_frames_below_the_window_rebuild_their_state(monkeypatch):
    # With one level kept, every return to a frame rebuilds its hulls and
    # symmetry images; the sets found must not change.
    rng = random.Random(4)
    graphs = [
        Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        for n in (5, 6, 7, 8, 9, 10, 10)
    ]
    graphs.append(product(gadget_c(3).graph, path(2).graph, "cartesian").graph)
    cases = [
        (g, kind, candidates, lo, group)
        for g in graphs
        for kind, candidates, lo in _search_setups(g)
        for group in ((), g.symmetries)
    ]
    expected = [_lex_search(g, k, c, lo, len(c), grp) for g, k, c, lo, grp in cases]
    monkeypatch.setattr(independence, "_KEEP_LEVELS", 1)
    for (g, kind, candidates, lo, group), want in zip(cases, expected):
        assert _lex_search(g, kind, candidates, lo, len(candidates), group) == want
