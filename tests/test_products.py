import random

import pytest

from deltaconvex import (
    GraphError,
    cartesian_c_witness,
    cartesian_e_witness,
    caratheodory_number,
    exchange_number,
    g_layer,
    graph_from_edges,
    h_layer,
    has_edge_vertex_property,
    is_c_independent,
    is_e_independent,
    product,
    project_g,
    project_h,
    triangles,
)
from deltaconvex.families import complete, cycle, gadget_c, path
from deltaconvex.graphs import MAX_VERTICES
from conftest import random_graph_raw

P2 = path(2).graph
P3 = path(3).graph
P4 = path(4).graph
K3 = complete(3).graph


def _edge_set(g):
    return set(g.edges)


def test_product_examples():
    square = product(P2, P2, "cartesian").graph
    assert _edge_set(square) == _edge_set(cycle(4).graph) or len(square.edges) == 4
    assert len(square.edges) == 4 and len(triangles(square)) == 0
    k4s = product(P2, P2, "strong").graph
    assert len(k4s.edges) == 6
    k4l = product(P2, P2, "lex").graph
    assert len(k4l.edges) == 6


def test_product_kinds_and_errors():
    with pytest.raises(GraphError):
        product(P2, P2, "tensor")
    with pytest.raises(GraphError):
        product(graph_from_edges(0, []), P2, "cartesian")
    p = product(P3, P2, "lex")
    assert p.kind == "lexicographic"


def test_product_over_vertex_limit_is_refused():
    # path(129) x path(128) has 16,512 vertices, 128 over the limit
    g, h = path(129).graph, path(128).graph
    assert g.n * h.n == MAX_VERTICES + 128
    for kind in ("cartesian", "strong", "lexicographic"):
        with pytest.raises(GraphError, match=f"vertex count {g.n * h.n} is over the limit"):
            product(g, h, kind)
    # exactly at the limit is allowed (edge-free factors keep it cheap)
    edgeless = graph_from_edges(128, [])
    assert product(edgeless, edgeless, "cartesian").graph.n == MAX_VERTICES


def test_edge_count_identities():
    rng = random.Random(41)
    for _ in range(15):
        g = random_graph_raw(rng, rng.randint(1, 5), 0.5)
        h = random_graph_raw(rng, rng.randint(1, 5), 0.5)
        mg, nh_, mh = len(g.edges), h.n, len(h.edges)
        cart = product(g, h, "cartesian").graph
        strong = product(g, h, "strong").graph
        lex = product(g, h, "lexicographic").graph
        assert len(cart.edges) == mg * nh_ + g.n * mh
        assert len(strong.edges) == len(cart.edges) + 2 * mg * mh
        assert len(lex.edges) == nh_ * nh_ * mg + g.n * mh
        # subgraph chain: cartesian within strong within lexicographic
        assert _edge_set(cart) <= _edge_set(strong) <= _edge_set(lex)


def test_triangle_free_cartesian_products_stay_triangle_free():
    rng = random.Random(42)
    cases = [(P4, P3), (cycle(4).graph, P2), (cycle(5).graph, cycle(4).graph)]
    for g, h in cases:
        pg = product(g, h, "cartesian").graph
        assert triangles(pg) == ()
        assert exchange_number(pg).value == 2


def test_layers():
    p = product(P3, P2, "cartesian")
    layer = g_layer(p, 0)
    assert layer == {0, 2, 4}
    induced = [(u, v) for u, v in p.graph.edges if u in layer and v in layer]
    assert len(induced) == len(P3.edges)
    hl = h_layer(p, 0)
    assert hl == {0, 1}
    assert len(g_layer(p, 1)) == 3
    # layer count equals the other factor's order
    assert {frozenset(g_layer(p, h)) for h in range(2)} != set()
    with pytest.raises(GraphError):
        g_layer(p, 5)


def test_layers_induce_factor_copies():
    for kind in ("cartesian", "strong"):
        p = product(P4, K3, kind)
        for h_anchor in range(K3.n):
            layer = sorted(g_layer(p, h_anchor))
            induced = {
                (layer.index(u), layer.index(v))
                for u, v in p.graph.edges
                if u in layer and v in layer
            }
            assert induced == set(P4.edges)
        for g_anchor in range(P4.n):
            layer = sorted(h_layer(p, g_anchor))
            induced = {
                (layer.index(u), layer.index(v))
                for u, v in p.graph.edges
                if u in layer and v in layer
            }
            assert induced == set(K3.edges)


def test_projections():
    p = product(P3, P2, "cartesian")
    assert project_g(p, [0, 2]) == {0, 1}
    assert project_h(p, range(p.graph.n)) == {0, 1}
    assert project_g(p, []) == frozenset()


def test_encode_decode_round_trip():
    p = product(P4, K3, "strong")
    for gv in range(4):
        for hv in range(3):
            assert p.decode(p.encode(gv, hv)) == (gv, hv)


def test_edge_vertex_property():
    ok, witness = has_edge_vertex_property(P4)
    assert ok and witness == (0, 1, 3)
    ok, witness = has_edge_vertex_property(K3)
    assert not ok and witness is None
    ok, _ = has_edge_vertex_property(P3)
    assert not ok
    # disconnected graphs: infinite distance counts as >= 2
    g = graph_from_edges(3, [(0, 1)])
    ok, witness = has_edge_vertex_property(g)
    assert ok and witness == (0, 1, 2)


def test_cartesian_e_witness():
    gc3 = gadget_c(3).graph
    e = exchange_number(gc3)
    pivot = is_e_independent(gc3, e.extremal_set).witness[0]
    w = cartesian_e_witness(gc3, e.extremal_set, pivot, gc3, e.extremal_set, pivot)
    assert len(w) == (e.value - 1) ** 2 + 1 == 5
    p = product(gc3, gc3, "cartesian")
    assert is_e_independent(p.graph, w).independent

    with pytest.raises(GraphError, match="size > 2"):
        cartesian_e_witness(gc3, {0, 1}, 0, gc3, e.extremal_set, pivot)
    with pytest.raises(GraphError, match="pivot"):
        cartesian_e_witness(gc3, e.extremal_set, 4, gc3, e.extremal_set, pivot)


def test_cartesian_e_witness_sizes():
    gc3 = gadget_c(3).graph
    gc4 = gadget_c(4).graph
    e3 = exchange_number(gc3)
    e4 = exchange_number(gc4)
    p3 = is_e_independent(gc3, e3.extremal_set).witness[0]
    p4 = is_e_independent(gc4, e4.extremal_set).witness[0]
    w = cartesian_e_witness(gc3, e3.extremal_set, p3, gc4, e4.extremal_set, p4)
    assert len(w) == (3 - 1) * (4 - 1) + 1 == 7


def test_cartesian_c_witness():
    gc3 = gadget_c(3).graph
    c = caratheodory_number(gc3)
    w = cartesian_c_witness(gc3, c.extremal_set, gc3, c.extremal_set)
    assert len(w) == 9
    p = product(gc3, gc3, "cartesian")
    assert is_c_independent(p.graph, w).independent

    gc4 = gadget_c(4).graph
    c4 = caratheodory_number(gc4)
    w2 = cartesian_c_witness(gc3, c.extremal_set, gc4, c4.extremal_set)
    assert len(w2) == 12

    with pytest.raises(GraphError, match="size > 2"):
        cartesian_c_witness(gc3, {0, 1}, gc3, c.extremal_set)
    with pytest.raises(GraphError, match="independent"):
        # {0, 1, 3} contains a full triangle, hence is dependent
        cartesian_c_witness(gc3, {0, 1, 3}, gc3, c.extremal_set)
