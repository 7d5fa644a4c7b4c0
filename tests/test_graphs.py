import math
import random
import tracemalloc
from itertools import combinations

import pytest

import oracles
from deltaconvex import (
    Graph,
    GraphError,
    block_decomposition,
    diameter,
    graph_from_json,
    graph_to_json,
    is_block_graph,
    is_chordal,
    is_connected,
    is_two_connected,
)
from deltaconvex import graphs
from deltaconvex.families import block_chain, complete, cycle, gadget_c, path, two_connected_chordal
from deltaconvex.graphs import (
    SYMMETRY_LIMIT,
    automorphisms,
    graph_from_text,
    iter_bits,
    lowest_bit,
    parse_graph,
    set_from_mask,
    vertex_mask,
)
from deltaconvex.products import product
from conftest import random_graph_raw

K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
K4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def test_graph_constructor_basic():
    assert K3.n == 3 and len(K3.edges) == 3
    single = Graph(1, [])
    assert single.n == 1 and single.edges == ()
    assert P4.edges == ((0, 1), (1, 2), (2, 3))


def test_graph_constructor_dedupes():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


def test_graph_construction_errors():
    with pytest.raises(GraphError, match=r"\(1, 1\)"):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError, match=r"\(0, 5\)"):
        Graph(3, [(0, 5)])


def test_triangles_small():
    assert K3.triangles == ((0, 1, 2),)
    assert P4.triangles == ()
    # frozen from the C(4,3) enumeration oracle
    assert K4.triangles == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_triangle_count_matches_common_neighbor_formula():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph_raw(rng, rng.randint(1, 9), rng.choice([0.2, 0.5, 0.8]))
        via_edges = sum(
            (g.adj[u] & g.adj[v]).bit_count() for u, v in g.edges
        )
        assert via_edges % 3 == 0
        assert len(g.triangles) == via_edges // 3
        assert len(g.triangles) == oracles.triangle_count(g.n, g.edges)


def _naive_edge_classes(g):
    """Triangle edges grouped by a breadth-first search over triangles
    that share an edge."""
    on_edge = {}
    for t in g.triangles:
        for e in combinations(t, 2):
            on_edge.setdefault(e, []).append(t)
    classes, seen = set(), set()
    for start in on_edge:
        if start in seen:
            continue
        seen.add(start)
        todo, found = [start], set()
        while todo:
            e = todo.pop()
            found.add(e)
            for t in on_edge[e]:
                for f in combinations(t, 2):
                    if f not in seen:
                        seen.add(f)
                        todo.append(f)
        classes.add(frozenset(found))
    return classes


def test_triangle_classes_match_naive_search():
    rng = random.Random(12)
    graphs = [
        random_graph_raw(rng, rng.randint(0, 14), rng.choice([0.15, 0.3, 0.5, 0.8]))
        for _ in range(250)
    ]
    graphs += [gadget_c(6).graph, complete(6).graph, block_chain([3, 4, 3]).graph]
    graphs += [two_connected_chordal(30, s).graph for s in range(3)]
    for g in graphs:
        links, masks, members = g.triangle_classes
        assert len(links) == g.n and len(masks) == len(members) == len(g.triangles)
        edges_of = {}
        for v, entries in enumerate(links):
            for u, c in entries:
                assert (v, c) in links[u]
                edges_of.setdefault(c, set()).add((min(u, v), max(u, v)))
        # the classes partition the triangle edges: one entry per end of each
        triangle_edges = {e for t in g.triangles for e in combinations(t, 2)}
        assert sum(map(len, links)) == 2 * len(triangle_edges)
        assert set().union(*edges_of.values()) == triangle_edges
        assert {frozenset(es) for es in edges_of.values()} == _naive_edge_classes(g)
        for c, es in edges_of.items():
            ends = {x for e in es for x in e}
            assert masks[c] == vertex_mask(ends) and sorted(members[c]) == sorted(ends)
            # numbered by its least triangle
            assert c == min(i for i, t in enumerate(g.triangles) if set(combinations(t, 2)) <= es)
        assert all(masks[i] == 0 for i in range(len(masks)) if i not in edges_of)


def test_edges_on_no_triangle_have_no_class_entry():
    # a triangle, a bridge from it, and a 4-cycle hanging off the bridge
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)])
    links, masks, members = g.triangle_classes
    assert sorted(links[2]) == [(0, 0), (1, 0)]
    assert links[3] == links[4] == links[5] == links[6] == ()
    assert masks == (0b111,) and members == ((0, 1, 2),)
    for h in (P4, cycle(6).graph, Graph(0, []), Graph(3, [])):
        assert h.triangle_classes == (((),) * h.n, (), ())
    # two triangles that share only a vertex stay two classes
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert bowtie.triangle_classes[1] == (0b00111, 0b11100)


def _naive_vertex_components(g):
    """(vertex mask, triangle count) per class of triangles joined by a
    shared vertex, by a breadth-first search over triangles, ordered by
    least vertex."""
    out, seen = [], set()
    for start in g.triangles:
        if start in seen:
            continue
        seen.add(start)
        todo, found = [start], []
        while todo:
            t = todo.pop()
            found.append(t)
            for u in g.triangles:
                if u not in seen and set(t) & set(u):
                    seen.add(u)
                    todo.append(u)
        out.append((vertex_mask(v for t in found for v in t), len(found)))
    return tuple(sorted(out, key=lambda comp: lowest_bit(comp[0])))


def test_triangle_components_match_naive_search_on_all_small_graphs():
    # every labelled graph on at most 6 vertices
    pairs = list(combinations(range(6), 2))
    graphs = [
        Graph(6, [e for i, e in enumerate(pairs) if code >> i & 1]) for code in range(1 << 15)
    ]
    for n in range(6):
        small = list(combinations(range(n), 2))
        graphs += [
            Graph(n, [e for i, e in enumerate(small) if code >> i & 1])
            for code in range(1 << len(small))
        ]
    shapes = set()
    for g in graphs:
        comps = g.triangle_components
        assert comps == _naive_vertex_components(g), g.edges
        shapes.add(len(comps))
    assert shapes == {0, 1, 2}


def test_triangle_components_of_named_graphs():
    bowtie = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    # one component, though its triangles share no edge: two edge classes
    assert bowtie.triangle_components == ((0b11111, 2),)
    assert [m for m in bowtie.triangle_classes[1] if m] == [0b00111, 0b11100]
    two = Graph(7, [(0, 4), (4, 6), (0, 6), (1, 2), (2, 3), (1, 3), (3, 5)])
    assert two.triangle_components == ((0b1010001, 1), (0b0001110, 1))
    assert K4.triangle_components == ((0b1111, 4),)
    for g in (P4, cycle(6).graph, Graph(0, []), Graph(3, [])):
        assert g.triangle_components == ()


def test_set_from_mask_matches_iter_bits():
    rng = random.Random(13)
    masks = [0, 1, 2, 1 << 400, (1 << 400) - 1, (1 << 30) | 1]
    for _ in range(400):
        bits = rng.randint(1, 600)
        m = rng.getrandbits(bits)
        if rng.random() < 0.5:  # sparse
            m &= rng.getrandbits(bits) & rng.getrandbits(bits)
        masks.append(m)
    masks += list(range(1 << 10))
    for m in masks:
        assert set_from_mask(m) == frozenset(iter_bits(m))


def test_distances_examples():
    p3 = path(3).graph
    assert p3.distances[0][2] == 2
    k5 = complete(5).graph
    assert all(
        d == (0 if i == j else 1)
        for i, row in enumerate(k5.distances)
        for j, d in enumerate(row)
    )
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert two_edges.distances[0][2] == math.inf


def test_distances_against_floyd_warshall():
    rng = random.Random(6)
    for _ in range(20):
        g = random_graph_raw(rng, rng.randint(1, 8), rng.choice([0.2, 0.4]))
        expect = oracles.distances(g.n, g.edges)
        got = g.distances
        for i in range(g.n):
            for j in range(g.n):
                assert got[i][j] == expect[i][j]


def test_distances_invariants():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph_raw(rng, rng.randint(2, 8), 0.4)
        d = g.distances
        for i in range(g.n):
            assert d[i][i] == 0
            for j in range(g.n):
                assert d[i][j] == d[j][i]


def test_diameter():
    assert diameter(P4) == 3
    assert diameter(K3) == 1
    assert diameter(cycle(6).graph) == 3
    assert diameter(Graph(3, [(0, 1)])) == math.inf
    assert diameter(Graph(1, [])) == 0


def test_connectivity():
    assert is_connected(cycle(4).graph)
    assert is_two_connected(cycle(4).graph)
    p3 = path(3).graph
    assert is_connected(p3) and not is_two_connected(p3)
    isolated = Graph(4, [(1, 2), (2, 3), (1, 3)])
    assert not is_connected(isolated)
    # fewer than 3 vertices: only K2 counts as 2-connected
    assert is_two_connected(Graph(2, [(0, 1)]))
    assert not is_two_connected(Graph(2, []))
    assert not is_two_connected(Graph(1, []))


def test_block_decomposition_two_triangles():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    d = block_decomposition(g)
    assert len(d.blocks) == 2
    assert d.cut_vertices == frozenset({0})


def test_block_decomposition_path():
    d = block_decomposition(P4)
    assert sorted(sorted(b) for b in d.blocks) == [[0, 1], [1, 2], [2, 3]]
    assert d.cut_vertices == frozenset({1, 2})


def test_block_decomposition_chain():
    inst = block_chain([3, 4, 3])
    d = block_decomposition(inst.graph)
    assert len(d.blocks) == 3
    assert d.cut_vertices == frozenset({2, 5})


def test_block_decomposition_invariants():
    rng = random.Random(8)
    checked = 0
    while checked < 15:
        g = random_graph_raw(rng, rng.randint(2, 9), 0.45)
        if not is_connected(g):
            continue
        checked += 1
        d = block_decomposition(g)
        covered = set()
        for b in d.blocks:
            covered |= b
        assert covered == set(range(g.n))
        # every edge in exactly one block
        for u, v in g.edges:
            holders = [b for b in d.blocks if u in b and v in b]
            assert len(holders) == 1
        # pairwise intersections are single cut vertices or empty
        for i, b1 in enumerate(d.blocks):
            for b2 in d.blocks[i + 1:]:
                inter = b1 & b2
                assert len(inter) <= 1
                assert inter <= d.cut_vertices
        # block-cut tree is a tree when connected
        nodes = len(d.blocks) + len(d.cut_vertices)
        assert len(d.tree_edges) == nodes - 1


def test_block_decomposition_requires_connected():
    with pytest.raises(GraphError):
        block_decomposition(Graph(4, [(0, 1), (2, 3)]))


def test_is_block_graph():
    assert is_block_graph(P4)  # trees are block graphs
    assert not is_block_graph(cycle(4).graph)
    assert is_block_graph(block_chain([3, 4, 2, 3]).graph)


def test_is_chordal_examples():
    assert not is_chordal(cycle(4).graph)
    assert is_chordal(P4)
    k4_minus = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert is_chordal(k4_minus)


def test_is_chordal_against_induced_cycle_oracle():
    rng = random.Random(9)
    for _ in range(60):
        g = random_graph_raw(rng, rng.randint(1, 7), rng.choice([0.3, 0.5, 0.7]))
        assert is_chordal(g) == oracles.chordal(g.n, g.edges), g.edges


def test_is_chordal_matches_networkx_on_larger_graphs():
    # larger than the oracle test's graphs: the search's bucket pointer
    # climbs and falls many times; deleting one edge of a generated chordal
    # graph often leaves a long chordless cycle
    nx = pytest.importorskip("networkx")
    rng = random.Random(14)
    graphs = [
        random_graph_raw(rng, rng.randint(10, 40), rng.choice([0.05, 0.1, 0.3, 0.6, 0.9]))
        for _ in range(150)
    ]
    for s in range(40):
        base = two_connected_chordal(rng.randint(10, 60), s).graph
        graphs.append(base)
        drop = rng.randrange(len(base.edges))
        graphs.append(Graph(base.n, base.edges[:drop] + base.edges[drop + 1 :]))
    verdicts = set()
    for g in graphs:
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges)
        verdicts.add(is_chordal(g))
        assert is_chordal(g) == nx.is_chordal(ng), g.edges
    assert verdicts == {True, False}


def test_json_round_trip():
    text = graph_to_json(K4)
    assert text == (
        '{"name": "", "n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}'
    )
    g = graph_from_json(text)
    assert g == K4


def test_json_name_may_be_null_or_missing_but_not_another_type():
    for text in ('{"name": null, "n": 2, "edges": [[0, 1]]}', '{"n": 2, "edges": [[0, 1]]}'):
        g = parse_graph(text)
        assert g.name == "" and g.edges == ((0, 1),)
    for bad in ("1", "0", "false", '["P2"]', "{}"):
        with pytest.raises(GraphError, match='"name" must be a string or null'):
            parse_graph(f'{{"name": {bad}, "n": 2, "edges": [[0, 1]]}}')


def test_text_format():
    g = graph_from_text("4\n0 1\n1 2\n2 3\n")
    assert g == P4
    with pytest.raises(GraphError):
        graph_from_text("")
    with pytest.raises(GraphError):
        graph_from_text("3\n0 x\n")


def _preserves_edges(g, image):
    return sorted(tuple(sorted((image[u], image[v]))) for u, v in g.edges) == list(g.edges)


def test_automorphisms_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        g = random_graph_raw(rng, rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6, 0.8]))
        maps = automorphisms(g, SYMMETRY_LIMIT)
        if len(maps) == SYMMETRY_LIMIT:
            continue  # capped: only a subset of the group
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges)
        expected = {
            tuple(m[v] for v in range(g.n))
            for m in nx.algorithms.isomorphism.GraphMatcher(ng, ng).isomorphisms_iter()
        }
        assert len(set(maps)) == len(maps)
        assert set(maps) | {tuple(range(g.n))} == expected
        checked += 1
    assert checked > 300


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_automorphisms_match_networkx_on_products_and_larger_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    graphs_to_check = []
    for _ in range(60):
        f = random_graph_raw(rng, rng.randint(2, 4), rng.choice([0.4, 0.7]))
        h = random_graph_raw(rng, rng.randint(2, 3), rng.choice([0.4, 0.7]))
        kind = rng.choice(["cartesian", "strong", "lexicographic"])
        graphs_to_check.append(_relabelled(product(f, h, kind).graph, rng))
    for _ in range(60):
        graphs_to_check.append(random_graph_raw(rng, rng.randint(9, 12), rng.choice([0.2, 0.4, 0.6])))
    checked = set()
    for g in graphs_to_check:
        maps = automorphisms(g, SYMMETRY_LIMIT)
        if len(maps) == SYMMETRY_LIMIT:
            continue  # capped: only a subset of the group
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges)
        expected = {
            tuple(m[v] for v in range(g.n))
            for m in nx.algorithms.isomorphism.GraphMatcher(ng, ng).isomorphisms_iter()
        }
        assert len(set(maps)) == len(maps)
        assert set(maps) | {tuple(range(g.n))} == expected
        checked.add((g.n >= 9, len(maps) > 0))
    assert checked == {(False, True), (True, False), (True, True)}


def test_automorphism_search_stops_after_its_step_budget(monkeypatch):
    monkeypatch.setattr(graphs, "_AUTOMORPHISM_STEPS", 100)
    g = complete(7).graph
    maps = automorphisms(g, 50)
    assert 0 < len(maps) < 50
    assert len(set(maps)) == len(maps)
    assert tuple(range(7)) not in maps
    assert all(_preserves_edges(g, m) for m in maps)


def test_automorphism_search_memory_is_linear():
    g = Graph(1100, [])
    tracemalloc.start()
    try:
        maps = automorphisms(g, SYMMETRY_LIMIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(maps) == SYMMETRY_LIMIT
    # The 256 maps returned take 2.3 MB of it.
    assert peak < 8 * 2**20


def test_vertex_queries_refuse_non_vertices():
    p3 = path(3).graph
    for v in (-1, 3):
        with pytest.raises(GraphError, match=f"vertex {v} out of range 0..2"):
            p3.neighbors(v)
        with pytest.raises(GraphError, match=f"vertex {v} out of range 0..2"):
            p3.degree(v)
        assert not p3.has_edge(0, v) and not p3.has_edge(v, 0) and not p3.has_edge(v, v)
    assert p3.neighbors(0) == {1} and p3.neighbors(2) == {1}
    assert p3.degree(0) == 1 and p3.degree(2) == 1
    assert p3.has_edge(0, 1) and p3.has_edge(2, 1) and not p3.has_edge(0, 2)


def test_blocks_chordality_and_products_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)

    def to_nx(g):
        ng = nx.Graph()
        ng.add_nodes_from(range(g.n))
        ng.add_edges_from(g.edges)
        return ng

    nx_products = {
        "cartesian": nx.cartesian_product,
        "strong": nx.strong_product,
        "lexicographic": nx.lexicographic_product,
    }
    disconnected = 0
    for _ in range(300):
        g = random_graph_raw(rng, rng.randint(1, 9), rng.choice([0.15, 0.3, 0.5, 0.8]))
        ng = to_nx(g)
        assert is_two_connected(g) == nx.is_biconnected(ng)
        assert is_chordal(g) == nx.is_chordal(ng)
        if is_connected(g):
            d = block_decomposition(g)
            if g.n >= 2:
                assert set(d.blocks) == {frozenset(c) for c in nx.biconnected_components(ng)}
            assert d.cut_vertices == frozenset(nx.articulation_points(ng))
        else:
            disconnected += 1
        h = random_graph_raw(rng, rng.randint(1, 5), rng.choice([0.3, 0.6]))
        for kind, nx_product in nx_products.items():
            expected = {
                tuple(sorted((a * h.n + b, c * h.n + e)))
                for (a, b), (c, e) in nx_product(ng, to_nx(h)).edges
            }
            assert set(product(g, h, kind).graph.edges) == expected, kind
    assert disconnected > 30


def test_automorphism_groups_of_products():
    gc3 = gadget_c(3).graph
    for h, order in ((path(4).graph, 16), (gc3, 128)):
        g = product(gc3, h, "cartesian").graph
        maps = automorphisms(g, SYMMETRY_LIMIT)
        assert len(maps) + 1 == order
        assert all(_preserves_edges(g, m) for m in maps)
        assert tuple(range(g.n)) not in maps
        assert g.symmetries == maps


def test_automorphisms_are_capped_and_checked():
    for g in (complete(7).graph, Graph(9, []), cycle(40).graph):
        maps = automorphisms(g, 50)
        assert len(maps) == 50 == len(set(maps))
        assert all(_preserves_edges(g, m) for m in maps)
    assert automorphisms(K4, 0) == () and automorphisms(Graph(1, []), 10) == ()
    assert automorphisms(path(1100).graph, SYMMETRY_LIMIT) == (tuple(range(1099, -1, -1)),)
