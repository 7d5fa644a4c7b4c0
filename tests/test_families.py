import hashlib

import pytest

import oracles
from deltaconvex import (
    GraphError,
    delta_hull,
    graph_to_json,
    is_block_graph,
    is_chordal,
    is_connected,
    is_two_connected,
)
from deltaconvex.families import (
    FamilyError,
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
from deltaconvex.graphs import MAX_VERTICES


def test_standard_families():
    p4 = path(4)
    assert p4.graph.edges == ((0, 1), (1, 2), (2, 3))
    assert p4.predictions["c"].value == 1
    k5 = complete(5)
    assert len(k5.graph.edges) == 10
    assert k5.predictions["c"].value == 2
    c3 = cycle(3)
    assert c3.predictions["c"].value == 2 and c3.predictions["e"].value == 2
    kb = complete_bipartite(2, 3)
    assert len(kb.graph.edges) == 6 and not kb.graph.triangles


def test_family_param_validation():
    with pytest.raises(FamilyError):
        path(0)
    with pytest.raises(FamilyError):
        cycle(2)
    with pytest.raises(FamilyError):
        block_chain([3, 1])
    with pytest.raises(FamilyError):
        block_chain([])
    with pytest.raises(FamilyError):
        block_tree([[3]])
    with pytest.raises(FamilyError):
        block_tree([[3], [2]])
    with pytest.raises(FamilyError):
        gadget_c(2)
    with pytest.raises(FamilyError):
        gadget_e(0)
    with pytest.raises(FamilyError):
        two_connected_chordal(2, 0)
    with pytest.raises(FamilyError):
        random_graph(5, 1.5, 0)


def test_generators_refuse_oversize_parameters():
    # the generators check the size limits themselves, not only the CLI
    with pytest.raises(GraphError, match="vertex count"):
        path(MAX_VERTICES + 1)
    with pytest.raises(GraphError, match="vertex count"):
        complete_bipartite(1, MAX_VERTICES)


def test_block_chain_structure():
    inst = block_chain([3, 3, 3])
    g = inst.graph
    assert g.n == 7
    assert is_block_graph(g)
    assert inst.params["ell"] == 3
    assert inst.predictions["c"].value == 4
    assert inst.predictions["e"].value == 4
    single = block_chain([3])
    assert single.predictions["c"].value == 2

    with_k2 = block_chain([3, 2, 3, 3])
    assert with_k2.params["k"] == 2
    assert with_k2.predictions["c"].value == 3
    assert with_k2.predictions["e"].value == 4

    edge_only = block_chain([2, 2])
    assert edge_only.predictions["c"].value == 1
    assert edge_only.predictions["e"].value == 2


def test_block_tree_structure():
    # two legs meet at the root and form a single chain of blocks
    two_leg = block_tree([[3, 3], [3]])
    assert two_leg.graph.n == 7
    assert is_block_graph(two_leg.graph)
    assert two_leg.params["ell"] == 3
    assert two_leg.predictions["c"].theorem == "block_c_i"
    assert two_leg.predictions["c"].value == 4
    assert two_leg.predictions["e"].value == 4

    bowtie = block_tree([[3], [3]])
    assert bowtie.graph.n == 5
    assert bowtie.predictions["c"].value == 3
    assert bowtie.predictions["e"].value == 3

    # three legs: the longest chain runs through the root
    star = block_tree([[3], [3], [3]])
    assert star.params["k"] == 2
    assert star.predictions["c"].theorem == "block_c_ii"
    assert star.predictions["c"].value == 3
    assert star.predictions["e"].value == 4


def test_two_connected_chordal():
    for seed in range(6):
        inst = two_connected_chordal(4 + seed, seed)
        g = inst.graph
        assert is_chordal(g) and is_two_connected(g)
        assert oracles.chordal(g.n, g.edges)
    assert two_connected_chordal(3, 0).graph.n == 3
    # regeneration is deterministic
    assert two_connected_chordal(9, 5).graph == two_connected_chordal(9, 5).graph


def _chordal_digest(cases) -> str:
    h = hashlib.sha256()
    for n, seed in cases:
        h.update(graph_to_json(two_connected_chordal(n, seed).graph).encode() + b"\n")
    return h.hexdigest()


def test_two_connected_chordal_graphs_are_pinned():
    # recorded digests of the generated graphs, large and small
    assert _chordal_digest((400, s) for s in range(6)) == (
        "5a478adcff7ea3f318e37b92d2608464051155b07c574c650c5edb4e68999863"
    )
    assert _chordal_digest((n, s) for n in range(3, 41) for s in range(50)) == (
        "4f2bd5c292ea4992e531c9b41ddfe6a592d1d5852e5e2db6fc6b095bfbc88732"
    )


def test_gadget_c_structure():
    g3 = gadget_c(3)
    assert g3.graph.n == 5
    assert g3.graph.triangles == ((0, 1, 3), (2, 3, 4))
    for n in range(3, 8):
        inst = gadget_c(n)
        assert inst.graph.n == 2 * n - 1
        assert len(inst.graph.triangles) == n - 1
        assert inst.predictions["c"].value == n
        assert inst.predictions["e"].value == n


def test_gadget_c_hull_identities():
    # the defining leave-one-out hull values, checked through the public hull
    for n in (3, 4, 5):
        g = gadget_c(n).graph
        chain = set(range(n))
        assert delta_hull(g, chain) == frozenset(range(2 * n - 1))
        assert delta_hull(g, chain - {0}) == frozenset(range(1, n))
        assert delta_hull(g, chain - {1}) == frozenset({0}) | frozenset(range(2, n))
        for i in range(3, n):
            assert delta_hull(g, chain - {i - 1}) == (
                frozenset(chain - {i - 1}) | frozenset(range(n, n + i - 2))
            )
        assert delta_hull(g, chain - {n - 1}) == (
            frozenset(range(n - 1)) | frozenset(range(n, 2 * n - 2))
        )


def test_gadget_e_structure():
    g1 = gadget_e(1)
    assert g1.graph.n == 4
    assert g1.graph.triangles == ((0, 1, 2),)
    assert g1.graph.has_edge(0, 3)  # pendant on the first chain vertex
    for k in range(1, 6):
        inst = gadget_e(k)
        assert inst.graph.n == 2 * k + 2
        assert len(inst.graph.triangles) == k
        assert inst.predictions["e"].value == k + 2
        assert inst.graph.degree(2 * k + 1) == 1


def test_random_graph_deterministic():
    a = random_graph(8, 0.4, 7)
    b = random_graph(8, 0.4, 7)
    assert a.graph == b.graph
    assert random_graph(5, 0.0, 1).graph.edges == ()
    k4 = random_graph(4, 1.0, 1).graph
    assert len(k4.edges) == 6
    assert a.predictions == {}


def test_family_names():
    assert path(4).name == "P4"
    assert block_chain([3, 2]).name == "block_chain[3,2]"
    assert block_tree([[3], [3]]).name == "block_tree[[3],[3]]"
    assert gadget_c(4).name == "gadget_c(4)"
    assert random_graph(5, 0.3, 2).name == "random(n=5,p=0.3,seed=2)"
