"""Cartesian, strong and lexicographic graph products.

Product vertices are pairs (g, h) encoded as g * |V(H)| + h, so witness
sets remain auditable against the factor coordinates; ``encode``/``decode``
expose the mapping. Layer and projection helpers plus the edge-vertex
distance predicate live here too, together with the two proof-witness
constructors for Cartesian lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, GraphError, _check_vertex_count, vertex_mask
from .independence import _c_witness, _e_witness, _members

CARTESIAN = "cartesian"
STRONG = "strong"
LEXICOGRAPHIC = "lexicographic"
KINDS = (CARTESIAN, STRONG, LEXICOGRAPHIC)

_ALIASES = {"lex": LEXICOGRAPHIC, "box": CARTESIAN}


def normalize_kind(kind: str) -> str:
    kind = _ALIASES.get(kind, kind)
    if kind not in KINDS:
        raise GraphError(f"unknown product kind {kind!r}; use one of {KINDS}")
    return kind


@dataclass(frozen=True)
class ProductGraph:
    graph: Graph
    g: Graph
    h: Graph
    kind: str

    def encode(self, gv: int, hv: int) -> int:
        return gv * self.h.n + hv

    def decode(self, v: int) -> tuple[int, int]:
        return divmod(v, self.h.n)


def product(g: Graph, h: Graph, kind: str) -> ProductGraph:
    kind = normalize_kind(kind)
    if g.n == 0 or h.n == 0:
        raise GraphError("product factors must be nonempty")
    _check_vertex_count(g.n * h.n)
    nh = h.n
    edges: list[tuple[int, int]] = []
    if kind == LEXICOGRAPHIC:
        for u, v in g.edges:
            for w in range(nh):
                for x in range(nh):
                    edges.append((u * nh + w, v * nh + x))
    else:
        for u, v in g.edges:
            for w in range(nh):
                edges.append((u * nh + w, v * nh + w))
        if kind == STRONG:
            for u, v in g.edges:
                for w, x in h.edges:
                    edges.append((u * nh + w, v * nh + x))
                    edges.append((u * nh + x, v * nh + w))
    for w, x in h.edges:
        for u in range(g.n):
            edges.append((u * nh + w, u * nh + x))
    name = f"{g.name or 'G'} [{kind}] {h.name or 'H'}"
    return ProductGraph(Graph(g.n * nh, edges, name=name), g, h, kind)


def g_layer(p: ProductGraph, h_anchor: int) -> frozenset[int]:
    """Vertices (g, h_anchor) for all g; induces a copy of the left factor."""
    if not 0 <= h_anchor < p.h.n:
        raise GraphError(f"layer anchor {h_anchor} out of range 0..{p.h.n - 1}")
    return frozenset(p.encode(gv, h_anchor) for gv in range(p.g.n))


def h_layer(p: ProductGraph, g_anchor: int) -> frozenset[int]:
    """Vertices (g_anchor, h) for all h; induces a copy of the right factor."""
    if not 0 <= g_anchor < p.g.n:
        raise GraphError(f"layer anchor {g_anchor} out of range 0..{p.g.n - 1}")
    return frozenset(p.encode(g_anchor, hv) for hv in range(p.h.n))


def project_g(p: ProductGraph, vertices: Iterable[int]) -> frozenset[int]:
    return frozenset(p.decode(v)[0] for v in vertices)


def project_h(p: ProductGraph, vertices: Iterable[int]) -> frozenset[int]:
    return frozenset(p.decode(v)[1] for v in vertices)


def has_edge_vertex_property(
    g: Graph,
) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether some edge uv and vertex x satisfy d(u,x) >= 2 and d(v,x) >= 2.

    Returns the lexicographically least witness (u, v, x); unreachable
    vertices count as distance infinity.
    """
    dist = g._distances
    for u, v in g.edges:
        for x in range(g.n):
            if dist[u][x] >= 2 and dist[v][x] >= 2:
                return True, (u, v, x)
    return False, None


def cartesian_e_witness(
    g: Graph,
    s1: Iterable[int],
    pivot_g: int,
    h: Graph,
    s2: Iterable[int],
    pivot_h: int,
) -> frozenset[int]:
    """Exchange witness (S1 - pivot) x (S2 - pivot) + {(pivot, pivot)} in
    the Cartesian product, of size (|S1|-1)(|S2|-1)+1.

    Both factor sets must be exchange independent of size > 2 with the
    given pivot; the caller verifies independence of the returned set.
    """
    m1 = _members(g, s1)
    m2 = _members(h, s2)
    if len(m1) <= 2 or len(m2) <= 2:
        raise GraphError("the exchange lower bound needs factor sets of size > 2")
    for graph, members, pivot in ((g, m1, pivot_g), (h, m2, pivot_h)):
        if pivot not in members:
            raise GraphError(f"pivot {pivot} is not a member of the factor set")
        if not _pivot_valid(graph, members, pivot):
            raise GraphError(
                f"factor set {members} is not exchange independent with pivot {pivot}"
            )
    nh = h.n
    out = {a * nh + b for a in m1 if a != pivot_g for b in m2 if b != pivot_h}
    out.add(pivot_g * nh + pivot_h)
    return frozenset(out)


def _pivot_valid(g: Graph, members: list[int], pivot: int) -> bool:
    smask = vertex_mask(members)
    w = _e_witness(g, smask, [pivot] + [a for a in members if a != pivot])
    return w is not None and w[0] == pivot


def cartesian_c_witness(
    g: Graph, s1: Iterable[int], h: Graph, s2: Iterable[int]
) -> frozenset[int]:
    """Caratheodory witness S1 x S2 in the Cartesian product, |S1|*|S2|.

    Both factor sets must be Caratheodory independent of size > 2; the
    caller verifies independence of the returned set.
    """
    m1 = _members(g, s1)
    m2 = _members(h, s2)
    if len(m1) <= 2 or len(m2) <= 2:
        raise GraphError("the Caratheodory lower bound needs factor sets of size > 2")
    if _c_witness(g, vertex_mask(m1), m1) is None:
        raise GraphError(f"factor set {m1} is not Caratheodory independent")
    if _c_witness(h, vertex_mask(m2), m2) is None:
        raise GraphError(f"factor set {m2} is not Caratheodory independent")
    nh = h.n
    return frozenset(a * nh + b for a in m1 for b in m2)
