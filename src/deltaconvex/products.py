"""Cartesian, strong and lexicographic graph products.

Product vertices are pairs (g, h) encoded as g * |V(H)| + h, so witness
sets remain auditable against the factor coordinates; ``encode``/``decode``
expose the mapping and refuse what is not a pair or a product vertex.
Layer and projection helpers plus the edge-vertex distance predicate live
here too, together with the two proof-witness constructors for Cartesian
lower bounds, which check their factor sets with ``is_c_independent`` and
``is_e_independent``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .graphs import Graph, GraphError, _check_size
from .independence import is_c_independent, is_e_independent

CARTESIAN = "cartesian"
STRONG = "strong"
LEXICOGRAPHIC = "lexicographic"
KINDS = (CARTESIAN, STRONG, LEXICOGRAPHIC)

ALIASES = {"lex": LEXICOGRAPHIC, "box": CARTESIAN}


def normalize_kind(kind: str) -> str:
    kind = ALIASES.get(kind, kind)
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
        """The product vertex (gv, hv); raises unless gv is a vertex of G
        and hv one of H."""
        if not (0 <= gv < self.g.n and 0 <= hv < self.h.n):
            raise GraphError(
                f"pair ({gv}, {hv}) out of range 0..{self.g.n - 1} x 0..{self.h.n - 1}"
            )
        return gv * self.h.n + hv

    def decode(self, v: int) -> tuple[int, int]:
        """The pair (g, h) of product vertex ``v``; raises unless it is one."""
        if not 0 <= v < self.graph.n:
            raise GraphError(f"product vertex {v} out of range 0..{self.graph.n - 1}")
        return divmod(v, self.h.n)


def product(g: Graph, h: Graph, kind: str) -> ProductGraph:
    kind = normalize_kind(kind)
    if g.n == 0 or h.n == 0:
        raise GraphError("product factors must be nonempty")
    nh, mg, mh = h.n, len(g.edges), len(h.edges)
    per_g_edge = nh * nh if kind == LEXICOGRAPHIC else nh + 2 * mh * (kind == STRONG)
    _check_size(g.n * nh, mg * per_g_edge + mh * g.n)  # before the edge list is built
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
    return frozenset(p.encode(gv, h_anchor) for gv in range(p.g.n))


def h_layer(p: ProductGraph, g_anchor: int) -> frozenset[int]:
    """Vertices (g_anchor, h) for all h; induces a copy of the right factor."""
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
    dist = g.distances
    for u, v in g.edges:
        for x in range(g.n):
            if dist[u][x] >= 2 and dist[v][x] >= 2:
                return True, (u, v, x)
    return False, None


def _independent_factors(
    g: Graph, s1: Iterable[int], h: Graph, s2: Iterable[int], test: Callable, name: str
) -> tuple[list[int], list[int], list]:
    """The sorted factor sets and the witnesses ``test`` reports for them;
    raises unless both have size > 2 and are ``name`` independent."""
    m1, m2 = sorted(set(s1)), sorted(set(s2))
    if len(m1) <= 2 or len(m2) <= 2:
        raise GraphError(f"the {name} lower bound needs factor sets of size > 2")
    witnesses = []
    for graph, members in ((g, m1), (h, m2)):
        verdict = test(graph, members)
        if not verdict.independent:
            raise GraphError(f"factor set {members} is not {name} independent")
        witnesses.append(verdict.witness)
    return m1, m2, witnesses


def cartesian_e_witness(
    g: Graph, s1: Iterable[int], h: Graph, s2: Iterable[int]
) -> frozenset[int]:
    """Exchange witness (S1 - p) x (S2 - q) + {(p, q)} in the Cartesian
    product, of size (|S1|-1)(|S2|-1)+1, p and q being the pivots that
    ``is_e_independent`` reports for S1 and S2.

    Both factor sets must be exchange independent of size > 2; the caller
    verifies independence of the returned set.
    """
    m1, m2, (w1, w2) = _independent_factors(g, s1, h, s2, is_e_independent, "exchange")
    p, q = w1[0], w2[0]
    nh = h.n
    out = {a * nh + b for a in m1 if a != p for b in m2 if b != q}
    out.add(p * nh + q)
    return frozenset(out)


def cartesian_c_witness(
    g: Graph, s1: Iterable[int], h: Graph, s2: Iterable[int]
) -> frozenset[int]:
    """Caratheodory witness S1 x S2 in the Cartesian product, |S1|*|S2|.

    Both factor sets must be Caratheodory independent of size > 2; the
    caller verifies independence of the returned set.
    """
    m1, m2, _ = _independent_factors(g, s1, h, s2, is_c_independent, "Caratheodory")
    return frozenset(a * h.n + b for a in m1 for b in m2)
