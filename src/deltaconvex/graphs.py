"""Dense-index graph representation and structural queries.

Vertices are integers 0..n-1. Adjacency lives in one neighbor bitmask per
vertex, and vertex subsets travel as Python ints (bit i = vertex i) through
the performance-sensitive code paths; public functions accept any iterable
of vertex indices and return frozensets.

Graphs are immutable after construction, so they are safe to share across
parallel workers. Derived data that every hull and every search consults
(the triangle list, all-pairs distances) is computed once and cached on
the instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

INF = float("inf")


class GraphError(ValueError):
    """Invalid construction, out-of-range vertex, or unmet precondition."""


def vertex_mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_from_mask(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


def lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class Graph:
    """Finite simple undirected graph on vertices 0..n-1."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], name: str = ""):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        canonical: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            canonical.add((u, v) if u < v else (v, u))
        self.n = n
        self.name = name
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canonical))
        adj = [0] * n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj: tuple[int, ...] = tuple(adj)
        self.full_mask: int = (1 << n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> frozenset[int]:
        return set_from_mask(self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        """All triangles, each once as an ascending triple, sorted globally."""
        out = []
        for u, v in self.edges:
            above_v = ~((1 << (v + 1)) - 1)
            for w in iter_bits(self.adj[u] & self.adj[v] & above_v):
                out.append((u, v, w))
        return tuple(sorted(out))

    @cached_property
    def triangle_masks(self) -> tuple[int, ...]:
        return tuple(vertex_mask(t) for t in self.triangles)

    @cached_property
    def triangle_pairs(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex v, the mask of {a, b} for every triangle {v, a, b}."""
        pairs: list[list[int]] = [[] for _ in range(self.n)]
        for t, tm in zip(self.triangles, self.triangle_masks):
            for v in t:
                pairs[v].append(tm & ~(1 << v))
        return tuple(tuple(p) for p in pairs)

    @cached_property
    def triangle_index_pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex v, the pair (a, b) of every triangle {v, a, b}, a < b."""
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, w in self.triangles:
            pairs[u].append((v, w))
            pairs[v].append((u, w))
            pairs[w].append((u, v))
        return tuple(tuple(p) for p in pairs)

    @cached_property
    def triangle_vertex_mask(self) -> int:
        m = 0
        for tm in self.triangle_masks:
            m |= tm
        return m

    @cached_property
    def _distances(self) -> tuple[tuple[int | float, ...], ...]:
        rows = []
        for s in range(self.n):
            dist: list[int | float] = [INF] * self.n
            dist[s] = 0
            seen = frontier = 1 << s
            d = 0
            while frontier:
                reach = 0
                for v in iter_bits(frontier):
                    reach |= self.adj[v]
                frontier = reach & ~seen
                seen |= frontier
                d += 1
                for v in iter_bits(frontier):
                    dist[v] = d
            rows.append(tuple(dist))
        return tuple(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={len(self.edges)}>"


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]], name: str = "") -> Graph:
    return Graph(n, edges, name)


def triangles(g: Graph) -> tuple[tuple[int, int, int], ...]:
    return g.triangles


def distance_matrix(g: Graph) -> tuple[tuple[int | float, ...], ...]:
    """Hop distances between all vertex pairs; INF across components."""
    return g._distances


def diameter(g: Graph) -> int | float:
    if g.n == 0:
        raise GraphError("diameter is undefined for the empty graph")
    worst: int | float = 0
    for row in g._distances:
        for d in row:
            if d > worst:
                worst = d
    return worst


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in iter_bits(frontier):
            reach |= g.adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == g.full_mask


def is_two_connected(g: Graph) -> bool:
    """No cut vertex; a graph on fewer than 3 vertices qualifies iff it is K2."""
    n = g.n
    if n < 2:
        return False
    if n == 2:
        return g.has_edge(0, 1)
    if not is_connected(g):
        return False
    for v in range(n):
        rest = g.full_mask & ~(1 << v)
        start = 1 if v == 0 else 0
        seen = frontier = 1 << start
        while frontier:
            reach = 0
            for w in iter_bits(frontier):
                reach |= g.adj[w]
            frontier = reach & rest & ~seen
            seen |= frontier
        if seen != rest:
            return False
    return True


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs / bridges), cut vertices, and
    the bipartite block-cut tree given as (block index, cut vertex) edges."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    tree_edges: tuple[tuple[int, int], ...]


def block_decomposition(g: Graph) -> BlockDecomposition:
    if g.n == 0:
        raise GraphError("block decomposition is undefined for the empty graph")
    if not is_connected(g):
        raise GraphError("block decomposition requires a connected graph")
    if g.n == 1:
        return BlockDecomposition((frozenset({0}),), frozenset(), ())

    n = g.n
    nbrs = [sorted(iter_bits(g.adj[v])) for v in range(n)]
    disc = [0] * n
    low = [0] * n
    parent = [-1] * n
    idx = [0] * n
    visited = [False] * n
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[frozenset[int]] = []

    root = 0
    visited[root] = True
    disc[root] = low[root] = 1
    timer = 2
    stack = [root]
    while stack:
        v = stack[-1]
        if idx[v] < len(nbrs[v]):
            w = nbrs[v][idx[v]]
            idx[v] += 1
            if w == parent[v]:
                continue
            if not visited[w]:
                visited[w] = True
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                edge_stack.append((v, w))
                stack.append(w)
            elif disc[w] < disc[v]:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            u = parent[v]
            if u == -1:
                continue
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                comp: set[int] = set()
                while True:
                    e = edge_stack.pop()
                    comp.add(e[0])
                    comp.add(e[1])
                    if e == (u, v):
                        break
                raw_blocks.append(frozenset(comp))

    blocks = tuple(sorted(raw_blocks, key=lambda b: tuple(sorted(b))))
    seen_in: dict[int, int] = {}
    cuts: set[int] = set()
    for i, b in enumerate(blocks):
        for v in b:
            if v in seen_in:
                cuts.add(v)
            seen_in[v] = i
    cut_vertices = frozenset(cuts)
    tree_edges = tuple(
        (i, v) for i, b in enumerate(blocks) for v in sorted(b) if v in cut_vertices
    )
    return BlockDecomposition(blocks, cut_vertices, tree_edges)


def is_block_graph(g: Graph) -> bool:
    """True iff every block induces a complete subgraph (graph connected)."""
    decomp = block_decomposition(g)
    for b in decomp.blocks:
        vs = sorted(b)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if not g.has_edge(u, v):
                    return False
    return True


def is_chordal(g: Graph) -> bool:
    """Maximum-cardinality search plus perfect-elimination-order check."""
    n = g.n
    if n <= 3:
        return True
    weight = [0] * n
    numbered = 0
    sel = [0] * n
    order: list[int] = []
    for step in range(n):
        best = -1
        best_w = -1
        for v in range(n):
            if not numbered >> v & 1 and weight[v] > best_w:
                best, best_w = v, weight[v]
        order.append(best)
        sel[best] = step
        numbered |= 1 << best
        for u in iter_bits(g.adj[best] & ~numbered):
            weight[u] += 1
    # Reverse selection order is an elimination order iff G is chordal;
    # verify with the parent-subset test.
    for v in range(n):
        earlier = 0
        for w in iter_bits(g.adj[v]):
            if sel[w] < sel[v]:
                earlier |= 1 << w
        if earlier & (earlier - 1):
            par = max(iter_bits(earlier), key=lambda w: sel[w])
            if earlier & ~(1 << par) & ~g.adj[par]:
                return False
    return True


# --- serialization -----------------------------------------------------

def graph_to_json(g: Graph) -> str:
    """Canonical single-line JSON: sorted edge pairs, u < v in each."""
    return json.dumps({"name": g.name, "n": g.n, "edges": [list(e) for e in g.edges]})


def graph_from_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid graph JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphError('graph JSON must contain "n" and "edges"')
    n, edges = data["n"], data["edges"]
    if not _is_int(n):
        raise GraphError(f'graph JSON "n" must be an integer, got {n!r}')
    if not isinstance(edges, list):
        raise GraphError('graph JSON "edges" must be a list')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])):
            raise GraphError(f"graph JSON edge {e!r} is not a pair of integer vertex ids")
    return Graph(n, [tuple(e) for e in edges], str(data.get("name", "")))


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_text(text: str) -> Graph:
    """Plain text format: first line n, then one "u v" pair per line."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty graph text")
    try:
        n = int(lines[0])
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
    except ValueError as exc:
        raise GraphError(f"invalid graph text: {exc}") from exc
    return Graph(n, edges)


def parse_graph(text: str, name: str | None = None) -> Graph:
    """A graph from JSON or plain text; ``name``, if given, replaces the
    name the text carries (a new Graph, as Graphs are immutable)."""
    stripped = text.lstrip()
    g = graph_from_json(text) if stripped.startswith("{") else graph_from_text(text)
    if name is not None:
        g = Graph(g.n, g.edges, name)
    return g


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g) + "\n")
