"""Dense-index graph representation and structural queries.

Vertices are integers 0..n-1. Adjacency lives in one neighbor bitmask per
vertex, and vertex subsets travel as Python ints (bit i = vertex i) through
the performance-sensitive code paths; public functions accept any iterable
of vertex indices, check it with ``Graph.mask``, and return frozensets.

Graphs are immutable after construction, so they are safe to share across
parallel workers. Derived data that every hull and every search consults
(the triangle list, all-pairs distances, a sample of the automorphism
group) is computed once and cached on the instance.

``automorphisms`` samples the automorphism group by plain backtracking
over vertex images, which may stop early: the searches' symmetry cut is
sound for any set of automorphisms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator

INF = float("inf")
# The most vertices a graph file or a generated family may have: files come
# from outside the program, and a ``Graph``'s adjacency masks take about
# n * n / 16 bytes even for a path, so the bound is on memory, not just on
# the vertex count (a path on MAX_VERTICES vertices takes about 21 MB).
MAX_VERTICES = 1 << 14
# The most edges of a generated family or product, checked before its edge
# list is built: K1448 (1,047,628 edges) peaks at 205 MB in ``generate``.
MAX_EDGES = 1 << 20
# The most automorphisms a graph keeps for its searches (``Graph.symmetries``).
# Any subset of the group keeps the searches' symmetry cut sound, and the
# group can be huge (K7 alone has 5,040).
SYMMETRY_LIMIT = 256
# The most partial maps ``automorphisms`` makes. Backtracking without
# refinement can go down many dead ends on a graph with few automorphisms
# (a relabelled random cubic graph on 200 vertices reaches this stop), and
# a sample of the group is enough for the symmetry cut. Products need far
# fewer: C5 x C5 (strong) finds its whole group of 200 in 7,225, and
# C6 x C6 (strong) its first 256 maps in 12,122.
_AUTOMORPHISM_STEPS = 1 << 17


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


# bytes.translate table from the ASCII binary digits of ``bin`` to the
# bytes 0 and 1, which ``itertools.compress`` reads as selectors.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def set_from_mask(mask: int) -> frozenset[int]:
    """The set bit positions of ``mask``, read from its binary digits in one
    pass at C speed rather than one Python step per set bit."""
    digits = bin(mask)[:1:-1].encode()
    return frozenset(compress(range(len(digits)), digits.translate(_BITS)))


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
        """False when either end is not a vertex."""
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def mask(self, vertices: Iterable[int]) -> int:
        """The bitmask of ``vertices``: the one check that a vertex set from
        outside lies in 0..n-1."""
        n = self.n
        m = 0
        for v in vertices:
            if not 0 <= v < n:
                raise GraphError(f"vertex {v} out of range 0..{n - 1}")
            m |= 1 << v
        return m

    def _vertex(self, v: int) -> int:
        self.mask((v,))
        return v

    def neighbors(self, v: int) -> frozenset[int]:
        return set_from_mask(self.adj[self._vertex(v)])

    def degree(self, v: int) -> int:
        return self.adj[self._vertex(v)].bit_count()

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
    def triangle_classes(
        self,
    ) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The edges that lie on triangles, split into classes: two such
        edges are in one class when a sequence of triangles, each sharing
        an edge with the next, leads from one to the other.

        Returns ``(links, masks, members)``. ``links[v]`` holds ``(u, c)``
        for every edge vu on a triangle, c being the edge's class; an edge
        on no triangle has no entry. A class is numbered by its least
        triangle (an index into ``triangles``); ``masks[c]`` is the vertex
        mask of class c and ``members[c]`` its vertices. At an index that
        numbers no class, ``masks`` is 0 and ``members`` is that
        triangle's.

        One pass over the triangles finds the first triangle of every edge
        and the pairs of triangles that share an edge; a union-find over
        triangle indices then merges those.
        """
        n, tris = self.n, self.triangles
        links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        first: dict[int, int] = {}  # edge u * n + v (u < v) -> its first triangle
        setdefault = first.setdefault
        shared: list[tuple[int, int]] = []
        for t, (a, b, c) in enumerate(tris):
            for u, v in ((a, b), (a, c), (b, c)):
                s = setdefault(u * n + v, t)
                if s == t:
                    links[u].append((v, t))
                    links[v].append((u, t))
                else:
                    shared.append((s, t))
        masks = list(self.triangle_masks)
        members: list[tuple[int, ...]] = list(tris)
        if shared:
            # Each root is the least triangle of its set (finds halve their
            # paths), so in index order a triangle's root is final before
            # any later triangle reads it.
            root = list(range(len(tris)))
            for s, t in shared:
                while root[s] != s:
                    root[s] = s = root[root[s]]
                while root[t] != t:
                    root[t] = t = root[root[t]]
                if s != t:
                    root[max(s, t)] = min(s, t)
            merged = set()
            for t, r in enumerate(root):
                if r != t:
                    root[t] = r = root[r]
                    masks[r] |= masks[t]
                    masks[t] = 0
                    merged.add(r)
            for r in merged:
                members[r] = tuple(iter_bits(masks[r]))
            links = [[(u, root[t]) for u, t in lv] for lv in links]
        return tuple(map(tuple, links)), tuple(masks), tuple(members)

    @cached_property
    def triangle_components(self) -> tuple[tuple[int, int], ...]:
        """The classes of triangles joined by shared vertices, as
        ``(vertex mask, triangle count)`` pairs ordered by least vertex,
        from one union-find over the vertices of the triangles."""
        root = list(range(self.n))

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = v = root[root[v]]
            return v

        for a, b, c in self.triangles:
            ra = find(a)
            root[find(b)] = ra
            root[find(c)] = ra
        # Triangles come sorted, so a class's first one holds its least vertex.
        comps: dict[int, list[int]] = {}
        for t, tm in zip(self.triangles, self.triangle_masks):
            comp = comps.setdefault(find(t[0]), [0, 0])
            comp[0] |= tm
            comp[1] += 1
        return tuple(map(tuple, comps.values()))

    @cached_property
    def triangle_vertex_mask(self) -> int:
        m = 0
        for tm in self.triangle_masks:
            m |= tm
        return m

    @cached_property
    def symmetries(self) -> tuple[tuple[int, ...], ...]:
        """Up to ``SYMMETRY_LIMIT`` non-identity automorphisms, found once
        and shared by every search of this graph."""
        return automorphisms(self, SYMMETRY_LIMIT)

    @cached_property
    def distances(self) -> tuple[tuple[int | float, ...], ...]:
        """Hop distances between all vertex pairs; INF across components."""
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


def _is_automorphism(adj: tuple[int, ...], image: list[int]) -> bool:
    bits = [1 << v for v in image]
    for u, nbrs in enumerate(adj):
        moved = 0
        for w in iter_bits(nbrs):
            moved |= bits[w]
        if moved != adj[image[u]]:
            return False
    return True


def automorphisms(g: Graph, limit: int) -> tuple[tuple[int, ...], ...]:
    """Up to ``limit`` non-identity automorphisms of ``g``, each as the
    tuple of vertex images, by backtracking over vertex images.

    Vertices are mapped in breadth-first order, component by component, so
    each vertex but the first of its component has a mapped neighbour. A
    vertex's image must be an unused vertex of its degree that is adjacent
    to exactly the images of its mapped neighbours; its image is first
    tried as itself, then the other candidates from the lowest up. Each
    level's candidates are a bit mask on an explicit stack. The search
    stops at ``limit`` maps or after ``_AUTOMORPHISM_STEPS`` partial maps;
    with fewer maps and no stop, the group is complete. Any subset of the
    group keeps the searches' symmetry cut sound, so an early stop costs
    only pruning. Every map returned is checked edge for edge.
    """
    n = g.n
    if n < 2 or limit < 1:
        return ()
    adj = g.adj
    order: list[int] = []
    seen = 0
    for root in range(n):
        if not seen >> root & 1:
            seen |= 1 << root
            i = len(order)
            order.append(root)
            while i < len(order):
                new = adj[order[i]] & ~seen
                seen |= new
                order.extend(iter_bits(new))
                i += 1
    # back[i]: the neighbours of order[i] mapped before it.
    back: list[int] = []
    mapped = 0
    for v in order:
        back.append(adj[v] & mapped)
        mapped |= 1 << v
    by_degree: dict[int, int] = {}
    for v, nbrs in enumerate(adj):
        d = nbrs.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    identity = list(range(n))
    image = identity[:]
    used = 0

    def candidates(i: int) -> int:
        v = order[i]
        pool = ~used & by_degree[adj[v].bit_count()]
        if not back[i]:
            # The components before v's are mapped onto whole components,
            # so no unused vertex has a used neighbour.
            return pool
        target = 0
        for u in iter_bits(back[i]):
            target |= 1 << image[u]
        keep = 0
        for w in iter_bits(pool & adj[image[lowest_bit(back[i])]]):
            if adj[w] & used == target:
                keep |= 1 << w
        return keep

    found: list[tuple[int, ...]] = []
    stack = [candidates(0)]
    steps = _AUTOMORPHISM_STEPS
    while stack and steps:
        i = len(stack) - 1
        cand = stack[i]
        if not cand:
            stack.pop()
            if i:
                used ^= 1 << image[order[i - 1]]
            continue
        v = order[i]
        w = v if cand >> v & 1 else lowest_bit(cand)
        stack[i] = cand ^ 1 << w
        image[v] = w
        steps -= 1
        if i + 1 < n:
            used |= 1 << w
            stack.append(candidates(i + 1))
        elif image != identity and _is_automorphism(adj, image):
            found.append(tuple(image))
            if len(found) == limit:
                break
    return tuple(found)


def diameter(g: Graph) -> int | float:
    if g.n == 0:
        raise GraphError("diameter is undefined for the empty graph")
    worst: int | float = 0
    for row in g.distances:
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
    """No cut vertex, read from the block decomposition: a connected graph
    on 3 or more vertices with one block. A graph on fewer than 3 vertices
    qualifies iff it is K2."""
    if g.n < 3:
        return g.n == 2 and g.has_edge(0, 1)
    return is_connected(g) and len(block_decomposition(g).blocks) == 1


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
    """Maximum-cardinality search plus perfect-elimination-order check.

    The search keeps the unnumbered vertices in buckets by weight (their
    numbered neighbours) and numbers a vertex of the heaviest bucket next.
    Numbering a vertex raises its neighbours' weights by one, so the
    heaviest bucket is at most one above the last; finding it takes O(1)
    amortised, and the search O(n + m) bucket moves. The reverse numbering
    is an elimination order iff G is chordal, checked by the parent-subset
    test as each vertex is numbered: its numbered neighbours other than
    the last numbered one (its parent) must all be neighbours of the parent.
    """
    n = g.n
    if n <= 3:
        return True
    adj = g.adj
    most = max(map(int.bit_count, adj))  # no weight exceeds the degree
    weight = [0] * n
    buckets: list[set[int]] = [set(range(n))] + [set() for _ in range(most)]
    sel = [0] * n
    numbered = 0
    top = 0
    for step in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        sel[v] = step
        earlier = adj[v] & numbered
        if earlier & (earlier - 1):
            par = max(iter_bits(earlier), key=sel.__getitem__)
            if earlier & ~(1 << par) & ~adj[par]:
                return False
        numbered |= 1 << v
        for u in iter_bits(adj[v] & ~numbered):
            w = weight[u]
            buckets[w].remove(u)
            buckets[w + 1].add(u)
            weight[u] = w + 1
        top = min(top + 1, most)
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
    _check_size(n, len(edges))
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and _is_int(e[0]) and _is_int(e[1])):
            raise GraphError(f"graph JSON edge {e!r} is not a pair of integer vertex ids")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise GraphError(f'graph JSON "name" must be a string or null, got {name!r}')
    return Graph(n, [tuple(e) for e in edges], name or "")


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_size(n: int, m: int) -> None:
    for what, count, limit in (("vertex", n, MAX_VERTICES), ("edge", m, MAX_EDGES)):
        if count > limit:
            raise GraphError(f"{what} count {count} is over the limit of {limit}")


def graph_from_text(text: str) -> Graph:
    """Plain text format: first line n, then one "u v" pair per line."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphError("empty graph text")
    try:
        n = int(lines[0])
        _check_size(n, len(lines) - 1)
        edges = []
        for ln in lines[1:]:
            u, v = ln.split()
            edges.append((int(u), int(v)))
    except GraphError:
        raise
    except ValueError as exc:
        raise GraphError(f"invalid graph text: {exc}") from exc
    return Graph(n, edges)


def parse_graph(text: str) -> Graph:
    """A graph from JSON or plain text."""
    return graph_from_json(text) if text.lstrip().startswith("{") else graph_from_text(text)


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_json(g) + "\n")
