"""Generators for the analyzed graph families.

Each generator returns the graph together with ground-truth metadata: the
family tag, its parameters, and the invariant values the corresponding
theorem predicts. Block families carry their chain statistics (number of
blocks, longest run) as explicit parameters rather than re-deriving them
from the graph.

The two gadget families are reconstructions of figure graphs from hull
computations: a chain of k triangles whose closure walks apex by apex,
optionally with a pendant vertex attached to the first chain vertex.
Because the structures are reconstructed, every hull identity they must
satisfy is asserted at construction time; a failure raises
ReconstructionError instead of silently producing a wrong gadget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .graphs import Graph, is_block_graph, is_chordal, is_two_connected
from .hull import delta_hull


class FamilyError(ValueError):
    """Invalid family parameters."""


class ReconstructionError(RuntimeError):
    """A reconstructed gadget failed one of its defining hull identities."""


@dataclass(frozen=True)
class Prediction:
    """Predicted invariant value and the theorem tag that predicts it.

    ``relation`` is "eq" (exact), "le" (upper bound) or "in" (one of
    several values, e.g. the 2-connected chordal exchange number).
    """

    relation: str
    value: int | tuple[int, ...]
    theorem: str

    def holds(self, observed: int) -> bool:
        if self.relation == "eq":
            return observed == self.value
        if self.relation == "le":
            return observed <= self.value
        if self.relation == "in":
            return observed in self.value
        raise ValueError(f"unknown relation {self.relation!r}")

    def describe(self, invariant: str) -> str:
        if self.relation == "eq":
            return f"{invariant} = {self.value}"
        if self.relation == "le":
            return f"{invariant} <= {self.value}"
        return f"{invariant} in {sorted(self.value)}"


@dataclass(frozen=True)
class FamilyInstance:
    graph: Graph
    family: str
    params: dict = field(default_factory=dict)
    predictions: dict[str, Prediction] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.graph.name


def _complete_edges(vertices: list[int]) -> list[tuple[int, int]]:
    return list(combinations(vertices, 2))


def path(n: int) -> FamilyInstance:
    if n < 1:
        raise FamilyError(f"path needs n >= 1, got {n}")
    g = Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")
    preds = {"c": Prediction("eq", 1, "triangle_free_c1")}
    if n >= 2:
        preds["e"] = Prediction("eq", 2, "triangle_free_e2")
    return FamilyInstance(g, "path", {"n": n}, preds)


def cycle(n: int) -> FamilyInstance:
    if n < 3:
        raise FamilyError(f"cycle needs n >= 3, got {n}")
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")
    if n == 3:
        preds = {
            "c": Prediction("eq", 2, "complete_c2"),
            "e": Prediction("eq", 2, "complete_e2"),
        }
    else:
        preds = {
            "c": Prediction("eq", 1, "triangle_free_c1"),
            "e": Prediction("eq", 2, "triangle_free_e2"),
        }
    return FamilyInstance(g, "cycle", {"n": n}, preds)


def complete(n: int) -> FamilyInstance:
    if n < 1:
        raise FamilyError(f"complete needs n >= 1, got {n}")
    g = Graph(n, _complete_edges(list(range(n))), name=f"K{n}")
    if n > 2:
        preds = {
            "c": Prediction("eq", 2, "complete_c2"),
            "e": Prediction("eq", 2, "complete_e2"),
        }
    else:
        preds = {"c": Prediction("eq", 1, "triangle_free_c1")}
        if n == 2:
            preds["e"] = Prediction("eq", 2, "triangle_free_e2")
    return FamilyInstance(g, "complete", {"n": n}, preds)


def complete_bipartite(m: int, n: int) -> FamilyInstance:
    if m < 1 or n < 1:
        raise FamilyError(f"complete_bipartite needs both sides >= 1, got {m}, {n}")
    edges = [(u, m + v) for u in range(m) for v in range(n)]
    g = Graph(m + n, edges, name=f"K{m},{n}")
    preds = {
        "c": Prediction("eq", 1, "triangle_free_c1"),
        "e": Prediction("eq", 2, "triangle_free_e2"),
    }
    return FamilyInstance(g, "complete_bipartite", {"m": m, "n": n}, preds)


def _longest_big_run(sizes: list[int]) -> int:
    best = run = 0
    for s in sizes:
        run = run + 1 if s > 2 else 0
        best = max(best, run)
    return best


def block_chain(sizes: list[int]) -> FamilyInstance:
    """Chain of complete blocks; consecutive blocks share one cut vertex."""
    sizes = list(sizes)
    if not sizes:
        raise FamilyError("block_chain needs at least one block")
    for s in sizes:
        if s < 2:
            raise FamilyError(f"block size must be >= 2, got {s}")
    edges: list[tuple[int, int]] = []
    start = 0
    for s in sizes:
        edges.extend(_complete_edges(list(range(start, start + s))))
        start += s - 1
    n = start + 1
    label = ",".join(map(str, sizes))
    g = Graph(n, edges, name=f"block_chain[{label}]")
    if not is_block_graph(g):
        raise FamilyError(f"{g.name} is not a block graph")
    ell = len(sizes)
    if all(s > 2 for s in sizes):
        preds = {
            "c": Prediction("eq", ell + 1, "block_c_i"),
            "e": Prediction("eq", ell + 1, "block_e_i"),
        }
        k = ell
    else:
        k = _longest_big_run(sizes)
        preds = {
            "c": Prediction("eq", k + 1, "block_c_iii"),
            "e": Prediction("eq", k + 2, "block_e_iii"),
        }
    return FamilyInstance(g, "block_chain", {"sizes": sizes, "ell": ell, "k": k}, preds)


def block_tree(chains: list[list[int]]) -> FamilyInstance:
    """Chains of complete blocks joined at a shared root cut vertex.

    Two legs meeting at the root form one block chain, so a 2-leg spider is
    a single-chain graph (predictions c = e = total blocks + 1). With three
    or more legs the blocks genuinely lie on several chains and the longest
    chain runs through the root across the two longest legs.
    """
    chains = [list(c) for c in chains]
    if len(chains) < 2:
        raise FamilyError("block_tree needs at least two chains")
    for chain in chains:
        if not chain:
            raise FamilyError("block_tree chains must be nonempty")
        for s in chain:
            if s < 3:
                raise FamilyError(f"block_tree block size must be >= 3, got {s}")
    edges: list[tuple[int, int]] = []
    nxt = 1
    for chain in chains:
        prev_cut = 0
        for s in chain:
            block = [prev_cut] + list(range(nxt, nxt + s - 1))
            nxt += s - 1
            edges.extend(_complete_edges(block))
            prev_cut = block[-1]
    label = ",".join("[" + ",".join(map(str, c)) + "]" for c in chains)
    g = Graph(nxt, edges, name=f"block_tree[{label}]")
    if not is_block_graph(g):
        raise FamilyError(f"{g.name} is not a block graph")
    ell = sum(len(c) for c in chains)
    legs = sorted((len(c) for c in chains), reverse=True)
    k = legs[0] + legs[1]
    if len(chains) == 2:
        preds = {
            "c": Prediction("eq", ell + 1, "block_c_i"),
            "e": Prediction("eq", ell + 1, "block_e_i"),
        }
    else:
        preds = {
            "c": Prediction("eq", k + 1, "block_c_ii"),
            "e": Prediction("eq", k + 2, "block_e_ii"),
        }
    return FamilyInstance(
        g, "block_tree", {"chains": chains, "ell": ell, "k": k}, preds
    )


def two_connected_chordal(n: int, seed: int) -> FamilyInstance:
    """Seeded 2-connected chordal graph: grow from a triangle by attaching
    each new vertex to a randomly chosen existing clique of size >= 2."""
    if n < 3:
        raise FamilyError(f"two_connected_chordal needs n >= 3, got {n}")
    rng = random.Random(seed)
    edges = {(0, 1), (0, 2), (1, 2)}
    adj: list[set[int]] = [{1, 2}, {0, 2}, {0, 1}]
    for v in range(3, n):
        u, w = rng.choice(sorted(edges))
        clique = [u, w]
        common = adj[u] & adj[w]
        while common and rng.random() < 0.5:
            x = rng.choice(sorted(common))
            clique.append(x)
            common &= adj[x]
        adj.append(set())
        for u2 in clique:
            edges.add((u2, v))
            adj[u2].add(v)
            adj[v].add(u2)
    g = Graph(n, sorted(edges), name=f"chordal(n={n},seed={seed})")
    if not (is_chordal(g) and is_two_connected(g)):
        raise FamilyError(f"{g.name} is not a 2-connected chordal graph")
    preds = {
        "c": Prediction("eq", 2, "chordal_c2"),
        "e": Prediction("in", (2, 3), "chordal_e23"),
    }
    return FamilyInstance(g, "two_connected_chordal", {"n": n, "seed": seed}, preds)


def _chain_triangles(n_chain: int, apex_base: int) -> list[tuple[int, int, int]]:
    """Triangle chain over chain vertices 0..n_chain-1 with apexes starting
    at index ``apex_base``: (0, 1, apex_1), then each further chain vertex
    rides on two consecutive apexes."""
    tris = [(0, 1, apex_base)]
    for i in range(3, n_chain + 1):
        tris.append((apex_base + i - 3, i - 1, apex_base + i - 2))
    return tris


def gadget_c(n: int) -> FamilyInstance:
    """Graph with n - 1 triangles whose Caratheodory and exchange numbers
    both equal n.

    Chain vertices a_1..a_n take indices 0..n-1, interior apexes b_1..b_{n-2}
    take n..2n-3, and the terminal apex b is 2n-2.
    """
    if n < 3:
        raise FamilyError(f"gadget_c needs n >= 3, got {n}")
    tris = _chain_triangles(n, n)
    edges = [(a, b) for t in tris for a, b in combinations(t, 2)]
    g = Graph(2 * n - 1, edges, name=f"gadget_c({n})")
    _validate_gadget_c(g, n)
    preds = {
        "c": Prediction("eq", n, "gadget_c_exact"),
        "e": Prediction("eq", n, "gadget_c_exact"),
    }
    return FamilyInstance(g, "gadget_c", {"n": n}, preds)


def _validate_gadget_c(g: Graph, n: int) -> None:
    if len(g.triangles) != n - 1:
        raise ReconstructionError(
            f"gadget_c({n}) has {len(g.triangles)} triangles, expected {n - 1}"
        )
    chain = frozenset(range(n))
    everything = frozenset(range(2 * n - 1))
    apex = 2 * n - 2

    def check(removed: int, expected: frozenset[int]) -> frozenset[int]:
        got = delta_hull(g, chain - {removed})
        if got != expected:
            raise ReconstructionError(
                f"gadget_c({n}): hull without vertex {removed} is {sorted(got)}, "
                f"expected {sorted(expected)}"
            )
        return got

    if delta_hull(g, chain) != everything:
        raise ReconstructionError(f"gadget_c({n}): chain set is not a hull set")
    covered = check(0, frozenset(range(1, n)))
    covered |= check(1, frozenset({0}) | frozenset(range(2, n)))
    for i in range(3, n):
        covered |= check(i - 1, (chain - {i - 1}) | frozenset(range(n, n + i - 2)))
    covered |= check(n - 1, frozenset(range(n - 1)) | frozenset(range(n, 2 * n - 2)))
    if apex in covered:
        raise ReconstructionError(
            f"gadget_c({n}): terminal apex {apex} covered by a leave-one-out hull"
        )


def gadget_e(k: int) -> FamilyInstance:
    """Graph with k triangles whose exchange number is k + 2.

    The triangle chain of gadget_c over a_1..a_{k+1} (indices 0..k) with
    apexes b_1..b_k (indices k+1..2k), plus a pendant vertex (index 2k+1)
    adjacent only to a_1.
    """
    if k < 1:
        raise FamilyError(f"gadget_e needs k >= 1, got {k}")
    tris = _chain_triangles(k + 1, k + 1)
    pendant = 2 * k + 1
    edges = [(a, b) for t in tris for a, b in combinations(t, 2)]
    edges.append((0, pendant))
    g = Graph(2 * k + 2, edges, name=f"gadget_e({k})")
    _validate_gadget_e(g, k)
    preds = {
        "e": Prediction("eq", k + 2, "gadget_e_exact"),
        "c": Prediction("le", k + 1, "cara_triangle_bound"),
    }
    return FamilyInstance(g, "gadget_e", {"k": k}, preds)


def _validate_gadget_e(g: Graph, k: int) -> None:
    if len(g.triangles) != k:
        raise ReconstructionError(
            f"gadget_e({k}) has {len(g.triangles)} triangles, expected {k}"
        )
    pendant = 2 * k + 1
    last_apex = 2 * k
    s = frozenset(range(k + 1)) | {pendant}
    if last_apex not in delta_hull(g, s - {pendant}):
        raise ReconstructionError(
            f"gadget_e({k}): apex {last_apex} not reached without the pendant"
        )
    covered: set[int] = set()
    for x in sorted(s - {pendant}):
        covered |= delta_hull(g, s - {x})
    if last_apex in covered:
        raise ReconstructionError(
            f"gadget_e({k}): apex {last_apex} covered by a non-pivot hull"
        )


def random_graph(n: int, edge_probability: float, seed: int) -> FamilyInstance:
    """Seeded Erdos-Renyi style graph; components accepted as-is."""
    if n < 1:
        raise FamilyError(f"random_graph needs n >= 1, got {n}")
    if not 0.0 <= edge_probability <= 1.0:
        raise FamilyError(f"edge probability must be in [0, 1], got {edge_probability}")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    ]
    g = Graph(n, edges, name=f"random(n={n},p={edge_probability},seed={seed})")
    return FamilyInstance(
        g, "random", {"n": n, "p": edge_probability, "seed": seed}, {}
    )
