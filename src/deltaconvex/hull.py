"""Triangle-completion interval operator and its closure.

The interval of S adds every vertex that forms a triangle with two members
of S; the hull iterates this to the least fixpoint. Empty sets and
singletons are vacuously convex (any addition needs two set members).

The mask-level entry points (``interval_mask``, ``hull_mask``,
``extend_hull``) are the hot path and work on plain int bitmasks.
``hull_mask`` closes a set from scratch by scanning the graph's cached
triangle list; ``extend_hull`` grows an already closed set by one vertex
through a per-vertex worklist, which is what the invariant searches use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, GraphError, iter_bits, lowest_bit, set_from_mask


@dataclass(frozen=True, eq=True)
class HullTrace:
    """Monotone closure rounds S = R0 < R1 < ... < Rm = hull(S), plus, for
    each added vertex, the lexicographically least witnessing pair of
    earlier-round members it forms a triangle with."""

    rounds: tuple[frozenset[int], ...]
    added_by: dict[int, tuple[int, int]]

    @property
    def result(self) -> frozenset[int]:
        return self.rounds[-1]


def _subset_mask(g: Graph, s: Iterable[int]) -> int:
    mask = 0
    for v in s:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range 0..{g.n - 1}")
        mask |= 1 << v
    return mask


def interval_mask(g: Graph, mask: int) -> int:
    """Single application of the interval operator on a vertex bitmask."""
    out = mask
    for tm in g.triangle_masks:
        inter = tm & mask
        if inter != tm and inter & (inter - 1):
            out |= tm
    return out


def hull_mask(g: Graph, mask: int) -> int:
    """Least fixpoint of the interval operator containing ``mask``."""
    tris = g.triangle_masks
    cur = mask
    changed = True
    while changed:
        changed = False
        for tm in tris:
            inter = tm & cur
            if inter != tm and inter & (inter - 1):
                cur |= tm
                changed = True
    return cur


def extend_hull(g: Graph, closed_mask: int, v: int) -> int:
    """Hull of ``closed_mask`` plus ``v``, where ``closed_mask`` is convex.

    A triangle of a convex set never has exactly two members in it, so only
    triangles through a newly added vertex can fire: a worklist from ``v``
    scans just those.
    """
    cur = closed_mask | 1 << v
    if not g.adj[v] & closed_mask:
        return cur
    pairs = g.triangle_pairs
    todo = [v]
    while todo:
        for pm in pairs[todo.pop()]:
            out = pm & ~cur
            if out and out != pm:
                cur |= out
                todo.append(out.bit_length() - 1)
    return cur


def delta_interval(g: Graph, s: Iterable[int]) -> frozenset[int]:
    """S plus every vertex forming a triangle with two members of S."""
    return set_from_mask(interval_mask(g, _subset_mask(g, s)))


def delta_hull(g: Graph, s: Iterable[int]) -> frozenset[int]:
    return set_from_mask(hull_mask(g, _subset_mask(g, s)))


def _least_witness_pair(g: Graph, mask: int, w: int) -> tuple[int, int]:
    cand = g.adj[w] & mask
    for u in iter_bits(cand):
        above_u = ~((1 << (u + 1)) - 1)
        vs = g.adj[u] & cand & above_u
        if vs:
            return (u, lowest_bit(vs))
    raise AssertionError(f"vertex {w} was added without a witnessing pair")


def delta_hull_traced(g: Graph, s: Iterable[int]) -> HullTrace:
    """Round-based closure with per-vertex witnesses; deterministic."""
    cur = _subset_mask(g, s)
    rounds = [set_from_mask(cur)]
    added_by: dict[int, tuple[int, int]] = {}
    while True:
        nxt = interval_mask(g, cur)
        if nxt == cur:
            return HullTrace(tuple(rounds), added_by)
        for w in iter_bits(nxt & ~cur):
            added_by[w] = _least_witness_pair(g, cur, w)
        rounds.append(set_from_mask(nxt))
        cur = nxt


def is_delta_convex(g: Graph, s: Iterable[int]) -> bool:
    mask = _subset_mask(g, s)
    return interval_mask(g, mask) == mask


def is_hull_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff the hull of ``s`` is the whole vertex set."""
    return hull_mask(g, _subset_mask(g, s)) == g.full_mask
