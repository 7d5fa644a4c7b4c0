"""Triangle-completion interval operator and its closure.

The interval of S adds every vertex that forms a triangle with two members
of S; the hull iterates this to the least fixpoint. Empty sets and
singletons are vacuously convex (any addition needs two set members).

The mask-level entry points (``interval_mask``, ``hull_mask``,
``extend_hull``) are the hot path and work on plain int bitmasks. Both
closures are worklists over vertices, so each member's triangles are
scanned once rather than every triangle once per pass:

- ``hull_mask`` closes a set from scratch. It keeps membership in one
  byte per vertex and reads the per-vertex index pairs
  ``Graph.triangle_index_pairs``, since testing a byte is cheaper than
  masking a many-digit int; it converts to a mask once, at the end.
- ``extend_hull`` grows an already closed set by one vertex over the mask
  pairs ``Graph.triangle_pairs``. Its input is already a mask and few
  vertices join per call, so it tests membership on the mask directly;
  the invariant searches call it for every node.

``interval_mask`` is one pass over every triangle, and the traced closure
and the convexity test are defined pass by pass through it; it is also
the independent reference the tests check both worklists against.
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


# bytes.translate table from one membership byte (0 or 1) per vertex to the
# ASCII binary digits that ``int(..., 2)`` reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def hull_mask(g: Graph, mask: int) -> int:
    """Least fixpoint of the interval operator containing ``mask``.

    A worklist over vertices: membership is one byte per vertex, and a
    popped member scans its triangles in ``g.triangle_index_pairs``, adding
    the third vertex of every triangle it shares with exactly one other
    member. A triangle fires only once two of its vertices are in, and one
    of those two is scanned after both are (the later to join, or both when
    both are in ``mask``), so scanning each member's triangles once reaches
    the same least fixpoint as repeated passes. Only members with a
    neighbour in ``mask`` share a triangle with another member, so they
    seed the worklist. Returns ``g.full_mask`` as soon as every vertex is
    in.
    """
    adj = g.adj
    inside = bytearray(g.n)
    todo = []
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        inside[v] = 1
        if adj[v] & mask:
            todo.append(v)
        m ^= low
    if not todo:
        return mask
    pairs = g.triangle_index_pairs
    left = outside = g.n - mask.bit_count()
    pop, push = todo.pop, todo.append
    while todo:
        for a, b in pairs[pop()]:
            if inside[a]:
                if inside[b]:
                    continue
                a = b
            elif not inside[b]:
                continue
            inside[a] = 1
            push(a)
            left -= 1
        if not left:
            return g.full_mask
    if left == outside:
        return mask
    return int(inside[::-1].translate(_DIGITS), 2)


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
