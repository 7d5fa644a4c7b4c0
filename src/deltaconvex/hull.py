"""Triangle-completion interval operator and its closure.

The interval of S adds every vertex that forms a triangle with two members
of S; the hull iterates this to the least fixpoint. Empty sets and
singletons are vacuously convex (any addition needs two set members).

The mask-level entry points (``interval_mask``, ``hull_mask``,
``extend_hull``) are the hot path and work on plain int bitmasks. Both
closures are worklists over vertices, so each member is scanned once
rather than every triangle once per pass:

- ``hull_mask`` closes a set from scratch over the triangle edge classes
  of ``Graph.triangle_classes``: two edges are in one class when a
  sequence of triangles, each sharing an edge with the next, joins them.
  Once both ends of an edge are in, the whole class joins in one OR, so
  on a 2-connected chordal graph, where every triangle edge is in one
  class, an edge's hull is a single step. Membership is one byte per
  vertex, since testing a byte is cheaper than masking a many-digit int.
- ``extend_hull`` grows an already closed set by one vertex over the mask
  pairs ``Graph.triangle_pairs``. Its input is already a mask and few
  vertices join per call, so it tests membership on the mask directly;
  the invariant searches call it for every node. (Over classes it was
  slower: the searched products have few triangles that share an edge.)

The class rule gives the hull. Let H be the hull of S.

- Every class with an edge inside H lies inside H. A triangle with two
  vertices in the convex set H has its third there too, so every triangle
  on an edge inside H is inside H, and so are its other two edges; going
  from triangle to triangle along shared edges covers the class.
- A set that holds the whole class of every edge inside it is convex: a
  triangle with two members a, b has its third vertex in the class of ab.

So the least set that contains S and is closed under "an edge inside
brings in its class" is H: it lies in H by the first point, and by the
second it is a convex set containing S.

``interval_mask`` is one pass over every triangle, and the traced closure
and the convexity test are defined pass by pass through it; it is also
the independent reference the tests check both worklists against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, iter_bits, lowest_bit, set_from_mask


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


def interval_mask(g: Graph, mask: int) -> int:
    """Single application of the interval operator on a vertex bitmask."""
    out = mask
    for tm in g.triangle_masks:
        inter = tm & mask
        if inter != tm and inter & (inter - 1):
            out |= tm
    return out


def hull_mask(g: Graph, mask: int) -> int:
    """Least fixpoint of the interval operator containing ``mask``.

    A worklist over vertices, membership one byte per vertex: a popped
    member v reads its entries ``(u, c)`` in ``g.triangle_classes``, and
    when u is a member and class c has not fired yet, the vertex mask of c
    joins in one OR and the class's new vertices are pushed. The module
    docstring shows that this closure is the hull. Every edge with both
    ends inside is read from an end that was popped once the other was in:
    the later to join, or both when both are in ``mask``. Only members with
    a neighbour in ``mask`` have such an edge, so they seed the worklist.
    Returns ``g.full_mask`` as soon as every vertex is in.
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
    links, class_masks, members = g.triangle_classes
    fired = bytearray(len(class_masks))
    full = g.full_mask
    pop, push = todo.pop, todo.append
    while todo:
        for u, c in links[pop()]:
            if fired[c] or not inside[u]:
                continue
            fired[c] = 1
            mask |= class_masks[c]
            if mask == full:
                return full
            for w in members[c]:
                if not inside[w]:
                    inside[w] = 1
                    push(w)
    return mask


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
    return set_from_mask(interval_mask(g, g.mask(s)))


def delta_hull(g: Graph, s: Iterable[int]) -> frozenset[int]:
    return set_from_mask(hull_mask(g, g.mask(s)))


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
    cur = g.mask(s)
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
    mask = g.mask(s)
    return interval_mask(g, mask) == mask


def is_hull_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff the hull of ``s`` is the whole vertex set."""
    return hull_mask(g, g.mask(s)) == g.full_mask
