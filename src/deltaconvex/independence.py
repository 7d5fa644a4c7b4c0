"""Caratheodory/exchange/Helly independence tests and invariant searches.

Decision procedures return machine-checkable witnesses: an uncovered hull
element for Caratheodory, a (pivot, uncovered element) pair for exchange.
Ties break to the first pivot in member order and the least element, so
outputs are reproducible. One kernel per kind decides independence from a
list of leave-one-out hulls hull(S - a); the independence tests, the
pruned searches, the ``naive_*`` searches and the product witnesses all
share it. The exchange kernel is linear in |S|: it marks the elements that
lie in exactly one of the hulls.

An invariant search reports, at the largest size that has one, the first
independent set in the order of ``itertools.combinations`` (size
ascending, then lexicographic). The pruned searches get it from one
depth-first search over set prefixes with an explicit stack, children in
ascending vertex order, so the sets of each size are met in that same
order:

* Caratheodory draws candidates from triangle vertices only; exchange
  allows at most one member lying on no triangle;
* a subtree is cut when its root contains all three vertices of a
  triangle or (exchange) two off-triangle vertices, since every superset
  does too; a Caratheodory or exchange candidate of size >= 2 also needs
  an internal edge before it is tested;
* Helly independence is hereditary, so the Helly search cuts the subtree
  of every dependent set, and the sizes it finds run from 1 up;
* sizes are capped at k+1 (Caratheodory) / k+2 (exchange) for a graph
  with k triangles, and at n (Helly);
* open-size rule: a size is open until its first independent set is
  found. A node is made only while its own size is open or it can still
  reach the smallest open size above it with the candidates left, and the
  search ends when the cap size is found. This is the per-size early stop
  of a size-by-size scan, without rescanning prefixes for every size.

Each node carries hull(S) and its leave-one-out hulls. A child S + x gets
its own from its parent's with ``extend_hull``, which grows a closed set
by one vertex; hull(S) itself is the child's leave-one-out hull for x.
A node made only to be expanded gets its hulls when a descendant is first
tested, so a subtree the cuts empty costs none; a node that will not be
expanded computes them one at a time, so a kernel that settles
dependence early skips the rest.

The ``naive_*`` variants bypass every filter, cap, cut and incremental
hull: they enumerate ``combinations`` and close every leave-one-out set
from scratch with ``hull_mask``, as the oracle side of the pruned
searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .graphs import Graph, GraphError, iter_bits, lowest_bit, set_from_mask, vertex_mask
from .hull import extend_hull, hull_mask

CARATHEODORY = "caratheodory"
EXCHANGE = "exchange"
HELLY = "helly"


@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of one independence test.

    ``witness`` is the least uncovered hull element for Caratheodory, the
    least (pivot, uncovered element) pair for exchange, and None for Helly
    (emptiness of the intersection is the certificate) or when dependent.
    """

    kind: str
    independent: bool
    witness: int | tuple[int, int] | None = None


@dataclass(frozen=True)
class InvariantResult:
    """Invariant value with its certifying set.

    ``exhaustive`` is False when a caller-supplied size cap truncated the
    search, in which case ``value`` is only a lower bound.
    ``search_bound_used`` is the largest set size the search considered.
    """

    value: int
    extremal_set: frozenset[int]
    exhaustive: bool
    search_bound_used: int


def _members(g: Graph, s: Iterable[int]) -> list[int]:
    members = sorted(set(s))
    if not members:
        raise GraphError("independence is undefined for the empty set")
    if members[0] < 0 or members[-1] >= g.n:
        raise GraphError(f"vertex set {members} not within 0..{g.n - 1}")
    return members


def _c_kernel(hull_s: int, subhulls: Iterable[int]) -> int | None:
    """Least element of hull(S) outside every leave-one-out hull, or None."""
    covered = 0
    for h in subhulls:
        covered |= h
        if hull_s & ~covered == 0:
            return None
    return lowest_bit(hull_s & ~covered)


def _e_kernel(subhulls: Iterable[int], hull_s: int = -1) -> tuple[int, int] | None:
    """(position, element) for the first leave-one-out hull in list order
    with an element outside all the others, and its least such element.

    Given ``hull_s``, the hull of S, the scan stops as soon as every element
    of it lies in two of the hulls seen: then no hull has such an element.
    """
    seen = []
    once = twice = 0
    for h in subhulls:
        seen.append(h)
        twice |= once & h
        once |= h
        if hull_s & ~twice == 0:
            return None
    unique = once & ~twice
    for i, h in enumerate(seen):
        if h & unique:
            return i, lowest_bit(h & unique)
    return None


def _h_kernel(subhulls: Iterable[int]) -> bool:
    """True iff the leave-one-out hulls have an empty intersection."""
    inter = -1
    for h in subhulls:
        inter &= h
        if inter == 0:
            return True
    return False


def _loo_hulls(g: Graph, smask: int, members: Iterable[int]) -> Iterator[int]:
    """hull(S - a) for each a in ``members``, from scratch and on demand."""
    for a in members:
        yield hull_mask(g, smask & ~(1 << a))


def _grown(g: Graph, hull_s: int, subs: list[int], x: int) -> Iterator[int]:
    """Leave-one-out hulls of S + x from those of S, on demand. hull(S)
    comes first: it is one of them and costs nothing."""
    yield hull_s
    for h in subs:
        yield extend_hull(g, h, x)


def _c_witness(g: Graph, smask: int, members: Iterable[int]) -> int | None:
    return _c_kernel(hull_mask(g, smask), _loo_hulls(g, smask, members))


def _e_witness(g: Graph, smask: int, members: list[int]) -> tuple[int, int] | None:
    w = _e_kernel(_loo_hulls(g, smask, members))
    return None if w is None else (members[w[0]], w[1])


def _h_independent(g: Graph, smask: int, members: Iterable[int]) -> bool:
    return _h_kernel(_loo_hulls(g, smask, members))


def is_c_independent(g: Graph, s: Iterable[int]) -> IndependenceVerdict:
    """Independent iff some hull element escapes every leave-one-out hull."""
    members = _members(g, s)
    p = _c_witness(g, vertex_mask(members), members)
    return IndependenceVerdict(CARATHEODORY, p is not None, p)


def is_e_independent(g: Graph, s: Iterable[int]) -> IndependenceVerdict:
    """Independent iff |S| = 1 or some pivot p admits an element of the
    hull of S minus p escaping every other leave-one-out hull."""
    members = _members(g, s)
    if len(members) == 1:
        return IndependenceVerdict(EXCHANGE, True, None)
    w = _e_witness(g, vertex_mask(members), members)
    return IndependenceVerdict(EXCHANGE, w is not None, w)


def is_h_independent(g: Graph, s: Iterable[int]) -> IndependenceVerdict:
    members = _members(g, s)
    ok = _h_independent(g, vertex_mask(members), members)
    return IndependenceVerdict(HELLY, ok, None)


def _cap(hard_cap: int, max_size: int | None) -> tuple[int, bool]:
    if max_size is None:
        return hard_cap, True
    cap = max(1, min(hard_cap, max_size))
    return cap, cap >= hard_cap


def _lex_search(
    g: Graph, kind: str, candidates: list[int], lo: int, cap: int
) -> dict[int, int]:
    """Mask of the lexicographically first independent set of each size in
    lo..cap that has one, over subsets of ``candidates`` (ascending).

    Depth-first over prefixes, children in ascending order, so the sets of
    one size are met in ``combinations`` order. The frame of a set of size
    s sits at stack depth s and holds the set, its hull, its leave-one-out
    hulls, its next candidate position and whether it has an internal
    edge. A frame made only to be expanded gets its hulls when a
    descendant is first tested (``_fill_hulls``).
    """
    adj = g.adj
    pairs = g.triangle_pairs
    off_triangle = ~g.triangle_vertex_mask
    helly = kind == HELLY
    ncand = len(candidates)
    found: dict[int, int] = {}
    # next_open[s]: the least size >= s still without a set ("open"), or
    # ``never``, a size too large to reach.
    never = cap + ncand + 1
    next_open = [max(s, lo) if max(s, lo) <= cap else never for s in range(cap + 2)]
    stack: list[list] = [[0, 0, [], 0, False]]
    while stack:
        frame = stack[-1]
        smask, hull_s, subs, i, edge = frame
        size = len(stack)
        # Open-size rule: make a child only while some open size at or
        # above its own can still be reached from it.
        target = next_open[size]
        if target - size >= ncand - i:
            stack.pop()
            continue
        frame[3] = i + 1
        x = candidates[i]
        bit = 1 << x
        nb = adj[x] & smask
        if not helly:
            # Monotone cuts: no superset of a rejected child passes either.
            if nb & (nb - 1) and any(pm & smask == pm for pm in pairs[x]):
                continue
            if bit & off_triangle and smask & off_triangle:
                continue
        edge = edge or nb != 0
        evaluate = target == size and (helly or edge)
        expand = next_open[size + 1] - size < ncand - i
        if not evaluate:
            if expand and not helly:
                # Untested: its hulls wait until a descendant is tested.
                stack.append([smask | bit, None, None, i + 1, edge])
                continue
            if not expand:
                continue
        if hull_s is None:
            _fill_hulls(g, stack)
            hull_s, subs = frame[1], frame[2]
        child_hull = extend_hull(g, hull_s, x)
        loo = _grown(g, hull_s, subs, x)
        if expand:
            loo = list(loo)
        if kind == CARATHEODORY:
            ok = _c_kernel(child_hull, loo) is not None
        elif kind == EXCHANGE:
            ok = _e_kernel(loo, child_hull) is not None
        else:
            ok = _h_kernel(loo)
        if ok and evaluate:
            found[size] = smask | bit
            if size == cap:
                break
            for s in range(size, -1, -1):
                if next_open[s] != size:
                    break
                next_open[s] = next_open[size + 1]
        elif helly and not ok:
            # Helly independence is hereditary: cut the subtree.
            continue
        if expand:
            stack.append([smask | bit, child_hull, loo, i + 1, edge])
    return found


def _fill_hulls(g: Graph, stack: list[list]) -> None:
    """Give every frame still without hulls its hull and leave-one-out
    hulls, top-down from the deepest frame that has them."""
    k = len(stack) - 1
    while stack[k][1] is None:
        k -= 1
    for parent, frame in zip(stack[k:], stack[k + 1:]):
        x = frame[0].bit_length() - 1
        frame[1] = extend_hull(g, parent[1], x)
        frame[2] = list(_grown(g, parent[1], parent[2], x))


def _best(
    found: dict[int, int], default_size: int, default_mask: int
) -> tuple[int, frozenset[int]]:
    """The largest size found and its set, else the defaults."""
    size = max(found, default=default_size)
    return size, set_from_mask(found.get(size, default_mask))


def caratheodory_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    """Maximum size of a Caratheodory-independent set (pruned search)."""
    if g.n == 0:
        raise GraphError("invariants are undefined for the empty graph")
    k = len(g.triangles)
    cap, exhaustive = _cap(min(k + 1, g.n), max_size)
    tri_vertices = list(iter_bits(g.triangle_vertex_mask))
    found = _lex_search(g, CARATHEODORY, tri_vertices, 2, cap)
    best_size, best_set = _best(found, 1, 1)
    return InvariantResult(best_size, best_set, exhaustive, cap)


def exchange_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    """Maximum size of an exchange-independent set (pruned search)."""
    if g.n == 0:
        raise GraphError("invariants are undefined for the empty graph")
    n = g.n
    k = len(g.triangles)
    cap, exhaustive = _cap(min(k + 2, n), max_size)
    found = _lex_search(g, EXCHANGE, list(range(n)), 3, cap)
    # Every pair is exchange independent.
    best_size, best_set = _best(found, 2, 0b11) if cap >= 2 else (1, frozenset({0}))
    return InvariantResult(best_size, best_set, exhaustive, cap)


def helly_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    """Maximum size of a Helly-independent set.

    Helly independence is hereditary, so the sizes with an independent set
    run from 1 up, and the search is exhaustive once one size has none.
    """
    if g.n == 0:
        raise GraphError("invariants are undefined for the empty graph")
    limit = g.n if max_size is None else max(1, min(g.n, max_size))
    found = _lex_search(g, HELLY, list(range(g.n)), 1, limit)
    best_size, best_set = _best(found, 0, 0)
    if best_size < limit:
        return InvariantResult(best_size, best_set, True, best_size + 1)
    return InvariantResult(best_size, best_set, limit >= g.n, limit)


def _naive_search(
    g: Graph,
    independent: Callable[[Graph, int, list[int]], bool],
    max_size: int | None,
) -> InvariantResult:
    if g.n == 0:
        raise GraphError("invariants are undefined for the empty graph")
    limit = g.n if max_size is None else max(1, min(g.n, max_size))
    best_size, best_set = 0, frozenset()
    for size in range(1, limit + 1):
        for combo in combinations(range(g.n), size):
            if independent(g, vertex_mask(combo), list(combo)):
                best_size, best_set = size, frozenset(combo)
                break
    return InvariantResult(best_size, best_set, limit >= g.n, limit)


def naive_caratheodory_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    return _naive_search(
        g, lambda gr, m, mem: _c_witness(gr, m, mem) is not None, max_size
    )


def naive_exchange_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    return _naive_search(
        g,
        lambda gr, m, mem: len(mem) == 1 or _e_witness(gr, m, mem) is not None,
        max_size,
    )


def naive_helly_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    return _naive_search(g, _h_independent, max_size)


def sierksma_check(g: Graph) -> tuple[bool, tuple[int, int, int]]:
    """Check e - 1 <= c <= max(h, e - 1) on exhaustively computed values."""
    c = caratheodory_number(g)
    e = exchange_number(g)
    h = helly_number(g)
    for r in (c, e, h):
        if not r.exhaustive:
            raise GraphError("cannot certify the inequality from a capped search")
    holds = e.value - 1 <= c.value <= max(h.value, e.value - 1)
    return holds, (c.value, e.value, h.value)


def cara_property_iii_violations(
    g: Graph, s: Iterable[int]
) -> tuple[tuple[int, int], ...]:
    """Pairs u, v of S whose two-point hull meets the hull of S minus both.

    Diagnostic only: the corresponding property of Caratheodory-independent
    sets is not used for pruning, so violations are reported, never fatal.
    """
    members = _members(g, s)
    smask = vertex_mask(members)
    out = []
    for u, v in combinations(members, 2):
        rest = hull_mask(g, smask & ~(1 << u) & ~(1 << v))
        if rest & hull_mask(g, vertex_mask((u, v))):
            out.append((u, v))
    return tuple(out)
