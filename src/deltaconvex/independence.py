"""Caratheodory/exchange/Helly independence tests and invariant searches.

Decision procedures return machine-checkable witnesses: an uncovered hull
element for Caratheodory, a (pivot, uncovered element) pair for exchange.
Ties break to the first pivot in member order and the least element, so
outputs are reproducible. One kernel per kind decides independence from a
list of leave-one-out hulls hull(S - a). The pruned searches call the
kernels on hulls grown incrementally; everything else, the ``naive_*``
searches and the product witnesses included, calls ``is_*_independent``.
The exchange kernel is linear in |S|: it marks the elements that lie in
exactly one of the hulls.

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
* ``max_size`` is the largest size searched, by default the proven cap
  (``_plan``): the component bound B below for c, B + 1 for e, n for h.
  The verifier passes ``max_size=n`` wherever it checks the triangle
  bounds c <= k+1 and e <= k+2 (k triangles), since B is proved by the
  same argument and a cap at B could never let those checks fail;
* open-size rule: a size is open until its first independent set is
  found. A node is made only while its own size is open or it can still
  reach the smallest open size above it with the candidates left, and the
  search ends when the cap size is found. This is the per-size early stop
  of a size-by-size scan, without rescanning prefixes for every size.

Component bound. A triangle component is a class of triangles joined by
shared vertices; C has k_C triangles on the vertex set V_C. Then

    B(G) = max over triangle components C of min(k_C + 1, (|V_C| + 1) // 2),

and B = 1 for a triangle-free graph, bounds the size of every
Caratheodory-independent set, and B + 1 that of every exchange-independent
set. Proof: let |S| >= 2 and let p lie in hull(S) but in no hull(S - a).
Then p is not in S. Take a derivation of p: a DAG whose inner nodes are
vertices added by the closure, each with the two vertices of the triangle
that added it as parents, and whose every node other than p has a child.
Its leaves are exactly S, or else p would lie in hull(S - a) for an unused
a. Its t inner vertices are distinct non-members, each added by its own
triangle, and those triangles chain through shared vertices down to p's,
so they all lie in one component C, which holds S as well. Each inner
vertex has two parents and every node but p has a child, so
|S| + t - 1 <= 2t: |S| <= t + 1 <= k_C + 1. The nodes are distinct
vertices of C, so |S| + t <= |V_C|, and with t >= |S| - 1 that gives
|S| <= (|V_C| + 1) // 2. For exchange with pivot q and |S| >= 3, the
uncovered element of hull(S - q) lies in no hull(S - q - a), a in S - q,
as those lie in the hulls hull(S - a); so S - q is
Caratheodory-independent and |S| <= B + 1. Every pair is exchange
independent, and B >= 1.

Each node carries hull(S) and its leave-one-out hulls. A child S + x gets
its own from its parent's with ``extend_hull``, which grows a closed set
by one vertex; hull(S) itself is the child's leave-one-out hull for x.
A node made only to be expanded gets its hulls when a descendant is first
tested, so a subtree the cuts empty costs none; a node that will not be
expanded computes them one at a time, so a kernel that settles
dependence early skips the rest. Only the nodes within ``_KEEP_LEVELS``
of the deepest one keep their hulls; a node the search returns to below
that rebuilds them, so memory grows linearly with the depth and not as
its square.

Symmetry cut (lex-leader symmetry breaking, Crawford, Ginsberg, Luks and
Roy, KR 1996). An automorphism maps independent sets to independent sets
of the same size, because hulls commute with relabelling. So the first
independent set of each size in ``combinations`` order is the least of
its orbit. Each node P also carries its image under each automorphism
sigma in a sample of the group (``Graph.symmetries``). After the monotone
cuts, a child B = P + x is cut when some sigma(B) comes before B in
``combinations`` order, that is, when the first vertex y where they
differ lies in sigma(B). As B lies at or below x and sigma(B) is as large
as B, y <= x: restricting sigma(B) to the vertices <= x, as the lex-leader
test does, changes nothing. Every set S in the subtree extends B by
vertices above x only, so below y sigma(S) holds all of S, and it holds
y, which S does not: sigma(S) comes before S, and S is not the first of
its size. This holds for any set of automorphisms, so a capped sample is
sound, and it is no theorem of the paper, so the verifier may check every
theorem with these searches. The images are kept in reversed bit order
(vertex v at bit n - 1 - v), where a set comes before another of its size
exactly when its mask is the larger integer, so the test is one ``max``.
Most searches are small, so a search fetches the group only after
``_SYMMETRY_AFTER`` nodes; the frames already on the stack compute their
images when they next make a child. Results never depend on whether or
when the cut is active.

The ``naive_*`` variants bypass every filter, cap, cut and incremental
hull: they test every set of ``combinations`` up to ``max_size`` (n by
default) with ``is_*_independent``, as the oracle side of the pruned
searches. Only their ``exhaustive`` flag follows the pruned rule: true
when the limit reaches the proven cap or, for Helly, a size has no set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, GraphError, iter_bits, lowest_bit, set_from_mask
from .hull import extend_hull, hull_mask

CARATHEODORY = "c"
EXCHANGE = "e"
HELLY = "h"

# A search fetches its graph's automorphisms for the symmetry cut only
# after making this many nodes, so the many small searches never pay for
# the group.
_SYMMETRY_AFTER = 1000
# A frame this many levels below the top of the stack drops its hulls and
# images: a deep search keeps memory linear in its depth.
_KEEP_LEVELS = 32


@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of one independence test.

    ``witness`` is the least uncovered hull element for Caratheodory, the
    least (pivot, uncovered element) pair for exchange, and None for Helly
    (emptiness of the intersection is the certificate) or when dependent.
    """

    independent: bool
    witness: int | tuple[int, int] | None = None


@dataclass(frozen=True)
class InvariantResult:
    """Invariant value with its certifying set.

    ``search_bound_used`` is the largest set size the search considered,
    the cap of ``_plan``, and ``exhaustive`` is False when that cap fell
    below the proven cap, in which case ``value`` is only a lower bound.
    The Helly stop: Helly independence is hereditary, so a Helly value
    below the cap is exact, with ``search_bound_used`` = value + 1.
    """

    value: int
    extremal_set: frozenset[int]
    exhaustive: bool
    search_bound_used: int


def _members(g: Graph, s: Iterable[int]) -> tuple[list[int], int]:
    """The members of a nonempty vertex set S, ascending, and its mask."""
    members = sorted(set(s))
    if not members:
        raise GraphError("independence is undefined for the empty set")
    return members, g.mask(members)


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


def is_c_independent(g: Graph, s: Iterable[int]) -> IndependenceVerdict:
    """Independent iff some hull element escapes every leave-one-out hull."""
    members, smask = _members(g, s)
    p = _c_kernel(hull_mask(g, smask), _loo_hulls(g, smask, members))
    return IndependenceVerdict(p is not None, p)


def is_e_independent(g: Graph, s: Iterable[int]) -> IndependenceVerdict:
    """Independent iff |S| = 1 or some pivot p admits an element of the
    hull of S minus p escaping every other leave-one-out hull."""
    members, smask = _members(g, s)
    if len(members) == 1:
        return IndependenceVerdict(True, None)
    w = _e_kernel(_loo_hulls(g, smask, members))
    w = None if w is None else (members[w[0]], w[1])
    return IndependenceVerdict(w is not None, w)


def is_h_independent(g: Graph, s: Iterable[int]) -> IndependenceVerdict:
    members, smask = _members(g, s)
    return IndependenceVerdict(_h_kernel(_loo_hulls(g, smask, members)), None)


def _lex_search(
    g: Graph,
    kind: str,
    candidates: list[int],
    lo: int,
    cap: int,
    group: Sequence[Sequence[int]] | None = None,
) -> dict[int, int]:
    """Mask of the lexicographically first independent set of each size in
    lo..cap that has one, over subsets of ``candidates`` (ascending).

    Depth-first over prefixes, children in ascending order, so the sets of
    one size are met in ``combinations`` order. The frame of a set of size
    s sits at stack depth s and holds the set, its hull, its leave-one-out
    hulls, its next candidate position, whether it has an internal edge,
    and its images under the symmetry cut's maps. A frame made only to be
    expanded gets its hulls when a descendant is first tested
    (``_fill_hulls``).

    The symmetry cut uses the automorphisms in ``group``, from the first
    node on; by default it fetches ``g.symmetries`` after
    ``_SYMMETRY_AFTER`` nodes. ``group=()`` turns it off. The result is the
    same either way.
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
    if group is None:
        rbits, countdown = None, _SYMMETRY_AFTER
    else:
        rbits, countdown = _reversed_bits(g.n, group), 0
    stack: list[list] = [[0, 0, [], 0, False, None]]
    while stack:
        frame = stack[-1]
        smask, hull_s, subs, i, edge, images = frame
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
        if countdown:
            countdown -= 1
            if not countdown:
                rbits = _reversed_bits(g.n, g.symmetries)
        if rbits:
            # Symmetry cut: the child's images in reversed bit order, the
            # identity's first. A larger image comes first.
            if images is None:
                images = frame[5] = _images(rbits, smask)
            images = [im | b for im, b in zip(images, rbits[x])]
            if max(images) > images[0]:
                continue
        edge = edge or nb != 0
        evaluate = target == size and (helly or edge)
        expand = next_open[size + 1] - size < ncand - i
        if not evaluate:
            if not expand:
                continue
            if not helly:
                # Untested: its hulls wait until a descendant is tested.
                _push(stack, [smask | bit, None, None, i + 1, edge, images])
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
            _push(stack, [smask | bit, child_hull, loo, i + 1, edge, images])
    return found


def _reversed_bits(n: int, group: Sequence[Sequence[int]]) -> list[tuple[int, ...]] | None:
    """Per vertex x, the bit of x's image in reversed order (vertex v at
    bit n - 1 - v) under the identity and under each map of ``group``;
    None for an empty group."""
    if not group:
        return None
    bits = [1 << (n - 1 - v) for v in range(n)]
    return [tuple(map(bits.__getitem__, col)) for col in zip(range(n), *group)]


def _images(rbits: list[tuple[int, ...]], smask: int) -> list[int]:
    """The images of the set ``smask`` in reversed bit order, one per map."""
    images = [0] * len(rbits[0])
    for a in iter_bits(smask):
        images = [im | b for im, b in zip(images, rbits[a])]
    return images


def _push(stack: list[list], child: list) -> None:
    """Push ``child``; the frame that falls ``_KEEP_LEVELS`` below the top
    drops its hulls and images, to be rebuilt if the search returns to it."""
    stack.append(child)
    if len(stack) > _KEEP_LEVELS + 1:
        old = stack[-_KEEP_LEVELS - 1]
        old[1] = old[2] = old[5] = None


def _fill_hulls(g: Graph, stack: list[list]) -> None:
    """Give the top frame its hull and leave-one-out hulls: grown frame by
    frame from the deepest frame at most ``_KEEP_LEVELS`` below that has
    them, or else closed from scratch."""
    k = top = len(stack) - 1
    while stack[k][1] is None and k > top - _KEEP_LEVELS:
        k -= 1
    if stack[k][1] is None:
        k = top
        smask = stack[k][0]
        stack[k][1] = hull_mask(g, smask)
        stack[k][2] = list(_loo_hulls(g, smask, iter_bits(smask)))
    for parent, frame in zip(stack[k:], stack[k + 1:]):
        x = frame[0].bit_length() - 1
        frame[1] = extend_hull(g, parent[1], x)
        frame[2] = list(_grown(g, parent[1], parent[2], x))


def component_bound(g: Graph) -> int:
    """B(G): the largest min(k_C + 1, (|V_C| + 1) // 2) over the triangle
    components C of ``g`` (``Graph.triangle_components``), 1 without
    triangles (module docstring)."""
    return max(
        (min(k + 1, (vs.bit_count() + 1) // 2) for vs, k in g.triangle_components), default=1
    )


def _plan(g: Graph, kind: str, max_size: int | None = None) -> tuple[list[int], int, bool]:
    """(pool, cap, exhaustive) of a ``kind`` search: the triangle vertices
    (c) or all vertices, ascending; max(1, min(max_size, pool size)), or
    the proven cap if ``max_size`` is None; and whether the cap reaches
    the proven cap min(B, n), min(B + 1, n) or n for c, e or h,
    B = ``component_bound(g)`` ("Component bound" above). The proven cap
    is at most max(1, pool size), so B is read only for a cap below it."""
    if g.n == 0:
        raise GraphError("invariants are undefined for the empty graph")
    pool = list(iter_bits(g.triangle_vertex_mask) if kind == CARATHEODORY else range(g.n))
    if max_size is not None and max_size >= len(pool):
        return pool, max(1, len(pool)), True
    proven = g.n if kind == HELLY else min(component_bound(g) + (kind == EXCHANGE), g.n)
    cap = proven if max_size is None else max(1, max_size)
    return pool, cap, cap >= proven


def search_space(g: Graph, kind: str, max_size: int | None = None) -> int:
    """The number of subsets of a ``kind`` search's pool with sizes 1 to
    its cap (``_plan``): the candidate sets it may meet before any cut."""
    pool, cap, _ = _plan(g, kind, max_size)
    if cap >= len(pool):
        return (1 << len(pool)) - 1
    return sum(comb(len(pool), s) for s in range(1, cap + 1))


def _planned_search(g: Graph, kind: str, lo: int, max_size: int | None) -> InvariantResult:
    """The largest set ``_lex_search`` finds over the plan of ``kind`` from
    size ``lo``; as every set below ``lo`` is independent, the first of
    size min(lo - 1, cap) if it finds none. Applies the Helly stop
    (``InvariantResult``)."""
    pool, cap, exhaustive = _plan(g, kind, max_size)
    found = _lex_search(g, kind, pool, lo, cap)
    size = max(found, default=min(lo - 1, cap))
    best = set_from_mask(found.get(size, (1 << size) - 1))
    if kind == HELLY and size < cap:
        exhaustive, cap = True, size + 1
    return InvariantResult(size, best, exhaustive, cap)


def caratheodory_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    """Maximum size of a Caratheodory-independent set (pruned search)."""
    return _planned_search(g, CARATHEODORY, 2, max_size)


def exchange_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    """Maximum size of an exchange-independent set (pruned search)."""
    return _planned_search(g, EXCHANGE, 3, max_size)


def helly_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    """Maximum size of a Helly-independent set (pruned search, with the
    Helly stop of ``InvariantResult``)."""
    return _planned_search(g, HELLY, 1, max_size)


def _naive_search(g: Graph, kind: str, max_size: int | None) -> InvariantResult:
    """Unpruned ``kind`` search up to ``max_size``; ``exhaustive`` by the
    pruned searches' rule (module docstring)."""
    limit = g.n if max_size is None else max(1, min(g.n, max_size))
    tests = {CARATHEODORY: is_c_independent, EXCHANGE: is_e_independent, HELLY: is_h_independent}
    test = tests[kind]
    best_size, best_set = 0, frozenset()
    for size in range(1, limit + 1):
        for combo in combinations(range(g.n), size):
            if test(g, combo).independent:
                best_size, best_set = size, frozenset(combo)
                break
    exhaustive = _plan(g, kind, limit)[2] or (kind == HELLY and best_size < limit)
    return InvariantResult(best_size, best_set, exhaustive, limit)


def naive_caratheodory_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    return _naive_search(g, CARATHEODORY, max_size)


def naive_exchange_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    return _naive_search(g, EXCHANGE, max_size)


def naive_helly_number(g: Graph, max_size: int | None = None) -> InvariantResult:
    return _naive_search(g, HELLY, max_size)


def cara_property_iii_violations(
    g: Graph, s: Iterable[int]
) -> tuple[tuple[int, int], ...]:
    """Pairs u, v of S whose two-point hull meets the hull of S minus both.

    Diagnostic only: the corresponding property of Caratheodory-independent
    sets is not used for pruning, so violations are reported, never fatal.
    """
    members, smask = _members(g, s)
    out = []
    for u, v in combinations(members, 2):
        pair = 1 << u | 1 << v
        if hull_mask(g, smask & ~pair) & hull_mask(g, pair):
            out.append((u, v))
    return tuple(out)
