"""The component bound caps the c and e searches without changing a result.

``caratheodory_number`` and ``exchange_number`` stop at sizes min(B, n)
and min(B + 1, n), B being ``independence.component_bound`` (proved in the
``independence`` docstring). The tests compare the capped search, the
search to size n (``max_size=n``, capped at its candidate count) and the
unpruned ``naive_*`` search, which must give the same (value,
extremal_set, exhaustive): on every graph of the networkx atlas (all
graphs on at most 7 vertices, up to isomorphism), on small Cartesian,
strong and lexicographic products, and, as bounds, on the seed-0 verify
corpus. Below n, the pruned and naive c, e and h searches must agree at
every ``max_size``, the ``exhaustive`` flag included. Labels matter, since
the extremal set is the first one in ``combinations`` order. Run as a
script,

    PYTHONPATH=src python tests/test_size_bound.py [--n N]

checks both on every labelled graph on N vertices (6 by default: 32,768
graphs) and exits 1 listing the edge lists on which the searches differ.
"""

from __future__ import annotations

import argparse
import sys
from itertools import combinations

import pytest

from deltaconvex.families import complete, cycle, path
from deltaconvex.graphs import Graph
from deltaconvex.independence import (
    caratheodory_number,
    component_bound,
    exchange_number,
    helly_number,
    naive_caratheodory_number,
    naive_exchange_number,
    naive_helly_number,
)
from deltaconvex.products import product
from deltaconvex.verifier import build_corpus

SEARCHES = (
    ("c", caratheodory_number, naive_caratheodory_number),
    ("e", exchange_number, naive_exchange_number),
)
HELLY = ("h", helly_number, naive_helly_number)


def differing(g: Graph) -> list[str]:
    """The invariants whose default-cap, to-n and naive searches disagree."""
    out = []
    for inv, pruned, naive in SEARCHES:
        results = {
            (r.value, r.extremal_set, r.exhaustive)
            for r in (pruned(g), pruned(g, max_size=g.n), naive(g))
        }
        if len(results) != 1:
            out.append(inv)
    return out


def differing_below_n(g: Graph) -> list[tuple[str, int]]:
    """The (invariant, max_size) pairs, max_size 1 to n - 1, at which the
    pruned and naive searches report a different (value, extremal_set,
    exhaustive)."""
    out = []
    for inv, pruned, naive in SEARCHES + (HELLY,):
        for k in range(1, g.n):
            a, b = pruned(g, k), naive(g, k)
            if (a.value, a.extremal_set, a.exhaustive) != (b.value, b.extremal_set, b.exhaustive):
                out.append((inv, k))
    return out


def test_capped_uncapped_and_naive_agree_on_the_atlas():
    atlas = pytest.importorskip("networkx.generators.atlas")
    checked = 0
    for nxg in atlas.graph_atlas_g():
        if nxg.number_of_nodes() == 0:
            continue
        g = Graph(nxg.number_of_nodes(), nxg.edges(), f"atlas {checked}")
        assert differing(g) == [], sorted(g.edges)
        checked += 1
    assert checked == 1252


def test_capped_uncapped_and_naive_agree_on_small_products():
    factors = [path(2).graph, path(3).graph, complete(3).graph, cycle(4).graph]
    checked = 0
    for kind in ("cartesian", "strong", "lexicographic"):
        for left in factors:
            for right in factors:
                pg = product(left, right, kind).graph
                if pg.n > 9:
                    continue
                assert differing(pg) == [], pg.name
                checked += 1
    assert checked == 33


def test_uncapped_values_on_the_verify_corpus_stay_within_the_bound():
    for inst in build_corpus(0).universal_instances():
        g = inst.graph
        bound = component_bound(g)
        assert bound <= len(g.triangles) + 1, inst.name
        assert caratheodory_number(g, max_size=g.n).value <= bound, inst.name
        assert exchange_number(g, max_size=g.n).value <= bound + 1, inst.name


def test_component_bound_takes_the_best_component():
    # Two triangles sharing vertex 2 (k_C = 2, |V_C| = 5) and a disjoint
    # triangle: B = max(min(3, 3), min(2, 2)) = 3.
    g = Graph(8, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7)])
    assert component_bound(g) == 3
    assert component_bound(path(5).graph) == 1
    # K4: four triangles on four vertices, B = min(5, 2) = 2 = c(K4).
    assert component_bound(complete(4).graph) == 2


def test_pruned_and_naive_agree_below_n_on_labelled_5_vertex_graphs():
    checked = 0
    for g in labelled_graphs(5):
        assert differing_below_n(g) == [], sorted(g.edges)
        checked += 1
    assert checked == 1024


def labelled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Compare pruned and naive c/e/h searches on every labelled graph."
    )
    parser.add_argument("--n", type=int, default=6, help="vertex count (default 6)")
    args = parser.parse_args()
    bad, total = [], 0
    for g in labelled_graphs(args.n):
        total += 1
        if differing(g) or differing_below_n(g):
            bad.append(list(g.edges))
    print(f"{total} labelled graphs on {args.n} vertices checked, {len(bad)} differ")
    if bad:
        print(f"differing graphs: {bad[:20]}", file=sys.stderr)
    sys.exit(1 if bad else 0)
