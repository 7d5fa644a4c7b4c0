"""``hull_mask`` agrees with the interval fixpoint on the large closures.

The ``hull-closure`` benchmark workload closes sets on two shapes of large
graph, relabelled at random:

- every edge of ``two_connected_chordal(400, s)`` for s = 0..5, where all
  triangle edges fall into one class and one edge's hull is everything;
- every leave-one-out chain set of ``gadget_c(200)``, whose 199 triangles
  share no edge, so a closure runs up to 199 rounds deep.

The test checks one graph of each shape against the round-by-round
interval fixpoint. Run as a script,

    PYTHONPATH=src python tests/test_hull_shapes.py [--seed S]

checks all of them (the six chordal graphs and four gadget relabellings,
labels drawn from seed S, 0 by default) and exits 1 listing the graphs on
which some hull differs.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Iterator

from deltaconvex.families import gadget_c, two_connected_chordal
from deltaconvex.graphs import Graph
from deltaconvex.hull import hull_mask, interval_mask

CHORDAL_N = 400
GADGET_N = 200


def relabelled(g: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges], g.name), perm


def interval_fixpoint(g: Graph, mask: int) -> int:
    while True:
        grown = interval_mask(g, mask)
        if grown == mask:
            return mask
        mask = grown


def shapes(seed: int, chordal_seeds, gadget_copies: int) -> Iterator[tuple[str, Graph, list[int]]]:
    """(label, relabelled graph, masks to close) for each graph."""
    rng = random.Random(seed)
    for s in chordal_seeds:
        g, _ = relabelled(two_connected_chordal(CHORDAL_N, s).graph, rng)
        yield f"chordal({CHORDAL_N}, {s})", g, [1 << u | 1 << v for u, v in g.edges]
    gadget = gadget_c(GADGET_N).graph
    for k in range(gadget_copies):
        g, perm = relabelled(gadget, rng)
        chain = 0
        for i in range(GADGET_N):
            chain |= 1 << perm[i]
        masks = [chain] + [chain ^ 1 << perm[i] for i in range(GADGET_N)]
        yield f"gadget_c({GADGET_N}) copy {k}", g, masks


def differing(g: Graph, masks: list[int]) -> int:
    """How many of ``masks`` have a hull_mask other than the fixpoint."""
    return sum(hull_mask(g, m) != interval_fixpoint(g, m) for m in masks)


def test_hull_mask_matches_fixpoint_on_one_graph_of_each_shape():
    checked = 0
    for label, g, masks in shapes(0, chordal_seeds=[0], gadget_copies=1):
        assert differing(g, masks) == 0, label
        checked += len(masks)
    assert checked > 1000


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Check hull_mask against the interval fixpoint.")
    parser.add_argument("--seed", type=int, default=0, help="relabelling seed (default 0)")
    args = parser.parse_args()
    bad, total = [], 0
    for label, g, masks in shapes(args.seed, chordal_seeds=range(6), gadget_copies=4):
        total += len(masks)
        if differing(g, masks):
            bad.append(label)
    print(f"{total} hulls checked on 10 graphs, {len(bad)} graphs differ")
    if bad:
        print(f"differing graphs: {bad}", file=sys.stderr)
    sys.exit(1 if bad else 0)
