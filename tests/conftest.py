import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from deltaconvex import Graph


def random_graph_raw(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_subset(rng: random.Random, n: int) -> list[int]:
    return [v for v in range(n) if rng.random() < 0.4]


@pytest.fixture(scope="session")
def small_corpus():
    """Corpus graphs with at most 8 vertices, as (name, Graph) pairs."""
    from deltaconvex.verifier import build_corpus

    corpus = build_corpus(0)
    out = []
    for inst in corpus.universal_instances():
        if inst.graph.n <= 8:
            out.append((inst.graph.name, inst.graph))
    return out
