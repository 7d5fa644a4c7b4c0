"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each criterion prints a [PASS]/[FAIL] line (run with ``pytest -s`` to see
them live).

Two criteria were specified with values that the definitions refute, and
now assert the proven values instead:

* criterion 5 stated (c, e) = (2, 3) for block_tree([[3], [3]]) and (3, 4)
  for block_tree([[3, 3], [3]]). Two legs meeting at the root form one
  chain of blocks, so the true values are the single-chain (3, 3) and
  (4, 4);
* criterion 8 stated e(gadget_c(3) box Pn) = e(G) = 3 for n = 2, 3. A
  C-extremal set of G in one path layer plus the vertical neighbour of its
  least vertex is exchange independent, so e = c(G) + 1 = 4.

Each corrected value is asserted together with its certificate: the
pruned search equals the unpruned ``naive_*`` search in value and
extremal set, the extremal set (and, for criterion 8, the layer witness)
is independent under the literal definitions in ``oracles``, and the full
oracle invariant agrees wherever it runs in under a second. The refuted
stated values are printed as ``[record]`` lines. The verifier still
reports the refuted equality as failing ``cart_pn_e_eq`` rows.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import oracles
from deltaconvex import (
    caratheodory_number,
    delta_hull,
    exchange_number,
    helly_number,
    is_c_independent,
    is_delta_convex,
    is_e_independent,
    is_hull_set,
    naive_caratheodory_number,
    naive_exchange_number,
    naive_helly_number,
    product,
    cartesian_c_witness,
    cartesian_e_witness,
)
from deltaconvex.families import (
    block_chain,
    block_tree,
    complete,
    complete_bipartite,
    cycle,
    gadget_c,
    gadget_e,
    path,
)
from deltaconvex.verifier import chordal_corpus, random_corpus
from conftest import random_graph_raw, random_subset


@contextmanager
def criterion(num, label, limit):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num:2d}: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, limit {limit}s"
    print(f"[PASS] criterion {num:2d}: {label} ({elapsed:.2f}s)")


def test_criterion_01_triangle_free_corpus():
    with criterion(1, "triangle-free corpus has c=1, e=2", 1.0):
        corpus = [path(n) for n in range(2, 9)]
        corpus += [cycle(n) for n in range(4, 9)]
        corpus += [complete_bipartite(2, 3), complete_bipartite(3, 3)]
        for inst in corpus:
            c = caratheodory_number(inst.graph)
            e = exchange_number(inst.graph)
            assert c.exhaustive and e.exhaustive
            assert c.value == 1, inst.name
            assert e.value == 2, inst.name


def test_criterion_02_complete_graphs():
    with criterion(2, "complete graphs K3..K7 have c=2, e=2", 5.0):
        for n in range(3, 8):
            g = complete(n).graph
            c = caratheodory_number(g)
            e = exchange_number(g)
            assert c.exhaustive and e.exhaustive
            assert c.value == 2, f"K{n}"
            assert e.value == 2, f"K{n}"


def test_criterion_03_universal_bounds_on_random_graphs():
    with criterion(3, "universal bounds on 30 seeded random graphs", 60.0):
        instances = random_corpus(seed=0, count=30)
        assert len(instances) == 30
        for inst in instances:
            g = inst.graph
            assert g.n <= 10
            k = len(g.triangles)
            # to size n: the default cap, the component bound, is at most k + 1
            c = caratheodory_number(g, max_size=g.n)
            e = exchange_number(g, max_size=g.n)
            h = helly_number(g)
            assert c.exhaustive and e.exhaustive and h.exhaustive
            assert c.value <= k + 1, inst.name
            assert e.value <= k + 2, inst.name
            assert e.value - 1 <= c.value <= max(h.value, e.value - 1), inst.name


def test_criterion_04_gadget_exactness():
    with criterion(4, "gadget reconstructions attain their exact values", 60.0):
        for n in (3, 4, 5):
            # construction would raise ReconstructionError on any failed
            # hull identity; surface that loudly as a discrepancy
            try:
                inst = gadget_c(n)
            except Exception as exc:
                raise AssertionError(
                    f"gadget_c({n}) reconstruction discrepancy: {exc}"
                ) from exc
            g = inst.graph
            # the defining leave-one-out hull identities, verbatim
            chain = set(range(n))
            assert delta_hull(g, chain) == frozenset(range(2 * n - 1))
            assert delta_hull(g, chain - {0}) == frozenset(range(1, n))
            assert delta_hull(g, chain - {1}) == frozenset({0}) | frozenset(range(2, n))
            for i in range(3, n):
                assert delta_hull(g, chain - {i - 1}) == (
                    frozenset(chain - {i - 1}) | frozenset(range(n, n + i - 2))
                )
            assert delta_hull(g, chain - {n - 1}) == (
                frozenset(range(n - 1)) | frozenset(range(n, 2 * n - 2))
            )
            assert caratheodory_number(g).value == n, f"gadget_c({n})"
            assert exchange_number(g).value == n, f"gadget_c({n})"
        for k in (1, 2, 3):
            try:
                inst = gadget_e(k)
            except Exception as exc:
                raise AssertionError(
                    f"gadget_e({k}) reconstruction discrepancy: {exc}"
                ) from exc
            assert exchange_number(inst.graph).value == k + 2, f"gadget_e({k})"


def test_criterion_05_block_graph_theorems():
    with criterion(5, "block chains and trees: c, e match naive search and oracle", 120.0):
        # Two legs meeting at the root form one chain of blocks, so the
        # two-leg trees take the single-chain value c = e = blocks + 1.
        expected = [
            (block_chain([3, 3, 3]), 4, 4),
            (block_chain([3, 2, 3, 3]), 3, 4),
            (block_tree([[3, 3], [3]]), 4, 4),
            (block_tree([[3], [3]]), 3, 3),
            (block_tree([[3], [3], [3]]), 3, 4),
        ]
        found = {}
        for inst, want_c, want_e in expected:
            g = inst.graph
            assert g.n <= 8
            adj = oracles.adjacency(g.n, g.edges)
            c = caratheodory_number(g)
            e = exchange_number(g)
            assert c.exhaustive and e.exhaustive
            assert (c.value, e.value) == (want_c, want_e), inst.name
            for pruned, naive, which in (
                (c, naive_caratheodory_number(g), "c"),
                (e, naive_exchange_number(g), "e"),
            ):
                assert (naive.value, naive.extremal_set) == (
                    pruned.value,
                    pruned.extremal_set,
                ), (inst.name, which)
                assert oracles.invariant(g.n, g.edges, which) == pruned.value, (
                    inst.name,
                    which,
                )
            assert oracles.c_independent(adj, c.extremal_set), inst.name
            assert oracles.e_independent(adj, e.extremal_set), inst.name
            found[inst.name] = (c.value, e.value)
        for legs, sizes in (([[3, 3], [3]], [3, 3, 3]), ([[3], [3]], [3, 3])):
            tree = block_tree(legs).graph
            chain = block_chain(sizes).graph
            assert found[tree.name] == (
                caratheodory_number(chain).value,
                exchange_number(chain).value,
            ), tree.name
        for name, stated in (
            ("block_tree[[3,3],[3]]", (3, 4)),
            ("block_tree[[3],[3]]", (2, 3)),
        ):
            print(
                f"  [record] {name}: stated (c, e) = {stated} refuted, "
                f"exhaustive search gives {found[name]}"
            )


def test_criterion_06_two_connected_chordal_corpus():
    with criterion(6, "2-connected chordal corpus: hull pairs, c=2, e in {2,3}", 60.0):
        instances = chordal_corpus(seed=0, count=10)
        assert len(instances) == 10
        for inst in instances:
            g = inst.graph
            assert g.n <= 10
            for u, v in g.edges:
                assert is_hull_set(g, (u, v)), f"{inst.name}: pair ({u}, {v})"
            c = caratheodory_number(g)
            e = exchange_number(g)
            assert c.exhaustive and e.exhaustive
            assert c.value == 2, inst.name
            assert e.value in (2, 3), inst.name


def test_criterion_07_cartesian_witnesses():
    with criterion(7, "Cartesian lower-bound witnesses verify (25 vertices)", 30.0):
        gc3 = gadget_c(3).graph
        p = product(gc3, gc3, "cartesian")
        e = exchange_number(gc3)
        w_e = cartesian_e_witness(gc3, e.extremal_set, gc3, e.extremal_set)
        assert len(w_e) == 5
        assert is_e_independent(p.graph, w_e).independent
        c = caratheodory_number(gc3)
        w_c = cartesian_c_witness(gc3, c.extremal_set, gc3, c.extremal_set)
        assert len(w_c) == 9
        assert is_c_independent(p.graph, w_c).independent


def test_criterion_08_path_product_exchange_equalities():
    with criterion(8, "path products: e(gc3 box Pn) = c(G) + 1, e(ge2 box P2) = e(G)", 120.0):
        gc3 = gadget_c(3).graph
        c_g = caratheodory_number(gc3)
        assert (c_g.value, exchange_number(gc3).value) == (3, 3)
        for n in (2, 3):
            p = product(gc3, path(n).graph, "cartesian")
            pg = p.graph
            adj = oracles.adjacency(pg.n, pg.edges)
            e = exchange_number(pg)
            assert e.exhaustive
            # the stated e(G box Pn) = e(G) = 3 is refuted: e = c(G) + 1
            assert e.value == 4 == c_g.value + 1, pg.name
            naive = naive_exchange_number(pg)
            assert (naive.value, naive.extremal_set) == (e.value, e.extremal_set), pg.name
            assert oracles.e_independent(adj, e.extremal_set), pg.name
            if n == 2:
                assert oracles.invariant(pg.n, pg.edges, "e") == 4, pg.name
            # a C-extremal set of G in path layer 0, plus the layer-1 copy
            # of its least vertex
            least = min(c_g.extremal_set)
            witness = {p.encode(v, 0) for v in c_g.extremal_set}
            witness.add(p.encode(least, 1))
            assert len(witness) == c_g.value + 1
            assert is_e_independent(pg, witness).independent, pg.name
            assert oracles.e_independent(adj, witness), pg.name
            print(
                f"  [record] e({pg.name}) stated 3 = e(G) refuted: "
                f"e = 4 via {sorted(witness)}"
            )
        # where e(G) > c(G) the equality is not contradicted, and holds
        ge2 = gadget_e(2).graph
        c_g = naive_caratheodory_number(ge2)
        e_g = naive_exchange_number(ge2)
        assert (c_g.value, e_g.value) == (3, 4)
        assert (caratheodory_number(ge2).value, exchange_number(ge2).value) == (3, 4)
        pg = product(ge2, path(2).graph, "cartesian").graph
        e = exchange_number(pg)
        naive = naive_exchange_number(pg)
        assert e.exhaustive
        assert e.value == e_g.value == 4, pg.name
        assert (naive.value, naive.extremal_set) == (e.value, e.extremal_set), pg.name
        assert oracles.e_independent(oracles.adjacency(pg.n, pg.edges), e.extremal_set)


def test_criterion_09_strong_product():
    with criterion(9, "strong product P4xP2: e=3, c=2 (plus diameter-2 probe)", 30.0):
        pg = product(path(4).graph, path(2).graph, "strong").graph
        e = exchange_number(pg)
        c = caratheodory_number(pg)
        assert e.exhaustive and e.value == 3
        assert c.exhaustive and c.value == 2
        # recorded without assertion: probes the diameter-two reading
        probe = exchange_number(product(path(3).graph, path(2).graph, "strong").graph)
        print(f"  [record] e(P3 strong P2) = {probe.value} (diameter-2 hypothesis probe)")


def test_criterion_10_lexicographic_split():
    with criterion(10, "lexicographic split: e = 3/2/3 and c = 2", 120.0):
        cases = [
            (complete(3).graph, path(4).graph, 3),
            (complete(3).graph, complete(3).graph, 2),
            (path(3).graph, complete(3).graph, 3),
        ]
        for g, h, want_e in cases:
            pg = product(g, h, "lexicographic").graph
            e = exchange_number(pg)
            c = caratheodory_number(pg)
            assert e.exhaustive and e.value == want_e, pg.name
            assert c.exhaustive and c.value == 2, pg.name


def test_criterion_11_oracle_equivalence(small_corpus):
    with criterion(11, "pruned search equals naive search on the small corpus", 300.0):
        assert len(small_corpus) >= 20
        for name, g in small_corpus:
            assert g.n <= 8
            for pruned, naive in (
                (caratheodory_number, naive_caratheodory_number),
                (exchange_number, naive_exchange_number),
                (helly_number, naive_helly_number),
            ):
                a = pruned(g)
                b = naive(g)
                assert a.value == b.value, (name, pruned.__name__)
                assert a.extremal_set == b.extremal_set, (name, pruned.__name__)


def test_criterion_12_hull_property_samples():
    with criterion(12, "hull properties over 200 seeded samples", 60.0):
        rng = random.Random(12)
        violations = []
        for i in range(200):
            n = rng.randint(2, 10)
            p = rng.choice([0.0, 0.2, 0.4, 0.6])
            g = random_graph_raw(rng, n, p)
            s = frozenset(random_subset(rng, n))
            extra = frozenset(random_subset(rng, n))
            t = s | extra
            hull_s = delta_hull(g, s)
            if not s <= hull_s:
                violations.append((i, "extensivity"))
            if not hull_s <= delta_hull(g, t):
                violations.append((i, "monotonicity"))
            if delta_hull(g, hull_s) != hull_s:
                violations.append((i, "idempotence"))
            if not is_delta_convex(g, hull_s & delta_hull(g, extra)):
                violations.append((i, "intersection closure"))
            if not g.triangles and hull_s != s:
                violations.append((i, "triangle-free inertness"))
        assert violations == []
