"""Outside-in tracing: wrap package functions where their callers bind them.

A wrapped function records a span (its duration) and adds that duration
to the enclosing span's child time, so each layer's self time is its
spans' durations minus the time of the wrapped calls they made. The
package source is never edited: ``install`` rebinds module attributes such
as ``independence.hull_mask`` and ``verifier.exchange_number`` and
``uninstall`` restores them.

``hull_mask`` is called millions of times per search, so it gets a lean
wrapper that only counts calls, distinct (graph, mask) pairs and time.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from collections import defaultdict
from time import perf_counter_ns

from deltaconvex import cli, families, hull, independence, products, verifier

SEARCHES = ("caratheodory_number", "exchange_number", "helly_number")
TASKS = ("verify_graph_universal", "verify_family", "verify_products")
FAMILY_GENERATORS = (
    "path", "cycle", "complete", "complete_bipartite", "block_chain", "block_tree",
    "two_connected_chordal", "gadget_c", "gadget_e", "random_graph",
)

# (module, attribute, layer) for every binding the traced run wraps.
BINDINGS = (
    [(hull, name, "hull") for name in ("delta_hull", "is_hull_set", "delta_hull_traced")]
    + [(independence, name, "independence") for name in SEARCHES]
    + [(families, name, "families") for name in FAMILY_GENERATORS]
    + [(families, "Graph", "graphs"), (products, "Graph", "graphs"), (products, "product", "products")]
    + [(verifier, name, "independence") for name in SEARCHES]
    + [
        (verifier, name, "independence")
        for name in ("is_c_independent", "is_e_independent", "cara_property_iii_violations")
    ]
    + [(verifier, "is_hull_set", "hull")]
    + [
        (verifier, name, "products")
        for name in ("product", "cartesian_c_witness", "cartesian_e_witness", "has_edge_vertex_property")
    ]
    + [(verifier, name, "families") for name in FAMILY_GENERATORS]
    + [(verifier, name, "graphs") for name in ("diameter", "is_connected")]
    + [(verifier, name, "verifier") for name in TASKS]
    + [(cli, "run_suite", "verifier"), (cli, "main", "cli")]
)
HULL_BINDINGS = ((independence, "hull_mask"), (hull, "hull_mask"))


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class NullTracer:
    """Stand-in for untimed passes: no wrappers, nothing recorded."""

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def span(self, layer: str, name: str):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()

    def new_scope(self) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self._stack: list[int] = []
        self._paused = [False]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.search_keys: set[tuple[int, str, object]] = set()
        self.hull_stat = [0, 0]  # calls, ns
        self._scope = 0
        self._masks_by_id: dict[int, set[int]] = {}
        self._masks_by_graph: dict[tuple[int, object], set[int]] = {}
        self._keep_alive: list[object] = []
        self._saved: list[tuple[object, str, object]] = []
        self._layer_of: dict[str, str] = {}

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for module, attr, layer in BINDINGS:
            fn = getattr(module, attr)
            name = f"{_short(module)}.{attr}"
            self._saved.append((module, attr, fn))
            self._layer_of[name] = layer
            setattr(module, attr, self._wrap(fn, name, layer))
        for module, attr in HULL_BINDINGS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap_hull(fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def new_scope(self) -> None:
        """Start counting distinct searches and hull masks afresh, as a new
        process would (one scope per in-process CLI invocation)."""
        self._scope += 1
        self._masks_by_id.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (output checks) are neither timed nor counted."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """A span for work the benchmark itself does on a layer's data."""
        self._stack.append(0)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(layer, name, perf_counter_ns() - t0)

    def _close(self, layer: str, name: str, dt: int) -> None:
        child = self._stack.pop()
        self.self_ns[layer] += dt - child
        if self._stack:
            self._stack[-1] += dt
        self.durations[name].append(dt)

    def _wrap(self, fn, name: str, layer: str):
        stack, paused, close = self._stack, self._paused, self._close
        search_keys = self.search_keys if fn.__name__ in SEARCHES else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            if search_keys is not None:
                search_keys.add((self._scope, name, args[0]))
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer, name, perf_counter_ns() - t0)

        return wrapper

    def _mask_set(self, g) -> set[int]:
        masks = self._masks_by_graph.setdefault((self._scope, g), set())
        self._masks_by_id[id(g)] = masks
        self._keep_alive.append(g)  # keeps id(g) from being reused
        return masks

    def _wrap_hull(self, fn):
        stack, paused, stat = self._stack, self._paused, self.hull_stat
        by_id, new_set = self._masks_by_id, self._mask_set

        @functools.wraps(fn)
        def hull_mask(g, mask):
            if paused[0]:
                return fn(g, mask)
            t0 = perf_counter_ns()
            out = fn(g, mask)
            dt = perf_counter_ns() - t0
            stat[0] += 1
            stat[1] += dt
            masks = by_id.get(id(g))
            if masks is None:
                masks = new_set(g)
            masks.add(mask)
            if stack:
                stack[-1] += dt
            return out

        return hull_mask

    # -- reading ---------------------------------------------------------

    def _seconds(self, *names: str) -> float:
        return sum(sum(self.durations.get(n, ())) for n in names) / 1e9

    def _p50_ms(self, *names: str) -> float:
        values = [d for n in names for d in self.durations.get(n, ())]
        return statistics.median(values) / 1e6 if values else 0.0

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced calls; no calls read 0."""
        calls, hull_ns = self.hull_stat
        distinct = sum(len(m) for m in self._masks_by_graph.values())
        indep_total = self._seconds(*(n for n, layer in self._layer_of.items() if layer == "independence"))
        indep_self = self.self_ns["independence"] / 1e9
        verifier_searches = [f"verifier.{n}" for n in SEARCHES]
        return {
            "hull.calls": calls,
            "hull.distinct_masks": distinct,
            "hull.unique_ratio": distinct / calls if calls else 0.0,
            "hull.self_s": (self.self_ns["hull"] + hull_ns) / 1e9,
            "hull.ns_per_call": hull_ns / calls if calls else 0.0,
            "hull.delta_hull_p50_ms": self._p50_ms("hull.delta_hull"),
            "hull.is_hull_set_p50_ms": self._p50_ms("hull.is_hull_set", "verifier.is_hull_set"),
            "hull.traced_p50_ms": self._p50_ms("hull.delta_hull_traced"),
            "independence.self_s": indep_self,
            "independence.hull_share": (indep_total - indep_self) / indep_total if indep_total else 0.0,
            "verifier.searches": sum(len(self.durations.get(n, ())) for n in verifier_searches),
            "verifier.distinct_searches": sum(1 for _, name, _ in self.search_keys if name in verifier_searches),
            "verifier.search_s": self._seconds(*verifier_searches),
            "verifier.self_s": self.self_ns["verifier"] / 1e9,
            "verifier.run_suite_s": self._seconds("cli.run_suite"),
            "cli.self_s": self.self_ns["cli"] / 1e9,
            "families.generate_s": self._seconds(
                *(f"{m}.{n}" for m in ("families", "verifier") for n in FAMILY_GENERATORS)
            ),
            "graphs.build_s": self._seconds("families.Graph", "products.Graph", "graphs.build"),
            "products.build_s": self._seconds("products.product", "verifier.product"),
        }


@contextlib.contextmanager
def timed_calls(*targets: tuple[object, str]):
    """Record each call's duration for ``(module, attr)`` targets, nothing
    else: {"module.attr": [seconds, ...]}."""
    seconds: dict[str, list[float]] = {}
    saved = []
    for module, attr in targets:
        fn = getattr(module, attr)
        record = seconds.setdefault(f"{_short(module)}.{attr}", [])
        saved.append((module, attr, fn))

        def wrapper(*args, _fn=fn, _record=record, **kwargs):
            t0 = perf_counter_ns()
            try:
                return _fn(*args, **kwargs)
            finally:
                _record.append((perf_counter_ns() - t0) / 1e9)

        setattr(module, attr, functools.wraps(fn)(wrapper))
    try:
        yield seconds
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
