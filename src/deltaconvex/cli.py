"""Command line interface.

Subcommands: ``hull`` (closure of a vertex set), ``invariant``
(Caratheodory/exchange/Helly numbers, optionally unpruned), ``generate``
(family instances with prediction sidecars), ``product`` (graph products),
and ``verify`` (the theorem suite). Exit codes: 0 success, 1 failed
verification checks, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .families import (
    FamilyError,
    FamilyInstance,
    block_chain,
    block_tree,
    complete,
    complete_bipartite,
    cycle,
    gadget_c,
    gadget_e,
    path,
    random_graph,
    two_connected_chordal,
)
from .graphs import GraphError, _is_int, graph_to_json, load_graph, save_graph
from .hull import delta_hull, delta_hull_traced
from .independence import (
    caratheodory_number,
    exchange_number,
    helly_number,
    naive_caratheodory_number,
    naive_exchange_number,
    naive_helly_number,
)
from .products import ALIASES, KINDS, product
from .verifier import SUITES, SuiteConfig, run_suite, write_report


def _parse_vertex_set(text: str) -> list[int]:
    items = [part.strip() for part in text.split(",")]
    try:
        return [int(part) for part in items if part]
    except ValueError as exc:
        raise GraphError(f"invalid vertex list {text!r}") from exc


def cmd_hull(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    s = _parse_vertex_set(args.set)
    if args.trace:
        trace = delta_hull_traced(g, s)
        for r in trace.rounds:
            print(" ".join(map(str, sorted(r))))
    else:
        print(" ".join(map(str, sorted(delta_hull(g, s)))))
    return 0


_INVARIANTS = {
    "c": (caratheodory_number, naive_caratheodory_number),
    "e": (exchange_number, naive_exchange_number),
    "h": (helly_number, naive_helly_number),
}


def cmd_invariant(args: argparse.Namespace) -> int:
    if args.max_size is not None and args.max_size < 1:
        raise ValueError(f"--max-size must be at least 1, got {args.max_size}")
    g = load_graph(args.graph)
    pruned, naive = _INVARIANTS[args.which]
    fn = naive if args.naive else pruned
    res = fn(g, args.max_size)
    print(
        json.dumps(
            {
                "value": res.value,
                "extremal_set": sorted(res.extremal_set),
                "exhaustive": res.exhaustive,
            }
        )
    )
    return 0


# family -> (generator, parameter names, whether the seed is passed last);
# each generator refuses parameters over the size limits before it builds
_FAMILIES = {
    "path": (path, ("n",), False),
    "cycle": (cycle, ("n",), False),
    "complete": (complete, ("n",), False),
    "complete_bipartite": (complete_bipartite, ("m", "n"), False),
    "block_chain": (block_chain, ("sizes",), False),
    "block_tree": (block_tree, ("chains",), False),
    "two_connected_chordal": (two_connected_chordal, ("n",), True),
    "gadget_c": (gadget_c, ("n",), False),
    "gadget_e": (gadget_e, ("k",), False),
    "random": (random_graph, ("n", "p"), True),
}


def _is_int_list(x: object) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


# parameter -> (what it must be, check); any other parameter is an integer
_PARAM_TYPES = {
    "p": ("a number from 0 to 1", lambda x: (_is_int(x) or type(x) is float) and 0 <= x <= 1),
    "sizes": ("a list of integers", _is_int_list),
    "chains": ("a list of integer lists", lambda x: isinstance(x, list) and all(map(_is_int_list, x))),
}


def _build_family(family: str, params: object, seed: int) -> FamilyInstance:
    if family not in _FAMILIES:
        raise FamilyError(f"unknown family {family!r}")
    if not isinstance(params, dict):
        raise FamilyError("--params must be a JSON object")
    generator, names, seeded = _FAMILIES[family]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise FamilyError(
            f"family {family!r} takes parameters {list(names)}, not {unknown}"
        )
    args = []
    for name in names:
        if name not in params:
            raise FamilyError(f"family {family!r} is missing parameter {name!r}")
        what, ok = _PARAM_TYPES.get(name, ("an integer", _is_int))
        if not ok(params[name]):
            raise FamilyError(f"parameter {name!r} of family {family!r} must be {what}")
        args.append(params[name])
    if seeded:
        args.append(seed)
    return generator(*args)


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise FamilyError(f"invalid --params JSON: {exc}") from exc
    inst = _build_family(args.family, params, args.seed)
    save_graph(inst.graph, args.output)
    meta = {
        "family": inst.family,
        "params": inst.params,
        "predictions": {
            inv: {
                "relation": pred.relation,
                "value": pred.value,
                "theorem": pred.theorem,
            }
            for inv, pred in sorted(inst.predictions.items())
        },
    }
    base = args.output[:-5] if args.output.endswith(".json") else args.output
    with open(base + ".meta.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n")
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    g = load_graph(args.left)
    h = load_graph(args.right)
    p = product(g, h, args.kind)
    data = json.loads(graph_to_json(p.graph))
    data["kind"] = p.kind
    data["factors"] = [json.loads(graph_to_json(g)), json.loads(graph_to_json(h))]
    data["encoding"] = "(g, h) -> g * |V(H)| + h"
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = SUITES if args.suite == "all" else (args.suite,)
    config = SuiteConfig(
        seed=args.seed, budget=args.budget, suites=suites, jobs=args.jobs
    )
    report = run_suite(config)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            write_report(report, fh)
    else:
        write_report(report, sys.stdout)
    summary = report.summary
    print(
        f"checks: {summary['total']}  pass: {summary['pass']}  "
        f"fail: {summary['fail']}  skipped: {summary['skipped']}  "
        f"hypothesis_unmet: {summary['hypothesis_unmet']}  "
        f"flagged: {summary['flagged']}",
        file=sys.stderr,
    )
    if summary["total"] and summary["total"] == summary["skipped"]:
        print("warning: every check was skipped (budget too small)", file=sys.stderr)
    return 1 if report.failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaconvex",
        description="Triangle-completion convexity toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hull = sub.add_parser("hull", help="convex hull of a vertex set")
    p_hull.add_argument("--graph", required=True, help="graph file (JSON or edge list)")
    p_hull.add_argument("--set", required=True, help="comma-separated vertex indices")
    p_hull.add_argument("--trace", action="store_true", help="print one closure round per line")
    p_hull.set_defaults(func=cmd_hull)

    p_inv = sub.add_parser("invariant", help="Caratheodory / exchange / Helly number")
    p_inv.add_argument("--which", required=True, choices=("c", "e", "h"))
    p_inv.add_argument("--graph", required=True)
    p_inv.add_argument("--max-size", type=int, default=None, dest="max_size",
                       help="largest set size searched (default: the proven cap, B, B + 1 or n)")
    p_inv.add_argument("--naive", action="store_true", help="bypass pruning (oracle mode)")
    p_inv.set_defaults(func=cmd_invariant)

    p_gen = sub.add_parser("generate", help="generate a family instance")
    p_gen.add_argument("family", choices=tuple(_FAMILIES))
    p_gen.add_argument("--params", required=True, help="family parameters as JSON")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_prod = sub.add_parser("product", help="graph product of two graphs")
    p_prod.add_argument("--kind", required=True, choices=KINDS + tuple(ALIASES))
    p_prod.add_argument("left")
    p_prod.add_argument("right")
    p_prod.add_argument("-o", "--output", required=True)
    p_prod.set_defaults(func=cmd_product)

    p_ver = sub.add_parser("verify", help="run the theorem suite")
    p_ver.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--budget", type=int, default=12,
        help="run a search only if it may meet fewer than 2^BUDGET candidate sets, so a "
        "budget of b covers any b-vertex graph; 0 or less skips every check (default 12)",
    )
    p_ver.add_argument("--report", default=None, help="write JSONL report here")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, FamilyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
