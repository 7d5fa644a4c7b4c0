import contextlib
import io
import json
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from deltaconvex import graph_from_edges, graph_to_json, save_graph
from deltaconvex.cli import _FAMILIES, main
from deltaconvex.families import gadget_c, path, random_graph
from deltaconvex.graphs import MAX_VERTICES


def _write(tmp_path, name, g):
    p = tmp_path / name
    save_graph(g, str(p))
    return str(p)


def test_hull_command(tmp_path, capsys):
    gpath = _write(tmp_path, "g.json", gadget_c(4).graph)
    assert main(["hull", "--graph", gpath, "--set", "0,1,2,3"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 2 3 4 5 6"


def test_hull_trace(tmp_path, capsys):
    gpath = _write(tmp_path, "g.json", gadget_c(3).graph)
    assert main(["hull", "--graph", gpath, "--set", "0,1,2", "--trace"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == ["0 1 2", "0 1 2 3", "0 1 2 3 4"]


def test_hull_accepts_text_format(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("3\n0 1\n1 2\n0 2\n")
    assert main(["hull", "--graph", str(p), "--set", "0,1"]) == 0
    assert capsys.readouterr().out.strip() == "0 1 2"


def test_invariant_command(tmp_path, capsys):
    gpath = _write(tmp_path, "g.json", gadget_c(3).graph)
    assert main(["invariant", "--which", "c", "--graph", gpath]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"value": 3, "extremal_set": [0, 1, 2], "exhaustive": True}

    assert main(["invariant", "--which", "e", "--graph", gpath, "--naive"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 3

    assert main(["invariant", "--which", "h", "--graph", gpath]) == 0
    assert json.loads(capsys.readouterr().out)["exhaustive"] is True

    assert main(["invariant", "--which", "c", "--graph", gpath, "--max-size", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["exhaustive"] is False and data["value"] == 1


def test_naive_matches_pruned_via_cli(tmp_path, capsys):
    gpath = _write(tmp_path, "g.json", gadget_c(4).graph)
    values = {}
    for mode in ([], ["--naive"]):
        for which in ("c", "e", "h"):
            assert main(["invariant", "--which", which, "--graph", gpath] + mode) == 0
            values[(which, bool(mode))] = json.loads(capsys.readouterr().out)
    for which in ("c", "e", "h"):
        assert values[(which, False)] == values[(which, True)]


def test_generate_command(tmp_path, capsys):
    out = tmp_path / "chain.json"
    rc = main([
        "generate", "block_chain", "--params", '{"sizes": [3, 2, 3]}',
        "-o", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["n"] == 6
    meta = json.loads((tmp_path / "chain.meta.json").read_text())
    assert meta["family"] == "block_chain"
    assert meta["predictions"]["c"] == {
        "relation": "eq", "value": 2, "theorem": "block_c_iii",
    }


def test_generate_seeded(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["generate", "random", "--params", '{"n": 8, "p": 0.4}', "--seed", "7"]
    assert main(args + ["-o", str(out1)]) == 0
    assert main(args + ["-o", str(out2)]) == 0
    assert out1.read_text().split("edges")[1] == out2.read_text().split("edges")[1]


def test_generate_bad_params(tmp_path, capsys):
    rc = main(["generate", "gadget_c", "--params", '{"n": 1}', "-o", str(tmp_path / "x.json")])
    assert rc == 2
    rc = main(["generate", "gadget_c", "--params", "not json", "-o", str(tmp_path / "x.json")])
    assert rc == 2


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


def test_string_vertex_ids_are_usage_error(tmp_path, capsys):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 3, "edges": [["a", "b"], ["b", "c"]]}))
    assert main(["invariant", "--which", "c", "--graph", str(p)]) == 2
    assert "edge" in _single_error_line(capsys)


def test_non_integer_family_parameter_is_usage_error(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["generate", "path", "--params", '{"n": "x"}', "-o", str(out)]) == 2
    assert "'n'" in _single_error_line(capsys)
    assert not out.exists()


def test_non_object_family_parameters_are_usage_error(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["generate", "path", "--params", "[3]", "-o", str(out)]) == 2
    assert "JSON object" in _single_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "name, write, argv",
    [
        ("g.json", lambda n: json.dumps({"n": n, "edges": []}), ["invariant", "--which", "c"]),
        ("g.txt", lambda n: f"{n}\n", ["hull", "--set", "0"]),
    ],
    ids=["json", "text"],
)
def test_huge_vertex_count_is_usage_error(tmp_path, capsys, name, write, argv):
    # edge-free files, so a wrongly accepted n is the only allocation
    p = tmp_path / name
    for n in (10**20, MAX_VERTICES + 1):
        p.write_text(write(n))
        assert main(argv + ["--graph", str(p)]) == 2
        assert "vertex count" in _single_error_line(capsys)


# family -> --params giving a graph of at least ``n`` vertices
_SIZED_PARAMS = {
    "path": lambda n: {"n": n},
    "cycle": lambda n: {"n": n},
    "complete": lambda n: {"n": n},
    "complete_bipartite": lambda n: {"m": n, "n": 1},
    "block_chain": lambda n: {"sizes": [n, 3]},
    "block_tree": lambda n: {"chains": [[3], [n]]},
    "two_connected_chordal": lambda n: {"n": n},
    "gadget_c": lambda n: {"n": n},
    "gadget_e": lambda n: {"k": n},
    "random": lambda n: {"n": n, "p": 0.5},
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_huge_family_is_usage_error(tmp_path, capsys, family):
    out = tmp_path / "f.json"
    for n in (10**20, MAX_VERTICES + 1):
        params = json.dumps(_SIZED_PARAMS[family](n))
        assert main(["generate", family, "--params", params, "-o", str(out)]) == 2
        assert "vertex count" in _single_error_line(capsys)
        assert not out.exists()


def test_product_command(tmp_path):
    a = _write(tmp_path, "a.json", graph_from_edges(2, [(0, 1)], name="P2"))
    b = _write(tmp_path, "b.json", graph_from_edges(2, [(0, 1)], name="Q2"))
    out = tmp_path / "prod.json"
    assert main(["product", "--kind", "strong", a, b, "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4
    assert len(data["edges"]) == 6
    assert data["kind"] == "strong"
    assert [f["name"] for f in data["factors"]] == ["P2", "Q2"]
    assert "encoding" in data


def test_product_over_vertex_limit_is_usage_error(tmp_path, capsys):
    a = _write(tmp_path, "a.json", path(129).graph)
    b = _write(tmp_path, "b.json", path(128).graph)
    out = tmp_path / "prod.json"
    assert main(["product", "--kind", "cartesian", a, b, "-o", str(out)]) == 2
    assert "vertex count 16512 is over the limit" in _single_error_line(capsys)
    assert not out.exists()


def test_product_output_feeds_other_commands(tmp_path, capsys):
    a = _write(tmp_path, "a.json", gadget_c(3).graph)
    b = _write(tmp_path, "b.json", graph_from_edges(2, [(0, 1)], name="P2"))
    out = tmp_path / "prod.json"
    assert main(["product", "--kind", "cartesian", a, b, "-o", str(out)]) == 0
    assert main(["invariant", "--which", "e", "--graph", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 4
    assert main(["hull", "--graph", str(out), "--set", "0,2"]) == 0
    capsys.readouterr()


def test_missing_file_is_usage_error(capsys):
    assert main(["hull", "--graph", "/nonexistent/g.json", "--set", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    report_path = tmp_path / "report.jsonl"
    rc = main([
        "verify", "--suite", "gadgets", "--seed", "0", "--budget", "12",
        "--report", str(report_path),
    ])
    assert rc == 0
    lines = report_path.read_text().strip().split("\n")
    *rows, summary = [json.loads(line) for line in lines]
    assert all(r["status"] == "pass" for r in rows)
    assert summary["summary"]["fail"] == 0
    err = capsys.readouterr().err
    assert "checks:" in err


def test_verify_exit_code_on_failures(tmp_path):
    # the full product suite contains the honest refutation failures
    report_path = tmp_path / "report.jsonl"
    rc = main(["verify", "--suite", "products", "--report", str(report_path)])
    assert rc == 1
    rows = [json.loads(line) for line in report_path.read_text().strip().split("\n")]
    failing = [r for r in rows if r.get("status") == "fail"]
    assert failing and all(r["theorem_id"] == "cart_pn_e_eq" for r in failing)


def test_verify_budget_zero_warns(capsys):
    rc = main(["verify", "--suite", "blocks", "--budget", "0"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "warning" in err


def test_max_size_below_one_is_usage_error(tmp_path, capsys):
    gpath = _write(tmp_path, "g.json", gadget_c(3).graph)
    for bad in ("0", "-3"):
        assert main(["invariant", "--which", "c", "--graph", gpath, "--max-size", bad]) == 2
        assert "--max-size" in _single_error_line(capsys)


def test_jobs_below_one_is_usage_error(capsys):
    assert main(["verify", "--suite", "blocks", "--jobs", "0"]) == 2
    assert "jobs" in _single_error_line(capsys)


def test_unknown_family_parameter_is_usage_error(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert main(["generate", "path", "--params", '{"n": 3, "extra": 1}', "-o", str(out)]) == 2
    assert "'extra'" in _single_error_line(capsys)
    assert not out.exists()


# --- fuzzing ------------------------------------------------------------

_GRAPH_FILES = {
    "gadget.json": graph_to_json(gadget_c(3).graph),
    "dense.json": graph_to_json(random_graph(12, 0.5, 1).graph),
    "sparse.txt": "12\n0 1\n1 2\n0 2\n2 3\n5 6\n",
    "strings.json": json.dumps({"n": 3, "edges": [["a", "b"]]}),
    "loop.json": json.dumps({"n": 3, "edges": [[1, 1]]}),
    "range.json": json.dumps({"n": 2, "edges": [[0, 5]]}),
    "negative.json": json.dumps({"n": -2, "edges": []}),
    "broken.json": '{"n": 3, "edges": [[0, 1]',
    "list.json": "[1, 2]",
    "text.txt": "3\n0 1 2\n",
    "empty.txt": "",
}
_VALID_GRAPHS = ("gadget.json", "dense.json", "sparse.txt")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _GRAPH_FILES.items():
        (root / name).write_text(text)
    return root


_SETS = st.sampled_from(["", "0", "0,1", "0,1,2,3", "0,,x", "a,b", "-1,2", "0,11", "99"])
_PARAMS = st.sampled_from([
    '{"n": 4}', '{"n": 0}', '{"n": -2}', '{"n": "x"}', '{"n": 3, "extra": 1}',
    '{"n": 4.5}', '{"m": 2, "n": 3}', '{"sizes": [3, 2]}', '{"sizes": [3, "a"]}',
    '{"sizes": []}', '{"sizes": [1, -2]}', '{"chains": [[3], [3]]}',
    '{"chains": [3]}', '{"chains": [[]]}', '{"k": 2}', '{"k": 0}',
    '{"n": 8, "p": 0.5}', '{"n": 8, "p": "x"}', '{"n": 8, "p": NaN}',
    "[3]", "null", "not json", "{",
])
_VALUES = st.one_of(
    _SETS,
    _PARAMS,
    st.sampled_from(["c", "e", "h", "x", "1e3"] + sorted(_FAMILIES)),
    st.integers(-20, 12).map(str),
    st.text(max_size=6),
)
_KINDS = st.sampled_from(["cartesian", "strong", "lex", "lexicographic", "box", "tensor", ""])
_SUITES = st.sampled_from(["all", "universal", "blocks", "chordal", "gadgets", "products", "bogus", ""])
_OPTIONS = st.sampled_from([
    "--graph", "--set", "--trace", "--which", "--max-size", "--naive",
    "--params", "--seed", "-o", "--output", "--kind", "--suite", "--budget",
    "--jobs", "--report", "--bogus",
])


@st.composite
def _argv(draw, root):
    command = draw(st.sampled_from(["hull", "invariant", "generate", "product", "verify"]))
    files = st.sampled_from(
        [str(root / name) for name in _GRAPH_FILES] + [str(root / "missing.json"), str(root)]
    )
    noise = st.lists(st.one_of(_OPTIONS, _VALUES, files), max_size=8)
    graphs = st.sampled_from([str(root / name) for name in _VALID_GRAPHS]) | files
    # Noise alone could make a full default verify run; verify always gets
    # a budget of at most 3 and a single job instead.
    if command != "verify" and draw(st.booleans()):
        return [command] + draw(noise)
    # The required options with plausible values, so the commands' own
    # validation runs and not only argparse's.
    number = draw(st.integers(-3, 12).map(str))
    if command == "generate":
        head = [draw(st.sampled_from(sorted(_FAMILIES))), "--params", draw(_PARAMS),
                "-o", str(root / "out.json")]
        optional = [["--seed", number]]
    elif command == "hull":
        head = ["--graph", draw(graphs), "--set", draw(_SETS)]
        optional = [["--trace"]]
    elif command == "invariant":
        head = ["--graph", draw(graphs), "--which", draw(st.sampled_from("ceh"))]
        optional = [["--naive"], ["--max-size", number]]
    elif command == "product":
        head = ["--kind", draw(_KINDS), draw(graphs), draw(graphs), "-o", str(root / "prod.json")]
        optional = [[draw(graphs)]]
    else:
        budget = draw(st.integers(0, 3).map(str) | st.sampled_from(["-1", "x", ""]))
        head = ["--suite", draw(_SUITES), "--budget", budget]
        optional = [["--jobs", draw(st.integers(-2, 1).map(str) | st.just("x"))],
                    ["--seed", number], ["--report", str(root / "report.jsonl")]]
    for tokens in optional:
        if draw(st.booleans()):
            head += tokens
    return [command] + head


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(fuzz_dir, data):
    argv = data.draw(_argv(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # a stray "-o NAME" writes here, not into the checkout
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(cwd)
    # Only verify may report failed checks (exit 1).
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
