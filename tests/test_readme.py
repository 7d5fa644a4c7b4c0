"""The README's "Library sketch" runs and its comments state true values."""

from pathlib import Path

from deltaconvex import exchange_number

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    return block.split("```", 1)[0].splitlines()


def test_readme_library_sketch_states_its_values():
    namespace: dict = {}
    values = {}
    for line in _sketch():
        code = line.split("#", 1)[0].strip()
        if not code:
            continue
        try:
            values[code] = eval(code, namespace)
        except SyntaxError:  # an import or an assignment
            exec(code, namespace)
    assert values["delta_hull(g, {0, 1})"] == frozenset({0, 1, 3})
    assert values["is_hull_set(g, {0, 1, 2})"] is True
    assert values["caratheodory_number(g)"].value == 3
    verdict = values["is_e_independent(g, {0, 1, 2})"]
    assert verdict.independent and verdict.witness == (2, 3)
    assert values["exchange_number(p.graph).value"] == 4
    assert exchange_number(namespace["g"]).value == 3
