"""The README's tolerance table against the source, and the one equal-weights
rule at its threshold.

The table (section ``## Tolerances`` of README.md) has one row per named
tolerance and one per inline literal.  Every module-level float constant in
(0, 1e-5] and every function holding a float literal in (0, 1e-5) must have
a row with the same module and value, and every row must still name what is
in the source.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import counting
import pframes.duality
from pframes.duality import canonical_dual, find_transport_dual, zero_centroid_obstruction
from pframes.measures import EQUAL_WEIGHT_TOL, DiscreteMeasure
from pframes.transport import wasserstein2

ROOT = Path(__file__).resolve().parent.parent
SMALL = 1e-5


def table_rows():
    """``(tolerance, module, functions, value)`` for each README table row."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert "\n## Tolerances\n" in text, "README.md has no tolerance table"
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|") or not cells[3][:1].isdigit():
            continue  # prose, header and rule
        names = cells[2].replace(",", " ").split()
        functions = {name.strip("`") for name in names if name.startswith("`")}
        rows.append((cells[0].strip("`"), cells[1].strip("`"), functions, float(cells[3])))
    return rows


def source_tolerances():
    """``(module, name, value)`` for module-level float constants, and
    ``(module, qualified function name, value)`` for float literals inside
    functions, over every module of the package."""
    constants, literals = [], []
    for path in sorted((ROOT / "src" / "pframes").glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                if type(node.value.value) is float:
                    constants += [(module, t.id, node.value.value) for t in node.targets]

        def visit(node, scope, in_function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, scope + [child.name], not isinstance(child, ast.ClassDef))
                    continue
                if in_function and isinstance(child, ast.Constant) and type(child.value) is float:
                    literals.append((module, ".".join(scope), child.value))
                visit(child, scope, in_function)

        visit(tree, [], False)
    return constants, literals


def test_table_is_parsed():
    rows = table_rows()
    assert len(rows) >= 20
    (functions,) = [f for name, module, f, value in rows if name == "FEASIBILITY_TOL"]
    assert ("FEASIBILITY_TOL", "optim", functions, 1e-8) in rows
    assert {"duality.TransportPlan", "duality.certificate_is_valid"} <= functions


def test_every_small_module_constant_has_a_row():
    named = {(module, name): value for name, module, _, value in table_rows() if name != "inline"}
    constants, _ = source_tolerances()
    missing = [
        f"{module}.{name} = {value}"
        for module, name, value in constants
        if 0.0 < value <= SMALL and named.get((module, name)) != value
    ]
    assert not missing, f"constants missing from the README table or with another value: {missing}"


def test_every_function_with_a_small_literal_has_a_row():
    inline = {
        (module, function, value)
        for name, module, functions, value in table_rows()
        if name == "inline"
        for function in functions
    }
    _, literals = source_tolerances()
    missing = sorted(
        f"{module}.{function}: {value}"
        for module, function, value in literals
        if 0.0 < value < SMALL and (module, function, value) not in inline
    )
    assert not missing, f"inline literals missing from the README table: {missing}"


def test_every_row_names_what_is_in_the_source():
    constants, literals = source_tolerances()
    constants = {(module, name): value for module, name, value in constants}
    literals = set(literals)
    stale = []
    for name, module, functions, value in table_rows():
        if name != "inline":
            if constants.get((module, name)) != value:
                stale.append(f"{module}.{name}")
        elif not any((module, function, value) in literals for function in functions):
            stale.append(f"inline {module}.{sorted(functions)}")
    assert not stale, f"README rows with no matching tolerance in the source: {stale}"


# --- the equal-weights rule --------------------------------------------------


@pytest.mark.parametrize("shift, equal", [(5e-13, True), (5e-12, False)], ids=["within", "beyond"])
def test_equal_weights_rule_switches_at_one_threshold(monkeypatch, shift, equal):
    # Uniform weights moved by about `shift`, on either side of
    # EQUAL_WEIGHT_TOL; the constructor renormalises them.
    n = 6
    assert (shift <= EQUAL_WEIGHT_TOL) == equal
    rng = np.random.default_rng(20)
    uniform = np.full(n, 1.0 / n)
    shifted = uniform + shift * np.array([1.0, -1.0, 0.5, -0.5, 0.0, 0.0])
    atoms = rng.normal(size=(n, 2))

    # wasserstein2: the assignment route only for equal weights.
    other = DiscreteMeasure(rng.normal(size=(n, 2)), uniform)
    solution = wasserstein2(DiscreteMeasure(atoms, shifted), other)
    assert (solution.permutation is not None) == equal

    # zero_centroid_obstruction: uniform input only.
    centred = DiscreteMeasure(atoms - atoms.mean(axis=0), shifted)
    if equal:
        assert zero_centroid_obstruction(centred)
    else:
        with pytest.raises(ValueError, match="uniform weights only"):
            zero_centroid_obstruction(centred)

    # find_transport_dual: the diagonal coupling decides an equal-weight
    # pair without an LP; otherwise the pair reaches one solve_lp call.
    mu = DiscreteMeasure(atoms, uniform)
    nu = DiscreteMeasure(canonical_dual(mu).atoms, shifted)
    calls = counting(monkeypatch, pframes.duality, "solve_lp")
    find_transport_dual(mu, nu)
    assert len(calls) == (0 if equal else 1)
