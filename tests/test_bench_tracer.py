"""The benchmark's tracer wraps functions by name; every name must still resolve.

``bench/worker.py`` times each layer by swapping ``(module, attribute)``
pairs from its ``TRACED`` table for timing wrappers. A name the program no
longer has there would fail every traced run, and some of those imports
look unused inside ``cli`` itself, so this pins them.
"""

import ast
from pathlib import Path

import pytest

from groverwild import cli, synthesis

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
MODULES = {"cli": cli, "synthesis": synthesis}


def traced_table() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(WORKER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {WORKER}")


def test_table_is_present():
    table = traced_table()
    assert table
    assert {("cli", "simulate"), ("cli", "circuit_to_json_dict"),
            ("cli", "synthesize_phase_oracle")} <= {(m, a) for m, a, _ in table}


@pytest.mark.parametrize("module, attribute, span", traced_table())
def test_traced_name_resolves(module, attribute, span):
    assert callable(getattr(MODULES[module], attribute))
