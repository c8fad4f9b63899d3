"""The facet record's internals and the vertex store's rule stay inside
`polytope`: no other module of the package imports its private enumeration
helpers or reads a `._raw` or `._exact` attribute, so every consumer reads
the public `FacetFrame` and a polytope's `_array` / `_abs_max`.  The integer
rule stays inside `linalg`: `operator.index` is called by `linalg._ints`
alone, so the rule cannot fork again."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fanosplit

PRIVATE = frozenset({"_full_raws", "_sorted_raw", "_enumerate_raw"})
ATTRIBUTES = PRIVATE | {"_raw", "_exact"}
MODULES = sorted(p for p in Path(fanosplit.__file__).parent.glob("*.py") if p.name != "polytope.py")


def record_internals(path: Path) -> list[str]:
    """Every import of a PRIVATE name and every read of an ATTRIBUTES attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names if a.name in PRIVATE]
        elif isinstance(node, ast.Attribute) and node.attr in ATTRIBUTES:
            found.append(f"line {node.lineno}: reads .{node.attr}")
    return found


def test_every_module_is_scanned():
    assert {"verify.py", "equivalence.py", "splitting.py", "analysis.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_record_internals_stay_in_polytope(path):
    assert record_internals(path) == []


def test_store_reads_are_refused(tmp_path):
    path = tmp_path / "consumer.py"
    path.write_text("def f(p):\n    a, hi = p._exact\n    return p._array, p._abs_max\n")
    assert record_internals(path) == ["line 2: reads ._exact"]


def index_calls(path: Path) -> list[str]:
    """Every use of `operator.index` (or an import of `index` from
    `operator`), with the function it is in."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "index"
                    and isinstance(child.value, ast.Name) and child.value.id == "operator"
                    or isinstance(child, ast.ImportFrom) and child.module == "operator"
                    and any(a.name == "index" for a in child.names)):
                found.append(f"line {child.lineno}: operator.index in {function}")
            visit(child, function)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def test_operator_index_is_called_in_linalg_only():
    package = Path(fanosplit.__file__).parent
    calls = {p.name: index_calls(p) for p in sorted(package.glob("*.py"))}
    assert {"linalg.py", "polytope.py", "generators.py"} <= calls.keys()
    assert [c.split(": ")[1] for c in calls.pop("linalg.py")] == ["operator.index in _ints"]
    assert all(found == [] for found in calls.values()), calls


def test_index_calls_are_found(tmp_path):
    path = tmp_path / "consumer.py"
    path.write_text("import operator\nfrom operator import index\n\n\n"
                    "def f(x):\n    return operator.index(x)\n")
    assert index_calls(path) == ["line 2: operator.index in <module>",
                                 "line 6: operator.index in f"]
