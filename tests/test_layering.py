"""The facet record's internals and the vertex store's rule stay inside
`polytope`: no other module of the package imports its private enumeration
helpers or reads a `._raw` or `._exact` attribute, so every consumer reads
the public `FacetFrame` and a polytope's `_array` / `_abs_max`."""

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
