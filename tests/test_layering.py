"""The facet record's internals stay inside `polytope`: no other module of
the package imports its private enumeration helpers or reads a `._raw`
attribute, so every consumer reads the public `FacetFrame`."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fanosplit

PRIVATE = frozenset({"_full_raws", "_sorted_raw", "_enumerate_raw"})
MODULES = sorted(p for p in Path(fanosplit.__file__).parent.glob("*.py") if p.name != "polytope.py")


def record_internals(path: Path) -> list[str]:
    """Every import of a PRIVATE name and every read of a PRIVATE or `_raw` attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names if a.name in PRIVATE]
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE | {"_raw"}:
            found.append(f"line {node.lineno}: reads .{node.attr}")
    return found


def test_every_module_is_scanned():
    assert {"verify.py", "equivalence.py", "splitting.py", "analysis.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_record_internals_stay_in_polytope(path):
    assert record_internals(path) == []
