"""Guard against dead API: every public name the package defines is used."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_definitions(path: Path):
    """Public module-level functions and classes, and public methods."""
    tree = ast.parse(path.read_text())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, defs))


def test_every_public_name_is_referenced():
    definitions = Counter(
        name
        for path in sorted((ROOT / "src" / "hahnaut").glob("*.py"))
        for name in public_definitions(path)
        if not name.startswith("_")
    )
    words = Counter(
        word
        for top in ("src", "tests", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text())
    )
    # each definition accounts for one whole-word occurrence of its name
    unreferenced = sorted(
        name for name, count in definitions.items() if words[name] <= count
    )
    assert unreferenced == []
