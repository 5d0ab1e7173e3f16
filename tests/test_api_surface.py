"""Guard against dead API: every public name the package defines is used,
every private one is referenced outside its own definition, and every
name a module imports is referenced there.  Also keeps the
package off ``Fraction`` internals, which differ between the Python
versions it supports, keeps one constructor per type, keeps every
"same group?" check one identity test, keeps every function the
benchmark's tracer wraps in place, keeps the parser's bracket rule
and session settings in one place each, keeps each module off the
private methods of other modules' classes, keeps the import free of
modules that generate code, and declares the Python version the parser
needs."""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hahnaut"


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
        for path in sorted(PACKAGE.glob("*.py"))
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


# Public names that no module of the library but ``__init__.py`` and no
# file of the benchmark uses, each with the reason it stays.
UNUSED_BY_THE_LIBRARY = {
    "construct_theta": "the paper's construction of theta: library API",
    "construct_tau": "the paper's construction of tau: library API",
    "Sampler.nonzero_exponent": "a draw for the tests",
    "Sampler.nonzero_series": "a draw for the tests",
}


def test_public_names_the_library_does_not_use_are_listed():
    qualified = []  # (qualified name, name) per public definition
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                qualified += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified.append((node.name, node.name))
    definitions = Counter(name for _, name in qualified)
    users = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    words = Counter(
        word
        for path in users + sorted((ROOT / "bench").rglob("*.py"))
        for word in re.findall(r"\w+", path.read_text())
    )
    # each definition accounts for one whole-word occurrence of its name
    unused = sorted(
        full
        for full, name in qualified
        if not name.startswith("_") and words[name] <= definitions[name]
    )
    assert unused == sorted(UNUSED_BY_THE_LIBRARY)


def private_definitions(path: Path):
    """Private module-level functions and classes, and private methods,
    each with the lines of its own definition."""
    tree = ast.parse(path.read_text())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [node for node in tree.body if isinstance(node, defs)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            nodes += [item for item in node.body if isinstance(item, defs)]
    for node in nodes:
        if node.name.startswith("_") and not node.name.endswith("__"):
            yield node.name, range(node.lineno, node.end_lineno + 1)


def test_every_private_name_is_referenced_outside_its_definition():
    sources = {
        path: path.read_text().splitlines()
        for top in ("src", "tests", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, own in private_definitions(path):
            word = re.compile(rf"\b{name}\b")
            if not any(
                word.search(line)
                for other, lines in sources.items()
                for number, line in enumerate(lines, 1)
                if not (other == path and number in own)
            ):
                unreferenced.append(f"{path.name}: {name}")
    assert unreferenced == []


def private_methods(tree):
    """The private method names defined in the class bodies of a module,
    dunder names left out."""
    return {
        item.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name.startswith("_")
        and not item.name.endswith("__")
    }


def test_no_module_calls_another_modules_private_method():
    """A module calls ``x._name(...)`` only where one of its own classes
    defines ``_name``; attribute reads are outside this check."""
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    own = {name: private_methods(tree) for name, tree in trees.items()}
    defined = set().union(*own.values())
    calls = []
    for name, tree in sorted(trees.items()):
        foreign = defined - own[name]
        calls += [
            f"{name}:{node.lineno}: {node.func.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in foreign
        ]
    assert calls == []


def imported_names(tree):
    """Names bound by the import statements of a module, except
    ``from __future__`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_imported_name_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package API: __all__ lists them all
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}: {name}" for name in imported_names(tree) if name not in used
        ]
    assert unused == []


FRACTION_INTERNALS = {"_normalize", "_numerator", "_denominator", "_from_coprime_ints"}


def test_no_private_fraction_attribute_is_used():
    used = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used += [
            f"{path.name}:{node.lineno}: {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in FRACTION_INTERNALS
        ]
        used += [
            f"{path.name}:{node.lineno}: {kw.arg}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for kw in node.keywords
            if kw.arg in FRACTION_INTERNALS
        ]
    assert used == []


def test_no_module_builds_around_the_constructor():
    """Each kernel type has one constructor: no module makes an instance
    with ``object.__new__``, around the type's own ``__init__``."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ]
    assert calls == []


def test_no_identity_test_falls_back_to_equality():
    """There is one descriptor per group, so ``A is B`` decides: no check
    backs ``A is not B`` with ``and A != B``, or ``A is B`` with ``or A == B``,
    on the same two operands."""
    pairs = {ast.And: (ast.IsNot, ast.NotEq), ast.Or: (ast.Is, ast.Eq)}
    fallbacks = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.BoolOp):
                continue
            operands = {op: set() for op in pairs[type(node.op)]}
            for test in node.values:
                if (
                    isinstance(test, ast.Compare)
                    and len(test.ops) == 1
                    and type(test.ops[0]) in operands
                ):
                    sides = (test.left, test.comparators[0])
                    operands[type(test.ops[0])].add(frozenset(map(ast.dump, sides)))
            identity, equality = operands.values()
            if identity & equality:
                fallbacks.append(f"{path.name}:{node.lineno}")
    assert fallbacks == []


def test_every_traced_target_resolves():
    """``bench/tracer.py`` wraps each entry of its ``TARGETS``: a module
    function read with ``getattr``, or a method read from its class's own
    ``__dict__``.  A renamed or deleted target fails here, not only in a
    traced benchmark run."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    [targets] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    ]
    missing = []
    for _, _, module, owner, attr in targets:
        mod = importlib.import_module(f"hahnaut.{module}")
        scope = vars(getattr(mod, owner)) if owner else vars(mod)
        if attr not in scope:
            missing.append(".".join(filter(None, (module, owner, attr))))
    assert len(targets) > 40 and missing == []


def test_every_empty_class_is_an_error_type():
    """A class whose body is only a docstring or ``pass`` marks nothing
    that code reads; only an error type may be empty, as its name is what
    callers catch."""
    empty = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"hahnaut.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and all(
                isinstance(item, ast.Pass)
                or (isinstance(item, ast.Expr) and isinstance(item.value, ast.Constant))
                for item in node.body
            ):
                if not issubclass(getattr(module, node.name), BaseException):
                    empty.append(node.name)
    assert empty == []


def parsing_class(name: str) -> ast.ClassDef:
    tree = ast.parse((PACKAGE / "parsing.py").read_text())
    [node] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name]
    return node


BRACKETS = {"(", ")", "[", "]", "{", "}"}


def is_method_call(node, name: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    )


def names_a_bracket(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in BRACKETS


def test_brackets_are_paired_only_by_enclosed():
    """``_Parser.enclosed`` reads every bracket pair.  No other method
    passes a bracket to ``expect`` or advances past one it peeked at,
    except for the exponent's parentheses, which carry their own labels."""
    hand_paired = []
    for method in parsing_class("_Parser").body:
        if not isinstance(method, ast.FunctionDef) or method.name == "enclosed":
            continue
        for node in ast.walk(method):
            if (
                is_method_call(node, "expect")
                and names_a_bracket(node.args[0])
                and not (method.name == "exponent" and len(node.args) == 2)
            ):
                hand_paired.append(f"{method.name}:{node.lineno}")
            if (
                isinstance(node, ast.If)
                and any(map(names_a_bracket, ast.walk(node.test)))
                and any(
                    is_method_call(inner, "advance")
                    for statement in node.body
                    for inner in ast.walk(statement)
                )
            ):
                hand_paired.append(f"{method.name}:{node.lineno}")
    assert hand_paired == []


def test_session_config_holds_only_what_the_parser_reads():
    config = parsing_class("SessionConfig")
    fields = [node.target.id for node in config.body if isinstance(node, ast.AnnAssign)]
    assert fields == ["group", "precision", "notation"]


def test_import_loads_no_code_generating_module():
    """``import hahnaut`` in a fresh interpreter adds neither ``dataclasses``
    nor ``inspect`` (which pulls in ``ast`` and ``dis``) to ``sys.modules``:
    the value types are defined without generating code.  Only the modules
    the import adds are checked, as ``site`` may load others before it."""
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import hahnaut\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    added = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "src")],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    assert "hahnaut.automorphisms" in added
    assert not {"dataclasses", "inspect"} & set(added), added


def test_the_declared_python_version_has_the_digit_limit_the_parser_reads():
    # sys.get_int_max_str_digits came with Python 3.10.7 (and 3.11): before
    # it, every number the parser reads would raise an untyped AttributeError
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["requires-python"] == ">=3.10.7"
