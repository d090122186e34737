"""The runtime stays stdlib-only: every import in src/symfa names a module
of the running Python's standard library, or symfa itself, and none is
dataclasses or typing."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "symfa"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # relative imports (level > 0) stay inside the package
            yield node.lineno, "symfa" if node.level else node.module.split(".")[0]


def test_every_src_import_is_stdlib_or_symfa():
    modules = sorted(SRC.glob("*.py"))
    assert modules, f"no modules under {SRC}"
    foreign = [
        f"{path.name}:{line}: {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root != "symfa" and root not in sys.stdlib_module_names
    ]
    assert not foreign, f"non-stdlib imports: {foreign}"


def test_no_src_module_imports_dataclasses_or_typing():
    """The value classes are plain __slots__ classes: importing dataclasses
    (with inspect) or typing would only add start-up time to every call."""
    found = [
        f"{path.name}:{line}: {root}"
        for path in sorted(SRC.glob("*.py"))
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root in ("dataclasses", "typing")
    ]
    assert not found, found


def test_the_check_sees_a_foreign_import():
    tree = ast.parse(
        "import os\nfrom . import sfa\nfrom numpy.linalg import norm\nfrom typing import ClassVar\n"
    )
    roots = [root for _, root in _imported_roots(tree)]
    assert roots == ["os", "symfa", "numpy", "typing"]
    assert "numpy" not in sys.stdlib_module_names


def _layering_faults(name, tree):
    """Relative imports in module name that break the layering: a private
    name taken from a module other than predicates (the value base) or
    sfa (the one reading of a state and what constructions share), and
    anything transforms takes from operations."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                module = node.module or alias.name
                private = alias.name.startswith("_") and module not in ("predicates", "sfa")
                if private or (name == "transforms" and module == "operations"):
                    yield f"{name}.py:{node.lineno}: {module}.{alias.name}"


def test_private_names_come_only_from_predicates_and_sfa():
    found = [
        fault
        for path in sorted(SRC.glob("*.py"))
        for fault in _layering_faults(path.stem, ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_the_layering_check_sees_a_fault():
    tree = ast.parse(
        "from .sfa import _Side\nfrom .operations import _Side\nfrom . import operations\n"
        "from .operations import product\n"
    )
    assert list(_layering_faults("transforms", tree)) == [
        "transforms.py:2: operations._Side",
        "transforms.py:3: operations.operations",
        "transforms.py:4: operations.product",
    ]
    assert list(_layering_faults("cli", tree)) == ["cli.py:2: operations._Side"]
