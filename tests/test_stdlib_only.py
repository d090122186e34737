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
