"""Rules about the source tree itself rather than its mathematics."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "padicspec"


def _imported_modules(path: pathlib.Path) -> list:
    """The absolute module names that a source file imports (relative imports are padicspec's)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_runtime_imports_only_the_standard_library():
    """Every import in src/padicspec is padicspec itself or a standard-library module."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"padicspec"}
    foreign = [
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_modules(path)
        if name.partition(".")[0] not in allowed
    ]
    assert not foreign
