"""Rules about the source tree itself rather than its mathematics."""

import ast
import os
import pathlib
import subprocess
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


def test_no_dataclasses_in_the_runtime():
    """Value types are __slots__ classes and records are NamedTuples.

    Importing dataclasses loads inspect, ast, dis and tokenize, and each
    dataclass execs the methods it generates, all inside the start-up of
    every padicspec process.
    """
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in {name.partition(".")[0] for name in _imported_modules(path)}
    ]
    assert not found


def test_argparse_loads_only_for_an_argv_the_flag_table_declines():
    """A fresh `import padicspec.cli` loads no dataclasses, inspect or argparse.

    An argv read from the flag table keeps argparse out; --help, which
    only argparse answers, brings it in.
    """
    script = (
        "import io, sys\n"
        "before = set(sys.modules)\n"
        "from padicspec.cli import run_command\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "run_command(['lift', '--p', '5', '--m', '3', '--residue', '2'], io.StringIO())\n"
        "print(*sorted(set(sys.modules) - before))\n"
        "run_command(['--help'], io.StringIO())\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, after_table, after_help = (set(line.split()) for line in proc.stdout.splitlines())
    assert "padicspec.cli" in imported
    heavy = {"dataclasses", "inspect", "argparse"}
    assert not heavy & imported
    assert not heavy & after_table
    assert "argparse" in after_help


def _literal_text(node) -> str:
    """The text of a str or f-string literal, placeholders dropped; "" for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_literal_text(part) for part in node.values)
    return ""


def test_runtime_errors_are_named_internal_defects():
    """Every raise RuntimeError(...) in src/padicspec names itself an internal defect.

    The CLI reports any exception that escapes a command as kind
    "internal" with str(exc) as its reason; the wording marks the
    library's self-checks among them.
    """
    sites, unnamed = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "RuntimeError"):
                continue
            sites += 1
            if not (call.args and "(internal defect)" in _literal_text(call.args[0])):
                unnamed.append(f"{path.name}:{node.lineno}")
    assert sites
    assert not unnamed


def test_mutant_table_matches_the_source():
    """Every old text of tests/mutants.py occurs exactly once under src/padicspec, in its file.

    Each of its node ids names a test function that exists, so the
    table cannot rot silently when code or tests move.
    """
    from mutants import MUTANTS

    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    root = PACKAGE.parents[1]
    assert MUTANTS
    for filename, old, new, nodes in MUTANTS:
        assert old != new
        assert sum(text.count(old) for text in sources.values()) == 1, old
        assert sources[filename].count(old) == 1, old
        assert nodes
        for node in nodes:
            test_file, _, name = node.partition("::")
            text = (root / test_file).read_text(encoding="utf-8")
            assert f"def {name.partition('[')[0]}(" in text, node


def _format_sniffs(path: pathlib.Path) -> list:
    """The lines of a source file that call isinstance(..., int) or compare a ring with None.

    A ring is a name or attribute ending in "ring" (ring, ext_ring,
    x.ext_ring); None is the literal constant on either side of a
    comparison.
    """
    def is_ring(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return name.endswith("ring")

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    lines = {"isinstance": [], "ring": []}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and "int" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}):
            lines["isinstance"].append(node.lineno)
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(is_ring, sides)) and any(map(is_none, sides)):
                lines["ring"].append(node.lineno)
    return lines


def test_only_the_ops_know_the_entry_format():
    """spectral.py and matrix.py never ask whether an entry is an int, and spectral.py
    never asks whether a ring is None: the entry format and the ring are the ops'
    (padic._BaseOps, finite_field._ExtOps)."""
    spectral = _format_sniffs(PACKAGE / "spectral.py")
    assert spectral == {"isinstance": [], "ring": []}
    assert _format_sniffs(PACKAGE / "matrix.py")["isinstance"] == []
