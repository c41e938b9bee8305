"""Rules about the source tree itself rather than its mathematics."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest
from test_trace_spans import COMMAND_PROBLEMS  # one small problem per command

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


def _fresh_python(script: str, *args: str) -> str:
    """The stdout of script run by a fresh interpreter with src/ on its path."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_SCALAR_MODULES = ["padicspec", "padicspec.cli", "padicspec.finite_field", "padicspec.ladders",
                    "padicspec.padic", "padicspec.unramified"]
# the operator modules each command adds; the classify of COMMAND_PROBLEMS is a matrix's
_ADDED = {
    **dict.fromkeys(("lift", "digits", "kochubei", "euler"), []),
    **dict.fromkeys(("classify", "certify-projection"), ["padicspec.matrix"]),
}
# 4 -> 4^3 = 1 -> 1 mod 9: a quasi-periodic orbit, whose limit is a scalar
_SCALAR_CLASSIFY = (["classify"], {"p": 3, "m": 2, "scalar": {"v": 0, "u": "4"}})


@pytest.mark.parametrize("argv, doc", COMMAND_PROBLEMS + [_SCALAR_CLASSIFY],
                         ids=[argv[0] for argv, _ in COMMAND_PROBLEMS] + ["classify-scalar"])
def test_a_fresh_process_loads_the_operator_modules_only_for_operator_commands(tmp_path, argv, doc):
    """import padicspec, padicspec.cli loads the scalar modules; a command adds only the ones it runs.

    lift, digits, the ladders and a scalar classify (here one with a
    quasi-periodic limit) add nothing; a matrix classify and
    certify-projection add matrix; the spectral commands add spectral
    as well.
    """
    scalar = "scalar" in (doc or {})
    added = [] if scalar else _ADDED.get(argv[0], ["padicspec.matrix", "padicspec.spectral"])
    if doc is not None:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = argv + ["--in", str(path)]
    script = (
        "import io, json, sys\n"
        "import padicspec, padicspec.cli\n"
        "def loaded():\n"
        "    return sorted(name for name in sys.modules if name.partition('.')[0] == 'padicspec')\n"
        "imported = loaded()\n"
        "stream = io.StringIO()\n"
        "status = padicspec.cli.run_command(sys.argv[1:], stream)\n"
        "print(json.dumps([imported, status, json.loads(stream.getvalue()), loaded()]))\n"
    )
    imported, status, answer, after = json.loads(_fresh_python(script, *argv))
    assert imported == _SCALAR_MODULES
    assert status == 0, answer
    assert after == sorted(_SCALAR_MODULES + added)
    if scalar:
        assert answer["kind"] == "QuasiPeriodic" and "limit" in answer


# padicspec.__all__, frozen, each name under the module that defines it.  A
# module's own name stands for the submodule, except finite_field, the function
# that shadows its submodule.
PUBLIC_NAMES = {
    "finite_field": "ExtRing ExtScalar FqElement build_modulus ext_ring finite_field fq_frobenius",
    "ladders": "ladders MahlerVector TateVector commutator_defect euler_operator interior_basis"
               " kochubei_lower kochubei_raise kochubei_shift number_operator position_operator"
               " tate_creation tate_derivative tate_raise",
    "matrix": "matrix ProjectionCertificate UMatrix certify_orthogonal_projection determinant"
              " inverse is_gl_zp is_orthonormal_columns sample_unit_vector sample_vector"
              " vector_valuation",
    "padic": "padic INFINITE NormOutOfRangeError NotHermiteError OrbitKind OrbitReport PadicScalar"
             " PeriodExceededError PrecisionContext TeichDigits classify_orbit frobenius_step"
             " norm_from_valuation scalar_from_rational teichmuller_digits teichmuller_lift"
             " teichmuller_points",
    "spectral": "spectral HermiteDigitsMatrix JordanPair SpectralDecomposition SpectralMeasure"
                " SpectrumDiameter UncertaintyReport hermite_digits_matrix jordan_decompose"
                " lift_idempotent operator_spectrum spectral_integral spectral_measure"
                " spectrum_diameter teichmuller_spectral uncertainty_check uncertainty_checks",
    "unramified": "unramified enumerate_teichmuller reduce_mod_p sigma_fixed_points"
                  " teichmuller_lift_ext",
}


def test_the_public_names_are_the_pinned_ones():
    """padicspec.__all__ is PUBLIC_NAMES, and each name is the object its module defines.

    matrix and spectral are imported on first use, so every name is
    checked through getattr on the package and through a star import in
    a fresh interpreter.  The refusals that padic defines are the classes
    that spectral raises, and an unknown name is an AttributeError.
    """
    import padicspec

    pinned = {name: module for module, names in PUBLIC_NAMES.items() for name in names.split()}
    assert len(pinned) == len(padicspec.__all__) == 71
    assert set(padicspec.__all__) == set(pinned)
    for name, module in pinned.items():
        found = getattr(padicspec, name)
        owner = importlib.import_module(f"padicspec.{module}")
        if name == module and name != "finite_field":
            assert found is owner, name
        else:
            assert found is vars(owner)[name], name
    assert set(padicspec.__all__) <= set(dir(padicspec))
    for name in ("NotHermiteError", "PeriodExceededError"):
        assert getattr(padicspec, name) is vars(padicspec.padic)[name] is vars(padicspec.spectral)[name]
    with pytest.raises(AttributeError):
        padicspec.no_such_name
    script = (
        "from padicspec import *\n"
        "import padicspec\n"
        "print(*sorted(set(padicspec.__all__) - set(globals())))\n"
    )
    assert _fresh_python(script).split() == []


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


def _format_sniffs(path: pathlib.Path) -> dict:
    """The isinstance calls of a source file and the lines that compare a ring with None.

    Each isinstance call is (qualified name of its enclosing function or
    class, line).  A ring is a name or attribute ending in "ring" (ring,
    x.ring, ext_ring); None is the literal constant on either side of a
    comparison.
    """
    def is_ring(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return name.endswith("ring")

    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    found = {"isinstance": [], "ring": []}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"):
            found["isinstance"].append((scope, node.lineno))
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(is_ring, sides)) and any(map(is_none, sides)):
                found["ring"].append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "")
    return found


def test_only_the_ops_know_the_entry_format():
    """Only the ops (padic._BaseOps, finite_field._ExtOps) know what an entry is.

    Every matrix has a ring handle, a PrecisionContext or an ExtRing, so
    matrix.py and spectral.py call no isinstance and compare no ring
    with None, and padic.py calls isinstance only in PadicScalar's field
    check (an integer valuation).
    """
    for name in ("matrix.py", "spectral.py"):
        assert _format_sniffs(PACKAGE / name) == {"isinstance": [], "ring": []}, name
    padic = _format_sniffs(PACKAGE / "padic.py")["isinstance"]
    assert [scope for scope, _ in padic] == ["PadicScalar.__init__"]


def test_power_is_the_one_square_and_multiply():
    """The only >>= under src/padicspec is in padic._power, the one binary-powering loop.

    Residue matrices, extension-ring elements and polynomials mod f all
    pass their product to it.
    """
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    assert found and set(found) == {"padic._power"}


# The module-level memo functions of src/padicspec, each with why its entries may
# outlive one problem.  perfbench/run.py clears finite_field, build_modulus and
# ext_ring between timed passes; a memo it does not know would make a warm pass
# faster than a fresh process.
MODULE_CACHES = {
    "padic.is_prime": "a proven verdict per integer, asked again by every context at that p",
    "padic._row_struct": "a compiled struct layout, a function of the packed product's shape only",
    "finite_field.build_modulus": "the certified modulus of F_{p^N}, found by a search",
    "finite_field.ext_ring": "one ring per (p, N, m), so equal rings are mostly one object",
    "finite_field.finite_field": "the ring at m = 1 per (p, N), which is F_{p^N}",
    "cli._parser": "the argparse parser, built once for the first argv the flag table declines",
}


def test_module_level_caches_are_the_pinned_ones():
    """The functools.cache and lru_cache functions at module level are exactly MODULE_CACHES."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", "")
                if name in ("cache", "lru_cache"):
                    found.add(f"{path.stem}.{node.name}")
    assert found == set(MODULE_CACHES)


def test_the_benchmark_loader_clears_the_pinned_ring_caches():
    """perfbench.run.load_program imports this package and clears build_modulus, ext_ring and finite_field.

    A rename that broke either hook would otherwise show only as every
    benchmark run failing.
    """
    saved = list(sys.path)
    sys.path.insert(0, str(PACKAGE.parents[1]))
    try:
        from perfbench.run import load_program

        cli, clear_caches = load_program()
    finally:
        sys.path[:] = saved
    from padicspec.finite_field import build_modulus, ext_ring, finite_field

    assert cli is sys.modules["padicspec.cli"]
    finite_field(3, 2)
    clear_caches()
    assert [f.cache_info().currsize for f in (build_modulus, ext_ring, finite_field)] == [0, 0, 0]


def test_the_value_classes_are_the_pinned_ones():
    """The _Frozen subclasses under src/padicspec are these six; an F_{p^N} element is an ExtScalar."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "_Frozen" for base in node.bases
            ):
                found.add(f"{path.stem}.{node.name}")
    assert found == {
        "padic.PrecisionContext",
        "padic.PadicScalar",
        "finite_field.ExtRing",
        "finite_field.ExtScalar",
        "matrix.UMatrix",
        "ladders.CoeffVector",
    }


# Every function under src/padicspec that uses matrix._wrap_residues, the one
# place residue rows become scalars: the matrix constructors (a classify limit and
# jordan's parts through from_residues and zeros), the window results, and the
# views that a library caller reads.
# The CLI prints residue rows as they are, so no command's answer needs one.
WRAP_SITES = {
    "matrix.UMatrix.from_residues",
    "matrix.UMatrix.identity",
    "matrix.UMatrix.zeros",
    "matrix.UMatrix.window_pow",
    "matrix.inverse",
    "spectral.lift_idempotent",
    "spectral.SpectralDecomposition.points",
    "spectral.HermiteDigitsMatrix.digits",
    "spectral.operator_spectrum",
}


def _name_sites(name: str) -> dict:
    """{qualified function: uses} of every load of a name under src/padicspec."""
    found = {}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            found[scope] = found.get(scope, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    return found


def test_residue_rows_are_wrapped_only_at_the_pinned_sites():
    """_wrap_residues is used by WRAP_SITES only, once each, and never by the CLI."""
    assert _name_sites("_wrap_residues") == dict.fromkeys(WRAP_SITES, 1)


def test_only_the_rings_build_ops():
    """_BaseOps and _ExtOps are named under src/padicspec only where a ring builds its own ops.

    Every ops object belongs to one PrecisionContext or ExtRing, so the
    residue field's ops are ring.at(1).ops and F_p's are
    PrecisionContext(p, 1).ops.
    """
    assert {**_name_sites("_BaseOps"), **_name_sites("_ExtOps")} == {
        "padic.PrecisionContext.__init__": 1,
        "finite_field.ExtRing.__init__": 1,
    }


def test_each_extension_ring_builds_one_ops(monkeypatch):
    """A period-2 resolution of a base matrix builds one _ExtOps per ExtRing, and no other."""
    from padicspec import PrecisionContext, UMatrix, teichmuller_spectral
    from padicspec.finite_field import ExtRing, _ExtOps, ext_ring

    built = {"rings": 0, "ops": 0}

    def counting(cls, key):
        real = cls.__init__

        def init(self, *args):
            built[key] += 1
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", init)

    counting(ExtRing, "rings")
    counting(_ExtOps, "ops")
    ext_ring.cache_clear()
    # X^2 + 1 is irreducible mod 3, so the points lie in F_9
    rotation = UMatrix.from_ints([[0, -1], [1, 0]], PrecisionContext(3, 3))
    assert len(teichmuller_spectral(rotation, 2).points) == 2
    assert built["ops"] == built["rings"] > 0


def test_the_cli_writes_answers_without_scalar_dicts():
    """cli.py renders every scalar from its (v, u): it defines no matrix_to_json or scalar_to_json."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"matrix_to_json", "scalar_to_json"}
