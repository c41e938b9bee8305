"""The traced benchmark still finds every function it spans.

perfbench/trace.py wraps padicspec entry points named by module and
attribute path, so renaming or deleting one of them would otherwise only
show when the benchmark runs with --trace 1.  Nothing under perfbench/
is written.
"""

import io
import json
import sys
from pathlib import Path

# The tracer rebinds names in every loaded padicspec module, and looks up each
# span's module in sys.modules; padicspec.cli imports matrix and spectral only
# when a command runs, so they are imported here.
import padicspec.cli
import padicspec.matrix
import padicspec.spectral

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.trace import SPANS, Tracer  # noqa: E402


def _span_targets():
    for modname, path, _, _ in SPANS:
        owner = sys.modules[f"padicspec.{modname}"]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        yield (modname, path), owner.__dict__[attr]


def test_tracer_installs_and_uninstalls_every_span():
    originals = dict(_span_targets())
    tracer = Tracer()
    try:
        tracer.install()
        assert [key for key, target in _span_targets() if target is originals[key]] == []
    finally:
        tracer.uninstall()
    assert dict(_span_targets()) == originals


def _scalars(p, m, values):
    out = []
    for value in values:
        r = value % p**m
        v = 0
        while r and r % p == 0:
            r //= p
            v += 1
        out.append({"v": v if r else 0, "u": str(r)})
    return out


def _matrix(p, m, rows):
    return _scalars(p, m, [e for row in rows for e in row])


# one small problem per command: (argv, problem document or None for flag-only commands)
COMMAND_PROBLEMS = [
    (["lift", "--p", "5", "--m", "3", "--residue", "2"], None),
    (["digits", "--p", "5", "--m", "3", "--num", "7", "--den", "3"], None),
    (["classify", "--N", "2"], {"p": 3, "m": 3, "entries": _matrix(3, 3, [[0, 1], [-1, 0]])}),
    (["spectral", "--N", "2"], {"p": 3, "m": 2, "entries": _matrix(3, 2, [[0, 1], [-1, 0]])}),
    (["measure"], {"p": 3, "m": 2, "entries": _matrix(3, 2, [[1, 0], [0, 5]])}),
    (["integral"], {"p": 3, "m": 2, "entries": _matrix(3, 2, [[1, 0], [0, 5]])}),
    (["jordan"], {"p": 3, "m": 3, "entries": _matrix(3, 3, [[1, 1], [0, 1]])}),
    (["hermite"], {"p": 3, "m": 2, "entries": _matrix(3, 2, [[1, 3], [0, 2]])}),
    (["diam"], {"p": 3, "m": 2, "entries": _matrix(3, 2, [[1, 0], [0, 2]])}),
    (
        ["uncertainty", "--samples", "2"],
        {"p": 3, "m": 2, "A": _matrix(3, 2, [[1, 0], [0, 2]]), "B": _matrix(3, 2, [[1, 3], [0, 2]])},
    ),
    (["kochubei", "--op", "raise"], {"p": 3, "m": 2, "coeffs": _scalars(3, 2, [1, 2, 4])}),
    (["euler"], {"p": 3, "m": 2, "coeffs": _scalars(3, 2, [1, 2, 4])}),
    (["certify-projection"], {"p": 3, "m": 2, "entries": _matrix(3, 2, [[1, 0], [0, 0]])}),
]

# spans the CLI never reaches: the CLI calls uncertainty_checks, not the
# one-vector uncertainty_check; FqElement powers and sigma_fixed_points
# serve the library API and the tests; the spectral pipeline checks
# sigma^N-fixedness on residue rows, so UMatrix.window_pow (and
# sigma_window above it) serves the library API only; and it lifts its
# points to residues with padic._teichmuller_residue, so the scalar
# wrapper teichmuller_lift_ext serves the library API only; a ring reaches
# its residue field as ring.at(1), through ext_ring, so finite_field, the
# same ring under the field's name, serves the library API only
UNREACHED_FROM_THE_CLI = {
    "spectral.uncertainty_check",
    "matrix.UMatrix.window_pow",
    "finite_field.FqElement.__pow__",
    "finite_field.finite_field",
    "unramified.sigma_fixed_points",
    "unramified.teichmuller_lift_ext",
}


def test_every_command_reaches_its_spans(tmp_path):
    assert sorted({argv[0] for argv, _ in COMMAND_PROBLEMS}) == sorted(padicspec.cli._COMMANDS)
    ff, ur = sys.modules["padicspec.finite_field"], sys.modules["padicspec.unramified"]
    caches = (ff.finite_field, ff.build_modulus, ur.ext_ring)
    tracer = Tracer()
    tracer.install()
    try:
        for i, (argv, doc) in enumerate(COMMAND_PROBLEMS):
            for cached in caches:  # as in a fresh process, rings and fields are built again
                cached.cache_clear()
            if doc is not None:
                path = tmp_path / f"problem{i}.json"
                path.write_text(json.dumps(doc))
                argv = argv + ["--in", str(path)]
            stream = io.StringIO()
            status = padicspec.cli.run_command(argv, stream)
            assert status == 0, (argv, stream.getvalue())
    finally:
        tracer.uninstall()
    names = {name for _, _, name, _ in SPANS}
    assert {name for name in names if tracer.calls[name] == 0} == UNREACHED_FROM_THE_CLI
