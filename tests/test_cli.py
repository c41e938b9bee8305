"""Batch interface: schemas, exit codes, determinism, round trips."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from padicspec import PadicScalar, PrecisionContext, UMatrix, ext_ring, matrix, spectral, teichmuller_lift
from padicspec import cli
from padicspec.cli import _COMMANDS, MAX_SAMPLES, _dump, run_command, scalar_from_json

CTX = PrecisionContext(3, 4)


def run(argv):
    stream = io.StringIO()
    status = run_command(argv, stream)
    text = stream.getvalue()
    return status, json.loads(text) if text else None, text


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def canonical_scalar(value, p, m):
    r = value % (p**m)
    if r == 0:
        return {"v": 0, "u": "0"}
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return {"v": v, "u": str(r)}


def matrix_doc(p, m, rows, **extra):
    entries = [canonical_scalar(v, p, m) for row in rows for v in row]
    doc = {"p": p, "m": m, "entries": entries}
    doc.update(extra)
    return doc


def parse_matrix(doc, ctx):
    entries = [scalar_from_json(e, ctx, "entries") for e in doc["entries"]]
    n = doc["n"]
    return UMatrix.from_scalars([entries[i * n : (i + 1) * n] for i in range(n)])


def test_lift_command():
    status, doc, _ = run(["lift", "--p", "5", "--m", "3", "--residue", "2"])
    assert status == 0
    assert doc["value"] == {"u": "57", "v": 0}


def test_lift_requires_flags():
    status, doc, _ = run(["lift", "--p", "5", "--m", "3"])
    assert status == 2
    assert doc["error"]["field"] == "residue"


def test_lift_rejects_composite_p_via_flags():
    status, doc, _ = run(["lift", "--p", "4", "--m", "2", "--residue", "1"])
    assert status == 2
    assert doc["error"]["field"] == "p"


def test_lift_at_61_bit_prime_and_refusal_beyond_primality_bound():
    status, doc, _ = run(["lift", "--p", str(2**61 - 1), "--m", "2", "--residue", "1"])
    assert status == 0
    assert doc["value"] == {"u": "1", "v": 0}
    status, doc, _ = run(["lift", "--p", str(2**89 - 1), "--m", "2", "--residue", "1"])
    assert status == 2
    assert doc["error"]["field"] == "p"


def test_measure_at_a_million_sized_prime(tmp_path):
    p = 1000003
    path = write(tmp_path, "big.json", matrix_doc(p, 2, [[1, 0], [0, 2]]))
    status, doc, _ = run(["measure", "--in", path])
    assert status == 0
    assert sorted(node["address"][0] for node in doc["nodes"] if len(node["address"]) == 1) == [1, 2]


def test_lift_rejects_oversize_m_via_flags():
    status, doc, _ = run(["lift", "--p", "3", "--m", "65", "--residue", "1"])
    assert status == 2
    assert doc["error"]["field"] == "m"


def test_digits_command():
    status, doc, _ = run(["digits", "--p", "5", "--m", "2", "--num", "2"])
    assert status == 0
    assert [d["u"] for d in doc["digits"]] == ["7", "24"]


def test_digits_rejects_zero_denominator():
    status, doc, _ = run(["digits", "--p", "5", "--m", "2", "--num", "1", "--den", "0"])
    assert status == 2
    assert doc["error"]["field"] == "den"


def test_classify_matrix(tmp_path):
    path = write(tmp_path, "nil.json", matrix_doc(3, 4, [[0, 1], [0, 0]]))
    status, doc, _ = run(["classify", "--in", path])
    assert status == 0
    assert doc["kind"] == "TopNilpotent"


def test_classify_scalar(tmp_path):
    path = write(tmp_path, "s.json", {"p": 5, "m": 2, "scalar": {"v": 0, "u": "2"}})
    status, doc, _ = run(["classify", "--in", path])
    assert status == 0
    assert doc["kind"] == "QuasiPeriodic"
    assert doc["limit"] == {"u": "7", "v": 0}


def test_jordan_round_trip(tmp_path):
    path = write(tmp_path, "uni.json", matrix_doc(3, 4, [[1, 1], [0, 1]]))
    status, doc, _ = run(["jordan", "--in", path])
    assert status == 0
    ctx = PrecisionContext(3, 4)
    semisimple = parse_matrix(doc["semisimple"], ctx)
    nilpotent = parse_matrix(doc["nilpotent"], ctx)
    assert semisimple.congruent(UMatrix.identity(2, ctx))
    assert (semisimple + nilpotent).congruent(UMatrix.from_ints([[1, 1], [0, 1]], ctx))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_jordan_kills_the_companion_of_x64_minus_2_at_the_budget(tmp_path, m):
    """x^64 - 2 at p = 2: the orbit reaches 0 at step m + 5, past m * N + 4 at N = 1."""
    rows = [[1 if i == j + 1 else 0 for j in range(64)] for i in range(64)]
    rows[0][63] = 2
    path = write(tmp_path, "companion.json", matrix_doc(2, m, rows))
    status, doc, _ = run(["jordan", "--in", path])
    assert status == 0
    assert (doc["period"], doc["steps_to_kill"]) == (1, m + 5)
    status, doc, _ = run(["classify", "--in", path, "--N", "1"])
    assert (status, doc["kind"], doc["steps"]) == (0, "TopNilpotent", m + 5)
    status, doc, _ = run(["jordan", "--in", path, "--N", "1"])
    assert status == 0
    assert (doc["period"], doc["steps_to_kill"]) == (1, m + 5)


@pytest.mark.parametrize("bound", ["1", "2"])
def test_jordan_and_classify_find_the_period_of_diag_1_j63(tmp_path, bound):
    """diag(1, J_63) at p = 2, m = 1: J_63 dies at step 6, past m * 1 + 4.

    Within the scan's pre-period bound m + floor(log2(64 - 1)) = 6, so
    period 1 is found at bound 1 as at bound 2.
    """
    rows = [[1 if j == i + 1 else 0 for j in range(64)] for i in range(64)]
    rows[0][1] = 0
    rows[0][0] = 1
    path = write(tmp_path, "diag_1_j63.json", matrix_doc(2, 1, rows))
    status, doc, _ = run(["jordan", "--in", path, "--N", bound])
    assert status == 0, doc
    assert (doc["period"], doc["steps_to_kill"]) == (1, 6)
    status, doc, _ = run(["classify", "--in", path, "--N", bound])
    assert (status, doc["kind"], doc["period"], doc["steps"]) == (0, "QuasiPeriodic", 1, 7)


def test_hermite_rejection_is_exit_one(tmp_path):
    path = write(tmp_path, "bad.json", matrix_doc(3, 4, [[1, 1], [0, 1]]))
    status, doc, _ = run(["hermite", "--in", path])
    assert status == 1
    assert doc["error"]["kind"] == "not_hermite"
    assert "digit 1" in doc["error"]["reason"]


def test_hermite_accepts_and_reassembles(tmp_path):
    path = write(tmp_path, "good.json", matrix_doc(3, 4, [[1, 3], [0, 4]]))
    status, doc, _ = run(["hermite", "--in", path])
    assert status == 0
    ctx = PrecisionContext(3, 4)
    digits = [parse_matrix(d, ctx) for d in doc["digits"]]
    assert digits[0].congruent(UMatrix.identity(2, ctx))


def test_spectral_command(tmp_path):
    path = write(tmp_path, "swap.json", matrix_doc(3, 4, [[0, 1], [1, 0]]))
    status, doc, _ = run(["spectral", "--in", path])
    assert status == 0
    assert doc["residual_identity_defect"] == 0.0
    assert len(doc["points"]) == 2
    eigenvalues = {pt["eigenvalue"]["u"] for pt in doc["points"]}
    assert eigenvalues == {"1", "80"}


def test_spectral_rejects_non_fixed(tmp_path):
    """The Jordan block fails its tree certificate, and the refusal names the sigma check."""
    path = write(tmp_path, "uni.json", matrix_doc(3, 4, [[1, 1], [0, 1]]))
    status, doc, _ = run(["spectral", "--in", path])
    assert status == 1
    assert doc == {"error": {
        "kind": "not_teichmuller",
        "reason": "input is not fixed by sigma^1 mod p^m (defect norm 1.0)",
    }}


def test_measure_and_integral(tmp_path):
    path = write(tmp_path, "diag.json", matrix_doc(3, 4, [[1, 0], [0, 4]], depth=2))
    status, doc, _ = run(["measure", "--in", path])
    assert status == 0
    addresses = {tuple(node["address"]) for node in doc["nodes"]}
    assert addresses == {(1,), (1, 0), (1, 1)}
    status, doc, _ = run(["integral", "--in", path])
    assert status == 0
    assert doc["error_valuation"] is None  # exact reconstruction


def test_diam_command(tmp_path):
    path = write(tmp_path, "d.json", matrix_doc(3, 4, [[1, 0], [0, 4]]))
    status, doc, _ = run(["diam", "--in", path])
    assert status == 0
    assert doc["diameter_valuation"] == 1
    assert doc["diameter"] == pytest.approx(1 / 3)


def test_uncertainty_with_explicit_psi(tmp_path):
    doc = {
        "p": 3,
        "m": 4,
        "A": matrix_doc(3, 4, [[1, 0], [0, 80]])["entries"],
        "B": matrix_doc(3, 4, [[0, 1], [1, 0]])["entries"],
        "psi": [{"v": 0, "u": "1"}, {"v": 0, "u": "0"}],
    }
    path = write(tmp_path, "u.json", doc)
    status, out, _ = run(["uncertainty", "--in", path])
    assert status == 0
    assert out["holds"] is True
    assert out["checks"][0]["lhs_norm"] == 1.0


def test_uncertainty_with_sampled_vectors(tmp_path):
    doc = {
        "p": 3,
        "m": 3,
        "A": matrix_doc(3, 3, [[1, 0], [0, 4]])["entries"],
        "B": matrix_doc(3, 3, [[2, 0], [0, 7]])["entries"],
    }
    path = write(tmp_path, "u2.json", doc)
    status, out, _ = run(["uncertainty", "--in", path, "--samples", "5", "--seed", "9"])
    assert status == 0
    assert len(out["checks"]) == 5
    assert out["holds"] is True


def test_kochubei_command(tmp_path):
    doc = {"p": 3, "m": 4, "coeffs": [{"v": 0, "u": "1"}, {"v": 0, "u": "1"}, {"v": 0, "u": "0"}]}
    path = write(tmp_path, "k.json", doc)
    status, out, _ = run(["kochubei", "--in", path, "--op", "number"])
    assert status == 0
    assert [c["u"] for c in out["coeffs"]] == ["0", "1", "0"]


def test_euler_command(tmp_path):
    doc = {
        "p": 3,
        "m": 4,
        "coeffs": [{"v": 0, "u": "0"}, {"v": 0, "u": "1"}, {"v": 0, "u": "1"}],
    }
    path = write(tmp_path, "e.json", doc)
    status, out, _ = run(["euler", "--in", path])
    assert status == 0
    assert [c["u"] for c in out["coeffs"]] == ["0", "1", "2"]


def test_certify_projection_command(tmp_path):
    path = write(tmp_path, "pi.json", matrix_doc(3, 4, [[1, 0], [0, 0]]))
    status, out, _ = run(["certify-projection", "--in", path, "--samples", "12"])
    assert status == 0
    assert out["valid"] is True
    assert out["norm_of_pi"] == 1.0


def test_certify_projection_norm_overflow_is_a_rejection(tmp_path):
    doc = {"p": 3, "m": 4, "entries": [
        {"v": -1000, "u": "1"}, {"v": 0, "u": "0"}, {"v": 0, "u": "0"}, {"v": 0, "u": "1"}]}
    path = write(tmp_path, "huge.json", doc)
    status, out, _ = run(["certify-projection", "--in", path])
    assert status == 1
    assert out["error"]["kind"] == "norm_out_of_range"
    assert (out["error"]["p"], out["error"]["valuation"]) == (3, -2000)


def test_certify_projection_of_a_huge_valuation_ends(tmp_path):
    """pi^2 - pi on p^v, v = 10^30, adds terms 10^30 apart: p^(10^30) must never be formed.

    The sum of two scalars whose valuations are m or more apart is the
    one of smaller valuation, so the certificate reaches the norm of the
    defect, which no double holds.
    """
    for exponent in (7, 30):
        path = write(tmp_path, f"huge{exponent}.json",
                     {"p": 3, "m": 2, "entries": [{"v": 10**exponent, "u": "1"}]})
        [[status, doc]] = _run_in_child([["certify-projection", "--in", path]], timeout=20)
        assert status == 1
        assert doc["error"]["kind"] == "norm_out_of_range"
        assert (doc["error"]["p"], doc["error"]["valuation"]) == (3, 10**exponent)


def test_malformed_entries_diagnostic(tmp_path):
    path = write(tmp_path, "bad.json", {"p": 3, "m": 4, "entries": [{"v": 0, "u": "1"}] * 3})
    status, doc, _ = run(["classify", "--in", path])
    assert status == 2
    assert doc["error"]["field"] == "entries"


def test_composite_p_rejected(tmp_path):
    path = write(tmp_path, "bad.json", matrix_doc(4, 2, [[1, 0], [0, 1]]))
    status, doc, _ = run(["classify", "--in", path])
    assert status == 2
    assert doc["error"]["field"] == "p"


def test_unit_divisible_by_p_rejected(tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        {"p": 3, "m": 4, "entries": [{"v": 0, "u": "3"}, {"v": 0, "u": "0"}, {"v": 0, "u": "0"}, {"v": 0, "u": "1"}]},
    )
    status, doc, _ = run(["classify", "--in", path])
    assert status == 2
    assert "entries[0]" in doc["error"]["field"]


def test_byte_identical_output(tmp_path):
    path = write(tmp_path, "diag.json", matrix_doc(3, 4, [[1, 0], [0, 4]], depth=2))
    _, _, first = run(["measure", "--in", path])
    _, _, second = run(["measure", "--in", path])
    assert first == second


def test_out_file(tmp_path):
    target = tmp_path / "out.json"
    status, doc, text = run(["lift", "--p", "3", "--m", "2", "--residue", "1", "--out", str(target)])
    assert status == 0
    assert text == ""
    assert json.loads(target.read_text())["value"] == {"u": "1", "v": 0}


def test_rejections_are_shared_by_every_command(tmp_path):
    """One not-Hermite operator gives one rejection document through every command."""
    bad = matrix_doc(3, 4, [[1, 1], [0, 1]])
    path = write(tmp_path, "bad.json", bad)
    ident = [canonical_scalar(v, 3, 4) for v in (1, 0, 0, 1)]
    pair = write(tmp_path, "pair.json", {"p": 3, "m": 4, "A": bad["entries"], "B": ident})
    expected = (
        '{\n  "error": {\n    "defect_norm": 1.0,\n    "kind": "not_hermite",\n'
        '    "reason": "nilpotent residue at digit 1",\n    "stage": 1\n  }\n}\n'
    )
    for argv in (["hermite", "--in", path], ["measure", "--in", path],
                 ["integral", "--in", path], ["diam", "--in", path],
                 ["uncertainty", "--in", pair]):
        status, _, text = run(argv)
        assert (status, text) == (1, expected), argv


def test_hermite_rejects_unipotent_jordan_block_at_digit_one(tmp_path):
    """I + N at p = 2, n = 32, m = 2: its sigma orbit is stationary mod 2 after
    five steps, so the rejection names the nilpotent residue, not the orbit."""
    n = 32
    rows = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    path = write(tmp_path, "jordan32.json", matrix_doc(2, 2, rows))
    status, _, text = run(["hermite", "--in", path])
    assert status == 1
    assert text == (
        '{\n  "error": {\n    "defect_norm": 1.0,\n    "kind": "not_hermite",\n'
        '    "reason": "nilpotent residue at digit 1",\n    "stage": 1\n  }\n}\n'
    )


@pytest.mark.parametrize("n", [17, 33, 64])
def test_hermite_names_the_nilpotent_residue_of_i_plus_j17_at_m1(tmp_path, n):
    """I + N at p = 2, m = 1 for the n x n Jordan shift N: the sigma phase
    reaches (I + N)^(2^k) = I within its pre_period_bound(2, 1, n) steps,
    so the rejection names the nilpotent residue N, not the orbit."""
    rows = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    path = write(tmp_path, f"jordan{n}.json", matrix_doc(2, 1, rows))
    status, _, text = run(["hermite", "--in", path])
    assert status == 1
    assert text == (
        '{\n  "error": {\n    "defect_norm": 1.0,\n    "kind": "not_hermite",\n'
        '    "reason": "nilpotent residue at digit 1",\n    "stage": 1\n  }\n}\n'
    )


def test_period_exceeded_rejection(tmp_path):
    """The rotation x has x^3 = -x at p = 3, so its p-power orbit has period 2."""
    path = write(tmp_path, "rotation.json", matrix_doc(3, 4, [[0, 1], [-1, 0]]))
    status, doc, _ = run(["jordan", "--in", path, "--N", "1"])
    assert status == 1
    assert doc["error"]["kind"] == "period_exceeded"
    assert doc["error"]["period_bound"] == 1


def test_every_file_command_requires_in():
    for command in ("classify", "spectral", "measure", "integral", "jordan", "hermite",
                    "diam", "uncertainty", "kochubei", "euler", "certify-projection"):
        status, doc, _ = run([command])
        assert status == 2, command
        assert doc["error"] == {"field": "in", "kind": "malformed_input",
                                "reason": "field 'in': an input file is required for this command"}


def test_unknown_ladder_operations(tmp_path):
    path = write(tmp_path, "coeffs.json", {"p": 3, "m": 4, "coeffs": [{"v": 0, "u": "1"}]})
    status, doc, _ = run(["kochubei", "--in", path, "--op", "euler"])
    assert (status, doc["error"]["reason"]) == (2, "field 'op': unknown ladder operation 'euler'")
    status, doc, _ = run(["euler", "--in", path, "--op", "lower"])
    assert (status, doc["error"]["reason"]) == (2, "field 'op': unknown Tate operation 'lower'")


def test_module_entry_point_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "padicspec.cli", "lift", "--p", "3", "--m", "4", "--residue", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "value" in json.loads(proc.stdout)


def _uncertainty_pair(tmp_path):
    doc = {
        "p": 3,
        "m": 4,
        "A": matrix_doc(3, 4, [[1, 0, 0], [0, 4, 0], [0, 0, 2]])["entries"],
        "B": matrix_doc(3, 4, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])["entries"],
    }
    return write(tmp_path, "pair.json", doc)


def test_uncertainty_computes_each_diameter_once(tmp_path, monkeypatch):
    calls = []
    original = spectral.spectrum_diameter

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "spectrum_diameter", counted)
    path = _uncertainty_pair(tmp_path)
    status, out, text = run(["uncertainty", "--in", path, "--samples", "10", "--seed", "3"])
    assert status == 0
    assert len(out["checks"]) == 10
    assert len(calls) == 2
    # the document printed when every psi recomputed both diameters
    digest = "e6e10a1ee69656c1426ac74bf062dd9f64f870f9e93717289fca5fa0734a31e8"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["uncertainty", "certify-projection"])
@pytest.mark.parametrize("samples", [0, -5, MAX_SAMPLES + 1])
def test_samples_outside_the_bound_are_malformed(tmp_path, command, samples):
    if command == "uncertainty":
        path = _uncertainty_pair(tmp_path)
    else:
        path = write(tmp_path, "pi.json", matrix_doc(3, 4, [[1, 0], [0, 0]]))
    status, out, _ = run([command, "--in", path, "--samples", str(samples)])
    assert status == 2
    assert out["error"]["kind"] == "malformed_input"
    assert out["error"]["field"] == "samples"


def test_samples_at_the_bounds_are_accepted(tmp_path):
    path = _uncertainty_pair(tmp_path)
    for samples in (1, MAX_SAMPLES):
        status, out, _ = run(["uncertainty", "--in", path, "--samples", str(samples)])
        assert status == 0
        assert len(out["checks"]) == samples


@pytest.mark.parametrize("command", ["measure", "integral"])
def test_measure_and_integral_at_a_61_bit_prime(tmp_path, command):
    p = 2**61 - 1
    path = write(tmp_path, "huge.json", matrix_doc(p, 4, [[1, 0], [0, 2]], depth=4))
    status, doc, _ = run([command, "--in", path])
    assert status == 0
    if command == "measure":
        assert sorted(node["address"] for node in doc["nodes"] if len(node["address"]) == 1) == [
            [1],
            [2],
        ]
    else:
        assert doc["error_valuation"] is None


def _period_problem(tmp_path, command, period):
    if command == "uncertainty":
        doc = {
            "p": 3,
            "m": 4,
            "A": matrix_doc(3, 4, [[1, 0], [0, 80]])["entries"],
            "B": matrix_doc(3, 4, [[0, 1], [1, 0]])["entries"],
        }
    else:
        doc = matrix_doc(3, 4, [[1, 0], [0, 80]])
    doc["N"] = period
    return write(tmp_path, "period.json", doc)


@pytest.mark.parametrize("command", ["spectral", "hermite", "diam", "uncertainty"])
@pytest.mark.parametrize("period", ["x", 1.5, True])
def test_document_period_must_be_an_integer(tmp_path, command, period):
    status, doc, _ = run([command, "--in", _period_problem(tmp_path, command, period)])
    assert status == 2
    assert doc["error"] == {
        "kind": "malformed_input",
        "field": "N",
        "reason": "field 'N': period must be an integer",
    }


@pytest.mark.parametrize("command", ["spectral", "hermite", "diam", "uncertainty"])
def test_document_period_bounds_keep_their_messages(tmp_path, command):
    status, doc, _ = run([command, "--in", _period_problem(tmp_path, command, 0)])
    assert status == 2
    assert doc["error"]["reason"] == "field 'N': period must be >= 1"
    status, doc, _ = run([command, "--in", _period_problem(tmp_path, command, 13)])
    assert status == 2
    assert doc["error"]["reason"] == "field 'N': p^N exceeds the enumeration bound 1048576"


def _run_in_child(argvs, timeout=60):
    """[status, document] of run_command on each argv, all in one child process under a timeout.

    A call that hangs then fails its test instead of hanging the suite.
    """
    script = (
        "import io, json, sys\n"
        "from padicspec.cli import run_command\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    stream = io.StringIO()\n"
        "    print(json.dumps([run_command(argv, stream), json.loads(stream.getvalue())]))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_huge_period_is_refused_from_the_period_alone(tmp_path):
    """p**N at N = 10^8 takes minutes to form, so the refusal must not form it.

    The calls run in one child process under a timeout, so a regression
    fails instead of hanging the suite.
    """
    argvs = []
    for command, period, flags in (("spectral", 10**8, []), ("hermite", 10**8, []),
                                   ("diam", 10**8, []), ("uncertainty", 10**8, []),
                                   ("hermite", 1, ["--N", "100000000"])):
        workdir = tmp_path / str(len(argvs))
        workdir.mkdir()
        argvs.append([command, "--in", _period_problem(workdir, command, period), *flags])
    refusal = {"kind": "malformed_input", "field": "N",
               "reason": "field 'N': p^N exceeds the enumeration bound 1048576"}
    assert _run_in_child(argvs) == [[2, {"error": refusal}]] * 5


def test_oversized_unit_is_malformed(tmp_path):
    doc = matrix_doc(3, 4, [[1, 0], [0, 1]])
    doc["entries"][3] = {"v": 0, "u": "1" * 5000}
    status, out, _ = run(["spectral", "--in", write(tmp_path, "long.json", doc)])
    assert status == 2
    assert out["error"]["field"] == "entries[3].u"


@pytest.mark.parametrize("unit", ["²", "①"])
def test_unit_with_non_decimal_digits_is_malformed(tmp_path, unit):
    doc = matrix_doc(3, 4, [[1, 0], [0, 1]])
    doc["entries"][0] = {"v": 0, "u": unit}
    status, out, _ = run(["spectral", "--in", write(tmp_path, "digit.json", doc)])
    assert status == 2
    assert out["error"]["field"] == "entries[0].u"


def test_oversized_json_number_is_malformed(tmp_path):
    path = tmp_path / "number.json"
    path.write_text('{"p": 3, "m": 4, "depth": ' + "7" * 5000 + ', "entries": []}')
    status, out, _ = run(["measure", "--in", str(path)])
    assert status == 2
    assert out["error"]["field"] == "in"
    assert out["error"]["reason"].startswith("field 'in': invalid JSON: ")


def test_unwritable_out_is_malformed(tmp_path):
    target = tmp_path / "missing-dir" / "x.json"
    status, doc, _ = run(["lift", "--p", "5", "--m", "3", "--residue", "2", "--out", str(target)])
    assert status == 2
    assert doc["error"]["kind"] == "malformed_input"
    assert doc["error"]["field"] == "out"
    assert doc["error"]["reason"].startswith("field 'out': cannot write file: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("command", ["classify", "jordan"])
@pytest.mark.parametrize("bound,status", [(0, 2), (1, 0), (64, 0), (65, 2)])
def test_period_bound_is_capped(tmp_path, command, bound, status):
    path = write(tmp_path, "ident.json", matrix_doc(3, 4, [[1, 0], [0, 1]]))
    got, doc, _ = run([command, "--in", path, "--N", str(bound)])
    assert got == status
    if status == 2:
        assert doc["error"] == {"kind": "malformed_input", "field": "N",
                                "reason": "field 'N': period bound must be in [1, 64]"}
    else:
        assert doc["period"] == 1


def test_period_sixty_fits_under_the_cap(tmp_path):
    """Companion blocks of x^3+x+1, x^4+x+1 and x^5+x^2+1 at p = 2: period lcm(3, 4, 5)."""
    rows = [[0] * 12 for _ in range(12)]
    offset = 0
    for low in ([1, 1, 0], [1, 1, 0, 0], [1, 0, 1, 0, 0]):
        d = len(low)
        for i in range(d):
            if i:
                rows[offset + i][offset + i - 1] = 1
            rows[offset + i][offset + d - 1] = low[i]
        offset += d
    path = write(tmp_path, "blocks.json", matrix_doc(2, 2, rows))
    status, doc, _ = run(["jordan", "--in", path, "--N", "59"])
    assert (status, doc["error"]["kind"]) == (1, "period_exceeded")
    status, doc, _ = run(["jordan", "--in", path, "--N", "60"])
    assert (status, doc["period"]) == (0, 60)


# diam on 3^2 at p = 3, m = 2, N = 2: a valuation that reaches m, where the
# extension ring holds p^2 as 0, is a named precondition
VALUATION_AT_M_PROBE = {"p": 3, "m": 2, "N": 2, "entries": [{"v": 2, "u": "1"}]}


def run_silently(argv):
    """run() that also returns whatever reached the process's stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = run(argv)
    return result, out.getvalue() + err.getvalue()


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["nope"], "argument command: invalid choice: 'nope'"),
        (["lift", "--p", "5", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "the following arguments are required: command"),
        (["lift", "--p", "x"], "argument --p: invalid int value: 'x'"),
        (["lift", "--p", "9" * 4301, "--m", "2"], "argument --p: invalid int value"),
    ],
    ids=["unknown-command", "unknown-flag", "no-command", "flag-not-an-int", "int-past-digit-limit"],
)
def test_argv_errors_exit_two_with_a_document(argv, reason):
    (status, doc, _), printed = run_silently(argv)
    assert (status, printed) == (2, "")
    assert doc["error"]["kind"] == "malformed_input"
    assert doc["error"]["field"] == "argv"
    assert doc["error"]["reason"].startswith(f"field 'argv': {reason}")


@pytest.mark.parametrize("argv", [["lift", "-h"], ["--help"], ["measure", "--in", "x.json", "-h"]])
def test_help_is_a_document(argv):
    (status, doc, _), printed = run_silently(argv)
    assert (status, printed, list(doc)) == (0, "", ["help"])
    assert doc["help"].startswith("usage: padicspec [-h]")
    assert "--samples SAMPLES" in doc["help"]


@pytest.mark.parametrize("command,default", [("kochubei", "number"), ("euler", "euler")])
def test_ladder_op_defaults(tmp_path, command, default):
    doc = {"p": 3, "m": 4, "coeffs": [{"v": 0, "u": "1"}, {"v": 0, "u": "2"}, {"v": 1, "u": "1"}]}
    path = write(tmp_path, "coeffs.json", doc)
    status, out, text = run([command, "--in", path])
    assert (status, out["op"]) == (0, default)
    assert text == run([command, "--in", path, "--op", default])[2]


def test_flags_may_come_before_the_command(tmp_path):
    path = write(tmp_path, "diag.json", matrix_doc(3, 4, [[1, 0], [0, 4]]))
    assert run(["--in", path, "--depth", "2", "measure"]) == run(["measure", "--in", path, "--depth", "2"])
    assert run(["--p", "5", "--m", "3", "lift", "--residue", "2"])[0] == 0


def test_module_entry_point_refusals_print_no_traceback(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    problem = write(tmp_path, "ident.json", matrix_doc(3, 4, [[1, 0], [0, 1]]))
    refused = write(tmp_path, "refused.json", VALUATION_AT_M_PROBE)
    for argv, status in ((["lift", "--p", "5", "--m", "3", "--residue", "2",
                           "--out", str(tmp_path / "missing-dir" / "x.json")], 2),
                         (["nope"], 2),
                         (["lift", "--p", "9" * 4301, "--m", "2"], 2),
                         (["classify", "--in", problem, "--N", "65"], 2),
                         (["diam", "--in", refused], 1)):
        proc = subprocess.run([sys.executable, "-m", "padicspec.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == status, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv
        assert "error" in json.loads(proc.stdout), argv


def test_int_flag_past_a_lowered_digit_limit_is_an_argv_error():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONINTMAXSTRDIGITS="640")
    proc = subprocess.run([sys.executable, "-m", "padicspec.cli", "lift", "--p", "9" * 700, "--m", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["error"]["reason"].startswith(
        "field 'argv': argument --p: invalid int value")


def _long_unit_doc(digits):
    return {"p": 3, "m": 2, "entries": [{"v": 0, "u": "1" * digits}] + [{"v": 0, "u": "0"}] * 3}


def test_unit_past_the_digit_limit_is_malformed(tmp_path):
    path = write(tmp_path, "long.json", _long_unit_doc(4301))
    status, doc, _ = run(["hermite", "--in", path])
    assert (status, doc["error"]["field"]) == (2, "entries[0].u")
    assert doc["error"]["reason"] == "field 'entries[0].u': unit has more than 4300 digits"
    status, _, _ = run(["hermite", "--in", write(tmp_path, "max.json", _long_unit_doc(4300))])
    assert status != 2


def test_unit_past_a_lowered_digit_limit_is_malformed(tmp_path):
    """The unit is bounded by int()'s digit limit as the interpreter sets it, not a fixed 4300."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONINTMAXSTRDIGITS="640")
    path = write(tmp_path, "long.json", _long_unit_doc(700))
    proc = subprocess.run([sys.executable, "-m", "padicspec.cli", "hermite", "--in", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    error = json.loads(proc.stdout)["error"]
    assert (error["kind"], error["field"]) == ("malformed_input", "entries[0].u")
    assert error["reason"] == "field 'entries[0].u': unit has more than 640 digits"


def test_internal_defect_is_a_document(tmp_path, monkeypatch):
    """A defect the library detects in itself ends in one document, exit 1."""
    resolve = spectral._spectrum

    def off_by_p(a, period):  # a planted defect: every eigenvalue gains a factor p
        ring, centers, rows = resolve(a, period)
        return ring, [lam.shift(1) for lam in centers], rows

    monkeypatch.setattr(spectral, "_spectrum", off_by_p)
    path = write(tmp_path, "diag.json", matrix_doc(3, 2, [[1, 0], [0, 2]]))
    (status, doc, _), printed = run_silently(["diam", "--in", path])
    assert (status, printed) == (1, "")
    assert doc["error"] == {
        "kind": "internal",
        "exception": "RuntimeError",
        "reason": "operator norm differs from max eigenvalue norm (internal defect)",
    }


@pytest.mark.parametrize("defect", ["wrong index", "point off by p"])
def test_pass_through_defect_is_a_document(tmp_path, monkeypatch, defect):
    """A level that skipped its resolution but carries a planted defect is refused, exit 1.

    diag(1, 4, -1) at p = 3, m = 3 has the digits (1, 0, 0), (1, 1, 0),
    (2, 0, 0), so level 2 splits no node and is read off level 1, all
    three nodes under index 0.  Filing them under index 1, or giving index 0 the
    point 0 + p, leaves every sum and refinement intact; only the
    reassembly of digit 2 refuses the tree.
    """
    read_off, planted = spectral._read_off, []

    def faulty(above, tail, ops, period):
        read = read_off(above, tail, ops, period)
        if read is None:
            return None
        *digit, level = read
        planted.append(len(level.nodes))
        if defect == "wrong index":
            moved = {i: (i + 1) % ops.p for i in level.terms}
            ctx = PrecisionContext(ops.p, ops.m)
            return *digit, level._replace(
                nodes=[(addr[:-1] + (moved[addr[-1]],), rows) for addr, rows in level.nodes],
                terms={moved[i]: (teichmuller_lift(moved[i], ctx).residue(), rows)
                       for i, (_, rows) in level.terms.items()},
            )
        return *digit, level._replace(terms={
            i: ((point + ops.p) % ops.q, rows) for i, (point, rows) in level.terms.items()
        })

    monkeypatch.setattr(spectral, "_read_off", faulty)
    path = write(tmp_path, "diag.json", matrix_doc(3, 3, [[1, 0, 0], [0, 4, 0], [0, 0, 26]]))
    (status, doc, _), printed = run_silently(["diam", "--in", path])
    assert planted == [3]
    assert (status, printed) == (1, "")
    assert doc["error"] == {
        "kind": "internal",
        "exception": "RuntimeError",
        "reason": "level 2 projectors do not reassemble digit 2 (internal defect)",
    }


def test_spectral_runs_the_tree_certificate(tmp_path, monkeypatch):
    """A resolution missing its last projector is refused by the certificate, exit 1."""
    resolve = spectral._resolve

    def drop_last(rows, ops, period):  # a planted defect: one eigenvalue missed
        lifts, ambient, rows, projectors = resolve(rows, ops, period)
        return lifts[:-1], ambient, rows, projectors[:-1]

    monkeypatch.setattr(spectral, "_resolve", drop_last)
    path = write(tmp_path, "diag.json", matrix_doc(3, 2, [[1, 0], [0, -1]]))
    (status, doc, _), printed = run_silently(["spectral", "--in", path])
    assert (status, printed) == (1, "")
    assert doc["error"]["kind"] == "internal"
    assert "do not sum to 1" in doc["error"]["reason"]


@pytest.mark.parametrize(
    "argv,doc,reason",
    [
        (["--N", "2"], {"p": 3, "m": 2, "entries": [{"v": -1, "u": "1"}]},
         "period > 1 spectra need a valuation in [0, m) = [0, 2); got -1"),
        ([], VALUATION_AT_M_PROBE, "period > 1 spectra need a valuation in [0, m) = [0, 2); got 2"),
    ],
    ids=["negative-valuation", "valuation-at-m"],
)
@pytest.mark.parametrize("command", ["diam", "uncertainty"])
def test_period_spectrum_preconditions_are_rejections(tmp_path, argv, doc, reason, command):
    if command == "uncertainty":
        doc = {"p": doc["p"], "m": doc["m"], "A": doc["entries"], "B": doc["entries"],
               **({"N": doc["N"]} if "N" in doc else {})}
    path = write(tmp_path, "probe.json", doc)
    status, out, _ = run([command, "--in", path, *argv])
    assert status == 1
    assert out["error"] == {"kind": "precondition", "reason": reason}


@pytest.mark.parametrize(
    "declared,reason",
    [
        (True, "declared dimension must be an integer"),
        (1.0, "declared dimension must be an integer"),
        ("1", "declared dimension must be an integer"),
        (2, "declared dimension 2 does not match 1"),
    ],
    ids=["bool", "float", "string", "mismatch"],
)
def test_declared_dimension_is_an_integer_equal_to_n(tmp_path, declared, reason):
    path = write(tmp_path, "one.json", matrix_doc(3, 4, [[1]], n=declared))
    status, doc, _ = run(["hermite", "--in", path])
    assert status == 2
    assert doc["error"] == {"kind": "malformed_input", "field": "n", "reason": f"field 'n': {reason}"}


# every character, lone surrogates included
_TEXT = st.text(st.characters(exclude_categories=()))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),
    _TEXT,
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
@example({"a": [float("nan"), float("inf"), -float("inf"), -0.0, 10**40, "\ud800\x00\u00e9"],
          "": {}, "t": (), "z": [[], {"k": None}, True, False]})
def test_dump_is_json_dumps(tree):
    assert _dump(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("tree", [{"a": {1, 2}}, {1: "x"}, [{"k": {"deep": {3: 4}}}]],
                         ids=["set-value", "int-key", "nested-int-key"])
def test_dump_refuses_sets_and_non_string_keys(tree):
    with pytest.raises(TypeError):
        _dump(tree)


def _rendered(value, indent: str) -> str:
    out = []
    cli._render(value, indent, out)
    return "".join(out)


def _dumped(doc, indent: str) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) as it reads nested at indent."""
    return json.dumps(doc, sort_keys=True, indent=2).replace("\n", "\n" + indent)


@pytest.mark.parametrize("p", [2, 3, 5, 101])
@pytest.mark.parametrize("degree", [1, 2, 3], ids=["base", "degree-2", "degree-3"])
def test_residue_rows_render_as_their_documents(p, degree):
    """Residue rows over Z/p^m and O_K/p^m, m = 1..8, written from their ints, are the oracle's documents."""
    rng = random.Random(100 * p + degree)
    for m in range(1, 9):
        q, top = p**m, p ** (m - 1)

        def coordinate():
            return rng.choice([0, top * rng.randrange(p), rng.randrange(q), rng.randrange(1, p)])

        def entry():
            return coordinate() if degree == 1 else tuple(coordinate() for _ in range(degree))

        n = rng.randint(1, 4)
        rows = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        for indent in ("", "  ", "      "):
            want = helpers.residue_matrix_doc(rows, p)
            assert _rendered(cli._matrix(rows, p), indent) == _dumped(want, indent)
            lone = cli._Scalars(((rows[0][0],), p, False))
            assert _rendered(lone, indent) == _dumped(helpers.residue_entry_doc(rows[0][0], p), indent)
            listed = cli._Scalars((rows[-1], p, True))
            assert _rendered(listed, indent) == _dumped([helpers.residue_entry_doc(e, p) for e in rows[-1]], indent)
        if degree > 1:  # extension scalars print their coordinates, which are residues
            scalars = cli._scalars([ext_ring(p, degree, m).element(e) for e in rows[-1]])
            assert _rendered(scalars, "  ") == _dumped([helpers.residue_entry_doc(e, p) for e in rows[-1]], "  ")


def test_a_relative_measure_product_renders_as_its_scalars():
    """A measure node below level 0 keeps m digits past each entry's valuation; it prints them all."""
    ctx = PrecisionContext(3, 4)
    a = UMatrix.from_ints([[16, 35, 32, 76], [9, 68, 16, 30], [36, 31, 11, 15], [36, 3, 24, 27]], ctx)
    node = dict(spectral.spectral_measure(a, 2).nodes)[(0, 0)]
    # not the canonical residue rows: some entry prints an integer p^v u >= p^m
    assert any(not e.is_zero and 3**e.valuation * e.unit >= 81 for row in node.rows for e in row)
    for indent in ("", "      "):
        assert _rendered(cli._matrix(node.rows), indent) == _dumped(helpers.scalar_matrix_doc(node), indent)
    assert _rendered({"x": [cli._matrix(node.rows)]}, "") == _dumped({"x": [helpers.scalar_matrix_doc(node)]}, "")


@pytest.mark.parametrize("command", ["spectral", "hermite"])
def test_the_cli_builds_no_matrix_but_its_input(tmp_path, monkeypatch, command):
    """spectral and hermite print the certified residue rows: no UMatrix is built after parsing."""
    # X^2 = -1: fixed by sigma^2, with eigenvalues +-i in F_9, so spectral answers over O_K
    path = write(tmp_path, "i.json", matrix_doc(3, 4, [[0, -1], [1, 0]]))
    built, wrapped = [0], [0]
    init, wrap = UMatrix.__init__, matrix._wrap_residues

    def counting_init(self, rows):
        built[0] += 1
        init(self, rows)

    def counting_wrap(rows, ring):
        wrapped[0] += 1
        return wrap(rows, ring)

    monkeypatch.setattr(UMatrix, "__init__", counting_init)
    for module in (matrix, spectral):
        monkeypatch.setattr(module, "_wrap_residues", counting_wrap)
    status, doc, _ = run([command, "--N", "2", "--in", path])
    assert status == 0, doc
    assert len(doc["points"] if command == "spectral" else doc["digits"]) == {"spectral": 2, "hermite": 4}[command]
    assert (built[0], wrapped[0]) == (1, 0)


def test_measure_and_integral_build_scalars_for_the_input_and_the_results_only(tmp_path, monkeypatch):
    """measure and integral form their nodes on (v, u) pairs: no scalar per projector or product.

    On a planted 8 x 8 operator at p = 3, m = 4, run_command builds at
    most n^2 scalars for the input plus one per node for the centers,
    and integral 2 n^2 more for its two result matrices.
    """
    n = 8
    a, _, _ = helpers.rand_hermite(CTX, n, random.Random(0), [1, 1, 1, 4, 4, 7, 2, 5])
    path = write(tmp_path, "planted.json", matrix_doc(3, 4, helpers.residues_of(a)))
    built = [0]
    init = PadicScalar.__init__

    def counting_init(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(PadicScalar, "__init__", counting_init)
    status, doc, _ = run(["measure", "--in", path])
    assert status == 0, doc
    nodes = len(doc["nodes"])
    assert nodes > n and built[0] <= n * n + nodes
    built[0] = 0
    status, doc, _ = run(["integral", "--in", path])
    assert status == 0, doc
    assert built[0] <= n * n + nodes + 2 * n * n


def _one_call_per_command(tmp_path):
    # diag(1, -1): Teichmuller, so spectral accepts it at period 1
    matrix = write(tmp_path, "diag.json", matrix_doc(3, 4, [[1, 0], [0, -1]], depth=2))
    projection = write(tmp_path, "pi.json", matrix_doc(3, 4, [[1, 0], [0, 0]]))
    coeffs = write(tmp_path, "coeffs.json", {"p": 3, "m": 4, "coeffs": [{"v": 0, "u": "1"}]})
    return [
        ["lift", "--p", "5", "--m", "3", "--residue", "2"],
        ["digits", "--p", "5", "--m", "2", "--num", "2"],
        ["classify", "--in", matrix],
        ["spectral", "--in", matrix],
        ["measure", "--in", matrix],
        ["integral", "--in", matrix],
        ["jordan", "--in", matrix],
        ["hermite", "--in", matrix],
        ["diam", "--in", matrix],
        ["uncertainty", "--in", _uncertainty_pair(tmp_path), "--samples", "2"],
        ["kochubei", "--in", coeffs],
        ["euler", "--in", coeffs],
        ["certify-projection", "--in", projection],
    ]


def test_run_command_builds_no_parser(tmp_path, monkeypatch):
    argvs = _one_call_per_command(tmp_path)
    assert [argv[0] for argv in argvs] == list(_COMMANDS)
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in argvs:
        assert run(argv)[0] == 0, argv
    assert built == []


def test_flag_defaults_do_not_leak_between_calls(tmp_path):
    path = write(tmp_path, "pi.json", matrix_doc(3, 4, [[1, 0], [0, 0]]))
    bare = run(["certify-projection", "--in", path])[2]
    flagged = run(["certify-projection", "--in", path, "--samples", "3", "--seed", "7"])[2]
    assert json.loads(flagged)["samples"] == 3
    assert run(["certify-projection", "--in", path])[2] == bare != flagged


def test_an_argv_error_does_not_change_the_next_answer(tmp_path):
    path = write(tmp_path, "pi.json", matrix_doc(3, 4, [[1, 0], [0, 0]]))
    first = run(["certify-projection", "--in", path])
    status, doc, _ = run(["certify-projection", "--in", path, "--samples", "3", "--bogus"])
    assert (status, doc["error"]["field"]) == (2, "argv")
    assert run(["certify-projection", "--in", path]) == first


def test_help_document_is_the_same_after_other_commands(tmp_path):
    before = run(["--help"])
    for argv in _one_call_per_command(tmp_path):
        run(argv)
    run(["nope"])
    assert run(["--help"]) == before


def test_out_file_bytes_are_the_stream_bytes(tmp_path):
    path = write(tmp_path, "diag.json", matrix_doc(3, 4, [[1, 0], [0, 4]], depth=2))
    target = tmp_path / "out.json"
    _, _, text = run(["measure", "--in", path])
    assert run(["measure", "--in", path, "--out", str(target)])[2] == ""
    assert target.read_bytes() == text.encode("utf-8")


# Tokens of the equivalence property: the table's flags and commands, other
# spellings argparse reads or refuses, and values on both sides of every
# check of cli._parse_argv.
_OPTIONS = [option for option, *_ in cli._FLAGS] + ["--dep", "--i", "--p=3", "-h", "--", "--bogus"]
_VALUES = ["-5", "007", "-0", "+4", " 5", "1_0", "\u0663", "\u00b2", "", "-x", "-", "lift",
           "9" * 4300, "-" + "9" * 4300, "9" * 4301]


@st.composite
def argvs(draw):
    """Options each followed by zero to two values, with zero to two commands anywhere."""
    pieces = draw(st.lists(st.tuples(st.sampled_from(_OPTIONS),
                                     st.lists(st.sampled_from(_VALUES), max_size=2)), max_size=4))
    argv = [token for option, values in pieces for token in (option, *values)]
    for command in draw(st.lists(st.sampled_from(list(_COMMANDS)), max_size=2)):
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), command)
    return argv


def _outcome(argv):
    """run_command's status, stream text and written files, run in a fresh directory."""
    with tempfile.TemporaryDirectory() as workdir, contextlib.chdir(workdir):
        (status, _, text), printed = run_silently(argv)
        files = {path.name: path.read_bytes() for path in pathlib.Path(workdir).iterdir()}
    return status, text, printed, files


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["lift", "--p", "5", "--m", "4", "--residue", "7"])
@example(["--in", "lift", "--op", "-x", "euler"])
@example(["--m", "2", "digits", "--p", "9" * 4301])
@example(["digits", "--num", "-" + "9" * 4300, "--p", "007", "--m", "-0"])
@example(["lift", "--p", "5", "--p", "7"])
@example(["--out", "lift", "lift", "--p", "5", "--m", "2", "--residue", "1"])
def test_table_parser_agrees_with_argparse(argv):
    """Where the flag table reads an argv, it reads what argparse reads.

    And run_command answers every argv with the same status and bytes as
    when every argv goes to argparse.
    """
    parsed = cli._parse_argv(argv)
    if parsed is not None:
        assert vars(parsed) == vars(cli._parser().parse_args(list(argv)))
    answer = _outcome(argv)
    with mock.patch.object(cli, "_parse_argv", lambda argv: None):
        assert _outcome(argv) == answer


def test_every_command_and_flag_takes_the_table_path():
    argv = ["--in", "x.json", "--p", "5", "--m", "-3", "--N", "007", "--depth", "2", "--seed", "-0",
            "--samples", "4", "--out", "y.json", "--residue", "1", "--num", "2", "--den", "3",
            "--op", "raise"]
    for command in _COMMANDS:
        for tokens in ([command, *argv], [*argv, command], [*argv[:6], command, *argv[6:]]):
            parsed = cli._parse_argv(tokens)
            assert parsed is not None, tokens
            assert vars(parsed) == vars(cli._parser().parse_args(tokens))


@pytest.mark.parametrize("argv", [
    ["lift", "--p", "5", "--p", "7"],
    ["lift", "lift", "--p", "5"],
    ["--p", "5"],
    ["lift", "--p"],
    ["lift", "-h"],
    ["lift", "--", "--p", "5"],
    ["lift", "--dep", "2"],
    ["lift", "--p=5"],
    ["lift", "--bogus", "1"],
    *[["lift", "--p", value] for value in ("+4", " 5", "1_0", "\u0663", "\u00b2", "", "--5", "9" * 4301)],
    ["euler", "--op", "-x"],
], ids=["repeated-flag", "two-commands", "no-command", "no-value", "help", "double-dash",
        "abbreviation", "equals", "unknown-flag", "plus", "space", "underscore", "arabic-indic",
        "superscript", "empty", "double-minus", "past-digit-limit", "str-with-dash"])
def test_table_parser_declines_other_spellings(argv):
    assert cli._parse_argv(argv) is None
