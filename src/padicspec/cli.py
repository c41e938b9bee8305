"""Batch command line interface.

One grammar serves every command: `padicspec COMMAND [flags]`, where all
commands share one flag set, a command ignores the flags it does not
read, and flags may come before the command name.  The flags are listed
once, in _FLAGS.  An argv of one command and distinct exact flags, each
with one plain value, is read straight from that table; argparse parses
every other argv (help, errors, abbreviations, --flag=value, repeats),
and both give the same namespace wherever both apply.  The argparse
parser is built, and argparse imported, the first time such an argv
arrives, so a process whose argvs all come from the table never loads
it.
lift and digits take p and m from --p/--m; every other command reads
them from the problem file named by --in.

Problem files are JSON documents.  Scalars are {"v": valuation, "u":
"unit residue as a decimal string"}, with u = "0" denoting zero.
Matrices are row-major arrays of scalars under "entries", with "p" and
"m" at the top level and command-specific fields ("N", "depth") beside
them.  Extension scalars serialise as arrays of base scalars in
coordinate order, constant coordinate first; they appear in outputs
only.  An answer's scalars are written as text straight from each
one's (v, u), with no dict built per scalar (_Scalars, _scalars_text).
A residue mod p^m, such as an entry of the certified rows that spectral
and hermite print, their eigenvalues and every extension coordinate,
gives its valuation and the rest; a PadicScalar or its (v, u) pair
(the relative measure nodes and centers, the integral and jordan
matrices, and the lone scalars) gives its own.

Exit status: 0 on success, 1 on mathematical rejection (with a
structured reason, including a norm that a double cannot hold) or on
any other exception, an internal defect (kind "internal", with the
exception's type name and message), 2 on malformed input (with a
diagnostic naming the offending field, "out" for an --out path that
cannot be written, "argv" for an argv that does not parse).  -h/--help
exits 0 with {"help": usage text}; the CLI prints nothing but its one
document, whose text is exactly that of json.dumps(document,
sort_keys=True, indent=2) plus a newline.  Output is byte-identical
across runs for identical inputs; every randomised check takes an
explicit seed and defaults to 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from types import SimpleNamespace
from typing import Optional, Sequence

from .finite_field import ENUMERATION_LIMIT, ExtScalar
from .ladders import (
    CoeffVector,
    euler_operator,
    kochubei_lower,
    kochubei_raise,
    kochubei_shift,
    number_operator,
    position_operator,
    tate_derivative,
    tate_raise,
)
from .matrix import UMatrix, certify_orthogonal_projection, sample_unit_vector
from .padic import (
    INFINITE,
    NormOutOfRangeError,
    PadicScalar,
    PrecisionContext,
    _dot_units,
    _units,
    classify_orbit,
    int_valuation,
    scalar_from_rational,
    teichmuller_digits,
    teichmuller_lift,
)
from .spectral import (
    NotHermiteError,
    PeriodExceededError,
    hermite_digits_matrix,
    jordan_decompose,
    spectral_integral,
    spectral_measure,
    spectrum_diameter,
    teichmuller_spectral,
    uncertainty_checks,
)

MAX_DIMENSION = 64
MAX_PRECISION = 64
MAX_SAMPLES = 1024
MAX_PERIOD_BOUND = 64  # --N of classify and jordan


class SchemaError(Exception):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"field '{fieldname}': {message}")
        self.fieldname = fieldname


class MathRejection(Exception):
    def __init__(self, reason: dict):
        super().__init__(reason.get("reason", "rejected"))
        self.reason = reason


# -- serialization -------------------------------------------------------------


class _Scalars(tuple):
    """(entries, p, listed): scalar documents as one leaf of an answer, written by _scalars_text.

    With p the prime, the entries are residues mod p^m, each an int or
    an extension entry's tuple of coordinates; with p None, PadicScalars
    or their (valuation, unit) pairs, (INFINITE, 0) for zero.
    A listed leaf is the list of its entries, any other its one entry.
    """


def _residue_vu(r: int, p: int) -> tuple:
    """(v, u) of a residue mod p^m, (0, 0) for zero: a unit is its own u, any other int takes one valuation."""
    v = int_valuation(r, p) if r and not r % p else 0
    return v, r // p**v


def _scalars(xs: Sequence, listed: bool = True) -> _Scalars:
    """PadicScalars by their own relative (v, u); ExtScalars by their coordinates, which are residues."""
    if xs and isinstance(xs[0], ExtScalar):
        return _Scalars(([x.coords for x in xs], xs[0].ctx.p, listed))
    return _Scalars((xs, None, listed))


def _matrix(rows: tuple, p: Optional[int] = None) -> dict:
    """A matrix's document: residue rows mod p^m given p, else rows of PadicScalars or their (v, u) pairs."""
    return {"entries": _Scalars(([e for row in rows for e in row], p, True)), "n": len(rows)}


def _scalars_text(entries: Sequence, p: Optional[int], listed: bool, indent: str) -> str:
    """The text of a _Scalars leaf's documents in json.dumps(..., sort_keys=True, indent=2) at indent.

    A scalar's document is {"u": str(u), "v": v}.
    """
    at = indent + "  " if listed else indent  # where an entry starts

    def text(x, start: str) -> str:  # one scalar's document, starting at indent start
        v, u = _residue_vu(x, p) if p else x if type(x) is tuple else _units(x)
        v = v if u else 0  # a zero pair is (INFINITE, 0)
        return f'{{\n{start}  "u": "{u}",\n{start}  "v": {v}\n{start}}}'

    items = [  # an extension entry is the list of its coordinates' documents
        f"[\n{at}  " + f",\n{at}  ".join([text(c, at + "  ") for c in e]) + f"\n{at}]"
        if p and type(e) is tuple else text(e, at)
        for e in entries
    ]
    if not listed:
        return items[0]
    return f"[\n{at}" + f",\n{at}".join(items) + f"\n{indent}]" if items else "[]"


def scalar_from_json(doc, ctx: PrecisionContext, fieldname: str) -> PadicScalar:
    if not isinstance(doc, dict):
        raise SchemaError(fieldname, "scalar must be an object with 'v' and 'u'")
    if "u" not in doc or "v" not in doc:
        raise SchemaError(fieldname, "scalar must carry 'v' and 'u'")
    u_raw = doc["u"]
    if not isinstance(u_raw, str) or not u_raw.isdecimal():
        raise SchemaError(fieldname + ".u", "unit must be a decimal string")
    # int()'s digit limit (4300 by default; 0, or no such function before Python 3.10.7: none)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and len(u_raw) > limit:
        raise SchemaError(fieldname + ".u", f"unit has more than {limit} digits")
    v_raw = doc["v"]
    if not isinstance(v_raw, int) or isinstance(v_raw, bool):
        raise SchemaError(fieldname + ".v", "valuation must be an integer")
    unit = int(u_raw)
    if unit == 0:
        return PadicScalar.zero(ctx)
    if unit % ctx.p == 0:
        raise SchemaError(fieldname + ".u", "unit residue is divisible by p")
    return PadicScalar(ctx, v_raw, unit % ctx.modulus)


def valuation_to_json(v):
    return None if v == INFINITE else int(v)


# -- input files ----------------------------------------------------------------


def _load_document(path: Optional[str]) -> dict:
    if not path:
        raise SchemaError("in", "an input file is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError("in", f"cannot read file: {exc}")
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, over-long numbers
        raise SchemaError("in", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError("in", "top level must be a JSON object")
    return doc


def _context_from(doc: dict) -> PrecisionContext:
    p = doc.get("p")
    if not isinstance(p, int) or isinstance(p, bool):
        raise SchemaError("p", "prime p is required and must be an integer")
    m = doc.get("m")
    if not isinstance(m, int) or isinstance(m, bool):
        raise SchemaError("m", "precision m is required and must be an integer")
    if not 1 <= m <= MAX_PRECISION:
        raise SchemaError("m", f"precision must be in [1, {MAX_PRECISION}]")
    try:
        return PrecisionContext(p, m)
    except ValueError as exc:
        raise SchemaError("p", str(exc))


def _matrix_from(doc: dict, ctx: PrecisionContext, fieldname: str = "entries") -> UMatrix:
    entries = doc.get(fieldname)
    if not isinstance(entries, list) or not entries:
        raise SchemaError(fieldname, "a nonempty row-major array of scalars is required")
    n = math.isqrt(len(entries))
    if n * n != len(entries):
        raise SchemaError(fieldname, f"length {len(entries)} is not a perfect square")
    if n > MAX_DIMENSION:
        raise SchemaError(fieldname, f"dimension {n} exceeds the bound {MAX_DIMENSION}")
    declared = doc.get("n")
    if declared is not None:
        if not isinstance(declared, int) or isinstance(declared, bool):
            raise SchemaError("n", "declared dimension must be an integer")
        if declared != n:
            raise SchemaError("n", f"declared dimension {declared} does not match {n}")
    scalars = [
        scalar_from_json(entry, ctx, f"{fieldname}[{i}]") for i, entry in enumerate(entries)
    ]
    rows = [scalars[i * n : (i + 1) * n] for i in range(n)]
    return UMatrix.from_scalars(rows)


def _vector_from(doc: dict, ctx: PrecisionContext, fieldname: str, length: int) -> tuple:
    raw = doc.get(fieldname)
    if not isinstance(raw, list) or len(raw) != length:
        raise SchemaError(fieldname, f"an array of {length} scalars is required")
    return tuple(
        scalar_from_json(entry, ctx, f"{fieldname}[{i}]") for i, entry in enumerate(raw)
    )


def _period_from(args, doc: dict, ctx: PrecisionContext) -> int:
    period = args.N if args.N is not None else doc.get("N", 1)
    if not isinstance(period, int) or isinstance(period, bool):
        raise SchemaError("N", "period must be an integer")
    if period < 1:
        raise SchemaError("N", "period must be >= 1")
    # p >= 2, so a period past the limit's bit length is refused before p**period
    if period >= ENUMERATION_LIMIT.bit_length() or ctx.p**period > ENUMERATION_LIMIT:
        raise SchemaError("N", f"p^N exceeds the enumeration bound {ENUMERATION_LIMIT}")
    return period


def _period_bound_from(args) -> int:
    """--N of classify and jordan: the longest sigma-period searched for.

    Their scan takes up to max(m*N + 4, P) + N sigma-steps, P the
    pre-period bound of padic.pre_period_bound, and jordan keeps every
    iterate, so the bound is capped like n and m.
    """
    bound = args.N if args.N is not None else 8
    if not 1 <= bound <= MAX_PERIOD_BOUND:
        raise SchemaError("N", f"period bound must be in [1, {MAX_PERIOD_BOUND}]")
    return bound


def _samples_from(args) -> int:
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise SchemaError("samples", f"sample count must be in [1, {MAX_SAMPLES}]")
    return args.samples


# -- commands ------------------------------------------------------------------------
#
# Each command takes the parsed flags, the problem document (None for the
# flag-only commands lift and digits) and its precision context, and
# returns the body of its answer; run_command adds "p" and "m".


def _cmd_lift(args, doc, ctx: PrecisionContext) -> dict:
    residue = _flag_int(args.residue, "residue")
    if not 0 <= residue < ctx.p:
        raise SchemaError("residue", f"must be in [0, {ctx.p})")
    value = teichmuller_lift(residue, ctx)
    return {"residue": residue, "value": _scalars((value,), listed=False)}


def _cmd_digits(args, doc, ctx: PrecisionContext) -> dict:
    num = _flag_int(args.num, "num")
    den = _flag_int(args.den, "den", default=1)
    if den == 0:
        raise SchemaError("den", "denominator must be nonzero")
    scalar = scalar_from_rational(num, den, ctx)
    expansion = teichmuller_digits(scalar)
    return {
        "value": _scalars((scalar,), listed=False),
        "lead_valuation": expansion.lead_valuation,
        "digits": _scalars(expansion.digits),
    }


def _cmd_classify(args, doc: dict, ctx: PrecisionContext) -> dict:
    bound = _period_bound_from(args)
    if "entries" in doc:
        subject = _matrix_from(doc, ctx)
    elif "scalar" in doc:
        subject = scalar_from_json(doc["scalar"], ctx, "scalar")
    else:
        raise SchemaError("entries", "provide 'entries' (matrix) or 'scalar'")
    try:
        report = classify_orbit(subject, bound)
    except ValueError as exc:
        raise MathRejection({"kind": "precondition", "reason": str(exc)})
    out = {"kind": report.kind.value, "steps": report.steps}
    if report.period is not None:
        out["period"] = report.period
    if report.limit is not None:
        if isinstance(report.limit, UMatrix):
            out["limit"] = _matrix(report.limit.rows)
        else:
            out["limit"] = _scalars((report.limit,), listed=False)
    return out


def _cmd_spectral(args, doc: dict, ctx: PrecisionContext) -> dict:
    period = _period_from(args, doc, ctx)
    matrix = _matrix_from(doc, ctx)
    try:
        decomposition = teichmuller_spectral(matrix, period)
    except ValueError as exc:
        raise MathRejection({"kind": "not_teichmuller", "reason": str(exc)})
    return {
        "period": decomposition.period,
        "residual_identity_defect": decomposition.residual_identity_defect,
        "points": [
            {"eigenvalue": _Scalars(((lam,), ctx.p, False)), "projector": _matrix(rows, ctx.p)}
            for lam, rows in decomposition.point_residues
        ],
    }


def _measure_inputs(args, doc: dict, ctx: PrecisionContext):
    depth = args.depth if args.depth is not None else doc.get("depth", ctx.m)
    if not isinstance(depth, int) or isinstance(depth, bool) or not 1 <= depth <= ctx.m:
        raise SchemaError("depth", f"depth must be an integer in [1, {ctx.m}]")
    matrix = _matrix_from(doc, ctx)
    return matrix, spectral_measure(matrix, depth)


def _cmd_measure(args, doc: dict, ctx: PrecisionContext) -> dict:
    _, measure = _measure_inputs(args, doc, ctx)
    nodes = []
    for address, rows in measure.node_rows:
        nodes.append(
            {
                "address": list(address),
                "center": _Scalars(((measure.center_units(address),), None, False)),
                "projector": _matrix(rows),
            }
        )
    return {"depth": measure.depth, "lead_valuation": measure.lead_valuation, "nodes": nodes}


def _cmd_integral(args, doc: dict, ctx: PrecisionContext) -> dict:
    matrix, measure = _measure_inputs(args, doc, ctx)
    identity_check, reconstruction = spectral_integral(measure)
    # (reconstruction - matrix).valuation without building the difference: each entry is r + (-1) a
    minus = ((0, 1), (0, ctx.modulus - 1))
    entries = map(itertools.chain.from_iterable, (reconstruction.rows, matrix.rows))
    error = min(_dot_units(ctx, (_units(r), _units(a)), minus)[0] for r, a in zip(*entries))
    return {
        "depth": measure.depth,
        "identity_check": _matrix(identity_check.rows),
        "reconstruction": _matrix(reconstruction.rows),
        "error_valuation": valuation_to_json(error),
    }


def _cmd_jordan(args, doc: dict, ctx: PrecisionContext) -> dict:
    bound = _period_bound_from(args)
    matrix = _matrix_from(doc, ctx)
    try:
        pair = jordan_decompose(matrix, bound)
    except ValueError as exc:
        raise MathRejection({"kind": "precondition", "reason": str(exc)})
    return {
        "semisimple": _matrix(pair.semisimple.rows),
        "nilpotent": _matrix(pair.nilpotent.rows),
        "period": pair.period,
        "steps_to_kill": pair.steps_to_kill,
    }


def _cmd_hermite(args, doc: dict, ctx: PrecisionContext) -> dict:
    period = _period_from(args, doc, ctx)
    matrix = _matrix_from(doc, ctx)
    expansion = hermite_digits_matrix(matrix, period)
    return {
        "period": expansion.period,
        "lead_valuation": expansion.lead_valuation,
        "digits": [_matrix(rows, ctx.p) for rows in expansion.digit_rows],
    }


def _cmd_diam(args, doc: dict, ctx: PrecisionContext) -> dict:
    period = _period_from(args, doc, ctx)
    matrix = _matrix_from(doc, ctx)
    try:
        report = spectrum_diameter(matrix, period)
    except ValueError as exc:
        raise MathRejection({"kind": "precondition", "reason": str(exc)})
    return {
        "period": report.period,
        "diameter": report.diameter,
        "diameter_valuation": valuation_to_json(report.diameter_valuation),
        "operator_norm": report.operator_norm,
        "spectrum": _scalars(report.spectrum),
    }


def _cmd_uncertainty(args, doc: dict, ctx: PrecisionContext) -> dict:
    period = _period_from(args, doc, ctx)
    samples = _samples_from(args)
    a = _matrix_from(doc, ctx, "A")
    b = _matrix_from(doc, ctx, "B")
    if a.n != b.n:
        raise SchemaError("B", "A and B must have the same dimension")
    if "psi" in doc:
        vectors = [_vector_from(doc, ctx, "psi", a.n)]
    else:
        rng = random.Random(args.seed)
        vectors = [sample_unit_vector(ctx, a.n, rng) for _ in range(samples)]
    try:
        results = uncertainty_checks(a, b, vectors, period)
    except ValueError as exc:
        raise MathRejection({"kind": "precondition", "reason": str(exc)})
    reports = [
        {
            "psi": _scalars(psi),
            "lhs_norm": result.lhs_norm,
            "rhs_norm": result.rhs_norm,
            "holds": result.holds,
        }
        for psi, result in zip(vectors, results)
    ]
    return {"period": period, "holds": all(r["holds"] for r in reports), "checks": reports}


_LADDER_OPS = {
    "raise": kochubei_raise,
    "lower": kochubei_lower,
    "shift": kochubei_shift,
    "number": number_operator,
    "position": position_operator,
}

_TATE_OPS = {
    "euler": euler_operator,
    "raise": tate_raise,
    "derivative": tate_derivative,
}

# command -> (operation table, its name in diagnostics, the default --op)
_LADDERS = {
    "kochubei": (_LADDER_OPS, "ladder", "number"),
    "euler": (_TATE_OPS, "Tate", "euler"),
}


def _coeff_vector(doc: dict, ctx: PrecisionContext) -> CoeffVector:
    raw = doc.get("coeffs")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("coeffs", "a nonempty array of scalars is required")
    coeffs = tuple(
        scalar_from_json(entry, ctx, f"coeffs[{i}]") for i, entry in enumerate(raw)
    )
    return CoeffVector(ctx, coeffs)


def _cmd_ladder(args, doc: dict, ctx: PrecisionContext) -> dict:
    table, label, default = _LADDERS[args.command]
    name = args.op if args.op is not None else default
    op = table.get(name)
    if op is None:
        raise SchemaError("op", f"unknown {label} operation '{name}'")
    result = op(_coeff_vector(doc, ctx))
    return {
        "op": name,
        "coeffs": _scalars(result.coeffs),
        "truncated": result.truncated,
    }


def _cmd_certify(args, doc: dict, ctx: PrecisionContext) -> dict:
    samples = _samples_from(args)
    matrix = _matrix_from(doc, ctx)
    cert = certify_orthogonal_projection(matrix, samples=samples, seed=args.seed)
    return {
        "idempotency_defect": cert.idempotency_defect,
        "norm_of_pi": cert.norm_of_pi,
        "max_decomposition_checked": cert.max_decomposition_checked,
        "samples": cert.samples,
        "unit_ball_stable": cert.unit_ball_stable,
        "reduction_idempotent": cert.reduction_idempotent,
        "valid": cert.valid,
        "failures": list(cert.failures),
    }


def _flag_int(value, name: str, default: Optional[int] = None) -> int:
    if value is None:
        if default is not None:
            return default
        raise SchemaError(name, "flag is required")
    return value


_COMMANDS = {
    "lift": _cmd_lift,
    "digits": _cmd_digits,
    "classify": _cmd_classify,
    "spectral": _cmd_spectral,
    "measure": _cmd_measure,
    "integral": _cmd_integral,
    "jordan": _cmd_jordan,
    "hermite": _cmd_hermite,
    "diam": _cmd_diam,
    "uncertainty": _cmd_uncertainty,
    "kochubei": _cmd_ladder,
    "euler": _cmd_ladder,
    "certify-projection": _cmd_certify,
}

_FLAG_COMMANDS = ("lift", "digits")  # read p and m from --p/--m, not from a file


class _HelpRequested(Exception):
    """-h/--help was given; the exception text is the parser's help."""


# The shared flag set: (option, dest, int or str, default, help).
_FLAGS = (
    ("--in", "infile", str, None, "JSON problem file"),
    ("--p", "p", int, None, None),
    ("--m", "m", int, None, None),
    ("--N", "N", int, None, None),
    ("--depth", "depth", int, None, None),
    ("--seed", "seed", int, 0, None),
    ("--samples", "samples", int, 10, None),
    ("--out", "outfile", str, None, None),
    ("--residue", "residue", int, None, None),
    ("--num", "num", int, None, None),
    ("--den", "den", int, None, None),
    ("--op", "op", str, None, None),
)


@functools.cache
def _parser():
    """The argparse parser of every argv the flag table does not read, built on first use.

    One parser serves every command: each reads the flags it needs.  It
    raises where argparse would print and exit, and parse_args keeps no
    state between calls, so one parser serves the whole process.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise SchemaError("argv", message)

        def print_help(self, file=None):
            raise _HelpRequested(self.format_help())

    parser = _Parser(
        prog="padicspec",
        description="Batch interface to the p-adic spectral engine.",
        # a fixed width keeps the help document independent of the terminal
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=80),
    )
    parser.add_argument("command", choices=_COMMANDS)
    for option, dest, kind, default, text in _FLAGS:
        parser.add_argument(option, dest=dest, type=kind, default=default, help=text)
    return parser


_FLAG_KINDS = {option: (dest, kind) for option, dest, kind, _, _ in _FLAGS}
_DEFAULTS = {dest: default for _, dest, _, default, _ in _FLAGS}


def _parse_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace _parser().parse_args(argv) returns, or None to let it parse.

    Reads argv made of one command and distinct table flags, each followed
    by one value: an int as ASCII -?[0-9]+ that int() converts (at most
    sys.get_int_max_str_digits() digits, 4300 by default), a
    str not starting with '-'.  Anything else (help, '--', abbreviations,
    --flag=value, repeats, other int spellings, unknown tokens) returns
    None, so argparse keeps its own answer and messages.
    """
    values = dict(_DEFAULTS)
    seen = set()
    command = None
    tokens = iter(argv)
    for token in tokens:
        flag = _FLAG_KINDS.get(token)
        if flag is None:
            if command is not None or token not in _COMMANDS:
                return None
            command = token
            continue
        value = next(tokens, None)
        if value is None or token in seen:
            return None
        seen.add(token)
        dest, kind = flag
        if kind is int:
            digits = value[1:] if value[:1] == "-" else value
            if not (digits.isascii() and digits.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past the interpreter's digit limit
                return None
        elif value[:1] == "-":
            return None
        values[dest] = value
    if command is None:
        return None
    return SimpleNamespace(command=command, **values)


def _malformed(exc: SchemaError) -> dict:
    return {"error": {"kind": "malformed_input", "field": exc.fieldname, "reason": str(exc)}}


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# JSON text of each leaf type, looked up by exact type: bool has its own
# entry, so True and False never reach int.__repr__.
_LEAVES = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _render(value, indent: str, out: list) -> None:
    """Append the pieces of json.dumps(value, sort_keys=True, indent=2) to out.

    json's own encoder drops to pure Python generators whenever indent is
    set; this renders the same layout with the C string escaper, and
    renders a container's leaves in place instead of recursing into them.
    A _Scalars leaf is written as the scalar documents it stands for.
    """
    kind = type(value)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        out.append(leaf(value))
        return
    inner = indent + "  "
    if kind is dict:
        if not value:
            out.append("{}")
            return
        opener = "{\n" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(opener + _encode_str(key) + ": ")
            item = value[key]
            leaf = _LEAVES.get(type(item))
            if leaf is not None:
                out.append(leaf(item))
            else:
                _render(item, inner, out)
            opener = ",\n" + inner
        out.append("\n" + indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        opener = "[\n" + inner
        for item in value:
            leaf = _LEAVES.get(type(item))
            if leaf is not None:
                out.append(opener + leaf(item))
            else:
                out.append(opener)
                _render(item, inner, out)
            opener = ",\n" + inner
        out.append("\n" + indent + "]")
    elif kind is _Scalars:
        out.append(_scalars_text(*value, indent))
    else:
        raise TypeError(f"{kind.__name__} is not JSON serializable")


def _dump(document: dict) -> str:
    """The text of json.dumps(document, sort_keys=True, indent=2) plus a newline."""
    out: list = []
    _render(document, "", out)
    out.append("\n")
    return "".join(out)


def run_command(argv: Sequence[str], stream=None) -> int:
    """Parse argv, run one command, emit a JSON document.

    Returns the process exit status; the document goes to --out or the
    given stream (stdout by default).  An --out path that cannot be
    written sends a malformed-input document on field "out" to the
    stream instead, with exit status 2.  An argv that does not parse
    sends one on field "argv" (exit 2), and -h/--help sends
    {"help": usage text} (exit 0); nothing else is printed.
    """
    stream = stream or sys.stdout
    args = _parse_argv(argv)
    if args is None:
        try:
            args = _parser().parse_args(list(argv))
        except _HelpRequested as exc:
            stream.write(_dump({"help": str(exc)}))
            return 0
        except SchemaError as exc:
            stream.write(_dump(_malformed(exc)))
            return 2
    try:
        if args.command in _FLAG_COMMANDS:
            doc = None
            ctx = _context_from({"p": _flag_int(args.p, "p"), "m": _flag_int(args.m, "m")})
        else:
            doc = _load_document(args.infile)
            ctx = _context_from(doc)
        document = {"p": ctx.p, "m": ctx.m, **_COMMANDS[args.command](args, doc, ctx)}
        status = 0
    except SchemaError as exc:
        document = _malformed(exc)
        status = 2
    except MathRejection as exc:
        document = {"error": exc.reason}
        status = 1
    except NotHermiteError as exc:
        document = {"error": {"kind": "not_hermite", "stage": exc.stage,
                              "defect_norm": exc.defect_norm, "reason": exc.reason}}
        status = 1
    except PeriodExceededError as exc:
        document = {"error": {"kind": "period_exceeded", "reason": str(exc),
                              "period_bound": exc.period_bound}}
        status = 1
    except NormOutOfRangeError as exc:
        document = {"error": {"kind": "norm_out_of_range", "p": exc.p,
                              "valuation": exc.valuation, "reason": str(exc)}}
        status = 1
    except Exception as exc:  # an internal defect: still one document, no traceback
        document = {"error": {"kind": "internal", "exception": type(exc).__name__,
                              "reason": str(exc)}}
        status = 1
    if args.outfile:
        try:
            with open(args.outfile, "w", encoding="utf-8") as handle:
                handle.write(_dump(document))
            return status
        except OSError as exc:
            document = _malformed(SchemaError("out", f"cannot write file: {exc}"))
            status = 2
    stream.write(_dump(document))
    return status


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
