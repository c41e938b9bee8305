"""Spans around padicspec's public entry points, installed from outside.

A Tracer wraps each entry point named in SPANS and rebinds every
padicspec module attribute (and module-level dict value) that refers to
the original function, since cli.py and spectral.py import functions by
name.  Each call records its wall time and its self time (wall time minus
the wall time of traced calls made inside it); some spans also add
counts taken from their public results.  uninstall() restores every
binding.  Library code is not modified.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _mul_sizes(tracer, parent, dur, args, result):
    tracer.counts[f"matrix.UMatrix.__mul__.n{args[0].n}.calls"] += 1
    if parent == "spectral.spectral_measure":
        tracer.counts["spectral.spectral_measure.mul_calls"] += 1
        tracer.counts["spectral.spectral_measure.mul_s"] += dur


def _lagrange_work(tracer, parent, dur, args, result):
    tracer.counts["spectral.teichmuller_spectral.candidates"] += args[0].ctx.p ** result.period
    tracer.counts["spectral.teichmuller_spectral.kept"] += len(result.points)


def _fixed_points(tracer, parent, dur, args, result):
    tracer.counts["unramified.sigma_fixed_points.points"] += len(result)


def _orbit_steps(tracer, parent, dur, args, result):
    tracer.counts["padic.classify_orbit.steps"] += result.steps


_LADDER_OPS = (
    "kochubei_raise", "kochubei_lower", "kochubei_shift", "number_operator",
    "position_operator", "tate_raise", "tate_derivative", "euler_operator",
)

# (module, attribute path, span name, result hook)
SPANS = (
    ("cli", "run_command", "cli", None),
    ("padic", "teichmuller_lift", "padic.teichmuller_lift", None),
    ("padic", "teichmuller_digits", "padic.teichmuller_digits", None),
    ("padic", "classify_orbit", "padic.classify_orbit", _orbit_steps),
    ("finite_field", "FqElement.__pow__", "finite_field.FqElement.__pow__", None),
    ("finite_field", "finite_field", "finite_field.finite_field", None),
    ("unramified", "sigma_fixed_points", "unramified.sigma_fixed_points", _fixed_points),
    ("unramified", "teichmuller_lift_ext", "unramified.teichmuller_lift_ext", None),
    ("unramified", "ext_ring", "unramified.ext_ring", None),
    ("matrix", "UMatrix.__mul__", "matrix.UMatrix.__mul__", _mul_sizes),
    ("matrix", "UMatrix.window_pow", "matrix.UMatrix.window_pow", None),
    ("matrix", "certify_orthogonal_projection", "matrix.certify_orthogonal_projection", None),
    ("spectral", "hermite_digits_matrix", "spectral.hermite_digits_matrix", None),
    ("spectral", "teichmuller_spectral", "spectral.teichmuller_spectral", _lagrange_work),
    ("spectral", "spectral_measure", "spectral.spectral_measure", None),
    ("spectral", "spectral_integral", "spectral.spectral_integral", None),
    ("spectral", "spectrum_diameter", "spectral.spectrum_diameter", None),
    ("spectral", "jordan_decompose", "spectral.jordan_decompose", None),
    ("spectral", "uncertainty_check", "spectral.uncertainty_check", None),
) + tuple(("ladders", name, "ladders.ops", None) for name in _LADDER_OPS)


class Tracer:
    """Per-span call counts, wall time and self time, aggregated by name."""

    def __init__(self):
        self.calls = Counter()
        self.wall = Counter()
        self.self_time = Counter()
        self.counts = defaultdict(float)
        self._stack = []  # frames: [name, wall time of traced children]
        self._restore = []

    def _wrap(self, fn, name, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.wall[name] += dur
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self, stack[-1][0] if stack else None, dur, args, result)
            return result

        return traced

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "padicspec" or key.startswith("padicspec.")]
        for modname, path, name, hook in SPANS:
            owner = sys.modules[f"padicspec.{modname}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, hook)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapper
                                self._restore.append((value.__setitem__, k, original))

    def _rebind(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((functools.partial(setattr, owner), key, original))

    def uninstall(self):
        for put, key, original in reversed(self._restore):
            put(key, original)
        self._restore.clear()
