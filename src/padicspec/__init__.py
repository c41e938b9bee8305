"""Exact p-adic arithmetic and operator spectral theory at fixed precision.

The package works modulo p^m throughout: scalars in Q_p with explicit
valuations, unramified extension rings, matrices under the sup norm,
Lagrange spectral projectors for operators fixed by iterates of the
p-power map, the projector-valued ball measure and its integral, the
multiplicative/nilpotent splitting, the spectrum-diameter commutator
bound, and ladder operators on Mahler and Tate coefficient spaces.

Importing the package loads the scalar modules (padic, finite_field,
unramified, ladders) and binds their names.  The operator modules,
matrix and spectral, are imported on the first use of one of their
names (_LAZY) through the module __getattr__ of PEP 562, so a process
that only lifts, expands, classifies scalars or applies ladder operators
never compiles them.  Every name of __all__ is an attribute of the
package either way, and `from padicspec import *` binds them all.
"""

import importlib as _importlib

from .finite_field import ExtRing, ExtScalar, FqElement, build_modulus, ext_ring, finite_field, fq_frobenius
from .ladders import (
    MahlerVector,
    TateVector,
    commutator_defect,
    euler_operator,
    interior_basis,
    kochubei_lower,
    kochubei_raise,
    kochubei_shift,
    number_operator,
    position_operator,
    tate_creation,
    tate_derivative,
    tate_raise,
)
from .padic import (
    INFINITE,
    NormOutOfRangeError,
    NotHermiteError,
    OrbitKind,
    OrbitReport,
    PadicScalar,
    PeriodExceededError,
    PrecisionContext,
    TeichDigits,
    classify_orbit,
    frobenius_step,
    norm_from_valuation,
    scalar_from_rational,
    teichmuller_digits,
    teichmuller_lift,
    teichmuller_points,
)
from .unramified import (
    enumerate_teichmuller,
    reduce_mod_p,
    sigma_fixed_points,
    teichmuller_lift_ext,
)

# name -> the operator module that defines it; each module's own name stands for the module
_LAZY = {
    name: module
    for module, names in (
        ("matrix", "matrix ProjectionCertificate UMatrix certify_orthogonal_projection determinant"
                   " inverse is_gl_zp is_orthonormal_columns sample_unit_vector sample_vector"
                   " vector_valuation"),
        ("spectral", "spectral HermiteDigitsMatrix JordanPair SpectralDecomposition SpectralMeasure"
                     " SpectrumDiameter UncertaintyReport hermite_digits_matrix jordan_decompose"
                     " lift_idempotent operator_spectrum spectral_integral spectral_measure"
                     " spectrum_diameter teichmuller_spectral uncertainty_check uncertainty_checks"),
    )
    for name in names.split()
}

__all__ = sorted([name for name in dir() if not name.startswith("_")] + list(_LAZY))
__version__ = "0.1.0"


def __getattr__(name: str):
    """A name of matrix or spectral, imported with its module on first use and then bound here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _importlib.import_module(f"{__name__}.{module}")  # binds the module's own name here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
