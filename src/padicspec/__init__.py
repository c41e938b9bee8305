"""Exact p-adic arithmetic and operator spectral theory at fixed precision.

The package works modulo p^m throughout: scalars in Q_p with explicit
valuations, unramified extension rings, matrices under the sup norm,
Lagrange spectral projectors for operators fixed by iterates of the
p-power map, the projector-valued ball measure and its integral, the
multiplicative/nilpotent splitting, the spectrum-diameter commutator
bound, and ladder operators on Mahler and Tate coefficient spaces.
"""

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
from .matrix import (
    ProjectionCertificate,
    UMatrix,
    certify_orthogonal_projection,
    determinant,
    inverse,
    is_gl_zp,
    is_orthonormal_columns,
    sample_unit_vector,
    sample_vector,
    vector_valuation,
)
from .padic import (
    INFINITE,
    NormOutOfRangeError,
    OrbitKind,
    OrbitReport,
    PadicScalar,
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
from .spectral import (
    HermiteDigitsMatrix,
    JordanPair,
    NotHermiteError,
    PeriodExceededError,
    SpectralDecomposition,
    SpectralMeasure,
    SpectrumDiameter,
    UncertaintyReport,
    hermite_digits_matrix,
    jordan_decompose,
    lift_idempotent,
    operator_spectrum,
    spectral_integral,
    spectral_measure,
    spectrum_diameter,
    teichmuller_spectral,
    uncertainty_check,
    uncertainty_checks,
)
from .unramified import (
    enumerate_teichmuller,
    reduce_mod_p,
    sigma_fixed_points,
    teichmuller_lift_ext,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
