"""Creation/annihilation ladders on truncated coefficient spaces.

Two function spaces are realised purely in coefficients, where the sup
norm is exactly the maximum coefficient norm:

* Mahler space: coefficients against the binomial-coefficient basis
  P_n(x) = x(x-1)...(x-n+1)/n!.  The raising operator f(x) -> x f(x-1)
  sends P_n to (n+1) P_{n+1}; the lowering operator f(x) -> f(x+1) - f(x)
  shifts coefficients down one slot; their composition is diagonal with
  eigenvalue n on P_n.  The shift f(x) -> f(x+1) is 1 + lowering.

* Tate space: coefficients against monomials X^k with the Gauss norm.
  Raising is multiplication by X, lowering is d/dX, and the degree
  operator X d/dX is diagonal with eigenvalue k on X^k.

Truncation at length M annihilates the top slot of a raising step; that
loss is flagged on the result, never silent.  Interior commutator
identities [lower, raise] = 1 hold exactly away from the boundary.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .padic import INFINITE, PadicScalar, PrecisionContext, _Frozen, _setattr, norm_from_valuation


class CoeffVector(_Frozen):
    """Truncated coefficient sequence with the sup norm of its coefficients.

    truncated is shown by repr but left out of equality and hashing.
    """

    __slots__ = _fields = ("ctx", "coeffs", "truncated")
    _compare = ("ctx", "coeffs")

    def __init__(self, ctx: PrecisionContext, coeffs: tuple, truncated: bool = False):
        _setattr(self, "ctx", ctx)
        _setattr(self, "coeffs", coeffs)
        _setattr(self, "truncated", truncated)
        if not self.coeffs:
            raise ValueError("coefficient vector must be nonempty")

    @classmethod
    def from_ints(cls, values: Sequence[int], ctx: PrecisionContext) -> "CoeffVector":
        return cls(ctx, tuple(PadicScalar.from_int(v, ctx) for v in values))

    @classmethod
    def zero(cls, length: int, ctx: PrecisionContext) -> "CoeffVector":
        return cls(ctx, (PadicScalar.zero(ctx),) * length)

    @classmethod
    def basis(cls, index: int, length: int, ctx: PrecisionContext) -> "CoeffVector":
        coeffs = [PadicScalar.zero(ctx)] * length
        coeffs[index] = PadicScalar.one(ctx)
        return cls(ctx, tuple(coeffs))

    @property
    def length(self) -> int:
        return len(self.coeffs)

    @property
    def valuation(self):
        vals = [c.valuation for c in self.coeffs if not c.is_zero]
        return min(vals) if vals else INFINITE

    @property
    def norm(self) -> float:
        return norm_from_valuation(self.ctx.p, self.valuation)

    def __add__(self, other: "CoeffVector") -> "CoeffVector":
        self._check(other)
        return CoeffVector(
            self.ctx,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.truncated or other.truncated,
        )

    def __sub__(self, other: "CoeffVector") -> "CoeffVector":
        self._check(other)
        return CoeffVector(
            self.ctx,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            self.truncated or other.truncated,
        )

    def scale(self, c: PadicScalar) -> "CoeffVector":
        return CoeffVector(self.ctx, tuple(c * a for a in self.coeffs), self.truncated)

    def _check(self, other: "CoeffVector"):
        if self.ctx != other.ctx or self.length != other.length:
            raise ValueError("mismatched coefficient spaces")


# The Mahler (binomial-basis) and Tate (monomial-basis, Gauss norm) spaces
# share one coefficient representation.
MahlerVector = CoeffVector
TateVector = CoeffVector


# -- the Mahler-space ladder ----------------------------------------------------


def kochubei_raise(f: MahlerVector) -> MahlerVector:
    """f(x) -> x f(x-1): coefficient n moves up one slot scaled by n+1.

    The top input coefficient falls off the truncation; when it was
    nonzero the result is flagged as truncated.
    """
    ctx = f.ctx
    out = [PadicScalar.zero(ctx)]
    for n in range(f.length - 1):
        out.append(PadicScalar.from_int(n + 1, ctx) * f.coeffs[n])
    lost = not f.coeffs[f.length - 1].is_zero
    return MahlerVector(ctx, tuple(out), f.truncated or lost)


def kochubei_lower(f: MahlerVector) -> MahlerVector:
    """f(x) -> f(x+1) - f(x): coefficients shift down one slot."""
    ctx = f.ctx
    out = list(f.coeffs[1:]) + [PadicScalar.zero(ctx)]
    return MahlerVector(ctx, tuple(out), f.truncated)


def kochubei_shift(f: MahlerVector) -> MahlerVector:
    """f(x) -> f(x+1), which is identity plus the lowering operator."""
    return f + kochubei_lower(f)


def number_operator(f: MahlerVector) -> MahlerVector:
    """raise(lower(f)): diagonal with coefficient n at slot n."""
    return kochubei_raise(kochubei_lower(f))


def position_operator(f: MahlerVector) -> MahlerVector:
    """Multiplication by x, realised as raise(shift(f))."""
    return kochubei_raise(kochubei_shift(f))


# -- the Tate-space ladder --------------------------------------------------------


def tate_raise(f: TateVector) -> TateVector:
    """Multiplication by X; the top coefficient falls off the truncation."""
    ctx = f.ctx
    out = [PadicScalar.zero(ctx)] + list(f.coeffs[:-1])
    lost = not f.coeffs[f.length - 1].is_zero
    return TateVector(ctx, tuple(out), f.truncated or lost)


def tate_derivative(f: TateVector) -> TateVector:
    """d/dX on coefficients: slot k receives (k+1) a_{k+1}."""
    ctx = f.ctx
    out = [PadicScalar.from_int(k + 1, ctx) * f.coeffs[k + 1] for k in range(f.length - 1)]
    out.append(PadicScalar.zero(ctx))
    return TateVector(ctx, tuple(out), f.truncated)


def euler_operator(f: TateVector) -> TateVector:
    """X d/dX: diagonal with eigenvalue k on X^k."""
    ctx = f.ctx
    out = [PadicScalar.from_int(k, ctx) * c for k, c in enumerate(f.coeffs)]
    return TateVector(ctx, tuple(out), f.truncated)


def tate_creation(h_coeffs: Sequence[PadicScalar] = ()) -> Callable[[TateVector], TateVector]:
    """Creation operator X + h(d/dX) for a norm-at-most-1 series h.

    The default h = 0 gives plain multiplication by X.  Any such choice
    pairs with d/dX to an exact interior commutator of 1; the ladder it
    generates from the vacuum stays orthonormal, which the tests sample
    rather than assume.
    """
    h = tuple(h_coeffs)
    for c in h:
        if not c.is_zero and c.valuation < 0:
            raise ValueError("h must satisfy |h| <= 1")

    def creation(f: TateVector) -> TateVector:
        result = tate_raise(f)
        derived = f
        for coeff in h:
            derived = tate_derivative(derived)
            if not coeff.is_zero:
                result = result + derived.scale(coeff)
        return result

    return creation


def commutator_defect(raise_op, lower_op, basis: Sequence) -> float:
    """Sup norm of ([lower, raise] - 1) over the given basis vectors.

    Pass an interior basis (indices below the truncation boundary); the
    three standard pairs are exactly 0 there.
    """
    worst = INFINITE
    for e in basis:
        image = lower_op(raise_op(e)) - raise_op(lower_op(e)) - e
        worst = min(worst, image.valuation)
    return norm_from_valuation(basis[0].ctx.p, worst) if basis else 0.0


def interior_basis(cls, length: int, ctx: PrecisionContext) -> list:
    """Standard basis vectors clear of the truncation boundary."""
    return [cls.basis(i, length, ctx) for i in range(length - 1)]
