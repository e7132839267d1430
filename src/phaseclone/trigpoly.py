"""Algebra of trigonometric Laurent polynomials in e^{i phi}.

A first-order polynomial ``a e^{i phi} + b e^{-i phi} + c`` is the basic
matrix-entry object of this package.  In bulk it is stored as a complex
coefficient array whose axis 0 holds ``(a, b, c)``; any trailing axes index
independent polynomials, so a ``(3, d, d)`` array is a whole phase
operator.  Products of two first-order polynomials live in the degree
range [-2, 2] and are stored as ``(5, ...)`` arrays in ascending degrees
``(-2, -1, 0, 1, 2)``; :func:`mul` and :func:`exact_div` broadcast over the
trailing axes.  :class:`FirstOrderPoly` is the scalar view used where one
entry is inspected on its own.  Every nonzero first-order polynomial
factors, uniquely up to the order of the two roots, into one of three
shapes (``x = e^{i phi}``):

* ``scale * (x + w0) * (w1 * conj(x) + 1)``   generic, ``a != 0``
* ``scale * (w * conj(x) + 1)``               affine, ``a == 0, c != 0``
* ``b * conj(x)``                             pure negative frequency

Multiplying by ``x`` turns a first-order polynomial into the ordinary
quadratic ``a x^2 + c x + b``, so factoring and divisibility both reduce
to standard polynomial manipulations.  Everything here is double
precision; tolerances are explicit arguments wherever a comparison is not
exact.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZERO_COEFF_REL",
    "SCALE_FLOOR",
    "ALGEBRA_TOL",
    "FirstOrderPoly",
    "FullForm",
    "AffineForm",
    "PureNegForm",
    "DecompositionForm",
    "NotDivisibleError",
    "ZeroDivisorError",
    "ZeroPolynomialError",
    "mul",
    "exact_div",
    "factorize",
    "expand",
    "has_second_order",
]

#: The one zero rule (:func:`_negligible`): a magnitude is zero iff it is at
#: most this times its scale, a scale below ``SCALE_FLOOR`` counting as it.
ZERO_COEFF_REL = 1e-13
#: The underflow counterpart of ``operators.MAX_COEFF``: ``|P|^2`` at the zero threshold is normal.
SCALE_FLOOR = 1e-140
#: Default tolerance of divisibility (relative to each numerator) and of
#: second-order content (absolute).
ALGEBRA_TOL = 1e-10


def _checked_tol(tol: float) -> float:
    """``tol`` if it lies in (0, 1), else ``ValueError``: a relative tol >= 1 passes any defect."""
    if not 0 < tol < 1:
        raise ValueError(f"tol must be a finite number > 0 and < 1, got {tol!r}")
    return tol


class ZeroPolynomialError(ValueError):
    """The operation is undefined for the zero polynomial."""


class ZeroDivisorError(ZeroDivisionError):
    """Division by a polynomial whose coefficients are all (numerically) zero."""


class NotDivisibleError(ArithmeticError):
    """No first-order quotient exists within tolerance.

    ``index`` is the trailing index of the first failing numerator in
    row-major order (``()`` for a single polynomial) and ``residual`` the
    maximum coefficient magnitude of ``num - den * best_quotient`` there.
    """

    def __init__(self, message: str, residual: float, index: tuple = ()):
        super().__init__(message)
        self.residual = residual
        self.index = index


def _finite(z, name: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")
    return z


def _negligible(magnitude, scale):
    """``magnitude <= ZERO_COEFF_REL * max(scale, SCALE_FLOOR)``, elementwise."""
    return magnitude <= ZERO_COEFF_REL * np.maximum(scale, SCALE_FLOOR)


@dataclass(frozen=True)
class FirstOrderPoly:
    """``a e^{i phi} + b e^{-i phi} + c`` with complex coefficients."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "a", _finite(self.a, "a"))
        object.__setattr__(self, "b", _finite(self.b, "b"))
        object.__setattr__(self, "c", _finite(self.c, "c"))

    @staticmethod
    def zero() -> "FirstOrderPoly":
        return FirstOrderPoly(0.0, 0.0, 0.0)

    def eval(self, phi: float) -> complex:
        x = cmath.exp(1j * phi)
        return self.a * x + self.b * x.conjugate() + self.c

    def max_abs(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c))

    def is_real_valued(self, tol: float) -> bool:
        """True iff the polynomial takes real values for every real phi.

        Coefficientwise criterion: ``b = conj(a)`` and ``c`` real, both
        within ``tol * max_abs()``.
        """
        return max(abs(self.b - self.a.conjugate()), abs(self.c.imag)) <= tol * self.max_abs()

    def conjugate(self) -> "FirstOrderPoly":
        """The polynomial whose value is the complex conjugate at every phi."""
        return FirstOrderPoly(self.b.conjugate(), self.a.conjugate(), self.c.conjugate())

    @property
    def coeffs(self) -> np.ndarray:
        """``(a, b, c)`` as a complex array, the layout of :func:`mul`."""
        return np.array((self.a, self.b, self.c))

    def distance(self, other: "FirstOrderPoly") -> float:
        """Maximum coefficientwise difference."""
        return max(abs(self.a - other.a), abs(self.b - other.b), abs(self.c - other.c))

    def __add__(self, other):
        if not isinstance(other, FirstOrderPoly):
            return NotImplemented
        return FirstOrderPoly(self.a + other.a, self.b + other.b, self.c + other.c)

    def __mul__(self, other):
        if isinstance(other, numbers.Complex):
            k = complex(other)
            return FirstOrderPoly(self.a * k, self.b * k, self.c * k)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return self.__mul__(other)
        return NotImplemented


@dataclass(frozen=True)
class FullForm:
    """``scale * (x + w0) * (w1 * conj(x) + 1)`` with ``scale != 0``."""

    scale: complex
    w0: complex
    w1: complex

    def __post_init__(self):
        object.__setattr__(self, "scale", _finite(self.scale, "scale"))
        object.__setattr__(self, "w0", _finite(self.w0, "w0"))
        object.__setattr__(self, "w1", _finite(self.w1, "w1"))
        if self.scale == 0:
            raise ValueError("FullForm.scale must be nonzero")


@dataclass(frozen=True)
class AffineForm:
    """``scale * (w * conj(x) + 1)`` with ``scale != 0``."""

    scale: complex
    w: complex

    def __post_init__(self):
        object.__setattr__(self, "scale", _finite(self.scale, "scale"))
        object.__setattr__(self, "w", _finite(self.w, "w"))
        if self.scale == 0:
            raise ValueError("AffineForm.scale must be nonzero")


@dataclass(frozen=True)
class PureNegForm:
    """``b * conj(x)``."""

    b: complex

    def __post_init__(self):
        object.__setattr__(self, "b", _finite(self.b, "b"))


DecompositionForm = FullForm | AffineForm | PureNegForm


def mul(p, q) -> np.ndarray:
    """Coefficient-exact products of first-order polynomials.

    ``p`` and ``q`` hold ``(a, b, c)`` on axis 0 and broadcast over their
    trailing axes; the result holds degrees -2..2 on axis 0.
    """
    a, b, c = p
    qa, qb, qc = q
    # Written in place: stacking five temporaries costs twice as much.  Each
    # product stays ``x * y``, whose rounding differs for scalars and arrays.
    top = a * qa
    out = np.empty((5,) + np.shape(top), np.result_type(top))
    out[0] = b * qb
    np.add(b * qc, c * qb, out=out[1, ...])
    np.add(a * qb + b * qa, c * qc, out=out[2, ...])
    np.add(a * qc, c * qa, out=out[3, ...])
    out[4] = top
    return out


def _long_div(num: np.ndarray, d: np.ndarray, lead: int) -> np.ndarray:
    """Long division of ``num * x^2`` by ``den * x``, ascending ``d`` led by ``d[lead]``."""
    shifted = np.zeros_like(num)
    rem = num.copy()
    for k in range(4, lead - 1, -1):
        qk = rem[k] / d[lead]
        shifted[k - lead] = qk
        rem[k - lead : k + 1] -= qk * d[: lead + 1]
    # Quotient degree j in [-1, 1] sits at x^(j+1) of the shifted quotient.
    return shifted[[2, 0, 1]]


def _divide(num, den, tol: float = ALGEBRA_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The division of :func:`exact_div` without the divisibility verdict.

    Returns the ``(3, ...)`` quotients, the residual ``max|num - den * q|``
    of each numerator and its limit ``tol * max|num coeffs|``; a numerator
    is divisible iff its residual is at most its limit.  Raises like
    :func:`exact_div` for bad shapes and zero divisors.
    """
    num = np.asarray(num, dtype=complex)
    den = np.asarray(den, dtype=complex)
    if num.shape[:1] != (5,):
        raise ValueError(f"numerator needs degrees -2..2 on axis 0, got shape {num.shape}")
    if den.shape[:1] != (3,):
        raise ValueError(f"divisor needs (a, b, c) on axis 0, got shape {den.shape}")
    shape = np.broadcast_shapes(num.shape[1:], den.shape[1:])
    num = np.broadcast_to(num, (5,) + shape)
    # Ascending coefficients of den * x.
    d = den[[1, 2, 0]]
    mags = np.abs(d)
    negligible = _negligible(mags, mags.max(axis=0))
    if negligible.all(axis=0).any():
        raise ZeroDivisorError("division by a numerically zero polynomial")
    # Highest non-negligible coefficient of each divisor.
    lead = np.broadcast_to(2 - np.argmin(negligible[::-1], axis=0), shape)
    # Align the divisor's trailing axes with the last ones of ``shape``.
    d = d.reshape((3,) + (1,) * (len(shape) + 1 - d.ndim) + d.shape[1:])
    d = np.broadcast_to(d, (3,) + shape)
    # Only the lead degrees present are divided; a single one needs no member masks.
    present = np.bincount(lead.ravel(), minlength=3)
    if present.max() == lead.size:
        q = _long_div(num, d, int(present.argmax()))
    else:
        q = np.empty((3,) + shape, dtype=complex)
        for value in np.flatnonzero(present).tolist():
            members = lead == value
            q[:, members] = _long_div(num[:, members], d[:, members], value)
    residual = np.abs(num - mul(q, den)).max(axis=0)
    return q, residual, tol * np.abs(num).max(axis=0)


def exact_div(num, den, tol: float = ALGEBRA_TOL) -> np.ndarray:
    """Divide products (degrees -2..2 on axis 0) by first-order divisors ``den``.

    ``den`` holds ``(a, b, c)`` on axis 0 and broadcasts over the trailing
    axes of ``num``, so one call can divide a stack by one divisor per
    member.  Each numerator is shifted to the ordinary polynomial
    ``num * x^2`` and long-divided by ``den * x``, grouped by the degree of
    each divisor's leading coefficient; a quotient is accepted only if the
    rebuilt product matches its numerator with residual at most
    ``tol * max|num coeffs|``.  Returns the quotients as a ``(3, ...)``
    array.  Raises :class:`ZeroDivisorError` for a zero divisor and
    :class:`NotDivisibleError`, naming the first failing index, when some
    numerator has no first-order quotient (for example when it would need
    degree 2).
    """
    q, residual, limit = _divide(num, den, _checked_tol(tol))
    failing = residual > limit
    if failing.any():
        index = tuple(int(i) for i in np.argwhere(failing)[0])
        raise NotDivisibleError(
            f"residual {residual[index]:.3e} exceeds {tol:.1e} * |num| = {limit[index]:.3e}",
            float(residual[index]),
            index,
        )
    return q


def _stable_quadratic_roots(a2: complex, a1: complex, a0: complex) -> tuple[complex, complex]:
    """Roots of ``a2 x^2 + a1 x + a0`` with ``a2 != 0``.

    The larger-magnitude root comes from ``-(a1 + s*sqrt(disc)) / 2`` with the
    sign chosen against cancellation, the companion from the root product.
    """
    disc = a1 * a1 - 4.0 * a2 * a0
    sq = cmath.sqrt(disc)
    if (a1.conjugate() * sq).real < 0.0:
        sq = -sq
    t = -(a1 + sq) / 2.0
    if t == 0:
        return 0j, 0j
    return t / a2, a0 / t


def _canonical_pair(w0: complex, w1: complex) -> tuple[complex, complex]:
    # Lexicographic (<magnitude>, <argument>) order keeps form equality
    # deterministic under root permutation.
    key = lambda w: (abs(w), math.atan2(w.imag, w.real))
    return tuple(sorted((w0, w1), key=key))


def factorize(p: FirstOrderPoly) -> DecompositionForm:
    """Unique factored shape of a nonzero first-order polynomial.

    For ``a != 0`` the roots of ``a x^2 + c x + b`` are negated into
    ``(w0, w1)`` and stored in canonical order; for ``a = 0`` the affine or
    pure negative-frequency shape applies.
    """
    scale = p.max_abs()
    if not _negligible(abs(p.a), scale):
        r0, r1 = _stable_quadratic_roots(p.a, p.c, p.b)
        w0, w1 = _canonical_pair(-r0, -r1)
        return FullForm(p.a, w0, w1)
    if not _negligible(abs(p.c), scale):
        return AffineForm(p.c, p.b / p.c)
    if not _negligible(abs(p.b), scale):
        return PureNegForm(p.b)
    raise ZeroPolynomialError("all coefficients are below the zero threshold")


def expand(f: DecompositionForm) -> FirstOrderPoly:
    """Inverse of :func:`factorize` up to root permutation."""
    if isinstance(f, FullForm):
        return FirstOrderPoly(f.scale, f.scale * f.w0 * f.w1, f.scale * (f.w0 + f.w1))
    if isinstance(f, AffineForm):
        return FirstOrderPoly(0.0, f.scale * f.w, f.scale)
    if isinstance(f, PureNegForm):
        return FirstOrderPoly(0.0, f.b, 0.0)
    raise TypeError(f"not a decomposition form: {f!r}")


def has_second_order(products, tol: float = ALGEBRA_TOL) -> bool:
    """True iff a degree +2 or -2 coefficient of ``products`` (degrees -2..2
    on axis 0) exceeds ``tol`` in magnitude."""
    return bool((np.abs(np.asarray(products)[[0, 4]]) > tol).any())
