"""Positivity certificates for Hermitian families of phase operators.

Two kinds of certificate live here.  The scalar one factors a real-valued
trace polynomial ``P(phi) = 2|alpha| cos(phi - theta) + R`` and succeeds
iff ``R / |alpha| >= 2``, returning the root pair ``p0 = r e^{i theta}``,
``p1 = e^{i theta} / r`` with ``r + 1/r = R/|alpha|`` and ``r >= 1``.  The
operator one sweeps the minimum eigenvalue of the evaluated matrix family
over a phase grid (analytic formula for d = 2, a batched Hermitian
eigensolver above that) with golden-section refinement around the coarse
minimum, so a narrow dip between grid points cannot flip the verdict.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .trigpoly import ZERO_COEFF_REL, FirstOrderPoly
from .operators import PhaseOperator, is_hermitian_preserving

__all__ = [
    "DEFAULT_GRID",
    "DEFAULT_TOL",
    "ProbabilityDecomposition",
    "PositivityVerdict",
    "NotRealValuedError",
    "ConstantProbabilityError",
    "NotPositiveError",
    "NotHermitianError",
    "decompose_probability",
    "min_eigenvalue_profile",
    "is_positive_over_phase",
    "submatrix_positivity",
]

DEFAULT_GRID = 4096
DEFAULT_TOL = 1e-9
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NotRealValuedError(ValueError):
    """The polynomial is not real-valued, so it cannot be a probability."""


class ConstantProbabilityError(ValueError):
    """The probability has no phase dependence (alpha = 0); no root pair exists."""


class NotPositiveError(ValueError):
    """The probability dips below zero (R / |alpha| < 2)."""


class NotHermitianError(ValueError):
    """The operator family is not hermitian-preserving."""


@dataclass(frozen=True)
class ProbabilityDecomposition:
    """Factored form of a nonnegative, phase-dependent probability."""

    alpha_abs: float
    theta: float
    R: float
    r: float
    p0: complex
    p1: complex

    def to_poly(self) -> FirstOrderPoly:
        """Rebuild the probability polynomial from the factored data."""
        alpha = self.alpha_abs * cmath.exp(-1j * self.theta)
        return FirstOrderPoly(alpha, alpha.conjugate(), self.R)


@dataclass(frozen=True)
class PositivityVerdict:
    positive: bool
    min_eigenvalue: float
    witness_phi: float | None = None


def decompose_probability(P: FirstOrderPoly, tol: float = DEFAULT_TOL) -> ProbabilityDecomposition:
    """Factor a real-valued probability polynomial, certifying positivity.

    Raises :class:`NotRealValuedError` if ``P`` is not real-valued within
    ``tol``; :class:`ConstantProbabilityError` if ``alpha = 0`` (a
    phase-independent probability, which the classifier treats separately);
    :class:`NotPositiveError` if ``R / |alpha| < 2 - tol``.
    """
    if not P.is_real_valued(tol):
        raise NotRealValuedError("probability polynomial must be real-valued")
    alpha = P.a
    alpha_abs = abs(alpha)
    if alpha_abs <= ZERO_COEFF_REL * (1.0 + P.max_abs()):
        raise ConstantProbabilityError("probability is independent of the phase")
    R = P.c.real
    ratio = R / alpha_abs
    if ratio < 2.0 - tol:
        raise NotPositiveError(
            f"R/|alpha| = {ratio:.12g} < 2, the probability goes negative"
        )
    theta = -cmath.phase(alpha)
    ratio = max(ratio, 2.0)
    r = (ratio + math.sqrt(ratio * ratio - 4.0)) / 2.0
    root_phase = cmath.exp(1j * theta)
    return ProbabilityDecomposition(
        alpha_abs=alpha_abs,
        theta=theta,
        R=R,
        r=r,
        p0=r * root_phase,
        p1=root_phase / r,
    )


def _lambda_min_grid(op: PhaseOperator, phis: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of op(phi) for each phi, vectorised over the grid."""
    A, B, C = op.coeffs
    x = np.exp(1j * phis)[:, None, None]
    E = x * A + np.conj(x) * B + C
    d = op.dim
    if d == 1:
        return E[:, 0, 0].real
    if d == 2:
        h00 = E[:, 0, 0].real
        h11 = E[:, 1, 1].real
        off = 0.5 * (E[:, 0, 1] + np.conj(E[:, 1, 0]))
        mid = 0.5 * (h00 + h11)
        radius = np.hypot(0.5 * (h00 - h11), np.abs(off))
        return mid - radius
    return np.linalg.eigvalsh(E)[:, 0]


def _lambda_min_at(op: PhaseOperator, phi: float) -> float:
    if op.dim == 2:
        e00 = op.entries[0][0].eval(phi).real
        e11 = op.entries[1][1].eval(phi).real
        off = 0.5 * (op.entries[0][1].eval(phi) + op.entries[1][0].eval(phi).conjugate())
        mid = 0.5 * (e00 + e11)
        return mid - math.hypot(0.5 * (e00 - e11), abs(off))
    return float(_lambda_min_grid(op, np.array([phi]))[0])


def _phi_grid(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("grid size must be positive")
    return np.arange(n) * (2.0 * math.pi / n)


def _require_hp(op: PhaseOperator, tol: float) -> None:
    if not is_hermitian_preserving(op, tol):
        raise NotHermitianError("operator family is not hermitian-preserving")


def min_eigenvalue_profile(op: PhaseOperator, n: int = DEFAULT_GRID) -> list[tuple[float, float]]:
    """(phi, lambda_min) at n uniformly spaced phases in [0, 2*pi)."""
    _require_hp(op, DEFAULT_TOL)
    phis = _phi_grid(n)
    lam = _lambda_min_grid(op, phis)
    return [(float(p), float(v)) for p, v in zip(phis, lam)]


def _refine_minimum(f, lo: float, hi: float, xtol: float = 1e-10) -> tuple[float, float]:
    """Golden-section minimisation; returns the best (phi, value) seen."""
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    while b - a > xtol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        if f1 < best_f:
            best_x, best_f = x1, f1
        if f2 < best_f:
            best_x, best_f = x2, f2
    return best_x, best_f


def is_positive_over_phase(
    op: PhaseOperator,
    tol: float = DEFAULT_TOL,
    n: int = DEFAULT_GRID,
) -> PositivityVerdict:
    """Certify lambda_min(op(phi)) >= -tol over the whole phase circle.

    A coarse n-point sweep finds the candidate minimum; unless that is
    already decisively negative, the bracketing interval is refined by
    golden-section search so narrow dips between grid points are not
    missed.  The witness phase is reported only for negative verdicts.
    Hermiticity is checked at the same ``tol``.
    """
    _require_hp(op, tol)
    phis = _phi_grid(n)
    lam = _lambda_min_grid(op, phis)
    k = int(np.argmin(lam))
    phi_min = float(phis[k])
    min_e = float(lam[k])
    if min_e >= -tol:
        # Verdict not yet settled: refine around the coarse minimum.
        h = 2.0 * math.pi / n
        phi_ref, val_ref = _refine_minimum(
            lambda p: _lambda_min_at(op, p), phi_min - h, phi_min + h
        )
        if val_ref < min_e:
            phi_min, min_e = phi_ref % (2.0 * math.pi), val_ref
    positive = min_e >= -tol
    return PositivityVerdict(
        positive=positive,
        min_eigenvalue=min_e,
        witness_phi=None if positive else phi_min,
    )


def submatrix_positivity(
    op: PhaseOperator,
    i: int,
    j: int,
    tol: float = DEFAULT_TOL,
    n: int = DEFAULT_GRID,
) -> PositivityVerdict:
    """Positivity of the principal 2 x 2 family built from rows/columns i, j.

    A positive operator family has every such submatrix positive, so a
    negative submatrix is a cheap witness against positivity of the whole.
    """
    d = op.dim
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise IndexError(f"need two distinct indices in [0, {d}), got ({i}, {j})")
    _require_hp(op, tol)
    idx = [i, j]
    return is_positive_over_phase(PhaseOperator(op.coeffs[:, idx][:, :, idx]), tol, n)
