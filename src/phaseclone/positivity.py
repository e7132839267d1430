"""Positivity certificates for Hermitian families of phase operators.

Two kinds of certificate live here.  The scalar one factors a real-valued
trace polynomial ``P(phi) = 2|alpha| cos(phi - theta) + R`` and succeeds
iff ``R / |alpha| >= 2``, returning the root pair ``p0 = r e^{i theta}``,
``p1 = e^{i theta} / r`` with ``r + 1/r = R/|alpha|`` and ``r >= 1``.

The operator one finds the minimum over the phase circle of
``lambda_min(M(phi))``, ``M(phi) = A x + A^H conj(x) + C`` with
``x = e^{i phi}`` (the Hermitian part of the family), by a level-set
iteration (Boyd & Balakrishnan, SCL 15, 1990):

* Seed ``g`` with the smallest ``lambda_min`` at ``2d + 2`` equispaced
  phases.
* Put the level ``L = g - eps``, ``eps = 1e-13 * max(1, max|coeffs|)``.
  ``L`` is an eigenvalue of ``M(phi)`` iff ``x`` is a unit-circle root of
  ``det(A x^2 + (C - L I) x + A^H) = 0``, a quadratic eigenvalue problem
  read from a ``2d x 2d`` companion matrix after the shift
  ``x = x0 + 1/y`` (Tisseur & Meerbergen, SIAM Rev. 43, 2001).  The anchor
  ``x0`` is the seed with the largest ``lambda_min``, so
  ``Q(x0) = x0 (M(phi0) - L I)`` has smallest singular value
  ``sigma = lambda_min(phi0) - L``, which only grows as ``L`` falls.  Roots
  within ``1e-4`` of the circle count as crossings: an extra root only adds
  a sample, a missed one could hide a dip.  The companion matrix has norm
  about ``max|coeffs| / sigma``, so with ``sigma >= 1e-6 * max|coeffs|``
  (else see the degenerate pencils below) rounding moves a root on the
  circle by about ``sqrt(1e-16 * max|coeffs| / sigma) <= 1e-5``, inside
  the band.
* Evaluate ``lambda_min`` at the midpoint of every arc between crossings
  and lower ``g`` to the smallest value found.  Stop when no arc goes
  below ``L``.

Soundness: between two consecutive crossings no eigenvalue equals ``L``,
so by continuity the number of eigenvalues below ``L`` is constant on the
arc, and any one point of the arc decides the sign of
``lambda_min - L`` on all of it.  (An arc that already holds an evaluated
phase needs no new sample: every evaluated value is at least ``g > L``.)
When the iteration stops every arc is at or above ``L``, hence
``lambda_min >= g - eps`` on the whole circle, while ``g`` itself is
attained at the reported phase.  Each round lowers ``g`` by more than
``eps``, and the midpoint rule converges quadratically, so a certificate
takes a few rounds.

Degenerate pencils.  If ``lambda_min`` is flat (within ``1e-6`` relative)
over the seeds, ``L`` sits next to an eigenvalue at every seed and
``Q(x0)`` is near-singular for every anchor; rounding in the companion
matrix can then push both roots of a shallow dip out of the band (two
``phase_state_operator`` blocks next to a branch dipping ``1e-8`` below
them are missed at some phases).  ``det(M(phi) - g I)`` is a
trigonometric polynomial of degree <= d that vanishes at ``2d + 2 > 2d``
phases, so ``g`` is an eigenvalue at every phase, whether its eigenvector
is fixed (``P * Gamma`` with singular ``Gamma``, the constant
``projective-discard``) or moving (``phase_state_operator``).  This
constant eigenvalue ``g0`` of multiplicity ``k`` splits off the
characteristic polynomial, ``det(M(phi) - L I) = (g0 - L)^k r(phi, L)``,
where ``r`` is the product of the other eigenvalues minus ``L`` and a
trigonometric polynomial of degree <= d.  ``r`` is recovered exactly from
its values at the ``2d + 2`` seeds by a discrete Fourier transform; its
unit-circle roots are the crossings of the non-constant eigenvalues, and
``g0 > L`` never crosses.  The same arc argument then applies; for
``k = d`` (a constant family) ``r`` is constant and has no crossings.
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

#: Default number of phases of :func:`min_eigenvalue_profile`.
DEFAULT_GRID = 4096
DEFAULT_TOL = 1e-9

_TWO_PI = 2.0 * math.pi
#: The certificate's level sits this far (relative) below the best sample.
_LEVEL_GAP = 1e-13
#: Pencil roots this close to the unit circle count as crossings.
_CIRCLE_BAND = 1e-4
#: Seeds whose lambda_min spread is below this (relative) mark a degenerate pencil.
_DEGENERATE_REL = 1e-6
#: Relative distance from ``g`` at every seed that marks a constant eigenvalue.
_CONSTANT_REL = 1e-12
#: Bound on the levels of one certificate; the iteration converges quadratically.
_MAX_LEVELS = 100


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


def _hermitian_family(op: PhaseOperator) -> np.ndarray:
    """``(A, A^H, C)`` of the Hermitian part ``A x + A^H conj(x) + C`` of ``op``."""
    c = op.coeffs
    return 0.5 * (c + c[[1, 0, 2]].conj().transpose(0, 2, 1))


def _matrices(family: np.ndarray, phis) -> np.ndarray:
    """The family evaluated at each phase, shape ``(len(phis), d, d)``."""
    A, AH, C = family
    x = np.exp(1j * np.asarray(phis, dtype=float))[:, None, None]
    return x * A + np.conj(x) * AH + C


def _lowest(E: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of each Hermitian matrix (analytic for d <= 2, eigvalsh above)."""
    d = E.shape[1]
    if d == 1:
        return E[:, 0, 0].real
    if d == 2:
        h00 = E[:, 0, 0].real
        h11 = E[:, 1, 1].real
        return 0.5 * (h00 + h11) - np.hypot(0.5 * (h00 - h11), np.abs(E[:, 0, 1]))
    return np.linalg.eigvalsh(E)[:, 0]


def _lambda_min_grid(op: PhaseOperator, phis: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of op(phi) for each phi, vectorised over the grid."""
    return _lowest(_matrices(_hermitian_family(op), phis))


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


def _pencil_crossings(family: np.ndarray, phi0: float, M0: np.ndarray):
    """Crossing finder of the level set, linearised at the anchor ``x0 = e^{i phi0}``.

    ``Q(x) = A x^2 + (C - L I) x + A^H`` is shifted by ``x = x0 + 1/y`` to
    ``y^2 Q(x0) + y Q'(x0) + A``.  On the circle ``Q(x0) = x0 (M0 - L I)``
    with ``M0 = M(phi0) = V diag(mu) V^H``, so in the eigenbasis of ``M0``
    the ``2d x 2d`` companion matrix of the shifted pencil needs only
    ``diag(1 / (mu - L))`` per level.  The returned function maps a level
    to the sorted phases of the roots within ``_CIRCLE_BAND`` of the circle.
    """
    A, AH, _ = family
    d = A.shape[0]
    x0 = cmath.exp(1j * phi0)
    mu, V = np.linalg.eigh(M0)
    # Q(x0)^{-1} [A | Q'(x0)] = (M0 - L)^{-1} [A | x0 A - conj(x0) A^H] / x0 + [0 | I / x0]
    F = x0 * A - x0.conjugate() * AH
    blocks = (V.conj().T @ np.concatenate([A, F], axis=1)).reshape(d, 2, d) @ V
    blocks = blocks.reshape(d, 2 * d) * (-1.0 / x0)
    companion = np.eye(2 * d, k=d, dtype=complex)
    shift = np.eye(d) / x0

    def crossings(level: float) -> list[float]:
        companion[d:] = blocks / (mu - level)[:, None]
        companion[d:, d:] -= shift
        phases = []
        for y in np.linalg.eigvals(companion).tolist():
            u = x0 * y + 1.0  # x = u / y; y = 0 is the root at infinity
            if abs(abs(u) - abs(y)) <= _CIRCLE_BAND * abs(y):
                phases.append(cmath.phase(u * y.conjugate()) % _TWO_PI)
        return sorted(phases)

    return crossings


def _open_arcs(crossings: list[float], seen: list[float]) -> list[float]:
    """Midpoints of the arcs between crossings that contain no evaluated phase.

    Every evaluated phase has ``lambda_min >= g > L``; the sign of
    ``lambda_min - L`` is constant on an arc, so an arc holding one (away
    from its computed ends by the band) is settled without a new sample.
    """
    mids = []
    for a, b in zip(crossings, crossings[1:] + [crossings[0] + _TWO_PI]):
        lo, hi = a + _CIRCLE_BAND, b - _CIRCLE_BAND
        if not any(lo < p < hi or lo < p + _TWO_PI < hi for p in seen):
            mids.append((0.5 * (a + b)) % _TWO_PI)
    return mids


def _constant_level_crossings(E: np.ndarray, g: float, scale: float):
    """Crossing finder for a family with a constant eigenvalue ``g0 ~ g``.

    ``E`` holds the family at the ``n = 2d + 2`` equispaced seed phases,
    where ``g0`` is an eigenvalue of multiplicity ``k``; so
    ``det(M(phi) - L I) = (g0 - L)^k r(phi, L)`` where ``r`` multiplies the
    other ``d - k`` eigenvalues and is, like the determinant, a
    trigonometric polynomial of degree <= d.  Its values at the seeds give
    its Fourier coefficients exactly; its roots on the circle are the
    phases where a non-constant eigenvalue equals ``L``.  The factors are
    divided by ``scale``, which moves no root, so the product cannot overflow.
    """
    n, d = E.shape[:2]
    ev = np.linalg.eigvalsh(E)
    near = np.abs(ev - g) <= _CONSTANT_REL * scale
    k = int(near.sum(axis=1).min())
    order = np.argsort(np.abs(ev - g), axis=1)
    rest = np.take_along_axis(ev, order[:, k:], axis=1)

    def crossings(level: float) -> list[float]:
        coeffs = np.fft.fft(np.prod((rest - level) / scale, axis=1)) / n
        # x^d r(x): coefficient of x^m, m = d .. -d, highest power first
        poly = np.concatenate([coeffs[d::-1], coeffs[: d + 1 : -1]])
        return sorted(
            cmath.phase(x) % _TWO_PI
            for x in np.roots(poly).tolist()
            if abs(abs(x) - 1.0) <= _CIRCLE_BAND
        )

    return crossings


def _minimum(family: np.ndarray) -> tuple[float, float]:
    """``(min over phi of lambda_min, a phase attaining it)`` by the level-set iteration."""
    d = family.shape[1]
    size = float(np.abs(family).max())
    scale = max(1.0, size)
    eps = _LEVEL_GAP * scale
    seeds = _phi_grid(2 * d + 2).tolist()
    E = _matrices(family, seeds)
    lam = _lowest(E).tolist()
    g = min(lam)
    phi = seeds[lam.index(g)]
    top = max(lam)
    if top - g + eps >= _DEGENERATE_REL * size:
        anchor = lam.index(top)
        crossings = _pencil_crossings(family, seeds[anchor], E[anchor])
    else:
        crossings = _constant_level_crossings(E, g, scale)

    seen = list(seeds)
    for _ in range(_MAX_LEVELS):
        level = g - eps
        cross = crossings(level)
        if not cross:
            return g, phi
        mids = _open_arcs(cross, seen)
        if not mids:
            return g, phi
        values = _lowest(_matrices(family, mids)).tolist()
        seen += mids
        low = min(values)
        if low >= level:
            return g, phi
        g, phi = low, mids[values.index(low)]
    raise RuntimeError("positivity level-set iteration did not converge")


def is_positive_over_phase(op: PhaseOperator, tol: float = DEFAULT_TOL) -> PositivityVerdict:
    """Certify lambda_min(op(phi)) >= -tol over the whole phase circle.

    ``min_eigenvalue`` is the exact minimum over the circle (within
    ``1e-13 * max(1, max|coeffs|)``, see the module docstring) and is
    attained at a phase; that phase is reported as ``witness_phi`` for
    negative verdicts.  Hermiticity is checked at the same ``tol``.
    """
    _require_hp(op, tol)
    min_e, phi = _minimum(_hermitian_family(op))
    positive = min_e >= -tol
    return PositivityVerdict(
        positive=positive,
        min_eigenvalue=min_e,
        witness_phi=None if positive else phi,
    )


def submatrix_positivity(
    op: PhaseOperator, i: int, j: int, tol: float = DEFAULT_TOL
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
    return is_positive_over_phase(PhaseOperator(op.coeffs[:, idx][:, :, idx]), tol)
