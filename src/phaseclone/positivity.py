"""Positivity certificates for Hermitian families of phase operators.

Two kinds of certificate live here.  The scalar one factors a real-valued
trace polynomial ``P(phi) = 2|alpha| cos(phi - theta) + R`` and succeeds
iff ``min P = R - 2|alpha| >= -tol * max|P|`` (the operator certificate's
rule), returning ``p0 = r e^{i theta}``, ``p1 = e^{i theta} / r`` with
``r + 1/r = max(R/|alpha|, 2)`` and ``r >= 1``.

The operator one finds the minimum over the phase circle of
``lambda_min(M(phi))``, ``M(phi) = A x + A^H conj(x) + C`` with
``x = e^{i phi}`` (the Hermitian part of the family), by a level-set
iteration (Boyd & Balakrishnan, SCL 15, 1990):

* Seed ``g`` with the smallest ``lambda_min`` at ``2d + 2`` equispaced
  phases.
* Put the level ``L = g - eps``, ``eps = 1e-13 * max|coeffs|``.
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

Stacks.  :func:`positivity_many` certifies many operators at once; each
group of one dimension is an ``(N, 3, d, d)`` stack.  The members share
the numpy calls (one evaluation at the seeds, then per level one
``eigvals`` over the companion matrices of the non-degenerate members
still iterating and one evaluation at all open-arc midpoints) but nothing
else: ``eps``, the scale, the degenerate test, the stopping rule and each
companion matrix are per member, so a member gets the same verdict and
minimum in any stack and in any order.
:func:`is_positive_over_phase` is a stack of one.

Sweeps.  :func:`_sweep` is the one grid sweep, of :func:`min_eigenvalue_profile`
and ``profile``.  It evaluates a 3 x 3 family in closed form
(:func:`_lowest3`), to about ``1e-14 * max|coeffs|``, and every other one as
the certificate does (:func:`_lowest`).  ``profile`` reads both extreme
eigenvalues of an output from one sweep: ``m -+ hypot`` of a 2 x 2 matrix;
for 3 x 3 the largest eigenvalue ``q - 2 p cos(arccos(-r) / 3 + 2 pi / 3)``
from the same ``q``, ``p`` and ``r`` as the smallest; for ``d >= 4`` the last
eigenvalue of the same ``eigvalsh`` call.  For ``d <= 3`` each keeps the bits
of a sweep of the family (the largest: of its negation) alone, but for the
sign of a zero where a 2 x 2 or 1 x 1 matrix vanishes.  The certificate
keeps LAPACK: it evaluates a few phases per level, and its values feed the
``1e-13 * max|coeffs|`` level gap.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .trigpoly import DEFAULT_TOL, FirstOrderPoly, _checked_count, _checked_tol, _negligible
from .operators import PhaseOperator, hermitian_part

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
    "positivity_many",
]

#: Default number of phases of :func:`min_eigenvalue_profile`.
DEFAULT_GRID = 4096

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
#: Matrix entries of one block of :func:`_sweep` (1 MiB of complex values).
_SWEEP_ENTRIES = 2**16
#: A d = 3 sweep row whose ``r`` exceeds ``1 - _CLUSTER_GAP`` (its two smallest
#: eigenvalues within about 2% of the spread ``p``) is solved by LAPACK.
_CLUSTER_GAP = 1e-4
#: Flat indices of the diagonal, then of the lower-triangle entries (1, 0), (2, 1),
#: (2, 0), of a 3 x 3 matrix; LAPACK reads the same triangle.
_ENTRIES3 = [0, 4, 8, 3, 7, 6]
#: Exponents of the basis ``(e^{i phi}, e^{-i phi}, 1)`` of first-order families.
_FREQUENCIES = np.array([1j, -1j, 0.0])


def _solve(gufunc, a: np.ndarray, signature: str):
    """A ``numpy.linalg`` eigen gufunc on a finite complex stack, without its per-call checks."""
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        return gufunc(a, signature=signature)


class NotRealValuedError(ValueError):
    """The polynomial is not real-valued, so it cannot be a probability."""


class ConstantProbabilityError(ValueError):
    """The probability has no phase dependence (alpha = 0); no root pair exists."""


class NotPositiveError(ValueError):
    """The probability dips below zero (``min P < -tol * max|P|``)."""


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
    """``min_eigenvalue``, the minimum of lambda_min over the circle, is attained at ``witness_phi``."""

    positive: bool
    min_eigenvalue: float
    witness_phi: float


def decompose_probability(P: FirstOrderPoly, tol: float = DEFAULT_TOL) -> ProbabilityDecomposition:
    """Factor a real-valued probability polynomial, certifying positivity.

    Raises :class:`NotRealValuedError` if ``P`` is not real-valued within
    ``tol * max|P|``; :class:`ConstantProbabilityError` if ``alpha = 0`` (a
    phase-independent probability, which the classifier treats separately);
    :class:`NotPositiveError` if ``min P = R - 2|alpha|`` is below
    ``-tol * max|P|``, the rule of the operator certificate on ``[[P]]``.
    """
    if not P.is_real_valued(tol):
        raise NotRealValuedError("probability polynomial must be real-valued")
    alpha = P.a
    alpha_abs = abs(alpha)
    if _negligible(alpha_abs, P.max_abs()):
        raise ConstantProbabilityError("probability is independent of the phase")
    R = P.c.real
    ratio = R / alpha_abs
    if 2.0 * alpha_abs - R > tol * P.max_abs():
        raise NotPositiveError(
            f"R/|alpha| = {ratio:.12g} < 2, the probability goes negative"
        )
    theta = -math.atan2(alpha.imag, alpha.real)
    ratio = max(ratio, 2.0)
    r = (ratio + math.sqrt(ratio * ratio - 4.0)) / 2.0
    root_phase = cmath.exp(1j * theta)
    return ProbabilityDecomposition(alpha_abs, theta, R, r, r * root_phase, root_phase / r)


def _basis(phis) -> np.ndarray:
    """Rows ``(e^{i phi}, e^{-i phi}, 1)``, one per phase.

    ``_basis(phis) @ coeffs.reshape(3, d * d)`` evaluates a family with
    coefficients ``(A, B, C)`` at every phase in one product.
    """
    return np.exp(np.multiply.outer(phis, _FREQUENCIES))


def _evaluate(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``basis @ coeffs``, a one-row ``basis`` twice over: numpy would compute it as a
    vector-matrix product, whose complex rounding differs from a longer product's."""
    if len(basis) == 1:
        return (np.repeat(basis, 2, axis=0) @ coeffs)[:1]
    return basis @ coeffs


def _lowest(E: np.ndarray, signs=(1.0,)) -> np.ndarray:
    """``s * lambda_min(s E)`` of each Hermitian matrix per sign ``s`` (rows): ``lambda_min`` for 1,
    ``lambda_max`` for -1.

    For ``d <= 2`` the closed form ``s * (s * m - g)``, with ``m`` the mean of the
    diagonal and ``g = hypot(...)`` the half gap (0 for ``d = 1``), keeps the bits
    of ``-_lowest(-E)`` for -1 wherever the matrix is not exactly zero (there a zero
    may carry the other sign).  For ``d >= 3`` one ``eigvalsh`` call gives both
    ends, its first and its last eigenvalue.
    """
    d = E.shape[-1]
    if d > 2:
        ev = _solve(_umath_linalg.eigvalsh_lo, E, "D->d")
        return np.array([ev[..., 0 if s > 0 else -1] for s in signs])
    h = E.real
    if d == 1:
        m, g = h[..., 0, 0], 0.0
    else:
        h00, h11 = h[..., 0, 0], h[..., 1, 1]
        m, g = 0.5 * (h00 + h11), np.hypot(0.5 * (h00 - h11), np.abs(E[..., 0, 1]))
    return np.array([s * (s * m - g) for s in signs])


def _lowest3(family: np.ndarray, basis: np.ndarray, signs=(1.0,)) -> np.ndarray:
    """``s * lambda_min(s M)`` of a ``(3, 3, 3)`` Hermitian family ``M`` per sign ``s`` (rows) and
    :func:`_basis` row (columns), in closed form: ``lambda_min`` for 1, ``lambda_max`` for -1.

    :func:`_sweep`'s evaluator for ``d = 3``.  Smith's form (Commun. ACM 4,
    168, 1961) on ``B = M - q I``, ``q = tr M / 3``: with
    ``p^2 = |B|_F^2 / 6`` and ``r = det B / (2 p^3)``,
    ``lambda_min = q + 2 p cos(arccos(r) / 3 + 2 pi / 3)``, within about
    ``1e-14 * max|coeffs|`` of LAPACK.  ``-M`` has ``-q``, ``p`` and ``-r``,
    so both ends come from one evaluation of ``q``, ``p`` and ``r``, and each
    takes the operations (hence the bits) of a sweep of ``s M`` alone.  The
    entries' weights are scaled once per family by ``2^-e``, ``2^e`` the power
    of two just above the largest, so nothing overflows or underflows and a
    row's bits depend on its phase alone.  Where ``s r > 1 - _CLUSTER_GAP``
    (or ``p = 0``) the two smallest eigenvalues of ``s M`` nearly coincide
    and ``arccos`` loses half its digits, so the row takes LAPACK's
    ``lambda_min`` (:func:`_lowest`, sign 1) of ``s M`` scaled by the same
    ``2^-e`` (Kopp, Int. J. Mod. Phys. C 19, 523, 2008); LAPACK's own
    rescaling of tiny or huge matrices then never applies, and the sweep
    scales exactly with the family.
    """
    # Per basis function (cos phi, sin phi, 1), the weights of q, the diagonal of
    # B and the real and imaginary parts of M's entries (1, 0), (2, 1), (2, 0):
    # Re(x A + conj(x) AH + C) = cos (Re A + Re AH) + sin (Im AH - Im A) + Re C.
    coeffs = family.reshape(3, 9)
    A, AH, C = coeffs[:, _ENTRIES3]
    w = np.empty((3, 10))
    w[:, 1:7] = A.real + AH.real, AH.imag - A.imag, C.real
    w[:, 7:] = (A.imag + AH.imag)[3:], (A.real - AH.real)[3:], C.imag[3:]
    w[:, 0] = w[:, 1:4].sum(axis=1) / 3.0
    w[:, 1:4] -= w[:, :1]
    e = math.frexp(np.abs(w).max())[1]
    x = basis[:, 0]
    xr, xi = x.real.copy(), x.imag.copy()
    # One array per quantity: one (10, n) stack measured slower, its pages faulted in on every call.
    q, a, b, c, ur, vr, wr, ui, vi, wi = (
        cos * xr + sin * xi + one for cos, sin, one in np.ldexp(w, -e).T.tolist()
    )
    uu, vv, ww = ur * ur + ui * ui, vr * vr + vi * vi, wr * wr + wi * wi
    p2 = (a * a + b * b + c * c + 2.0 * (uu + vv + ww)) / 6.0
    det = a * (b * c - vv) - b * ww - c * uu + 2.0 * ((ur * vr - ui * vi) * wr + (ur * vi + ui * vr) * wi)
    p = np.sqrt(p2)
    p3 = p2 * p
    flat = p3 == 0.0
    r = np.divide(0.5 * det, p3, out=np.zeros_like(p3), where=~flat)
    np.clip(r, -1.0, 1.0, out=r)
    lams = np.empty((len(signs), len(x)))
    for out, s in zip(lams, signs):
        # s * q and s * r are exact: -M's own q and r, bit for bit, wherever they are not zero.
        np.ldexp(s * q + 2.0 * p * np.cos(np.arccos(s * r) / 3.0 + _TWO_PI / 3.0), e, out=out)
        near = np.flatnonzero(flat | (s * r > 1.0 - _CLUSTER_GAP))
        if len(near):
            # -coeffs, not -E: the evaluation of -M rounds some zero entries to +0, and
            # LAPACK's reflectors read their sign.
            E = _evaluate(basis, coeffs if s > 0 else -coeffs).reshape(-1, 3, 3)[near]
            out[near] = np.ldexp(_lowest(np.ldexp(E.view(float), -e).view(complex))[0], e)
        out *= s
    return lams


def _sweep(family: np.ndarray, basis: np.ndarray, signs=(1.0,)) -> np.ndarray:
    """``s * lambda_min(s M)`` of a ``(3, d, d)`` Hermitian family per sign ``s`` (rows) and
    :func:`_basis` row (columns): ``lambda_min`` for 1, ``lambda_max`` for -1.

    The one grid sweep: ``d = 3`` in closed form by :func:`_lowest3`, every
    other ``d`` by :func:`_lowest` of the evaluated matrices.  The rows are
    evaluated and solved one block at a time, each block holding at most
    ``_SWEEP_ENTRIES`` matrix entries, so memory does not grow with
    ``len(basis) * d * d``.  A row's values do not depend on its block: every
    matrix gets the same product (a block of one row too, see
    :func:`_evaluate`) and the same solve as in one sweep over all rows.
    """
    d = family.shape[-1]
    coeffs = family.reshape(3, d * d)
    rows = max(1, _SWEEP_ENTRIES // (d * d))
    lams = np.empty((len(signs), len(basis)))
    for start in range(0, len(basis), rows):
        block = basis[start : start + rows]
        if d == 3:
            lams[:, start : start + rows] = _lowest3(family, block, signs)
        else:
            lams[:, start : start + rows] = _lowest(_evaluate(block, coeffs).reshape(-1, d, d), signs)
    return lams


@functools.lru_cache(maxsize=4)
def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The phases ``2 pi k / n`` (``k < n``) and their :func:`_basis` rows, read-only."""
    phis = np.arange(n) * (2.0 * math.pi / n)
    basis = _basis(phis)
    phis.flags.writeable = basis.flags.writeable = False
    return phis, basis


@functools.cache
def _seeds(d: int) -> tuple:
    """Per seed of 2d + 2: phase, x = e^{i phi}, basis row, (x, conj x, -1/x), [0 | I/x]; then
    the companion's upper half [0 | I]; read-only."""
    phis, basis = _grid(2 * d + 2)
    x = basis[:, 0].reshape(-1, 1, 1)
    pad = np.concatenate([np.zeros((len(phis), d, d)), np.eye(d) / x], axis=2)
    arrays = np.stack([x, np.conj(x), -1.0 / x], axis=1), pad, np.eye(d, 2 * d, d, dtype=complex)
    for a in arrays:
        a.flags.writeable = False
    return tuple(phis.tolist()), tuple(x.ravel().tolist()), basis, *arrays


def _hermitian_family(op: PhaseOperator, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``op``'s Hermitian part; :class:`NotHermitianError` past ``tol * max|coeffs|``."""
    family, _, hermitian = hermitian_part(op.coeffs, tol)
    if not hermitian:
        raise NotHermitianError("operator family is not hermitian-preserving")
    return family


def min_eigenvalue_profile(op: PhaseOperator, n: int = DEFAULT_GRID) -> tuple[np.ndarray, np.ndarray]:
    """Two float arrays: the phases ``2 pi k / n`` (``k < n``) and lambda_min of ``op`` at each.

    The phases are read-only and shared between calls.  Hermiticity is checked
    by :func:`_hermitian_family`.  The sweep evaluates and solves one block of
    phases at a time, at most 2^16 matrix entries (1 MiB) per block, so its
    memory does not grow with ``n * d * d``.  It is :func:`_sweep` (sign 1)
    over the :func:`_grid` rows, and any split of those rows into calls gives
    every phase the same bits.  A 3 x 3 family is swept in closed form,
    within about ``1e-14 * max|coeffs|`` of LAPACK (see :func:`_lowest3`);
    every other ``d`` as the certificate evaluates it, with :func:`_lowest`.
    """
    family = _hermitian_family(op)
    phis, basis = _grid(_checked_count("n", n))
    return phis, _sweep(family, basis)[0]


def _pencil_crossings(families: np.ndarray, anchors: list[int], M0: np.ndarray):
    """Crossing finder of the level set for a stack, each member linearised at its anchor.

    ``Q(x) = A x^2 + (C - L I) x + A^H`` is shifted by ``x = x0 + 1/y`` to
    ``y^2 Q(x0) + y Q'(x0) + A``, where ``x0`` is the seed of index
    ``anchors[m]`` for member ``m``.  On the circle ``Q(x0) = x0 (M0 - L I)``
    with ``M0 = M(phi0) = V diag(mu) V^H``, so in the eigenbasis of ``M0``
    the ``2d x 2d`` companion matrix of the shifted pencil needs only
    ``diag(1 / (mu - L))`` per level.  The returned function maps any
    members of the stack and their levels to the sorted phases of the roots
    within ``_CIRCLE_BAND`` of the circle, with one ``eigvals`` call over
    the companion matrices of those members alone.
    """
    d = families.shape[-1]
    _, xs, _, scalars, pad, upper = _seeds(d)
    x0 = [xs[k] for k in anchors]
    x, xc, inv = scalars.take(anchors, axis=0).swapaxes(0, 1)
    pad = pad.take(anchors, axis=0)
    mu, V = _solve(_umath_linalg.eigh_lo, M0, "D->dD")
    mu = mu[:, :, None]
    # Q(x0)^{-1} [A | Q'(x0)] = (M0 - L)^{-1} [A | x0 A - conj(x0) A^H] / x0 + [0 | I / x0],
    # where V^H A^H V = G^H for G = V^H A V.
    G = V.conj().swapaxes(1, 2) @ families[:, 0] @ V
    blocks = np.concatenate([G, x * G - xc * G.conj().swapaxes(1, 2)], axis=2) * inv

    def crossings(members: list[int], levels: list[float]) -> list[list[float]]:
        companion = np.empty((len(members), 2 * d, 2 * d), dtype=complex)
        companion[:, :d] = upper
        shifted = mu.take(members, axis=0) - np.array(levels)[:, None, None]
        np.subtract(blocks.take(members, axis=0) / shifted, pad.take(members, axis=0), out=companion[:, d:])
        found = []
        for m, roots in zip(members, _solve(_umath_linalg.eigvals, companion, "D->D").tolist()):
            phases = []
            for y in roots:
                u = x0[m] * y + 1.0  # x = u / y; y = 0 is the root at infinity
                size = abs(y)
                if abs(abs(u) - size) <= _CIRCLE_BAND * size:
                    w = u * y.conjugate()
                    phases.append(math.atan2(w.imag, w.real) % _TWO_PI)
            found.append(sorted(phases))
        return found

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
        for p in seen:
            if lo < p < hi or lo < p + _TWO_PI < hi:
                break
        else:
            mids.append((0.5 * (a + b)) % _TWO_PI)
    return mids


def _constant_level_crossings(E: np.ndarray, g: float, scale: float):
    """Crossing finder for one family with a constant eigenvalue ``g0 ~ g``.

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
    ev = _solve(_umath_linalg.eigvalsh_lo, E, "D->d")
    near = np.abs(ev - g) <= _CONSTANT_REL * scale
    k = int(near.sum(axis=1).min())
    order = np.argsort(np.abs(ev - g), axis=1)
    rest = np.take_along_axis(ev, order[:, k:], axis=1)

    def crossings(level: float) -> list[float]:
        coeffs = np.fft.fft(np.prod((rest - level) / scale, axis=1)) / n
        # x^d r(x): coefficient of x^m, m = d .. -d, highest power first
        poly = np.concatenate([coeffs[d::-1], coeffs[: d + 1 : -1]])
        return sorted(
            math.atan2(x.imag, x.real) % _TWO_PI
            for x in np.roots(poly).tolist()
            if abs(abs(x) - 1.0) <= _CIRCLE_BAND
        )

    return crossings


def _minimum(families: np.ndarray, sizes: list[float]) -> tuple[list[float], list[float]]:
    """Per family of an ``(N, 3, d, d)`` stack: min over phi of lambda_min and a phase attaining it.

    ``sizes`` holds their ``max|coeffs|``.  The level-set iteration of the module docstring on
    a stack ("Stacks" there); a degenerate member (or a zero one) finds its crossings alone.
    """
    d = families.shape[-1]
    seeds, _, basis, *_ = _seeds(d)
    n = len(seeds)
    flat = families.reshape(-1, 3, d * d)
    E = (basis @ flat).reshape(-1, d, d)  # member-major
    lams = _lowest(E)[0].tolist()
    g, phi, eps, split, anchors = [], [], [], {}, []
    for m, size in enumerate(sizes):
        lam = lams[m * n : (m + 1) * n]
        low, top = min(lam), max(lam)
        g.append(low)
        phi.append(seeds[lam.index(low)])
        eps.append(_LEVEL_GAP * size)
        anchors.append(m * n + lam.index(top))
        if top - low + eps[m] <= _DEGENERATE_REL * size:
            split[m] = _constant_level_crossings(E[m * n : (m + 1) * n], low, size)
    # Anchored at each member's largest seed (``anchors`` index the rows of
    # ``E``); built for every member, used by those that are not split off.
    pencil = _pencil_crossings(families, [k % n for k in anchors], E.take(anchors, axis=0))

    seen = [seeds] * len(g)
    active = list(range(len(g)))
    for _ in range(_MAX_LEVELS):
        if not active:
            return g, phi
        rows = [m for m in active if m not in split]
        cross = dict(zip(rows, pencil(rows, [g[m] - eps[m] for m in rows])))
        owners, mids, spans = [], [], []
        for m in active:
            found = split[m](g[m] - eps[m]) if m in split else cross[m]
            if found:
                arcs = _open_arcs(found, seen[m])
                spans.append((m, len(mids), len(mids) + len(arcs)))
                owners += [m] * len(arcs)
                mids += arcs
        active = []
        if not mids:
            continue
        at = _basis(mids)[:, None] @ flat.take(owners, axis=0)
        values = _lowest(at.reshape(-1, d, d))[0].tolist()
        for m, lo, hi in spans:
            vals = values[lo:hi]
            seen[m] = [*seen[m], *mids[lo:hi]]
            low = min(vals)
            if low < g[m] - eps[m]:
                g[m], phi[m] = low, mids[lo + vals.index(low)]
                active.append(m)
    raise RuntimeError("positivity level-set iteration did not converge")


def _certify_many(families, tol: float) -> list[PositivityVerdict | None]:
    """The certificate on each ``(3, d, d)`` Hermitian family, ``None`` for ``None``.

    A family is positive iff its minimum is at least ``-tol * max|family|``;
    the families of one dimension are certified as one stack.
    """
    verdicts: list[PositivityVerdict | None] = [None] * len(families)
    groups: dict[int, list[int]] = {}
    for i, family in enumerate(families):
        if family is not None:
            groups.setdefault(family.shape[-1], []).append(i)
    for members in groups.values():
        stack = np.array([families[i] for i in members])
        sizes = np.abs(stack).max(axis=(1, 2, 3)).tolist()
        for i, size, low, phi in zip(members, sizes, *_minimum(stack, sizes)):
            verdicts[i] = PositivityVerdict(low >= -tol * size, low, phi)
    return verdicts


def positivity_many(ops, tol: float = DEFAULT_TOL) -> list[PositivityVerdict | None]:
    """:func:`is_positive_over_phase` for each operator, ``None`` for a non-hermitian one.

    Operators are grouped by dimension, and each group's certificate runs
    once over its ``(N, 3, d, d)`` stack.
    """
    tol = _checked_tol(tol)
    parts = (hermitian_part(op.coeffs, tol) for op in ops)
    return _certify_many([f if hermitian else None for f, _, hermitian in parts], tol)


def is_positive_over_phase(op: PhaseOperator, tol: float = DEFAULT_TOL) -> PositivityVerdict:
    """Certify ``lambda_min(op(phi)) >= -tol * max|coeffs|`` over the whole phase circle.

    ``min_eigenvalue`` is the exact minimum over the circle (within
    ``1e-13 * max|coeffs|``, see the module docstring), attained at
    ``witness_phi`` for every verdict; ``coeffs`` are the Hermitian part's.
    Hermiticity is checked within ``tol * max|op.coeffs|``
    (:class:`NotHermitianError`, from :func:`_hermitian_family`).  The
    certificate is :func:`positivity_many`'s, on a stack of one.
    """
    return _certify_many([_hermitian_family(op, _checked_tol(tol))], tol)[0]

