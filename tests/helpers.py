"""Shared construction helpers for the test suite."""

from __future__ import annotations

import cmath
import math

import numpy as np

from phaseclone import (
    AffineForm,
    FirstOrderPoly,
    FullForm,
    PhaseOperator,
    UncorrelatedTriple,
    builtin,
    trace_poly,
)

TWO_PI = 2.0 * math.pi


def fp(a, b, c) -> FirstOrderPoly:
    return FirstOrderPoly(a, b, c)


def grid(n: int) -> np.ndarray:
    return np.arange(n) * (TWO_PI / n)


def eval_on_grid(poly, phis) -> np.ndarray:
    return np.array([poly.eval(p) for p in phis])


def random_complex_annulus(rng, lo=0.1, hi=3.0) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))


def random_first_order(rng, lo=0.1, hi=3.0) -> FirstOrderPoly:
    return FirstOrderPoly(
        random_complex_annulus(rng, lo, hi),
        random_complex_annulus(rng, lo, hi),
        random_complex_annulus(rng, lo, hi),
    )


def random_hp_operator(rng, dim: int = 2, min_a: float = 1e-3) -> PhaseOperator:
    """Random hermitian-preserving operator, phase-dependent by construction."""
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        a = random_complex_annulus(rng, min_a, 2.0)
        rows[i][i] = FirstOrderPoly(a, a.conjugate(), rng.normal())
    for i in range(dim):
        for j in range(i + 1, dim):
            w = FirstOrderPoly(
                random_complex_annulus(rng, min_a, 2.0),
                random_complex_annulus(rng, min_a, 2.0),
                rng.normal() + 1j * rng.normal(),
            )
            rows[i][j] = w
            rows[j][i] = w.conjugate()
    return PhaseOperator.from_rows(rows)


def replace_joint_entry(t: UncorrelatedTriple, row: int, col: int, poly) -> UncorrelatedTriple:
    coeffs = t.joint.coeffs.copy()
    coeffs[:, row, col] = poly.coeffs
    joint = PhaseOperator(coeffs)
    return UncorrelatedTriple(joint=joint, out1=t.out1, out2=t.out2)


def max_coeff_diff(op1: PhaseOperator, op2: PhaseOperator) -> float:
    if op1.dim != op2.dim:
        raise ValueError("dimension mismatch")
    return float(np.abs(op1.coeffs - op2.coeffs).max())


def root_multiplicity(form, z: complex, tol: float = 1e-8) -> int:
    """Multiplicity (0, 1 or 2) of ``-z`` as a root of ``x * p(x)``, ``form = factorize(p)``.

    Equivalently, how many times the factor ``(x + z)`` divides the shifted
    polynomial.  Roots match with relative tolerance ``tol`` scaled by
    ``max(1, |z|)``.  A per-entry reference for the stacked root matcher.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("factor containment is defined for nonzero z only")
    if isinstance(form, FullForm):
        ws = (form.w0, form.w1)
    elif isinstance(form, AffineForm):
        ws = (form.w,)
    else:
        ws = ()
    limit = tol * max(1.0, abs(z))
    return sum(1 for w in ws if abs(w - z) <= limit)


def mixed_counterexample(eps: float) -> tuple:
    """The counterexample's outputs mixed as ``eps * out + (1 - eps) * P I/2``, as coefficients.

    In closed form each output's ``lambda_min`` is ``-2 eps^2`` and that of
    the joint assembled from them ``-4 eps^2``.
    """
    t = builtin("counterexample").payload
    P = trace_poly(t.out1).coeffs[:, None, None]
    return tuple(eps * out.coeffs + (1.0 - eps) * P * np.eye(2) / 2 for out in (t.out1, t.out2))
