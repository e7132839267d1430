"""Shared construction helpers for the test suite."""

from __future__ import annotations

import cmath
import math

import numpy as np

from phaseclone import (
    FirstOrderPoly,
    JointPhaseOperator,
    PhaseOperator,
    UncorrelatedTriple,
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
    joint = JointPhaseOperator(coeffs, dim1=t.joint.dim1, dim2=t.joint.dim2)
    return UncorrelatedTriple(joint=joint, out1=t.out1, out2=t.out2)
