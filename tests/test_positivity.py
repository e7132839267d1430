"""Tests for probability decomposition and eigenvalue positivity sweeps."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from phaseclone import (
    ConstantProbabilityError,
    FirstOrderPoly,
    FullForm,
    NotHermitianError,
    NotPositiveError,
    NotRealValuedError,
    PhaseOperator,
    builtin,
    decompose_probability,
    expand,
    is_positive_over_phase,
    min_eigenvalue_profile,
    phase_state_operator,
)
from phaseclone.positivity import _basis, _lambda_min_grid

from helpers import fp, grid, random_hp_operator

SQRT3 = math.sqrt(3.0)


# -------------------------------------------------- probability decomposition

def test_decompose_counterexample_probability():
    dec = decompose_probability(fp(0.25, 0.25, 0.5))
    assert dec.alpha_abs == pytest.approx(0.25)
    assert dec.theta == pytest.approx(0.0)
    assert dec.r == pytest.approx(1.0)
    assert dec.p0 == pytest.approx(1.0)
    assert dec.p1 == pytest.approx(1.0)


def test_decompose_case1_probability():
    dec = decompose_probability(fp(0.125, 0.125, 0.5))
    assert dec.r == pytest.approx(2.0 + SQRT3, abs=1e-10)
    assert dec.p0 == pytest.approx(2.0 + SQRT3, abs=1e-10)
    assert dec.p1 == pytest.approx(2.0 - SQRT3, abs=1e-10)


def test_decompose_not_positive():
    p = fp(0.25, 0.25, 0.25)
    with pytest.raises(NotPositiveError):
        decompose_probability(p)
    # grid oracle: 2*(1/4)cos(phi) + 1/4 dips to -1/4
    values = np.array([p.eval(x).real for x in grid(4096)])
    assert values.min() == pytest.approx(-0.25, abs=1e-6)


def test_decompose_not_real():
    with pytest.raises(NotRealValuedError):
        decompose_probability(fp(1j, 1j, 0.5))


def test_decompose_constant():
    with pytest.raises(ConstantProbabilityError):
        decompose_probability(fp(0, 0, 0.3))


def test_decompose_boundary_band():
    # within +-1e-9 of ratio 2 the decomposition accepts and clamps r to 1
    dec = decompose_probability(fp(0.5, 0.5, 1.0 - 2.5e-10))
    assert dec.r == 1.0
    with pytest.raises(NotPositiveError):
        decompose_probability(fp(0.5, 0.5, 1.0 - 1e-7))


def test_decompose_matches_grid_oracle():
    rng = np.random.default_rng(41)
    phis = grid(4096)
    cosg = np.cos(phis)
    sing = np.sin(phis)
    for _ in range(2000):
        alpha = rng.uniform(0.05, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        ratio = rng.uniform(0.0, 4.5)
        if abs(ratio - 2.0) < 1e-6:
            continue  # hairline band: below the resolution of the grid oracle
        P = FirstOrderPoly(alpha, alpha.conjugate(), ratio * abs(alpha))
        gmin = (2.0 * (alpha.real * cosg - alpha.imag * sing) + P.c.real).min()
        try:
            decompose_probability(P)
            ok = True
        except NotPositiveError:
            ok = False
        assert ok == (gmin >= -1e-9)


def test_decomposition_reproduces_probability():
    rng = np.random.default_rng(43)
    for _ in range(200):
        alpha_abs = rng.uniform(0.05, 2.0)
        theta = rng.uniform(0, 2 * math.pi)
        ratio = rng.uniform(2.0, 5.0)
        alpha = alpha_abs * cmath.exp(-1j * theta)
        P = FirstOrderPoly(alpha, alpha.conjugate(), ratio * alpha_abs)
        dec = decompose_probability(P)
        assert dec.to_poly().distance(P) <= 1e-10
        rebuilt = expand(FullForm(alpha, dec.p0, dec.p1))
        assert rebuilt.distance(P) <= 1e-10


# ------------------------------------------------------------ eigen profiles

def test_profile_counterexample_minimum_at_zero():
    out1 = builtin("counterexample").payload.out1
    phis, lams = min_eigenvalue_profile(out1, 64)
    phi0, lam0 = phis[0], lams[0]
    assert phi0 == 0.0
    # oracle: direct eigendecomposition of the evaluated matrix
    oracle = np.linalg.eigvalsh(np.array([[0.5, 2.0], [2.0, 0.5]]))[0]
    assert lam0 == pytest.approx(oracle, abs=1e-12)
    assert lam0 == pytest.approx(-1.5, abs=1e-12)


def test_profile_case1_out2_formula():
    out2 = builtin("case1-example").payload.out2
    for phi, lam in zip(*min_eigenvalue_profile(out2, 128)):
        expected = min((math.cos(phi) + 1.0) / 4.0, 0.25)
        assert lam == pytest.approx(expected, abs=1e-12)
        assert lam >= -1e-12


def test_profile_zero_operator():
    _, lams = min_eigenvalue_profile(PhaseOperator.zero(2), 16)
    assert all(lam == 0.0 for lam in lams)


def test_profile_requires_hermiticity():
    out1 = builtin("footnote-linear-only").payload.out1
    with pytest.raises(NotHermitianError):
        min_eigenvalue_profile(out1, 8)


def test_analytic_matches_eigensolver():
    rng = np.random.default_rng(47)
    phis = grid(128)
    for _ in range(25):
        op = random_hp_operator(rng)
        analytic = _lambda_min_grid(op.coeffs, _basis(phis))
        A, B, C = op.coeffs
        x = np.exp(1j * phis)[:, None, None]
        solver = np.linalg.eigvalsh(x * A + np.conj(x) * B + C)[:, 0]
        assert np.max(np.abs(analytic - solver)) < 1e-10


# ------------------------------------------------------- positivity verdicts

def test_positive_counterexample_negative():
    out1 = builtin("counterexample").payload.out1
    verdict = is_positive_over_phase(out1)
    assert not verdict.positive
    assert verdict.min_eigenvalue == pytest.approx(-1.5, abs=1e-9)
    assert abs(verdict.witness_phi) < 1e-3 or abs(verdict.witness_phi - 2 * math.pi) < 1e-3


def test_positive_case1_joint():
    joint = builtin("case1-example").payload.joint
    verdict = is_positive_over_phase(joint)
    assert verdict.positive
    # lambda_min = 0 only at phi = pi (0.125 for |phi| <= pi/4), and the
    # positive verdict reports that phase too.
    assert verdict.witness_phi == pytest.approx(math.pi, abs=1e-9)
    assert verdict.min_eigenvalue >= -1e-9


def test_positive_phase_state():
    rng = np.random.default_rng(53)
    for q in rng.uniform(0.05, 0.95, size=5):
        assert is_positive_over_phase(phase_state_operator(float(q))).positive


# --------------------------------------------------------------- submatrices

def principal(op: PhaseOperator, idx: list) -> PhaseOperator:
    """The principal submatrix family on rows and columns ``idx``."""
    return PhaseOperator(op.coeffs[:, idx][:, :, idx])


def test_submatrix_counterexample():
    out1 = builtin("counterexample").payload.out1
    assert not is_positive_over_phase(principal(out1, [0, 1])).positive


def test_submatrix_case1():
    out1 = builtin("case1-example").payload.out1
    assert is_positive_over_phase(principal(out1, [0, 1])).positive


def test_submatrix_small_diagonal_weights():
    # Degenerate-root family member whose off-diagonal keeps only one factor:
    # with small diagonal weights the determinant inequality fails somewhere.
    alpha_abs, theta = 1.0, 0.0
    P = fp(alpha_abs, alpha_abs, 2.0 * alpha_abs)
    a = 0.05
    s = 1.0
    offdiag = fp(0, s, s)  # s (p0 conj(x) + 1) with p0 = 1
    op = PhaseOperator.from_rows([[a * P, offdiag], [offdiag.conjugate(), a * P]])
    verdict = is_positive_over_phase(principal(op, [0, 1]))
    assert not verdict.positive
    # oracle: P * (a_i a_j P - |s|^2 / |alpha|) < 0 at the witness
    phi = verdict.witness_phi
    Pv = P.eval(phi).real
    assert Pv * (a * a * Pv - s * s / alpha_abs) < 0


def test_submatrix_index_validation():
    out1 = builtin("counterexample").payload.out1
    with pytest.raises(IndexError):
        principal(out1, [0, 5])


def test_operator_positive_implies_submatrices_positive():
    rng = np.random.default_rng(59)
    P = fp(0.5, 0.5, 2.0)
    for _ in range(20):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = g @ g.conj().T
        h /= np.trace(h).real
        rows = [[complex(h[i, j]) * P for j in range(3)] for i in range(3)]
        op = PhaseOperator.from_rows(rows)
        assert is_positive_over_phase(op).positive
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert is_positive_over_phase(principal(op, [i, j])).positive


def test_decompose_probability_with_an_underflowing_phase():
    # cmath.phase(2+5e-324j) raises OverflowError; the phase is 0 to double precision.
    alpha = complex(2.0, 5e-324)
    dec = decompose_probability(fp(alpha, alpha.conjugate(), 5.0))
    assert dec.theta == 0.0
    assert dec.to_poly().distance(fp(alpha, alpha.conjugate(), 5.0)) <= 1e-15
