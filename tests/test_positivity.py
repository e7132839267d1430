"""Tests for probability decomposition and eigenvalue positivity sweeps."""

from __future__ import annotations

import cmath
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    generate_case2_candidate,
    is_positive_over_phase,
    min_eigenvalue_profile,
    phase_state_operator,
    trace_poly,
)
from phaseclone import positivity
from phaseclone.operators import hermitian_part
from phaseclone.positivity import _basis, _sweep

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


@pytest.mark.parametrize("n", [2.5, 4.0, True, False, 0, -3, "8", None])
def test_profile_rejects_a_grid_size_that_is_not_a_count(n):
    out1 = builtin("counterexample").payload.out1
    with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {re.escape(repr(n))}"):
        min_eigenvalue_profile(out1, n)


def test_profile_requires_hermiticity():
    out1 = builtin("footnote-linear-only").payload.out1
    with pytest.raises(NotHermitianError):
        min_eigenvalue_profile(out1, 8)


def test_analytic_matches_eigensolver():
    rng = np.random.default_rng(47)
    phis = grid(128)
    for _ in range(25):
        op = random_hp_operator(rng)
        analytic = _sweep(op.coeffs, _basis(phis))[0]
        A, B, C = op.coeffs
        x = np.exp(1j * phis)[:, None, None]
        solver = np.linalg.eigvalsh(x * A + np.conj(x) * B + C)[:, 0]
        assert np.max(np.abs(analytic - solver)) < 1e-10


def _random_family(rng, d: int) -> np.ndarray:
    return hermitian_part(rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d)))[0]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 9, 16])
def test_blocked_sweep_equals_one_sweep_bit_for_bit(d):
    # Two full blocks and a partial one; the reference evaluates and solves
    # the whole stack at once (d = 3 in closed form, d >= 4 with LAPACK).
    rows = max(1, positivity._SWEEP_ENTRIES // (d * d))
    n = 2 * rows + rows // 2 + 1
    family = _random_family(np.random.default_rng([47, d]), d)
    basis = positivity._grid(n)[1]
    stack = (basis @ family.reshape(3, d * d)).reshape(n, d, d)
    if d == 1:
        reference = stack[:, 0, 0].real
    elif d == 2:
        h00, h11 = stack[:, 0, 0].real, stack[:, 1, 1].real
        reference = 0.5 * (h00 + h11) - np.hypot(0.5 * (h00 - h11), np.abs(stack[:, 0, 1]))
    elif d == 3:
        (reference,) = positivity._lowest3(family, basis)
    else:
        reference = np.linalg.eigvalsh(stack)[:, 0]
    swept = _sweep(family, basis)[0]
    assert swept.shape == (n,) and swept.tobytes() == reference.tobytes()


def test_profile_memory_does_not_grow_with_samples_times_d_squared():
    # One (1024, 64, 64) complex stack would take 64 MiB; a block holds at
    # most _SWEEP_ENTRIES entries (1 MiB).
    op = PhaseOperator(_random_family(np.random.default_rng(64), 64))
    tracemalloc.start()
    try:
        phis, lams = min_eigenvalue_profile(op, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lams.shape == (1024,)
    assert peak <= 4 * 2**20


# A d = 3 sweep is Smith's closed form, with LAPACK on rows whose two
# smallest eigenvalues nearly coincide.

def _probability_times(gamma: np.ndarray, P: FirstOrderPoly) -> np.ndarray:
    """The Hermitian family ``P * Gamma``."""
    return hermitian_part(np.asarray(P.coeffs)[:, None, None] * gamma)[0]


def _psd(rng, rank: int) -> np.ndarray:
    g = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
    return g @ g.conj().T


def _with_spectrum(rng, spectrum) -> np.ndarray:
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    return u @ np.diag(spectrum) @ u.conj().T


def _touching() -> FirstOrderPoly:
    """A probability ``1 + cos(phi - 0.7)`` with a double root on the circle."""
    a = 0.5 * cmath.exp(-0.7j)
    return FirstOrderPoly(a, a.conjugate(), 1.0)


def _cubic_families() -> dict:
    rng = np.random.default_rng(2026)
    P = _touching()
    sampled = [generate_case2_candidate([20260809, k]) for k in (3, 8, 13)]
    identity = hermitian_part(np.array([(0.3 + 0.1j) * np.eye(3), 0.2 * np.eye(3), -0.4 * np.eye(3)]))[0]
    return {
        "random": [_random_family(np.random.default_rng([3, k]), 3) for k in range(20)],
        "rank-1 psd": [_probability_times(_psd(rng, 1), P) for _ in range(4)],
        "rank-2 psd": [_probability_times(_psd(rng, 2), P) for _ in range(4)],
        "pair 1e-9 apart": [_probability_times(_with_spectrum(rng, [0.3, 0.3 + 1e-9, 1.7]), P) for _ in range(4)],
        "multiple of I": [identity, hermitian_part(np.array([0 * np.eye(3), 0 * np.eye(3), 2.5 * np.eye(3)]))[0]],
        "I off by 1e-110": [identity + 1e-110 * _random_family(rng, 3)],
        "scale 1e-150": [1e-150 * _random_family(rng, 3) for _ in range(4)],
        "scale 1e150": [1e150 * _random_family(rng, 3) for _ in range(4)],
        "zero": [np.zeros((3, 3, 3), dtype=complex)],
        "gamma outputs": [
            _probability_times(g, trace_poly(t.out1))
            for t in sampled
            for g in (_with_spectrum(rng, [0.5, 0.3, 0.2]), _with_spectrum(rng, [-0.2, 0.5, 0.7]))
        ],
    }


def _eigvalsh_sweep(family: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((basis @ family.reshape(3, 9)).reshape(-1, 3, 3))[:, 0]


@pytest.mark.parametrize("kind", sorted(_cubic_families()))
def test_cubic_sweep_is_within_1e_13_of_eigvalsh(kind):
    basis = positivity._grid(4096)[1]
    for family in _cubic_families()[kind]:
        scale = np.abs(family).max()
        error = np.abs(_sweep(family, basis)[0] - _eigvalsh_sweep(family, basis)).max()
        assert error <= 1e-13 * scale


def test_cubic_sweep_sends_clustered_rows_to_lapack_bit_for_bit(monkeypatch):
    # diag(cos phi, -cos phi, 2) in a random basis: its two smallest
    # eigenvalues cross at phi = pi/2 and 3 pi/2, so the rows near there
    # (and only those) go to LAPACK and keep its bits.
    u = np.linalg.qr(np.random.default_rng(7).normal(size=(3, 3)) + 1j)[0]
    half = u @ np.diag([0.5, -0.5, 0.0]) @ u.conj().T
    family = hermitian_part(np.array([half, half, u @ np.diag([0.0, 0.0, 2.0]) @ u.conj().T]))[0]
    sent = []
    lowest = positivity._lowest
    monkeypatch.setattr(positivity, "_lowest", lambda E, *signs: sent.append(E.copy()) or lowest(E, *signs))
    phis, basis = positivity._grid(4096)
    swept = _sweep(family, basis)[0]
    stack = (basis @ family.reshape(3, 9)).reshape(-1, 3, 3)
    index = {matrix.tobytes(): k for k, matrix in enumerate(stack)}
    rows = sorted(index[matrix.tobytes()] for E in sent for matrix in E)
    assert 0 < len(rows) < 100
    assert np.abs(np.cos(phis[rows])).max() < 0.05
    reference = np.linalg.eigvalsh(stack[rows])[:, 0]
    assert swept[rows].tobytes() == reference.tobytes()
    assert np.abs(swept - np.linalg.eigvalsh(stack)[:, 0]).max() <= 1e-13 * np.abs(family).max()


@pytest.mark.parametrize("kind", ["rank-1 psd", "pair 1e-9 apart", "multiple of I", "zero"])
def test_cubic_sweep_of_a_cluster_at_every_phase_is_lapack(kind):
    basis = positivity._grid(512)[1]
    for family in _cubic_families()[kind]:
        assert _sweep(family, basis)[0].tobytes() == _eigvalsh_sweep(family, basis).tobytes()


def test_cubic_sweep_of_a_psd_family_stays_above_the_floor():
    # P * Gamma with P touching zero, and P1 Gamma1 + P2 Gamma2 of rank 2,
    # whose smallest eigenvalue is 0 at every phase.
    rng = np.random.default_rng(11)
    basis = positivity._grid(4096)[1]
    P, Q = _touching(), FirstOrderPoly(0.4j, -0.4j, 1.0)
    families = [_probability_times(_psd(rng, rank), P) for rank in (1, 2, 3) for _ in range(5)]
    families += [_probability_times(_psd(rng, 1), P) + _probability_times(_psd(rng, 1), Q) for _ in range(10)]
    for family in families:
        assert _sweep(family, basis)[0].min() >= -1e-13 * np.abs(family).max()


@pytest.mark.parametrize("kind", ["random", "rank-1 psd", "rank-2 psd", "gamma outputs"])
def test_cubic_sweep_scales_by_powers_of_two_bit_for_bit(kind):
    basis = positivity._grid(1024)[1]
    for family in _cubic_families()[kind][:4]:
        swept = _sweep(family, basis)[0]
        for j in range(-400, 401, 40):
            assert _sweep(2.0**j * family, basis)[0].tobytes() == (2.0**j * swept).tobytes()


def test_cubic_sweep_raises_no_floating_point_warning():
    basis = positivity._grid(4096)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise", under="ignore"):
            for families in _cubic_families().values():
                for family in families:
                    _sweep(family, basis)


# Both extreme eigenvalues from one sweep.

def _extreme_family(rng, d: int, kind: str) -> np.ndarray:
    """A ``(3, d, d)`` Hermitian family: random, ``P * Gamma`` with a PSD ``Gamma`` of
    random rank, a spectrum pair ``0`` to ``1e-4`` apart at every phase, two eigenvalues
    that cross (at the bottom or the top of the spectrum), a constant diagonal of
    dyadic entries (exact eigenvalues, zero among them), or zero.  A spectrum of three
    values repeats cyclically for ``d > 3``."""
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    spectrum = lambda values: u @ np.diag(np.resize(values, d)) @ u.conj().T  # noqa: E731
    if kind == "random":
        return _random_family(rng, d)
    if kind == "psd":
        shape = (d, rng.integers(1, d + 1))
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return _probability_times(g @ g.conj().T, _touching())
    if kind == "pair":
        gap = rng.choice([0.0, 1e-9, 1e-4])
        return _probability_times(spectrum([0.3, 0.3 + gap, 1.7]), _touching())
    if kind == "crossing":
        half = spectrum([0.5, -0.5, 0.0])
        return hermitian_part(np.array([half, half, spectrum([0.0, 0.0, rng.choice([-2.0, 2.0])])]))[0]
    if kind == "diagonal":
        return np.array([0 * np.eye(d), 0 * np.eye(d), np.diag(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], d))])
    return np.zeros((3, d, d), dtype=complex)


@settings(max_examples=250, deadline=None)
@given(
    st.integers(1, 6),
    st.sampled_from(["random", "psd", "pair", "crossing", "diagonal", "zero"]),
    st.booleans(),
    st.sampled_from([-500, 0, 500]),
    st.integers(1, 600),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_extremes_sweep_is_both_ends_bit_for_bit(d, kind, negate, exponent, n, one_row, seed):
    # (lambda_min, lambda_max) from one evaluation of the family: the bits of
    # the sweep of the family and, for d <= 3, of the negated family.  A pair
    # or crossing puts r near 1 (negated: near -1) on some rows, which both
    # ends send to LAPACK on their own family.  A d <= 2 matrix that is exactly
    # zero at a phase may read a zero of the other sign there: evaluating
    # -family rounds sums of signed zero products to +0, where negating the
    # matrix gives -0.  For d >= 4 lambda_max is the last eigenvalue of the
    # same eigvalsh call, which LAPACK need not round as the first of -M: a
    # backward-stable solver puts both within O(d) ulps of |M|_2 = max(-low, high)
    # (at most 9 ulps over 43,200 families of these kinds).
    family = 2.0**exponent * _extreme_family(np.random.default_rng(seed), d, kind)
    if negate:
        family = -family
    basis = positivity._grid(n)[1]
    with mock.patch.object(positivity, "_SWEEP_ENTRIES", 1 if one_row else positivity._SWEEP_ENTRIES):
        low, high = _sweep(family, basis, (1.0, -1.0))
        assert low.tobytes() == _sweep(family, basis)[0].tobytes()
        reference = -_sweep(-family, basis)[0]
    if d > 3:
        assert (np.abs(high - reference) <= 4 * d * np.spacing(np.maximum(-low, high))).all()
        return
    assert np.array_equal(high, reference)
    zero = ~positivity._evaluate(basis, family.reshape(3, d * d)).any(axis=1) & (d <= 2)
    assert high[~zero].tobytes() == reference[~zero].tobytes()


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


def test_decompose_probability_judges_positivity_as_the_certificate_does():
    # min P = R - 2|alpha| is judged against tol * max|P|, as the certificate judges
    # the 1 x 1 family [[P]].  The probes sit k * 1e-10 + 3.7e-11 below ratio 2 at
    # three scales; judging min P against tol * |alpha| instead splits the two on 30.
    disagreements, rejected = [], 0
    for alpha_abs in (1e-3, 1.0, 1e3):
        for k in range(1, 60):
            R = alpha_abs * (2.0 - (k * 1e-10 + 3.7e-11))
            P = fp(alpha_abs, alpha_abs, R)
            try:
                decompose_probability(P)
                decomposed = True
            except NotPositiveError:
                decomposed, rejected = False, rejected + 1
            certified = is_positive_over_phase(PhaseOperator.from_rows([[P]])).positive
            if decomposed != certified:
                disagreements.append((alpha_abs, k))
    assert disagreements == []
    assert rejected == 3 * 40  # k >= 20 dips below -1e-9 * max|P| = -2e-9 |alpha|
    # The case from the rule's statement: |alpha| = 1, R = 2 - 1.5e-9.
    P = fp(1.0, 1.0, 2.0 - 1.5e-9)
    assert decompose_probability(P).r == 1.0
    assert is_positive_over_phase(PhaseOperator.from_rows([[P]])).positive
