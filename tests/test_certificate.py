"""The level-set positivity certificate against an independent eigenvalue sweep.

The oracle below evaluates ``A e^{i phi} + B e^{-i phi} + C`` on a phase
grid with numpy's ``eigvalsh`` and refines around its lowest samples; it
shares no code with :mod:`phaseclone.positivity`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from phaseclone import (
    PhaseOperator,
    SampleRejected,
    analyze,
    analyze_many,
    builtin,
    generate_case2_candidate,
    is_positive_over_phase,
    phase_state_operator,
    positivity_many,
    validate_triples,
)

from helpers import random_hp_operator

TWO_PI = 2.0 * math.pi
DIMS = (1, 2, 3, 4, 6, 9)


def oracle_spectra(op: PhaseOperator, phis: np.ndarray) -> np.ndarray:
    A, B, C = op.coeffs
    x = np.exp(1j * phis)[:, None, None]
    E = x * A + np.conj(x) * B + C
    return np.linalg.eigvalsh(0.5 * (E + np.conj(np.swapaxes(E, 1, 2))))


def oracle_samples(op: PhaseOperator, n: int = 4096, spots: int = 8, fine: int = 2048):
    """(phases, lambda_min) on an n-point grid plus fine grids around its lowest dips."""
    h = TWO_PI / n
    phis = np.arange(n) * h
    lam = oracle_spectra(op, phis)[:, 0]
    dips = np.flatnonzero((lam <= np.roll(lam, 1)) & (lam <= np.roll(lam, -1)))
    extra = [
        phis[i] + np.linspace(-h, h, fine) for i in dips[np.argsort(lam[dips])][:spots]
    ]
    if extra:
        more = np.concatenate(extra)
        phis = np.concatenate([phis, more])
        lam = np.concatenate([lam, oracle_spectra(op, more)[:, 0]])
    return phis, lam


def shifted(op: PhaseOperator, delta: float) -> PhaseOperator:
    coeffs = op.coeffs.copy()
    coeffs[2] += delta * np.eye(op.dim)
    return PhaseOperator(coeffs)


def rotated(op: PhaseOperator, rng) -> PhaseOperator:
    """Conjugate by a fixed random unitary: the same spectrum at every phase."""
    q, _ = np.linalg.qr(rng.normal(size=(op.dim, op.dim)) + 1j * rng.normal(size=(op.dim, op.dim)))
    return PhaseOperator(q @ op.coeffs @ q.conj().T)


def bound(op: PhaseOperator) -> float:
    return 1e-12 * (1.0 + op.max_abs())


def assert_exact(op: PhaseOperator, verdict, lam: np.ndarray | None = None) -> None:
    """min_eigenvalue is below every oracle sample ``lam`` and attained at the witness."""
    if lam is None:
        lam = oracle_samples(op)[1]
    assert verdict.min_eigenvalue <= lam.min() + bound(op)
    if verdict.witness_phi is not None:
        at_witness = oracle_spectra(op, np.array([verdict.witness_phi]))[0, 0]
        assert abs(at_witness - verdict.min_eigenvalue) <= bound(op)


@pytest.mark.parametrize("dim", DIMS)
def test_verdicts_agree_near_the_minimum(dim):
    rng = np.random.default_rng(1000 + dim)
    for _ in range(4):
        base = random_hp_operator(rng, dim)
        lam = oracle_samples(base)[1]
        for level in (1e-3, 1e-7, -1e-7, -1e-3):
            # A shift of C by delta * I shifts every eigenvalue by delta.
            delta = level - lam.min()
            op = shifted(base, delta)
            verdict = is_positive_over_phase(op)
            assert verdict.positive == (level > 0)
            assert verdict.min_eigenvalue == pytest.approx(level, abs=1e-9)
            assert_exact(op, verdict, lam + delta)


def test_minimum_half_a_grid_step_off_the_grid():
    # P(phi) * diag(1, 3) with a sharp dip of P to -1e-6 at phi*: a 4096-point
    # grid misses it by half a step and reads about +6e-5 where the minimum
    # is 3 * (-1e-6).
    h = TWO_PI / 4096
    phi_star = 1000.5 * h
    alpha = -100.0 * np.exp(-1j * phi_star)  # P = R - 200 cos(phi - phi*)
    R = 2.0 * abs(alpha) - 1e-6
    gamma = np.diag([1.0, 3.0])
    coeffs = np.array([alpha * gamma, np.conj(alpha) * gamma, R * gamma])
    op = PhaseOperator(coeffs)
    grid = oracle_spectra(op, np.arange(4096) * h)[:, 0]
    assert grid.min() > 5e-5
    verdict = is_positive_over_phase(op)
    assert not verdict.positive
    assert verdict.min_eigenvalue == pytest.approx(-3e-6, abs=bound(op))
    assert abs(verdict.witness_phi - phi_star) < 1e-5
    assert_exact(op, verdict)


def test_zero_operator():
    for dim in (1, 2, 4):
        verdict = is_positive_over_phase(PhaseOperator.zero(dim))
        assert verdict.positive and verdict.min_eigenvalue == 0.0


def test_projective_discard():
    t = builtin("projective-discard", q=0.3).payload
    for op in (t.out1, t.out2, t.joint):
        verdict = is_positive_over_phase(op)
        assert verdict.positive
        assert abs(verdict.min_eigenvalue) <= bound(op)
        assert_exact(op, verdict)


@pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.77, 0.99])
def test_phase_state(q):
    # Eigenvalues 0 and 1 at every phase, with a moving eigenvector.
    op = phase_state_operator(q)
    verdict = is_positive_over_phase(op)
    assert verdict.positive
    assert abs(verdict.min_eigenvalue) <= bound(op)
    rng = np.random.default_rng(int(q * 100))
    op = rotated(op, rng)
    assert abs(is_positive_over_phase(op).min_eigenvalue) <= bound(op)


def test_singular_psd_gamma_times_probability():
    rng = np.random.default_rng(7)
    p = np.array([0.3 - 0.2j, 0.3 + 0.2j, 1.0])  # P >= 1 - 2 * |0.3 - 0.2i| > 0
    for dim in (2, 3, 4):
        g = rng.normal(size=(dim, dim - 1)) + 1j * rng.normal(size=(dim, dim - 1))
        gamma = g @ g.conj().T  # PSD of rank dim - 1
        op = PhaseOperator(p[:, None, None] * gamma)
        verdict = is_positive_over_phase(op)
        assert verdict.positive
        assert abs(verdict.min_eigenvalue) <= bound(op)
        assert_exact(op, verdict)
        # Flip the sign of one nonzero eigenvalue: not positive any more.
        w, v = np.linalg.eigh(gamma)
        w[-1] = -w[-1]
        op = PhaseOperator(p[:, None, None] * ((v * w) @ v.conj().T))
        verdict = is_positive_over_phase(op)
        assert not verdict.positive
        assert_exact(op, verdict)


def _branch(a: complex, c: float) -> PhaseOperator:
    """The 1 x 1 family ``a x + conj(a) conj(x) + c``."""
    return PhaseOperator(np.array([[[a]], [[np.conj(a)]], [[c]]]))


def _direct_sum(*ops: PhaseOperator) -> PhaseOperator:
    size = sum(op.dim for op in ops)
    coeffs = np.zeros((3, size, size), dtype=complex)
    start = 0
    for op in ops:
        stop = start + op.dim
        coeffs[:, start:stop, start:stop] = op.coeffs
        start = stop
    return PhaseOperator(coeffs)


@pytest.mark.parametrize("depth", [2e-10, 5e-9, 1e-6, 1e-3])
def test_constant_eigenvalue_with_a_dip_below_it(depth):
    # A branch 2|a| cos(phi - phi*) + c dipping to -depth next to a constant
    # eigenvalue 0, with a fixed (diag(0, 1)) and a moving (phase state)
    # eigenvector, hidden by a fixed rotation.  At |a| = 2e-8 and depth 2e-10
    # the branch is positive at every seed phase of the certificate.
    rng = np.random.default_rng(11)
    for a_abs in (2e-8, 0.4):
        a = a_abs * np.exp(-1.3j)
        fixed = PhaseOperator([np.zeros((2, 2)), np.zeros((2, 2)), np.diag([0.0, 1.0])])
        for base in (fixed, phase_state_operator(0.4)):
            op = rotated(_direct_sum(base, _branch(a, 2.0 * a_abs - depth)), rng)
            verdict = is_positive_over_phase(op)
            assert verdict.positive == (depth < 1e-9)
            assert verdict.min_eigenvalue == pytest.approx(-depth, abs=bound(op))
            assert_exact(op, verdict)


@pytest.mark.parametrize("k", [1e-8, 1e8])
def test_scaling_scales_the_minimum(k):
    rng = np.random.default_rng(13)
    ops = [random_hp_operator(rng, d) for d in (1, 2, 4)]
    ops += [phase_state_operator(0.3), builtin("projective-discard").payload.joint]
    for op in ops:
        scaled = PhaseOperator(k * op.coeffs)
        low = is_positive_over_phase(op).min_eigenvalue
        assert is_positive_over_phase(scaled, 1e-9 * k).min_eigenvalue == pytest.approx(
            k * low, abs=bound(scaled)
        )


def test_two_phase_state_blocks_with_a_shallow_dip():
    # A double constant eigenvalue 0 with moving eigenvectors next to a branch
    # 2 cos(phi - phi*) + 2 - 1e-8.  Anchored at a seed phase, where 0 is the
    # minimum, the shifted pencil is so ill-conditioned that rounding pushes
    # the two crossings of this dip off the circle at some phi*.
    ps = phase_state_operator(0.5)
    for k in range(20):
        phi_star = 0.1 + 0.3 * k
        op = _direct_sum(ps, ps, _branch(np.exp(-1j * phi_star), 2.0 - 1e-8))
        verdict = is_positive_over_phase(op)
        assert not verdict.positive
        assert verdict.min_eigenvalue == pytest.approx(-1e-8, abs=bound(op))
        assert abs(verdict.witness_phi - (phi_star + math.pi) % TWO_PI) < 1e-5
        assert_exact(op, verdict)


def test_huge_coefficients_with_a_constant_eigenvalue():
    # Seeds flat at 0 with coefficients at the bound MAX_COEFF = 1e150: the
    # split-off characteristic polynomial (at scale 1e150, a product of
    # 1e150 * 1e150 * 1e150) must not overflow.  Rounding is relative to the
    # coefficients, so is the tolerance.
    tol = 1e-9 * 1e150
    big = PhaseOperator([np.zeros((2, 2)), np.zeros((2, 2)), 1e150 * np.eye(2)])
    for scale in (1.0, 1e150):
        op = _direct_sum(PhaseOperator(scale * phase_state_operator(0.3).coeffs), big)
        verdict = is_positive_over_phase(op, tol)
        assert verdict.positive
        assert abs(verdict.min_eigenvalue) <= bound(op)
        assert_exact(op, verdict)
    # A branch dipping 1e141 below 0 between two seed phases.
    dip = _direct_sum(
        PhaseOperator(1e149 * phase_state_operator(0.3).coeffs),
        _branch(1e149 * np.exp(-0.3j), 2e149 - 1e141),
    )
    verdict = is_positive_over_phase(dip, tol)
    assert not verdict.positive
    assert verdict.min_eigenvalue == pytest.approx(-1e141, abs=bound(dip))
    assert abs(verdict.witness_phi - (math.pi + 0.3)) < 1e-5
    assert_exact(dip, verdict)


def _mixed_stack() -> list[PhaseOperator]:
    """Operators of every dimension, degenerate families and rescaled members."""
    rng = np.random.default_rng(2026)
    ops = []
    for d in DIMS:
        op = random_hp_operator(rng, d)
        ops += [op, shifted(op, 10.0 * (1.0 + op.max_abs()))]  # not positive, positive
    t = builtin("projective-discard", q=0.3).payload
    ps = phase_state_operator(0.5)
    ops += [t.out1, t.out2, t.joint, phase_state_operator(0.3)]
    ops.append(_direct_sum(ps, ps, _branch(np.exp(-0.7j), 2.0 - 1e-8)))
    ops += [PhaseOperator(k * op.coeffs) for k in (1e-8, 1e8) for op in ops[:4] + ops[-5:]]
    order = np.random.default_rng(5).permutation(len(ops))
    return [ops[i] for i in order]


def test_stack_matches_each_member_alone():
    # Per-member eps, scale and degenerate test: a shared scale would move the
    # minima of the 1e-8 members by far more than the bound.
    ops = _mixed_stack()
    stacked = positivity_many(ops)
    assert len(stacked) == len(ops)
    for op, verdict in zip(ops, stacked):
        alone = is_positive_over_phase(op)
        assert verdict.positive == alone.positive
        assert abs(verdict.min_eigenvalue - alone.min_eigenvalue) <= bound(op)
    assert any(v.positive for v in stacked) and not all(v.positive for v in stacked)


def test_non_hermitian_member_leaves_the_others_alone():
    footnote = builtin("footnote-linear-only").payload
    ops = _mixed_stack()
    mixed = ops[:3] + [footnote.out1] + ops[3:] + [footnote.joint]
    got = positivity_many(mixed)
    assert got[3] is None and got[-1] is None
    assert got[:3] + got[4:-1] == positivity_many(ops)
    assert got[:3] + got[4:-1] == [is_positive_over_phase(op) for op in ops]


def test_empty_stack():
    assert positivity_many([]) == []
    assert analyze_many([]) == []
    assert validate_triples([]) == []


def test_analyze_many_matches_analyze():
    triples = [builtin(name).payload for name in ("counterexample", "case1-example", "footnote-linear-only")]
    triples.append(builtin("projective-discard", q=0.3).payload)
    for k in range(30):
        try:
            triples.append(generate_case2_candidate([7, k]))
        except SampleRejected:
            pass
    reports = analyze_many(triples)
    assert reports == [analyze(t) for t in triples]
    assert not reports[2].hp_ok and reports[0].hp_ok
