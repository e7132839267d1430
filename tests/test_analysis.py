"""Tests for case classification, forcing checks and the full analysis."""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from phaseclone import (
    CaseLabel,
    ConstantOperator,
    FirstOrderPoly,
    NotPositiveError,
    PhaseOperator,
    PreconditionError,
    SampleRejected,
    UncorrelatedTriple,
    analyze,
    assemble_triple,
    builtin,
    case2_forcing_check,
    classify,
    deterministic_tensor_obstruction,
    generate_case2_candidate,
    mul,
    output_depends_on_phase,
    phase_state_operator,
    submatrix_positivity,
    swap_systems,
    trace_poly,
)

from helpers import fp, random_hp_operator


@pytest.fixture(scope="module")
def counterexample():
    return builtin("counterexample").payload


@pytest.fixture(scope="module")
def case1():
    return builtin("case1-example").payload


def _proportional(P, gamma_rows):
    return PhaseOperator.from_rows(
        [[complex(g) * P for g in row] for row in gamma_rows]
    )


def _positive_case2_triple():
    # r = 3 keeps the probability strictly positive on the whole circle, so
    # a small off-diagonal carrying only the inner root stays positive.
    theta = 0.3
    alpha = cmath.exp(-1j * theta)
    P = FirstOrderPoly(alpha, alpha.conjugate(), 3.0 + 1.0 / 3.0)
    p1 = cmath.exp(1j * theta) / 3.0
    gamma1 = [[0.6, 0.1 + 0.05j], [0.1 - 0.05j, 0.4]]
    out1 = _proportional(P, gamma1)
    t = 0.05
    offdiag = FirstOrderPoly(0.0, t * p1, t)
    out2 = PhaseOperator.from_rows(
        [[0.5 * P, offdiag], [offdiag.conjugate(), 0.5 * P]]
    )
    return assemble_triple(out1, out2)


# ----------------------------------------------------- phase dependence

def test_case1_output_is_constant(case1):
    P = trace_poly(case1.out1)
    dep, gamma = output_depends_on_phase(case1.out1, P)
    assert not dep
    assert np.allclose(gamma.as_array(), 0.5 * np.eye(2), atol=1e-12)


def test_counterexample_outputs_depend(counterexample):
    P = trace_poly(counterexample.out1)
    dep, gamma = output_depends_on_phase(counterexample.out1, P)
    assert dep and gamma is None


def test_constructed_constant_output():
    rng = np.random.default_rng(61)
    P = fp(0.5, 0.5, 2.0)
    for _ in range(20):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g = 0.5 * (g + g.conj().T)
        g /= np.trace(g).real
        out = _proportional(P, g.tolist())
        dep, gamma = output_depends_on_phase(out, P)
        assert not dep
        assert np.allclose(gamma.as_array(), g, atol=1e-10)


def test_constant_operator_trace_validation():
    with pytest.raises(ValueError):
        ConstantOperator(((0.7, 0.0), (0.0, 0.5)))


# -------------------------------------------------------------- classify

def test_classify_counterexample(counterexample):
    verdict = classify(counterexample)
    assert verdict.label is CaseLabel.CASE2
    forms = verdict.entry_forms
    assert set(forms) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    # diagonals carry both factors of the double root; the off-diagonal pair
    # keeps a single one (affine shape on one side, free root 0 on the other)
    assert forms[(0, 0)].m == 1 and forms[(0, 0)].f == pytest.approx(1.0)
    assert forms[(0, 1)].m == 0
    assert forms[(1, 0)].m == 1 and forms[(1, 0)].f == 0
    assert forms[(0, 1)].scale == pytest.approx(1.0)


def test_classify_case1(case1):
    assert classify(case1).label is CaseLabel.CASE1


def test_classify_case3_by_swapping(case1):
    assert classify(swap_systems(case1)).label is CaseLabel.CASE3


def test_classify_constant_probability():
    t = builtin("projective-discard").payload
    assert classify(t).label is CaseLabel.CONSTANT_PROBABILITY


def test_classify_propagates_not_positive():
    # valid triple whose trace polynomial dips negative
    P = fp(0.25, 0.25, 0.25)
    out = _proportional(P, [[0.5, 0.0], [0.0, 0.5]])
    t = assemble_triple(out, out)
    with pytest.raises(NotPositiveError):
        classify(t)


def test_classification_exhaustive_and_consequences():
    labels = {CaseLabel.CASE1: 0, CaseLabel.CASE2: 0, CaseLabel.CASE3: 0}
    for k in range(150):
        try:
            t = generate_case2_candidate([909, k])
        except SampleRejected:
            continue
        verdict = classify(t)
        assert verdict.label in labels
        labels[verdict.label] += 1
        P = trace_poly(t.out1)
        if verdict.label is CaseLabel.CASE1:
            assert output_depends_on_phase(t.out1, P)[0] is False
        elif verdict.label is CaseLabel.CASE3:
            assert output_depends_on_phase(t.out2, P)[0] is False
    assert all(count > 0 for count in labels.values())


# --------------------------------------------------------- forcing check

def test_forcing_check_positive_case2_member():
    t = _positive_case2_triple()
    assert classify(t).label is CaseLabel.CASE2
    report = analyze(t)
    assert report.all_positive
    assert report.out1_phase_dependent is False
    assert report.out2_phase_dependent is True
    assert case2_forcing_check(t) is True


def test_forcing_check_counterexample_precondition(counterexample):
    with pytest.raises(PreconditionError):
        case2_forcing_check(counterexample)


def test_forcing_check_wrong_case(case1):
    with pytest.raises(PreconditionError):
        case2_forcing_check(case1)


def test_forcing_unreachable_for_affine_offdiagonal():
    # Degenerate-root member whose out1 off-diagonal keeps only one factor:
    # a principal submatrix already fails positivity, so the forcing check
    # can never be invoked on it.
    P = fp(1.0, 1.0, 2.0)
    a = 0.05
    offdiag = fp(0, 1.0, 1.0)
    out1 = PhaseOperator.from_rows([[a * P, offdiag], [offdiag.conjugate(), (1 - a) * P]])
    out2 = PhaseOperator.from_rows(
        [[0.5 * P, offdiag], [offdiag.conjugate(), 0.5 * P]]
    )
    t = assemble_triple(out1, out2)
    assert classify(t).label is CaseLabel.CASE2
    verdict = submatrix_positivity(t.out1, 0, 1)
    assert not verdict.positive
    assert verdict.min_eigenvalue < -1e-6
    with pytest.raises(PreconditionError):
        case2_forcing_check(t)


# --------------------------------------------------- deterministic obstruction

def test_obstruction_phase_state_pair():
    op = phase_state_operator(0.5)
    assert deterministic_tensor_obstruction(op, op)
    prod = mul(op.entry(0, 1).coeffs, op.entry(0, 1).coeffs)
    assert prod.tolist() == [0.25, 0, 0, 0, 0]


def test_obstruction_footnote_pair_absent():
    t = builtin("footnote-linear-only").payload
    assert not deterministic_tensor_obstruction(t.out1, t.out2)


def test_obstruction_random_hp_pairs():
    rng = np.random.default_rng(67)
    for _ in range(100):
        o1, o2 = random_hp_operator(rng), random_hp_operator(rng)
        assert deterministic_tensor_obstruction(o1, o2)


# ----------------------------------------------------------------- analyze

def test_analyze_counterexample(counterexample):
    rep = analyze(counterexample)
    assert rep.hp_ok
    assert rep.relation_ok and rep.relation.max_residual < 1e-12
    assert not rep.all_positive
    assert rep.case.label is CaseLabel.CASE2
    assert rep.out1_phase_dependent and rep.out2_phase_dependent
    assert rep.theorem_consistent


def test_analyze_case1(case1):
    rep = analyze(case1)
    assert rep.hp_ok and rep.relation_ok
    assert rep.all_positive
    assert rep.case.label is CaseLabel.CASE1
    assert rep.out1_phase_dependent is False
    assert rep.theorem_consistent


def test_analyze_projective_discard():
    rep = analyze(builtin("projective-discard", q=0.3).payload)
    assert rep.probability == "constant-probability"
    assert rep.case.label is CaseLabel.CONSTANT_PROBABILITY
    assert rep.out1_phase_dependent is False
    assert rep.out2_phase_dependent is False
    assert rep.all_positive
    assert rep.theorem_consistent


def test_analyze_footnote():
    rep = analyze(builtin("footnote-linear-only").payload)
    assert not rep.hp_ok
    assert rep.relation_ok
    assert rep.positivity_out1 is None
    assert rep.out1_phase_dependent and rep.out2_phase_dependent
    assert rep.theorem_consistent


def test_analyze_never_raises_on_zero_triple():
    from phaseclone import JointPhaseOperator, UncorrelatedTriple

    zero = PhaseOperator.zero(2)
    joint = JointPhaseOperator(PhaseOperator.zero(4).coeffs, dim1=2, dim2=2)
    rep = analyze(UncorrelatedTriple(joint=joint, out1=zero, out2=zero))
    assert rep.probability == "zero-probability"
    assert not rep.relation_ok
    assert rep.theorem_consistent


def test_analyze_hermitian_within_tol_does_not_raise():
    # Hermitian within tol = 1e-9 but not within 1e-10: positivity checks
    # hermiticity at the same tol as analyze, so a report comes back.
    t = builtin("case1-example").payload
    coeffs = t.out1.coeffs.copy()
    coeffs[2, 0, 1] += 5e-10
    shifted = UncorrelatedTriple(joint=t.joint, out1=PhaseOperator(coeffs), out2=t.out2)
    rep = analyze(shifted)
    assert rep.hp_out1
    assert rep.positivity_out1 is not None and rep.positivity_out1.positive
    assert rep.theorem_consistent


def test_phase_dependence_projection_recovers_gamma():
    P = fp(0.3 - 0.1j, 0.3 + 0.1j, 1.2)
    gamma = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    out = PhaseOperator(gamma[None] * P.coeffs[:, None, None])
    dependent, const = output_depends_on_phase(out, P)
    assert dependent is False
    assert np.abs(const.as_array() - gamma).max() < 1e-15
    bumped = out.coeffs.copy()
    bumped[0, 0, 1] += 1e-6
    assert output_depends_on_phase(PhaseOperator(bumped), P)[0] is True
