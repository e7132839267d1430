"""Verdicts that must not change under the problem's symmetries.

A phase shift ``phi -> phi + delta`` maps each coefficient triple
``(A, B, C)`` to ``(A e^{i delta}, B e^{-i delta}, C)``; it moves the phase
at which anything happens but cannot change whether it happens, nor how the
factors are inlaid, so the case label holds too.  Swapping the two systems
exchanges the roles of the outputs and nothing else.  Scaling all three
operators by ``k > 0`` keeps every verdict and the case label.  Fixed local unitaries
``U``, ``V`` act as ``U out1 U^H``, ``V out2 V^H`` and ``(U (x) V) joint
(U (x) V)^H``: a change of basis, which keeps every verdict but not the
case label, since the entries it inspects mix.  A depolarising mix
``out_k -> a out_k + (1 - a) P I/d`` adds a multiple of the probability
``P`` to the diagonal and scales the rest, so no entry's root content
changes: for ``0 < a < 1`` the case label and both dependence flags hold.
"""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from phaseclone import (
    CaseLabel,
    JointPhaseOperator,
    PhaseOperator,
    SampleRejected,
    UncorrelatedTriple,
    ZeroProbabilityError,
    analyze,
    analyze_many,
    assemble_triple,
    builtin,
    generate_case2_candidate,
    is_positive_over_phase,
    swap_systems,
    trace_poly,
    validate_triple,
)
from phaseclone.catalog import NAMES


@pytest.fixture(scope="module")
def triples():
    sampled = []
    for k in range(600):
        try:
            sampled.append(generate_case2_candidate([20260809, k]))
        except SampleRejected:
            pass
    catalog = [builtin(name).payload for name in NAMES]
    return sampled + [t for t in catalog if isinstance(t, UncorrelatedTriple)]


@pytest.fixture(scope="module")
def reports(triples):
    return analyze_many(triples)


@pytest.fixture(scope="module")
def verdicts(reports):
    return [_verdict(r) for r in reports]


def _verdict(report) -> tuple:
    return (
        report.relation_ok,
        report.hp_ok,
        report.all_positive,
        report.out1_phase_dependent,
        report.out2_phase_dependent,
        report.theorem_consistent,
    )


def _shifted(t: UncorrelatedTriple, delta: float) -> UncorrelatedTriple:
    factor = np.array([cmath.exp(1j * delta), cmath.exp(-1j * delta), 1.0])[:, None, None]
    joint = JointPhaseOperator(t.joint.coeffs * factor, dim1=t.joint.dim1, dim2=t.joint.dim2)
    return UncorrelatedTriple(
        joint=joint,
        out1=PhaseOperator(t.out1.coeffs * factor),
        out2=PhaseOperator(t.out2.coeffs * factor),
    )


@pytest.mark.parametrize("delta", [0.3, 2.0])
def test_phase_shift_keeps_every_verdict(triples, reports, delta):
    shifted = analyze_many([_shifted(t, delta) for t in triples])
    flips = [
        i
        for i, (a, b) in enumerate(zip(reports, shifted))
        if (_verdict(a), a.case) != (_verdict(b), b.case)
    ]
    assert flips == []
    assert {r.case for r in reports if r.case is not None} == set(CaseLabel)


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(t: UncorrelatedTriple, U: np.ndarray, V: np.ndarray) -> UncorrelatedTriple:
    W = np.kron(U, V)
    joint = JointPhaseOperator(W @ t.joint.coeffs @ W.conj().T, dim1=t.joint.dim1, dim2=t.joint.dim2)
    return UncorrelatedTriple(
        joint=joint,
        out1=PhaseOperator(U @ t.out1.coeffs @ U.conj().T),
        out2=PhaseOperator(V @ t.out2.coeffs @ V.conj().T),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_unitaries_keep_every_verdict(triples, verdicts, seed):
    rng = np.random.default_rng([20260809, seed])
    U, V = _unitary(rng, 2), _unitary(rng, 2)
    assert {(t.out1.dim, t.out2.dim) for t in triples} == {(2, 2)}
    rotated = [_verdict(r) for r in analyze_many([_rotated(t, U, V) for t in triples])]
    flips = [i for i, (a, b) in enumerate(zip(verdicts, rotated)) if a != b]
    assert flips == []


def test_swap_systems_exchanges_the_dependence_flags(triples, verdicts):
    swapped = [_verdict(r) for r in analyze_many([swap_systems(t) for t in triples])]
    expected = [(a, b, c, d2, d1, e) for a, b, c, d1, d2, e in verdicts]
    flips = [i for i, (a, b) in enumerate(zip(expected, swapped)) if a != b]
    assert flips == []
    # Both flags occur, so the exchange is actually exercised.
    assert {v[3:5] for v in verdicts} >= {(True, False), (False, True), (True, True)}


def _scaled(t: UncorrelatedTriple, k: float) -> UncorrelatedTriple:
    joint = JointPhaseOperator(t.joint.coeffs * k, dim1=t.joint.dim1, dim2=t.joint.dim2)
    return UncorrelatedTriple(
        joint=joint, out1=PhaseOperator(t.out1.coeffs * k), out2=PhaseOperator(t.out2.coeffs * k)
    )


@pytest.mark.parametrize(
    "k",
    [1e-150, 1e-100, 1e-40, 1e-14, 1e-13, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.5, 2.0,
     1e2, 1e4, 1e6, 1e8, 1e140],
)
def test_scaling_keeps_every_verdict(triples, reports, k):
    # Scaling all three operators by k > 0 keeps the relation (both sides
    # scale by k^2), hermiticity, positivity, the entry roots and so the
    # phase dependence: no verdict and no case label may change while out1's
    # scale stays from trigpoly.SCALE_FLOOR to operators.MAX_COEFF.
    scaled = analyze_many([_scaled(t, k) for t in triples])
    flips = [
        i
        for i, (a, b) in enumerate(zip(reports, scaled))
        if (_verdict(a), a.case) != (_verdict(b), b.case)
    ]
    assert flips == []


@pytest.mark.parametrize("k", [1e-200, 1e-300])
def test_below_the_scale_floor_every_probability_is_zero(triples, k):
    # Magnitudes under ZERO_COEFF_REL * SCALE_FLOOR are zero at any scale, so
    # no check divides by a P whose square underflows.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        scaled = analyze_many([_scaled(t, k) for t in triples])
    assert {r.probability for r in scaled} == {"zero-probability"}


def _relation_ok(t: UncorrelatedTriple) -> bool | None:
    try:
        return validate_triple(t).all_ok
    except ZeroProbabilityError:
        return None


@pytest.mark.parametrize("k", [1e-8, 1e8])
def test_scaling_keeps_each_relation_verdict(triples, k):
    # validate_triple on its own judges the traces, the relation and the
    # partial traces against the triple's largest coefficient.  A joint off
    # by a relative 1e-6 fails at every scale.
    off = [UncorrelatedTriple(_scaled(t, 1.0 + 1e-6).joint, t.out1, t.out2) for t in triples[:20]]
    inputs = triples + off
    before = [_relation_ok(t) for t in inputs]
    assert [_relation_ok(_scaled(t, k)) for t in inputs] == before
    assert {True, False} <= set(before)


def _depolarised(t: UncorrelatedTriple, a: float) -> UncorrelatedTriple:
    """Both outputs mixed as ``a out_k + (1 - a) P I/d``, the joint rebuilt from them."""
    P = trace_poly(t.out1).coeffs[:, None, None]
    out1, out2 = (
        PhaseOperator(a * out.coeffs + (1.0 - a) * P * np.eye(out.dim) / out.dim)
        for out in (t.out1, t.out2)
    )
    return assemble_triple(out1, out2)


def _case_and_flags(report) -> tuple:
    return report.case, report.out1_phase_dependent, report.out2_phase_dependent


@pytest.mark.parametrize("a", [0.5, 0.1, 0.01])
def test_depolarising_mix_keeps_the_case_and_dependence(triples, reports, a):
    kept = [(t, r) for t, r in zip(triples, reports) if r.relation_ok and r.hp_ok]
    mixed = analyze_many([_depolarised(t, a) for t, _ in kept])
    before = [_case_and_flags(r) for _, r in kept]
    after = [_case_and_flags(r) for r in mixed]
    assert [i for i, (b, m) in enumerate(zip(before, after)) if b != m] == []
    # Every case label and both flag values are among the triples mixed.
    assert {v[0] for v in before} == set(CaseLabel)
    assert {flag for v in before for flag in v[1:]} == {True, False}


# The counterexample mixed with weight eps: lambda_min of each output is
# -2 eps^2 in closed form, so the outputs are not positive and the theorem
# does not apply, while both outputs still depend on the phase (by eps).
@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_depolarised_counterexample_meets_the_closed_form(eps):
    t = _depolarised(builtin("counterexample").payload, eps)
    for out in (t.out1, t.out2):
        assert is_positive_over_phase(out).min_eigenvalue == pytest.approx(-2 * eps**2, rel=1e-6)


def test_depolarised_counterexample_is_no_false_violation():
    # Negativity shrinks as eps^2 and phase dependence as eps, so below
    # eps ~ 1.1e-5 both outputs are certified positive within tol; lemma L2b
    # proves them not positive from their entries' root multiplicities.
    verdicts = [
        analyze(_depolarised(builtin("counterexample").payload, eps)).theorem_consistent
        for eps in (1e-5, 1e-6, 1e-7, 1e-8)
    ]
    assert False not in verdicts


def test_joint_is_positive_iff_both_outputs_are(triples, reports):
    # Where the relation holds, the joint's eigenvalues are the products of
    # the outputs' over P (Horn & Johnson, Topics in Matrix Analysis, Thm
    # 4.2.12), so theorem_consistent reads only the outputs' verdicts.
    related = [r for r in reports if r.relation_ok and r.hp_ok]
    joint = [r.positivity_joint.positive for r in related]
    assert joint == [r.positivity_out1.positive and r.positivity_out2.positive for r in related]
    assert {True, False} <= set(joint)


@pytest.mark.parametrize("a", [1e-5, 1e-6, 1e-7, 1e-8])
def test_mixed_both_dependent_triples_are_no_false_violation(triples, reports, a):
    # The mix keeps both outputs phase-dependent (by a) while their
    # negativity (about a^2) sinks under the certificate's floor; lemma L2b
    # proves them not positive from each entry's root multiplicity.
    both = [
        t for t, r in zip(triples, reports)
        if r.relation_ok and r.hp_ok and r.out1_phase_dependent and r.out2_phase_dependent
    ]
    mixed = analyze_many([_depolarised(t, a) for t in both])
    assert len(both) > 50
    assert [i for i, r in enumerate(mixed) if not r.theorem_consistent] == []

