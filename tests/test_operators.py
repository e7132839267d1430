"""Tests for phase-operator matrices and triple validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from phaseclone import (
    DimensionMismatchError,
    FirstOrderPoly,
    PhaseOperator,
    PhaseState,
    UncorrelatedTriple,
    ZeroProbabilityAtPhaseError,
    ZeroProbabilityError,
    analyze,
    analyze_many,
    assemble_triple,
    builtin,
    classify,
    decompose_probability,
    deterministic_tensor_obstruction,
    eval_matrix,
    exact_div,
    has_second_order,
    is_hermitian_preserving,
    is_positive_over_phase,
    mul,
    normalized_output,
    phase_state_operator,
    positivity_many,
    tensor,
    trace_poly,
    validate_triple,
)
from phaseclone.operators import DEFAULT_TOL, MAX_COEFF

from helpers import fp, grid, random_hp_operator, replace_joint_entry


@pytest.fixture(scope="module")
def counterexample():
    return builtin("counterexample").payload


@pytest.fixture(scope="module")
def case1():
    return builtin("case1-example").payload


@pytest.fixture(scope="module")
def footnote():
    return builtin("footnote-linear-only").payload


# ------------------------------------------------------------- eval_matrix

def test_eval_counterexample_at_zero(counterexample):
    m = eval_matrix(counterexample.out1, 0.0)
    assert np.allclose(m, [[0.5, 2.0], [2.0, 0.5]], atol=1e-14)


def test_eval_counterexample_at_pi(counterexample):
    m = eval_matrix(counterexample.out1, math.pi)
    assert np.max(np.abs(m)) < 1e-15


def test_eval_case1_out2_at_zero(case1):
    m = eval_matrix(case1.out2, 0.0)
    assert np.allclose(m, [[0.5, 0.0], [0.0, 0.25]], atol=1e-14)


# -------------------------------------------------------------- trace_poly

def test_trace_counterexample(counterexample):
    assert trace_poly(counterexample.out1).distance(fp(0.25, 0.25, 0.5)) == 0


def test_trace_zero_operator():
    assert trace_poly(PhaseOperator.zero(3)) == FirstOrderPoly.zero()


def test_trace_case1_out1(case1):
    assert trace_poly(case1.out1).distance(fp(0.125, 0.125, 0.5)) == 0


# ------------------------------------------------------------ partial traces

def _partial_traces_consistent(joint, out1, out2, tol) -> bool:
    return validate_triple(UncorrelatedTriple(joint, out1, out2), tol).partial_traces_consistent


def test_partial_trace_counterexample(counterexample):
    assert validate_triple(counterexample, 1e-12).partial_traces_consistent


def test_partial_trace_constant_tensor():
    rng = np.random.default_rng(5)
    g1 = random_hp_operator(rng)
    # unit-trace constant second factor
    g2 = PhaseOperator.from_rows([[fp(0, 0, 0.7), fp(0, 0, 0.1j)], [fp(0, 0, -0.1j), fp(0, 0, 0.3)]])
    prod = tensor(g1, g2)
    # degrees (1, -1, 0) of the product are the (a, b, c) of a first-order joint
    joint = PhaseOperator(prod[[3, 1, 2]])
    T = trace_poly(g1)
    out2 = PhaseOperator.from_rows([[complex(g) * T for g in row] for row in g2.coeffs[2]])
    assert _partial_traces_consistent(joint, g1, out2, 1e-12)


def test_partial_trace_footnote(footnote):
    expected = PhaseOperator.from_rows([[fp(0, 0, 1), fp(0, 0, 0)], [fp(1, 0, 0), fp(0, 0, 0)]])
    assert validate_triple(footnote).partial_traces_consistent
    # Exactly: the joint's partial traces are out1 and out2 bit for bit.
    blocks = footnote.joint.coeffs.reshape(3, 2, 2, 2, 2)
    assert np.array_equal(blocks.trace(axis1=2, axis2=4), footnote.out1.coeffs)
    assert np.array_equal(blocks.trace(axis1=1, axis2=3), footnote.out2.coeffs)
    assert footnote.out1 == expected


def _asymmetric_triple():
    """A 2x3 joint ``o1 (x) g`` with a constant unit-trace ``g``, and its two partial traces."""
    rng = np.random.default_rng(71)
    o1 = random_hp_operator(rng, dim=2)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    g = g @ g.conj().T
    g /= np.trace(g).real
    o2 = PhaseOperator.from_rows([[fp(0, 0, g[i, j]) for j in range(3)] for i in range(3)])
    prod = tensor(o1, o2)
    joint = PhaseOperator(prod[[3, 1, 2]])
    T = trace_poly(o1)
    expected = PhaseOperator.from_rows(
        [[complex(g[i, j]) * T for j in range(3)] for i in range(3)]
    )
    return joint, o1, expected


def test_partial_trace_asymmetric_dims():
    assert _partial_traces_consistent(*_asymmetric_triple(), 1e-12)


def test_partial_trace_detects_a_moved_entry():
    # Moving weight from one diagonal entry of the (0, 0) block to the other
    # keeps the joint's trace but breaks the partial trace over system 1.
    joint, out1, out2 = _asymmetric_triple()
    coeffs = joint.coeffs.copy()
    coeffs[:, 0, 0] += 0.25
    coeffs[:, 1, 1] -= 0.25
    moved = PhaseOperator(coeffs)
    report = validate_triple(UncorrelatedTriple(moved, out1, out2))
    assert report.traces_equal
    assert report.partial_traces_consistent is False
    assert validate_triple(UncorrelatedTriple(joint, out1, out2)).partial_traces_consistent


# ---------------------------------------------------- hermitian preservation

def test_hp_counterexample(counterexample):
    assert is_hermitian_preserving(counterexample.out1)
    assert is_hermitian_preserving(counterexample.joint)


def test_hp_footnote_fails(footnote):
    assert not is_hermitian_preserving(footnote.out1)
    assert not is_hermitian_preserving(footnote.joint)


def test_hp_real_diagonal():
    op = PhaseOperator.from_rows(
        [[fp(0.5, 0.5, 1.0), FirstOrderPoly.zero()], [FirstOrderPoly.zero(), fp(0, 0, 2.0)]]
    )
    assert is_hermitian_preserving(op)


def test_hp_matches_pointwise_hermiticity():
    rng = np.random.default_rng(13)
    phis = grid(64)
    for _ in range(25):
        op = random_hp_operator(rng)
        assert is_hermitian_preserving(op)
        for phi in phis[::8]:
            m = eval_matrix(op, phi)
            assert np.max(np.abs(m - m.conj().T)) < 1e-10
    # break hermiticity and confirm both tests fail together
    broken = PhaseOperator.from_rows(
        [[fp(0, 0, 1), fp(1, 0, 0)], [fp(1, 0, 0), fp(0, 0, 1)]]
    )
    assert not is_hermitian_preserving(broken)
    bad = any(
        np.max(np.abs(eval_matrix(broken, phi) - eval_matrix(broken, phi).conj().T)) > 1e-10
        for phi in phis
    )
    assert bad


def test_hp_default_tol_is_the_shared_default():
    from phaseclone import operators, positivity

    assert positivity.DEFAULT_TOL is operators.DEFAULT_TOL == 1e-9
    # One off-diagonal constant moved by a defect between the old 1e-10
    # default and the shared 1e-9, then by one above it.
    near = PhaseOperator.from_rows([[fp(0, 0, 1), fp(0, 0, 1)], [fp(0, 0, 1 + 5e-10), fp(0, 0, 1)]])
    far = PhaseOperator.from_rows([[fp(0, 0, 1), fp(0, 0, 1)], [fp(0, 0, 1 + 4e-9), fp(0, 0, 1)]])
    assert is_hermitian_preserving(near)
    assert not is_hermitian_preserving(far)
    assert is_hermitian_preserving(far, 1e-8) and not is_hermitian_preserving(near, 1e-10)


# ------------------------------------------------------------------ tensor

def test_tensor_counterexample_offdiag_slot(counterexample):
    prod = tensor(counterexample.out1, counterexample.out2)
    assert prod[:, 0, 3].tolist() == [1, 2, 1, 0, 0]


def test_tensor_identity():
    eye = PhaseOperator.from_rows(
        [[fp(0, 0, 1), FirstOrderPoly.zero()], [FirstOrderPoly.zero(), fp(0, 0, 1)]]
    )
    expected = np.zeros((5, 4, 4))
    expected[2] = np.eye(4)
    assert np.array_equal(tensor(eye, eye), expected)


def test_tensor_footnote_first_column(footnote):
    prod = tensor(footnote.out1, footnote.out2)
    col = [prod[:, r, 0].tolist() for r in range(4)]
    assert col == [[0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0]]


def test_tensor_matches_entrywise_products():
    # Loop reference: entry (i*d2 + mu, j*d2 + nu) is out1[i][j] * out2[mu][nu].
    rng = np.random.default_rng(59)
    o1, o2 = random_hp_operator(rng, dim=2), random_hp_operator(rng, dim=3)
    prod = tensor(o1, o2)
    for i in range(2):
        for j in range(2):
            for mu in range(3):
                for nu in range(3):
                    one = mul(o1.entry(i, j).coeffs, o2.entry(mu, nu).coeffs)
                    got = prod[:, i * 3 + mu, j * 3 + nu]
                    assert np.abs(got - one).max() <= 1e-15 * (1.0 + np.abs(one).max())


def test_trace_of_tensor_is_product_of_traces():
    rng = np.random.default_rng(19)
    for _ in range(20):
        o1, o2 = random_hp_operator(rng), random_hp_operator(rng)
        tr = tensor(o1, o2).trace(axis1=1, axis2=2)
        expected = mul(trace_poly(o1).coeffs, trace_poly(o2).coeffs)
        assert np.abs(tr - expected).max() < 1e-12


# --------------------------------------------------------- validate_triple

def test_validate_counterexample(counterexample):
    rep = validate_triple(counterexample, 1e-12)
    assert rep.all_ok
    assert rep.max_residual < 1e-12
    assert rep.probability.distance(fp(0.25, 0.25, 0.5)) == 0


def test_validate_case1(case1):
    rep = validate_triple(case1, 1e-12)
    assert rep.all_ok


def test_validate_detects_injected_defect(counterexample):
    bad_entry = counterexample.joint.entry(3, 3) + fp(0, 0, 0.01)
    bad = replace_joint_entry(counterexample, 3, 3, bad_entry)
    rep = validate_triple(bad, 1e-9)
    assert not rep.relation_holds
    assert rep.max_residual == pytest.approx(0.01, abs=1e-12)
    # traces also shift, partial trace of the perturbed slot changes out2 check
    assert not rep.all_ok


def test_validate_zero_probability():
    zero = PhaseOperator.zero(2)
    joint = PhaseOperator.zero(4)
    with pytest.raises(ZeroProbabilityError):
        validate_triple(UncorrelatedTriple(joint=joint, out1=zero, out2=zero))


def _scaled(t: UncorrelatedTriple, k: float) -> UncorrelatedTriple:
    joint = PhaseOperator(k * t.joint.coeffs)
    return UncorrelatedTriple(
        joint=joint, out1=PhaseOperator(k * t.out1.coeffs), out2=PhaseOperator(k * t.out2.coeffs)
    )


def test_validate_triple_on_mixed_triples(counterexample, case1, footnote):
    # Mixed dimensions and scales: the zero-probability test is per triple.
    zero = PhaseOperator.zero(2)
    vanishing = UncorrelatedTriple(
        joint=PhaseOperator.zero(4), out1=zero, out2=zero
    )
    bad = replace_joint_entry(counterexample, 3, 3, counterexample.joint.entry(3, 3) + fp(0, 0, 0.01))
    triples = [counterexample, _scaled(case1, 1e-8), footnote, _scaled(counterexample, 1e8)]
    triples += [builtin("projective-discard", q=0.3).payload, bad, _scaled(footnote, 1e-8)]
    with pytest.raises(ZeroProbabilityError):
        validate_triple(vanishing, 1e-9)
    assert [validate_triple(t, 1e-9).all_ok for t in triples] == [True] * 5 + [False, True]


def test_triple_trace_equality(counterexample, case1):
    for t in (counterexample, case1):
        p = trace_poly(t.out1)
        assert trace_poly(t.out2).distance(p) == 0
        assert trace_poly(t.joint).distance(p) == 0


def test_hp_implies_real_trace():
    rng = np.random.default_rng(23)
    for _ in range(25):
        op = random_hp_operator(rng)
        assert trace_poly(op).is_real_valued(1e-12)


def test_partial_trace_preserves_trace(counterexample, case1):
    for t in (counterexample, case1):
        report = validate_triple(t, 1e-15)
        assert report.traces_equal and report.partial_traces_consistent


# --------------------------------------------------------------- phase state

def test_phase_state_half():
    op = phase_state_operator(0.5)
    assert op.entry(0, 1).distance(fp(0, 0.5, 0)) == 0
    assert op.entry(1, 0).distance(fp(0.5, 0, 0)) == 0


def test_phase_state_unit_trace_and_projector():
    rng = np.random.default_rng(37)
    for q in rng.uniform(0.05, 0.95, size=10):
        op = phase_state_operator(float(q))
        assert trace_poly(op).distance(fp(0, 0, 1)) < 1e-15
        assert is_hermitian_preserving(op)
        for phi in grid(16):
            evals = np.linalg.eigvalsh(eval_matrix(op, phi))
            assert np.allclose(sorted(evals), [0.0, 1.0], atol=1e-12)


def test_phase_state_range_validation():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            PhaseState(bad)


# ---------------------------------------------------------- normalized output

def test_normalized_output_counterexample(counterexample):
    P = trace_poly(counterexample.out1)
    m = normalized_output(counterexample.out1, P, 0.0)
    assert np.allclose(m, [[0.5, 2.0], [2.0, 0.5]], atol=1e-14)


def test_normalized_output_case1_identity_half(case1):
    P = trace_poly(case1.out1)
    for phi in grid(32):
        m = normalized_output(case1.out1, P, phi)
        assert np.allclose(m, 0.5 * np.eye(2), atol=1e-12)


def test_normalized_output_zero_phase(counterexample):
    P = trace_poly(counterexample.out1)
    with pytest.raises(ZeroProbabilityAtPhaseError):
        normalized_output(counterexample.out1, P, math.pi)


# ----------------------------------------------------------------- structure

def test_joint_dimension_validation():
    # The triple is the one place that ties the joint's dimension to its marginals'.
    with pytest.raises(DimensionMismatchError, match=r"joint has dim 4, expected 2 \* 3 = 6"):
        UncorrelatedTriple(PhaseOperator.zero(4), PhaseOperator.zero(2), PhaseOperator.zero(3))
    assert issubclass(DimensionMismatchError, ValueError)


def test_triple_dimension_validation(counterexample):
    with pytest.raises(ValueError):
        UncorrelatedTriple(
            joint=counterexample.joint,
            out1=counterexample.out1,
            out2=PhaseOperator.zero(3),
        )


def test_operator_requires_square():
    with pytest.raises(ValueError):
        PhaseOperator.from_rows([[fp(0, 0, 1), fp(0, 0, 1)]])


def test_operator_storage_is_one_read_only_array(counterexample):
    op = counterexample.out1
    assert op.coeffs.shape == (3, 2, 2)
    assert not op.coeffs.flags.writeable
    with pytest.raises(ValueError):
        op.coeffs[0, 0, 0] = 1.0
    # the scalar view agrees with the array
    e = op.entry(0, 1)
    assert (e.a, e.b, e.c) == tuple(op.coeffs[:, 0, 1])


def test_from_rows_accepts_polys_tuples_and_scalars():
    a = PhaseOperator.from_rows([[fp(1, 2, 3), 0.5], [(0, 0, 0.5), 4]])
    b = PhaseOperator.from_rows([[(1, 2, 3), fp(0, 0, 0.5)], [0.5, fp(0, 0, 4)]])
    assert a == b
    assert a != PhaseOperator.zero(2)
    with pytest.raises(ValueError):
        PhaseOperator.from_rows([[(float("nan"), 0, 0)]])


@pytest.mark.parametrize(
    "value", [1.01e150, -1.01e150j, 1e308, math.inf, math.nan, complex(0, math.nan)]
)
def test_coefficient_parts_past_the_bound_are_rejected(value):
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[2, 1, 0] = value
    with pytest.raises(ValueError, match="magnitude <= 1e"):
        PhaseOperator(coeffs)
    coeffs[2, 1, 0] = complex(-MAX_COEFF, MAX_COEFF)
    assert PhaseOperator(coeffs.transpose(0, 2, 1)).coeffs[2, 0, 1] == coeffs[2, 1, 0]


def test_joint_equality_compares_coefficients():
    # A joint is a plain operator: equal coefficients are equal, whatever the marginals.
    coeffs = np.zeros((3, 4, 4))
    assert PhaseOperator(coeffs) == PhaseOperator(coeffs)
    assert PhaseOperator(coeffs) != PhaseOperator.zero(2)
    assert PhaseOperator(coeffs).__eq__(coeffs) is NotImplemented


def _relative_tol_entry_points() -> dict:
    """Each public entry point whose ``tol`` is relative, as a call on the counterexample."""
    t = builtin("counterexample").payload
    return {
        "analyze": lambda tol: analyze(t, tol),
        "analyze_many": lambda tol: analyze_many([], tol),
        "classify": lambda tol: classify(t, tol),
        "validate_triple": lambda tol: validate_triple(t, tol),
        "is_hermitian_preserving": lambda tol: is_hermitian_preserving(t.out1, tol),
        "is_positive_over_phase": lambda tol: is_positive_over_phase(t.out1, tol),
        "positivity_many": lambda tol: positivity_many([], tol),
        "decompose_probability": lambda tol: decompose_probability(trace_poly(t.out1), tol),
        "assemble_triple": lambda tol: assemble_triple(t.out1, t.out2, tol),
        "exact_div": lambda tol: exact_div(tensor(t.out1, t.out2), trace_poly(t.out1).coeffs, tol),
        "has_second_order": lambda tol: has_second_order(tensor(t.out1, t.out2), tol),
        "deterministic_tensor_obstruction": lambda tol: deterministic_tensor_obstruction(
            t.out1, t.out2, tol
        ),
        # Unchecked, a tol of NaN or -1 called a real polynomial not real,
        # and one of 1.0 or 2.0 called e^{i phi} real.
        "FirstOrderPoly.is_real_valued": lambda tol: trace_poly(t.out1).is_real_valued(tol),
    }


_ENTRY_POINTS = _relative_tol_entry_points()


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, 1.0, 2.0, 1e308])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_relative_tol_outside_0_1_is_rejected(entry, tol):
    # A relative tol of 1 or more passes any defect (tol=2 certified the
    # counterexample's out1 positive with lambda_min = -1.5), and nan or one
    # <= 0 failed every check silently; every entry point raises instead.
    _ENTRY_POINTS[entry](DEFAULT_TOL)
    with pytest.raises(ValueError, match=r"tol must be a finite number > 0 and < 1, got "):
        _ENTRY_POINTS[entry](tol)
