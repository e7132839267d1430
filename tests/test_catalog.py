"""Catalog entries carry exact coefficients and keep their advertised properties."""

from __future__ import annotations

import math

import numpy as np
import pytest

from phaseclone import (
    PhaseOperator,
    UncorrelatedTriple,
    UnknownNameError,
    analyze,
    builtin,
    decompose_probability,
    is_hermitian_preserving,
    is_positive_over_phase,
    swap_systems,
    trace_poly,
)
from phaseclone.catalog import NAMES

from helpers import fp, max_coeff_diff, random_hp_operator

# dyadic entries compare at 1e-12; the case1/case3 pair involves sqrt(3)
TOLS = {
    "counterexample": 1e-12,
    "case1-example": 1e-10,
    "case3-example": 1e-10,
    "footnote-linear-only": 1e-12,
    "projective-discard": 1e-12,
    "phase-state": 1e-12,
}


@pytest.mark.parametrize("name", NAMES)
def test_expected_properties_hold(name):
    entry = builtin(name)
    exp = entry.expected
    if isinstance(entry.payload, UncorrelatedTriple):
        rep = analyze(entry.payload, TOLS[name])
        if exp.hermitian_preserving is not None:
            assert rep.hp_ok == exp.hermitian_preserving
        if exp.relation_holds is not None:
            assert rep.relation_ok == exp.relation_holds
        if exp.positive is not None:
            assert rep.all_positive == exp.positive
        if exp.case is not None:
            assert rep.case is exp.case
        if exp.out1_phase_dependent is not None:
            assert rep.out1_phase_dependent == exp.out1_phase_dependent
        if exp.out2_phase_dependent is not None:
            assert rep.out2_phase_dependent == exp.out2_phase_dependent
        assert rep.theorem_consistent
    else:
        op = entry.payload
        if exp.hermitian_preserving is not None:
            assert is_hermitian_preserving(op, TOLS[name]) == exp.hermitian_preserving
        if exp.positive is not None:
            assert is_positive_over_phase(op, TOLS[name]).positive == exp.positive


def test_counterexample_exact_coefficients():
    t = builtin("counterexample").payload
    assert t.out1.entry(0, 0).distance(fp(0.125, 0.125, 0.25)) == 0
    assert t.out1.entry(0, 1).distance(fp(0, 1, 1)) == 0
    assert t.joint.entry(0, 3).distance(fp(0, 4, 0)) == 0
    assert t.joint.entry(1, 2).distance(fp(0, 0, 4)) == 0
    assert t.joint.entry(3, 0).distance(fp(4, 0, 0)) == 0
    assert max_coeff_diff(t.out1, t.out2) == 0


def test_counterexample_zero_relation_residual():
    from phaseclone import validate_triple

    for name in ("counterexample", "case1-example"):
        rep = validate_triple(builtin(name).payload, 1e-12)
        assert rep.all_ok
        assert rep.max_residual <= 1e-12


def test_case1_trace_and_root_pair():
    t = builtin("case1-example").payload
    dec = decompose_probability(trace_poly(t.out1))
    assert dec.r == pytest.approx(2.0 + math.sqrt(3.0), abs=1e-10)


def test_projective_discard_constant_trace():
    t = builtin("projective-discard", q=0.3).payload
    P = trace_poly(t.out1)
    assert P.distance(fp(0, 0, 0.3)) < 1e-15
    assert trace_poly(t.joint).distance(P) == 0


def test_phase_state_matrix():
    op = builtin("phase-state", q=0.5).payload
    assert op.entry(0, 0).distance(fp(0, 0, 0.5)) == 0
    assert op.entry(0, 1).distance(fp(0, 0.5, 0)) == 0
    assert op.entry(1, 0).distance(fp(0.5, 0, 0)) == 0
    assert op.entry(1, 1).distance(fp(0, 0, 0.5)) == 0


def test_case3_is_swapped_case1():
    c1 = builtin("case1-example").payload
    c3 = builtin("case3-example").payload
    assert max_coeff_diff(c3.out1, c1.out2) == 0
    assert max_coeff_diff(c3.out2, c1.out1) == 0
    back = swap_systems(c3)
    assert max_coeff_diff(back.joint, c1.joint) == 0


def test_swap_systems_matches_index_loop():
    # Loop reference: swapped[mu*d1 + i][nu*d1 + j] = joint[i*d2 + mu][j*d2 + nu].
    rng = np.random.default_rng(83)
    d1, d2 = 2, 3
    coeffs = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
    t = UncorrelatedTriple(
        joint=PhaseOperator(coeffs),
        out1=random_hp_operator(rng, dim=d1),
        out2=random_hp_operator(rng, dim=d2),
    )
    back = swap_systems(t)
    assert (back.out1.dim, back.out2.dim) == (d2, d1)
    swapped = back.joint
    for i in range(d1):
        for j in range(d1):
            for mu in range(d2):
                for nu in range(d2):
                    got = swapped.entry(mu * d1 + i, nu * d1 + j)
                    assert got == t.joint.entry(i * d2 + mu, j * d2 + nu)


def test_unknown_name():
    with pytest.raises(UnknownNameError):
        builtin("does-not-exist")


def test_projective_discard_validates_q():
    with pytest.raises(ValueError):
        builtin("projective-discard", q=1.5)
