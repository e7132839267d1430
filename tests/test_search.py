"""Tests for the candidate sampler and randomized theorem search."""

from __future__ import annotations

import pytest

from phaseclone import (
    SamplerParams,
    SampleRejected,
    analyze,
    assemble_triple,
    builtin,
    generate_case2_candidate,
    theorem_search,
    validate_triple,
)
from phaseclone.operators import max_coeff_diff
from phaseclone.analysis import CaseLabel

from helpers import fp


def test_assemble_reproduces_counterexample():
    # The published counterexample is a family member: rebuilding its joint
    # block from the marginals gives back exactly the stored matrix.
    ref = builtin("counterexample").payload
    rebuilt = assemble_triple(ref.out1, ref.out2)
    assert max_coeff_diff(rebuilt.joint, ref.joint) == 0
    rep = analyze(rebuilt)
    assert rep.case.label is CaseLabel.CASE2
    assert not rep.positivity_out1.positive
    assert rep.positivity_out1.min_eigenvalue <= -1.5 + 1e-6


def test_assemble_rejects_trace_mismatch():
    out1 = builtin("counterexample").payload.out1
    out2 = builtin("case1-example").payload.out2
    with pytest.raises(SampleRejected):
        assemble_triple(out1, out2)


def test_assemble_rejection_names_the_entry():
    params = SamplerParams(pin_stratum="reject")
    with pytest.raises(SampleRejected, match=r"product entry \(\d+, \d+\) is not divisible"):
        generate_case2_candidate([33, 0], params)


def test_generated_samples_validate_by_construction():
    checked = 0
    for k in range(60):
        try:
            t = generate_case2_candidate([5, k])
        except SampleRejected:
            continue
        assert validate_triple(t, 1e-9).all_ok
        checked += 1
    assert checked >= 40


def test_pinned_proportional_psd_is_positive_and_constant():
    params = SamplerParams(pin_stratum="proportional", pin_psd=True)
    for k in range(10):
        t = generate_case2_candidate([21, k], params)
        rep = analyze(t)
        assert rep.hp_ok and rep.relation_ok
        assert rep.all_positive
        assert rep.out1_phase_dependent is False
        assert rep.out2_phase_dependent is False


def test_reject_stratum_always_rejects():
    params = SamplerParams(pin_stratum="reject")
    for k in range(50):
        with pytest.raises(SampleRejected):
            generate_case2_candidate([33, k], params)


def test_pinned_values_flow_through():
    params = SamplerParams(
        pin_stratum="wild", pin_alpha_abs=0.25, pin_theta=0.0, pin_r=1.0
    )
    t = generate_case2_candidate(2, params)
    from phaseclone import trace_poly

    P = trace_poly(t.out1)
    assert P.distance(fp(0.25, 0.25, 0.5)) < 1e-12


def test_wild_phase_dependent_samples_have_strong_witnesses():
    params = SamplerParams(pin_stratum="wild")
    seen = 0
    for k in range(40):
        try:
            t = generate_case2_candidate([55, k], params)
        except SampleRejected:
            continue
        rep = analyze(t, grid_points=512)
        if rep.out1_phase_dependent and rep.out2_phase_dependent:
            seen += 1
            worst = min(
                v.min_eigenvalue
                for v in (rep.positivity_out1, rep.positivity_out2, rep.positivity_joint)
            )
            assert worst < -1e-4
    assert seen >= 5


def test_search_reproducible_and_clean():
    r1 = theorem_search(200, seed=7)
    r2 = theorem_search(200, seed=7)
    assert r1 == r2
    assert r1.accepted + r1.rejected == 200
    assert r1.acceptance_rate > 0.5
    assert not r1.violations
    assert not r1.witness_failures
    assert r1.both_phase_dependent == len(r1.witnesses)
    if r1.witnesses:
        assert r1.max_witness_lambda_min < -1e-6


def test_search_counts_every_case():
    r = theorem_search(400, seed=2024)
    assert set(r.case_counts) >= {"Case 1", "Case 2", "Case 3"}


def test_assemble_supports_asymmetric_dimensions():
    import cmath

    import numpy as np

    from phaseclone import FirstOrderPoly, PhaseOperator, parse_pmap, serialize_pmap
    from phaseclone import document_from_triple
    from phaseclone.operators import max_coeff_diff as diff

    theta = 0.7
    alpha = 0.4 * cmath.exp(-1j * theta)
    P = FirstOrderPoly(alpha, alpha.conjugate(), 0.4 * (2.5 + 1 / 2.5))
    rng = np.random.default_rng(1)

    def psd_gamma(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        g = g @ g.conj().T
        return g / np.trace(g).real

    g1, g2 = psd_gamma(2), psd_gamma(3)
    out1 = PhaseOperator.from_rows([[complex(g1[i, j]) * P for j in range(2)] for i in range(2)])
    out2 = PhaseOperator.from_rows([[complex(g2[i, j]) * P for j in range(3)] for i in range(3)])
    t = assemble_triple(out1, out2)
    assert (t.joint.dim, t.joint.dim1, t.joint.dim2) == (6, 2, 3)

    rep = analyze(t)
    assert rep.hp_ok and rep.relation_ok and rep.all_positive
    assert rep.case.label is CaseLabel.CASE3
    assert rep.theorem_consistent

    back = parse_pmap(serialize_pmap(document_from_triple(t))).triple()
    assert diff(back.joint, t.joint) == 0


def test_search_smallest_run_forced_constant_branch():
    params = SamplerParams(pin_stratum="proportional", pin_psd=True)
    r = theorem_search(1, seed=4, params=params)
    assert r.accepted == 1 and r.rejected == 0
    assert r.both_phase_dependent == 0
    assert not r.violations and not r.witness_failures


def test_search_rejects_bad_trials():
    with pytest.raises(ValueError):
        theorem_search(0)


def test_unknown_stratum_rejected():
    with pytest.raises(ValueError):
        generate_case2_candidate(1, SamplerParams(pin_stratum="nope"))
