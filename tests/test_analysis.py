"""Tests for case classification, forcing checks and the full analysis."""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest

from phaseclone import (
    CaseLabel,
    CaseVerdict,
    ConstantOperator,
    FirstOrderPoly,
    JointPhaseOperator,
    NotPositiveError,
    PhaseOperator,
    PreconditionError,
    SampleRejected,
    SamplerParams,
    UncorrelatedTriple,
    analyze,
    analyze_many,
    assemble_triple,
    builtin,
    case2_forcing_check,
    classify,
    decompose_probability,
    deterministic_tensor_obstruction,
    factorize,
    generate_case2_candidate,
    is_positive_over_phase,
    mul,
    output_depends_on_phase,
    phase_state_operator,
    swap_systems,
    theorem_search,
    trace_poly,
)
from phaseclone import analysis, search, trigpoly
from phaseclone.catalog import NAMES
from phaseclone.operators import MAX_COEFF
from phaseclone.positivity import DEFAULT_TOL
from phaseclone.trigpoly import ZERO_COEFF_REL, root_multiplicity

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
    verdict = is_positive_over_phase(PhaseOperator(t.out1.coeffs[:, [0, 1]][:, :, [0, 1]]))
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


def test_analyze_tests_hermiticity_once_per_operator(monkeypatch):
    import sys

    import phaseclone.operators as operators

    original = operators.hermitian_part
    calls = []

    def counting(coeffs):
        # One entry per operator tested: the test runs over a stack.
        calls.extend([None] * int(np.prod(np.shape(coeffs)[:-3])))
        return original(coeffs)

    # Count calls through every binding, as `from .operators import ...` makes one per module.
    for name, module in list(sys.modules.items()):
        if name.startswith("phaseclone") and getattr(module, "hermitian_part", None) is original:
            monkeypatch.setattr(module, "hermitian_part", counting)
    triples = [builtin(name).payload for name in ("counterexample", "case1-example", "footnote-linear-only")]
    for k in range(40):
        try:
            triples.append(generate_case2_candidate([1, k]))
        except SampleRejected:
            pass
    for t in triples:
        calls.clear()
        rep = analyze(t)
        assert len(calls) == 3
        flags = [original(op.coeffs)[1] <= 1e-9 for op in (t.joint, t.out1, t.out2)]
        assert [rep.hp_joint, rep.hp_out1, rep.hp_out2] == flags
        verdicts = (rep.positivity_joint, rep.positivity_out1, rep.positivity_out2)
        assert [v is not None for v in verdicts] == flags
    assert not analyze(triples[2]).hp_ok


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


def test_classify_factorizes_each_entry_once(monkeypatch):
    from phaseclone import analysis, trigpoly

    names = ("counterexample", "case1-example", "case3-example")
    triples = [builtin(name).payload for name in names]
    for k in range(300):
        try:
            triples.append(generate_case2_candidate([20260809, k]))
        except SampleRejected:
            pass
    calls = []
    factorize = trigpoly.factorize
    counting = lambda p: calls.append(p) or factorize(p)
    monkeypatch.setattr(analysis, "factorize", counting)
    monkeypatch.setattr(trigpoly, "factorize", counting)
    labels = set()
    for t in triples:
        calls.clear()
        verdict = classify(t)
        labels.add(verdict.label)
        bound = len(list(analysis._nonzero_entries(t.out2)))
        if verdict.label is CaseLabel.CASE2:
            bound += len(list(analysis._nonzero_entries(t.out1)))
        assert len(calls) <= bound
    assert labels >= {CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3}


# ------------------------------------------------------ stacked classifier

def _reference_case(t):
    """Case label and missing root of a triple by the per-entry loop.

    Factors every nonzero out2 entry with ``factorize`` and counts its
    factors with ``root_multiplicity``, under the classifier's constants.
    The missing root is the one lacked by the first single-factor entry in
    row-major order (``None`` outside Case 2); the limit is its radius.
    """
    dec = decompose_probability(trace_poly(t.out1))
    p0, p1 = dec.p0, dec.p1
    degenerate = abs(p0 - p1) <= analysis.DEGENERATE_ROOT_BAND * max(1.0, abs(p0))
    if degenerate:
        p0 = p1 = 0.5 * (p0 + p1)
        root_tol = 2.0 * analysis.DEGENERATE_ROOT_BAND
    else:
        root_tol = analysis.ROOT_MATCH_TOL
    threshold = ZERO_COEFF_REL * (1.0 + t.out2.max_abs())
    counts, missing = [], None
    for row in t.out2.entries:
        for entry in row:
            if entry.max_abs() <= threshold:
                continue
            form = factorize(entry)
            m0 = root_multiplicity(form, p0, root_tol)
            if degenerate:
                counts.append(min(m0, 2))
            else:
                counts.append((m0 >= 1) + (root_multiplicity(form, p1, root_tol) >= 1))
            if counts[-1] == 1 and missing is None:
                missing = p0 if m0 == 0 else p1
    if 0 in counts:
        return CaseLabel.CASE1, None, None
    if 1 in counts:
        return CaseLabel.CASE2, missing, root_tol * max(1.0, abs(missing))
    return CaseLabel.CASE3, None, None


def _gamma_times(P, gamma) -> PhaseOperator:
    return PhaseOperator(np.asarray(gamma, dtype=complex)[None] * P.coeffs[:, None, None])


def _mixed_stack() -> list:
    """Accepted triples of every sampler stratum, 2x3 triples and the catalog."""
    triples = []

    def draw(key, params=None, count=600):
        for k in range(count):
            try:
                triples.append(generate_case2_candidate([key, k], params))
            except SampleRejected:
                pass

    draw(20260809)
    for name, _ in search._STRATA:
        draw(20260809, SamplerParams(pin_stratum=name), 80)
    rng = np.random.default_rng(5)
    for k in range(12):
        t = generate_case2_candidate([31, k], SamplerParams(pin_stratum="case2"))
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = g @ g.conj().T if k % 2 else 0.5 * (g + g.conj().T)
        out = t.out2 if k % 3 else t.out1
        triples.append(assemble_triple(out, _gamma_times(trace_poly(out), g / np.trace(g).real)))
    triples += [builtin(name).payload for name in NAMES if name != "phase-state"]
    return triples


def test_stacked_labels_equal_the_per_entry_reference():
    triples = _mixed_stack()
    reports = analyze_many(triples)
    seen, degenerate = set(), 0
    for t, report in zip(triples, reports):
        if report.case is None or report.case.label is CaseLabel.CONSTANT_PROBABILITY:
            continue
        label, missing, limit = _reference_case(t)
        assert report.case == CaseVerdict(label)
        verdict = classify(t)
        assert verdict.label is label
        if label is CaseLabel.CASE2:
            assert verdict.entry_forms == analysis._entry_forms(t.out1, missing, limit)
        seen.add((label, t.out2.dim))
        degenerate += report.probability.r == 1.0
    assert seen >= {(label, 2) for label in (CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3)}
    assert {dim for _, dim in seen} == {2, 3}
    assert degenerate > 50  # the wild stratum's double roots


def _odd_stack() -> list:
    """:func:`_mixed_stack` plus a relation-broken counterexample and the zero triple."""
    ce = builtin("counterexample").payload
    coeffs = ce.joint.coeffs.copy()
    coeffs[2, 0, 0] += 0.1  # still hermitian, but no longer out1 (x) out2 / P
    broken = UncorrelatedTriple(JointPhaseOperator(coeffs, dim1=2, dim2=2), ce.out1, ce.out2)
    zero = PhaseOperator.zero(2)
    joint = JointPhaseOperator(PhaseOperator.zero(4).coeffs, dim1=2, dim2=2)
    return _mixed_stack() + [broken, UncorrelatedTriple(joint, zero, zero)]


def _stages(triples) -> list:
    """The member indices and structure stage of each ``(d1, d2)`` group of the triples."""
    groups: dict = {}
    for i, t in enumerate(triples):
        groups.setdefault((t.out1.dim, t.out2.dim), []).append(i)
    stages = []
    for members in groups.values():
        stacks = [
            np.array([getattr(triples[i], name).coeffs for i in members])
            for name in ("joint", "out1", "out2")
        ]
        stages.append((members, analysis._structure(*stacks, DEFAULT_TOL)))
    return stages


def _searched_verdicts(s) -> list:
    """The verdicts of theorem_search: certificates only where both outputs depend on the phase."""
    decided = [m for m, dependence in enumerate(s.dependence) if dependence == (True, True)]
    certified = analysis._certify_many(s.operators(decided), DEFAULT_TOL)
    verdicts = [None] * (3 * len(s.dependence))
    for n, m in enumerate(decided):
        verdicts[3 * m : 3 * m + 3] = certified[3 * n : 3 * n + 3]
    return verdicts


def test_structure_stage_matches_the_reports_on_paths_the_sampler_never_reaches():
    # Non-hermitian, relation-failing, constant- and zero-probability members
    # next to sampled ones: the stage's arrays give analyze_many's verdicts.
    triples = _odd_stack()
    reports = analyze_many(triples)
    assert not all(r.hp_ok for r in reports) and not all(r.relation_ok for r in reports)
    tags = {r.probability for r in reports if isinstance(r.probability, str)}
    assert {"constant-probability", "zero-probability"} <= tags
    for members, s in _stages(triples):
        verdicts = _searched_verdicts(s)
        for m, i in enumerate(members):
            r = reports[i]
            assert s.hp[:, m].tolist() == [r.hp_joint, r.hp_out1, r.hp_out2]
            assert bool(s.relation_ok[m]) is r.relation_ok
            assert s.probability[m] == r.probability
            assert s.dependence[m] == (r.out1_phase_dependent, r.out2_phase_dependent)
            assert s.case[m] is (None if r.case is None else r.case.label)
            positivity = verdicts[3 * m : 3 * m + 3]
            consistent = analysis._consistent(bool(s.relation_ok[m]), s.dependence[m], positivity)
            assert consistent is r.theorem_consistent


def test_search_reports_drop_only_the_certificates_that_decide_nothing():
    # theorem_search certifies only triples with both outputs phase-dependent;
    # every other verdict, and theorem_consistent, is the one analyze_many gives.
    triples = _odd_stack()
    full = analyze_many(triples)
    searched = [None] * len(triples)
    for members, s in _stages(triples):
        for i, report in zip(members, analysis._reports(s, _searched_verdicts(s), DEFAULT_TOL)):
            searched[i] = report
    assert not all(r.hp_ok for r in full) and not all(r.relation_ok for r in full)
    assert any(r.probability == "constant-probability" for r in full)
    decisive = 0
    for f, s in zip(full, searched):
        if f.out1_phase_dependent and f.out2_phase_dependent:
            decisive += 1
            assert s == f
        else:
            assert s == dataclasses.replace(
                f, positivity_joint=None, positivity_out1=None, positivity_out2=None
            )
            assert s.theorem_consistent
    assert 0 < decisive < len(triples)


@pytest.mark.parametrize("name", [name for name in NAMES if name != "phase-state"])
def test_analyze_at_the_coefficient_bound_gives_finite_verdicts(name):
    # Every intermediate stays inside the double range (an overflow warning
    # fails the suite): the relation, the projection and the certificate.
    t = builtin(name).payload
    k = MAX_COEFF / max(op.max_abs() for op in (t.joint, t.out1, t.out2)) * (1.0 - 1e-15)
    joint = JointPhaseOperator(k * t.joint.coeffs, dim1=t.joint.dim1, dim2=t.joint.dim2)
    out1, out2 = PhaseOperator(k * t.out1.coeffs), PhaseOperator(k * t.out2.coeffs)
    report = analyze(UncorrelatedTriple(joint, out1, out2))
    verdicts = (report.positivity_joint, report.positivity_out1, report.positivity_out2)
    values = [report.relation.max_residual] + [v.min_eigenvalue for v in verdicts if v is not None]
    if not isinstance(report.probability, str):
        values += [report.probability.r, report.probability.R]
    assert all(math.isfinite(v) for v in values)
    assert report.out1_phase_dependent is not None and report.case is not None


def _edge_triple(P, entries) -> UncorrelatedTriple:
    """out1 = P / 2, out2 with diagonal P / 2 and the given off-diagonal entries, and their joint."""
    coeffs = np.zeros((3, 2, 2), dtype=complex)
    coeffs[:, 0, 0] = coeffs[:, 1, 1] = 0.5 * P.coeffs
    coeffs[:, 0, 1], coeffs[:, 1, 0] = (np.asarray(e, dtype=complex) for e in entries)
    # out1 (x) out2 / P = I/2 (x) out2, without a division.
    joint = JointPhaseOperator(np.kron(0.5 * np.eye(2), coeffs), dim1=2, dim2=2)
    return UncorrelatedTriple(joint, _gamma_times(P, 0.5 * np.eye(2)), PhaseOperator(coeffs))


def _full(s, w0, w1):
    """Coefficients of ``s (x + w0) (w1 conj(x) + 1)``."""
    return (s, s * w0 * w1, s * (w0 + w1))


def _edge_cases():
    theta, r = 0.7, 2.5
    P = FirstOrderPoly(cmath.exp(-1j * theta), cmath.exp(1j * theta), r + 1.0 / r)
    p0, p1 = r * cmath.exp(1j * theta), cmath.exp(1j * theta) / r
    far, tol = -1.3 + 0.4j, analysis.ROOT_MATCH_TOL * max(1.0, abs(p0))
    near = lambda k: p0 + k * tol * cmath.exp(0.3j)  # noqa: E731
    zero = (0.0, 0.0, 0.0)
    threshold = ZERO_COEFF_REL * (1.0 + 0.5 * P.max_abs())  # max|out2| is max|P / 2|
    unit = np.array(_full(1.0, far, -far)) / np.abs(_full(1.0, far, -far)).max()
    cases = {
        "root 0.5 tol from p0": (P, [_full(0.3, near(0.5), far), zero], CaseLabel.CASE2),
        "root 2 tol from p0": (P, [_full(0.3, near(2.0), far), zero], CaseLabel.CASE1),
        "both roots 0.5 tol off": (P, [_full(0.3, near(0.5), p1 + 0.5e-8), zero], CaseLabel.CASE3),
        "affine carrying p0": (P, [(0.0, 0.4 * p0, 0.4), zero], CaseLabel.CASE2),
        "affine carrying neither": (P, [(0.0, 0.4 * far, 0.4), zero], CaseLabel.CASE1),
        "pure negative": (P, [(0.0, 0.7, 0.0), zero], CaseLabel.CASE1),
        "pure positive, roots at 0": (P, [(0.7, 0.0, 0.0), zero], CaseLabel.CASE1),
        "just under the zero threshold": (P, [0.9 * threshold * unit, zero], CaseLabel.CASE3),
        "just over the zero threshold": (P, [1.1 * threshold * unit, zero], CaseLabel.CASE1),
        "no factor after a single factor": (
            P, [(0.0, 0.4 * p0, 0.4), _full(0.3, far, -far)], CaseLabel.CASE1
        ),
        "single factor after no factor": (
            P, [_full(0.3, far, -far), (0.0, 0.4 * p1, 0.4)], CaseLabel.CASE1
        ),
    }
    # r = 1e9 puts p1 within the match radius of 0, both roots of a x.
    R = FirstOrderPoly(cmath.exp(-1j * theta), cmath.exp(1j * theta), 1e9 + 1e-9)
    cases["pure positive, roots at 0 near p1"] = (R, [(0.7, 0.0, 0.0), zero], CaseLabel.CASE2)
    # r = 1: p0 = p1, matched at its midpoint within twice the degenerate band.
    Q = FirstOrderPoly(cmath.exp(-1j * theta), cmath.exp(1j * theta), 2.0)
    q = cmath.exp(1j * theta)
    band = analysis.DEGENERATE_ROOT_BAND
    cases["double root, entry carries it once"] = (Q, [_full(0.3, q, far), zero], CaseLabel.CASE2)
    cases["double root, entry carries it twice"] = (
        Q, [_full(0.3, q + band * q, q - band * q), zero], CaseLabel.CASE3
    )
    cases["double root, entry misses it"] = (Q, [_full(0.3, far, -far), zero], CaseLabel.CASE1)
    return cases


@pytest.mark.parametrize("name", sorted(_edge_cases()))
def test_classify_edge_entries(name):
    P, entries, expected = _edge_cases()[name]
    t = _edge_triple(P, entries)
    assert _reference_case(t)[0] is expected
    assert classify(t).label is expected


def test_edge_entries_classify_as_one_stack():
    # One stack holds every edge triple (both root pairs): members do not
    # influence one another.
    cases = list(_edge_cases().values())
    triples = [_edge_triple(P, entries) for P, entries, _ in cases]
    decs = [decompose_probability(trace_poly(t.out1)) for t in triples]
    stack = np.array([t.out2.coeffs for t in triples])
    found, _ = analysis._inlay(stack, [analysis._targets(dec) for dec in decs])
    labels = analysis._labels(found)
    assert labels == [expected for _, _, expected in cases]


def test_analysis_uses_no_scalar_entry_views(monkeypatch):
    # analyze_many and theorem_search classify from coefficient arrays: no
    # factorize call and no FirstOrderPoly view of an operator's entries.
    calls = []
    monkeypatch.setattr(analysis, "factorize", lambda p: calls.append("factorize"))
    monkeypatch.setattr(trigpoly, "factorize", lambda p: calls.append("factorize"))
    entries = PhaseOperator.entries
    monkeypatch.setattr(
        PhaseOperator, "entries", property(lambda op: calls.append("entries") or entries.func(op))
    )
    triples = [builtin(name).payload for name in ("counterexample", "case1-example", "case3-example")]
    for k in range(100):
        try:
            triples.append(generate_case2_candidate([20260809, k]))
        except SampleRejected:
            pass
    labels = {r.case.label for r in analyze_many(triples) if r.case is not None}
    report = theorem_search(300, seed=20260809)
    assert calls == []
    assert labels >= {CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3}
    assert {"Case 1", "Case 2", "Case 3"} <= set(report.case_counts)
