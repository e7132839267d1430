"""Tests for case classification, forcing checks and the full analysis."""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseclone import (
    CaseLabel,
    CloningReport,
    FirstOrderPoly,
    NotHermitianError,
    NotPositiveError,
    PhaseOperator,
    SampleRejected,
    SamplerParams,
    UncorrelatedTriple,
    ZeroProbabilityError,
    analyze,
    analyze_many,
    assemble_triple,
    builtin,
    classify,
    decompose_probability,
    deterministic_tensor_obstruction,
    generate_case2_candidate,
    is_hermitian_preserving,
    is_positive_over_phase,
    mul,
    phase_state_operator,
    positivity_many,
    swap_systems,
    theorem_search,
    trace_poly,
    validate_triple,
)
from phaseclone import analysis, operators, search, trigpoly
from phaseclone.catalog import NAMES
from phaseclone.operators import MAX_COEFF
from phaseclone.positivity import DEFAULT_TOL
from phaseclone.trigpoly import ZERO_COEFF_REL

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

def _projection(out: PhaseOperator, P: FirstOrderPoly) -> tuple:
    """``gamma`` and the dependence flag of one output, by the structure stage's projection."""
    scale = np.array([max(np.abs(P.coeffs).max(), out.max_abs())])
    gammas, flags = analysis._projection(out.coeffs[None], P.coeffs[None], scale, DEFAULT_TOL)
    return gammas[0], bool(flags[0])


def test_case1_output_is_constant(case1):
    assert analyze(case1).out1_phase_dependent is False
    gamma, dependent = _projection(case1.out1, trace_poly(case1.out1))
    assert not dependent
    assert np.allclose(gamma, 0.5 * np.eye(2), atol=1e-12)


def test_counterexample_outputs_depend(counterexample):
    assert analyze(counterexample).out1_phase_dependent is True
    assert _projection(counterexample.out1, trace_poly(counterexample.out1))[1] is True


def test_constructed_constant_output():
    rng = np.random.default_rng(61)
    P = fp(0.5, 0.5, 2.0)
    for _ in range(20):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        g = 0.5 * (g + g.conj().T)
        g /= np.trace(g).real
        out = _proportional(P, g.tolist())
        report = analyze(assemble_triple(out, out))
        assert report.out1_phase_dependent is False and report.out2_phase_dependent is False
        gamma, dependent = _projection(out, P)
        assert not dependent
        assert np.allclose(gamma, g, atol=1e-10)


# -------------------------------------------------------------- classify

def test_classify_counterexample(counterexample):
    assert classify(counterexample) is CaseLabel.CASE2


def test_classify_case1(case1):
    assert classify(case1) is CaseLabel.CASE1


def test_classify_case3_by_swapping(case1):
    assert classify(swap_systems(case1)) is CaseLabel.CASE3


def test_classify_constant_probability():
    t = builtin("projective-discard").payload
    assert classify(t) is CaseLabel.CONSTANT_PROBABILITY


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
        assert verdict in labels
        labels[verdict] += 1
        report = analyze(t)
        if verdict is CaseLabel.CASE1:
            assert report.out1_phase_dependent is False
        elif verdict is CaseLabel.CASE3:
            assert report.out2_phase_dependent is False
    assert all(count > 0 for count in labels.values())


# --------------------------------------------------------- forcing check

def test_forcing_check_positive_case2_member():
    t = _positive_case2_triple()
    assert classify(t) is CaseLabel.CASE2
    report = analyze(t)
    assert report.all_positive
    assert report.out1_phase_dependent is False
    assert report.out2_phase_dependent is True
    # Positivity forces out1 = P * Gamma1 with a real, nonnegative diagonal.
    gamma, dependent = _projection(t.out1, trace_poly(t.out1))
    assert not dependent
    diagonal = np.diag(gamma)
    assert (np.abs(diagonal.imag) <= DEFAULT_TOL).all() and (diagonal.real >= -DEFAULT_TOL).all()


def test_forcing_unreachable_for_affine_offdiagonal():
    # Degenerate-root member whose out1 off-diagonal keeps only one factor:
    # a principal submatrix already fails positivity, so the forcing lemma
    # never applies to it.
    P = fp(1.0, 1.0, 2.0)
    a = 0.05
    offdiag = fp(0, 1.0, 1.0)
    out1 = PhaseOperator.from_rows([[a * P, offdiag], [offdiag.conjugate(), (1 - a) * P]])
    out2 = PhaseOperator.from_rows(
        [[0.5 * P, offdiag], [offdiag.conjugate(), 0.5 * P]]
    )
    t = assemble_triple(out1, out2)
    assert classify(t) is CaseLabel.CASE2
    verdict = is_positive_over_phase(PhaseOperator(t.out1.coeffs[:, [0, 1]][:, :, [0, 1]]))
    assert not verdict.positive
    assert verdict.min_eigenvalue < -1e-6
    assert not analyze(t).all_positive


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
    assert rep.case is CaseLabel.CASE2
    assert rep.out1_phase_dependent and rep.out2_phase_dependent
    assert rep.theorem_consistent


def test_analyze_case1(case1):
    rep = analyze(case1)
    assert rep.hp_ok and rep.relation_ok
    assert rep.all_positive
    assert rep.case is CaseLabel.CASE1
    assert rep.out1_phase_dependent is False
    assert rep.theorem_consistent


def test_analyze_projective_discard():
    rep = analyze(builtin("projective-discard", q=0.3).payload)
    assert rep.probability == "constant-probability"
    assert rep.case is CaseLabel.CONSTANT_PROBABILITY
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


def _zero_triple():
    zero = PhaseOperator.zero(2)
    joint = PhaseOperator.zero(4)
    return UncorrelatedTriple(joint=joint, out1=zero, out2=zero)


def test_analyze_never_raises_on_zero_triple():
    rep = analyze(_zero_triple())
    assert rep.probability == "zero-probability"
    assert not rep.relation_ok
    assert rep.theorem_consistent


def _negligible_p_triple():
    """``out1 = out2 = diag(P', -1)``, ``P' = (1e-14, 1e-14, 1 + 1e-14)``: their trace ``P`` is
    about 1e-14 of out1's largest coefficient."""
    out = PhaseOperator.from_rows([[fp(1e-14, 1e-14, 1.0 + 1e-14), 0.0], [0.0, -1.0]])
    return dataclasses.replace(_zero_triple(), out1=out, out2=out)


@pytest.mark.parametrize("make", [_zero_triple, _negligible_p_triple], ids=["zero", "negligible"])
def test_classify_raises_where_p_vanishes_as_validate_does(make):
    # analyze reads zero-probability, so classify has no case to give.
    t = make()
    assert analyze(t).probability == "zero-probability"
    for check in (validate_triple, classify):
        with pytest.raises(ZeroProbabilityError):
            check(t)


def _threshold_triple(z: complex) -> UncorrelatedTriple:
    """``out1 = out2 = [[z x + conj(z) conj(x), 1], [1, 0]]``: ``P`` has modulus ``|z|``, out1 has 1."""
    out = PhaseOperator.from_rows([[fp(z, z.conjugate(), 0.0), 1.0], [1.0, 0.0]])
    return dataclasses.replace(_zero_triple(), out1=out, out2=out)


def _threshold_moduli() -> list[complex]:
    """``z`` of modulus ``ZERO_COEFF_REL * max|out1|`` whose Python ``abs`` and numpy ``abs`` differ.

    The first is a literal whose Python ``abs`` is exactly the zero threshold
    and whose numpy ``abs`` is one ulp above it; the rest come from a seeded
    search, so the test does not rest on one literal.
    """
    found = [3.344362830216656e-14 - 9.424183638908214e-14j]
    for theta in np.random.default_rng(20261021).uniform(0.0, 2.0 * math.pi, 300):
        z = ZERO_COEFF_REL * cmath.exp(1j * theta)
        if abs(z) != np.abs(np.complex128(z)):
            found.append(z)
    return found


def test_zero_probability_is_one_rule_at_its_threshold():
    # classify, validate_triple, analyze and assembly judge P by one rule, so
    # where the two complex abs differ in the last bit they still agree.
    verdicts, messages = [], []
    for z in _threshold_moduli():
        t = _threshold_triple(z)
        try:
            validate_triple(t)
        except ZeroProbabilityError:
            zero = True
        else:
            zero = False
        verdicts.append(zero)
        assert analyze(t).probability == ("zero-probability" if zero else "not-positive"), z
        with pytest.raises(ZeroProbabilityError if zero else NotPositiveError):
            classify(t)
        with pytest.raises(SampleRejected) as rejected:
            assemble_triple(t.out1, t.out2)
        messages.append(str(rejected.value))
        assert (messages[-1] == "trace polynomial vanishes") == zero, z
    # The literal's P is nonzero: classify raises NotPositiveError, as analyze's
    # "not-positive" says, and assembly finds a product entry not divisible.
    assert not verdicts[0] and messages[0] == "product entry (0, 3) is not divisible by the trace"
    assert True in verdicts and False in verdicts


def test_analyze_hermitian_within_tol_does_not_raise():
    # Hermitian within tol * max|coeffs| = 1e-9 * 0.25 but not within a tenth
    # of it: positivity checks hermiticity at the same relative tol as
    # analyze, so a report comes back.
    t = builtin("case1-example").payload
    assert t.out1.max_abs() == 0.25
    coeffs = t.out1.coeffs.copy()
    coeffs[2, 0, 1] += 1e-10
    shifted = UncorrelatedTriple(joint=t.joint, out1=PhaseOperator(coeffs), out2=t.out2)
    rep = analyze(shifted)
    assert rep.hp_out1
    assert rep.positivity_out1 is not None and rep.positivity_out1.positive
    assert rep.theorem_consistent


@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 3), (2, 3)], ids=["1x1", "2x2", "3x3", "2x3"])
def test_hermiticity_is_one_rule_at_its_threshold(dims):
    # An anti-Hermitian i s added to one constant diagonal entry of an exactly
    # Hermitian operator gives a defect of exactly 2 s; set at tol * max|coeffs|
    # and one ulp either side, every hermiticity verdict reads the same bit.
    # The outputs of d = 1, 2, 3 and the 2x3 triple's, which the stage reads
    # zero-padded to 3x3, and each joint are perturbed in turn.
    rng = np.random.default_rng(sum(dims))
    d1, d2 = dims
    base = [random_hp_operator(rng, d) for d in (d1 * d2, d1, d2)]
    with pytest.raises(ValueError, match="tol must be"):
        operators.hermitian_part(base[0].coeffs, 1.0)
    for role, op in enumerate(base):
        limit = DEFAULT_TOL * op.max_abs()
        below, above = np.nextafter(limit, 0.0), np.nextafter(limit, np.inf)
        for defect, expected in ((below, True), (limit, True), (above, False)):
            coeffs = op.coeffs.copy()
            coeffs[2, 0, 0] += 0.5j * defect
            ops = list(base)
            ops[role] = PhaseOperator(coeffs)
            assert ops[role].max_abs() == op.max_abs()
            assert operators.hermitian_part(coeffs)[1] == defect
            flags = [role != k or expected for k in range(3)]
            assert [is_hermitian_preserving(o) for o in ops] == flags
            assert [v is not None for v in positivity_many(ops)] == flags
            with pytest.raises(NotHermitianError) if not expected else contextlib.nullcontext():
                is_positive_over_phase(ops[role])
            rep = analyze(UncorrelatedTriple(*ops))
            assert [rep.hp_joint, rep.hp_out1, rep.hp_out2] == flags


def test_analyze_tests_hermiticity_once_per_operator(monkeypatch):
    import sys

    import phaseclone.operators as operators

    original = operators.hermitian_part
    calls = []

    def counting(coeffs, tol=DEFAULT_TOL):
        # One entry per operator tested: the test runs over a stack.
        calls.extend([None] * int(np.prod(np.shape(coeffs)[:-3])))
        return original(coeffs, tol)

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
    const, dependent = _projection(out, P)
    assert dependent is False
    assert np.abs(const - gamma).max() < 1e-15
    bumped = out.coeffs.copy()
    bumped[0, 0, 1] += 1e-6
    assert _projection(PhaseOperator(bumped), P)[1] is True


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
    monkeypatch.setattr(trigpoly, "factorize", counting)
    # classify evaluates the out2 entries at the factor roots on the
    # coefficient array, as the structure stage does: it factorizes no entry.
    labels = {classify(t) for t in triples}
    assert calls == []
    assert labels >= {CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3}


# ------------------------------------------------------ stacked classifier

def _reference_case(t, tol: float = DEFAULT_TOL) -> CaseLabel:
    """Case label of a triple by a scalar loop over the out2 entries.

    Every nonzero entry ``a x + b conj(x) + c`` is evaluated, times ``x``,
    at ``x = -p0`` and ``x = -p1`` (at a double root, the midpoint, with its
    slope), against ``tol`` times its size, under the classifier's constants.
    """
    dec = decompose_probability(trace_poly(t.out1))
    p0, p1 = dec.p0, dec.p1
    double = abs(p0 - p1) <= analysis.DEGENERATE_ROOT_BAND * max(1.0, abs(p0))
    if double:
        p0 = p1 = 0.5 * (p0 + p1)
    entries = [entry for row in t.out2.entries for entry in row]
    threshold = ZERO_COEFF_REL * max(entry.max_abs() for entry in entries)

    def carries(e, p, slope=False) -> bool:
        x, size, reach = -p, e.max_abs(), max(1.0, abs(p))
        if slope:
            return abs(2.0 * e.a * x + e.c) <= tol * size * reach
        return abs(e.a * x * x + e.c * x + e.b) <= tol * size * reach * reach

    counts = []
    for e in entries:
        if e.max_abs() <= threshold:
            continue
        if double:
            counts.append(carries(e, p0) * (1 + carries(e, p0, slope=True)))
        else:
            counts.append(carries(e, p0) + carries(e, p1))
    if 0 in counts:
        return CaseLabel.CASE1
    if 1 in counts:
        return CaseLabel.CASE2
    return CaseLabel.CASE3


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
        draw(20260809, SamplerParams(strata=((name, 1.0),)), 80)
    rng = np.random.default_rng(5)
    for k in range(12):
        t = generate_case2_candidate([31, k], SamplerParams(strata=(("case2", 1.0),)))
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
        if report.case is None or report.case is CaseLabel.CONSTANT_PROBABILITY:
            continue
        label = _reference_case(t)
        assert report.case is label
        assert classify(t) is label
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
    broken = UncorrelatedTriple(PhaseOperator(coeffs), ce.out1, ce.out2)
    zero = PhaseOperator.zero(2)
    joint = PhaseOperator.zero(4)
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
    """The verdicts of theorem_search: certificates only where the stage says they are needed."""
    decided = np.flatnonzero(s.needs_certificate).tolist()
    certified = analysis._certify_many(s.operators(decided), DEFAULT_TOL)
    verdicts = [None] * (3 * s.needs_certificate.size)
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
    needs = set()
    for members, s in _stages(triples):
        verdicts = _searched_verdicts(s)
        for m, i in enumerate(members):
            r = reports[i]
            assert s.hp[:, m].tolist() == [r.hp_joint, r.hp_out1, r.hp_out2]
            assert bool(s.relation_ok[m]) is r.relation_ok
            assert s.probability[m] == r.probability
            dependence = (r.out1_phase_dependent, r.out2_phase_dependent)
            if s.relation[2][m]:
                assert tuple(s.dependence[:, m].tolist()) == dependence
            else:  # P vanishes: no flag, and none in the stage
                assert dependence == (None, None) and not s.dependence[:, m].any()
            code = int(s.case[m])
            assert code >= -1 and (analysis._LABELS[code] if code >= 0 else None) is r.case
            both = dependence == (True, True)
            assert bool(s.needs_certificate[m]) is (r.hp_ok and r.relation_ok and both)
            needs.add((both, bool(s.needs_certificate[m])))
            _, out1, out2 = verdicts[3 * m : 3 * m + 3]
            consistent = analysis._consistent(s.needs_certificate[m], s.nonpositive[m], out1, out2)
            assert consistent is r.theorem_consistent
    # Both-dependent members the stage leaves uncertified: the broken relation.
    assert needs == {(False, False), (True, False), (True, True)}


def test_search_reports_drop_only_the_certificates_that_decide_nothing():
    # theorem_search certifies only hermitian-preserving, relation-satisfying
    # triples with both outputs phase-dependent; every other verdict, and
    # theorem_consistent, is the one analyze_many gives.
    triples = _odd_stack()
    full = analyze_many(triples)
    searched = [None] * len(triples)
    for members, s in _stages(triples):
        for i, report in zip(members, analysis._reports(s, _searched_verdicts(s))):
            searched[i] = report
    assert not all(r.hp_ok for r in full) and not all(r.relation_ok for r in full)
    assert any(r.probability == "constant-probability" for r in full)
    decisive = 0
    for f, s in zip(full, searched):
        if f.hp_ok and f.relation_ok and f.out1_phase_dependent and f.out2_phase_dependent:
            decisive += 1
            assert s == f
        else:
            assert s == dataclasses.replace(
                f, positivity_joint=None, positivity_out1=None, positivity_out2=None
            )
            assert s.theorem_consistent
    assert 0 < decisive < len(triples)


def _stacks(triples: list) -> tuple:
    """The ``(joint, out1, out2)`` coefficient stacks of triples of one ``(d1, d2)``."""
    return tuple(np.array([getattr(t, n).coeffs for t in triples]) for n in ("joint", "out1", "out2"))


def _bits(x: np.ndarray) -> tuple:
    return x.dtype, x.shape, x.tobytes()


def _shaped_groups() -> dict:
    """Groups of triples of each ``(d1, d2)``: 2x2, 2x3 and 1x2 ones and their swaps.

    The 2x3 group holds lemma L2b's padded members (see
    :func:`_padded_l2b_triples`) and the 1x2 one takes the 2x2 outputs
    with the wild stratum's double roots as out2, next to ``P`` as out1.
    """
    mixed = _mixed_stack()
    square = [t for t in mixed if (t.out1.dim, t.out2.dim) == (2, 2)]
    rect = [t for t in mixed if (t.out1.dim, t.out2.dim) == (2, 3)] + _padded_l2b_triples()[1]
    probability = [PhaseOperator(trace_poly(t.out2).coeffs.reshape(3, 1, 1)) for t in square]
    line = [assemble_triple(p, t.out2) for p, t in zip(probability, square)]
    swapped = {(3, 2): rect, (2, 1): line}
    return {(2, 2): square, (2, 3): rect, (1, 2): line} | {
        shape: [swap_systems(t) for t in group] for shape, group in swapped.items()
    }


def test_stacked_output_tests_give_the_per_output_bits():
    # In every group hermitian_part, _projection and _multiplicity take out1
    # and out2 in one call, the smaller zero-padded to the larger d; member
    # for member, that call gives on the real entries the bits of one call
    # per output, and the padding moves neither the dependence flags nor
    # lemma L2b's verdict.
    seen, proved = set(), {}
    for shape, triples in _shaped_groups().items():
        _, out1, out2 = stacks = _stacks(triples)
        v = analysis._verdicts(*stacks, DEFAULT_TOL)
        both, d = v.outs, v.outs.shape[-1]
        family, defect, _ = operators.hermitian_part(both)
        P = out1.trace(axis1=-2, axis2=-1)
        scales = np.maximum(np.abs(P).max(axis=1), np.abs(both).max(axis=(2, 3, 4)))
        gamma, dependent = analysis._projection(both, P, scales, DEFAULT_TOL)
        members = [m for m, dec in enumerate(v.probability) if not isinstance(dec, str)]
        decs, n = [v.probability[m] for m in members], len(members)
        found, double = analysis._multiplicity(both[:, members].reshape(-1, 3, d, d), decs * 2, DEFAULT_TOL)
        found = found.reshape(2, n, d, d)
        for k, out in enumerate((out1, out2)):
            real = (Ellipsis, slice(out.shape[-1]), slice(out.shape[-1]))
            assert _bits(both[k][real]) == _bits(out), shape
            assert np.count_nonzero(both[k]) == np.count_nonzero(out), shape  # zero padding
            assert _bits(v.families[1 + k]) == _bits(family[k][real])
            part, flaw, _ = operators.hermitian_part(out)
            assert [_bits(part), _bits(flaw)] == [_bits(family[k][real]), _bits(defect[k])], shape
            g, flags = analysis._projection(out, P, scales[k], DEFAULT_TOL)
            assert (_bits(g), _bits(flags)) == (_bits(gamma[k][real]), _bits(dependent[k])), shape
            f, dd = analysis._multiplicity(out[members], decs, DEFAULT_TOL)
            rows = slice(k * n, k * n + n)
            assert _bits(f.reshape(found[k][real].shape)) == _bits(found[k][real]), shape
            assert _bits(dd) == _bits(double[rows]), shape
            lemma = analysis._nonpositive(f, out.shape[-1])
            assert _bits(lemma) == _bits(analysis._nonpositive(found[k].reshape(n, -1), d)), shape
            proved[shape] = proved.get(shape, 0) + int(lemma.sum())
        assert 1 in found and 0 < double.sum() < 2 * n, shape
        seen |= set(found.ravel().tolist())
        if 1 not in shape:
            assert dependent.any() and not dependent.all(), shape
    assert seen == {0, 1, 2} and proved[2, 3] > 0 and proved[3, 2] > 0


def _padded_l2b_triples() -> tuple[list, list]:
    """2x2 triples that lemma L2b proves not positive, and each with out2 padded to 3x3 by zeros.

    The padding keeps ``P``, the phase dependence and the lemma's verdict, so
    the 2x3 triples give a 2x3 group members that lemma L2b proves not
    positive.
    """
    square = [t for t in _mixed_stack() if (t.out1.dim, t.out2.dim) == (2, 2)]
    s = analysis._structure(*_stacks(square), DEFAULT_TOL)
    proved = [t for t, flag in zip(square, s.nonpositive) if flag][:6]
    pad = ((0, 0), (0, 1), (0, 1))
    return proved, [assemble_triple(t.out1, PhaseOperator(np.pad(t.out2.coeffs, pad))) for t in proved]


def test_padded_outputs_keep_the_lemma_verdicts():
    # In a 2x3 group lemma L2b reads out1's rows padded to 3x3 by zeros; mixed
    # among sampled 2x3 triples, each member keeps the verdict it has alone.
    proved, padded = _padded_l2b_triples()
    assert len(proved) == 6
    for group in (proved, padded):
        s = analysis._structure(*_stacks(group), DEFAULT_TOL)
        assert s.nonpositive.tolist() == [True] * 6
        assert s.dependence.tolist() == [[True] * 6] * 2
    rect = [t for t in _mixed_stack() if (t.out1.dim, t.out2.dim) == (2, 3)]
    mixed = [t for pair in zip(rect, padded) for t in pair] + rect[len(padded) :]
    alone = [bool(analysis._structure(*_stacks([t]), DEFAULT_TOL).nonpositive[0]) for t in mixed]
    assert analysis._structure(*_stacks(mixed), DEFAULT_TOL).nonpositive.tolist() == alone
    assert sum(alone) == 6


def test_a_group_takes_one_call_per_test(monkeypatch):
    # Whatever the output shapes, a group runs hermitian_part on its joints
    # and then on out1 and out2 as one stack, zero-padded to the larger d,
    # _projection on that stack and _multiplicity on out1's and out2's
    # members concatenated, which also gives lemma L2b its rows.
    # Recorded: (ndim, d) of each call's stack.
    names = ("hermitian_part", "_projection", "_multiplicity")
    calls: dict = {name: [] for name in names}
    for name in names:
        test, seen = getattr(analysis, name), calls[name]
        record = lambda *a, _t=test, _s=seen: _s.append((a[0].ndim, a[0].shape[-1])) or _t(*a)  # noqa: E731
        monkeypatch.setattr(analysis, name, record)
    groups = _shaped_groups()
    for (d1, d2), group in groups.items():
        d = max(d1, d2)
        for seen in calls.values():
            seen.clear()
        reports = analyze_many(group)
        assert any(r.case is not None for r in reports)
        assert calls["hermitian_part"] == [(4, d1 * d2), (5, d)], (d1, d2)
        assert (calls["_projection"], calls["_multiplicity"]) == ([(5, d)], [(4, d)]), (d1, d2)
    assert any(analysis._structure(*_stacks(groups[2, 3]), DEFAULT_TOL).nonpositive)


def _assert_check_verdicts_are_the_report(t: UncorrelatedTriple) -> tuple:
    """``check``'s verdicts, from the verdict half alone, are the fields of :func:`analyze`."""
    relation, hp, probability, verdicts = found = analysis._check_verdicts(t, DEFAULT_TOL)
    r = analyze(t)
    assert relation == r.relation
    assert hp == [r.hp_joint, r.hp_out1, r.hp_out2]
    assert probability == r.probability
    assert verdicts == [r.positivity_joint, r.positivity_out1, r.positivity_out2]
    return found


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_check_verdicts_equal_the_report_on_sampled_triples(k):
    try:
        t = generate_case2_candidate([20260809, k])
    except SampleRejected:
        return
    _assert_check_verdicts_are_the_report(t)


#: Kinds of coefficient stack for the never-raises property; ``proportional``
#: (out2 only) is ``Gamma * P`` for out1's trace ``P``, so its joint assembles.
_STACKS = ("random", "zero", "sparse", "hermitian", "proportional")


def _stack(rng, d: int, kind: str, P: np.ndarray) -> np.ndarray:
    """A ``(3, d, d)`` coefficient stack of one kind, parts of magnitude at most 1 (times ``P``)."""
    e = rng.uniform(-1, 1, (3, d, d)) + 1j * rng.uniform(-1, 1, (3, d, d))
    if kind == "zero":
        e[:] = 0
    elif kind == "sparse":
        e[rng.random(e.shape) < 0.7] = 0
    elif kind == "hermitian":  # b = a^H and c = c^H: Hermitian at every phi
        e[1], e[2] = e[0].conj().T, 0.5 * (e[2] + e[2].conj().T)
    elif kind == "proportional":  # a unit-trace PSD Gamma, entries at most 1
        h = e[0] @ e[0].conj().T
        e = (h / np.trace(h).real)[None] * P[:, None, None]
    return e


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.tuples(*[st.sampled_from(_STACKS[:4])] * 2, st.sampled_from(_STACKS)),
    st.tuples(*[st.floats(-150, 150)] * 3),
    st.sampled_from(("drawn", "assembled", "sampled")),
)
def test_analyze_never_raises_or_warns(d1, d2, seed, kinds, exponents, source):
    # Random, zero, sparse, Hermitian and proportional stacks, each scaled by
    # 10^k anywhere in the coefficient range, with the joint drawn or, where
    # the division succeeds, assembled from the outputs; or a sampled
    # candidate's outputs scaled by one 10^k and assembled.
    rng = np.random.default_rng(seed)
    out1 = _stack(rng, d1, kinds[1], None) * 10.0 ** exponents[1]
    P = np.trace(out1, axis1=1, axis2=2)
    if kinds[2] == "proportional":  # trace P, unless P is past MAX_COEFF
        out2 = _stack(rng, d2, "proportional", P / max(1.0, 2 * np.abs(P).max() / MAX_COEFF))
    else:
        out2 = _stack(rng, d2, kinds[2], None) * 10.0 ** exponents[2]
    joint = _stack(rng, d1 * d2, kinds[0], None) * 10.0 ** exponents[0]
    out1, out2 = PhaseOperator(out1), PhaseOperator(out2)
    t = UncorrelatedTriple(PhaseOperator(joint), out1, out2)
    if source == "sampled":
        try:
            s = generate_case2_candidate([seed])
        except SampleRejected:
            s = builtin("counterexample").payload
        k = 10.0 ** exponents[0] / (2 * max(s.out1.max_abs(), s.out2.max_abs()))
        out1, out2 = PhaseOperator(s.out1.coeffs * k), PhaseOperator(s.out2.coeffs * k)
    if source != "drawn":
        try:
            t = assemble_triple(out1, out2)
        except (SampleRejected, ValueError):  # not divisible, or a quotient past MAX_COEFF
            pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(t)
    assert isinstance(report, CloningReport)


def _off_probability_triple(P: FirstOrderPoly) -> UncorrelatedTriple:
    """``(Gamma1 P, Gamma2 P)`` with unit-trace ``Gamma``s, for a ``P`` with no decomposition."""
    gamma1 = [[0.6, 0.1j], [-0.1j, 0.4]]
    return assemble_triple(_gamma_times(P, gamma1), _gamma_times(P, np.eye(2) / 2))


def _check_cases() -> dict:
    """The catalog and every kind of triple whose verdicts the sampler never reaches."""
    cases = {name: builtin(name).payload for name in NAMES if name != "phase-state"}
    zero, t = PhaseOperator.zero(2), builtin("counterexample").payload
    joint = PhaseOperator.zero(4)
    cases["zero-probability"] = UncorrelatedTriple(joint, zero, zero)
    cases["not-real-valued"] = _off_probability_triple(FirstOrderPoly(1j, 1j, 0.5))
    cases["not-positive"] = _off_probability_triple(FirstOrderPoly(0.25, 0.25, 0.25))
    off = PhaseOperator(t.joint.coeffs * (1.0 + 1e-6))
    cases["joint-off-by-1e-6"] = UncorrelatedTriple(off, t.out1, t.out2)
    return cases


@pytest.mark.parametrize("name", sorted(_check_cases()))
def test_check_verdicts_equal_the_report(name):
    relation, _, probability, _ = _assert_check_verdicts_are_the_report(_check_cases()[name])
    if name == "joint-off-by-1e-6":
        assert not relation.relation_holds
    elif name in ("zero-probability", "not-real-valued", "not-positive"):
        assert probability == name


@pytest.mark.parametrize("name", [name for name in NAMES if name != "phase-state"])
def test_analyze_at_the_coefficient_bound_gives_finite_verdicts(name):
    # Every intermediate stays inside the double range (an overflow warning
    # fails the suite): the relation, the projection and the certificate.
    t = builtin(name).payload
    k = MAX_COEFF / max(op.max_abs() for op in (t.joint, t.out1, t.out2)) * (1.0 - 1e-15)
    joint = PhaseOperator(k * t.joint.coeffs)
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
    joint = PhaseOperator(np.kron(0.5 * np.eye(2), coeffs))
    return UncorrelatedTriple(joint, _gamma_times(P, 0.5 * np.eye(2)), PhaseOperator(coeffs))


def _full(s, w0, w1):
    """Coefficients of ``s (x + w0) (w1 conj(x) + 1)``."""
    return (s, s * w0 * w1, s * (w0 + w1))


def _off(entry, k: float, p: complex, slope: bool = False) -> tuple:
    """``entry`` with its roots moved so that its value (times ``x``) at ``x = -p``, or only
    its slope there, moves by ``k`` times the classifier's bound: ``DEFAULT_TOL`` times its
    size times ``max(1, |p|)`` to the power 2 or 1."""
    a, b, c = entry
    reach = max(1.0, abs(p))
    delta = k * DEFAULT_TOL * max(abs(a), abs(b), abs(c)) * (reach if slope else reach * reach)
    # Adding delta (x + p) to x times the entry keeps its value at -p.
    return (a, b + delta * p, c + delta) if slope else (a, b + delta, c)


def _edge_cases():
    theta, r = 0.7, 2.5
    P = FirstOrderPoly(cmath.exp(-1j * theta), cmath.exp(1j * theta), r + 1.0 / r)
    p0, p1 = r * cmath.exp(1j * theta), cmath.exp(1j * theta) / r
    far = -1.3 + 0.4j
    zero = (0.0, 0.0, 0.0)
    threshold = ZERO_COEFF_REL * 0.5 * P.max_abs()  # max|out2| is max|P / 2|
    unit = np.array(_full(1.0, far, -far)) / np.abs(_full(1.0, far, -far)).max()
    carrying = _full(0.3, p0, far)
    cases = {
        "root 0.5 tol from p0": (P, [_off(carrying, 0.5, p0), zero], CaseLabel.CASE2),
        "root 2 tol from p0": (P, [_off(carrying, 2.0, p0), zero], CaseLabel.CASE1),
        # |p1| < 1, so the bound at p1 is the smaller one.
        "both roots 0.5 tol off": (P, [_off(_full(0.3, p0, p1), 0.5, p1), zero], CaseLabel.CASE3),
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
    # r = 1e9 puts p1 within the bound of 0, both roots of a x.
    R = FirstOrderPoly(cmath.exp(-1j * theta), cmath.exp(1j * theta), 1e9 + 1e-9)
    cases["pure positive, roots at 0 near p1"] = (R, [(0.7, 0.0, 0.0), zero], CaseLabel.CASE2)
    # r = 1: p0 = p1 = q, a double root; the slope decides between one factor and two.
    Q = FirstOrderPoly(cmath.exp(-1j * theta), cmath.exp(1j * theta), 2.0)
    q = cmath.exp(1j * theta)
    twice = _full(0.3, q, q)
    cases["double root, entry carries it once"] = (Q, [_full(0.3, q, far), zero], CaseLabel.CASE2)
    cases["double root, entry carries it twice"] = (Q, [twice, zero], CaseLabel.CASE3)
    cases["double root, slope 0.5 tol"] = (Q, [_off(twice, 0.5, q, True), zero], CaseLabel.CASE3)
    cases["double root, slope 2 tol"] = (Q, [_off(twice, 2.0, q, True), zero], CaseLabel.CASE2)
    cases["double root, value 0.5 tol"] = (Q, [_off(twice, 0.5, q), zero], CaseLabel.CASE3)
    cases["double root, value 2 tol"] = (Q, [_off(twice, 2.0, q), zero], CaseLabel.CASE1)
    cases["double root, entry misses it"] = (Q, [_full(0.3, far, -far), zero], CaseLabel.CASE1)
    # r = 1 + 4e-7: a pair inside the band is one double root at its midpoint, where P is
    # below 1e-12 |alpha|; an entry with a simple root at one of the pair misses it there.
    r = 1.0 + 4e-7
    N = FirstOrderPoly(cmath.exp(-1j * theta), cmath.exp(1j * theta), r + 1.0 / r)
    n0, n1 = r * q, q / r
    cases["close pair, entry carries one root"] = (N, [_full(0.3, n0, far), zero], CaseLabel.CASE1)
    cases["close pair, entry carries both roots"] = (N, [_full(0.3, n0, n1), zero], CaseLabel.CASE3)
    return cases


@pytest.mark.parametrize("name", sorted(_edge_cases()))
def test_classify_edge_entries(name):
    P, entries, expected = _edge_cases()[name]
    t = _edge_triple(P, entries)
    assert _reference_case(t) is expected
    assert classify(t) is expected


def test_edge_entries_classify_as_one_stack():
    # One stack holds every edge triple (both root pairs): members do not
    # influence one another.
    cases = list(_edge_cases().values())
    triples = [_edge_triple(P, entries) for P, entries, _ in cases]
    decs = [decompose_probability(trace_poly(t.out1)) for t in triples]
    stack = np.array([t.out2.coeffs for t in triples])
    found, double = analysis._multiplicity(stack, decs, DEFAULT_TOL)
    labels = [analysis._LABELS[1 + k] for k in found.min(axis=1).tolist()]
    assert double.tolist() == [abs(P.c - 2.0) < 1e-12 for P, _, _ in cases]
    assert labels == [expected for _, _, expected in cases]


@pytest.mark.parametrize(
    "found, expected",
    [
        ([[1, 1], [1, 2]], True),  # a diagonal entry with a simple root changes sign
        ([[2, 1], [1, 2]], True),  # a 2 x 2 minor goes negative next to the root
        ([[2, 2], [2, 2]], False),  # P * Gamma
        ([[0, 1], [1, 2]], False),  # L2b assumes every entry vanishes at the root
        ([[2, 2, 2], [2, 2, 2], [2, 2, 2]], False),
        ([[2, 2, 1], [2, 2, 2], [1, 2, 2]], True),
    ],
)
def test_lemma_l2b_reads_the_root_multiplicities(found, expected):
    found = np.array([found])
    assert analysis._nonpositive(found.reshape(1, -1), found.shape[-1]).tolist() == [expected]


def test_analysis_uses_no_scalar_entry_views(monkeypatch):
    # analyze_many and theorem_search classify from coefficient arrays: no
    # factorize call and no FirstOrderPoly view of an operator's entries.
    calls = []
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
    labels = {r.case for r in analyze_many(triples) if r.case is not None}
    report = theorem_search(300, seed=20260809)
    assert calls == []
    assert labels >= {CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3}
    assert {"Case 1", "Case 2", "Case 3"} <= set(report.case_counts)
