"""Tests for the candidate sampler and randomized theorem search."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from phaseclone import (
    PhaseOperator,
    SamplerParams,
    SampleRejected,
    analyze,
    assemble_triple,
    builtin,
    generate_case2_candidate,
    theorem_search,
    validate_triple,
)
from phaseclone import analysis, search
from phaseclone.analysis import CaseLabel

from helpers import fp, max_coeff_diff


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
        rep = analyze(t)
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


@pytest.mark.parametrize("pin_r", [1 + 1e-9, 2.0])
def test_pin_r_leaves_the_wild_stratum_at_r_1(pin_r):
    # pin_r pins only the strata that draw r freely, so the wild stratum
    # keeps the r = 1 its entries are built for and every triple classifies.
    report = theorem_search(2000, seed=5, params=SamplerParams(pin_r=pin_r))
    assert report.ok
    assert report.accepted == 1794 and "unclassified" not in report.case_counts
    assert report.witness_failures == [] and report.violations == []
    assert report.both_phase_dependent == len(report.witnesses) == 374


def test_search_asks_witnesses_only_where_the_theorem_applies(monkeypatch):
    # On odd trials out1 becomes D out1 D^-1, D = diag(1, 2): its trace,
    # entry roots and phase dependence hold, and so does the relation with
    # the joint assembled from it, but a nonzero off-diagonal pair is no
    # longer conjugate.  Such triples cannot contradict the theorem, so no
    # witness is asked of them.
    draw = search._draw
    skew = np.array([[1.0, 2.0], [0.5, 1.0]])

    def skewed(seed, params):
        out1, out2 = draw(seed, params)
        return (out1 * skew if seed[1] % 2 else out1), out2

    plain = theorem_search(2000, seed=5)
    monkeypatch.setattr(search, "_draw", skewed)
    report = theorem_search(2000, seed=5)
    assert report.ok
    assert report.witness_failures == [] and report.violations == []
    assert report.both_phase_dependent == plain.both_phase_dependent == 374
    assert report.case_counts["unclassified"] == 725
    hermitian = [
        w.trial for w in plain.witnesses
        if w.trial % 2 == 0 or not draw([5, w.trial], search._DEFAULT_PARAMS)[0][:, 0, 1].any()
    ]
    assert [w.trial for w in report.witnesses] == hermitian
    assert len(hermitian) == 214


def test_assemble_supports_asymmetric_dimensions():
    import cmath

    import numpy as np

    from phaseclone import FirstOrderPoly, PhaseOperator, parse_pmap, serialize_pmap
    from phaseclone import document_from_triple
    from helpers import max_coeff_diff as diff

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


def test_search_without_a_classified_triple_is_not_ok():
    clean = theorem_search(20, seed=1)
    assert clean.ok and clean.accepted > clean.case_counts.get("unclassified", 0)
    # Every draw of the reject stratum is rejected: nothing was tested.
    rejected = theorem_search(20, seed=1, params=SamplerParams(pin_stratum="reject"))
    assert rejected.accepted == 0 and not rejected.violations and not rejected.witness_failures
    assert not rejected.ok
    # Accepted triples that were all left unclassified test nothing either.
    unclassified = dataclasses.replace(clean, case_counts={"unclassified": clean.accepted})
    assert not unclassified.ok


def test_search_rejects_bad_trials():
    for trials in (0, -2, 10.5, "3", None, 1.0):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            theorem_search(trials)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_search_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        theorem_search(5, seed=seed)


def test_search_counts_rejection_reasons():
    report = theorem_search(1500, seed=20260809)
    assert sum(report.rejection_reasons.values()) == report.rejected
    # The reject stratum's deficient off-diagonals: the first product entry
    # in row-major order that does not divide is always (1, 2).
    assert report.rejection_reasons == {"product entry (1, 2) is not divisible by the trace": 150}
    vanishing = theorem_search(20, seed=20260809, params=_unvalidated(pin_alpha_abs=0.0))
    assert vanishing.rejection_reasons == {"trace polynomial vanishes": 20}


def test_unknown_stratum_rejected():
    with pytest.raises(ValueError):
        generate_case2_candidate(1, SamplerParams(pin_stratum="nope"))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_search_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        theorem_search(5, tol=tol)


_NAMES = tuple(name for name, _ in search._STRATA)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"strata": (("case1", 1.0), ("case1", 2.0))}, "unique"),
        ({"strata": tuple(zip(_NAMES, (1.0, math.nan, 1.0, 1.0, 1.0, 1.0)))}, "finite"),
        ({"strata": tuple(zip(_NAMES, (1.0, math.inf, 1.0, 1.0, 1.0, 1.0)))}, "finite"),
        ({"strata": tuple(zip(_NAMES, (1.0, -0.5, 1.0, 1.0, 1.0, 1.0)))}, "finite"),
        ({"strata": tuple(zip(_NAMES, (0.0,) * 6))}, "not all 0"),
        ({"pin_stratum": "nope"}, "unknown stratum"),
        ({"strata": (("case1", 1.0),), "pin_stratum": "wild"}, "unknown stratum"),
        ({"pin_r": 0.0}, "pin_r must be finite and >= 1"),
        ({"pin_r": -2.0}, "pin_r must be finite and >= 1"),
        ({"pin_r": math.nan}, "pin_r must be finite and >= 1"),
        ({"r_range": (0.0, 0.0)}, "r_range and pin_r"),
        ({"r_range": (0.5, 2.0)}, "r_range and pin_r"),
        ({"r_range": (1.0, math.inf)}, "r_range and pin_r"),
        ({"r_range": (3.0, 2.0)}, "low <= high"),
        ({"pin_alpha_abs": -1.0}, "pin_alpha_abs must be finite and > 0"),
        ({"pin_alpha_abs": 0.0}, "pin_alpha_abs must be finite and > 0"),
        ({"alpha_abs_range": (0.0, 1.0)}, "alpha_abs_range and pin_alpha_abs"),
        ({"alpha_abs_range": (math.nan, 1.0)}, "alpha_abs_range and pin_alpha_abs"),
        ({"alpha_abs_range": (2.0, 1.0)}, "low <= high"),
        ({"pin_stratum": "wild", "pin_r": 1 + 1e-9}, "wild stratum is built for r = 1"),
        ({"pin_stratum": "wild", "pin_r": 1 + 1e-7}, "wild stratum is built for r = 1"),
    ],
)
def test_sampler_params_validated_when_built(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SamplerParams(**kwargs)


@pytest.mark.parametrize("weights", [None, (0.0, 1.0, 0.0, 2.0, 0.0, 0.5), (3.0,) + (0.0,) * 5])
def test_stratum_cdf_draws_what_choice_draws(weights):
    # One double from the stream picks the stratum Generator.choice picks.
    strata = search._STRATA if weights is None else tuple(zip(_NAMES, weights))
    params = SamplerParams(strata=strata)
    p = np.array([w for _, w in strata])
    p = p / p.sum()
    for k in range(2000):
        ours, numpys = np.random.default_rng([3, k]), np.random.default_rng([3, k])
        assert params._cdf.searchsorted(ours.random(), "right") == numpys.choice(len(p), p=p)
        assert ours.random() == numpys.random()


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    # Stricter than np.array_equal: also tells -0.0 from +0.0.
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _digest(t) -> str:
    h = hashlib.sha256()
    for op in (t.out1, t.out2, t.joint):
        h.update(np.ascontiguousarray(op.coeffs, dtype=complex).tobytes())
    return h.hexdigest()[:16]


# sha256 (first 16 hex digits) of the out1, out2 and joint coefficient
# bytes of generate_case2_candidate([20260809, k]), or the rejection
# message, as produced by the FirstOrderPoly-based sampler this one
# replaced.  Trial 6 draws a zero off-diagonal pair.
_PINNED_CANDIDATES = {
    0: "beb3fcb91d48c11a",
    1: "246971984a2b44eb",
    2: "61036153a138aecf",
    3: "d81ab87408bbc635",
    4: "07e7b2808bb3eb86",
    5: "854d66e1e101a6c8",
    6: "bc0d8b8739ea72d4",
    7: "5ddcea326396902b",
    8: "e378f2757961065a",
    9: "08a586f1fdbd0ec1",
    10: "e0c9856f305db4cb",
    11: "4ac639ed778f73c7",
    12: "0d358b4354215fa5",
    13: "c058c63dcdf82aca",
    14: "product entry (1, 2) is not divisible by the trace",
    15: "0e75a94b7eb2ab8d",
    16: "31f68555cf029ae8",
    17: "product entry (1, 2) is not divisible by the trace",
    18: "b837de5f992b368c",
    19: "product entry (1, 2) is not divisible by the trace",
}


def test_candidate_stream_is_pinned():
    for k, want in _PINNED_CANDIDATES.items():
        try:
            got = _digest(generate_case2_candidate([20260809, k]))
        except SampleRejected as err:
            got = str(err)
        assert got == want, k


def _unvalidated(**fields) -> SamplerParams:
    """Default params with ``fields`` set past ``__post_init__``, to reach rejections it forbids."""
    params = SamplerParams()
    for name, value in fields.items():
        object.__setattr__(params, name, value)
    return params


@pytest.mark.parametrize(
    "params",
    [SamplerParams()]
    + [SamplerParams(pin_stratum=name) for name in _NAMES]
    + [_unvalidated(pin_alpha_abs=0.0)],
    ids=["default", *_NAMES, "vanishing-trace"],
)
def test_batched_assembly_equals_per_trial_candidates(params):
    # Blocks of one stacked draw and assembly give, trial for trial, the
    # coefficients and rejection messages of generate_case2_candidate.
    seed = 20260809
    for start in range(0, 150, 50):
        block = range(start, start + 50)
        outputs = np.array([search._draw([seed, k], params) for k in block])
        stacks, kept, rejected = search._assemble(*outputs.swapaxes(0, 1), search._ASSEMBLE_TOL)
        accepted = dict(zip(kept.tolist(), zip(*stacks)))
        assert sorted([*accepted, *rejected]) == list(range(len(block)))
        for n, k in enumerate(block):
            try:
                t = generate_case2_candidate([seed, k], params)
            except SampleRejected as err:
                assert rejected.get(n) == str(err), k
                continue
            for got, name in zip(accepted[n], ("joint", "out1", "out2")):
                assert _same_bits(got, getattr(t, name).coeffs), k


def test_search_analyzes_the_per_trial_candidates(monkeypatch):
    # theorem_search hands its structure stage the coefficient stacks of
    # exactly the accepted per-trial triples.
    seen = []
    structure = analysis._structure
    monkeypatch.setattr(search, "_BLOCK", 37)
    monkeypatch.setattr(
        analysis, "_structure", lambda *args: seen.extend(zip(*args[:3])) or structure(*args)
    )
    report = theorem_search(200, seed=7)
    expected = []
    for k in range(200):
        try:
            expected.append(generate_case2_candidate([7, k]))
        except SampleRejected:
            pass
    assert report.accepted == len(seen) == len(expected)
    for got, want in zip(seen, expected):
        for stack, name in zip(got, ("joint", "out1", "out2")):
            assert _same_bits(stack, getattr(want, name).coeffs)


def test_search_builds_no_operator_objects(monkeypatch):
    # From draw to tally a search block stays coefficient stacks.
    built = []
    post_init = PhaseOperator.__post_init__
    counting = lambda op: built.append(op) or post_init(op)  # noqa: E731
    monkeypatch.setattr(PhaseOperator, "__post_init__", counting)
    report = theorem_search(300, seed=20260809)
    assert built == [] and report.accepted > 0
    generate_case2_candidate([20260809, 0])
    assert len(built) == 3  # a batch of one wraps its out1, out2 and joint


def test_search_certifies_only_both_phase_dependent_triples(monkeypatch):
    # Positivity decides theorem_consistent only where both outputs depend on
    # the phase, so only the three operators of those triples are certified.
    certified = []
    certify_many = analysis._certify_many

    def counting(families, tol):
        certified.extend(families)
        return certify_many(families, tol)

    monkeypatch.setattr(analysis, "_certify_many", counting)
    monkeypatch.setattr(search, "_BLOCK", 64)
    report = theorem_search(300, seed=20260809)
    assert 0 < report.both_phase_dependent < report.accepted
    assert len(certified) == 3 * report.both_phase_dependent
    # analyze_many still certifies every operator of every triple.
    certified.clear()
    triples = [builtin(name).payload for name in ("counterexample", "case1-example")]
    analysis.analyze_many(triples)
    assert len(certified) == 3 * len(triples)


def _reference_search(trials: int, seed: int, params: SamplerParams | None = None):
    """Per-trial ``analyze`` tally, the serial definition of ``theorem_search``."""
    counts, witnesses, failures, violations = {}, [], [], []
    accepted = both = 0
    for k in range(trials):
        try:
            t = generate_case2_candidate([seed, k], params)
        except SampleRejected:
            continue
        accepted += 1
        rep = analyze(t)
        key = rep.case.label.value if rep.case is not None else "unclassified"
        counts[key] = counts.get(key, 0) + 1
        if rep.out1_phase_dependent and rep.out2_phase_dependent:
            both += 1
        # Only hermitian-preserving, relation-satisfying triples can be inconsistent.
        if rep.out1_phase_dependent and rep.out2_phase_dependent and rep.hp_ok and rep.relation_ok:
            verdicts = (rep.positivity_out1, rep.positivity_out2, rep.positivity_joint)
            low = min((v for v in verdicts if v is not None), key=lambda v: v.min_eigenvalue)
            if low.min_eigenvalue < -1e-6:
                witnesses.append((k, low.witness_phi, low.min_eigenvalue))
            else:
                failures.append(k)
        if not rep.theorem_consistent:
            violations.append(k)
    return accepted, dict(sorted(counts.items())), both, witnesses, failures, violations


@pytest.mark.parametrize(
    "block, params",
    [pytest.param(None, None, id="None"), pytest.param(97, None, id="97")]
    + [pytest.param(None, SamplerParams(pin_stratum=name), id=name) for name in _NAMES],
)
def test_batched_search_equals_per_trial_analyze(block, params, monkeypatch):
    # Each pinned stratum is a mix of cases and dependence flags of its own.
    if block is not None:  # many blocks, with a partial one at the end
        monkeypatch.setattr(search, "_BLOCK", block)
    report = theorem_search(1000, seed=20260809, params=params)
    accepted, counts, both, witnesses, failures, violations = _reference_search(
        1000, 20260809, params
    )
    assert report.accepted == accepted and report.rejected == 1000 - accepted
    assert report.case_counts == counts
    assert report.both_phase_dependent == both
    assert report.witness_failures == failures
    assert [v.trial for v in report.violations] == violations
    assert [w.trial for w in report.witnesses] == [k for k, _, _ in witnesses]
    for w, (_, phi, lam) in zip(report.witnesses, witnesses):
        assert abs(w.lambda_min - lam) <= 1e-12 * (1.0 + abs(lam))
        assert abs(w.phi - phi) <= 1e-12 * (1.0 + abs(phi))
