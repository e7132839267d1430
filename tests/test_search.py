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
from phaseclone import analysis, operators, search
from phaseclone.analysis import CaseLabel
from phaseclone.operators import DEFAULT_TOL

from helpers import fp, max_coeff_diff, mixed_counterexample


def test_assemble_reproduces_counterexample():
    # The published counterexample is a family member: rebuilding its joint
    # block from the marginals gives back exactly the stored matrix.
    ref = builtin("counterexample").payload
    rebuilt = assemble_triple(ref.out1, ref.out2)
    assert max_coeff_diff(rebuilt.joint, ref.joint) == 0
    rep = analyze(rebuilt)
    assert rep.case is CaseLabel.CASE2
    assert not rep.positivity_out1.positive
    assert rep.positivity_out1.min_eigenvalue <= -1.5 + 1e-6


def test_assemble_rejects_trace_mismatch():
    out1 = builtin("counterexample").payload.out1
    out2 = builtin("case1-example").payload.out2
    with pytest.raises(SampleRejected):
        assemble_triple(out1, out2)


def test_assemble_rejection_names_the_entry():
    params = SamplerParams(strata=(("reject", 1.0),))
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


def test_proportional_psd_outputs_are_positive_and_constant():
    # What the proportional stratum draws on its PSD side of the coin: two
    # outputs Gamma * P with a unit-trace PSD Gamma each.
    rng = np.random.default_rng(21)
    for _ in range(10):
        theta, alpha_abs, r = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 2.0), rng.uniform(1.0, 4.0)
        alpha = alpha_abs * complex(math.cos(theta), -math.sin(theta))
        P = fp(alpha, alpha.conjugate(), alpha_abs * (r + 1 / r))
        outs = []
        for _ in range(2):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = g @ g.conj().T
            outs.append(PhaseOperator.from_rows([[complex(x) * P for x in row] for row in h / np.trace(h).real]))
        rep = analyze(assemble_triple(*outs))
        assert rep.hp_ok and rep.relation_ok
        assert rep.all_positive
        assert rep.out1_phase_dependent is False
        assert rep.out2_phase_dependent is False


def test_reject_stratum_always_rejects():
    params = SamplerParams(strata=(("reject", 1.0),))
    for k in range(50):
        with pytest.raises(SampleRejected):
            generate_case2_candidate([33, k], params)


def test_pinned_values_flow_through():
    params = SamplerParams(
        alpha_abs_range=(0.25, 0.25), theta_range=(0.0, 0.0), r_range=(1.0, 1.0),
        strata=(("wild", 1.0),),
    )
    t = generate_case2_candidate(2, params)
    from phaseclone import trace_poly

    P = trace_poly(t.out1)
    assert P.distance(fp(0.25, 0.25, 0.5)) < 1e-12


def test_wild_phase_dependent_samples_have_strong_witnesses():
    params = SamplerParams(strata=(("wild", 1.0),))
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


@pytest.mark.parametrize("r", [1 + 1e-9, 2.0, 1.2])
def test_zero_width_r_range_leaves_the_wild_stratum_at_r_1(r):
    # r_range feeds only the strata built on a free r, so the wild stratum
    # keeps the r = 1 its entries are built for and every triple classifies;
    # the reject stratum keeps its own [1.5, 4), even under an r_range below 1.5.
    report = theorem_search(2000, seed=5, params=SamplerParams(r_range=(r, r)))
    assert report.ok
    assert report.accepted == 1794 and "unclassified" not in report.case_counts
    assert report.witness_failures == [] and report.violations == []
    assert report.both_phase_dependent == len(report.witnesses) == 374


def test_search_asks_witnesses_only_where_the_theorem_applies(monkeypatch):
    # On odd trials out1 becomes D out1 D^-1, D = diag(1, 2): its trace,
    # entry roots and phase dependence hold, and so does the relation with
    # the joint assembled from it, but a nonzero off-diagonal pair is no
    # longer conjugate.  Such triples cannot contradict the theorem, so no
    # witness is asked of them; they stay unclassified, so the search is not ok.
    draw = search._draw
    skew = np.array([[1.0, 2.0], [0.5, 1.0]])

    def skewed(seed, params):
        out1, out2 = draw(seed, params)
        return (out1 * skew if seed[1] % 2 else out1), out2

    plain = theorem_search(2000, seed=5)
    monkeypatch.setattr(search, "_draw", skewed)
    report = theorem_search(2000, seed=5)
    assert plain.ok and not report.ok
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
    assert rep.case is CaseLabel.CASE3
    assert rep.theorem_consistent

    back = parse_pmap(serialize_pmap(document_from_triple(t))).triple()
    assert diff(back.joint, t.joint) == 0


def test_search_smallest_run_forced_constant_branch():
    params = SamplerParams(strata=(("proportional", 1.0),))
    r = theorem_search(1, seed=4, params=params)
    assert r.accepted == 1 and r.rejected == 0
    assert r.both_phase_dependent == 0
    assert not r.violations and not r.witness_failures


def test_search_without_a_classified_triple_is_not_ok():
    clean = theorem_search(20, seed=1)
    assert clean.ok and clean.accepted > clean.case_counts.get("unclassified", 0)
    # Every draw of the reject stratum is rejected: nothing was tested.
    rejected = theorem_search(20, seed=1, params=SamplerParams(strata=(("reject", 1.0),)))
    assert rejected.accepted == 0 and not rejected.violations and not rejected.witness_failures
    assert not rejected.ok
    # Accepted triples that were all left unclassified test nothing either.
    unclassified = dataclasses.replace(clean, case_counts={"unclassified": clean.accepted})
    assert not unclassified.ok


@pytest.mark.parametrize("tol, unclassified", [(1e-9, 0), (1e-13, 0), (1e-15, 112)])
def test_search_leaving_an_accepted_triple_unclassified_is_not_ok(tol, unclassified):
    # Assembly judges the relation at DEFAULT_TOL; far below it the stage
    # fails some of the search's own assembled triples, which it then cannot
    # classify.  A search that leaves them untested is not ok.
    report = theorem_search(500, seed=3, tol=tol)
    assert report.accepted == 456 and not report.violations and not report.witness_failures
    assert report.case_counts.get("unclassified", 0) == unclassified
    assert report.ok is (unclassified == 0)
    one = dataclasses.replace(report, case_counts={**report.case_counts, "unclassified": 1})
    assert not one.ok


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kwargs", [{"r_range": (1.0, 1e300)}, {"alpha_abs_range": (1e300, 1e300)}])
def test_search_refuses_the_draws_phase_operator_refuses(kwargs):
    # A block's stacked draws meet PhaseOperator's bound on coefficient parts
    # before any arithmetic on them: no overflow, and no verdict from inf/NaN.
    params = SamplerParams(**kwargs)
    with pytest.raises(ValueError) as one:
        generate_case2_candidate([1, 3], params)
    with pytest.raises(ValueError) as block:
        theorem_search(200, seed=1, params=params)
    message = f"coefficient parts must be numbers of magnitude <= {operators.MAX_COEFF:g}"
    assert str(block.value) == str(one.value) == message


def test_search_rejects_bad_trials():
    for trials in (0, -2, 10.5, "3", None, 1.0, 2.5, 4.0, True, False, "8"):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            theorem_search(trials)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, 2.5, 4.0, True, False, "8"])
def test_search_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        theorem_search(5, seed=seed)


def test_search_counts_rejection_reasons():
    report = theorem_search(1500, seed=20260809)
    assert sum(report.rejection_reasons.values()) == report.rejected
    # The reject stratum's deficient off-diagonals: the first product entry
    # in row-major order that does not divide is always (1, 2).
    assert report.rejection_reasons == {"product entry (1, 2) is not divisible by the trace": 150}
    vanishing = theorem_search(20, seed=20260809, params=_unvalidated(alpha_abs_range=(0.0, 0.0)))
    assert vanishing.rejection_reasons == {"trace polynomial vanishes": 20}


def test_search_assembles_at_the_default_tolerance():
    # The division by the trace runs at DEFAULT_TOL whatever the search's tol,
    # so acceptance and the rejection reasons do not move with tol.  Assembled
    # at tol itself, 0.5 would name other entries and 1e-15 reject half the draws.
    tols = (DEFAULT_TOL, 1e-4, 1e-13, 0.5, 1e-15)
    reports = [theorem_search(500, seed=3, tol=tol) for tol in tols]
    assert [(r.accepted, r.rejected) for r in reports] == [(456, 44)] * len(tols)
    reason = {"product entry (1, 2) is not divisible by the trace": 44}
    assert [r.rejection_reasons for r in reports] == [reason] * len(tols)


_NO_REJECT = tuple((name, 0.0 if name == "reject" else w) for name, w in search._STRATA)


@pytest.mark.parametrize(
    "kwargs", [{"strata": (("case2", 1.0),)}, {"strata": _NO_REJECT}], ids=["pinned", "unweighted"]
)
def test_short_r_range_is_valid_where_the_reject_stratum_is_never_drawn(kwargs):
    # The other strata draw r from any valid r_range, 1 <= r < 1.5 included.
    report = theorem_search(50, seed=1, params=SamplerParams(r_range=(1.0, 1.2), **kwargs))
    assert report.accepted == 50


def test_unknown_stratum_rejected():
    # Each stratum name must be one _draw builds: an unknown one would fall
    # through to the reject stratum on every trial.
    with pytest.raises(ValueError):
        generate_case2_candidate(1, SamplerParams(strata=(("nope", 1.0),)))
    for strata in ((("foo", 1.0),), (("case1", 1.0), ("foo", 1.0)), (("foo", 0.0), ("wild", 1.0))):
        with pytest.raises(ValueError, match="unknown stratum 'foo'"):
            SamplerParams(strata=strata)


def test_zero_width_ranges_and_one_stratum_draw_nothing():
    # A zero-width range gives its value and a one-entry strata table its
    # stratum, both without moving the stream; wider ones draw one double.
    rng = np.random.default_rng(11)
    state = rng.bit_generator.state
    assert search._ranged(rng, 1.25, 1.25) == 1.25
    assert SamplerParams(strata=(("wild", 1.0),))._stratum(rng) == "wild"
    assert rng.bit_generator.state == state
    ours, numpys = np.random.default_rng(11), np.random.default_rng(11)
    assert search._ranged(ours, 1.0, 4.0) == numpys.uniform(1.0, 4.0)
    assert SamplerParams()._stratum(ours) in _NAMES
    numpys.random()
    assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, 1.0, 2.0, 1e308])
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
        ({"strata": (("nope", 1.0),)}, "unknown stratum"),
        ({"strata": (("case1", 1.0), ("foo", 1.0))}, "unknown stratum"),
        ({"r_range": (1.0 - 1e-12, 1.0 - 1e-12)}, "r_range must be finite and >= 1"),
        ({"r_range": (-2.0, -2.0)}, "r_range must be finite and >= 1"),
        ({"r_range": (math.nan, math.nan)}, "r_range must be finite and >= 1"),
        ({"r_range": (0.0, 0.0)}, "r_range must be finite and >= 1"),
        ({"r_range": (0.5, 2.0)}, "r_range must be finite and >= 1"),
        ({"r_range": (1.0, math.inf)}, "r_range must be finite and >= 1"),
        ({"r_range": (3.0, 2.0)}, "low <= high"),
        ({"alpha_abs_range": (-1.0, -1.0)}, "alpha_abs_range must be finite and > 0"),
        ({"alpha_abs_range": (0.0, 0.0)}, "alpha_abs_range must be finite and > 0"),
        ({"alpha_abs_range": (0.0, 1.0)}, "alpha_abs_range must be finite and > 0"),
        ({"alpha_abs_range": (math.nan, 1.0)}, "alpha_abs_range must be finite and > 0"),
        ({"alpha_abs_range": (2.0, 1.0)}, "low <= high"),
        ({"theta_range": (0.0, math.inf)}, "theta_range must be finite"),
        ({"theta_range": (math.nan, math.nan)}, "theta_range must be finite"),
        ({"theta_range": (1.0, 0.0)}, "low <= high"),
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
    + [SamplerParams(strata=((name, 1.0),)) for name in _NAMES]
    + [_unvalidated(alpha_abs_range=(0.0, 0.0))],
    ids=["default", *_NAMES, "vanishing-trace"],
)
def test_batched_assembly_equals_per_trial_candidates(params):
    # Blocks of one stacked draw and assembly give, trial for trial, the
    # coefficients and rejection messages of generate_case2_candidate.
    seed = 20260809
    for start in range(0, 150, 50):
        block = range(start, start + 50)
        outputs = np.array([search._draw([seed, k], params) for k in block])
        stacks, kept, rejected, _ = search._assemble(*outputs.swapaxes(0, 1), DEFAULT_TOL)
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


@pytest.mark.parametrize(
    "params",
    [SamplerParams()]
    + [SamplerParams(strata=((name, 1.0),)) for name in _NAMES]
    + [_unvalidated(alpha_abs_range=(0.0, 0.0))],
    ids=["default", *_NAMES, "vanishing-trace"],
)
def test_the_division_remainder_gives_the_relation_verdicts(params):
    # A search block's relation residual is its division remainder, and
    # operators._relation does not form the product again; every verdict
    # equals _relation's recomputed on the same assembled stacks.  numpy may
    # round a complex product with or without a fused multiply-add by memory
    # layout, which moves a residual by a few units in the last place of the
    # products, not of the residual; so the bound is 8 eps times the scale the
    # relation judges in, against a tolerance of 1e-9 times it.  Measured: the
    # residuals agree bit for bit on all 7,085 accepted members here, and
    # reach 23 eps times that scale.
    bound = 8 * np.finfo(float).eps
    for seed in (20260809, 7):
        for start in range(0, 600, 200):
            outputs = np.array([search._draw([seed, k], params) for k in range(start, start + 200)])
            stacks, kept, _, remainder = search._assemble(*outputs.swapaxes(0, 1), DEFAULT_TOL)
            fed = operators._relation(*stacks, DEFAULT_TOL, remainder)
            full = operators._relation(*stacks, DEFAULT_TOL)
            assert fed[-1] is None and full[-1].shape[1] == len(kept)
            for i in (0, 1, 2, 3, 5, 6):  # P, sizes, nonzero, traces_equal, holds, partial_ok
                assert np.array_equal(fed[i], full[i]), i
            scale = full[1][1:].max(axis=0)
            assert (np.abs(fed[4] - full[4]) <= bound * scale).all()
            v = analysis._verdicts(*stacks, DEFAULT_TOL, remainder)
            assert np.array_equal(v.relation_ok, analysis._verdicts(*stacks, DEFAULT_TOL).relation_ok)
            if params.strata != (("reject", 1.0),) and params.alpha_abs_range != (0.0, 0.0):
                assert v.relation_ok.all() and len(kept) > 0


def test_a_search_block_forms_its_tensor_product_once(monkeypatch):
    # Assembly divides out1 (x) out2 by P and the relation reads the division
    # remainder: one Kronecker product per block, not a second for the relation.
    calls = []
    tensor = operators._tensor
    counting = lambda c1, c2: calls.append(c1.shape) or tensor(c1, c2)  # noqa: E731
    for module in (operators, search):
        monkeypatch.setattr(module, "_tensor", counting)
    theorem_search(10, seed=20260809)
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(search, "_BLOCK", 64)
    report = theorem_search(300, seed=7)
    assert len(calls) == 5 and report.accepted > 0


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


def _counting_certificates(monkeypatch) -> list:
    """The families ``analysis._certify_many`` is handed from now on, in call order."""
    certified = []
    certify_many = analysis._certify_many

    def counting(families, tol):
        certified.extend(families)
        return certify_many(families, tol)

    monkeypatch.setattr(analysis, "_certify_many", counting)
    return certified


def test_search_certifies_only_both_phase_dependent_triples(monkeypatch):
    # Positivity decides theorem_consistent only where both outputs depend on
    # the phase, so only those triples are certified, and only their
    # outputs: where the relation holds the joint's verdict is theirs.
    certified = _counting_certificates(monkeypatch)
    monkeypatch.setattr(search, "_BLOCK", 64)
    report = theorem_search(300, seed=20260809)
    assert 0 < report.both_phase_dependent < report.accepted
    assert len(certified) == 2 * report.both_phase_dependent
    assert [f.shape[-1] for f in certified] == [2] * len(certified)  # no 4 x 4 joint
    # analyze_many still certifies every operator of every triple.
    certified.clear()
    triples = [builtin(name).payload for name in ("counterexample", "case1-example")]
    analysis.analyze_many(triples)
    assert len(certified) == 3 * len(triples)


@pytest.mark.parametrize(
    "eps, tol, witness",
    [(1e-4, 1e-9, False), (7e-4, 1e-9, False), (1e-3, 1e-9, True), (1e-3, 1e-4, True)],
)
def test_search_decides_the_mixed_counterexample_from_its_outputs(eps, tol, witness, monkeypatch):
    # The mixed counterexample's outputs are at -2 eps^2, its joint at
    # -4 eps^2.  Only the outputs are certified and only they are witnesses:
    # at eps = 7e-4 the joint alone is below -1e-6, a witness failure.  At
    # tol = 1e-4 both outputs count as positive, and lemma L2b (each
    # entry's root multiplicity at P's double root) keeps it consistent.
    outputs = mixed_counterexample(eps)
    t = assemble_triple(*(PhaseOperator(c) for c in outputs))
    rep = analyze(t, tol)
    assert rep.hp_ok and rep.relation_ok and rep.theorem_consistent
    assert rep.out1_phase_dependent and rep.out2_phase_dependent
    assert rep.probability.r == 1.0
    low = rep.positivity_out1
    assert rep.positivity_out2.min_eigenvalue == low.min_eigenvalue
    assert (low.min_eigenvalue < search.WITNESS_LEVEL) is witness
    assert (rep.positivity_joint.min_eigenvalue < search.WITNESS_LEVEL) is (eps > 1e-4)
    s = analysis._structure(t.joint.coeffs[None], t.out1.coeffs[None], t.out2.coeffs[None], tol)
    assert s.nonpositive.tolist() == [True]
    assert low.positive is (tol == 1e-4)
    certified = _counting_certificates(monkeypatch)
    monkeypatch.setattr(search, "_draw", lambda seed, params: outputs)
    report = theorem_search(5, seed=1, tol=tol)
    assert report.accepted == report.both_phase_dependent == 5
    assert [f.shape[-1] for f in certified] == [2] * 10
    assert report.violations == []
    if witness:
        assert report.witness_failures == []
        assert report.witnesses == [
            search.WitnessRecord(k, low.witness_phi, low.min_eigenvalue, "out1") for k in range(5)
        ]
    else:
        assert report.witnesses == [] and report.witness_failures == list(range(5))


def _accepted(trials: int, seed: int, params: SamplerParams | None = None) -> tuple[list, list]:
    """The trial indices and triples of the accepted per-trial candidates."""
    indices, triples = [], []
    for k in range(trials):
        try:
            triples.append(generate_case2_candidate([seed, k], params))
        except SampleRejected:
            continue
        indices.append(k)
    return indices, triples


def _least(rep, roles) -> tuple:
    """The least ``min_eigenvalue`` of a report's verdicts in ``roles``, the first on ties."""
    verdicts = [(getattr(rep, f"positivity_{role}"), role) for role in roles]
    low, role = min(verdicts, key=lambda vr: vr[0].min_eigenvalue)
    return low.min_eigenvalue, low.witness_phi, role


def _reference_search(trials: int, seed: int, params: SamplerParams | None = None):
    """Per-trial ``analyze`` tally, the serial definition of ``theorem_search``.

    The witness of a triple is its least output minimum, out1 on ties.
    """
    counts, witnesses, failures, violations = {}, [], [], []
    both = 0
    indices, triples = _accepted(trials, seed, params)
    for k, t in zip(indices, triples):
        rep = analyze(t)
        key = rep.case.value if rep.case is not None else "unclassified"
        counts[key] = counts.get(key, 0) + 1
        if rep.out1_phase_dependent and rep.out2_phase_dependent:
            both += 1
        # Only hermitian-preserving, relation-satisfying triples can be inconsistent.
        if rep.out1_phase_dependent and rep.out2_phase_dependent and rep.hp_ok and rep.relation_ok:
            lam, phi, role = _least(rep, ("out1", "out2"))
            if lam < -1e-6:
                witnesses.append((k, phi, lam, role))
            else:
                failures.append(k)
        if not rep.theorem_consistent:
            violations.append(k)
    counts = dict(sorted(counts.items()))
    return len(triples), counts, both, witnesses, failures, violations


@pytest.mark.parametrize(
    "block, params",
    [pytest.param(None, None, id="None"), pytest.param(97, None, id="97")]
    + [pytest.param(None, SamplerParams(strata=((name, 1.0),)), id=name) for name in _NAMES],
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
    assert [(w.trial, w.operator) for w in report.witnesses] == [(k, r) for k, _, _, r in witnesses]
    for w, (_, phi, lam, _) in zip(report.witnesses, witnesses):
        assert abs(w.lambda_min - lam) <= 1e-12 * (1.0 + abs(lam))
        assert abs(w.phi - phi) <= 1e-12 * (1.0 + abs(phi))


@pytest.mark.parametrize("seed", [20260809, 7, 424242])
def test_outputs_first_witnesses_keep_every_count(seed):
    # Against the least minimum of all three operators of every decided
    # triple (analyze_many certifies them all), a witness from the outputs
    # alone changes no count, witness trial, failure or violation.  A
    # witness can only rise: it is the least of fewer minima.
    report = theorem_search(3000, seed=seed)
    indices, triples = _accepted(3000, seed)
    reports = analysis.analyze_many(triples)
    counts, witnesses, failures, violations = {}, [], [], []
    for k, rep in zip(indices, reports):
        key = rep.case.value if rep.case is not None else "unclassified"
        counts[key] = counts.get(key, 0) + 1
        if rep.out1_phase_dependent and rep.out2_phase_dependent and rep.hp_ok and rep.relation_ok:
            lam, _, _ = _least(rep, ("out1", "out2", "joint"))
            (witnesses if lam < -1e-6 else failures).append((k, lam))
        if not rep.theorem_consistent:
            violations.append(k)
    assert report.accepted == len(triples)
    assert report.case_counts == dict(sorted(counts.items()))
    assert report.both_phase_dependent == len(witnesses) + len(failures) > 0
    assert report.witness_failures == [k for k, _ in failures] == []
    assert [v.trial for v in report.violations] == violations == []
    assert [w.trial for w in report.witnesses] == [k for k, _ in witnesses]
    for w, (_, lam) in zip(report.witnesses, witnesses):
        assert w.lambda_min >= lam
        assert w.operator in ("out1", "out2")
    assert any(w.lambda_min > lam for w, (_, lam) in zip(report.witnesses, witnesses))


def test_uniform_draws_what_generator_uniform_draws():
    # The sampler's ranges, each drawn bit for bit as Generator.uniform draws it.
    ranges = [(0.1, 2.0), (1.0, 4.0), (1.5, 4.0), (0.0, 2.0 * math.pi), (0.7, math.pi)]
    ranges += [(1.05, 1.5), (0.1, 0.9), (0.2, 1.5), (0.2, 2.0), (1.5, 1.5)]
    for n, (lo, hi) in enumerate(ranges):
        ours, numpys = np.random.default_rng([11, n]), np.random.default_rng([11, n])
        for _ in range(1500):
            assert search._uniform(ours, lo, hi) == numpys.uniform(lo, hi)
