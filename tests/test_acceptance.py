"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and matches the module defaults.
"""

from __future__ import annotations

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from phaseclone import (
    CaseLabel,
    FirstOrderPoly,
    NotPositiveError,
    analyze,
    builtin,
    classify,
    decompose_probability,
    deterministic_tensor_obstruction,
    document_from_operator,
    document_from_triple,
    exact_div,
    expand,
    factorize,
    has_second_order,
    is_hermitian_preserving,
    min_eigenvalue_profile,
    mul,
    normalized_output,
    parse_pmap,
    serialize_pmap,
    swap_systems,
    tensor,
    theorem_search,
    trace_poly,
    validate_triple,
)
from phaseclone.catalog import NAMES
from phaseclone.cli import main
from phaseclone.operators import UncorrelatedTriple
from helpers import random_first_order, random_hp_operator

SQRT3 = math.sqrt(3.0)


@contextmanager
def criterion(num: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {num} ({label}): FAIL")
        raise
    print(f"acceptance {num} ({label}): PASS [{time.perf_counter() - start:.2f}s]")


def test_c1_counterexample_reproduction():
    with criterion(1, "counterexample reproduction"):
        start = time.perf_counter()
        t = builtin("counterexample").payload
        report = analyze(t, 1e-9)
        assert report.hp_joint and report.hp_out1 and report.hp_out2
        assert report.relation_ok
        assert report.relation.max_residual < 1e-12
        assert report.case.label is CaseLabel.CASE2
        assert report.out1_phase_dependent and report.out2_phase_dependent
        assert not report.all_positive
        assert not report.positivity_out1.positive

        phis, lams = min_eigenvalue_profile(t.out1, 64)
        phi0, lam0 = phis[0], lams[0]
        assert phi0 == 0.0
        oracle = np.linalg.eigvalsh(np.array([[0.5, 2.0], [2.0, 0.5]]))[0]
        assert abs(lam0 - oracle) <= 1e-9
        assert abs(lam0 - (-1.5)) <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_c2_case1_example():
    with criterion(2, "case 1 example"):
        start = time.perf_counter()
        t = builtin("case1-example").payload
        assert classify(t).label is CaseLabel.CASE1

        P = trace_poly(t.out1)
        phis = np.arange(4096) * (2.0 * math.pi / 4096)
        worst = max(
            np.max(np.abs(normalized_output(t.out1, P, float(phi)) - 0.5 * np.eye(2)))
            for phi in phis
        )
        assert worst < 1e-9

        report = analyze(t, 1e-9)
        for verdict in (
            report.positivity_joint,
            report.positivity_out1,
            report.positivity_out2,
        ):
            assert verdict.positive
            assert verdict.min_eigenvalue >= -1e-9

        dec = decompose_probability(P)
        assert abs(dec.r - (2.0 + SQRT3)) <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_c3_case3_example():
    with criterion(3, "case 3 by system swap"):
        swapped = swap_systems(builtin("case1-example").payload)
        report = analyze(swapped, 1e-9)
        assert report.case.label is CaseLabel.CASE3
        assert report.out2_phase_dependent is False
        assert report.out1_phase_dependent is True
        assert report.theorem_consistent


def test_c4_factorization_suite():
    with criterion(4, "factorization suite, 10^4 random polynomials"):
        # CPU time of this process: wall time also counts what other processes take.
        start = time.process_time()
        rng = np.random.default_rng(20260809)
        phis = np.arange(64) * (2.0 * math.pi / 64)
        basis = np.stack([np.exp(1j * phis), np.exp(-1j * phis), np.ones(64)], axis=1)

        for _ in range(10_000):
            p = random_first_order(rng)
            coeffs = np.array([p.a, p.b, p.c])

            q = expand(factorize(p))
            vals_p = basis @ coeffs
            vals_q = basis @ np.array([q.a, q.b, q.c])
            ref = 1.0 + np.max(np.abs(vals_p))
            assert np.max(np.abs(vals_p - vals_q)) <= 1e-9 * ref

            k = rng.uniform(0.25, 4.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            fa, fb = factorize(p), factorize(k * p)
            assert abs(fa.w0 - fb.w0) <= 1e-7 * (1.0 + abs(fa.w0))
            assert abs(fa.w1 - fb.w1) <= 1e-7 * (1.0 + abs(fa.w1))

            d = random_first_order(rng)
            got = FirstOrderPoly(*exact_div(mul(p.coeffs, d.coeffs), d.coeffs, 1e-10))
            assert got.distance(p) <= 1e-10 * (1.0 + p.max_abs())

        elapsed = time.process_time() - start
        assert elapsed < 5.0, f"suite took {elapsed:.2f} s of CPU time"


def test_c5_probability_positivity_equivalence():
    with criterion(5, "probability positivity vs grid oracle, 10^4 samples"):
        rng = np.random.default_rng(5150)
        phis = np.arange(4096) * (2.0 * math.pi / 4096)
        cosg, sing = np.cos(phis), np.sin(phis)

        checked = 0
        while checked < 10_000:
            alpha = rng.uniform(0.05, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            ratio = rng.uniform(0.0, 4.5)
            if abs(ratio - 2.0) < 1e-6:
                # Inside the boundary band a 4096-point grid cannot resolve
                # the sign of the true minimum; the band itself is exercised
                # by the explicit probes below.
                continue
            P = FirstOrderPoly(alpha, alpha.conjugate(), ratio * abs(alpha))
            grid_min = (
                2.0 * (alpha.real * cosg - alpha.imag * sing) + P.c.real
            ).min()
            try:
                decompose_probability(P, 1e-9)
                ok = True
            except NotPositiveError:
                ok = False
            assert ok == (grid_min >= -1e-9), (ratio, grid_min)
            checked += 1

        # boundary probes at ratio = 2 +- 5e-10 (inside the +-1e-9 band):
        # the decomposition accepts both and the exact minimum stays above
        # the positivity tolerance.
        for eps in (5e-10, -5e-10):
            P = FirstOrderPoly(0.5, 0.5, 1.0 + eps)
            dec = decompose_probability(P, 1e-9)
            assert dec.r >= 1.0
            exact_min = P.c.real - 2 * abs(P.a)
            assert exact_min >= -1e-9
        with pytest.raises(NotPositiveError):
            decompose_probability(FirstOrderPoly(0.5, 0.5, 1.0 - 1e-7), 1e-9)


def test_c6_theorem_search():
    with criterion(6, "theorem search, 10^4 structured candidates"):
        start = time.perf_counter()
        report = theorem_search(10_000, seed=20260809)
        elapsed = time.perf_counter() - start

        assert not report.violations
        assert not report.witness_failures
        assert report.acceptance_rate > 0.5
        assert report.both_phase_dependent == len(report.witnesses)
        assert report.both_phase_dependent > 0
        for w in report.witnesses:
            assert w.lambda_min < -1e-6
        assert elapsed < 60.0, f"search took {elapsed:.2f}s"
        # Regression pin: the tallies this seed has always produced.
        assert (report.accepted, report.rejected) == (8996, 1004)
        assert report.case_counts == {"Case 1": 1562, "Case 2": 4036, "Case 3": 3398}
        assert report.both_phase_dependent == 1807


def test_c7_deterministic_obstruction():
    with criterion(7, "deterministic second-order obstruction"):
        rng = np.random.default_rng(777)
        for _ in range(1_000):
            o1 = random_hp_operator(rng)
            o2 = random_hp_operator(rng)
            prod = tensor(o1, o2)
            top = np.abs(prod[[0, 4]]).max()
            assert top > 1e-10
            assert deterministic_tensor_obstruction(o1, o2, 1e-10)

        footnote = builtin("footnote-linear-only").payload
        rep = validate_triple(footnote, 1e-12)
        assert rep.all_ok
        assert not has_second_order(tensor(footnote.out1, footnote.out2), 1e-10)
        assert not is_hermitian_preserving(footnote.out1)
        assert not is_hermitian_preserving(footnote.joint)


def test_c8_cli_contract(tmp_path):
    with criterion(8, "CLI contract"):
        # byte-identical serialize/parse/serialize round trip, all entries
        for name in NAMES:
            entry = builtin(name)
            if isinstance(entry.payload, UncorrelatedTriple):
                doc = document_from_triple(entry.payload)
            else:
                doc = document_from_operator(entry.name, entry.payload)
            text = serialize_pmap(doc)
            assert serialize_pmap(parse_pmap(text)) == text

        # exit codes: counterexample fails positivity, the others pass
        codes = {}
        for name in ("counterexample", "case1-example", "projective-discard"):
            path = tmp_path / f"{name}.pmap"
            assert main(["catalog", name, "--out", str(path)]) == 0
            codes[name] = main(["check", str(path)])
        assert codes == {
            "counterexample": 1,
            "case1-example": 0,
            "projective-discard": 0,
        }

        # profile emits exactly the requested number of data rows
        csv_path = tmp_path / "profile.csv"
        src = tmp_path / "counterexample.pmap"
        assert main(["profile", str(src), "--samples", "512", "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "phi,P,lmin_out1,lmin_out2,lmin_joint"
        assert len(lines) - 1 == 512
        # the P column is real for hermitian-preserving inputs: check the
        # trace polynomial itself at every emitted phase
        t = builtin("counterexample").payload
        P = trace_poly(t.out1)
        for row in lines[1:]:
            phi_text, p_text, *_ = row.split(",")
            value = P.eval(float(phi_text))
            assert abs(value.imag) <= 1e-10
            assert float(p_text) == pytest.approx(value.real, abs=1e-15)
