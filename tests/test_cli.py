"""CLI contract: exit codes, output formats, round trips."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseclone
from phaseclone import (
    PhaseOperator,
    SampleRejected,
    UncorrelatedTriple,
    assemble_triple,
    builtin,
    document_from_triple,
    generate_case2_candidate,
    parse_pmap,
    serialize_pmap,
    trace_poly,
)
from phaseclone import analysis, cli, positivity
from phaseclone.cli import main
from phaseclone.positivity import DEFAULT_TOL, _basis, _sweep, decompose_probability
from phaseclone.search import ViolationRecord
from phaseclone.operators import _relation, hermitian_part

from helpers import max_coeff_diff, mixed_counterexample


def _write_entry(tmp_path, name, q=0.5):
    path = tmp_path / f"{name}.pmap"
    code = main(["catalog", name, "--q", str(q), "--out", str(path)])
    assert code == 0
    return path


def test_check_exit_codes(tmp_path, capsys):
    expectations = {
        "counterexample": 1,
        "case1-example": 0,
        "projective-discard": 0,
        "case3-example": 0,
        "footnote-linear-only": 1,
    }
    for name, expected in expectations.items():
        path = _write_entry(tmp_path, name)
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == expected, f"{name}: {out}"
        assert f"result: {'PASS' if expected == 0 else 'FAIL'}" in out


def test_check_counterexample_report_content(tmp_path, capsys):
    path = _write_entry(tmp_path, "counterexample")
    code = main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "relation_holds: true" in out
    assert "hermitian_preserving: joint=true out1=true out2=true" in out
    assert "positivity_out1: false" in out


@pytest.mark.parametrize("eps", [1e-12, 1e-14])
def test_check_decides_once_whether_p_vanishes(tmp_path, capsys, eps):
    # out1 = out2 = diag(P', -1), so P = P' - 1 = (eps / 4, eps / 4, 2 eps), next
    # to a joint 100 times the outputs.  P is zero iff it is negligible next to
    # out1: at eps = 1e-12 it is not, at 1e-14 it is.  The relation line, the
    # probability line and validate_triple read that one decision.
    out = PhaseOperator.from_rows([[(eps / 4, eps / 4, 1 + 2 * eps), 0], [0, -1]])
    joint = np.array([0, 0, 100]).reshape(3, 1, 1) * np.eye(4)
    joint = phaseclone.JointPhaseOperator(joint, dim1=2, dim2=2)
    t = UncorrelatedTriple(joint, out, out)
    path = tmp_path / "vanishing.pmap"
    path.write_text(serialize_pmap(document_from_triple(t)))
    assert main(["check", str(path)]) == 1
    printed = capsys.readouterr().out
    zero = phaseclone.analyze(t).probability == "zero-probability"
    assert zero == (eps < 1e-13)
    assert ("relation: unavailable (zero probability)" in printed) == zero
    assert ("probability: zero-probability" in printed) == zero
    try:
        phaseclone.validate_triple(t)
    except phaseclone.ZeroProbabilityError:
        assert zero
    else:
        assert not zero


def test_check_on_single_operator_is_input_error(tmp_path, capsys):
    path = _write_entry(tmp_path, "phase-state")
    code = main(["check", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_classify_case1_output(tmp_path, capsys):
    path = _write_entry(tmp_path, "case1-example")
    code = main(["classify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("Case 1; out1 phase-independent")
    assert "theorem_consistent: true" in out


def test_classify_counterexample_output(tmp_path, capsys):
    path = _write_entry(tmp_path, "counterexample")
    code = main(["classify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("Case 2; out1 phase-dependent; out2 phase-dependent")


def test_profile_rows_and_real_probability(tmp_path):
    path = _write_entry(tmp_path, "counterexample")
    out_csv = tmp_path / "profile.csv"
    code = main(["profile", str(path), "--samples", "512", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "phi,P,lmin_out1,lmin_out2,lmin_joint"
    assert len(lines) == 513
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[2]) == pytest.approx(-1.5)


def test_profile_requires_hermiticity(tmp_path, capsys):
    path = _write_entry(tmp_path, "footnote-linear-only")
    code = main(["profile", str(path), "--samples", "8", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # The output is opened only after every sweep succeeded: no empty or partial CSV.
    assert not (tmp_path / "x.csv").exists()


def test_factor_counterexample_entry(tmp_path, capsys):
    path = _write_entry(tmp_path, "counterexample")
    code = main(["factor", str(path), "--entry", "0", "0", "--block", "lambda1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "full" in out and "w0=1" in out and "w1=1" in out


def test_factor_zero_entry(tmp_path, capsys):
    path = _write_entry(tmp_path, "case1-example")
    code = main(["factor", str(path), "--entry", "0", "1", "--block", "lambda1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "zero polynomial" in out


def test_factor_block_selection(tmp_path, capsys):
    # Several blocks: --block names one, else lambda1 is the default.
    path = _write_entry(tmp_path, "counterexample")
    assert main(["factor", str(path), "--entry", "0", "0"]) == 0
    assert capsys.readouterr().out.startswith("entry (0, 0) of lambda1: full ")
    assert main(["factor", str(path), "--block", "nope"]) == 2
    assert capsys.readouterr().err == f"error: no block named 'nope' in {path}\n"
    two = tmp_path / "two.pmap"
    two.write_text("pmap a\ndim 1\nend\n\npmap b\ndim 1\nend\n")
    assert main(["factor", str(two)]) == 2
    assert capsys.readouterr().err == "error: ambiguous document; select a block with --block\n"


@pytest.mark.parametrize("entry", [("2", "0"), ("0", "2"), ("-1", "0"), ("0", "-1")])
def test_factor_entry_out_of_range(tmp_path, capsys, entry):
    path = _write_entry(tmp_path, "counterexample")
    assert main(["factor", str(path), "--entry", *entry, "--block", "lambda1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: entry ({entry[0]}, {entry[1]}) out of range for dim 2\n"


@pytest.mark.parametrize(
    "coeffs, line",
    [("0+0i 2+0i 1+0i", "affine scale=1+0j w=2+0j"), ("0+0i 0+3i 0+0i", "pure-negative b=0+3j")],
)
def test_factor_affine_and_pure_negative_lines(tmp_path, capsys, coeffs, line):
    path = tmp_path / "one.pmap"
    path.write_text(f"pmap lambda1\ndim 1\nentry 0 0 {coeffs}\nend\n")
    assert main(["factor", str(path)]) == 0
    assert capsys.readouterr().out == f"entry (0, 0) of lambda1: {line}\n"


def test_classify_prints_the_probability_tag_and_unknown_dependence(tmp_path, capsys):
    # P = 0.25 + 0.5 cos(phi) takes negative values: no decomposition, no case.
    P = phaseclone.FirstOrderPoly(0.25, 0.25, 0.25)
    out = PhaseOperator.from_rows([[0.5 * P, 0.0], [0.0, 0.5 * P]])
    path = tmp_path / "not-positive.pmap"
    path.write_text(serialize_pmap(document_from_triple(assemble_triple(out, out))))
    assert main(["classify", str(path)]) == 1
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0] == "unclassified; out1 phase-independent; out2 phase-independent"
    assert "probability: not-positive" in out_lines
    # Where P vanishes there is no projection: dependence is unknown.
    zero = PhaseOperator.zero(2)
    joint = phaseclone.JointPhaseOperator(PhaseOperator.zero(4).coeffs, dim1=2, dim2=2)
    path = tmp_path / "zero.pmap"
    path.write_text(serialize_pmap(document_from_triple(UncorrelatedTriple(joint, zero, zero))))
    assert main(["classify", str(path)]) == 1
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0] == "unclassified; out1 unknown; out2 unknown"
    assert "probability: zero-probability" in out_lines


def test_search_prints_each_violation(capsys, monkeypatch):
    report = phaseclone.theorem_search(2, seed=9)
    violations = [ViolationRecord(1, "case=Case 2, min_eig=1.000e-03")]
    patched = dataclasses.replace(report, violations=violations)
    monkeypatch.setattr(cli, "theorem_search", lambda *a, **k: patched)
    assert main(["search", "--trials", "2", "--seed", "9"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "violations: 1" in lines
    assert "violation: trial=1 case=Case 2, min_eig=1.000e-03" in lines


def test_search_small_run(capsys):
    code = main(["search", "--trials", "150", "--seed", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trials: 150" in out
    assert "violations: 0" in out
    assert "witness_failures: 0" in out
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert sum(json.loads(lines["rejection_reasons"]).values()) == int(lines["rejected"]) > 0
    keys = list(lines)
    assert keys.index("max_witness_operator") == keys.index("max_witness_lambda_min") + 1
    assert lines["max_witness_lambda_min"] == "-1.034600e+00"
    assert lines["max_witness_operator"] == "out1"


def test_search_names_the_operator_of_the_weakest_witness(capsys, monkeypatch):
    # Mixed with weight eps the counterexample's outputs sit at -2 eps^2 and
    # its joint at -4 eps^2; only outputs are witnesses.  At 7e-4 the
    # outputs stay above -1e-6 (-9.8e-7) and only the joint (-1.96e-6),
    # which the search does not certify, would reach it: each trial is a
    # witness failure.
    for eps, code, low, operator in ((1e-3, 0, "-2.000000e-06", "out1"), (7e-4, 1, "n/a", "n/a")):
        outputs = mixed_counterexample(eps)
        monkeypatch.setattr(phaseclone.search, "_draw", lambda seed, params: outputs)
        assert main(["search", "--trials", "3"]) == code
        lines = capsys.readouterr().out.splitlines()
        fields = dict(line.split(": ", 1) for line in lines)
        assert fields["max_witness_lambda_min"] == low
        assert fields["max_witness_operator"] == operator
        assert (fields["witness_failures"], fields["violations"]) == (str(3 * code), "0")
        failures = [line for line in lines if line.startswith("witness_failure:")]
        assert failures == [f"witness_failure: trial={k}" for k in range(3 * code)]


@pytest.mark.parametrize("tol, code", [("1e-9", 0), ("1e-13", 0), ("1e-15", 1)])
def test_search_exits_1_while_an_accepted_triple_is_unclassified(capsys, tol, code):
    assert main(["search", "--trials", "500", "--seed", "3", "--tol", tol]) == code
    assert ('"unclassified": 112' in capsys.readouterr().out) is (code == 1)


def test_search_without_a_witness_prints_n_a(capsys):
    main(["search", "--trials", "1", "--seed", "0"])
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["both_phase_dependent"] == "0"
    assert lines["max_witness_lambda_min"] == lines["max_witness_operator"] == "n/a"


@pytest.mark.parametrize("seed", ["-1", "abc", "1.5", "-99999999999999999999"])
def test_bad_seed_is_input_error(capsys, monkeypatch, seed):
    monkeypatch.setattr(cli, "theorem_search", lambda *a, **k: pytest.fail("search ran"))
    with pytest.raises(SystemExit) as exc:
        main(["search", "--trials", "5", "--seed", seed])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: argument --seed: seed must be an integer >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("trials", ["0", "-3", "abc", "2.5"])
def test_bad_trials_is_input_error(capsys, monkeypatch, trials):
    monkeypatch.setattr(cli, "theorem_search", lambda *a, **k: pytest.fail("search ran"))
    with pytest.raises(SystemExit) as exc:
        main(["search", "--trials", trials])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument --trials: trials must be an integer >= 1, got {trials!r}" in err
    assert "Traceback" not in err


def test_catalog_round_trip(tmp_path):
    path = _write_entry(tmp_path, "counterexample")
    doc = parse_pmap(path.read_text())
    t = doc.triple()
    ref = builtin("counterexample").payload
    assert max_coeff_diff(t.out1, ref.out1) == 0
    assert max_coeff_diff(t.joint, ref.joint) == 0
    # emitted bytes match direct serialization
    assert path.read_text() == serialize_pmap(document_from_triple(ref))


def test_catalog_unknown_name(capsys):
    code = main(["catalog", "nope"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pmap"
    bad.write_text("pmap x\ndim 2\nentry 0 9 1+0i 0+0i 0+0i\nend\n")
    code = main(["check", str(bad)])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    code = main(["check", "/nonexistent/path.pmap"])
    assert code == 2
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    path = _write_entry(tmp_path, "case1-example")
    # Run the package under test, also when it is not installed.
    src = str(Path(phaseclone.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "phaseclone", "check", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout


@pytest.mark.parametrize("command", ["factor", "check"])
def test_zero_denominator_is_input_error(tmp_path, capsys, command):
    bad = tmp_path / "zero-denominator.pmap"
    bad.write_text("pmap lambda1\ndim 1\nentry 0 0 1/0+0i 0+0i 0+0i\nend\n")
    code = main([command, str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "line 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "classify", "profile"])
def test_coefficient_past_the_bound_is_input_error(tmp_path, capsys, command):
    # Finite as a double, 1e308 would overflow the relation and the projection.
    bad = tmp_path / "huge.pmap"
    bad.write_text("pmap lambda1\ndim 1\nentry 0 0 1e308+0i 0+0i 0+0i\nend\n")
    code = main([command, str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: line 3:") and "magnitude <= 1e+150" in captured.err
    assert "Traceback" not in captured.err


def test_overlong_dim_is_input_error(tmp_path, capsys):
    bad = tmp_path / "overlong-dim.pmap"
    bad.write_text("pmap lambda1\ndim " + "9" * 5000 + "\nend\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "line 2" in err
    assert "Traceback" not in err


def test_factor_root_with_an_underflowing_phase(tmp_path, capsys):
    path = tmp_path / "tiny-phase.pmap"
    path.write_text(
        "pmap lambda1\ndim 1\n"
        "entry 0 0 2.225073858507203e-309+3i 0+0i 4.450147717014407e-309+6i\nend\n"
    )
    code = main(["factor", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "full" in captured.out and "w1=2+4.94065645841e-324j" in captured.out


def test_consecutive_calls_do_not_leak_options(tmp_path, monkeypatch):
    path = _write_entry(tmp_path, "case1-example")
    tols = []
    check = cli._check_verdicts
    monkeypatch.setattr(cli, "_check_verdicts", lambda t, tol: tols.append(tol) or check(t, tol))
    assert main(["check", str(path), "--tol", "1e-3"]) == 0
    assert main(["check", str(path)]) == 0
    assert tols == [1e-3, DEFAULT_TOL]
    # The parser is built once per process, not per call.
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["classify", str(path)]) == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1", "2", "1e308"])
@pytest.mark.parametrize("command", ["check", "classify", "search"])
def test_bad_tol_is_input_error(tmp_path, capsys, command, tol):
    if command == "search":
        args = ["--trials", "5"]
    else:
        args = [str(_write_entry(tmp_path, "counterexample"))]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--tol", tol])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: argument --tol: tol must be a finite number > 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", ["abc", "1.5", "0", "-3", "65537", "1000000000000", "9" * 5000])
def test_bad_samples_is_input_error(tmp_path, capsys, monkeypatch, samples):
    path = _write_entry(tmp_path, "counterexample")
    # Rejected while parsing the arguments, before any grid is built or swept.
    monkeypatch.setattr(cli, "_grid", lambda *a: pytest.fail("grid built"))
    for module in (cli, positivity):
        monkeypatch.setattr(module, "_sweep", lambda *a: pytest.fail("grid swept"))
    with pytest.raises(SystemExit) as exc:
        main(["profile", str(path), "--samples", samples])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument --samples: samples must be an integer in [1, {cli.MAX_SAMPLES}]" in err
    assert "Traceback" not in err


# sha256 (first 16 hex digits) of the profile CSV of each catalog triple at
# 1, 7, 64 and 4096 samples.  The phi, P and output columns are those of the
# per-row formatter the table formatter replaced; the joint column is derived
# from the outputs' where P is above its floor (projective-discard's derived
# values have the bits of its sweep).  footnote-linear-only is not
# hermitian-preserving: it exits 1 and writes nothing (the digest of no bytes).
_PINNED_PROFILES = {
    "counterexample": ("0c16aa5f5700ebf4", "241d38563bf7fd6e", "2df6ac764fac8175", "e5df672e11d756ee"),
    "case1-example": ("99a8185043683446", "ff1e7c8167288248", "a19a42d2b6a6f7b7", "875ca8b64950b2a0"),
    "case3-example": ("1f0136a8cf0d23a6", "faa5f1ce2c2cd084", "a6ae169bc4a361a4", "8110d8ad651f2fcf"),
    "footnote-linear-only": ("e3b0c44298fc1c14",) * 4,
    "projective-discard": ("748eb4eeeb38f6a7", "b3d67cd398428e00", "be159f2f0faad5fb", "fb712447793c35a5"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_PROFILES))
def test_profile_csv_is_pinned(tmp_path, capsys, name):
    path = _write_entry(tmp_path, name)
    for samples, want in zip((1, 7, 64, 4096), _PINNED_PROFILES[name]):
        code = main(["profile", str(path), "--samples", str(samples)])
        out = capsys.readouterr().out
        assert code == (1 if name == "footnote-linear-only" else 0)
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want, samples


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 300))
def test_profile_columns_are_the_scalar_and_grid_values(k, samples):
    # P is P.eval(phi).real and each output's column the grid sweep of its
    # block, bit for bit (signed zeros included); the joint's column is
    # checked against eigvalsh.
    try:
        t = generate_case2_candidate([20260809, k])
    except SampleRejected:
        return
    _assert_profile_columns(t, samples)


@pytest.mark.parametrize(
    "name",
    [
        "gamma-1x2-2",
        "gamma-1x2-5",
        "gamma-1x3-4",
        "gamma-2x3-3",
        "gamma-2x3-6",
        "gamma-3x3-8",
        "gamma-3x3-13",
        "gamma-4x1-2",
        "gamma-4x1-3",
    ],
)
def test_profile_columns_of_other_dimensions(name):
    # gamma-1x3's joint is 3x3, swept in closed form where it is not derived;
    # gamma-4x1's out1 is 4x4, both of its ends read from one eigvalsh sweep.
    t = _check_triple(name)
    assert (t.out1.dim, t.out2.dim) == tuple(map(int, name.split("-")[1].split("x")))
    for samples in (1, 7, 4096):
        _assert_profile_columns(t, samples)


@pytest.mark.parametrize(
    "name, samples",
    [("catalog-counterexample", 2), ("catalog-counterexample", 30), ("gamma-3x3-28", 1), ("gamma-3x3-28", 13)],
)
def test_profile_one_row_job_keeps_the_bits_of_one_sweep(name, samples):
    # The joint's sweep gets one row, which numpy alone would evaluate as a
    # vector-matrix product with other rounding.
    assert _assert_profile_columns(_check_triple(name), samples)[1].sum() == 1


def _assert_profile_columns(t: UncorrelatedTriple, samples: int) -> tuple:
    """Check each column of ``t``'s profile CSV; return its table and the mask of the joint rows swept."""
    sweeps = []  # (family, rows, signs) of each sweep, in call order
    sweep = cli._sweep

    def recorded(family, basis, signs=(1.0,)):
        sweeps.append((family, basis, signs))
        return sweep(family, basis, signs)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_sweep", recorded):
        path = Path(tmp) / "t.pmap"
        path.write_text(serialize_pmap(document_from_triple(t)))
        out_csv = Path(tmp) / "t.csv"
        assert main(["profile", str(path), "--samples", str(samples), "--out", str(out_csv)]) == 0
        t = parse_pmap(path.read_text()).triple()
        lines = out_csv.read_text().splitlines()
    assert lines[0] == "phi,P,lmin_out1,lmin_out2,lmin_joint" and len(lines) == samples + 1
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    phis = table[:, 0]
    assert _bits(phis) == _bits(np.arange(samples) * (2.0 * math.pi / samples))
    P = trace_poly(t.out1)
    assert _bits(table[:, 1]) == _bits([P.eval(phi).real for phi in phis.tolist()])
    rows = _basis(phis)
    for column, op in zip(table[:, 2:4].T, (t.out1, t.out2)):
        assert _bits(column) == _bits(_sweep(hermitian_part(op.coeffs)[0], rows)[0])
    joint = hermitian_part(t.joint.coeffs)[0]
    d = t.joint.dim
    oracle = np.linalg.eigvalsh((rows @ joint.reshape(3, d * d)).reshape(-1, d, d))[:, 0]
    assert np.abs(table[:, 4] - oracle).max() <= 1e-13 * np.abs(joint).max()
    # Each output is swept once over every row, for both of its extreme
    # eigenvalues; the rows not derived are the joint's own sweep, bit for bit.
    *outputs, (family, swept, signs) = sweeps
    assert [(len(basis), s) for _, basis, s in outputs] == [(samples, (1.0, -1.0))] * 2
    assert np.array_equal(family, joint) and signs == (1.0,)
    mask = np.isin(rows[:, 0], swept[:, 0])
    assert mask.sum() == len(swept)
    assert _bits(table[mask, 4]) == _bits(_sweep(joint, rows[mask])[0])
    return table, mask


def test_profile_sweeps_the_joint_where_the_relation_fails():
    # A hermitian joint off by 1e-6 of its size fails the relation, so no row
    # is derived: the column is the joint's own sweep over every row.
    t = builtin("counterexample").payload
    noise = np.random.default_rng(20260809).normal(size=t.joint.coeffs.shape)
    noise = hermitian_part(noise.astype(complex))[0]
    coeffs = t.joint.coeffs + 1e-6 * t.joint.max_abs() * noise / np.abs(noise).max()
    off = UncorrelatedTriple(type(t.joint)(coeffs, dim1=2, dim2=2), t.out1, t.out2)
    assert not phaseclone.validate_triple(off).relation_holds
    _, swept = _assert_profile_columns(off, 4096)
    assert swept.all()


@pytest.mark.parametrize("samples", [2, 64, 4096])
def test_profile_sweeps_the_joint_at_a_root_of_P(samples):
    # P vanishes at phi = pi, where nothing is divided: the row is swept and
    # reads the joint's minimum, -4.
    table, swept = _assert_profile_columns(builtin("counterexample").payload, samples)
    row = table[samples // 2]
    assert row[0] == math.pi and abs(row[1]) < 1e-15 and swept[samples // 2]
    assert np.isfinite(table).all() and row[4] == pytest.approx(-4.0, abs=1e-12)


def test_profile_derives_the_joint_where_out2_has_trace_minus_P():
    # out1 = P Gamma1, out2 = -P Gamma2 and joint = P Gamma1 (x) (-Gamma2): the
    # relation holds though the traces differ, so out2 has h2 <= 0.  h1 h2 is
    # still never the least product: h1 >= P(phi) / d1 > 0, so h1 l2 <= h1 h2.
    rng = np.random.default_rng(20260809)
    P = trace_poly(_sampled(3).out1).coeffs[:, None, None]
    g1, g2 = (_gamma(rng, 2, True) for _ in range(2))
    joint = phaseclone.JointPhaseOperator(P * np.kron(g1, -g2), dim1=2, dim2=2)
    t = UncorrelatedTriple(joint, PhaseOperator(P * g1), PhaseOperator(-P * g2))
    report = phaseclone.validate_triple(t)
    assert not report.traces_equal and report.relation_holds
    table, swept = _assert_profile_columns(t, 4096)
    assert not swept.all() and (table[:, 3] <= 0.0).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(-8.0, -1.0))
def test_profile_joint_column_of_mixed_triples(k, log_a):
    # Both outputs mixed as a out + (1 - a) P I/d, a log-uniform, on triples
    # whose P has a double root on the circle: next to it the outputs are
    # nearly P I/d and the joint's smallest eigenvalues cluster.
    while True:
        t = _sampled(k)
        if decompose_probability(trace_poly(t.out1)).r < 1.0 + 1e-6:
            break
        k += 1
    a = 10.0**log_a
    P = trace_poly(t.out1).coeffs[:, None, None]
    out1, out2 = (
        PhaseOperator(a * o.coeffs + (1.0 - a) * P * np.eye(o.dim) / o.dim) for o in (t.out1, t.out2)
    )
    try:
        mixed = assemble_triple(out1, out2)
    except SampleRejected:
        return
    _assert_profile_columns(mixed, 4096)


def test_profile_sweeps_each_block_once(tmp_path, monkeypatch):
    path = _write_entry(tmp_path, "counterexample")
    t = builtin("counterexample").payload
    swept = []  # (signs, family, rows swept) per call
    sweep = cli._sweep

    def counted(family, basis, signs=(1.0,)):
        swept.append((signs, family, len(basis)))
        return sweep(family, basis, signs)

    monkeypatch.setattr(cli, "_sweep", counted)
    samples = 2 * cli._CSV_ROWS + 8
    out_csv = tmp_path / "p.csv"
    assert main(["profile", str(path), "--samples", str(samples), "--out", str(out_csv)]) == 0
    # Each output once over the grid, for both of its extreme eigenvalues,
    # then the joint on the rows not derived: the counterexample's relation
    # is exact, so those are the rows at or below the floor of P.
    P = np.loadtxt(out_csv, delimiter=",", skiprows=1)[:, 1]
    fallback = int((P <= cli._DERIVE_FLOOR * trace_poly(t.out1).max_abs()).sum())
    assert 0 < fallback < samples
    calls = [(signs, rows) for signs, _, rows in swept]
    assert calls == [((1.0, -1.0), samples)] * 2 + [((1.0,), fallback)]
    families = [hermitian_part(op.coeffs)[0] for op in (t.out1, t.out2, t.joint)]
    assert all(np.array_equal(family, want) for (_, family, _), want in zip(swept, families))


def _old_bound_derives(t: UncorrelatedTriple, samples: int) -> np.ndarray:
    """The rows whose joint value a profile bounding ``||R(phi)||`` by ``5 d max|cross|`` derived."""
    joint, out1, out2 = (hermitian_part(op.coeffs)[0] for op in (t.joint, t.out1, t.out2))
    _, sizes, nonzero, _, residual, *_ = _relation(joint[None], out1[None], out2[None], DEFAULT_TOL)
    size_p, size_joint = sizes[:2, 0]
    p = np.array([trace_poly(t.out1).eval(phi).real for phi in positivity._grid(samples)[0].tolist()])
    weyl = 5 * joint.shape[-1] * residual[0] * size_p  # residual is max|cross| / max|P|
    return nonzero[0] & (p > cli._DERIVE_FLOOR * size_p) & (weyl <= cli._DERIVE_BUDGET * size_joint * p)


@pytest.mark.parametrize("name", ["sampled-2x2-3", "sampled-2x2-10", "gamma-1x2-2", "gamma-2x3-3", "gamma-3x3-8"])
def test_profile_sweeps_a_subset_of_the_old_bound_rows(name):
    # The sum of the cross term's Frobenius norms is at most 5 d max|cross|,
    # so every row the old bound derived is derived; on these triples it
    # derives some more (and checks them against eigvalsh).
    t = _check_triple(name)
    _, swept = _assert_profile_columns(t, 4096)
    old_swept = ~_old_bound_derives(t, 4096)
    assert not (swept & ~old_swept).any()
    assert swept.sum() < old_swept.sum()


def test_profile_into_a_directory_starts_no_thread(tmp_path, monkeypatch, capsys):
    path = _write_entry(tmp_path, "counterexample")
    alive = []
    sweep = cli._sweep

    def recorded(family, basis, signs=(1.0,)):
        alive.append(threading.active_count())
        return sweep(family, basis, signs)

    monkeypatch.setattr(cli, "_sweep", recorded)
    before = threading.active_count()
    argv = ["profile", str(path), "--samples", str(cli.MAX_SAMPLES), "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert alive and set(alive) == {before} and threading.active_count() == before


def test_profile_builds_its_grid_once(tmp_path, monkeypatch):
    path = _write_entry(tmp_path, "counterexample")
    sizes = []
    basis = positivity._basis
    monkeypatch.setattr(positivity, "_basis", lambda phis: sizes.append(len(phis)) or basis(phis))
    positivity._grid.cache_clear()
    out_csv = str(tmp_path / "p.csv")
    for samples in ("48", "24"):
        for _ in range(2):
            assert main(["profile", str(path), "--samples", samples, "--out", out_csv]) == 0
    # Once per sample count for the three sweeps and the P column together,
    # then from the cache.
    assert sizes == [48, 24]
    phis, rows = positivity._grid(48)
    assert not phis.flags.writeable and not rows.flags.writeable


@pytest.mark.parametrize("name", ["gamma-3x3-8", "gamma-1x2-2"])
def test_profile_writes_its_csv_one_block_at_a_time(tmp_path, name):
    # The CSV of 65536 samples is 6.5 MB; each block of rows is written as
    # soon as it is formatted, so neither the table's text nor a copy of
    # the table is held (the call peaks at about 4.6 MiB, the columns of
    # every phase included).
    path = tmp_path / "t.pmap"
    path.write_text(serialize_pmap(document_from_triple(_check_triple(name))))
    argv = ["profile", str(path), "--samples", "65536", "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 0  # warm: the grid and the formatter's tables are built
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "p.csv").stat().st_size > 6 * 10**6
    assert peak <= 8 * 2**20


def _gamma_output(gamma: np.ndarray, P) -> PhaseOperator:
    """``Gamma * P``: every entry a constant multiple of the probability ``P``."""
    return PhaseOperator(P.coeffs[:, None, None] * gamma)


def _gamma(rng, d: int, psd: bool) -> np.ndarray:
    """A unit-trace Hermitian matrix, positive semidefinite or with a negative eigenvalue."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = x @ x.conj().T if psd else x + x.conj().T + 2.0 * np.eye(d)
    return h / np.trace(h).real


def _sampled(k: int) -> UncorrelatedTriple:
    """The first 2x2 triple drawn by ``generate_case2_candidate([20260809, k])`` from ``k`` on."""
    while True:
        try:
            return generate_case2_candidate([20260809, k])
        except SampleRejected:
            k += 1


def _check_triple(name: str) -> UncorrelatedTriple:
    if name.startswith("catalog-"):
        return builtin(name.removeprefix("catalog-")).payload
    kind, _, k = name.rpartition("-")
    k = int(k)
    t = _sampled(k)
    rng = np.random.default_rng([20260809, 99, k])
    P = trace_poly(t.out1)
    if kind == "sampled-2x2":
        return t
    if kind == "gamma-1x2":
        return assemble_triple(_gamma_output(np.ones((1, 1)), trace_poly(t.out2)), t.out2)
    if kind == "gamma-1x3":
        return assemble_triple(_gamma_output(np.ones((1, 1)), P), _gamma_output(_gamma(rng, 3, True), P))
    if kind == "gamma-2x3":
        return assemble_triple(t.out1, _gamma_output(_gamma(rng, 3, k % 2 == 0), P))
    if kind == "gamma-4x1":
        return assemble_triple(_gamma_output(_gamma(rng, 4, k % 2 == 0), P), _gamma_output(np.ones((1, 1)), P))
    g1, g2 = (_gamma_output(_gamma(rng, 3, psd), P) for psd in (k % 4 != 1, k % 4 != 2))
    return assemble_triple(g1, g2)


#: sha256 prefix of the ``check`` stdout (file path replaced) and its exit code.
_PINNED_CHECKS = {
    "catalog-counterexample": ("95a96597967a2a4f", 1),
    "catalog-case1-example": ("9a08a62733a7feb7", 0),
    "catalog-case3-example": ("a970e445b62e3b50", 0),
    "catalog-footnote-linear-only": ("a161b5b28880eedf", 1),
    "catalog-projective-discard": ("845c189bf6841a0d", 0),
    "sampled-2x2-1": ("b8ae1dc28820cccb", 1),
    "sampled-2x2-4": ("d9ac8be1dd736e86", 1),
    "sampled-2x2-6": ("346bf82c69f7e5c5", 0),
    "sampled-2x2-9": ("95e29993d37a7972", 1),
    "sampled-2x2-16": ("9e041805ea9900db", 1),
    "sampled-2x2-20": ("80cea20987bc8827", 0),
    "sampled-2x2-25": ("5ca4bb38ac8380fa", 1),
    "sampled-2x2-36": ("9f2b7476b35b1338", 1),
    "gamma-1x2-2": ("c90945880eebf030", 1),
    "gamma-1x2-5": ("9c60ea2beb1b4a07", 1),
    "gamma-2x3-3": ("7542eb1fad33e283", 1),
    "gamma-2x3-6": ("f6b66b5419cbc668", 0),
    "gamma-2x3-7": ("a4d6767ca8651456", 1),
    "gamma-2x3-10": ("58c78a3ad4290821", 1),
    "gamma-3x3-8": ("bc1855eeddbed501", 0),
    "gamma-3x3-11": ("bd48ab8eb24b6dd7", 0),
    "gamma-3x3-13": ("a3ee2b2d4fb323a7", 1),
    "gamma-3x3-14": ("f87715639a65a149", 1),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CHECKS))
def test_check_output_is_pinned(tmp_path, capsys, name):
    path = tmp_path / f"{name}.pmap"
    path.write_text(serialize_pmap(document_from_triple(_check_triple(name))))
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    out = captured.out.replace(str(path), "<file>")
    assert (hashlib.sha256(out.encode()).hexdigest()[:16], code) == _PINNED_CHECKS[name]
    assert captured.err == ""


def test_check_runs_no_case_analysis(tmp_path, capsys, monkeypatch):
    # check prints the relation, hermiticity and positivity verdicts only: the
    # dependence projection and the case split are never entered.
    def refuse(name):
        return lambda *args, **kwargs: pytest.fail(f"analysis.{name} called")

    for name in ("_projection", "_multiplicity"):
        monkeypatch.setattr(analysis, name, refuse(name))
    for name, pinned in sorted(_PINNED_CHECKS.items()):
        path = tmp_path / f"{name}.pmap"
        path.write_text(serialize_pmap(document_from_triple(_check_triple(name))))
        code = main(["check", str(path)])
        out = capsys.readouterr().out.replace(str(path), "<file>")
        assert (hashlib.sha256(out.encode()).hexdigest()[:16], code) == pinned, name
