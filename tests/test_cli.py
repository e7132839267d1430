"""CLI contract: exit codes, output formats, round trips."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaseclone
from phaseclone import (
    SampleRejected,
    builtin,
    document_from_triple,
    generate_case2_candidate,
    parse_pmap,
    serialize_pmap,
    trace_poly,
)
from phaseclone import cli
from phaseclone.cli import main
from phaseclone.positivity import DEFAULT_TOL, _basis, _lambda_min_grid
from phaseclone.operators import hermitian_part, max_coeff_diff


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


def test_search_small_run(capsys):
    code = main(["search", "--trials", "150", "--seed", "9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trials: 150" in out
    assert "violations: 0" in out
    assert "witness_failures: 0" in out
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert sum(json.loads(lines["rejection_reasons"]).values()) == int(lines["rejected"]) > 0


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
    analyze = cli.analyze
    monkeypatch.setattr(cli, "analyze", lambda t, tol: tols.append(tol) or analyze(t, tol))
    assert main(["check", str(path), "--tol", "1e-3"]) == 0
    assert main(["check", str(path)]) == 0
    assert tols == [1e-3, DEFAULT_TOL]
    # The parser is built once per process, not per call.
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert main(["classify", str(path)]) == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
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
    # Rejected while parsing the arguments, before any grid is built.
    monkeypatch.setattr(cli, "min_eigenvalue_profile", lambda *a: pytest.fail("grid built"))
    with pytest.raises(SystemExit) as exc:
        main(["profile", str(path), "--samples", samples])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"error: argument --samples: samples must be an integer in [1, {cli.MAX_SAMPLES}]" in err
    assert "Traceback" not in err


# sha256 (first 16 hex digits) of the profile CSV of each catalog triple at
# 1, 7, 64 and 4096 samples, as written by the per-row formatter this table
# formatter replaced.  footnote-linear-only is not hermitian-preserving: it
# exits 1 and writes nothing (the digest of no bytes).
_PINNED_PROFILES = {
    "counterexample": ("5212b7d64b93afd6", "d105b184f0202169", "533dbda7c8b0ac6d", "376d79ac3123932b"),
    "case1-example": ("99a8185043683446", "2f2c9ad39224ae58", "c6678607101fa3ac", "1747e8180fb69eed"),
    "case3-example": ("1f0136a8cf0d23a6", "c3176dd90c189fbe", "be8ee554695af5fb", "24914f530a84e303"),
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
    # P is P.eval(phi).real and every lmin column the grid sweep of its
    # block, bit for bit (signed zeros included).
    try:
        t = generate_case2_candidate([20260809, k])
    except SampleRejected:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.pmap"
        path.write_text(serialize_pmap(document_from_triple(t)))
        out_csv = Path(tmp) / "t.csv"
        assert main(["profile", str(path), "--samples", str(samples), "--out", str(out_csv)]) == 0
        t = parse_pmap(path.read_text()).triple()
        lines = out_csv.read_text().splitlines()
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    phis = table[:, 0]
    assert _bits(phis) == _bits(np.arange(samples) * (2.0 * math.pi / samples))
    P = trace_poly(t.out1)
    assert _bits(table[:, 1]) == _bits([P.eval(phi).real for phi in phis.tolist()])
    for column, op in zip(table[:, 2:].T, (t.out1, t.out2, t.joint)):
        assert _bits(column) == _bits(_lambda_min_grid(hermitian_part(op.coeffs)[0], _basis(phis)))


def test_profile_sweeps_each_block_once(tmp_path, monkeypatch):
    path = _write_entry(tmp_path, "counterexample")
    calls = []
    sweep = cli.min_eigenvalue_profile
    monkeypatch.setattr(cli, "min_eigenvalue_profile", lambda op, n: calls.append(n) or sweep(op, n))
    assert main(["profile", str(path), "--samples", "16", "--out", str(tmp_path / "p.csv")]) == 0
    assert calls == [16, 16, 16]


def test_profile_builds_its_grid_once(tmp_path, monkeypatch):
    from phaseclone import positivity

    path = _write_entry(tmp_path, "counterexample")
    sizes = []
    basis = positivity._basis
    monkeypatch.setattr(positivity, "_basis", lambda phis: sizes.append(len(phis)) or basis(phis))
    positivity._grid.cache_clear()
    for _ in range(2):
        assert main(["profile", str(path), "--samples", "48", "--out", str(tmp_path / "p.csv")]) == 0
    # Once for the three sweeps and the P column together, then from the cache.
    assert sizes == [48]
    phis, rows = positivity._grid(48)
    assert not phis.flags.writeable and not rows.flags.writeable
