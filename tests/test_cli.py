"""CLI contract: exit codes, output formats, round trips."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import phaseclone
from phaseclone import builtin, document_from_triple, parse_pmap, serialize_pmap
from phaseclone.cli import main
from phaseclone.operators import max_coeff_diff


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
