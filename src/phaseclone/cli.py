"""Command-line interface.

Subcommands: ``factor`` (decomposition form of one entry), ``check``
(relation + hermiticity + positivity, exit 1 on any failure), ``classify``
(case verdict and report summary), ``profile`` (CSV of minimum-eigenvalue
sweeps), ``search`` (randomized theorem search, exit 1 on violations) and
``catalog`` (emit a built-in entry as PMAP).  Exit codes: 0 success,
1 failed checks, 2 parse/input errors, 141 (128 + SIGPIPE) when the reader
of stdout closes it early.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .trigpoly import AffineForm, FullForm, ZeroPolynomialError, _checked_tol, factorize
from .operators import (
    UncorrelatedTriple,
    _relation,
    trace_poly,
)
from .positivity import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    NotHermitianError,
    PositivityVerdict,
    _grid,
    _hermitian_family,
    _sweep,
)
from ._g17 import format_rows
from .analysis import _check_verdicts, analyze
from .search import theorem_search
from .catalog import builtin
from .pmap import (
    ParseError,
    document_from_operator,
    document_from_triple,
    parse_pmap,
    serialize_pmap,
)

#: Errors that exit with 2; ``ParseError``, ``DimensionMismatchError`` and
#: ``UnknownNameError`` are ``ValueError``s.
_INPUT_ERRORS = (OSError, ValueError)


def _load_document(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pmap(fh.read())


def _load_triple(path: str) -> UncorrelatedTriple:
    return _load_document(path).triple()


def _fmt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # avoid printing -0
    return f"{x:.6g}"


def _fmtc(z: complex) -> str:
    z = complex(z.real if z.real != 0.0 else 0.0, z.imag if z.imag != 0.0 else 0.0)
    return f"{z:.12g}"


def _bool(x) -> str:
    return "true" if x else "false"


def _verdict_line(name: str, v: PositivityVerdict | None) -> str:
    if v is None:
        return f"positivity_{name}: skipped (not hermitian-preserving)"
    return (
        f"positivity_{name}: {_bool(v.positive)} "
        f"(lambda_min={_fmt(v.min_eigenvalue)} at phi={_fmt(v.witness_phi)})"
    )


def _write(path: str | None, chunks) -> None:
    """Write the byte ``chunks`` to ``path``, or as text to stdout for None or "-"."""
    if path is None or path == "-":
        for chunk in chunks:
            sys.stdout.write(chunk.decode())
    else:
        with open(path, "wb") as fh:
            fh.writelines(chunks)


def _cmd_factor(args) -> int:
    doc = _load_document(args.file)
    if args.block is not None:
        if args.block not in doc.blocks:
            raise ParseError(f"no block named {args.block!r} in {args.file}")
        name = args.block
    elif len(doc.blocks) == 1:
        name = next(iter(doc.blocks))
    elif "lambda1" in doc.blocks:
        name = "lambda1"
    else:
        raise ParseError("ambiguous document; select a block with --block")
    op = doc.blocks[name]
    i, j = args.entry
    if not (0 <= i < op.dim and 0 <= j < op.dim):
        raise ParseError(f"entry ({i}, {j}) out of range for dim {op.dim}")
    try:
        form = factorize(op.entry(i, j))
    except ZeroPolynomialError:
        print(f"entry ({i}, {j}) of {name}: zero polynomial, no decomposition form")
        return 1
    if isinstance(form, FullForm):
        print(
            f"entry ({i}, {j}) of {name}: full scale={_fmtc(form.scale)} "
            f"w0={_fmtc(form.w0)} w1={_fmtc(form.w1)}"
        )
    elif isinstance(form, AffineForm):
        print(f"entry ({i}, {j}) of {name}: affine scale={_fmtc(form.scale)} w={_fmtc(form.w)}")
    else:
        print(f"entry ({i}, {j}) of {name}: pure-negative b={_fmtc(form.b)}")
    return 0


def _cmd_check(args) -> int:
    rel, hp, p, verdicts = _check_verdicts(_load_triple(args.file), args.tol)
    lines = [f"file: {args.file}"]
    if rel is None:
        lines.append("relation: unavailable (zero probability)")
    else:
        lines += [
            f"traces_equal: {_bool(rel.traces_equal)}",
            f"relation_holds: {_bool(rel.relation_holds)} (max_residual={rel.max_residual:.3e})",
            f"partial_traces_consistent: {_bool(rel.partial_traces_consistent)}",
        ]
    blocks = ("joint", "out1", "out2")
    flags = (f"{b}={_bool(ok)}" for b, ok in zip(blocks, hp))
    lines.append("hermitian_preserving: " + " ".join(flags))
    if isinstance(p, str):
        lines.append(f"probability: {p}")
    else:
        lines.append(
            f"probability: |alpha|={_fmt(p.alpha_abs)} theta={_fmt(p.theta)} "
            f"R={_fmt(p.R)} r={_fmt(p.r)}"
        )
    positivity = dict(zip(blocks, verdicts))
    lines += [_verdict_line(block, positivity[block]) for block in ("out1", "out2", "joint")]
    positive = all(v is not None and v.positive for v in verdicts)
    passed = rel is not None and rel.all_ok and all(hp) and positive
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    print("\n".join(lines))
    return 0 if passed else 1


def _cmd_classify(args) -> int:
    t = _load_triple(args.file)
    report = analyze(t, args.tol)

    def dep_word(flag) -> str:
        if flag is None:
            return "unknown"
        return "phase-dependent" if flag else "phase-independent"

    case_text = report.case.value if report.case is not None else "unclassified"
    print(f"{case_text}; out1 {dep_word(report.out1_phase_dependent)}; "
          f"out2 {dep_word(report.out2_phase_dependent)}")
    print(f"hermitian_preserving: {_bool(report.hp_ok)}")
    print(f"relation_ok: {_bool(report.relation_ok)}")
    if isinstance(report.probability, str):
        print(f"probability: {report.probability}")
    else:
        print(f"probability: r={report.probability.r:.12g}")
    print(f"all_positive: {_bool(report.all_positive)}")
    print(f"theorem_consistent: {_bool(report.theorem_consistent)}")
    return 0 if report.case is not None else 1


#: Rows of the ``profile`` CSV formatted and written at a time.
_CSV_ROWS = 1024
#: ``profile`` derives a joint row only where ``P(phi)`` exceeds this fraction of
#: ``max|P|``: ``P(phi)`` is rounded by a few ulps of ``max|P|``, which is then at
#: most a few hundred ulps of ``P(phi)`` and of the quotient.
_DERIVE_FLOOR = 1e-2
#: ... and where Weyl's bound on the quotient's distance from the joint's
#: lambda_min is at most this times ``max|joint|``.
_DERIVE_BUDGET = 1e-13


def _cmd_profile(args) -> int:
    t, n = _load_triple(args.file), args.samples
    try:
        joint, out1, out2 = (_hermitian_family(op) for op in (t.joint, t.out1, t.out2))
    except NotHermitianError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    phis, rows = _grid(n)
    # Re(a x + b conj(x) + c) in the float operations of FirstOrderPoly.eval,
    # so every P value has the bits of P.eval(phi).real.
    P, xr, xi = trace_poly(t.out1), rows[:, 0].real, rows[:, 0].imag
    p = ((P.a.real * xr - P.a.imag * xi) + (P.b.real * xr - P.b.imag * -xi)) + P.c.real
    # joint(phi) P(phi) = out1(phi) (x) out2(phi) + R(phi).  Where P(phi) > 0 the
    # joint's eigenvalues are the products a_i b_j / P(phi) of the outputs' (Horn &
    # Johnson, Topics in Matrix Analysis, Thm 4.2.12), each moved by at most
    # ||R(phi)|| / P(phi) (Weyl); R(phi) sums the relation's five cross-term
    # coefficients, each times a unit phase factor, so ||R(phi)|| is at most the sum
    # of their Frobenius norms.  The other rows (near a root of P, where P <= 0, and
    # all rows where the relation fails) are swept.
    _, sizes, nonzero, *_, cross = _relation(joint[None], out1[None], out2[None], DEFAULT_TOL)
    size_p, size_joint = sizes[:2, 0]
    weyl = np.linalg.norm(cross[:, 0], axis=(1, 2)).sum()
    derived = nonzero[0] & (p > _DERIVE_FLOOR * size_p) & (weyl <= _DERIVE_BUDGET * size_joint * p)
    (l1, h1), (l2, h2) = (_sweep(out, rows, (1.0, -1.0)) for out in (out1, out2))
    # out1 has trace P(phi) > 0, so h1 >= P(phi) / d1 > 0 and h1 h2 >= h1 l2 is never
    # the least (out2's trace need not be P).
    least = np.minimum(l1 * l2, np.minimum(l1 * h2, h1 * l2))
    lj = np.divide(least, p, out=least, where=derived)
    lj[~derived] = _sweep(joint, rows[~derived])[0]
    columns = (phis, p, l1, l2, lj)
    blocks = (
        format_rows(np.column_stack([c[s : s + _CSV_ROWS] for c in columns]))
        for s in range(0, n, _CSV_ROWS)
    )
    # Opened only after all three blocks passed the hermiticity check.
    _write(args.out, itertools.chain([b"phi,P,lmin_out1,lmin_out2,lmin_joint\n"], blocks))
    return 0


def _cmd_search(args) -> int:
    report = theorem_search(args.trials, seed=args.seed, tol=args.tol)
    print(f"trials: {report.trials}")
    print(f"seed: {report.seed}")
    print(f"accepted: {report.accepted}")
    print(f"rejected: {report.rejected}")
    print(f"rejection_reasons: {json.dumps(report.rejection_reasons)}")
    print(f"acceptance_rate: {report.acceptance_rate:.4f}")
    print(f"case_counts: {json.dumps(report.case_counts)}")
    print(f"both_phase_dependent: {report.both_phase_dependent}")
    if report.witnesses:
        top = max(report.witnesses, key=lambda w: w.lambda_min)
        print(f"max_witness_lambda_min: {top.lambda_min:.6e}")
        print(f"max_witness_operator: {top.operator}")
    else:
        print("max_witness_lambda_min: n/a")
        print("max_witness_operator: n/a")
    print(f"witness_failures: {len(report.witness_failures)}")
    print(f"violations: {len(report.violations)}")
    for v in report.violations:
        print(f"violation: trial={v.trial} {v.detail}")
    for k in report.witness_failures:
        print(f"witness_failure: trial={k}")
    return 0 if report.ok else 1


def _cmd_catalog(args) -> int:
    entry = builtin(args.name, q=args.q)
    if isinstance(entry.payload, UncorrelatedTriple):
        doc = document_from_triple(entry.payload)
    else:
        doc = document_from_operator(entry.name, entry.payload)
    _write(args.out, [serialize_pmap(doc).encode()])
    return 0


def _tol(text: str) -> float:
    """Argparse type of ``--tol``: a number in (0, 1); a relative tol of 1 or more passes any defect."""
    tol = float(text)
    try:
        return _checked_tol(tol)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


#: Largest ``profile --samples``: 16 times the default grid.
MAX_SAMPLES = 1 << 16


def _integer(name: str, low: int, high: float = math.inf):
    """Argparse type of an integer option in ``[low, high]``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if low <= value <= high:
                return value
        except ValueError:
            pass
        bound = f"in [{low}, {high}]" if high < math.inf else f">= {low}"
        raise argparse.ArgumentTypeError(f"{name} must be an integer {bound}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaseclone",
        description="Verify uncorrelated cloning maps on the phase-set of qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol = argparse.ArgumentParser(add_help=False)
    relative = "relative: tol times the largest coefficient of the operator or triple judged"
    tol.add_argument("--tol", type=_tol, default=DEFAULT_TOL, help=relative)

    p = sub.add_parser("factor", help="print the decomposition form of one matrix entry")
    p.add_argument("file")
    p.add_argument("--entry", nargs=2, type=int, default=(0, 0), metavar=("I", "J"))
    p.add_argument("--block", default=None, help="block name (default: lambda1 or the only block)")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("check", parents=[tol], help="validate a triple; exit 1 on any failed check")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", parents=[tol], help="print the case verdict and report summary")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("profile", help="write a CSV of minimum-eigenvalue sweeps")
    p.add_argument("file")
    p.add_argument("--samples", type=_integer("samples", 1, MAX_SAMPLES), default=DEFAULT_GRID)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("search", parents=[tol], help="randomized theorem search; exit 1 on violations")
    p.add_argument("--trials", type=_integer("trials", 1), default=10000)
    p.add_argument("--seed", type=_integer("seed", 0), default=0)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("catalog", help="emit a built-in map as PMAP text")
    p.add_argument("name")
    p.add_argument("--q", type=float, default=0.5, help="parameter for the q-dependent entries")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_catalog)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (``| head``): exit as a writer killed
        # by SIGPIPE, with stdout on devnull so that the flush at shutdown
        # cannot report the broken pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
