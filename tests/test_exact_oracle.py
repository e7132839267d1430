"""Exact rational oracle for the dyadic catalog triples.

Every coefficient is lifted to a pair of ``fractions.Fraction`` (real and
imaginary part), and hermiticity, trace equality and the cross-multiplied
relation ``joint * P = out1 (x) out2`` are checked with no floating point
and no code from the package beyond reading ``coeffs``.  The package's
floating-point ``validate_triple`` must agree by reporting a residual of
exactly zero.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from phaseclone import builtin, is_hermitian_preserving, validate_triple
from phaseclone.operators import hermitian_part

DYADIC_TRIPLES = (
    "counterexample",
    "case1-example",
    "case3-example",
    "footnote-linear-only",
    "projective-discard",
)

# A first-order polynomial is {degree: coefficient} over degrees 1, -1, 0;
# a complex number is a (real, imag) pair of fractions.
ZERO = (Fraction(0), Fraction(0))


def _lift(z: complex) -> tuple:
    return Fraction(z.real), Fraction(z.imag)


def _add(u, v):
    return u[0] + v[0], u[1] + v[1]


def _times(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _conj(u):
    return u[0], -u[1]


def _matrix(op) -> list:
    """op[i][j] as {degree: exact coefficient}, read from ``coeffs``."""
    A, B, C = op.coeffs.tolist()
    d = op.dim
    return [
        [{1: _lift(A[i][j]), -1: _lift(B[i][j]), 0: _lift(C[i][j])} for j in range(d)]
        for i in range(d)
    ]


def _poly_product(p: dict, q: dict) -> dict:
    out: dict = {}
    for k, u in p.items():
        for m, v in q.items():
            out[k + m] = _add(out.get(k + m, ZERO), _times(u, v))
    return {k: v for k, v in out.items() if v != ZERO}


def _trace(m: list) -> dict:
    total = {1: ZERO, -1: ZERO, 0: ZERO}
    for i in range(len(m)):
        total = {k: _add(total[k], m[i][i][k]) for k in total}
    return total


def _hermitian(m: list) -> bool:
    d = len(m)
    return all(
        m[i][j][1] == _conj(m[j][i][-1]) and m[i][j][0] == _conj(m[j][i][0])
        for i in range(d)
        for j in range(d)
    )


@pytest.mark.parametrize("name", DYADIC_TRIPLES)
def test_exact_relation_on_dyadic_catalog(name):
    t = builtin(name, q=0.5).payload
    joint, out1, out2 = _matrix(t.joint), _matrix(t.out1), _matrix(t.out2)
    d2 = t.out2.dim

    hermitian = [_hermitian(m) for m in (joint, out1, out2)]
    # The package's hermiticity defect is exactly zero where the oracle finds hermiticity.
    assert hermitian == [hermitian_part(op.coeffs)[1] == 0.0 for op in (t.joint, t.out1, t.out2)]
    assert hermitian == [is_hermitian_preserving(op) for op in (t.joint, t.out1, t.out2)]
    assert all(hermitian) == (name != "footnote-linear-only")

    P = _trace(out1)
    assert _trace(out2) == P
    assert _trace(joint) == P

    for r, row in enumerate(joint):
        for c, entry in enumerate(row):
            i, mu = divmod(r, d2)
            j, nu = divmod(c, d2)
            assert _poly_product(entry, P) == _poly_product(out1[i][j], out2[mu][nu]), (r, c)

    assert validate_triple(t).max_residual == 0.0
