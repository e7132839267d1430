"""Square matrices of first-order phase polynomials.

A :class:`PhaseOperator` is the restriction of a linear map to the
phase-set of qubit states: a d x d matrix whose entries are first-order
polynomials in e^{i phi}, stored as one read-only complex array ``coeffs``
of shape ``(3, d, d)`` holding the coefficient matrices ``(A, B, C)`` of
``A e^{i phi} + B e^{-i phi} + C``.  A :class:`JointPhaseOperator` is the
same thing on a bipartite output with the row index laid out as
``i * dim2 + mu`` (system 1 major).  An :class:`UncorrelatedTriple` bundles
a joint output with its two marginals and can be validated against the
product relation

    joint(phi) = out1(phi) (x) out2(phi) / P(phi),      P = trace(out1),

which is the probabilistic analogue of the deterministic tensor relation.
It is checked cross-multiplied, ``joint * P == out1 (x) out2``, so the
check needs no division and exact (dyadic) inputs give a residual of
exactly zero.  Traces, partial traces, tensor products and the hermiticity
test are array expressions on ``coeffs``.  All values are immutable and the
operations below are pure functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .trigpoly import ZERO_COEFF_REL, FirstOrderPoly, mul

__all__ = [
    "PhaseOperator",
    "JointPhaseOperator",
    "UncorrelatedTriple",
    "PhaseState",
    "RelationReport",
    "ZeroProbabilityError",
    "ZeroProbabilityAtPhaseError",
    "eval_matrix",
    "trace_poly",
    "partial_trace",
    "is_hermitian_preserving",
    "tensor",
    "max_coeff_diff",
    "validate_triple",
    "phase_state_operator",
    "normalized_output",
]


class ZeroProbabilityError(ValueError):
    """The success probability polynomial vanishes identically."""


class ZeroProbabilityAtPhaseError(ZeroDivisionError):
    """P(phi) = 0 at the requested phase, so there is no output state."""


def _as_coeffs(value) -> tuple:
    if isinstance(value, FirstOrderPoly):
        return value.a, value.b, value.c
    if isinstance(value, (int, float, complex)):
        return 0.0, 0.0, value
    a, b, c = value
    return a, b, c


@dataclass(frozen=True, eq=False)
class PhaseOperator:
    """d x d matrix of first-order phase polynomials as ``(A, B, C)`` arrays."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[0] != 3 or not 1 <= coeffs.shape[1] == coeffs.shape[2]:
            raise ValueError(f"coeffs must have shape (3, d, d) with d >= 1, got {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    @classmethod
    def from_rows(cls, rows, **dims) -> "PhaseOperator":
        """Build from rows of :class:`FirstOrderPoly`, ``(a, b, c)`` tuples or scalars."""
        cells = [[_as_coeffs(e) for e in row] for row in rows]
        return cls(np.moveaxis(np.array(cells, dtype=complex), -1, 0), **dims)

    @classmethod
    def zero(cls, dim: int) -> "PhaseOperator":
        return cls(np.zeros((3, dim, dim)))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @cached_property
    def entries(self) -> tuple:
        """Rows of :class:`FirstOrderPoly`: the scalar view of ``coeffs``."""
        A, B, C = self.coeffs.tolist()
        return tuple(tuple(map(FirstOrderPoly, a, b, c)) for a, b, c in zip(A, B, C))

    def entry(self, i: int, j: int) -> FirstOrderPoly:
        return self.entries[i][j]

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())


@dataclass(frozen=True, eq=False)
class JointPhaseOperator(PhaseOperator):
    """Bipartite output matrix, row/column index = i * dim2 + mu."""

    dim1: int
    dim2: int

    def __post_init__(self):
        super().__post_init__()
        if self.dim1 < 1 or self.dim2 < 1 or self.dim != self.dim1 * self.dim2:
            raise ValueError(
                f"joint dimension {self.dim} != dim1 * dim2 = {self.dim1 * self.dim2}"
            )


@dataclass(frozen=True)
class UncorrelatedTriple:
    """A joint output together with the two claimed marginals."""

    joint: JointPhaseOperator
    out1: PhaseOperator
    out2: PhaseOperator

    def __post_init__(self):
        if self.joint.dim1 != self.out1.dim or self.joint.dim2 != self.out2.dim:
            raise ValueError("joint block dimensions do not match the marginals")


@dataclass(frozen=True)
class PhaseState:
    """Pure qubit state sqrt(q)|0> + sqrt(1-q) e^{i phi} |1> for fixed q."""

    q: float

    def __post_init__(self):
        q = float(self.q)
        if not (math.isfinite(q) and 0.0 < q < 1.0):
            raise ValueError(f"q must lie strictly between 0 and 1, got {q!r}")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class RelationReport:
    """Outcome of checking a triple against the product relation."""

    probability: FirstOrderPoly
    traces_equal: bool
    relation_holds: bool
    partial_traces_consistent: bool
    max_residual: float

    @property
    def all_ok(self) -> bool:
        return self.traces_equal and self.relation_holds and self.partial_traces_consistent


def eval_matrix(op: PhaseOperator, phi: float) -> np.ndarray:
    """Entrywise evaluation at a single phase."""
    x = cmath.exp(1j * phi)
    A, B, C = op.coeffs
    return A * x + B * x.conjugate() + C


def trace_poly(op: PhaseOperator) -> FirstOrderPoly:
    """Coefficientwise sum of the diagonal entries."""
    return FirstOrderPoly(*op.coeffs.trace(axis1=1, axis2=2).tolist())


def partial_trace(joint: JointPhaseOperator, keep: int) -> PhaseOperator:
    """Trace out one subsystem, coefficientwise."""
    d1, d2 = joint.dim1, joint.dim2
    blocks = joint.coeffs.reshape(3, d1, d2, d1, d2)
    if keep == 1:
        return PhaseOperator(blocks.trace(axis1=2, axis2=4))
    if keep == 2:
        return PhaseOperator(blocks.trace(axis1=1, axis2=3))
    raise ValueError("keep must be 1 or 2")


def is_hermitian_preserving(op: PhaseOperator, tol: float = 1e-10) -> bool:
    """Conjugate-transposed coefficient symmetry.

    ``op(phi)^H = B^H e^{i phi} + A^H e^{-i phi} + C^H``, so the output
    matrix is Hermitian at every phi iff ``A = B^H`` and ``C = C^H``, here
    each within ``tol`` per entry.
    """
    c = op.coeffs
    return bool(np.abs(c - c[[1, 0, 2]].conj().transpose(0, 2, 1)).max() <= tol)


def tensor(o1: PhaseOperator, o2: PhaseOperator) -> np.ndarray:
    """Kronecker product with entrywise polynomial multiplication.

    Returns a ``(5, d1*d2, d1*d2)`` array over degrees -2..2 (see
    :func:`phaseclone.trigpoly.mul`); entries may carry genuine
    second-order content.
    """
    d1, d2 = o1.dim, o2.dim
    prod = mul(o1.coeffs[:, :, None, :, None], o2.coeffs[:, None, :, None, :])
    return prod.reshape(5, d1 * d2, d1 * d2)


def max_coeff_diff(op1: PhaseOperator, op2: PhaseOperator) -> float:
    if op1.dim != op2.dim:
        raise ValueError("dimension mismatch")
    return float(np.abs(op1.coeffs - op2.coeffs).max())


def validate_triple(t: UncorrelatedTriple, tol: float = 1e-9) -> RelationReport:
    """Check traces, the product relation and the partial traces of a triple.

    The relation is tested cross-multiplied, ``joint * P = out1 (x) out2``,
    with no division.  ``max_residual`` is the largest coefficient of the
    difference over all entries and degrees, divided by ``max|P|`` so that
    it reads in the units of the joint block.
    """
    P = trace_poly(t.out1)
    scale = max(t.joint.max_abs(), t.out1.max_abs(), t.out2.max_abs())
    if P.max_abs() <= ZERO_COEFF_REL * (1.0 + scale):
        raise ZeroProbabilityError("trace polynomial vanishes identically")

    traces_equal = (
        trace_poly(t.out2).distance(P) <= tol
        and trace_poly(t.joint).distance(P) <= tol
    )

    cross = mul(t.joint.coeffs, P.coeffs[:, None, None]) - tensor(t.out1, t.out2)
    max_residual = float(np.abs(cross).max()) / P.max_abs()

    partial_ok = (
        max_coeff_diff(partial_trace(t.joint, 1), t.out1) <= tol
        and max_coeff_diff(partial_trace(t.joint, 2), t.out2) <= tol
    )

    return RelationReport(
        probability=P,
        traces_equal=traces_equal,
        relation_holds=max_residual <= tol,
        partial_traces_consistent=partial_ok,
        max_residual=max_residual,
    )


def phase_state_operator(state) -> PhaseOperator:
    """Density matrix of the phase state as a 2 x 2 phase operator."""
    if not isinstance(state, PhaseState):
        state = PhaseState(state)
    q = state.q
    off = math.sqrt(q * (1.0 - q))
    return PhaseOperator.from_rows(
        [
            [FirstOrderPoly(0.0, 0.0, q), FirstOrderPoly(0.0, off, 0.0)],
            [FirstOrderPoly(off, 0.0, 0.0), FirstOrderPoly(0.0, 0.0, 1.0 - q)],
        ]
    )


def normalized_output(
    op: PhaseOperator, P: FirstOrderPoly, phi: float, tol: float = 1e-12
) -> np.ndarray:
    """The output state ``op(phi) / P(phi)``.

    Raises :class:`ZeroProbabilityAtPhaseError` when ``|P(phi)| <= tol``;
    there is no output at phases of zero success probability.
    """
    denom = P.eval(phi)
    if abs(denom) <= tol:
        raise ZeroProbabilityAtPhaseError(f"P({phi}) = {denom} is numerically zero")
    return eval_matrix(op, phi) / denom
