"""Square matrices of first-order phase polynomials.

A :class:`PhaseOperator` is the restriction of a linear map to the
phase-set of qubit states: a d x d matrix whose entries are first-order
polynomials in e^{i phi}, stored as one read-only complex array ``coeffs``
of shape ``(3, d, d)`` holding the coefficient matrices ``(A, B, C)`` of
``A e^{i phi} + B e^{-i phi} + C``.  It is the one operator type: an
:class:`UncorrelatedTriple` bundles a joint output on the bipartite system,
itself a plain :class:`PhaseOperator`, with its two marginals, and is the
only place that ties the joint's dimension to theirs.  The triple can be
validated against the product relation

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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .trigpoly import DEFAULT_TOL, FirstOrderPoly, _checked_tol, _negligible, mul

__all__ = [
    "DEFAULT_TOL",
    "MAX_COEFF",
    "PhaseOperator",
    "UncorrelatedTriple",
    "PhaseState",
    "RelationReport",
    "DimensionMismatchError",
    "ZeroProbabilityError",
    "ZeroProbabilityAtPhaseError",
    "eval_matrix",
    "trace_poly",
    "hermitian_part",
    "is_hermitian_preserving",
    "tensor",
    "validate_triple",
    "phase_state_operator",
    "normalized_output",
]


#: Largest magnitude of a coefficient's real or imaginary part.  The largest
#: intermediate of the checks is ``|P|^2`` in the dependence projection: ``P``
#: sums up to 64 diagonal entries (``pmap.MAX_DIM``) of modulus at most
#: ``sqrt(2) * MAX_COEFF``, so ``|P|^2 <= 8.2e303``, summed over three
#: coefficients, stays below 1.8e308; so does the relation's ``joint * P``.
MAX_COEFF = 1e150


class ZeroProbabilityError(ValueError):
    """The success probability polynomial vanishes identically."""


class ZeroProbabilityAtPhaseError(ZeroDivisionError):
    """P(phi) = 0 at the requested phase, so there is no output state."""


class DimensionMismatchError(ValueError):
    """A triple's joint dimension is not the product of its marginals' dimensions."""


def _as_coeffs(value) -> tuple:
    if isinstance(value, FirstOrderPoly):
        return value.a, value.b, value.c
    if isinstance(value, (int, float, complex)):
        return 0.0, 0.0, value
    a, b, c = value
    return a, b, c


def _check_parts(coeffs: np.ndarray) -> None:
    """Raise ``ValueError`` unless every real and imaginary part is a number of magnitude <= MAX_COEFF."""
    if not np.abs(coeffs.view(float)).max() <= MAX_COEFF:  # NaN fails too
        raise ValueError(f"coefficient parts must be numbers of magnitude <= {MAX_COEFF:g}")


@dataclass(frozen=True, eq=False)
class PhaseOperator:
    """d x d matrix of first-order phase polynomials as ``(A, B, C)`` arrays."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex, order="C")
        if coeffs.ndim != 3 or coeffs.shape[0] != 3 or not 1 <= coeffs.shape[1] == coeffs.shape[2]:
            raise ValueError(f"coeffs must have shape (3, d, d) with d >= 1, got {coeffs.shape}")
        _check_parts(coeffs)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.coeffs, other.coeffs)

    @classmethod
    def from_rows(cls, rows) -> "PhaseOperator":
        """Build from rows of :class:`FirstOrderPoly`, ``(a, b, c)`` tuples or scalars."""
        cells = [[_as_coeffs(e) for e in row] for row in rows]
        return cls(np.moveaxis(np.array(cells, dtype=complex), -1, 0))

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


@dataclass(frozen=True)
class UncorrelatedTriple:
    """A joint output on the bipartite system and its two claimed marginals.

    The joint's row and column index is ``i * out2.dim + mu`` (system 1
    major); its dimension must be ``out1.dim * out2.dim``, checked here only.
    """

    joint: PhaseOperator
    out1: PhaseOperator
    out2: PhaseOperator

    def __post_init__(self):
        d1, d2 = self.out1.dim, self.out2.dim
        if self.joint.dim != d1 * d2:
            raise DimensionMismatchError(
                f"joint has dim {self.joint.dim}, expected {d1} * {d2} = {d1 * d2}"
            )


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


def hermitian_part(coeffs: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """Hermitian part, hermiticity defect and verdict of each operator of a ``(..., 3, d, d)`` stack.

    ``op(phi)^H = B^H e^{i phi} + A^H e^{-i phi} + C^H``, the family with
    coefficients ``c* = (B^H, A^H, C^H)``.  The Hermitian part
    ``(c + c*) / 2`` is the family ``A' x + A'^H conj(x) + C'``; the
    defect, the largest coefficient of ``c - c*`` per operator, is zero iff
    the output matrix is Hermitian at every phi.  The verdict, the one rule
    of hermiticity, is ``defect <= tol * max|coeffs|`` per operator.
    """
    adjoint = coeffs.take([1, 0, 2], axis=-3).conj().swapaxes(-1, -2)
    defect = np.abs(coeffs - adjoint).max(axis=(-3, -2, -1))
    size = np.abs(coeffs).max(axis=(-3, -2, -1))
    return 0.5 * (coeffs + adjoint), defect, defect <= _checked_tol(tol) * size


def is_hermitian_preserving(op: PhaseOperator, tol: float = DEFAULT_TOL) -> bool:
    """``A = B^H`` and ``C = C^H`` within ``tol * max|coeffs|`` (see :func:`hermitian_part`)."""
    return bool(hermitian_part(op.coeffs, tol)[2])


def _tensor(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Kronecker products of ``(3, ..., d1, d1)`` and ``(3, ..., d2, d2)`` coefficient stacks."""
    d1, d2 = c1.shape[-1], c2.shape[-1]
    prod = mul(c1[..., :, None, :, None], c2[..., None, :, None, :])
    return prod.reshape(prod.shape[:-4] + (d1 * d2, d1 * d2))


def tensor(o1: PhaseOperator, o2: PhaseOperator) -> np.ndarray:
    """Kronecker product with entrywise polynomial multiplication.

    Returns a ``(5, d1*d2, d1*d2)`` array over degrees -2..2 (see
    :func:`phaseclone.trigpoly.mul`); entries may carry genuine
    second-order content.
    """
    return _tensor(o1.coeffs, o2.coeffs)


def _marginal_traces(out1: np.ndarray, out2: np.ndarray) -> tuple:
    """The ``(3, N)`` traces ``P`` of ``(3, N, ., .)`` out1 stacks, and the one zero-probability rule.

    Also the ``(N,)`` largest coefficient moduli of ``P``, out1 and out2 and of ``tr out2 - P``,
    and whether ``P`` is nonzero: not negligible next to out1.
    """
    P = out1.trace(axis1=-2, axis2=-1)
    size, (size1, size2) = np.abs(P).max(axis=0), (np.abs(c).max(axis=(0, 2, 3)) for c in (out1, out2))
    gap = np.abs(out2.trace(axis1=-2, axis2=-1) - P).max(axis=0)
    return P, size, size1, size2, gap, ~_negligible(size, size1)


def _relation(
    joint: np.ndarray, out1: np.ndarray, out2: np.ndarray, tol: float, remainder=None
) -> tuple:
    """The arrays of :func:`validate_triple` on the ``(N, 3, ., .)`` stacks of one ``(d1, d2)``.

    Returns the ``(3, N)`` traces ``P`` of out1, the ``(4, N)`` largest
    coefficient moduli of ``P``, the joint, out1 and out2, and per member
    whether ``P`` is nonzero, whether the traces agree, the relation
    residual, whether it holds and whether the partial traces agree; a check
    passes within ``tol`` times the largest modulus of joint, out1 and out2.
    Last, the ``(5, N, d1 d2, d1 d2)`` cross term ``joint * P - out1 (x) out2``
    over degrees -2..2, whose largest modulus is the residual's numerator.
    For joints assembled as the quotients of ``out1 (x) out2`` by ``P``, the
    ``(N,)`` ``remainder`` may give that modulus, their division remainder's
    (``search._assemble``); the cross term is then not formed and is ``None``.
    """
    d1, d2 = out1.shape[-1], out2.shape[-1]
    joint, out1, out2 = (stack.swapaxes(0, 1) for stack in (joint, out1, out2))
    P, size, size1, size2, gap, nonzero = _marginal_traces(out1, out2)
    sizes = np.array([size, np.abs(joint).max(axis=(0, 2, 3)), size1, size2])
    scale = sizes[1:].max(axis=0)
    gap = np.maximum(gap, np.abs(joint.trace(axis1=-2, axis2=-1) - P).max(axis=0))
    traces_equal = gap <= tol * scale
    cross = None if remainder is not None else mul(joint, P[..., None, None]) - _tensor(out1, out2)
    numerator = remainder if cross is None else np.abs(cross).max(axis=(0, 2, 3))
    residual = numerator / np.where(nonzero, size, 1.0)
    blocks = joint.reshape(joint.shape[:2] + (d1, d2, d1, d2))
    gaps = (blocks.trace(axis1=3, axis2=5) - out1, blocks.trace(axis1=2, axis2=4) - out2)
    partial = np.maximum(*(np.abs(gap).max(axis=(0, 2, 3)) for gap in gaps))
    holds, partial_ok = residual <= tol * scale, partial <= tol * scale
    return P, sizes, nonzero, traces_equal, residual, holds, partial_ok, cross


def _relation_reports(relation: tuple) -> list[RelationReport | None]:
    """A :class:`RelationReport` per member of :func:`_relation` (its arrays but the cross term);
    ``None`` where ``P`` vanishes."""
    P, _, *verdicts = relation
    rows = zip(P.T.tolist(), *(a.tolist() for a in verdicts))
    return [
        RelationReport(FirstOrderPoly(*p), equal, holds, partial, r) if ok else None
        for p, ok, equal, r, holds, partial in rows
    ]


def _groups(triples) -> list[tuple[list[int], tuple]]:
    """The indices of the triples of each ``(d1, d2)`` and their joint, out1 and out2 stacks."""
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(triples):
        groups.setdefault((t.out1.dim, t.out2.dim), []).append(i)
    names = ("joint", "out1", "out2")
    return [
        (members, tuple(np.array([getattr(triples[i], n).coeffs for i in members]) for n in names))
        for members in groups.values()
    ]


def validate_triple(t: UncorrelatedTriple, tol: float = DEFAULT_TOL) -> RelationReport:
    """Check traces, the product relation and the partial traces of a triple.

    The relation is tested cross-multiplied, ``joint * P = out1 (x) out2``,
    with no division; ``max_residual``, the largest coefficient of the
    difference divided by ``max|P|``, reads in the units of the joint block.
    Each check passes within ``tol`` times the triple's largest coefficient.
    This is the structure stage's :func:`_relation` on a stack of one.
    """
    stacks = (t.joint.coeffs[None], t.out1.coeffs[None], t.out2.coeffs[None])
    (report,) = _relation_reports(_relation(*stacks, _checked_tol(tol))[:-1])
    if report is None:
        raise ZeroProbabilityError("trace polynomial vanishes identically")
    return report


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


def normalized_output(op: PhaseOperator, P: FirstOrderPoly, phi: float) -> np.ndarray:
    """The output state ``op(phi) / P(phi)``.

    Raises :class:`ZeroProbabilityAtPhaseError` when ``|P(phi)|`` is at most
    ``DEFAULT_TOL * max|P|``; there is no output at phases of zero success
    probability.
    """
    denom = P.eval(phi)
    if abs(denom) <= DEFAULT_TOL * P.max_abs():
        raise ZeroProbabilityAtPhaseError(f"P({phi}) = {denom} is numerically zero")
    return eval_matrix(op, phi) / denom
