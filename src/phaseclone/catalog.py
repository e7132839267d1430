"""Reference constructions used as ground truth by tests and the CLI.

Six named entries, each carrying the exact coefficient matrices together
with the properties the construction is supposed to exhibit:

* ``counterexample``       hermitian-preserving triple satisfying the
                           product relation with both normalized outputs
                           phase-dependent; not a positive family.
* ``case1-example``        positive diagonal triple whose first output is
                           a constant multiple of the probability.
* ``case3-example``        the same maps with the two systems swapped.
* ``footnote-linear-only`` linear but not hermitian-preserving maps whose
                           joint block stays first-order.
* ``projective-discard``   measure-and-discard maps with constant success
                           probability q.
* ``phase-state``          the input density matrix itself (single
                           operator, not a triple).

All dyadic coefficients are exactly representable, so comparisons against
these entries can use tolerance 1e-12 (1e-10 where sqrt(3) appears).
"""

from __future__ import annotations

from dataclasses import dataclass

from .trigpoly import FirstOrderPoly
from .operators import (
    JointPhaseOperator,
    PhaseOperator,
    PhaseState,
    UncorrelatedTriple,
    phase_state_operator,
)
from .analysis import CaseLabel

__all__ = [
    "NAMES",
    "CatalogEntry",
    "ExpectedProperties",
    "UnknownNameError",
    "builtin",
    "swap_systems",
]

NAMES = (
    "counterexample",
    "case1-example",
    "case3-example",
    "footnote-linear-only",
    "projective-discard",
    "phase-state",
)


class UnknownNameError(ValueError):
    """Requested catalog entry does not exist."""


@dataclass(frozen=True)
class ExpectedProperties:
    """Asserted behaviour of an entry; None means no claim."""

    hermitian_preserving: bool | None = None
    relation_holds: bool | None = None
    positive: bool | None = None
    case: CaseLabel | None = None
    out1_phase_dependent: bool | None = None
    out2_phase_dependent: bool | None = None


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    payload: UncorrelatedTriple | PhaseOperator
    expected: ExpectedProperties


def _fp(a, b, c) -> FirstOrderPoly:
    return FirstOrderPoly(a, b, c)


def swap_systems(t: UncorrelatedTriple) -> UncorrelatedTriple:
    """Interchange system 1 with system 2 in a triple."""
    d1, d2 = t.out1.dim, t.out2.dim
    blocks = t.joint.coeffs.reshape(3, d1, d2, d1, d2).transpose(0, 2, 1, 4, 3)
    joint = JointPhaseOperator(blocks.reshape(3, d1 * d2, d1 * d2), dim1=d2, dim2=d1)
    return UncorrelatedTriple(joint=joint, out1=t.out2, out2=t.out1)


def _counterexample_triple() -> UncorrelatedTriple:
    # Both marginals share the same matrix; the joint block is the tensor
    # product divided by the trace (1/4)(e^{i phi}+1)(e^{-i phi}+1).
    diag = _fp(0.125, 0.125, 0.25)
    out = PhaseOperator.from_rows(
        [
            [diag, _fp(0, 1, 1)],
            [_fp(1, 0, 1), diag],
        ]
    )
    jdiag = _fp(0.0625, 0.0625, 0.125)
    up = _fp(0, 0.5, 0.5)    # (1/2)(e^{-i phi} + 1)
    dn = _fp(0.5, 0, 0.5)    # (1/2)(e^{i phi} + 1)
    joint = JointPhaseOperator.from_rows(
        (
            (jdiag, up, up, _fp(0, 4, 0)),
            (dn, jdiag, _fp(0, 0, 4), up),
            (dn, _fp(0, 0, 4), jdiag, up),
            (_fp(4, 0, 0), dn, dn, jdiag),
        ),
        dim1=2,
        dim2=2,
    )
    return UncorrelatedTriple(joint=joint, out1=out, out2=out)


def _case1_triple() -> UncorrelatedTriple:
    # Trace polynomial (cos phi + 2)/4 with root pair 2 +- sqrt(3); the
    # first output is half the probability times the identity.
    half_p = _fp(0.0625, 0.0625, 0.25)
    zero = FirstOrderPoly.zero()
    out1 = PhaseOperator.from_rows([[half_p, zero], [zero, half_p]])
    out2 = PhaseOperator.from_rows(
        [
            [_fp(0.125, 0.125, 0.25), zero],
            [zero, _fp(0, 0, 0.25)],
        ]
    )
    jslot = _fp(0.0625, 0.0625, 0.125)
    jconst = _fp(0, 0, 0.125)
    joint = JointPhaseOperator.from_rows(
        (
            (jslot, zero, zero, zero),
            (zero, jconst, zero, zero),
            (zero, zero, jslot, zero),
            (zero, zero, zero, jconst),
        ),
        dim1=2,
        dim2=2,
    )
    return UncorrelatedTriple(joint=joint, out1=out1, out2=out2)


def _footnote_triple() -> UncorrelatedTriple:
    # Linear-only maps: the phase dependence splits across the two outputs
    # and every joint entry stays first-order, but hermiticity fails.
    zero = FirstOrderPoly.zero()
    one = _fp(0, 0, 1)
    ep = _fp(1, 0, 0)
    em = _fp(0, 1, 0)
    out1 = PhaseOperator.from_rows([[one, zero], [ep, zero]])
    out2 = PhaseOperator.from_rows([[one, zero], [em, zero]])
    joint = JointPhaseOperator.from_rows(
        (
            (one, zero, zero, zero),
            (em, zero, zero, zero),
            (ep, zero, zero, zero),
            (one, zero, zero, zero),
        ),
        dim1=2,
        dim2=2,
    )
    return UncorrelatedTriple(joint=joint, out1=out1, out2=out2)


def _projective_discard_triple(q: float) -> UncorrelatedTriple:
    # Projective measurement onto |0>, discard on the other outcome, then
    # prepare |0> in the second system.  On the phase-set the success
    # probability is the constant q and both outputs are the fixed |0><0|.
    PhaseState(q)  # validates the range
    zero = FirstOrderPoly.zero()
    out = PhaseOperator.from_rows([[_fp(0, 0, q), zero], [zero, zero]])
    jrows = [[zero] * 4 for _ in range(4)]
    jrows[0][0] = _fp(0, 0, q)
    joint = JointPhaseOperator.from_rows(jrows, dim1=2, dim2=2)
    return UncorrelatedTriple(joint=joint, out1=out, out2=out)


def builtin(name: str, q: float = 0.5) -> CatalogEntry:
    """Return a named catalog entry; ``q`` feeds the q-parameterized ones."""
    if name == "counterexample":
        return CatalogEntry(
            name=name,
            payload=_counterexample_triple(),
            expected=ExpectedProperties(
                hermitian_preserving=True,
                relation_holds=True,
                positive=False,
                case=CaseLabel.CASE2,
                out1_phase_dependent=True,
                out2_phase_dependent=True,
            ),
        )
    if name == "case1-example":
        return CatalogEntry(
            name=name,
            payload=_case1_triple(),
            expected=ExpectedProperties(
                hermitian_preserving=True,
                relation_holds=True,
                positive=True,
                case=CaseLabel.CASE1,
                out1_phase_dependent=False,
                out2_phase_dependent=True,
            ),
        )
    if name == "case3-example":
        return CatalogEntry(
            name=name,
            payload=swap_systems(_case1_triple()),
            expected=ExpectedProperties(
                hermitian_preserving=True,
                relation_holds=True,
                positive=True,
                case=CaseLabel.CASE3,
                out1_phase_dependent=True,
                out2_phase_dependent=False,
            ),
        )
    if name == "footnote-linear-only":
        return CatalogEntry(
            name=name,
            payload=_footnote_triple(),
            expected=ExpectedProperties(
                hermitian_preserving=False,
                relation_holds=True,
                out1_phase_dependent=True,
                out2_phase_dependent=True,
            ),
        )
    if name == "projective-discard":
        return CatalogEntry(
            name=name,
            payload=_projective_discard_triple(q),
            expected=ExpectedProperties(
                hermitian_preserving=True,
                relation_holds=True,
                positive=True,
                case=CaseLabel.CONSTANT_PROBABILITY,
                out1_phase_dependent=False,
                out2_phase_dependent=False,
            ),
        )
    if name == "phase-state":
        return CatalogEntry(
            name=name,
            payload=phase_state_operator(q),
            expected=ExpectedProperties(hermitian_preserving=True, positive=True),
        )
    raise UnknownNameError(f"no catalog entry named {name!r}; known: {', '.join(NAMES)}")
