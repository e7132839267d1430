"""Classification and theorem checks for uncorrelated phase-set cloning.

The factored probability ``e^{i phi} P(phi) = alpha (x + p0)(x + p1)`` must
have its two factors supplied, entry by entry, by the product of the two
marginal outputs.  Inspecting how the factors are inlaid into the entries
of the second output splits every phase-dependent triple into three cases:

* Case 1: some nonzero entry of out2 contains neither factor.  Then every
  entry of out1 must contain both, i.e. out1 = P * Gamma1 is a constant
  multiple of the probability and its normalized output state is
  phase-independent.
* Case 2: no such entry, but some nonzero entry of out2 misses exactly one
  factor.  Then every entry of out1 contains the missing factor; with
  positivity this again forces out1 = P * Gamma1.
* Case 3: every nonzero entry of out2 contains both factors, so out2
  itself is P * Gamma2 and phase-independent.

In each case at least one output is phase-independent once the maps are
hermitian-preserving and positive, which is the theorem the randomized
search in :mod:`phaseclone.search` exercises.  For a double root
(p0 = p1, the boundary r = 1) "both factors" means root multiplicity two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .trigpoly import (
    ZERO_COEFF_REL,
    AffineForm,
    FirstOrderPoly,
    FullForm,
    contains_root,
    factorize,
    has_second_order,
)
from .operators import (
    PhaseOperator,
    RelationReport,
    UncorrelatedTriple,
    ZeroProbabilityError,
    is_hermitian_preserving,
    tensor,
    trace_poly,
    validate_triple,
)
from .positivity import (
    DEFAULT_GRID,
    DEFAULT_TOL,
    ConstantProbabilityError,
    NotPositiveError,
    NotRealValuedError,
    PositivityVerdict,
    decompose_probability,
    is_positive_over_phase,
)

__all__ = [
    "ROOT_MATCH_TOL",
    "CaseLabel",
    "EntryForm",
    "CaseVerdict",
    "ConstantOperator",
    "CloningReport",
    "PreconditionError",
    "output_depends_on_phase",
    "classify",
    "case2_forcing_check",
    "deterministic_tensor_obstruction",
    "analyze",
]

#: Relative tolerance for matching factor roots (scaled by max(1, |root|)).
ROOT_MATCH_TOL = 1e-8

#: Root pairs closer than this (relative) are treated as one double root.
#: Near the positivity boundary r = 1 the solved r carries a square-root
#: amplification of coefficient round-off (~1e-8 from one ulp), so the
#: degenerate band must sit well above it; genuine distinct roots in the
#: sampled families stay separated by more than 0.1.
DEGENERATE_ROOT_BAND = 1e-6


class PreconditionError(RuntimeError):
    """A check was invoked outside its validity domain."""


class CaseLabel(enum.Enum):
    CONSTANT_PROBABILITY = "constant probability"
    CASE1 = "Case 1"
    CASE2 = "Case 2"
    CASE3 = "Case 3"


@dataclass(frozen=True)
class EntryForm:
    """Shape of one out1 entry in Case 2.

    ``m = 0`` means the affine shape ``scale * (p0 conj(x) + 1)`` carrying
    only the forced factor; ``m = 1`` means the full shape with a second
    factor root ``f``.  ``scale`` is the scale of the entry's factored form.
    """

    m: int
    f: complex | None
    scale: complex


@dataclass(frozen=True)
class CaseVerdict:
    label: CaseLabel
    entry_forms: dict | None = None

    def __str__(self) -> str:
        return self.label.value


@dataclass(frozen=True)
class ConstantOperator:
    """Phase-independent unit-trace matrix (trace = 1 within 1e-10)."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(complex(z) for z in row) for row in self.entries)
        d = len(rows)
        if d < 1 or any(len(row) != d for row in rows):
            raise ValueError("entries must form a nonempty square matrix")
        tr = sum(rows[i][i] for i in range(d))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace must be 1 within 1e-10, got {tr}")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)


@dataclass(frozen=True)
class CloningReport:
    """Full verdict of :func:`analyze` on one triple."""

    hp_joint: bool
    hp_out1: bool
    hp_out2: bool
    relation: RelationReport | None
    relation_ok: bool
    probability: object  # ProbabilityDecomposition or an error tag string
    positivity_joint: PositivityVerdict | None
    positivity_out1: PositivityVerdict | None
    positivity_out2: PositivityVerdict | None
    case: CaseVerdict | None
    out1_phase_dependent: bool | None
    out2_phase_dependent: bool | None
    theorem_consistent: bool

    @property
    def hp_ok(self) -> bool:
        return self.hp_joint and self.hp_out1 and self.hp_out2

    @property
    def all_positive(self) -> bool:
        verdicts = (self.positivity_joint, self.positivity_out1, self.positivity_out2)
        return all(v is not None and v.positive for v in verdicts)


def _nonzero_entries(op: PhaseOperator):
    threshold = ZERO_COEFF_REL * (1.0 + op.max_abs())
    for i in range(op.dim):
        for j in range(op.dim):
            e = op.entries[i][j]
            if e.max_abs() > threshold:
                yield i, j, e


def output_depends_on_phase(
    out: PhaseOperator, P: FirstOrderPoly, tol: float = DEFAULT_TOL
) -> tuple[bool, ConstantOperator | None]:
    """Decide whether the normalized output state varies with the phase.

    Each entry ``e`` is projected onto ``P`` in coefficient space,
    ``gamma = <e, P> / <P, P>``; the output is phase-independent iff every
    entry matches ``gamma * P`` coefficientwise within tol.  On success the
    constant matrix ``gamma`` is returned trace-normalized.
    """
    scale = max(1.0, P.max_abs(), out.max_abs())
    if P.max_abs() <= ZERO_COEFF_REL * (1.0 + out.max_abs()):
        raise ZeroProbabilityError("probability polynomial vanishes identically")

    p = P.coeffs
    gamma = np.tensordot(p.conj(), out.coeffs, axes=1) / np.vdot(p, p).real
    if np.abs(out.coeffs - gamma * p[:, None, None]).max() > tol * scale:
        return True, None

    tr = np.trace(gamma)
    if abs(tr) < 1e-9:
        return False, None
    return False, ConstantOperator((gamma / tr).tolist())


def _root_content(entry, p0: complex, p1: complex, degenerate: bool, root_tol: float):
    """(has_both, has_exactly_one, has_neither) for one entry."""
    m0 = contains_root(entry, p0, root_tol)
    if degenerate:
        return m0 >= 2, m0 == 1, m0 == 0
    m1 = contains_root(entry, p1, root_tol)
    both = m0 >= 1 and m1 >= 1
    neither = m0 == 0 and m1 == 0
    return both, (not both and not neither), neither


def _entry_forms(out1: PhaseOperator, forced: complex, root_tol: float) -> dict:
    forms = {}
    limit = root_tol * max(1.0, abs(forced))
    for i, j, entry in _nonzero_entries(out1):
        form = factorize(entry)
        if isinstance(form, FullForm):
            # The factor forced by the relation is one of the two roots; the
            # free one is recorded as f.
            if abs(form.w0 - forced) <= limit:
                f = form.w1
            else:
                f = form.w0
            forms[(i, j)] = EntryForm(m=1, f=f, scale=form.scale)
        elif isinstance(form, AffineForm):
            forms[(i, j)] = EntryForm(m=0, f=None, scale=form.scale)
        else:
            forms[(i, j)] = EntryForm(m=0, f=None, scale=form.b)
    return forms


def classify(t: UncorrelatedTriple, tol: float = DEFAULT_TOL) -> CaseVerdict:
    """Assign one of the three factor-inlay cases (or constant probability).

    Assumes the triple already passed :func:`validate_triple` and the
    hermiticity checks.  Propagates the probability-decomposition errors
    for non-real or negative traces.
    """
    P = trace_poly(t.out1)
    try:
        dec = decompose_probability(P, tol)
    except ConstantProbabilityError:
        return CaseVerdict(CaseLabel.CONSTANT_PROBABILITY)
    p0, p1 = dec.p0, dec.p1
    degenerate = abs(p0 - p1) <= DEGENERATE_ROOT_BAND * max(1.0, abs(p0))
    if degenerate:
        # Collapse the pinched pair to its midpoint and widen the matching
        # radius past the square-root noise in both the pair and the entries.
        p0 = p1 = 0.5 * (p0 + p1)
        root_tol = 2.0 * DEGENERATE_ROOT_BAND
    else:
        root_tol = ROOT_MATCH_TOL

    any_single = False
    missing_root = None
    for _i, _j, entry in _nonzero_entries(t.out2):
        both, single, neither = _root_content(entry, p0, p1, degenerate, root_tol)
        if neither:
            return CaseVerdict(CaseLabel.CASE1)
        if single and not any_single:
            any_single = True
            if degenerate:
                missing_root = p0
            else:
                missing_root = p0 if contains_root(entry, p0, root_tol) == 0 else p1
    if any_single:
        return CaseVerdict(
            CaseLabel.CASE2, entry_forms=_entry_forms(t.out1, missing_root, root_tol)
        )
    return CaseVerdict(CaseLabel.CASE3)


def case2_forcing_check(
    t: UncorrelatedTriple,
    tol: float = DEFAULT_TOL,
    n: int = DEFAULT_GRID,
) -> bool:
    """Verify the positivity-forced structure of out1 in a Case-2 triple.

    Precondition (raises :class:`PreconditionError` otherwise): the triple
    classifies as Case 2 and all three operators are positive.  Positivity
    then forces every out1 entry to be a constant multiple of P with
    nonnegative real diagonal weights, making the normalized first output
    phase-independent.  Returns False when the forced structure fails,
    which would contradict the theorem.
    """
    verdict = classify(t, tol)
    if verdict.label is not CaseLabel.CASE2:
        raise PreconditionError(f"triple classifies as {verdict}, not Case 2")
    for name, op in (("joint", t.joint), ("out1", t.out1), ("out2", t.out2)):
        if not is_positive_over_phase(op, tol, n).positive:
            raise PreconditionError(f"{name} is not a positive family")

    P = trace_poly(t.out1)
    dependent, gamma = output_depends_on_phase(t.out1, P, tol)
    if dependent or gamma is None:
        return False
    for i in range(gamma.dim):
        g = gamma.entries[i][i]
        if abs(g.imag) > tol or g.real < -tol:
            return False
    return True


def deterministic_tensor_obstruction(
    o1: PhaseOperator, o2: PhaseOperator, tol: float = 1e-10
) -> bool:
    """Second-order content in the tensor product of two outputs.

    For hermitian-preserving, phase-dependent outputs the product always
    contains an e^{+-2 i phi} term, which no linear map can produce on the
    phase-set when the success probability is constant.  Returns True iff
    some entry of the tensor has second-order content above ``tol``.
    """
    return has_second_order(tensor(o1, o2), tol)


def analyze(
    t: UncorrelatedTriple,
    tol: float = DEFAULT_TOL,
    grid_points: int = DEFAULT_GRID,
) -> CloningReport:
    """Run every check on a triple and summarise the verdicts.

    Failures are recorded in the report rather than raised.  The report is
    theorem-consistent unless the triple is simultaneously
    hermitian-preserving, relation-satisfying, positive on all three
    operators and phase-dependent on both outputs, which the no-cloning
    theorem forbids.
    """
    hp_joint = is_hermitian_preserving(t.joint, tol)
    hp_out1 = is_hermitian_preserving(t.out1, tol)
    hp_out2 = is_hermitian_preserving(t.out2, tol)

    try:
        relation = validate_triple(t, tol)
        relation_ok = relation.all_ok
    except ZeroProbabilityError:
        relation = None
        relation_ok = False

    P = trace_poly(t.out1)
    zero_probability = P.max_abs() <= ZERO_COEFF_REL * (1.0 + t.out1.max_abs())

    probability: object
    if zero_probability:
        probability = "zero-probability"
    else:
        try:
            probability = decompose_probability(P, tol)
        except ConstantProbabilityError:
            probability = "constant-probability"
        except NotRealValuedError:
            probability = "not-real-valued"
        except NotPositiveError:
            probability = "not-positive"

    def _verdict(op, hp_flag):
        if not hp_flag:
            return None
        return is_positive_over_phase(op, tol, grid_points)

    positivity_joint = _verdict(t.joint, hp_joint)
    positivity_out1 = _verdict(t.out1, hp_out1)
    positivity_out2 = _verdict(t.out2, hp_out2)

    case: CaseVerdict | None = None
    if probability == "constant-probability":
        case = CaseVerdict(CaseLabel.CONSTANT_PROBABILITY)
    elif not isinstance(probability, str) and relation_ok and hp_joint and hp_out1 and hp_out2:
        case = classify(t, tol)

    dep1 = dep2 = None
    if not zero_probability:
        try:
            dep1, _ = output_depends_on_phase(t.out1, P, tol)
            dep2, _ = output_depends_on_phase(t.out2, P, tol)
        except ZeroProbabilityError:
            dep1 = dep2 = None

    all_positive = all(
        v is not None and v.positive
        for v in (positivity_joint, positivity_out1, positivity_out2)
    )
    theorem_consistent = not (
        all_positive
        and hp_joint
        and hp_out1
        and hp_out2
        and relation_ok
        and bool(dep1)
        and bool(dep2)
    )

    return CloningReport(
        hp_joint=hp_joint,
        hp_out1=hp_out1,
        hp_out2=hp_out2,
        relation=relation,
        relation_ok=relation_ok,
        probability=probability,
        positivity_joint=positivity_joint,
        positivity_out1=positivity_out1,
        positivity_out2=positivity_out2,
        case=case,
        out1_phase_dependent=dep1,
        out2_phase_dependent=dep2,
        theorem_consistent=theorem_consistent,
    )
