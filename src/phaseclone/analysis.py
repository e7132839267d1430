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

The split is decided on coefficient arrays: the roots of every out2 entry
of an ``(N, 3, d, d)`` stack are solved at once and matched against each
member's ``p0`` and ``p1``; the label follows from the fewest factors a
nonzero entry carries.  Only :func:`classify` factors entries one by one,
for the ``entry_forms`` of a Case 2 verdict.

Triples are checked as coefficient stacks, one ``(N, 3, ., .)`` stack
each of joints, out1s and out2s per pair of marginal dimensions.  A
structure stage gives hermiticity, the relation, the probability
decomposition, phase dependence and the case as arrays over the members;
the positivity certificate then runs on the Hermitian parts it found.
:func:`analyze`, :func:`analyze_many` and the CLI ``check`` certify every
operator and build one report per triple.  The randomized search tallies
from the stage's arrays, with no object per trial, and certifies only
the operators of triples with both outputs phase-dependent: positivity
decides nothing elsewhere.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .trigpoly import (
    ZERO_COEFF_REL,
    AffineForm,
    FirstOrderPoly,
    FullForm,
    factorize,
    has_second_order,
)
from .operators import (
    PhaseOperator,
    RelationReport,
    UncorrelatedTriple,
    ZeroProbabilityError,
    _relation,
    _relation_reports,
    hermitian_part,
    tensor,
    trace_poly,
)
from .positivity import (
    DEFAULT_TOL,
    ConstantProbabilityError,
    NotPositiveError,
    NotRealValuedError,
    PositivityVerdict,
    ProbabilityDecomposition,
    _certify_many,
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
    "analyze_many",
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


#: The label of a triple whose out2 entries carry at least this many factors each.
_CASES = (CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3)


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


def _vanishes(P: FirstOrderPoly, out: PhaseOperator) -> bool:
    return P.max_abs() <= ZERO_COEFF_REL * (1.0 + out.max_abs())


def _projection(outs: np.ndarray, p: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``gamma = <e, P> / <P, P>`` per entry of an ``(N, 3, d, d)`` stack of outputs.

    ``p`` holds the ``(N, 3)`` coefficients of their probabilities.  Also
    returns, per output, whether some entry differs from ``gamma * P`` by
    more than ``tol * max(1, max|P|, max|out|)``: a phase-dependent output.
    """
    p = p[:, :, None, None]
    gamma = (p.conj() * outs).sum(axis=1) / (p.conj() * p).real.sum(axis=1)
    residual = np.abs(outs - gamma[:, None] * p).max(axis=(1, 2, 3))
    scale = np.maximum(np.abs(p).max(axis=(1, 2, 3)), np.abs(outs).max(axis=(1, 2, 3)))
    return gamma, residual > tol * np.maximum(1.0, scale)


def output_depends_on_phase(
    out: PhaseOperator, P: FirstOrderPoly, tol: float = DEFAULT_TOL
) -> tuple[bool, ConstantOperator | None]:
    """Decide whether the normalized output state varies with the phase.

    Each entry ``e`` is projected onto ``P`` in coefficient space,
    ``gamma = <e, P> / <P, P>``; the output is phase-independent iff every
    entry matches ``gamma * P`` coefficientwise within tol.  On success the
    constant matrix ``gamma`` is returned trace-normalized.
    """
    if _vanishes(P, out):
        raise ZeroProbabilityError("probability polynomial vanishes identically")
    (gamma,), (dependent,) = _projection(out.coeffs[None], P.coeffs[None], tol)
    if dependent:
        return True, None
    tr = np.trace(gamma)
    if abs(tr) < 1e-9:
        return False, None
    return False, ConstantOperator((gamma / tr).tolist())


def _entry_forms(out1: PhaseOperator, forced: complex, limit: float) -> dict:
    forms = {}
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


def _targets(dec: ProbabilityDecomposition) -> tuple[tuple, tuple, tuple]:
    """The factor roots an out2 entry is matched against, their match radii and root caps.

    A pair closer than ``DEGENERATE_ROOT_BAND`` is one double root: its
    midpoint counts up to two entry roots, within a radius widened past
    the square-root noise in both the pair and the entries.
    """
    p0, p1 = dec.p0, dec.p1
    if abs(p0 - p1) <= DEGENERATE_ROOT_BAND * max(1.0, abs(p0)):
        z = 0.5 * (p0 + p1)
        limit = 2.0 * DEGENERATE_ROOT_BAND * max(1.0, abs(z))
        return (z, z), (limit, limit), (2, 0)
    limits = (ROOT_MATCH_TOL * max(1.0, abs(p0)), ROOT_MATCH_TOL * max(1.0, abs(p1)))
    return (p0, p1), limits, (1, 1)


def _inlay(out2: np.ndarray, targets: list) -> tuple[np.ndarray, np.ndarray]:
    """How many factors each entry of an ``(N, 3, d, d)`` out2 stack carries, as ``(N, d * d)``.

    Per member, ``targets`` holds its :func:`_targets`.  The entry roots are
    those of :func:`factorize`; an entry below ``ZERO_COEFF_REL * (1 +
    max|out2|)`` counts as carrying both factors.  Also returns the
    uncapped number of entry roots near each target, ``(N, d * d, 2)``.
    """
    z, limit, cap = (np.array(column) for column in zip(*targets))
    e = out2.reshape(len(out2), 3, -1)
    a, b, c = e[:, 0], e[:, 1], e[:, 2]
    mags = np.abs(e)
    size = mags.max(axis=1)
    small = ZERO_COEFF_REL * (1.0 + size)
    full = mags[:, 0] > small
    # Negated roots of a x^2 + c x + b: half / a and b / half, with the sign
    # of sq chosen so that c + sq does not cancel.
    sq = np.sqrt(c * c - 4.0 * a * b)
    np.negative(sq, out=sq, where=(c.conj() * sq).real < 0.0)
    half = (c + sq) * 0.5
    roots = np.empty((2,) + size.shape, dtype=complex)
    roots.fill(np.nan)
    np.divide(b, c, out=roots[0], where=mags[:, 2] > small)  # affine: w = b / c
    np.divide(half, a, out=roots[0], where=full)
    # half = 0 only for the entry a x (b = c = 0), whose roots are both 0.
    np.divide(b, half + (half == 0), out=roots[1], where=full)
    hits = np.abs(roots[..., None] - z[:, None]) <= limit[:, None]
    near = np.add(hits[0], hits[1], dtype=np.intp)
    capped = np.minimum(near, cap[:, None])
    found = np.add(capped[..., 0], capped[..., 1])
    found[size <= ZERO_COEFF_REL * (1.0 + size.max(axis=1, keepdims=True))] = 2
    return found, near


def _labels(found: np.ndarray) -> list[CaseLabel]:
    """Case 1 if a nonzero entry carries no factor, else Case 2 if one carries one, else Case 3."""
    return [_CASES[k] for k in found.min(axis=1).tolist()]


def classify(t: UncorrelatedTriple, tol: float = DEFAULT_TOL) -> CaseVerdict:
    """Assign one of the three factor-inlay cases (or constant probability).

    Assumes the triple already passed :func:`validate_triple` and the
    hermiticity checks.  Propagates the probability-decomposition errors
    for non-real or negative traces.  A Case 2 verdict carries the
    ``entry_forms`` of out1 against the factor missing from the first
    single-factor entry of out2 in row-major order.
    """
    try:
        dec = decompose_probability(trace_poly(t.out1), tol)
    except ConstantProbabilityError:
        return CaseVerdict(CaseLabel.CONSTANT_PROBABILITY)
    targets = _targets(dec)
    found, near = _inlay(t.out2.coeffs[None], [targets])
    (label,) = _labels(found)
    if label is not CaseLabel.CASE2:
        return CaseVerdict(label)
    first = int(np.argmax(found[0] == 1))
    # The entry lacks the first factor unless one of its roots lies near it;
    # a double root has both factors at its midpoint, so either names it.
    k = 1 if near[0, first, 0] else 0
    roots, limits, _ = targets
    return CaseVerdict(label, entry_forms=_entry_forms(t.out1, roots[k], limits[k]))


def case2_forcing_check(t: UncorrelatedTriple, tol: float = DEFAULT_TOL) -> bool:
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
        if not is_positive_over_phase(op, tol).positive:
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


@dataclass(frozen=True)
class _Structure:
    """The verdicts of the N triples of one ``(d1, d2)`` group that need no certificate.

    ``families`` holds the Hermitian parts of the joint, out1 and out2
    stacks, ``hp`` whether each operator is hermitian-preserving (``(3,
    N)``) and ``relation`` the arrays of ``operators._relation``.  Per
    member, ``probability`` is the decomposition of ``P`` or a tag string,
    ``dependence`` the two dependence flags (``(None, None)`` where ``P``
    vanishes) and ``case`` the :class:`CaseLabel` or ``None``.
    """

    families: tuple
    hp: np.ndarray
    relation: tuple
    relation_ok: np.ndarray
    probability: list
    dependence: list
    case: list

    def operators(self, members) -> list:
        """Each member's Hermitian parts of (joint, out1, out2); ``None`` for a non-hermitian one."""
        hp = self.hp.tolist()
        return [f[m] if ok[m] else None for m in members for f, ok in zip(self.families, hp)]


def _outputs(fn, out1: np.ndarray, out2: np.ndarray, *args) -> tuple:
    """``fn(out1, *args)`` and ``fn(out2, *args)``, one call when the output stacks have one shape.

    ``fn`` returns a tuple of arrays over the members; ``args`` are stacked alike.
    """
    if out1.shape != out2.shape:
        return fn(out1, *args), fn(out2, *args)
    n = len(out1)
    both = fn(np.concatenate([out1, out2]), *(np.concatenate([a, a]) for a in args))
    return tuple(r[:n] for r in both), tuple(r[n:] for r in both)


def _structure(joint: np.ndarray, out1: np.ndarray, out2: np.ndarray, tol: float) -> _Structure:
    """The structure stage on the ``(N, 3, ., .)`` stacks of N triples of one ``(d1, d2)``.

    Hermiticity per operator, the product relation, the decomposition of
    ``P`` (out1's trace) per member, the phase-dependence projection of
    both outputs where ``P`` does not vanish and the case label of the
    hermitian-preserving, relation-satisfying members with a decomposed
    ``P``: everything of a report but the positivity certificate.
    """
    stacks = (joint, out1, out2)
    families, defects = zip(hermitian_part(joint), *_outputs(hermitian_part, out1, out2))
    hp = np.array(defects) <= tol
    relation = _relation(*(stack.swapaxes(0, 1) for stack in stacks), tol)
    P, sizes, nonzero, traces_equal, residual, partial_ok = relation
    relation_ok = nonzero & traces_equal & (residual <= tol) & partial_ok
    zero1, zero2 = sizes[0] <= ZERO_COEFF_REL * (1.0 + sizes[2:])  # _vanishes(P, out) per output
    probability = [
        "zero-probability" if zero else _probability(FirstOrderPoly(*row), tol)
        for zero, row in zip(zero1.tolist(), P.T.tolist())
    ]
    dependence = [(None, None)] * len(probability)
    projected = np.flatnonzero(~(zero1 | zero2))
    p = np.ascontiguousarray(P.T[projected])
    project = functools.partial(_projection, tol=tol)
    (_, dep1), (_, dep2) = _outputs(project, out1[projected], out2[projected], p)
    for m, flag in zip(projected.tolist(), zip(dep1.tolist(), dep2.tolist())):
        dependence[m] = flag
    constant = CaseLabel.CONSTANT_PROBABILITY
    case = [constant if t == "constant-probability" else None for t in probability]
    checked = np.flatnonzero(relation_ok & hp.all(axis=0)).tolist()
    classified = [m for m in checked if not isinstance(probability[m], str)]
    if classified:
        found, _ = _inlay(out2[classified], [_targets(probability[m]) for m in classified])
        for m, label in zip(classified, _labels(found)):
            case[m] = label
    return _Structure(families, hp, relation, relation_ok, probability, dependence, case)


def _probability(P: FirstOrderPoly, tol: float) -> object:
    """The decomposition of a nonzero ``P``, or a tag string naming why there is none."""
    try:
        return decompose_probability(P, tol)
    except ConstantProbabilityError:
        return "constant-probability"
    except NotRealValuedError:
        return "not-real-valued"
    except NotPositiveError:
        return "not-positive"


def _consistent(relation_ok: bool, dependence: tuple, verdicts) -> bool:
    """``theorem_consistent`` of a triple from its relation, dependence flags and verdicts.

    Only a relation-satisfying triple with both outputs phase-dependent and
    all three operators positive (a verdict implies ``hp_ok``) is
    inconsistent, so the search certifies no other triple.
    """
    positive = all(v is not None and v.positive for v in verdicts)
    return not (relation_ok and all(dependence) and positive)


def _reports(s: _Structure, verdicts: list, tol: float) -> list[CloningReport]:
    """The :class:`CloningReport` of each member of a structure stage.

    ``verdicts`` holds the positivity verdicts of the joint, out1 and out2
    of each member in turn, ``None`` for an operator not certified.
    """
    reports = []
    members = zip(_relation_reports(s.relation, tol), s.hp.T.tolist(), s.relation_ok.tolist())
    for k, (relation, hp, relation_ok) in enumerate(members):
        joint, out1, out2 = positivity = verdicts[3 * k : 3 * k + 3]
        dep1, dep2 = s.dependence[k]
        reports.append(
            CloningReport(
                hp_joint=hp[0], hp_out1=hp[1], hp_out2=hp[2],
                relation=relation, relation_ok=relation_ok, probability=s.probability[k],
                positivity_joint=joint, positivity_out1=out1, positivity_out2=out2,
                case=None if s.case[k] is None else CaseVerdict(s.case[k]),
                out1_phase_dependent=dep1, out2_phase_dependent=dep2,
                theorem_consistent=_consistent(relation_ok, (dep1, dep2), positivity),
            )
        )
    return reports


def analyze_many(triples, tol: float = DEFAULT_TOL) -> list[CloningReport]:
    """:func:`analyze` for each triple, with the array checks run over stacks.

    The triples are stacked once per pair of marginal dimensions; each
    group runs one structure stage, whose probability decomposition is the
    only loop over its triples, and then the certificate on every operator,
    whatever the other verdicts of its triple (a member's verdict does not
    depend on its stack).  Case verdicts carry no ``entry_forms`` (see
    :func:`classify`).
    """
    triples = list(triples)
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(triples):
        groups.setdefault((t.out1.dim, t.out2.dim), []).append(i)
    reports: list = [None] * len(triples)
    for members in groups.values():
        stacks = (
            np.array([getattr(triples[i], name).coeffs for i in members])
            for name in ("joint", "out1", "out2")
        )
        s = _structure(*stacks, tol)
        verdicts = _certify_many(s.operators(range(len(members))), tol)
        for i, report in zip(members, _reports(s, verdicts, tol)):
            reports[i] = report
    return reports


def analyze(t: UncorrelatedTriple, tol: float = DEFAULT_TOL) -> CloningReport:
    """Run every check on a triple and summarise the verdicts.

    Failures are recorded in the report rather than raised.  The report is
    theorem-consistent unless the triple is simultaneously
    hermitian-preserving, relation-satisfying, positive on all three
    operators and phase-dependent on both outputs, which the no-cloning
    theorem forbids.  This is :func:`analyze_many` on one triple.
    """
    return analyze_many([t], tol)[0]
