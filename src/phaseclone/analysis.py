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

The split is decided on coefficient arrays: every out2 entry of an
``(N, 3, d, d)`` stack is evaluated at each member's factor roots (at a
double root, its slope too), each test relative to the entry's own size;
the label follows from the fewest factors a nonzero entry carries.
:func:`classify` runs the same split on a stack of one.  Lemma L2b reads
the same multiplicities of both outputs at a double root: a Hermitian
output whose entries all vanish there is not positive if a diagonal entry
has a simple root, or if every diagonal entry has a double root and an
off-diagonal one a simple root.

Triples are checked as coefficient stacks, one ``(N, 3, ., .)`` stack
each of joints, out1s and out2s per pair of marginal dimensions.  A
structure stage gives, as arrays over the members, the verdicts
(hermiticity, the relation and the probability decomposition) in one
half and the case analysis (phase dependence, a case code, L2b and the
members that need the certificate, the only ones whose verdict
positivity decides) in the other.  out1 and out2 form one ``(2, N, 3, d,
d)`` stack, the smaller zero-padded to the larger ``d``, so for every
shape each per-output test (the Hermitian part, the projection, the root
multiplicities) takes both outputs in one call.  :func:`analyze` and
:func:`analyze_many` run both halves, certify every operator and build
one report per triple, where codes become labels.
``theorem_consistent`` reads L2b and the outputs' verdicts only: where the
relation holds the joint is positive iff both outputs are, so its verdict
is an audit the report carries.  The CLI ``check`` runs the verdict half
and the certificate only.  The randomized search assembles each joint as
the quotient of ``out1 (x) out2`` by ``P``, so a block's relation residual
is its division remainder, handed to the stage rather than formed again;
it tallies from the stage's arrays, with no object per trial, and
certifies only the outputs of the members that need the certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .trigpoly import ALGEBRA_TOL, FirstOrderPoly, _checked_tol, _negligible, has_second_order
from .operators import (
    PhaseOperator,
    RelationReport,
    UncorrelatedTriple,
    ZeroProbabilityError,
    _groups,
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
)

__all__ = [
    "CaseLabel",
    "CloningReport",
    "classify",
    "deterministic_tensor_obstruction",
    "analyze",
    "analyze_many",
]

#: Root pairs closer than this (relative) are treated as one double root.
#: Near the positivity boundary r = 1 the solved r carries a square-root
#: amplification of coefficient round-off (~1e-8 from one ulp), so the
#: degenerate band must sit well above it; genuine distinct roots in the
#: sampled families stay separated by more than 0.1.
DEGENERATE_ROOT_BAND = 1e-6


class CaseLabel(enum.Enum):
    CONSTANT_PROBABILITY = "constant probability"
    CASE1 = "Case 1"
    CASE2 = "Case 2"
    CASE3 = "Case 3"


#: The labels of the stage's case codes (-1: none); out2 entries all carrying >= k factors give 1 + k.
_LABELS = (CaseLabel.CONSTANT_PROBABILITY, CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3)


@dataclass(frozen=True)
class CloningReport:
    """Full verdict of :func:`analyze` on one triple."""

    hp_joint: bool
    hp_out1: bool
    hp_out2: bool
    relation: RelationReport | None
    relation_ok: bool
    probability: ProbabilityDecomposition | str  # a tag string where there is none
    positivity_joint: PositivityVerdict | None
    positivity_out1: PositivityVerdict | None
    positivity_out2: PositivityVerdict | None
    case: CaseLabel | None
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


def _projection(outs: np.ndarray, p: np.ndarray, scale: np.ndarray, tol: float) -> tuple:
    """``gamma = <e, P> / <P, P>`` per entry of an ``(N, 3, d, d)`` stack of outputs.

    ``p`` holds the ``(N, 3)`` coefficients of their probabilities and
    ``scale`` the larger of ``max|P|`` and ``max|out|`` per output.  Also
    returns, per output, whether some entry differs from ``gamma * P`` by
    more than ``tol * scale``: a phase-dependent output.  An ``(2, N, 3, d,
    d)`` stack of out1 and out2 with ``(2, N)`` scales is judged in one call.
    """
    p = p[..., None, None]
    gamma = (p.conj() * outs).sum(axis=-3) / (p.conj() * p).real.sum(axis=-3)
    residual = np.abs(outs - gamma[..., None, :, :] * p).max(axis=(-3, -2, -1))
    return gamma, residual > tol * scale


def _multiplicity(outs: np.ndarray, decs: list, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """How many factors of ``P`` each entry of an ``(N, 3, d, d)`` stack carries, as ``(N, d * d)``.

    Per member, ``decs`` holds the decomposition of its ``P``, whose factor
    ``x + z`` vanishes at ``x = -z``.  An entry ``(a, b, c)`` carries it iff
    ``a z^2 - c z + b`` (``x`` times its value there) is at most ``tol``
    times its own ``max|coeff|`` times ``max(1, |z|)^2``.  Roots closer than
    ``DEGENERATE_ROOT_BAND`` are one double root at their midpoint (``P``'s
    minimum is then below ``1e-12 * |alpha|``), and an entry that carries it
    carries it twice iff its slope ``2 a z - c`` is at most ``tol`` times its
    ``max|coeff|`` times ``max(1, |z|)``.  An entry negligible next to the
    largest of its output (``trigpoly._negligible``) carries both.  Also
    returns, per member, whether its roots are one double root.
    """
    z = np.array([(d.p0, d.p1) for d in decs]).T[..., None]
    double = np.abs(z[0] - z[1]) <= DEGENERATE_ROOT_BAND * np.maximum(1.0, np.abs(z[0]))
    z = np.where(double, 0.5 * (z[0] + z[1]), z)
    e = outs.reshape(len(outs), 3, -1)
    a, b, c = e[:, 0], e[:, 1], e[:, 2]
    size = np.abs(e).max(axis=1)
    reach = np.maximum(1.0, np.abs(z))
    zero = np.abs((a * z - c) * z + b) <= tol * size * reach * reach
    slope = np.abs(2.0 * a * z[0] - c) <= tol * size * reach[0]
    found = zero[0] + np.where(double, zero[0] & slope, zero[1]).astype(np.intp)
    found[_negligible(size, size.max(axis=1, keepdims=True))] = 2
    return found, double[:, 0]


def _nonpositive(found: np.ndarray, d: int) -> np.ndarray:
    """Lemma L2b on the ``(N, d * d)`` multiplicities of d x d outputs at a double root of ``P``.

    True where the output is not positive: a diagonal entry with a simple
    root changes sign there, and where every diagonal entry has a double
    root, an off-diagonal one with a simple root makes a 2 x 2 principal
    minor negative next to it.
    """
    found = found.reshape(-1, d, d)
    diagonal = found.diagonal(axis1=1, axis2=2)
    return (diagonal == 1).any(axis=1) | ((diagonal == 2).all(axis=1) & (found == 1).any(axis=(1, 2)))


def classify(t: UncorrelatedTriple, tol: float = DEFAULT_TOL) -> CaseLabel:
    """Assign one of the three factor-inlay cases (or constant probability).

    Assumes the triple already passed :func:`validate_triple` and the
    hermiticity checks.  Raises :class:`ZeroProbabilityError` where ``P``
    vanishes next to out1 (the rule of ``operators._relation``), as
    :func:`validate_triple` does, and propagates the
    probability-decomposition errors for non-real or negative traces.  This
    is the structure stage's :func:`_multiplicity` on a stack of one.
    """
    tol = _checked_tol(tol)
    P = trace_poly(t.out1)
    if _negligible(P.max_abs(), t.out1.max_abs()):
        raise ZeroProbabilityError("trace polynomial vanishes identically")
    try:
        dec = decompose_probability(P, tol)
    except ConstantProbabilityError:
        return CaseLabel.CONSTANT_PROBABILITY
    return _LABELS[1 + int(_multiplicity(t.out2.coeffs[None], [dec], tol)[0].min())]


def deterministic_tensor_obstruction(
    o1: PhaseOperator, o2: PhaseOperator, tol: float = ALGEBRA_TOL
) -> bool:
    """Second-order content in the tensor product of two outputs.

    For hermitian-preserving, phase-dependent outputs the product always
    contains an e^{+-2 i phi} term, which no linear map can produce on the
    phase-set when the success probability is constant.  Returns True iff
    some entry of the tensor has second-order content above ``tol``.
    """
    return has_second_order(tensor(o1, o2), tol)


@dataclass(frozen=True)
class _Verdicts:
    """The verdict half of the structure stage on the N triples of one ``(d1, d2)`` group.

    ``outs`` holds the out1 and out2 stacks as one ``(2, N, 3, d, d)``
    stack, the smaller zero-padded to the larger ``d``; ``families`` the
    Hermitian parts of the joint, out1 and out2 stacks at their own
    dimensions, ``hp`` whether each operator is hermitian-preserving
    (``(3, N)``) and ``relation`` the arrays of ``operators._relation`` but
    the last, its cross term.  Per member, ``probability`` is the
    decomposition of ``P`` or a tag string.
    """

    outs: np.ndarray
    families: tuple
    hp: np.ndarray
    relation: tuple
    relation_ok: np.ndarray
    probability: list

    def operators(self, members) -> list:
        """Each member's Hermitian parts of (joint, out1, out2); ``None`` for a non-hermitian one."""
        hp = self.hp.tolist()
        return [f[m] if ok[m] else None for m in members for f, ok in zip(self.families, hp)]


@dataclass(frozen=True)
class _Structure(_Verdicts):
    """Both halves, and the classification half's verdicts as arrays over the members.

    ``dependence`` is ``(2, N)``, False where ``P`` vanishes; ``case`` indexes ``_LABELS``, -1 for
    none; ``needs_certificate`` marks hermitian-preserving, relation-satisfying, both-dependent members.
    """

    dependence: np.ndarray
    case: np.ndarray
    nonpositive: np.ndarray
    needs_certificate: np.ndarray


def _verdicts(
    joint: np.ndarray, out1: np.ndarray, out2: np.ndarray, tol: float, remainder=None
) -> _Verdicts:
    """The verdict half on the ``(N, 3, ., .)`` stacks of N triples of one ``(d1, d2)``.

    Hermiticity per operator (out1 and out2 in one call, as one padded
    stack: a zero entry adds no defect), the product relation (from
    ``remainder``, see ``operators._relation``, where given) and the
    decomposition of ``P`` (out1's trace) per member; the certificate runs
    on ``families``.
    """
    relation = _relation(joint, out1, out2, tol, remainder)[:-1]
    P, sizes, nonzero, traces_equal, _, holds, partial_ok = relation
    d1, d2 = out1.shape[-1], out2.shape[-1]
    outs = np.zeros((2, *np.maximum(out1.shape, out2.shape)), complex)
    outs[0, ..., :d1, :d1], outs[1, ..., :d2, :d2] = out1, out2
    (family, defect), (parts, defects) = hermitian_part(joint), hermitian_part(outs)
    families = family, parts[0, ..., :d1, :d1], parts[1, ..., :d2, :d2]
    hp = np.array([defect, *defects]) <= tol * sizes[1:]
    probability = [
        _probability(FirstOrderPoly(*row), tol) if ok else "zero-probability"
        for ok, row in zip(nonzero.tolist(), P.T.tolist())
    ]
    relation_ok = nonzero & traces_equal & holds & partial_ok
    return _Verdicts(outs, families, hp, relation, relation_ok, probability)


def _classification(v: _Verdicts, tol: float) -> _Structure:
    """The classification half, on the verdict half ``v``.

    The phase-dependence projection of both outputs where ``P`` does not
    vanish; the case of the hermitian-preserving, relation-satisfying
    members with a decomposed ``P``, and lemma L2b on those with a double
    root that need the certificate (both outputs phase-dependent).  Each
    test takes both outputs in one call on the padded stack ``v.outs``: a
    zero entry leaves the projection residual unchanged and carries both
    factors, so it moves neither the case nor L2b.
    """
    P, sizes, nonzero = v.relation[:3]
    checked = v.hp.all(axis=0) & v.relation_ok
    dependence = np.zeros((2, nonzero.size), bool)
    scales = np.maximum(sizes[0], sizes[2:])[:, nonzero]  # max(max|P|, max|out|)
    _, dependence[:, nonzero] = _projection(v.outs[:, nonzero], P.T[nonzero], scales, tol)
    needs = checked & dependence.all(axis=0)
    case = np.where([p == "constant-probability" for p in v.probability], 0, -1)  # ints also for N = 0
    nonpositive = np.zeros(nonzero.size, bool)
    decomposed = np.array([not isinstance(p, str) for p in v.probability], bool)
    classified = np.flatnonzero(checked & decomposed)
    if classified.size:
        d = v.outs.shape[-1]
        rows = v.outs[:, classified].reshape(-1, 3, d, d)  # out1's members, then out2's
        found, double = _multiplicity(rows, [v.probability[m] for m in classified.tolist()] * 2, tol)
        found1, found2 = found.reshape(2, classified.size, -1)
        case[classified] = 1 + found2.min(axis=1)
        lemma = double[: classified.size] & needs[classified]
        nonpositive[classified[lemma]] = _nonpositive(found1[lemma], d) | _nonpositive(found2[lemma], d)
    return _Structure(
        **vars(v), dependence=dependence, case=case, nonpositive=nonpositive, needs_certificate=needs
    )


def _structure(
    joint: np.ndarray, out1: np.ndarray, out2: np.ndarray, tol: float, remainder=None
) -> _Structure:
    """The structure stage on the ``(N, 3, ., .)`` stacks of N triples of one ``(d1, d2)``."""
    return _classification(_verdicts(joint, out1, out2, tol, remainder), tol)


def _check_verdicts(t: UncorrelatedTriple, tol: float) -> tuple:
    """What ``check`` prints, the verdict half and the certificate: the fields of :func:`analyze`.

    The :class:`RelationReport`, the (joint, out1, out2) hermiticity flags,
    the probability and the (joint, out1, out2) positivity verdicts.
    """
    v = _verdicts(t.joint.coeffs[None], t.out1.coeffs[None], t.out2.coeffs[None], tol)
    (relation,) = _relation_reports(v.relation)
    return relation, v.hp[:, 0].tolist(), v.probability[0], _certify_many(v.operators([0]), tol)


def _probability(P: FirstOrderPoly, tol: float) -> ProbabilityDecomposition | str:
    """The decomposition of a nonzero ``P``, or a tag string naming why there is none."""
    try:
        return decompose_probability(P, tol)
    except ConstantProbabilityError:
        return "constant-probability"
    except NotRealValuedError:
        return "not-real-valued"
    except NotPositiveError:
        return "not-positive"


def _consistent(needs_certificate: bool, nonpositive: bool, out1, out2) -> bool:
    """``theorem_consistent`` of a triple from the stage's ``needs_certificate``, L2b and output verdicts.

    Positivity decides nothing on a triple the stage does not mark, which
    is consistent.  A marked one is consistent if lemma L2b proves an output
    not positive, and otherwise unless both outputs are certified positive.
    Where the relation holds the joint is positive iff both outputs are (Horn
    & Johnson, Topics in Matrix Analysis, Thm 4.2.12): its verdict is not read.
    """
    positive = all(v is not None and v.positive for v in (out1, out2))
    return not (needs_certificate and not nonpositive and positive)


def _reports(s: _Structure, verdicts: list) -> list[CloningReport]:
    """The :class:`CloningReport` of each member of a structure stage.

    ``verdicts`` holds the positivity verdicts of the joint, out1 and out2
    of each member in turn, ``None`` for an operator not certified.  Here
    codes become labels and flags ``bool``, or ``None`` where ``P`` vanishes.
    """
    reports = []
    hp, dependence = s.hp.T.tolist(), s.dependence.T.tolist()
    flags = s.relation[2], s.relation_ok, s.case, s.nonpositive, s.needs_certificate
    members = zip(_relation_reports(s.relation), *(f.tolist() for f in flags))
    for k, (relation, live, relation_ok, code, nonpositive, needs_certificate) in enumerate(members):
        joint, out1, out2 = verdicts[3 * k : 3 * k + 3]
        dep1, dep2 = dependence[k] if live else (None, None)
        reports.append(
            CloningReport(
                hp_joint=hp[k][0], hp_out1=hp[k][1], hp_out2=hp[k][2],
                relation=relation, relation_ok=relation_ok, probability=s.probability[k],
                positivity_joint=joint, positivity_out1=out1, positivity_out2=out2,
                case=None if code < 0 else _LABELS[code],
                out1_phase_dependent=dep1, out2_phase_dependent=dep2,
                theorem_consistent=_consistent(needs_certificate, nonpositive, out1, out2),
            )
        )
    return reports


def analyze_many(triples, tol: float = DEFAULT_TOL) -> list[CloningReport]:
    """:func:`analyze` for each triple, with the array checks run over stacks.

    The triples are stacked once per pair of marginal dimensions; each
    group runs one structure stage, whose probability decomposition is the
    only loop over its triples, and then the certificate on every operator,
    whatever the other verdicts of its triple (a member's verdict does not
    depend on its stack).
    """
    tol = _checked_tol(tol)
    triples = list(triples)
    reports: list = [None] * len(triples)
    for members, stacks in _groups(triples):
        s = _structure(*stacks, tol)
        verdicts = _certify_many(s.operators(range(len(members))), tol)
        for i, report in zip(members, _reports(s, verdicts)):
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
