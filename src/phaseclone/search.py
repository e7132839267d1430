"""Randomized search over structured families of uncorrelated map triples.

The sampler draws a positive factored probability ``P`` and then builds the
two marginal outputs from the entry shapes that can actually occur in a
hermitian-preserving triple: constant multiples of ``P``, entries carrying
one forced factor root plus a free one, and (for the double-root stratum
r = 1) real-valued diagonals whose second root is a free unit-modulus
number.  The joint blocks of a stack of draws come from dividing their
tensor products by their traces in one batched long division; draws whose
product is not divisible are rejected and counted, never silently dropped.

Per-trial randomness is seeded from (seed, trial index), so a search is
reproducible regardless of execution order.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .trigpoly import _checked_count, _checked_tol, _divide, _negligible
from .operators import DEFAULT_TOL, JointPhaseOperator, PhaseOperator, UncorrelatedTriple, _tensor
from . import analysis, operators

__all__ = [
    "SamplerParams",
    "SampleRejected",
    "assemble_triple",
    "generate_case2_candidate",
    "WitnessRecord",
    "ViolationRecord",
    "SearchReport",
    "theorem_search",
]

#: Minimum eigenvalue a phase-dependent pair must exhibit somewhere.
WITNESS_LEVEL = -1e-6

#: Trials sampled and analyzed as one stack by :func:`theorem_search`; it
#: only bounds the memory of a long search.
_BLOCK = 1024

_STRATA = (
    ("proportional", 0.15),
    ("case2", 0.25),
    ("case2-swapped", 0.10),
    ("case1", 0.15),
    ("wild", 0.25),
    ("reject", 0.10),
)


class SampleRejected(Exception):
    """The drawn outputs admit no first-order joint block."""


@dataclass(frozen=True)
class SamplerParams:
    """One knob per quantity the candidate sampler draws.

    ``|alpha|``, ``theta`` and the root modulus ``r`` of ``P`` are drawn
    uniformly from ``alpha_abs_range``, ``theta_range`` and ``r_range``; a
    range of zero width gives its value and draws nothing.  ``strata``
    weighs the six strata :func:`_draw` builds, by name; a table of one
    entry draws no stratum variate.  ``r_range`` feeds only the strata
    built on a free ``r``: ``wild`` keeps ``r = 1`` and ``reject`` draws
    ``r`` from ``[1.5, 4)``.  A fair coin decides whether ``proportional``
    draws a PSD ``Gamma``.

    Building one raises ``ValueError`` for repeated or unknown stratum
    names, weights that are not finite and >= 0 with a positive sum, or a
    range with an end that is not finite or breaks its rule (``r >= 1``,
    ``|alpha| > 0``), or with its low end above its high end.
    """

    alpha_abs_range: tuple = (0.1, 2.0)
    theta_range: tuple = (0.0, 2.0 * math.pi)
    r_range: tuple = (1.0, 4.0)
    strata: tuple = _STRATA

    def __post_init__(self):
        names = [name for name, _ in self.strata]
        weights = np.array([w for _, w in self.strata], dtype=float)
        if len(set(names)) != len(names):
            raise ValueError(f"stratum names must be unique, got {names}")
        unknown = [name for name in names if name not in dict(_STRATA)]
        if unknown:
            raise ValueError(f"unknown stratum {unknown[0]!r}; known: {', '.join(dict(_STRATA))}")
        total = weights.sum()
        if not (np.isfinite(weights).all() and (weights >= 0).all() and 0 < total < math.inf):
            raise ValueError(f"stratum weights must be finite, >= 0 and not all 0, got {weights}")
        for name, (lo, hi), rule, valid in (
            ("alpha_abs_range", self.alpha_abs_range, " and > 0", lambda v: 0.0 < v < math.inf),
            ("theta_range", self.theta_range, "", math.isfinite),
            ("r_range", self.r_range, " and >= 1", lambda v: 1.0 <= v < math.inf),
        ):
            if not (valid(lo) and valid(hi) and lo <= hi):
                raise ValueError(f"{name} must be finite{rule} with low <= high, got {(lo, hi)!r}")
        # Built as numpy's Generator.choice builds it, so searching it with
        # one rng.random() picks the stratum choice(p=weights) would pick.
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_sole", names[0] if len(names) == 1 else None)

    def _stratum(self, rng) -> str:
        """The stratum of one draw: one ``rng.random()``, or none for a table of one entry."""
        return self._sole or self._names[self._cdf.searchsorted(rng.random(), "right")]


_DEFAULT_PARAMS = SamplerParams()
_ZERO = (0j, 0j, 0j)
# The range of off-diagonal scale moduli, and how far free angles and roots keep from
# the forced ones so that phase-dependent samples show a clearly negative eigenvalue.
_OFFDIAG_SCALE_RANGE, _MIN_ANGLE_GAP, _MIN_ROOT_GAP = (0.2, 2.0), 0.7, 0.3


def _scaled(k, P: tuple) -> tuple:
    k = complex(k)
    return (P[0] * k, P[1] * k, P[2] * k)


def _full(s: complex, w0: complex, w1: complex) -> tuple:
    """Coefficients of ``s * (x + w0) * (w1 * conj(x) + 1)``."""
    return (s, s * w0 * w1, s * (w0 + w1))


def _conj(e: tuple) -> tuple:
    """The entry whose value is the complex conjugate at every phi."""
    return (e[1].conjugate(), e[0].conjugate(), e[2].conjugate())


def _matrix(rows) -> np.ndarray:
    """The ``(3, d, d)`` coefficients of rows of ``(a, b, c)`` entries."""
    return np.array(rows, dtype=complex).transpose(2, 0, 1)


def _uniform(rng, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` in numpy's own formula, without its argument checks."""
    return lo + (hi - lo) * rng.random()


def _ranged(rng, lo: float, hi: float) -> float:
    """``lo`` for a range of zero width, drawing nothing; otherwise :func:`_uniform`'s draw."""
    return lo if lo == hi else _uniform(rng, lo, hi)


def _polar(rng, lo: float, hi: float) -> complex:
    """A modulus drawn from [lo, hi), then a uniform phase."""
    return _uniform(rng, lo, hi) * cmath.exp(1j * _uniform(rng, 0.0, 2.0 * math.pi))


def _separated(rng, avoid: complex) -> complex:
    gap = _MIN_ROOT_GAP * max(1.0, abs(avoid))
    for _ in range(64):
        f = _polar(rng, 0.2, 2.0)
        if abs(f - avoid) >= gap:
            return f
    return -avoid if avoid != 0 else 1.0 + 0j


def _signed_gap(rng) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * _uniform(rng, _MIN_ANGLE_GAP, math.pi)


def _draw(seed, params: SamplerParams) -> tuple[np.ndarray, np.ndarray]:
    """The ``(3, 2, 2)`` coefficients of one candidate's two outputs.

    ``seed`` feeds ``numpy.random.default_rng``, whose stream gives the
    stratum, ``|alpha|``, ``theta`` and ``r`` from ``params`` (see
    :class:`SamplerParams` for the ones it skips), then the stratum's
    entries, built with plain complex arithmetic straight from the draws.
    """
    rng = np.random.default_rng(seed)
    stratum = params._stratum(rng)
    alpha_abs = _ranged(rng, *params.alpha_abs_range)
    theta = _ranged(rng, *params.theta_range)
    if stratum == "wild":
        r = 1.0
    else:  # r_range feeds the strata built on a free r; reject keeps its own [1.5, 4)
        r = _ranged(rng, *((1.5, 4.0) if stratum == "reject" else params.r_range))

    phase = cmath.exp(1j * theta)
    p0, p1 = r * phase, phase / r
    alpha = alpha_abs * cmath.exp(-1j * theta)
    P = (complex(alpha), alpha.conjugate(), complex(alpha_abs * (r + 1.0 / r)))

    def proportional() -> np.ndarray:
        # Gamma * P for a random unit-trace Hermitian Gamma, PSD or not.
        psd = rng.random() < 0.5
        for _ in range(64):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = g @ g.conj().T if psd else 0.5 * (g + g.conj().T)
            tr = h[0, 0].real + h[1, 1].real
            if abs(tr) >= 0.3:
                break
        gamma = h / tr
        if rng.random() < 0.2:
            gamma[0, 1] = gamma[1, 0] = 0.0
        return _matrix([[_scaled(g, P) for g in row] for row in gamma.tolist()])

    def deficient(role_root: complex, companion: complex, force_offdiag: bool = False):
        # Hermiticity plus the forced factor pins r != 1 diagonals to
        # multiples of P; only the off-diagonal pair is free.
        b0 = _uniform(rng, 1.05, 1.5) if rng.random() < 0.15 else _uniform(rng, 0.1, 0.9)
        u = rng.random()
        w01 = w10 = _ZERO  # a zero pair is not conjugated: its imaginary zeros stay +0.0
        if force_offdiag or u >= 0.2:
            s = _polar(rng, *_OFFDIAG_SCALE_RANGE)
            if u < (0.5 if force_offdiag else 0.6):
                w01 = (0j, s * role_root, s)
            else:
                w01 = _full(s, role_root, _separated(rng, companion))
            w10 = _conj(w01)
        return _matrix([[_scaled(b0, P), w01], [w10, _scaled(1.0 - b0, P)]])

    def loose_hp() -> np.ndarray:
        # Free hermitian-preserving operator with trace P; entries
        # generically contain neither probability factor.
        a = (rng.normal() + 1j * rng.normal()) * (0.3 * (1.0 + abs(P[0])))
        d0 = (a, a.conjugate(), complex(rng.normal() * (0.4 * (1.0 + abs(P[2])))))
        if rng.random() < 0.25:
            w01 = _ZERO
        else:
            w01 = _scaled(0.5, tuple(rng.normal() + 1j * rng.normal() for _ in range(3)))
        return _matrix([[d0, w01], [_conj(w01), tuple(p - e for p, e in zip(P, d0))]])

    def wild() -> np.ndarray:
        # Double-root stratum (r = 1): every entry contains p0 at least
        # once, which keeps all tensor products divisible by P.
        if rng.random() < 0.4:
            d0 = _scaled(_uniform(rng, 0.1, 0.9), P)
        else:
            psi = theta + _signed_gap(rng)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            s0 = sign * _uniform(rng, 0.2, 1.5) * cmath.exp(-0.5j * (theta + psi))
            d0 = _full(s0, p0, cmath.exp(1j * psi))
        u = rng.random()
        if u < 0.25:
            w01 = _ZERO
        else:
            s = _polar(rng, *_OFFDIAG_SCALE_RANGE)
            if u < 0.6:
                w01 = (0j, s * p0, s)
            elif rng.random() < 0.3:
                w01 = _full(s, p0, p1)
            else:
                f = _uniform(rng, 0.2, 2.0) * cmath.exp(1j * (theta + _signed_gap(rng)))
                w01 = _full(s, p0, f)
        return _matrix([[d0, w01], [_conj(w01), tuple(p - e for p, e in zip(P, d0))]])

    if stratum == "proportional":
        return proportional(), proportional()
    if stratum == "case2":
        return proportional(), deficient(p1, p0)
    if stratum == "case2-swapped":
        return deficient(p0, p1), proportional()
    if stratum == "case1":
        return proportional(), loose_hp()
    if stratum == "wild":
        return wild(), wild()
    # reject: deficient off-diagonals on both sides cannot divide
    return deficient(p0, p1, True), deficient(p1, p0, True)


def _assemble(out1: np.ndarray, out2: np.ndarray, tol: float) -> tuple:
    """Joint blocks for ``(N, 3, d1, d1)`` and ``(N, 3, d2, d2)`` output stacks.

    Each member's joint block is its tensor product divided by its trace
    ``P``, all members in one batched division.  Returns the ``(joint,
    out1, out2)`` stacks of the accepted members, their indices, a dict
    from each rejected member's index to its :class:`SampleRejected`
    message: the traces disagree (beyond ``tol`` times the member's largest
    output coefficient), ``P`` vanishes next to out1, or some product entry
    is not divisible (the first in row-major order is named); last, each
    accepted member's largest division remainder coefficient, ``max|out1 (x)
    out2 - joint * P|``: the ``remainder`` of ``operators._relation``.
    """
    c1, c2 = out1.swapaxes(0, 1), out2.swapaxes(0, 1)
    d1, d2 = c1.shape[-1], c2.shape[-1]
    P = c1.trace(axis1=-2, axis2=-1)
    size1, size2 = (np.abs(c).max(axis=(0, 2, 3)) for c in (c1, c2))
    mismatch = np.abs(c2.trace(axis1=-2, axis2=-1) - P).max(axis=0) > tol * np.maximum(size1, size2)
    vanishes = _negligible(np.abs(P).max(axis=0), size1)  # the rule of operators._relation
    rejected = {
        i: "marginal traces disagree" if mismatch[i] else "trace polynomial vanishes"
        for i in np.flatnonzero(mismatch | vanishes).tolist()
    }
    live = np.flatnonzero(~(mismatch | vanishes))
    q, residual, limit = _divide(_tensor(c1[:, live], c2[:, live]), P[:, live, None, None], tol)
    failing = (residual > limit).reshape(live.size, (d1 * d2) ** 2)
    divisible = ~failing.any(axis=1)
    for n in np.flatnonzero(~divisible).tolist():
        r, c = divmod(int(failing[n].argmax()), d1 * d2)
        rejected[int(live[n])] = f"product entry ({r}, {c}) is not divisible by the trace"
    kept = live[divisible]
    remainder = residual[divisible].max(axis=(1, 2))
    return (q.swapaxes(0, 1)[divisible], out1[kept], out2[kept]), kept, rejected, remainder


def assemble_triple(
    out1: PhaseOperator, out2: PhaseOperator, tol: float = DEFAULT_TOL
) -> UncorrelatedTriple:
    """Build the joint block by dividing the tensor product by the trace.

    The whole ``(5, D, D)`` product is divided by ``P`` at once.  Raises
    :class:`SampleRejected` when the traces disagree, the trace vanishes,
    or some product entry is not divisible back to first order (the
    message names the first such entry).  A triple returned from here
    passes :func:`validate_triple` by construction.
    """
    tol = _checked_tol(tol)
    (joint, _, _), _, rejected, _ = _assemble(out1.coeffs[None], out2.coeffs[None], tol)
    if rejected:
        raise SampleRejected(rejected[0])
    joint = JointPhaseOperator(joint[0], dim1=out1.dim, dim2=out2.dim)
    return UncorrelatedTriple(joint, out1, out2)


def generate_case2_candidate(seed, params: SamplerParams | None = None) -> UncorrelatedTriple:
    """Draw one structured candidate triple.

    ``seed`` feeds ``numpy.random.default_rng`` directly, so a sequence
    like ``[search_seed, trial_index]`` gives independent, reproducible
    per-trial streams.  Raises :class:`SampleRejected` for draws without a
    first-order joint block (expected for part of the family).
    """
    c1, c2 = _draw(seed, params or _DEFAULT_PARAMS)
    return assemble_triple(PhaseOperator(c1), PhaseOperator(c2))


@dataclass(frozen=True)
class WitnessRecord:
    """The least certified ``lambda_min`` of a trial's outputs, its phase and its operator.

    ``operator`` is ``"out1"`` or ``"out2"``.
    """

    trial: int
    phi: float
    lambda_min: float
    operator: str


@dataclass(frozen=True)
class ViolationRecord:
    trial: int
    detail: str


@dataclass
class SearchReport:
    """Tally of one search run; ``violations`` must stay empty."""

    trials: int
    seed: int
    accepted: int
    rejected: int
    #: How often each :class:`SampleRejected` message occurred; sums to ``rejected``.
    rejection_reasons: dict
    acceptance_rate: float
    case_counts: dict
    both_phase_dependent: int
    witnesses: list
    witness_failures: list
    violations: list
    max_witness_lambda_min: float | None

    @property
    def ok(self) -> bool:
        """No violation or witness failure, and triples accepted, every one classified (else untested)."""
        untested = self.accepted == 0 or "unclassified" in self.case_counts
        return not (self.violations or self.witness_failures or untested)


def theorem_search(
    trials: int, seed: int = 0, tol: float = DEFAULT_TOL, params: SamplerParams | None = None
) -> SearchReport:
    """Analyze ``trials`` sampled candidates and hunt for theorem violations.

    Trials are sampled with their own streams ``default_rng([seed, k])``,
    the accepted triples of each block of trials are analyzed together, and
    the reports are tallied in trial order.  Every accepted triple gets the
    verdicts of :func:`analyze_many` except positivity: the certificate (an
    exact minimum over the phase circle) runs only on the outputs of the
    members the structure stage says need it.  One of their outputs must
    show a minimum eigenvalue below ``WITNESS_LEVEL`` at some phase (the
    witness is the least, out1 on ties); a triple where neither does is
    recorded as a witness failure, and one that is not theorem-consistent
    (:func:`analysis._consistent`, with lemma L2b) as a violation.  Both
    lists must stay empty, and every accepted triple classified
    (``SearchReport.ok``).  ``params`` sets the sampler's ranges and strata
    (:class:`SamplerParams`, its defaults when ``None``); a draw with a
    coefficient part beyond ``MAX_COEFF`` raises ``PhaseOperator``'s
    ``ValueError``.  ``tol`` is relative (see ``operators.DEFAULT_TOL``)
    and in (0, 1), but blocks are assembled at ``DEFAULT_TOL``: acceptance
    and the rejection reasons do not move with ``tol``.  ``trials`` must be
    an integer >= 1 and ``seed`` one >= 0, neither a ``bool``.
    """
    trials, seed = _checked_count("trials", trials), _checked_count("seed", seed, 0)
    tol, params = _checked_tol(tol), params or _DEFAULT_PARAMS
    case_counts: Counter[str] = Counter()
    rejection_reasons: Counter[str] = Counter()
    witnesses: list[WitnessRecord] = []
    witness_failures: list[int] = []
    violations: list[ViolationRecord] = []
    accepted = both_dep = 0

    for start in range(0, trials, _BLOCK):
        block = range(start, min(start + _BLOCK, trials))
        draws = np.array([_draw([seed, k], params) for k in block])
        operators._check_parts(draws)  # PhaseOperator's rule, as generate_case2_candidate applies it
        stacks, kept, rejected, remainder = _assemble(draws[:, 0], draws[:, 1], DEFAULT_TOL)
        rejection_reasons.update(rejected.values())
        accepted += len(kept)
        s = analysis._structure(*stacks, tol, remainder)
        case_counts.update("unclassified" if c < 0 else analysis._LABELS[c].value for c in s.case.tolist())
        both_dep += int(s.dependence.all(axis=0).sum())
        decided = np.flatnonzero(s.needs_certificate).tolist()
        _, out1s, out2s = s.families
        outputs = analysis._certify_many([f[m] for m in decided for f in (out1s, out2s)], tol)
        for m, out1, out2 in zip(decided, outputs[::2], outputs[1::2]):
            k = start + int(kept[m])
            role, low = min((("out1", out1), ("out2", out2)), key=lambda rv: rv[1].min_eigenvalue)
            lam = low.min_eigenvalue
            if lam < WITNESS_LEVEL:
                witnesses.append(WitnessRecord(k, float(low.witness_phi), lam, role))
            else:
                witness_failures.append(k)
            if not analysis._consistent(True, s.nonpositive[m], out1, out2):
                case = None if s.case[m] < 0 else analysis._LABELS[s.case[m]].value
                violations.append(ViolationRecord(trial=k, detail=f"case={case}, min_eig={lam:.3e}"))

    return SearchReport(
        trials=trials,
        seed=seed,
        accepted=accepted,
        rejected=sum(rejection_reasons.values()),
        rejection_reasons=dict(sorted(rejection_reasons.items())),
        acceptance_rate=accepted / trials,
        case_counts=dict(sorted(case_counts.items())),
        both_phase_dependent=both_dep,
        witnesses=witnesses,
        witness_failures=witness_failures,
        violations=violations,
        max_witness_lambda_min=max((w.lambda_min for w in witnesses), default=None),
    )
