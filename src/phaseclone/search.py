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
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .trigpoly import _divide
from .operators import JointPhaseOperator, PhaseOperator, UncorrelatedTriple, _tensor
from .analysis import _search_many

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

#: Joint-assembly tolerance; one value keeps search and sampler in step.
_ASSEMBLE_TOL = 1e-9

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
    """Ranges, stratum weights and optional pins for the candidate sampler.

    Building one raises ``ValueError`` for repeated stratum names, weights
    that are not finite and >= 0 with a positive sum, an unknown
    ``pin_stratum``, an ``r_range`` end or ``pin_r`` that is not finite and
    >= 1, an ``alpha_abs_range`` end or ``pin_alpha_abs`` that is not
    finite and > 0, or a range whose low end exceeds its high end.
    """

    alpha_abs_range: tuple = (0.1, 2.0)
    r_range: tuple = (1.0, 4.0)
    offdiag_scale_range: tuple = (0.2, 2.0)
    # Keep free roots and angles away from the forced ones so that
    # phase-dependent samples show a clearly negative eigenvalue.
    min_angle_gap: float = 0.7
    min_root_gap: float = 0.3
    strata: tuple = _STRATA
    pin_stratum: str | None = None
    pin_alpha_abs: float | None = None
    pin_theta: float | None = None
    pin_r: float | None = None
    pin_psd: bool | None = None

    def __post_init__(self):
        names = [name for name, _ in self.strata]
        weights = np.array([w for _, w in self.strata], dtype=float)
        if len(set(names)) != len(names):
            raise ValueError(f"stratum names must be unique, got {names}")
        total = weights.sum()
        if not (np.isfinite(weights).all() and (weights >= 0).all() and 0 < total < math.inf):
            raise ValueError(f"stratum weights must be finite, >= 0 and not all 0, got {weights}")
        if self.pin_stratum is not None and self.pin_stratum not in names:
            raise ValueError(f"unknown stratum {self.pin_stratum!r}")
        for name, (lo, hi), pin, rule, valid in (
            ("r", self.r_range, self.pin_r, ">= 1", lambda v: 1.0 <= v < math.inf),
            ("alpha_abs", self.alpha_abs_range, self.pin_alpha_abs, "> 0", lambda v: 0.0 < v < math.inf),
        ):
            if not (valid(lo) and valid(hi) and lo <= hi and (pin is None or valid(pin))):
                raise ValueError(
                    f"{name}_range and pin_{name} must be finite and {rule} with low <= high, "
                    f"got {(lo, hi)!r} and {pin!r}"
                )
        # Built as numpy's Generator.choice builds it, so searching it with
        # one rng.random() picks the stratum choice(p=weights) would pick.
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_cdf", cdf)


_DEFAULT_PARAMS = SamplerParams()
_ZERO = (0j, 0j, 0j)


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


def _polar(rng, lo: float, hi: float) -> complex:
    """A modulus drawn from [lo, hi), then a uniform phase."""
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _separated(rng, params: SamplerParams, avoid: complex) -> complex:
    gap = params.min_root_gap * max(1.0, abs(avoid))
    for _ in range(64):
        f = _polar(rng, 0.2, 2.0)
        if abs(f - avoid) >= gap:
            return f
    return -avoid if avoid != 0 else 1.0 + 0j


def _signed_gap(rng, params: SamplerParams) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * rng.uniform(params.min_angle_gap, math.pi)


def _draw(seed, params: SamplerParams) -> tuple[np.ndarray, np.ndarray]:
    """The ``(3, 2, 2)`` coefficients of one candidate's two outputs.

    ``seed`` feeds ``numpy.random.default_rng``; every entry is built with
    plain complex arithmetic straight from the draws.
    """
    rng = np.random.default_rng(seed)
    stratum = params.pin_stratum or params._names[params._cdf.searchsorted(rng.random(), "right")]

    alpha_abs = params.pin_alpha_abs
    if alpha_abs is None:
        alpha_abs = rng.uniform(*params.alpha_abs_range)
    theta = params.pin_theta if params.pin_theta is not None else rng.uniform(0.0, 2.0 * math.pi)
    if params.pin_r is not None:
        r = params.pin_r
    elif stratum == "wild":
        r = 1.0
    elif stratum == "reject":
        r = rng.uniform(max(1.5, params.r_range[0]), params.r_range[1])
    else:
        r = rng.uniform(*params.r_range)

    phase = cmath.exp(1j * theta)
    p0, p1 = r * phase, phase / r
    alpha = alpha_abs * cmath.exp(-1j * theta)
    P = (complex(alpha), alpha.conjugate(), complex(alpha_abs * (r + 1.0 / r)))

    def proportional() -> np.ndarray:
        # Gamma * P for a random unit-trace Hermitian Gamma, PSD or not.
        psd = params.pin_psd if params.pin_psd is not None else bool(rng.random() < 0.5)
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
        b0 = rng.uniform(1.05, 1.5) if rng.random() < 0.15 else rng.uniform(0.1, 0.9)
        u = rng.random()
        w01 = w10 = _ZERO  # a zero pair is not conjugated: its imaginary zeros stay +0.0
        if force_offdiag or u >= 0.2:
            s = _polar(rng, *params.offdiag_scale_range)
            if u < (0.5 if force_offdiag else 0.6):
                w01 = (0j, s * role_root, s)
            else:
                w01 = _full(s, role_root, _separated(rng, params, companion))
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
            d0 = _scaled(rng.uniform(0.1, 0.9), P)
        else:
            psi = theta + _signed_gap(rng, params)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            s0 = sign * rng.uniform(0.2, 1.5) * cmath.exp(-0.5j * (theta + psi))
            d0 = _full(s0, p0, cmath.exp(1j * psi))
        u = rng.random()
        if u < 0.25:
            w01 = _ZERO
        else:
            s = _polar(rng, *params.offdiag_scale_range)
            if u < 0.6:
                w01 = (0j, s * p0, s)
            elif rng.random() < 0.3:
                w01 = _full(s, p0, p1)
            else:
                f = rng.uniform(0.2, 2.0) * cmath.exp(1j * (theta + _signed_gap(rng, params)))
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


def _assemble(c1: np.ndarray, c2: np.ndarray, tol: float) -> list:
    """Triples from ``(3, N, d1, d1)`` and ``(3, N, d2, d2)`` output stacks.

    Each member's joint block is its tensor product divided by its trace
    ``P``, all members in one batched division.  Returns per member the
    :class:`UncorrelatedTriple` or the :class:`SampleRejected` saying why
    there is none: the traces disagree, ``P`` vanishes, or some product
    entry is not divisible (the first in row-major order is named).
    """
    d1, d2 = c1.shape[-1], c2.shape[-1]
    P = c1.trace(axis1=-2, axis2=-1)
    mismatch = np.abs(c2.trace(axis1=-2, axis2=-1) - P).max(axis=0) > tol
    vanishes = np.abs(P).max(axis=0) <= tol
    results: list = [None] * P.shape[1]
    rejected = mismatch | vanishes
    for i in np.flatnonzero(rejected).tolist():
        reason = "marginal traces disagree" if mismatch[i] else "trace polynomial vanishes"
        results[i] = SampleRejected(reason)
    live = np.flatnonzero(~rejected)
    q, residual, limit = _divide(_tensor(c1[:, live], c2[:, live]), P[:, live, None, None], tol)
    failing = (residual > limit).reshape(live.size, (d1 * d2) ** 2)
    for n, i in enumerate(live.tolist()):
        if failing[n].any():
            r, c = divmod(int(failing[n].argmax()), d1 * d2)
            results[i] = SampleRejected(f"product entry ({r}, {c}) is not divisible by the trace")
        else:
            joint = JointPhaseOperator(q[:, n], dim1=d1, dim2=d2)
            out1, out2 = PhaseOperator(c1[:, i]), PhaseOperator(c2[:, i])
            results[i] = UncorrelatedTriple(joint=joint, out1=out1, out2=out2)
    return results


def assemble_triple(
    out1: PhaseOperator, out2: PhaseOperator, tol: float = _ASSEMBLE_TOL
) -> UncorrelatedTriple:
    """Build the joint block by dividing the tensor product by the trace.

    The whole ``(5, D, D)`` product is divided by ``P`` at once.  Raises
    :class:`SampleRejected` when the traces disagree, the trace vanishes,
    or some product entry is not divisible back to first order (the
    message names the first such entry).  A triple returned from here
    passes :func:`validate_triple` by construction.
    """
    (result,) = _assemble(out1.coeffs[:, None], out2.coeffs[:, None], tol)
    if isinstance(result, SampleRejected):
        raise result
    return result


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
    trial: int
    phi: float
    lambda_min: float


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
        """No violation, no witness failure, and at least one accepted triple classified."""
        classified = self.accepted - self.case_counts.get("unclassified", 0)
        return not self.violations and not self.witness_failures and classified > 0


def _sample_min_eigenvalue(report) -> tuple[float, float | None]:
    best = (math.inf, None)
    for verdict in (report.positivity_out1, report.positivity_out2, report.positivity_joint):
        if verdict is not None and verdict.min_eigenvalue < best[0]:
            best = (verdict.min_eigenvalue, verdict.witness_phi)
    return best


def theorem_search(
    trials: int,
    seed: int = 0,
    tol: float = 1e-9,
    params: SamplerParams | None = None,
) -> SearchReport:
    """Analyze ``trials`` sampled candidates and hunt for theorem violations.

    Trials are sampled with their own streams ``default_rng([seed, k])``,
    the accepted triples of each block of trials are analyzed together, and
    the reports are tallied in trial order.  Every accepted triple gets the
    verdicts of :func:`analyze_many` except positivity: the certificate (an
    exact minimum over the phase circle) runs only on triples with both
    outputs phase-dependent, the only ones where it can decide a verdict.
    Those must show a minimum eigenvalue below ``-1e-6`` at some phase; any
    that do not are recorded as witness failures, and any report that is
    not theorem-consistent is recorded as a violation.  Both lists must
    stay empty.  ``trials`` must be an integer >= 1 and ``seed`` one >= 0.
    """
    for name, value, low in (("trials", trials, 1), ("seed", seed, 0)):
        if not (isinstance(value, numbers.Integral) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    params = params or _DEFAULT_PARAMS
    case_counts: dict[str, int] = {}
    rejection_reasons: Counter[str] = Counter()
    witnesses: list[WitnessRecord] = []
    witness_failures: list[int] = []
    violations: list[ViolationRecord] = []
    accepted = both_dep = 0

    for start in range(0, trials, _BLOCK):
        block = range(start, min(start + _BLOCK, trials))
        c1, c2 = np.array([_draw([seed, k], params) for k in block]).transpose(1, 2, 0, 3, 4)
        results = _assemble(c1, c2, _ASSEMBLE_TOL)
        drawn = [(k, t) for k, t in zip(block, results) if not isinstance(t, SampleRejected)]
        rejection_reasons.update(str(t) for t in results if isinstance(t, SampleRejected))
        reports = _search_many([t for _, t in drawn], tol)
        accepted += len(drawn)

        for (k, _), report in zip(drawn, reports):
            key = report.case.label.value if report.case is not None else "unclassified"
            case_counts[key] = case_counts.get(key, 0) + 1

            if report.out1_phase_dependent and report.out2_phase_dependent:
                both_dep += 1
                lam, phi = _sample_min_eigenvalue(report)
                if lam < WITNESS_LEVEL:
                    witnesses.append(WitnessRecord(trial=k, phi=float(phi), lambda_min=lam))
                else:
                    witness_failures.append(k)

            if not report.theorem_consistent:
                violations.append(
                    ViolationRecord(
                        trial=k,
                        detail=(
                            f"case={report.case}, "
                            f"min_eig={_sample_min_eigenvalue(report)[0]:.3e}"
                        ),
                    )
                )

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
