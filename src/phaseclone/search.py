"""Randomized search over structured families of uncorrelated map triples.

The sampler draws a positive factored probability ``P`` and then builds the
two marginal outputs from the entry shapes that can actually occur in a
hermitian-preserving triple: constant multiples of ``P``, entries carrying
one forced factor root plus a free one, and (for the double-root stratum
r = 1) real-valued diagonals whose second root is a free unit-modulus
number.  The joint block is reconstructed by dividing the whole tensor
product by ``P`` in one batched long division; draws whose product is not
divisible are rejected and counted, never silently dropped.

Per-trial randomness is seeded from (seed, trial index), so a search is
reproducible regardless of execution order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .trigpoly import FirstOrderPoly, FullForm, NotDivisibleError, exact_div, expand
from .operators import (
    JointPhaseOperator,
    PhaseOperator,
    UncorrelatedTriple,
    tensor,
    trace_poly,
)
from .positivity import ProbabilityDecomposition
from .analysis import analyze_many

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
    """Ranges, stratum weights and optional pins for the candidate sampler."""

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


def _random_unit_trace_hermitian(rng, psd: bool) -> np.ndarray:
    for _ in range(64):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = g @ g.conj().T if psd else 0.5 * (g + g.conj().T)
        tr = h[0, 0].real + h[1, 1].real
        if abs(tr) >= 0.3:
            break
    h = h / tr
    if rng.random() < 0.2:
        h[0, 1] = 0.0
        h[1, 0] = 0.0
    return h


def _proportional_output(rng, P: FirstOrderPoly, psd: bool) -> PhaseOperator:
    gamma = _random_unit_trace_hermitian(rng, psd)
    rows = [[complex(gamma[i, j]) * P for j in range(2)] for i in range(2)]
    return PhaseOperator.from_rows(rows)


def _draw_separated(rng, params: SamplerParams, avoid: complex) -> complex:
    gap = params.min_root_gap * max(1.0, abs(avoid))
    for _ in range(64):
        f = rng.uniform(0.2, 2.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        if abs(f - avoid) >= gap:
            return f
    return -avoid if avoid != 0 else 1.0 + 0j


def _signed_gap(rng, params: SamplerParams) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * rng.uniform(params.min_angle_gap, math.pi)


def _offdiag_entry(rng, params, role_root, companion, mode: str) -> FirstOrderPoly:
    lo, hi = params.offdiag_scale_range
    s = rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if mode == "m0":
        return FirstOrderPoly(0.0, s * role_root, s)
    f = _draw_separated(rng, params, companion)
    return expand(FullForm(s, role_root, f))


def _deficient_output(
    rng,
    params: SamplerParams,
    P: FirstOrderPoly,
    role_root: complex,
    companion: complex,
    force_offdiag: bool = False,
) -> PhaseOperator:
    # Hermiticity plus the forced factor pins r != 1 diagonals to multiples
    # of P; only the off-diagonal pair is free.
    if rng.random() < 0.15:
        b0 = rng.uniform(1.05, 1.5)
    else:
        b0 = rng.uniform(0.1, 0.9)
    diag0, diag1 = b0 * P, (1.0 - b0) * P

    u = rng.random()
    if force_offdiag:
        mode = "m0" if u < 0.5 else "m1"
    elif u < 0.2:
        mode = "zero"
    elif u < 0.6:
        mode = "m0"
    else:
        mode = "m1"
    if mode == "zero":
        w01 = FirstOrderPoly.zero()
        w10 = FirstOrderPoly.zero()
    else:
        w01 = _offdiag_entry(rng, params, role_root, companion, mode)
        w10 = w01.conjugate()
    return PhaseOperator.from_rows([[diag0, w01], [w10, diag1]])


def _random_real_poly(rng, P: FirstOrderPoly) -> FirstOrderPoly:
    scale_a = 0.3 * (1.0 + abs(P.a))
    scale_c = 0.4 * (1.0 + abs(P.c))
    a = (rng.normal() + 1j * rng.normal()) * scale_a
    return FirstOrderPoly(a, a.conjugate(), rng.normal() * scale_c)


def _loose_hp_output(rng, P: FirstOrderPoly) -> PhaseOperator:
    # Free hermitian-preserving operator with trace P; entries generically
    # contain neither probability factor.
    diag0 = _random_real_poly(rng, P)
    diag1 = P - diag0
    if rng.random() < 0.25:
        w01 = FirstOrderPoly.zero()
    else:
        w01 = FirstOrderPoly(
            rng.normal() + 1j * rng.normal(),
            rng.normal() + 1j * rng.normal(),
            rng.normal() + 1j * rng.normal(),
        ) * 0.5
    return PhaseOperator.from_rows([[diag0, w01], [w01.conjugate(), diag1]])


def _wild_diag(rng, params, P, dec: ProbabilityDecomposition) -> FirstOrderPoly:
    theta = dec.theta
    if rng.random() < 0.4:
        return rng.uniform(0.1, 0.9) * P
    psi = theta + _signed_gap(rng, params)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    s0 = sign * rng.uniform(0.2, 1.5) * cmath.exp(-0.5j * (theta + psi))
    return expand(FullForm(s0, dec.p0, cmath.exp(1j * psi)))


def _wild_output(rng, params, P, dec: ProbabilityDecomposition) -> PhaseOperator:
    # Double-root stratum (r = 1): every entry contains p0 at least once,
    # which keeps all tensor products divisible by P.
    diag0 = _wild_diag(rng, params, P, dec)
    diag1 = P - diag0
    u = rng.random()
    if u < 0.25:
        w01 = FirstOrderPoly.zero()
    elif u < 0.6:
        s = rng.uniform(*params.offdiag_scale_range) * cmath.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi)
        )
        w01 = FirstOrderPoly(0.0, s * dec.p0, s)
    else:
        s = rng.uniform(*params.offdiag_scale_range) * cmath.exp(
            1j * rng.uniform(0.0, 2.0 * math.pi)
        )
        if rng.random() < 0.3:
            f = dec.p1
        else:
            f = rng.uniform(0.2, 2.0) * cmath.exp(1j * (dec.theta + _signed_gap(rng, params)))
        w01 = expand(FullForm(s, dec.p0, f))
    return PhaseOperator.from_rows([[diag0, w01], [w01.conjugate(), diag1]])


def assemble_triple(
    out1: PhaseOperator, out2: PhaseOperator, tol: float = 1e-9
) -> UncorrelatedTriple:
    """Build the joint block by dividing the tensor product by the trace.

    The whole ``(5, D, D)`` product is divided by ``P`` at once.  Raises
    :class:`SampleRejected` when the traces disagree, the trace vanishes,
    or some product entry is not divisible back to first order (the
    message names the first such entry).  A triple returned from here
    passes :func:`validate_triple` by construction.
    """
    P = trace_poly(out1)
    if trace_poly(out2).distance(P) > tol:
        raise SampleRejected("marginal traces disagree")
    if P.max_abs() <= tol:
        raise SampleRejected("trace polynomial vanishes")
    try:
        quotient = exact_div(tensor(out1, out2), P.coeffs, tol)
    except NotDivisibleError as err:
        r, c = err.index
        raise SampleRejected(f"product entry ({r}, {c}) is not divisible by the trace") from err
    joint = JointPhaseOperator(quotient, dim1=out1.dim, dim2=out2.dim)
    return UncorrelatedTriple(joint=joint, out1=out1, out2=out2)


def generate_case2_candidate(seed, params: SamplerParams | None = None) -> UncorrelatedTriple:
    """Draw one structured candidate triple.

    ``seed`` feeds ``numpy.random.default_rng`` directly, so a sequence
    like ``[search_seed, trial_index]`` gives independent, reproducible
    per-trial streams.  Raises :class:`SampleRejected` for draws without a
    first-order joint block (expected for part of the family).
    """
    params = params or SamplerParams()
    rng = np.random.default_rng(seed)

    names = [name for name, _ in params.strata]
    weights = np.array([w for _, w in params.strata], dtype=float)
    weights = weights / weights.sum()
    stratum = params.pin_stratum or names[int(rng.choice(len(names), p=weights))]
    if stratum not in names:
        raise ValueError(f"unknown stratum {stratum!r}")

    alpha_abs = (
        params.pin_alpha_abs
        if params.pin_alpha_abs is not None
        else rng.uniform(*params.alpha_abs_range)
    )
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
    R = alpha_abs * (r + 1.0 / r)
    P = FirstOrderPoly(alpha, alpha.conjugate(), R)
    dec = ProbabilityDecomposition(alpha_abs=alpha_abs, theta=theta, R=R, r=r, p0=p0, p1=p1)

    def psd() -> bool:
        return params.pin_psd if params.pin_psd is not None else bool(rng.random() < 0.5)

    if stratum == "proportional":
        out1 = _proportional_output(rng, P, psd())
        out2 = _proportional_output(rng, P, psd())
    elif stratum == "case2":
        out1 = _proportional_output(rng, P, psd())
        out2 = _deficient_output(rng, params, P, role_root=p1, companion=p0)
    elif stratum == "case2-swapped":
        out1 = _deficient_output(rng, params, P, role_root=p0, companion=p1)
        out2 = _proportional_output(rng, P, psd())
    elif stratum == "case1":
        out1 = _proportional_output(rng, P, psd())
        out2 = _loose_hp_output(rng, P)
    elif stratum == "wild":
        out1 = _wild_output(rng, params, P, dec)
        out2 = _wild_output(rng, params, P, dec)
    else:  # reject: deficient off-diagonals on both sides cannot divide
        out1 = _deficient_output(rng, params, P, role_root=p0, companion=p1, force_offdiag=True)
        out2 = _deficient_output(rng, params, P, role_root=p1, companion=p0, force_offdiag=True)

    return assemble_triple(out1, out2)


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
    acceptance_rate: float
    case_counts: dict
    both_phase_dependent: int
    witnesses: list
    witness_failures: list
    violations: list
    max_witness_lambda_min: float | None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.witness_failures


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
    the accepted triples of each block of trials are analyzed together by
    :func:`analyze_many` (positivity verdicts are exact minima over the
    phase circle), and the reports are tallied in trial order.  Candidates
    with both outputs phase-dependent must show a minimum eigenvalue below
    ``-1e-6`` at some phase; any that do not are recorded as witness
    failures, and any report that is not theorem-consistent is recorded as
    a violation.  Both lists must stay empty.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    case_counts: dict[str, int] = {}
    witnesses: list[WitnessRecord] = []
    witness_failures: list[int] = []
    violations: list[ViolationRecord] = []
    accepted = rejected = both_dep = 0

    for start in range(0, trials, _BLOCK):
        drawn = []
        for k in range(start, min(start + _BLOCK, trials)):
            try:
                drawn.append((k, generate_case2_candidate([seed, k], params)))
            except SampleRejected:
                rejected += 1
        reports = analyze_many([t for _, t in drawn], tol)
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
        rejected=rejected,
        acceptance_rate=accepted / trials,
        case_counts=dict(sorted(case_counts.items())),
        both_phase_dependent=both_dep,
        witnesses=witnesses,
        witness_failures=witness_failures,
        violations=violations,
        max_witness_lambda_min=max((w.lambda_min for w in witnesses), default=None),
    )
