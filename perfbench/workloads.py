"""The benchmark's workloads: their inputs, the timed call and its gates.

Every workload is driven by one closed-loop client: the next request is
sent when the previous one has returned.  A request is one call of a
public entry point of the package (``theorem_search`` or ``cli.main``).
Inputs come only from the workload seed.  Expected verdicts come from
the catalog's ``ExpectedProperties``, from how a map was constructed, and
from :func:`oracle_positive`, a fine-grid eigenvalue sweep that shares no
code with the package's certificate.  A block the oracle cannot settle by
a clear margin has no expected positivity verdict.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Trials per ``theorem_search`` call and calls per pass, by size.
SEARCH = {"full": (10, 100), "tiny": (2, 3)}

#: Catalog entries that are triples (``phase-state`` is a single operator).
CATALOG_TRIPLES = (
    "counterexample",
    "case1-example",
    "case3-example",
    "footnote-linear-only",
    "projective-discard",
)

#: Constructed files per pass, by output dimensions (d1 x d2).
MIX = {
    "full": {"2x2": 60, "1x2": 8, "2x3": 24, "3x3": 16},
    "tiny": {"2x2": 2, "1x2": 1, "2x3": 2, "3x3": 2},
}

#: Phase grids of the verdict oracle, coarse first; swept in chunks.
ORACLE_GRIDS = (512, 4096, 1 << 15)
ORACLE_CHUNK = 2048
#: A grid eigenvalue below this proves a family is not positive; the
#: package's certificate tolerance is 1e-9, so this is a clear margin.
ORACLE_NEGATIVE = -1e-7

PROFILE_SAMPLES = 4096
PROFILE_HEADER = "phi,P,lmin_out1,lmin_out2,lmin_joint"
EIG_FLOOR = -1e-9
BLOCKS = ("out1", "out2", "joint")


@dataclass
class Request:
    key: str
    arg: object
    trials: int = 1


@dataclass
class MapCase:
    """One PMAP file of the check/profile set and what it must give."""

    name: str
    kind: str
    triple: object
    known: dict = field(default_factory=dict)  # block -> positivity fixed by construction
    expect: dict = field(default_factory=dict)
    path: str = ""

    @property
    def dims(self) -> str:
        return f"{self.triple.out1.dim}x{self.triple.out2.dim}"

    @property
    def families(self) -> tuple:
        """Expected positivity of (out1, out2, joint); None where it is not settled."""
        if "pos" in self.expect:
            return self.expect["pos"]
        return (self.expect.get("positive") is True,) * 3

    def profile_claims(self) -> dict:
        """Blocks whose grid profile must stay above (True) or dip below (False) the floor.

        A negative verdict is claimed only where the construction fixes it
        (a non-PSD ``Gamma``): elsewhere the dip may be narrower than the grid.
        """
        claims = {b: True for b, p in zip(BLOCKS, self.families) if p is True}
        claims.update({b: False for b, p in self.known.items() if not p})
        return claims


def oracle_positive(op) -> bool | None:
    """Positivity of the family ``op(phi)`` over the phase circle, or None.

    ``op(phi) = A e^{i phi} + B e^{-i phi} + C`` is built from the entries'
    coefficients and swept over a phase grid with numpy's ``eigvalsh``.  A
    grid eigenvalue below ``ORACLE_NEGATIVE`` proves the family is not
    positive.  An eigenvalue moves by at most ``L = ||A|| + ||B||`` per
    radian (Weyl), so a grid minimum of at least ``L * h / 2`` (``h`` the
    grid step) proves it positive.  A family that no grid of
    ``ORACLE_GRIDS`` settles is a knife edge and gives None.
    """
    A, B, C = (
        np.array([[getattr(e, k) for e in row] for row in op.entries], dtype=complex)
        for k in "abc"
    )
    lipschitz = np.linalg.norm(A, 2) + np.linalg.norm(B, 2)
    for n in ORACLE_GRIDS:
        step = 2.0 * math.pi / n
        low = math.inf
        for start in range(0, n, ORACLE_CHUNK):
            x = np.exp(1j * step * np.arange(start, min(start + ORACLE_CHUNK, n)))[:, None, None]
            E = x * A + np.conj(x) * B + C
            E = 0.5 * (E + np.conj(np.swapaxes(E, 1, 2)))
            low = min(low, float(np.linalg.eigvalsh(E)[:, 0].min()))
        if low < ORACLE_NEGATIVE:
            return False
        if low >= lipschitz * step / 2:
            return True
    return None


def _random_gamma(rng, d: int, psd: bool) -> np.ndarray:
    """Random d x d Hermitian matrix with unit trace.

    A PSD draw is ``g g^H`` normalised; a non-PSD draw is kept only when its
    smallest eigenvalue is at most -0.05, so its verdict is not a knife edge.
    """
    while True:
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = g @ g.conj().T if psd else 0.5 * (g + g.conj().T)
        tr = np.trace(h).real
        if abs(tr) < 0.3:
            continue
        h = h / tr
        h = 0.5 * (h + h.conj().T)
        if psd or np.linalg.eigvalsh(h)[0] <= -0.05:
            return h


def _gamma_output(pc, gamma: np.ndarray, P):
    d = gamma.shape[0]
    return pc.PhaseOperator.from_rows(
        [[complex(gamma[i, j]) * P for j in range(d)] for i in range(d)]
    )


def build_maps(pc, seed: int, size: str) -> list:
    """The seeded file set shared by ``check`` and ``profile``.

    Five catalog triples; 2x2 triples drawn with ``generate_case2_candidate``;
    and triples assembled with ``assemble_triple`` from a sampled 2x2 output
    and ``Gamma * P`` outputs, where ``P`` is the sampled output's trace:
    1x2 (``Gamma = [1]``), 2x3 and 3x3, half of them with a PSD ``Gamma``.
    """
    mix = MIX[size]
    cases = [
        MapCase(f"catalog-{name}", "catalog", pc.builtin(name).payload) for name in CATALOG_TRIPLES
    ]
    k = 0

    def sampled():
        nonlocal k
        while True:
            k += 1
            try:
                return pc.generate_case2_candidate([seed, k])
            except pc.SampleRejected:
                continue

    rng = np.random.default_rng([seed, 0])
    for i in range(mix["2x2"]):
        cases.append(MapCase(f"sampled-2x2-{i:02d}", "2x2", sampled()))
    for i in range(mix["1x2"]):
        o = sampled().out2
        one = _gamma_output(pc, np.ones((1, 1)), pc.trace_poly(o))
        cases.append(MapCase(f"gamma-1x2-{i:02d}", "1x2", pc.assemble_triple(one, o), {"out1": True}))
    for i in range(mix["2x3"]):
        t = sampled()
        o = t.out1 if i % 4 < 2 else t.out2
        psd = i % 2 == 0
        g = _gamma_output(pc, _random_gamma(rng, 3, psd), pc.trace_poly(o))
        cases.append(MapCase(f"gamma-2x3-{i:02d}", "2x3", pc.assemble_triple(o, g), {"out2": psd}))
    for i in range(mix["3x3"]):
        P = pc.trace_poly(sampled().out1)
        psd1, psd2 = i % 4 != 1, i % 4 != 2
        g1 = _gamma_output(pc, _random_gamma(rng, 3, psd1), P)
        g2 = _gamma_output(pc, _random_gamma(rng, 3, psd2), P)
        triple = pc.assemble_triple(g1, g2)
        known = {"out1": psd1, "out2": psd2, "joint": psd1 and psd2}
        cases.append(MapCase(f"gamma-3x3-{i:02d}", "3x3", triple, known))
    return cases


def write_maps(pc, cases: list, directory: Path) -> list:
    """Serialize, write and parse back every file; return round-trip problems."""
    problems = []
    for case in cases:
        text = pc.serialize_pmap(pc.document_from_triple(case.triple))
        path = directory / f"{case.name}.pmap"
        path.write_text(text, encoding="utf-8")
        case.path = str(path)
        if pc.serialize_pmap(pc.parse_pmap(text)) != text:
            problems.append(f"{case.name}: PMAP round trip is not byte-identical")
    return problems


def expect_maps(pc, cases: list) -> list:
    """Fill in each case's expected verdicts; return problems found on the way.

    Catalog expectations come from ``ExpectedProperties``; the oracle must
    agree with the catalog's positivity wherever it settles every block.
    A constructed triple must be relation-satisfying, hermitian-preserving
    and theorem-consistent by ``analyze``.  Its positivity verdicts are the
    ones fixed by construction (a PSD or clearly non-PSD ``Gamma``; the
    joint of a 2x3 triple with a non-PSD ``Gamma`` is not positive), the
    oracle's elsewhere, and unsettled (None) where neither decides;
    ``analyze`` must agree with every settled verdict.
    """
    problems = []
    for case in cases:
        known = dict(case.known)
        if case.kind == "2x3" and not known["out2"]:
            known["joint"] = False
        t = case.triple
        verdicts = {
            b: known[b] if b in known else oracle_positive(op)
            for b, op in zip(BLOCKS, (t.out1, t.out2, t.joint))
        }
        if case.kind == "catalog":
            e = pc.builtin(case.name.removeprefix("catalog-")).expected
            passes = bool(e.hermitian_preserving and e.relation_holds and e.positive)
            case.expect = {
                "exit": 0 if passes else 1,
                "relation": e.relation_holds,
                "hp": e.hermitian_preserving,
            }
            if e.positive is not None:
                case.expect["positive"] = e.positive
                if None not in verdicts.values() and all(verdicts.values()) != e.positive:
                    problems.append(f"{case.name}: oracle gives {verdicts}, catalog positive = {e.positive}")
            continue
        pos = tuple(verdicts.values())
        exit_code = 1 if False in pos else 0 if all(pos) else None
        case.expect = {"exit": exit_code, "relation": True, "hp": True, "pos": pos}
        try:
            report = pc.analyze(case.triple)
        except Exception as err:  # a raising analyze is a defect to report, not a crash
            problems.append(f"{case.name}: analyze raised {type(err).__name__}: {err}")
            continue
        for flag in ("relation_ok", "hp_ok", "theorem_consistent"):
            if not getattr(report, flag):
                problems.append(f"{case.name}: analyze gives {flag} = false")
        found = (report.positivity_out1, report.positivity_out2, report.positivity_joint)
        for block, want, got in zip(BLOCKS, pos, found):
            got = got is not None and got.positive
            if want is not None and got != want:
                problems.append(f"{case.name}: analyze says {block} positive = {got}, expected {want}")
    return problems


def describe_maps(cases: list) -> dict:
    """Shares of the file set by dimensions, verdict and positive families."""
    n = len(cases)
    dims: dict = {}
    families: dict = {}
    for case in cases:
        dims[case.dims] = dims.get(case.dims, 0) + 1
        t = case.triple
        for op, positive in zip((t.out1, t.out2, t.joint), case.families):
            fam = families.setdefault(f"d{op.dim}", [0, 0])
            fam[0] += 1
            fam[1] += positive is True
    passing = sum(1 for c in cases if c.expect["exit"] == 0)
    unsettled = sum(1 for c in cases for p in c.families if p is None)
    return {
        "files": n,
        "dims_share": {k: round(v / n, 3) for k, v in sorted(dims.items())},
        "pass_share": round(passing / n, 3),
        "unsettled_blocks": unsettled,
        "families_positive_share": {
            k: round(p / t, 3) for k, (t, p) in sorted(families.items(), key=lambda kv: int(kv[0][1:]))
        },
    }


def _run_cli(cli, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _positivity_word(value: str | None):
    if value is None:
        return "missing"
    word = value.split(" ", 1)[0]
    return {"true": True, "false": False, "skipped": None}.get(word, "missing")


def parse_check_output(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    pos = tuple(_positivity_word(fields.get(f"positivity_{b}")) for b in BLOCKS)
    return {
        "relation": fields.get("relation_holds", "").startswith("true"),
        "hp": fields.get("hermitian_preserving") == "joint=true out1=true out2=true",
        "pos": pos,
        "positive": all(p is True for p in pos),
        "result": fields.get("result"),
    }


class _MapWorkload:
    """Shared by ``check`` and ``profile``: one request per file, in passes."""

    def __init__(self, pc, workdir: Path, seed: int, size: str):
        self.pc = pc
        self.workdir = workdir
        self.seed = seed
        self.size = size
        self.cases: list = []

    def build(self) -> list:
        self.cases = build_maps(self.pc, self.seed, self.size)
        return write_maps(self.pc, self.cases, self.workdir)

    def prepare(self) -> tuple:
        problems = expect_maps(self.pc, self.cases)
        return problems, describe_maps(self.cases)

    def report_lines(self) -> list:
        return []

    def passes(self):
        """Endless passes over the whole file set, each in a fresh seeded order."""
        rng = np.random.default_rng([self.seed, 1])
        while True:
            yield [
                Request(self.cases[i].name, self.cases[i]) for i in rng.permutation(len(self.cases))
            ]


class CheckWorkload(_MapWorkload):
    name = "check"

    def call(self, req: Request):
        return _run_cli(self.pc.cli, ["check", req.arg.path])

    def gate(self, req: Request, result) -> list:
        code, out, err = result
        case = req.arg
        expect = case.expect
        got = parse_check_output(out)
        want = expect["exit"]
        if want is None:  # an unsettled block: the exit must follow the printed verdicts
            want = 0 if got["positive"] else 1
        if code != want:
            return [f"{case.name}: check exit {code}, expected {want}: {err.strip()}"]
        problems = []
        if got["result"] != ("PASS" if code == 0 else "FAIL"):
            problems.append(f"{case.name}: result line {got['result']!r} disagrees with exit {code}")
        for key in ("relation", "hp", "positive"):
            if key in expect and got[key] != expect[key]:
                problems.append(f"{case.name}: {key} = {got[key]}, expected {expect[key]}")
        for block, want_pos, got_pos in zip(BLOCKS, expect.get("pos", ()), got["pos"]):
            if got_pos not in (True, False) or want_pos not in (None, got_pos):
                problems.append(f"{case.name}: positivity_{block} = {got_pos}, expected {want_pos}")
        return problems


class ProfileWorkload(_MapWorkload):
    name = "profile"

    def call(self, req: Request):
        case = req.arg
        return _run_cli(
            self.pc.cli,
            ["profile", case.path, "--samples", str(PROFILE_SAMPLES), "--out", self.out_path(case)],
        )

    def out_path(self, case: MapCase) -> str:
        return str(self.workdir / f"{case.name}.csv")

    def before(self, req: Request) -> None:
        Path(self.out_path(req.arg)).unlink(missing_ok=True)

    def gate(self, req: Request, result) -> list:
        code, _out, err = result
        case = req.arg
        want = 0 if case.expect.get("hp") else 1
        if code != want:
            return [f"{case.name}: profile exit {code}, expected {want}: {err.strip()}"]
        if code != 0:
            return []
        lines = Path(self.out_path(case)).read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != PROFILE_HEADER:
            return [f"{case.name}: profile header is {lines[:1]}"]
        if len(lines) != PROFILE_SAMPLES + 1:
            return [f"{case.name}: profile has {len(lines) - 1} rows, expected {PROFILE_SAMPLES}"]
        try:
            table = np.array([line.split(",") for line in lines[1:]], dtype=float)
        except ValueError as err:
            return [f"{case.name}: profile rows do not parse: {err}"]
        if table.shape != (PROFILE_SAMPLES, 5) or not np.isfinite(table).all():
            return [f"{case.name}: profile table has shape {table.shape} or non-finite values"]
        mins = dict(zip(("P",) + tuple(f"lmin_{b}" for b in BLOCKS), table[:, 1:].min(axis=0)))
        problems = []
        if mins["P"] < EIG_FLOOR:
            problems.append(f"{case.name}: probability dips to {mins['P']:.3e}")
        for block, positive in case.profile_claims().items():
            low = mins[f"lmin_{block}"]
            if positive and low < EIG_FLOOR:
                problems.append(f"{case.name}: {block} is positive but its profile dips to {low:.3e}")
            if not positive and low >= EIG_FLOOR:
                problems.append(f"{case.name}: {block} is not positive but its profile stays at {low:.3e}")
        if case.name == "catalog-counterexample":
            for block, value in (("out1", -1.5), ("joint", -4.0)):
                low = mins[f"lmin_{block}"]
                if not math.isclose(low, value, rel_tol=0.0, abs_tol=1e-9):
                    problems.append(f"{case.name}: lmin_{block} minimum {low!r}, expected {value}")
        return problems


class SearchWorkload:
    """Repeated ``theorem_search`` calls at the default sampler and grid."""

    name = "search"

    def __init__(self, pc, workdir: Path, seed: int, size: str):
        self.pc = pc
        self.seed = seed
        self.trials, self.calls = SEARCH[size]
        self.reports: dict = {}

    def build(self) -> list:
        return []

    def prepare(self) -> tuple:
        mix = {"calls": self.calls, "trials_per_call": self.trials, "sampler": "default", "grid": 512}
        return [], mix

    def passes(self):
        """The same ``calls`` search seeds in every pass."""
        seeds = [self.seed * 100_000 + k for k in range(self.calls)]
        while True:
            yield [Request(f"seed {s}", s, self.trials) for s in seeds]

    def call(self, req: Request):
        return self.pc.search.theorem_search(req.trials, seed=req.arg)

    def report_lines(self) -> list:
        """The ``SearchReport`` counts of every seed used, for comparing two commits."""
        return [f"search_report seed={s} " + json.dumps(c, sort_keys=True) for s, c in self.reports.items()]

    def gate(self, req: Request, report) -> list:
        problems = []
        if report.violations:
            problems.append(f"{req.key}: {len(report.violations)} violations: {report.violations[:3]}")
        if report.witness_failures:
            problems.append(f"{req.key}: witness failures at trials {report.witness_failures[:10]}")
        if report.accepted + report.rejected != req.trials:
            problems.append(
                f"{req.key}: accepted {report.accepted} + rejected {report.rejected} != {req.trials}"
            )
        counts = {
            "accepted": report.accepted,
            "rejected": report.rejected,
            "case_counts": report.case_counts,
            "both_phase_dependent": report.both_phase_dependent,
        }
        seen = self.reports.setdefault(req.arg, counts)
        if seen != counts:
            problems.append(f"{req.key}: report {counts} differs from an earlier call {seen}")
        return problems


WORKLOADS = {w.name: w for w in (SearchWorkload, CheckWorkload, ProfileWorkload)}
