"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks, on a tiny input set, that every workload prints every metric of
``BENCHMARK.json`` by name with its unit (and ``failed_ratio``), that the
last line carries exactly those metrics, that each workload's gates fire
when an expected verdict is deliberately wrong, that the verdict oracle
settles hand-made families the right way, that the tracer's self times
and counts are right on a stand-in package, and that the benchmark
refuses to run without the package.  Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BLOCKS, oracle_positive  # noqa: E402

SEED = 7
SECONDS = 0.2


def check_metrics(spec: dict, workload: str, trace: int) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = run.run(workload, SEED, SECONDS, trace, size="tiny")
    lines = buf.getvalue().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, _eq, _value, unit = line.split()[1:5]
            printed[name] = unit
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    wanted["failed_ratio"] = "ratio"
    wrong = {k: (printed.get(k), u) for k, u in wanted.items() if printed.get(k) != u}
    assert not wrong, f"{workload} trace={trace}: metrics printed wrongly (got, want): {wrong}"
    assert json.loads(lines[-1]) == result, "last line is not the result object"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted.pop("failed_ratio")
    assert units == wanted, f"{workload} trace={trace}: result metrics {units} != {wanted}"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    print(f"ok: {workload} trace={trace} prints {len(wanted) + 1} metrics with units")


def _flip_exit(workload) -> None:
    case = next(c for c in workload.cases if c.name == "catalog-counterexample")
    case.expect["exit"] = 1 - case.expect["exit"]


def _flip_positivity(workload) -> None:
    """Flip the first positivity verdict of a constructed file that the oracle settled."""
    case = next(c for c in workload.cases if c.kind == "2x2" and None not in c.expect["pos"])
    pos = list(case.expect["pos"])
    pos[0] = not pos[0]
    case.expect["pos"] = tuple(pos)
    case.expect["exit"] = 0 if all(pos) else 1


def _flip_hermiticity(workload) -> None:
    case = next(c for c in workload.cases if c.name == "catalog-counterexample")
    case.expect["hp"] = not case.expect["hp"]


def _inject_violation(workload) -> None:
    call = workload.call

    def call_with_violation(req):
        report = call(req)
        report.violations.append("injected")
        return report

    workload.call = call_with_violation


def check_gates(workload_name: str, corrupt) -> None:
    pc = run.load_package()
    workdir = run.WORKDIR / f"selftest-{workload_name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, _setup_s, problems = run.setup(pc, workload_name, SEED, "tiny", workdir)
        problems += workload.prepare()[0]
        assert not problems, problems
        corrupt(workload)
        m = run.measure(workload, passes=1, cap_s=60.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert m.failed >= 1 and m.problems, f"{workload_name}: a wrong expectation went unnoticed"
    print(f"ok: {workload_name} gate fires ({m.failed} of {m.attempted} calls failed)")


def check_oracle() -> None:
    """The oracle on ``P(phi) = 2 cos(phi) + R`` (positive iff R >= 2) and a 2x2 family."""
    pc = run.load_package()

    def scalar(R):
        return pc.PhaseOperator.from_rows([[(1.0, 1.0, R)]])

    assert oracle_positive(scalar(3.0)) is True
    assert oracle_positive(scalar(1.9)) is False
    assert oracle_positive(scalar(2.0)) is None, "a touching zero is a knife edge"
    # diag(P, -0.01 P) with P > 0 everywhere: not positive, by a narrow margin.
    P = pc.FirstOrderPoly(1.0, 1.0, 2.5)
    assert oracle_positive(pc.PhaseOperator.from_rows([[P, 0.0], [0.0, -0.01 * P]])) is False
    counterexample = pc.builtin("counterexample").payload
    verdicts = [oracle_positive(getattr(counterexample, b)) for b in BLOCKS]
    assert verdicts == [False, False, False], verdicts
    print("ok: oracle settles hand-made families")


def check_tracer() -> None:
    """Self time and the re-grid count on a stand-in package with known timings."""
    positivity = types.ModuleType("standin.positivity")
    search = types.ModuleType("standin.search")

    class Operator:
        dim = 4

    class Verdict:
        positive = True

    def is_positive_over_phase(op, tol=1e-9, n=4096):
        time.sleep(0.02)
        return Verdict()

    def theorem_search(trials, seed=0):
        time.sleep(0.01)
        search.is_positive_over_phase(Operator(), 1e-9, 512)
        search.is_positive_over_phase(Operator(), 1e-9, 4096)

    positivity.is_positive_over_phase = search.is_positive_over_phase = is_positive_over_phase
    search.theorem_search = theorem_search
    modules = {"standin": types.ModuleType("standin"), "standin.positivity": positivity,
               "standin.search": search}
    sys.modules.update(modules)
    try:
        tracer = Tracer("standin")
        with tracer.request():
            search.theorem_search(1)
        with tracer.request():
            positivity.is_positive_over_phase(Operator())  # grid 4096 outside a search
    finally:
        for name in modules:
            del sys.modules[name]
    assert search.theorem_search is theorem_search, "wrappers were not removed"
    totals = tracer.self_times()
    cert_s, cert_calls = totals["positivity.cert.d4"]
    search_s, _ = totals["search.theorem_search"]
    assert cert_calls == 3 and cert_s >= 0.06, totals
    assert 0.01 <= search_s < 0.03, f"search self time {search_s} includes its children"
    values = tracer.per_layer(1.0)
    assert values["positivity.cert_calls.d4"] == 1.5, values
    assert values["search.regrid_calls"] == 0.5, values
    assert values["positivity.refined_ratio"] == 1.0, values
    print("ok: tracer self times and re-grid count")


def check_refuses_without_package() -> None:
    bare = run.WORKDIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "check", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done
    print(f"ok: without src/ the benchmark exits {done.returncode} and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in ("search", "check", "profile"):
        for trace in (0, 1):
            check_metrics(spec, workload, trace)
    check_oracle()
    check_gates("check", _flip_exit)
    check_gates("check", _flip_positivity)
    check_gates("profile", _flip_hermiticity)
    check_gates("search", _inject_violation)
    check_tracer()
    check_refuses_without_package()
    return 0


if __name__ == "__main__":
    sys.exit(main())
