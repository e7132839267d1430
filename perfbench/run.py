"""Benchmark of the phaseclone package: one command, three workloads.

    python3 perfbench/run.py --workload {search,check,profile}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  One process, one closed-loop client
and one BLAS thread.  Workloads:

* ``search``: ``theorem_search(10, seed=...)`` calls on 100 seeds at
  the default sampler and grid.
* ``check``: ``cli.main(["check", file])`` over a seeded set of PMAP files.
* ``profile``: ``cli.main(["profile", file, "--samples", "4096", ...])``
  over the same files.

Every workload runs whole passes over a fixed seeded request list (the
file set, or the search seeds), so every run sees the same input mix.
``--seconds`` sets how many passes a run makes, from the time a pass
took on the reference host (``PASS_SECONDS``), so a faster or slower
commit is measured over the same number of calls.

Times are reported at a fixed host speed.  The reference host, a shared
VM, ran 20-55% slower for minutes at a time, which no statistic over one
run filters out, so every timed call is preceded by :func:`reference_seconds`, a
fixed kernel that does not use the package, and its time is scaled by
``REFERENCE_S / kernel time``: the time the call would take on a host
where the kernel takes ``REFERENCE_S``.  The report prints the median
kernel time, so raw times can be recovered.  A request's time is the
median over its repeats in the run; ``call_ms_p50``/``p90`` are taken
over requests and ``trials_per_s`` is trials per second over one pass.
``setup_s`` is the median time of ``import phaseclone`` in a fresh
interpreter plus the median time of building, serializing, writing and
parsing the inputs, each over ``SETUP_REPEATS`` tries and scaled the same
way.  Every call is gated for correctness (see
``workloads.py``); a call that raises, exits with 2 or gives a wrong
verdict counts as failed.  Every metric is printed by name with its unit,
and the last line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones.  With ``--trace 1`` each request runs once untraced and
once traced (alternating which goes first) and the metrics are the
per-layer ones of ``tracing.py``, including the tracing overhead.
The exit code is 0 when every gate passed, 1 when one failed and 2 when
the package cannot be found.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_tmp"
DEFAULT_SEED = 20260809
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Set-up is measured this many times per run and its median reported.
SETUP_REPEATS = 5
#: Reported times are scaled to a host where the reference kernel takes this long.
REFERENCE_S = 0.005
CLIENTS = 1
#: Seconds one untraced pass of each workload takes, with its reference
#: kernels, on the reference host (2-vCPU KVM guest, Intel Xeon with
#: AVX-512, Python 3.11, numpy 2.4) when the kernel takes ``REFERENCE_S``.
#: A traced pass runs every request twice and counts double.
PASS_SECONDS = {"search": 2.9, "check": 3.0, "profile": 6.4}
#: Measuring stops after this many times ``--seconds`` even with passes
#: left, so that a run on a slow host or commit still ends in time; the
#: report says so.
MEASURE_CAP = 3.0

END_TO_END = {
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import phaseclone\n"
    "print(time.perf_counter() - t)\n"
)


class PackageMissing(RuntimeError):
    pass


@functools.cache
def _reference_batch():
    import numpy as np

    g = np.random.default_rng(0).normal(size=(2, 512, 4, 4))
    g = g[0] + 1j * g[1]
    return g + np.conj(np.swapaxes(g, 1, 2))


def reference_seconds() -> float:
    """Time of a fixed kernel shaped like the package's work.

    Interpreted complex arithmetic and small batched Hermitian eigensolves,
    as in ``trigpoly`` and ``positivity``; its time tracks the host's speed.
    """
    import numpy as np

    batch = _reference_batch()
    start = time.perf_counter()
    acc = 0j
    for i in range(4000):
        z = complex(i % 7, i % 5)
        acc += z * z.conjugate() / (1 + abs(z))
    for _ in range(3):
        np.linalg.eigvalsh(batch)
    return time.perf_counter() - start


def load_package():
    """Import phaseclone from ``src/`` of this checkout, never from elsewhere."""
    init = SRC / "phaseclone" / "__init__.py"
    if not init.is_file():
        raise PackageMissing(f"{init.relative_to(ROOT)} not found; run from a phaseclone checkout")
    sys.path.insert(0, str(SRC))
    import phaseclone
    import phaseclone.cli
    import phaseclone.search

    if Path(phaseclone.__file__).resolve() != init.resolve():
        raise PackageMissing(f"phaseclone was imported from {phaseclone.__file__}, not {init}")
    return phaseclone


def _import_seconds() -> float:
    """Time of ``import phaseclone`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(seed: int, workload: str, seconds: float, trace: int) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "clients": CLIENTS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "nproc": nproc,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "machine": platform.machine(),
    }


@dataclass
class Measurement:
    times: dict = field(default_factory=dict)  # request key -> scaled untraced seconds per call
    kernel: list = field(default_factory=list)  # reference kernel seconds, one per untraced call
    trials: dict = field(default_factory=dict)  # request key -> trials per call
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    untraced_s: float = 0.0
    traced_s: float = 0.0
    passes: int = 0
    wall_s: float = 0.0


def _timed_call(workload, req, tracer=None) -> tuple:
    """(seconds, result, traceback or None) of one request."""
    before = getattr(workload, "before", None)
    if before is not None:
        before(req)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.call(req)
        else:
            with tracer.request():
                result = workload.call(req)
    except Exception:  # the benchmark must go on and count the failure
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, result, None


def measure(workload, passes: int, cap_s: float, tracer=None) -> Measurement:
    """Closed loop over ``passes`` passes of the workload, or ``cap_s`` seconds.

    A pass is always run to the end.  With a tracer, each request runs
    untraced and traced.
    """
    m = Measurement()
    start = time.perf_counter()
    deadline = start + cap_s
    for done, batch in enumerate(workload.passes(), start=1):
        for req in batch:
            m.attempted += 1
            modes = [None] if tracer is None else [None, tracer]
            if m.attempted % 2 == 0:
                modes.reverse()
            problems = []
            for mode in modes:
                if mode is None:
                    kernel_s = reference_seconds()
                dt, result, error = _timed_call(workload, req, mode)
                if mode is None:
                    m.untraced_s += dt
                    m.kernel.append(kernel_s)
                    m.times.setdefault(req.key, []).append(dt * REFERENCE_S / kernel_s)
                    m.trials[req.key] = req.trials
                else:
                    m.traced_s += dt
                if error is not None:
                    problems.append(f"{req.key}: raised\n{error}")
                else:
                    problems.extend(workload.gate(req, result))
            if problems:
                m.failed += 1
                m.problems.extend(problems)
        m.passes = done
        m.wall_s = time.perf_counter() - start
        if done >= passes or time.perf_counter() >= deadline:
            break
    return m


def setup(pc, name: str, seed: int, size: str, workdir: Path) -> tuple:
    """Build the workload ``SETUP_REPEATS`` times; return it, set-up seconds and problems."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](pc, workdir, seed, size)
    imports, builds, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_S / reference_seconds()
        imports.append(_import_seconds() * scale)
        scale = REFERENCE_S / reference_seconds()
        start = time.perf_counter()
        problems = workload.build()
        builds.append((time.perf_counter() - start) * scale)
    return workload, statistics.median(imports) + statistics.median(builds), problems


def end_to_end(m: Measurement, setup_s: float) -> dict:
    typical = {k: statistics.median(v) for k, v in m.times.items()}
    ms = [t * 1000.0 for t in typical.values()]
    return {
        "call_ms_p50": statistics.median(ms),
        "call_ms_p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
        "trials_per_s": sum(m.trials.values()) / sum(typical.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def run(name: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """Run one workload, print its report and return the result object."""
    os.environ.update(BLAS_THREADS)
    pc = load_package()
    print("env " + json.dumps(environment(seed, name, seconds, trace), sort_keys=True))
    workdir = WORKDIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_s, problems = setup(pc, name, seed, size, workdir)
        prep_problems, mix = workload.prepare()
        problems += prep_problems
        print(f"mix {name} " + json.dumps(mix, sort_keys=True))
        tracer = Tracer() if trace else None
        passes = max(1, round(seconds / (PASS_SECONDS[name] * (2 if trace else 1))))
        m = measure(workload, passes, MEASURE_CAP * seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in workload.report_lines():
        print(line)

    samples = (
        f"{m.passes} of {passes} passes in {m.wall_s:.1f} s, {len(m.times)} requests of "
        f"{getattr(workload, 'trials', 1)} trial(s), {sum(map(len, m.times.values()))} untraced calls"
    )
    print(f"reference kernel: median {statistics.median(m.kernel) * 1000:.3f} ms over "
          f"{len(m.kernel)} timings; times are scaled to {REFERENCE_S * 1000:g} ms")
    if m.passes < passes:
        print(f"measuring stopped after {m.wall_s:.1f} s, {m.passes} of {passes} passes done")
    if trace:
        if tracer.missing:
            print("trace points missing (their metrics read 0): " + ", ".join(tracer.missing))
        overhead = m.traced_s / m.untraced_s if m.untraced_s else 0.0
        values = tracer.per_layer(overhead)
        units = PER_LAYER
        print(f"traced requests: {tracer.requests}; spans: {len(tracer.spans)}")
    else:
        values = end_to_end(m, setup_s)
        units = END_TO_END
    for metric, value in values.items():
        print(f"metric {metric} = {value!r} {units[metric]}")
    print(f"metric failed_ratio = {m.failed / max(m.attempted, 1)!r} ratio "
          f"({m.failed} of {m.attempted} calls; {samples})")
    for problem in (problems + m.problems)[:20]:
        print("problem: " + problem)
    result = {
        "correct": not problems and m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "check", "profile"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time on the reference host; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except PackageMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
