"""snlab benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload campaign --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; snlab is imported from ``src/`` of that
checkout, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics with tracing off (only the per-sample ``F_of_domain``
boundary of a campaign is timed), with calibration bursts between operations
that scale each operation's wall time to reference-host time (``calib.py``).
``--trace 1`` runs untraced control rounds, then the same rounds and more
with a span around every public function of each layer, and prints the
per-layer metrics, the tracing overhead and the results of the
trace-integrity checks.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--out FILE`` writes every operation's eigenvalues at full precision, the
spans of a traced run and the run's provenance; ``--compare FILE`` reports the
largest relative eigenvalue drift against such a file.  Drift is a diagnostic,
not a metric: the reference checks decide correctness.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1     # one thread: a shared two-core machine gives no steady scaling
SETUP_PROBES = 5     # fresh processes whose set-up time gives the median setup_s
HOST_BURSTS = 20     # calibration bursts a traced run times for host.burst_ms
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
E2E_UNITS = {"norm_op_p50_ms": "ms", "norm_op_p90_ms": "ms", "norm_ops_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own smoke test")
    ap.add_argument("--out", help="write operations, spans and provenance as JSON")
    ap.add_argument("--compare", help="previous --out file to report eigenvalue drift against")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        ap.error("--workload is required")
    return args


def setup() -> None:
    """Import snlab and scipy, then warm up ARPACK, SuperLU and the banded
    Cholesky with one tiny polygon solve and one sl1d solve."""
    import workloads  # noqa: F401  (imports snlab, numpy and scipy)
    from snlab import geom2d, profiles, sl1d
    from snlab.fem2d import functional
    functional.F_of_domain(geom2d.named("square"), hmax=0.25)
    sl1d.F_of_h(profiles.constant(), 64)


def probe_setup_s() -> tuple:
    """Time from process creation to the end of set-up, over fresh processes
    that do nothing else, each between two calibration bursts.  Returns the
    medians of the scaled and of the wall times."""
    from calib import Calibration

    cal = Calibration()
    walls, scaled = [], []
    before = cal.burst()
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        walls.append(perf_counter() - t0)
        proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        after = cal.burst()
        scaled.append(walls[-1] * cal.scale([before, after]))
        before = after
    return statistics.median(scaled), statistics.median(walls)


def run_rounds(wl, budget_s: float, min_rounds: int, tracer=None, cycle: int = 1):
    """Closed loop over rounds, in whole cycles of ``cycle`` rounds, until the
    next cycle would end past the budget."""
    wl.start()
    rounds, walls = [], []
    t_start = perf_counter()
    while (len(rounds) < min_rounds or len(rounds) % cycle
           or (perf_counter() - t_start) + cycle * walls[-1] <= budget_s):
        if tracer is not None:
            tracer.values_enabled = not rounds
        t0 = perf_counter()
        rounds.append(wl.run_round(len(rounds)))
        walls.append(perf_counter() - t0)
    return rounds


def percentile_ms(walls, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(walls, dtype=float), q)) * 1e3


def end_to_end(wl, seconds: float) -> tuple:
    from calib import Calibration

    wl.cal = Calibration(wl.burst_mix, wl.burst_repeat)
    rounds = run_rounds(wl, seconds, wl.min_rounds, cycle=wl.cycle)
    ops = [op for r in rounds for op in r.ops]
    walls = [op.wall_s for op in ops]
    norm = [op.wall_s * op.scale for op in ops]
    metrics = {
        "norm_op_p50_ms": percentile_ms(norm, 50),
        "norm_op_p90_ms": percentile_ms(norm, 90),
        "norm_ops_per_s": len(ops) / sum(r.busy_s * r.scale for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    bursts = wl.cal.bursts
    notes = [f"{wl.name}: {len(ops)} operations in {len(rounds)} rounds; p90 has "
             f"{sum(w * 1e3 > metrics['norm_op_p90_ms'] for w in norm)} operations beyond it",
             f"wall time: op_p50_ms {percentile_ms(walls, 50):.4g}, op_p90_ms "
             f"{percentile_ms(walls, 90):.4g}, ops_per_s "
             f"{len(ops) / sum(r.busy_s for r in rounds):.4g}; {len(bursts)} calibration "
             f"bursts, median {statistics.median(bursts) * 1e3:.4g} ms; with their warm-up "
             f"passes they took {wl.cal.spent_s / seconds:.1%} of the budget"]
    return ops, metrics, notes, None


def traced(wl, seconds: float) -> tuple:
    """Untraced control rounds for a quarter of the budget, then the same
    rounds and more traced for half the budget, then the trace-integrity
    checks."""
    from calib import Calibration
    from tracer import Tracer

    cal = Calibration()
    for _ in range(HOST_BURSTS):
        cal.burst()
    control = run_rounds(wl, seconds / 4.0, 1)
    tr = Tracer()
    tr.install()
    try:
        rounds = run_rounds(wl, seconds / 2.0, max(wl.min_trace_rounds, len(control)), tr)
    finally:
        tr.uninstall()
    ops = [op for r in control + rounds for op in r.ops]

    problems = []
    untraced = [(op.id, op.values) for r in control for op in r.ops]
    if [(op.id, op.values) for r in rounds[:len(control)] for op in r.ops] != untraced:
        problems.append("traced eigenvalues differ from the untraced control rounds")
    missing = sorted(set(wl.expected_spans) - tr.fired())
    if missing:
        problems.append(f"spans never fired: {missing}")
    busy = sum(r.busy_s for r in rounds)
    unaccounted = (busy - tr.self_time_s() - tr.hook_s) / busy
    if abs(unaccounted) > 0.01:
        problems.append(f"self times miss {unaccounted:.2%} of the traced wall time")
    metrics = tr.metrics()
    metrics["trace.overhead_frac"] = (sum(r.busy_s for r in rounds[:len(control)])
                                      / sum(c.busy_s for c in control) - 1.0)
    metrics["trace.unaccounted_frac"] = unaccounted
    metrics["host.burst_ms"] = statistics.median(cal.bursts) * 1e3
    notes = [f"{wl.name}: traced {sum(len(r.ops) for r in rounds)} operations in "
             f"{len(rounds)} rounds, {len(tr.spans)} spans; overhead "
             f"{metrics['trace.overhead_frac']:+.2%} against {len(control)} untraced control rounds; "
             f"unaccounted {unaccounted:+.3%}"]
    notes += [f"TRACE CHECK FAILED: {p}" for p in problems]
    return ops, metrics, notes, {"spans": tr.spans, "problems": problems}


def drift(ops, path: str) -> dict:
    """Largest relative difference of any eigenvalue of an operation that also
    appears in a previous --out file."""
    prev = {op["id"]: op["values"] for op in json.loads(Path(path).read_text())["ops"]}
    worst, matched = 0.0, 0
    for op in ops:
        old = prev.get(op.id)
        if not old or not op.values:
            continue
        matched += 1
        for key, val in op.values.items():
            if key in old and old[key] != 0.0:
                worst = max(worst, abs(val - old[key]) / abs(old[key]))
    return {"against": path, "matched_ops": matched, "max_relative_drift": worst}


def provenance(args) -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 20,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "numpy_blas": blas(np), "scipy_blas": blas(scipy),
        "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "src_sha256": digest.hexdigest(),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_commit() -> str | None:
    """HEAD of the checkout's own .git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "snlab" / "__init__.py").is_file():
        print(f"perfbench: no snlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup()
        print("ready", flush=True)
        return 0

    setup_s, setup_wall_s = (None, None) if args.trace else probe_setup_s()
    setup()
    from workloads import WORKLOADS
    from tracer import metric_units
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.size == "tiny")
    prov = provenance(args)
    print(json.dumps({"provenance": prov}))

    if args.trace:
        ops, values, notes, trace_info = traced(wl, args.seconds)
        units = metric_units()
    else:
        ops, values, notes, trace_info = end_to_end(wl, args.seconds)
        values["setup_s"] = setup_s
        notes.append(f"setup_s wall time: {setup_wall_s:.4g} s")
        units = E2E_UNITS
    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        notes.append(f"FAILED {op.id}: {op.error}")
    report = {"provenance": prov, "metrics": values,
              "ops": [vars(op) for op in ops], "trace": trace_info}
    if args.compare:
        report["drift"] = drift(ops, args.compare)
        notes.append(f"drift: {json.dumps(report['drift'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(report))
    for note in notes:
        print(note)
    correct = not failed and not (trace_info and trace_info["problems"])
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
