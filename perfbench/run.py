"""qalb benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-d2q9 --seed 1 --seconds 5 --trace 0

With --trace 0 it times passes of the workload for --seconds seconds (at
least one pass) and prints the end-to-end metrics.  With --trace 1 it runs
one traced pass plus the certificate audit, writes the spans to
perfbench/_work/traces/, and prints the per-layer metrics.  Every output is
checked either way.  The last line of stdout is the result object; the line
before it is the environment record.  qalb is imported from the checkout's
src/, never from an installed copy.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import layers
import tracer as tr
from workloads import WORKLOADS, Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 7


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _blas_threads():
    """OpenBLAS's own thread count, asked through the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment():
    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    page = os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba_imports": has_numba,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * page / 2**20),
        "mem_free_mb": round(os.sysconf("SC_AVPHYS_PAGES") * page / 2**20),
        "wait_metrics": "none: one thread of control, no queues; BLAS threads at most nproc",
    }


def setup_seconds():
    """Median over fresh processes of importing qalb and qalb.cli and
    building the lattices."""
    probe = str(HERE / "setup_probe.py")
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, probe, str(SRC)], capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_run(workload, seconds):
    setup = setup_seconds()
    clock = Clock()
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(workload.run_pass(clock))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if hasattr(workload, "final_check"):
        workload.final_check(passes[-1])
    samples = [s for p in passes for s in p.samples]
    step = statistics.median(samples)
    print(
        f"{workload.name}: {len(passes)} passes, {len(samples)} step samples, "
        f"median step {step * 1e3:.3f} ms"
    )
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "step_ms_p90": (float(np.percentile(samples, 90)) * 1e3, "ms"),
        "site_updates_per_s": (workload.site_updates_per_step / step, "1/s"),
    }
    return passes, metrics


def traced_run(qalb, workload, run_id, env):
    cost = tr.span_cost()
    tracer = tr.Tracer(run_id)
    probes = layers.LayerProbes(qalb)
    with tracer.instrumented(probes.targets()):
        res = workload.run_pass(Clock(tracer))
        if hasattr(workload, "final_check"):
            with tracer.span("bench.check"):
                workload.final_check(res)
        audit = layers.certificate_audit(qalb, tracer)
    metrics = layers.layer_metrics(tracer.spans, audit, cost)
    roots = tr.root_summary(tracer.spans)
    out_dir = HERE / "_work" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{run_id}.json"
    tracer.write(path, {"env": env, "audit": audit, "roots": roots, "span_cost_s": cost})
    ops = [r for r in roots if r["name"] == "bench.op"]
    worst = max(r["uncovered"] / r["duration"] for r in ops)
    print(f"trace: {len(tracer.spans)} spans in {path.relative_to(ROOT)}; worst uncovered share of an op {worst:.2%}")
    for row in audit:
        print(
            f"audit qc={row['qc']} {row['mode']}: certificate {row['certificate']:.7f} "
            f"svd {row['svd']:.7f} threshold {row['threshold']:.7f}"
        )
    return [res], {k: (v["value"], v["unit"]) for k, v in metrics.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "qalb" / "__init__.py").is_file():
        print(f"run.py: no qalb sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qalb
    import qalb.cli  # noqa: F401  (binds qalb.cli)

    if Path(qalb.__file__).resolve().parent != SRC / "qalb":
        print(f"run.py: imported qalb from {qalb.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    run_id = f"{args.workload}-seed{args.seed}"
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=run_id + "-", dir=HERE / "_work")
    try:
        workload = WORKLOADS[args.workload](qalb, np.random.default_rng(args.seed), workdir)
        if args.trace:
            passes, metrics = traced_run(qalb, workload, run_id, env)
        else:
            passes, metrics = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    for e in errors[:10]:
        print(f"check failed: {e}")
    print(json.dumps({"env": env}))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
