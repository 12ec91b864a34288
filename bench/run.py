"""lipgrowth benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload constants|exact|random --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
workload's calls and their expected outputs are built here (oracle.py,
workloads.py), then a fresh worker process runs a warm-up pass and timed
passes (worker.py).  Set-up time is the median import time over several
fresh interpreters.  Times are read at the reference kernel's nominal
speed (speedref.py): each is divided by the time of the kernel run next to
it and multiplied by the kernel's nominal time, which takes out the drift
of a shared host's speed; the raw seconds stay in the record.  The last
stdout line is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``); the line before it holds the full record: passes, every
check with its error against the reference, and the machine and provenance.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import speedref
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150
PROBE = ("import sys, time; t = time.perf_counter(); import lipgrowth, lipgrowth.cli; "
         "t = time.perf_counter() - t; sys.path.insert(0, {bench!r}); import speedref; "
         "speedref.measure(); print(t, speedref.measure()[0])")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# The worker and the import probes run numpy's BLAS on one thread: on a
# 2-core shared host a second BLAS thread made the constants pass slower
# (median 5.8 s against 4.5 s) and spread it wider (4.2-6.9 s against
# 4.1-5.2 s), since a call then waits for whichever core a neighbour uses.
CHILD_THREADS = "1"


def child_env(src: str) -> dict:
    """Environment of the worker and the import probes."""
    return dict(os.environ, PYTHONPATH=src,
                **{k: CHILD_THREADS for k in THREAD_VARS})


def _src_digest(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def provenance(root: str, src: str) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "load_start": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": _blas(),
            "thread_env": {k: child_env(src)[k] for k in THREAD_VARS},
            "machine": platform.machine(), "git_commit": _git_commit(root),
            "src_sha256": _src_digest(src)}


def _setup_samples(src: str) -> list[tuple[float, float]]:
    """Import seconds of ``lipgrowth`` and ``lipgrowth.cli`` in fresh
    interpreters, each with the reference kernel's time run after it."""
    env = child_env(src)
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", PROBE.format(bench=BENCH_DIR)],
                             env=env, capture_output=True, text=True, check=True,
                             timeout=60)
        seconds, kernel = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(kernel)))
    return samples


def run_worker(root: str, calls: list[dict], seconds: float, trace: bool,
               warmup: bool = True) -> dict:
    """Run one workload in a fresh interpreter importing ``root``/src."""
    src = os.path.join(root, "src")
    spec = {"calls": calls, "seconds": seconds, "trace": trace, "warmup": warmup}
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "worker.py")],
                          input=json.dumps(spec), env=child_env(src),
                          cwd=root, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.realpath(res["lipgrowth_file"]).startswith(os.path.realpath(src)):
        raise RuntimeError(f"imported {res['lipgrowth_file']}, not {src}")
    return res


def scaled_median(passes: list[dict], key: str, ref_key: str) -> float:
    """Median over passes of the pass's ``key`` seconds at the reference
    kernel's nominal speed (speedref.py), from the kernel runs of that pass."""
    return statistics.median(speedref.scaled(p[key], p[ref_key], p["ref_runs"])
                             for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lipgrowth", "__init__.py")):
        print(f"error: no lipgrowth sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    why = {w["name"]: w["why"] for w in declared["workloads"]}

    prov = provenance(root, src)
    scratch_root = os.path.join(root, ".bench_run")
    os.makedirs(scratch_root, exist_ok=True)
    rundir = tempfile.mkdtemp(dir=scratch_root)
    try:
        t0 = time.perf_counter()
        calls = workloads.build(args.workload, args.seed, rundir)
        oracle_s = time.perf_counter() - t0
        setup_samples = _setup_samples(src)
        res = run_worker(root, calls, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch_root)
    prov["load_end"] = os.getloadavg()
    prov["loaded"] = max(prov["load_start"][0], prov["load_end"][0]) > prov["nproc"]
    prov["trace_overhead_s"] = res.get("trace", {}).get("overhead_s")
    raw_setup = statistics.median(t for t, _ in setup_samples)

    attempted, failed = res["attempted"], res["failed"]
    passes = res["passes"]
    measured = {
        "wall_s": scaled_median(passes, "wall_s", "ref_wall_s"),
        "cpu_s": scaled_median(passes, "cpu_s", "ref_cpu_s"),
        "setup_s": statistics.median(speedref.scaled(t, k) for t, k in setup_samples),
        "peak_rss_mb": res["peak_rss_mb"],
        "passed_frac": 1 - failed / attempted,
    }
    if args.trace:
        measured = res["trace"]["metrics"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "why": why.get(args.workload),
        "seed": args.seed, "seed_dependent": workloads.SEED_DEPENDENT[args.workload],
        "seconds": args.seconds, "trace": args.trace,
        "client": "closed loop, 1 client, one lipgrowth.cli.main call at a time",
        "oracle_s": oracle_s, "setup_samples_s": setup_samples,
        "worker_setup_s": res["setup_s"], "peak_rss_end_mb": res["peak_rss_end_mb"],
        "warmup_s": res.get("warmup_s"), "timed_passes": len(passes),
        "raw_median_pass_wall_s": statistics.median(p["wall_s"] for p in passes),
        "raw_median_pass_cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "host_speed": statistics.median(
            speedref.scaled(1.0, p["ref_wall_s"], p["ref_runs"]) for p in passes),
        "raw_setup_s": raw_setup,
        "passes": passes,
        "failed_frac": failed / attempted, "failures": res["failures"],
        "checks": res["checks"], "trace_detail": res.get("trace"),
        "provenance": prov,
    }
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
