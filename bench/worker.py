"""One workload in a fresh interpreter: import, warm up, timed passes, and
optionally traced passes.

Reads a JSON spec on stdin (``calls``, ``seconds``, ``trace``, ``warmup``)
and writes one JSON result line on stdout.  Each pass issues the calls one
at a time through ``lipgrowth.cli.main(argv)`` (a closed loop with one
client), captures the printed JSON and checks it.  Every pass but the
warm-up runs the reference kernel (speedref.py) before each call, outside
the call's timing.  Timed passes run untraced; with tracing on, each is
followed by a traced pass, whose times are read at the reference speed,
and the difference of the two kinds' medians is the tracing overhead.
"""
import time

_t0 = time.perf_counter()
import lipgrowth  # noqa: E402
import lipgrowth.cli  # noqa: E402,F401
SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import speedref  # noqa: E402
import tracer as tracing  # noqa: E402


def run_pass(calls, reference=False):
    """One pass: its wall and CPU seconds (each call with its check), the
    checks of every call and, with ``reference``, the reference kernel's
    wall and CPU seconds summed over one run before each call."""
    results = []
    wall = cpu = ref_wall = ref_cpu = 0.0
    for call in calls:
        if reference:
            rw, rc = speedref.measure()
            ref_wall, ref_cpu = ref_wall + rw, ref_cpu + rc
        t0, c0 = time.perf_counter(), time.process_time()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lipgrowth.cli.main(list(call["argv"]))
        except Exception:  # a crash is a failed call, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
        result = checks.check_call(call["check"], code, out.getvalue())
        if code != 0:
            result[0]["stderr"] = err.getvalue()[-500:]
        results.append(result)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
    return {"wall_s": wall, "cpu_s": cpu, "ref_wall_s": ref_wall,
            "ref_cpu_s": ref_cpu, "ref_runs": len(calls) if reference else 0}, results


def scaled(seconds, timing):
    """``seconds`` at the reference speed of the pass that ``timing`` is of."""
    return speedref.scaled(seconds, timing["ref_wall_s"], timing["ref_runs"])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    spec = json.load(sys.stdin)
    calls, seconds = spec["calls"], spec["seconds"]
    outcome = {"setup_s": SETUP_S, "lipgrowth_file": lipgrowth.__file__}
    tally = checks.Tally()

    def record(results):
        for call, result in zip(calls, results):
            tally.add(call["argv"], result)
        outcome["checks"] = [{"argv": call["argv"], "checks": result}
                             for call, result in zip(calls, results)]

    if spec["warmup"]:
        timing, results = run_pass(calls)
        outcome["warmup_s"] = timing["wall_s"]
        record(results)
    # Peak memory of the import and one whole pass, read before the first
    # run of the reference kernel, whose 36 MB block would otherwise set the
    # peak of the smaller workloads.
    outcome["peak_rss_mb"] = peak_rss_mb()
    # Rounds of one untraced pass (and one traced pass with --trace 1) until
    # another round would overrun the measuring time; at least one round.
    tr = tracing.Tracer()
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        timing, results = run_pass(calls, reference=True)
        passes.append(timing)
        record(results)
        if spec["trace"]:
            # the kernel runs outside lipgrowth, so the tracer does not see it
            tr.install()
            try:
                timing, results = run_pass(calls, reference=True)
            finally:
                tr.uninstall()
            record(results)
            summary = tr.summary()
            tr.reset()
            # every time of a traced pass is read at the reference speed
            factor = scaled(1.0, timing)
            metrics = {k: v * factor if k.endswith("_s") else v
                       for k, v in tracing.layer_metrics(summary).items()}
            metrics["bench.uncovered_s"] = (
                timing["wall_s"] - summary["root_total_s"]) * factor
            traced.append({"wall_s": timing["wall_s"],
                           "scaled_wall_s": timing["wall_s"] * factor,
                           "spans": summary["spans"],
                           "counters": summary["counters"], "metrics": metrics})
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    outcome.update(passes=passes, attempted=tally.attempted,
                   failed=tally.failed, failures=tally.failures)
    outcome["peak_rss_end_mb"] = peak_rss_mb()
    if traced:
        overhead = (statistics.median(t["scaled_wall_s"] for t in traced)
                    - statistics.median(scaled(p["wall_s"], p) for p in passes))
        # times are medians over traced passes; counters repeat exactly
        metrics = {k: statistics.median(t["metrics"][k] for t in traced)
                   if k.endswith("_s") else v
                   for k, v in traced[0]["metrics"].items()}
        metrics["bench.trace_overhead_s"] = overhead
        outcome["trace"] = {
            "passes": [{k: t[k] for k in ("wall_s", "scaled_wall_s", "spans")}
                       for t in traced],
            "overhead_s": overhead,
            "counters": traced[0]["counters"],
            "counters_repeat": all(t["counters"] == traced[0]["counters"]
                                   for t in traced),
            "metrics": metrics,
        }
    sys.stdout.write(json.dumps(outcome, default=str) + "\n")


if __name__ == "__main__":
    main()
