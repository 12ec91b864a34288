"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads constants exact random --runs 10 \
        [--first-seed 1] [--trace 0|1] [--out FILE]

For every workload and end-to-end metric this prints the median of the
per-run values and the quartile spread (Q3 - Q1) / median, with quartiles
from ``statistics.quantiles(values, n=4)``, next to the metric's bound in
BENCHMARK.json, flagged WIDE unless it is below a third of the bound.  With ``--out`` it also writes the values, medians and
spreads as JSON under the key ``end_to_end`` or ``per_layer``, keeping
the other key of an existing file; baseline.json was made with
``--runs 10`` and then ``--runs 1 --trace 1``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        declared = json.load(fh)
    declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared_metrics}
    units = {m["name"]: m["unit"] for m in declared_metrics}
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    report = {"runs": args.runs, "first_seed": args.first_seed,
              "trace": args.trace, "seconds": declared["run_seconds"],
              "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        records = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, run_py, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(declared["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            records.append({"seed": seed, "correct": result["correct"],
                            "attempted": result["attempted"],
                            "failed": result["failed"],
                            "load_start": record["provenance"]["load_start"][0],
                            "load_end": record["provenance"]["load_end"][0]})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  file=sys.stderr, flush=True)
        stats = {name: summarize(vals) | {"values": vals, "bound": bounds[name]}
                 for name, vals in values.items()}
        report["workloads"][workload] = {"runs": records, "metrics": stats}
        for name, st in stats.items():
            if st["bound"] is None:
                continue
            flag = "ok" if st["spread"] < st["bound"] / 3 else "WIDE"
            print(f"{workload:10s} {name:14s} median {st['median']:.6g} "
                  f"{units[name]:8s} spread {st['spread']:.4f} "
                  f"bound {st['bound']} {flag}")
    report["provenance"] = record["provenance"]
    if args.out:
        saved = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                saved = json.load(fh)
        saved["per_layer" if args.trace else "end_to_end"] = report
        with open(args.out, "w") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
