"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q      (from the repository root)
"""
import json
import os
import random

import pytest

import checks
import oracle
import run
import workloads

ROOT = os.path.dirname(run.BENCH_DIR)


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_traced_counters_repeat(workload, tmp_path):
    calls = workloads.build(workload, 7, str(tmp_path))
    first, second = (run.run_worker(ROOT, calls, 0, trace=True, warmup=False)
                     for _ in range(2))
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["trace"]["counters"] == second["trace"]["counters"]
    # one traced pass: layer self times and the remainder add up to its
    # wall time, all read at the reference speed
    metrics = first["trace"]["metrics"]
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    total += metrics["bench.uncovered_s"]
    assert total == pytest.approx(first["trace"]["passes"][0]["scaled_wall_s"],
                                  rel=1e-6)


def test_random_workload_touches_no_strip_counting_or_continuum(tmp_path):
    calls = workloads.build("random", 7, str(tmp_path))
    metrics = run.run_worker(ROOT, calls, 0, trace=True,
                             warmup=False)["trace"]["metrics"]
    touched = {k: v for k, v in metrics.items()
               if k.split(".")[0] in ("strips", "counting", "continuum") and v}
    assert touched == {}


def _payload(records):
    return json.dumps({"records": records})


def test_checker_counts_each_kind_of_failure():
    count_spec = {"type": "count", "expected": "19", "method": "brute"}
    const_spec = {"type": "constants", "references": {"zeta": [1.4895, 0.02]}}
    cases = [
        (count_spec, 0, _payload([{"count": "19", "method": "brute"}])),
        (count_spec, 0, _payload([{"count": "20", "method": "brute"}])),
        (const_spec, 0, _payload([{"name": "zeta", "value": 1.52}])),
        (count_spec, 3, ""),
    ]
    tally = checks.Tally()
    for spec, code, stdout in cases:
        tally.add(["call"], checks.check_call(spec, code, stdout))
        if tally.attempted == 1:
            assert tally.failed_frac == 0
    assert (tally.attempted, tally.failed, tally.failed_frac) == (4, 3, 0.75)
    wrong_count, off_constant, bad_exit = (f["checks"] for f in tally.failures)
    assert wrong_count[0]["check"] == "count"
    assert off_constant[0]["abs_err"] == pytest.approx(0.0305)
    assert off_constant[0]["tol"] == 0.02
    assert bad_exit[0]["check"] == "exit_code" and bad_exit[0]["value"] == 3


def test_oracle_counts_match_closed_forms():
    assert oracle.count_grid(2, 2, 1) == 19
    for n in range(1, 7):
        path = [(i, i + 1) for i in range(n - 1)]
        assert oracle.count_lipschitz(n, path, 3) == 7 ** (n - 1)
        complete = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert oracle.count_lipschitz(n, complete, 2) == oracle.count_complete(n, 2)
    for n in range(3, 8):
        cycle = [(i, (i + 1) % n) for i in range(n)]
        assert oracle.count_lipschitz(n, cycle, 2) == oracle.count_cycle(n, 2)
    assert oracle.count_grid(3, 5, 2) == oracle.count_grid(5, 3, 2)


def test_inputs_depend_only_on_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = workloads.build("exact", 5, str(tmp_path / "a"))
    b = workloads.build("exact", 5, str(tmp_path / "b"))
    strip = lambda calls: [c["check"] for c in calls]  # noqa: E731
    assert strip(a) == strip(b)
    assert workloads.random_connected_graph(random.Random(1), 6, 2) == \
        workloads.random_connected_graph(random.Random(1), 6, 2)
