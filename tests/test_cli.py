import json
import math

import numpy as np
import pytest

from lipgrowth import cli, graphs, strips
from lipgrowth.cli import main
from lipgrowth.continuum import solve_alpha
from lipgrowth.graphs import from_edgelist_str, make_grid, sample_er
from lipgrowth.randomlab import independent_pair_search


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_count_family_tree(capsys):
    code, out = run(capsys, ["count", "--family", "star", "--n", "4",
                             "--h", "3", "--deterministic"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    rec = payload["records"][0]
    assert rec["count"] == "343"
    assert "elapsed" not in rec
    assert "timestamp" not in payload


def test_count_grid(capsys):
    code, out = run(capsys, ["count", "--grid", "2x2", "--h", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][0]["count"] == "19"
    assert "timestamp" in payload
    assert payload["records"][0]["node_expansions"] > 0


def test_count_methods_agree(capsys):
    results = {}
    for method in ("brute", "strip"):
        code, out = run(capsys, ["count", "--grid", "3x3", "--h", "2",
                                 "--method", method, "--deterministic"])
        assert code == 0
        results[method] = json.loads(out)["records"][0]["count"]
    assert results["brute"] == results["strip"]

    code, out = run(capsys, ["count", "--family", "star", "--n", "6",
                             "--h", "4", "--method", "closed",
                             "--deterministic"])
    assert code == 0
    assert json.loads(out)["records"][0]["count"] == str(9 ** 5)


def test_count_closed_decides_from_the_graph(capsys, tmp_path):
    # a 1xN grid is a path: (2h + 1)^(N - 1)
    code, out = run(capsys, ["count", "--grid", "1x6", "--h", "3",
                             "--method", "closed", "--deterministic"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert (rec["count"], rec["method"]) == ("16807", "closed")
    # K3, K2 and two isolated vertices: a product of per-component forms
    path = tmp_path / "mixed.edges"
    path.write_text("7 4\n0 1\n0 2\n1 2\n3 4\n")
    for h in range(4):
        counts = {}
        for method in ("brute", "closed"):
            code, out = run(capsys, ["count", "--load", str(path), "--h",
                                     str(h), "--method", method])
            assert code == 0
            counts[method] = json.loads(out)["records"][0]["count"]
        assert counts["closed"] == counts["brute"], h


def test_generate_round_trip(capsys, tmp_path):
    code, out = run(capsys, ["generate", "--grid", "3x4"])
    assert code == 0
    g = from_edgelist_str(out)
    assert g.edges == make_grid(3, 4).edges

    path = tmp_path / "er.edges"
    code, out = run(capsys, ["generate", "--er", "25", "1.5",
                             "--seed", "3", "--out", str(path)])
    assert code == 0
    # --out stores JSON alongside; stdout carries the edge list itself
    assert from_edgelist_str(out).n == 25


def test_ehrhart_subcommand(capsys):
    code, out = run(capsys, ["ehrhart", "--family", "path", "--n", "3",
                             "--deterministic"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["coefficients"] == ["1", "4", "4"]
    assert rec["c_estimate"] == pytest.approx(2.0)


def test_ehrhart_degree_zero(capsys, tmp_path):
    # no free vertex: L(h) = 1 is exact and the growth constant is undefined
    path = tmp_path / "edgeless.edges"
    path.write_text("3 3\n")
    for graph in (["--family", "path", "--n", "1"], ["--load", str(path)]):
        code, out = run(capsys, ["ehrhart", *graph, "--deterministic"])
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["counts"] == ["1"]
        assert rec["degree"] == 0
        assert rec["c_estimate"] is None


def test_ehrhart_counts_match_strip_counts(capsys):
    # the nodes above the counted range are evaluated from the polynomial
    for m, n in ((2, 3), (3, 3)):
        code, out = run(capsys, ["ehrhart", "--grid", f"{m}x{n}",
                                 "--deterministic"])
        assert code == 0
        rec = json.loads(out)["records"][0]
        d = m * n - 1
        assert rec["nodes"] == list(range(d + 1))
        assert rec["counted"] == list(range(d // 2 + 2))
        for h, count in zip(rec["nodes"], rec["counts"]):
            code, out = run(capsys, ["count", "--grid", f"{m}x{n}", "--h",
                                     str(h), "--method", "strip",
                                     "--deterministic"])
            assert code == 0
            assert json.loads(out)["records"][0]["count"] == count, (m, n, h)


def test_strip_subcommand_csv(capsys):
    code, out = run(capsys, ["strip", "--kind", "band",
                             "--h", "50", "100", "200",
                             "--format", "csv", "--deterministic"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["kind", "m", "h", "lambda", "normalized",
                                   "residual", "iterations"]
    assert len(lines) == 4


def test_strip_extrapolation_json(capsys):
    code, out = run(capsys, ["strip", "--kind", "band",
                             "--h", "50", "100", "200", "--format", "json",
                             "--deterministic"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["extrapolated"]["limit"] - 1.554) < 2e-3


def test_strip_extrapolation_least_squares(capsys):
    # four h values take the least-squares branch of the quadratic fit in
    # 1/h: the limit is the lstsq solution on the Vandermonde matrix
    code, out = run(capsys, ["strip", "--kind", "band",
                             "--h", "50", "100", "200", "400",
                             "--deterministic"])
    assert code == 0
    payload = json.loads(out)
    z = 1.0 / np.array([r["h"] for r in payload["records"]], dtype=float)
    values = [r["normalized"] for r in payload["records"]]
    coeffs = np.linalg.lstsq(np.vander(z, 3, increasing=True), values,
                             rcond=None)[0]
    fit = payload["extrapolated"]
    assert abs(fit["limit"] - coeffs[0]) <= 1e-12
    assert abs(fit["slope"] - coeffs[1]) <= 1e-12 * abs(coeffs[1])
    assert abs(fit["curvature"] - coeffs[2]) <= 1e-12 * abs(coeffs[2])


def test_constants_table(capsys):
    code, out = run(capsys, ["reproduce-abstract", "--deterministic"])
    assert code == 0
    for ref in ("1.16234", "1.554", "1.6438", "1.351", "1.4895", "1.553"):
        assert ref in out


def test_bounds_subcommand(capsys):
    code, out = run(capsys, ["bounds", "--d", "100", "--format", "json",
                             "--deterministic"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["lower_exact"] == pytest.approx(1.0047, abs=5e-4)
    assert rec["upper_asymptotic"] == pytest.approx(1.8484, abs=1e-3)
    # an exact bound outside its validity range is null, an empty CSV cell
    code, out = run(capsys, ["bounds", "--d", "3", "5", "--deterministic"])
    assert code == 0
    recs = json.loads(out)["records"]
    assert [(r["lower_exact"] is None, r["upper_exact"] is None)
            for r in recs] == [(True, True), (False, True)]
    code, out = run(capsys, ["bounds", "--d", "3", "--format", "csv"])
    assert out.splitlines()[1].split(",")[:5] == ["3", "", "1.166666667", "",
                                                   "2.609265281"]


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("argv", [
    ["count", "--grid", "2x3", "--h", "2"],
    ["ehrhart", "--family", "cycle", "--n", "5"],
    ["strip", "--kind", "band", "--h", "3", "4", "5"],
    ["count", "--grid", "1x6", "--h", "3", "--method", "closed"],
    ["bounds", "--d", "3", "5", "9", "100"],
    ["random-lab", "--mode", "lll", "--n", "50", "--d", "6", "--h", "5",
     "--trials", "3"],
    ["random-lab", "--mode", "giant", "--n", "50", "--d", "1", "--trials", "2"],
    ["random-lab", "--mode", "pairs", "--n", "12", "--d", "3", "--trials", "2"],
    ["reproduce-abstract", "--format", "json"],
])
def test_json_is_strict(capsys, tmp_path, argv):
    # NaN and Infinity are not JSON: stdout and --out must parse without them
    path = tmp_path / "out.json"
    code, out = run(capsys, argv + ["--out", str(path)])
    assert code == 0
    for text in (out, path.read_text()):
        assert json.loads(text, parse_constant=_reject_constant)["records"]


def test_random_lab_modes(capsys):
    code, out = run(capsys, ["random-lab", "--mode", "lll", "--n", "30",
                             "--d", "5", "--h", "40", "--trials", "20",
                             "--deterministic"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["trials"] == 20
    assert rec["ci_low"] <= rec["estimate"] <= rec["ci_high"]

    code, out = run(capsys, ["random-lab", "--mode", "giant", "--n", "500",
                             "--d", "2", "--trials", "2", "--deterministic"])
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 2
    for rec in records:
        g = sample_er(500, 2, rec["seed"])
        assert rec["components"] == g.component_count
        assert rec["giant_fraction"] == g.giant_size / 500

    code, out = run(capsys, ["random-lab", "--mode", "pairs", "--n", "18",
                             "--d", "6", "--trials", "3", "--deterministic"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["found_fraction"] == 0.0


def test_random_lab_pairs_heuristic_follows_seed(capsys):
    # above n = 20 the pair search samples; trial t draws from --seed + t,
    # as its graph does, and not from one fixed seed for every trial
    code, out = run(capsys, ["random-lab", "--mode", "pairs", "--n", "30",
                             "--d", "5", "--size", "9", "--trials", "10",
                             "--deterministic"])
    assert code == 0
    for rec in json.loads(out)["records"]:
        g = sample_er(30, 5, rec["seed"])
        res = independent_pair_search(g, 9, seed=rec["seed"])
        assert (rec["found"], rec["definitive"]) == (res.found, False)


def test_deterministic_byte_identical(capsys):
    args = ["strip", "--kind", "tent", "--h", "10", "20", "30",
            "--deterministic"]
    _, first = run(capsys, args)
    _, second = run(capsys, args)
    assert first == second


def test_consecutive_calls_share_no_state(capsys):
    # main reuses one parser; no option of one call may reach the next
    argv = ["count", "--grid", "2x2", "--h", "1"]
    _, first = run(capsys, argv + ["--deterministic", "--format", "csv"])
    assert first.splitlines()[0] == "graph_hash,h,count,node_expansions,method"
    _, second = run(capsys, argv)
    payload = json.loads(second)
    assert "timestamp" in payload and "elapsed" in payload["records"][0]
    _, third = run(capsys, argv + ["--format", "table"])
    assert third.split()[:2] == ["graph_hash", "h"]
    assert "elapsed" in third.splitlines()[0]
    _, fourth = run(capsys, ["ehrhart", "--grid", "2x2", "--deterministic"])
    assert "timestamp" not in json.loads(fourth)


def test_seed_controls_er(capsys):
    _, a = run(capsys, ["generate", "--er", "20", "2.0", "--seed", "1"])
    _, b = run(capsys, ["generate", "--er", "20", "2.0", "--seed", "1"])
    _, c = run(capsys, ["generate", "--er", "20", "2.0", "--seed", "2"])
    assert a == b
    assert a != c


def test_sizes_no_machine_holds_are_resource_limits(capsys, monkeypatch):
    # a budget that admits a size one numpy array cannot index: the
    # operator refuses it before allocating, exit 3 and one line
    argv = ["count", "--method", "strip", "--grid", "20x20", "--h", "20",
            "--budget", str(10 ** 40)]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "resource limit: free-strip(20, 20) needs "
        "336649022169017334663305619565461 cells, more than one array can "
        "index, whatever the budget\n")
    # an allocation the machine cannot make is a resource limit too, in one
    # line: numpy's MemoryError names the allocation, a bare one says so
    # (raised here, never allocated)
    too_big = ("Unable to allocate 63.3 GiB for an array with shape "
               "(1, 8491781521) and data type int64")
    for exc, message in ((MemoryError(too_big), too_big),
                         (MemoryError(), "out of memory")):
        def refuse(*args, exc=exc):
            raise exc
        monkeypatch.setattr(strips, "strip_count_exact", refuse)
        code = main(["count", "--method", "strip", "--grid", "9x9", "--h",
                     "9", "--budget", str(10 ** 15)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, ""), message
        assert captured.err == f"resource limit: {message}\n"


def test_exit_codes(capsys, monkeypatch):
    # usage: unknown flag, and the removed --threads
    assert main(["count", "--nope"]) == 2
    assert main(["count", "--grid", "2x2", "--h", "1", "--threads", "1"]) == 2
    # usage: family without --n
    code, _ = run(capsys, ["count", "--family", "path", "--h", "1"])
    assert code == 2
    # usage: malformed grid, also for the strip method
    code, _ = run(capsys, ["count", "--grid", "3x", "--h", "1",
                           "--method", "strip"])
    assert code == 2
    # resource limit
    code, _ = run(capsys, ["count", "--grid", "5x5", "--h", "4",
                           "--budget", "100"])
    assert code == 3
    # non-convergence
    code, _ = run(capsys, ["strip", "--kind", "band", "--h", "60",
                           "--tol", "1e-15", "--max-iter", "2"])
    assert code == 4
    # one apply makes one estimate: the message says so, with no residual
    code = main(["strip", "--kind", "band", "--h", "10", "--max-iter", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == ("no convergence: no convergence within 1 "
                            "iterations (no second estimate was made)\n")
    # usage: a tolerance that is not positive and finite, or no iteration at
    # all, and the message names the flag
    for flags, message in (
            (["--tol", "nan"],
             "error: argument --tol: must be positive and finite, got 'nan'"),
            (["--tol", "0"],
             "error: argument --tol: must be positive and finite, got '0'"),
            (["--tol", "-1"],
             "error: argument --tol: must be positive and finite, got '-1'"),
            (["--tol", "inf"],
             "error: argument --tol: must be positive and finite, got 'inf'"),
            (["--max-iter", "0"], "error: argument --max-iter: must be an "
                                  "integer of at least 1, got '0'")):
        code = main(["strip", "--kind", "band", "--h", "10", "20", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), flags
        assert captured.err == message + "\n", flags
    # usage: every strip --h must be at least 1, and the message names --h
    for hs in (["20", "0"], ["0"], ["-1", "5"]):
        code = main(["strip", "--kind", "band", "--h", *hs])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), hs
        assert ("error: argument --h: must be an integer of at least 1"
                in captured.err), hs
    # usage: a degree that is not a positive finite number, and the message
    # names --d
    for argv in (["bounds", "--d", "nan"], ["bounds", "--d", "10", "inf"],
                 ["bounds", "--d", "0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert ("error: argument --d: must be positive and finite"
                in captured.err), argv
    # usage: an Erdos-Renyi size or degree out of range, and the message
    # names the flag that set it
    for argv, flag in ((["count", "--er", "10", "nan", "--h", "1"], "--er"),
                       (["count", "--er", "10", "inf", "--h", "1"], "--er"),
                       (["count", "--er", "0", "0", "--h", "1"], "--er"),
                       (["count", "--er", str(10 ** 23), "1", "--h", "1"],
                        "--er"),
                       (["random-lab", "--mode", "giant", "--n", "10",
                         "--d", "nan"], "--d"),
                       (["random-lab", "--mode", "lll", "--n", "10",
                         "--d", "nan"], "--d"),
                       (["random-lab", "--mode", "lll", "--n", "0"], "--n"),
                       (["random-lab", "--mode", "lll", "--n", "1"], "--d"),
                       (["random-lab", "--mode", "pairs", "--n", "0",
                         "--size", "1"], "--n")):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert flag in captured.err, argv
    # usage: a random-lab --n whose pairs cannot be indexed in int64 is
    # blamed on --n, whatever --d is
    for mode, d in (("giant", "2"), ("pairs", "10"), ("giant", "nan")):
        code = main(["random-lab", "--mode", mode, "--n", str(10 ** 23),
                     "--d", d, "--trials", "1", "--size", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), mode
        assert captured.err == (f"error: --n: n = {10 ** 23} has too many "
                                "pairs to index in int64\n"), mode
    # usage: lll mode checks --h and --d before it samples a graph (this n
    # would take seconds to sample), and the message names the flag
    for args, message in (
            (["--d", "3"], "error: --d: d must be finite and exceed 4"),
            (["--d", "inf"], "error: --d: d must be finite and exceed 4"),
            (["--d", "6", "--h", "-1"], "error: argument --h: must be an "
                                        "integer of at least 0, got '-1'"),
            (["--d", "3", "--h", "-1"], "error: argument --h: must be an "
                                        "integer of at least 0, got '-1'")):
        code = main(["random-lab", "--mode", "lll", "--n", "2000000", *args])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), args
        assert message in captured.err, args
    # usage: without --size, pairs mode needs 1 < d < inf for its set size,
    # and the message names --d
    for d in ("nan", "inf", "0", "1"):
        code = main(["random-lab", "--mode", "pairs", "--n", "20", "--d", d])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), d
        assert "--d" in captured.err, d
    # usage: --seed must be a non-negative integer, and the parser's
    # message names it
    for argv in (["random-lab", "--mode", "lll", "--n", "10", "--seed", "-1"],
                 ["random-lab", "--mode", "giant", "--n", "10", "--seed=-1"],
                 ["generate", "--er", "10", "2", "--seed", "-1"],
                 ["generate", "--er", "10", "2", "--seed", "x"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert "--seed" in captured.err, argv
    # resource limit: free-strip(8, 3)'s window stage arrays, 22,235,661
    # cells, exceed the default budget
    assert main(["strip", "--kind", "free-strip", "--m", "8", "--h", "3"]) == 3
    # usage: fewer than one trial, in every random-lab mode
    for mode in ("lll", "giant", "pairs"):
        for trials in ("0", "-1"):
            code, out = run(capsys, ["random-lab", "--mode", mode, "--n", "20",
                                     "--d", "10", "--trials", trials])
            assert (code, out) == (2, ""), (mode, trials)
    # usage: each of these is caught before a graph is built or sampled,
    # and the message names its flag
    def no_graph(*args):
        raise AssertionError("a graph was built")

    with monkeypatch.context() as mp:
        mp.setattr(graphs, "sample_er", no_graph)
        mp.setattr(graphs.Graph, "from_edges", no_graph)
        for argv, message in (
                (["count", "--er", "2000000", "3", "--h", "-1"],
                 "argument --h: must be an integer of at least 0, got '-1'"),
                (["count", "--grid", "2x2", "--h", "-1", "--method", "strip"],
                 "argument --h: must be an integer of at least 0, got '-1'"),
                (["random-lab", "--mode", "pairs", "--n", "20", "--d", "10",
                  "--size", "0"],
                 "argument --size: must be an integer of at least 1, got '0'"),
                (["random-lab", "--mode", "pairs", "--n", "20", "--d", "10",
                  "--size", "-3"],
                 "argument --size: must be an integer of at least 1, got '-3'"),
                (["count", "--family", "path", "--n", "0", "--h", "1"],
                 "argument --n: must be an integer of at least 1, got '0'"),
                (["count", "--grid", "0x3", "--h", "1"],
                 "argument --grid: expected MxN with both at least 1, "
                 "got '0x3'"),
                (["count", "--grid", "3x-1", "--h", "1", "--method", "strip"],
                 "argument --grid: expected MxN with both at least 1, "
                 "got '3x-1'"),
                (["strip", "--kind", "free-strip", "--m", "0", "--h", "3"],
                 "argument --m: must be an integer of at least 1, got '0'"),
                *((["count", "--er", *er, "--h", "1"],
                   "argument --er: expected integer N >= 1 and finite D >= 0, "
                   f"got {' '.join(er)!r}")
                  for er in (("2.5", "1"), ("0", "1"), ("10", "nan"),
                             ("10", "-1")))):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), argv
            assert captured.err == f"error: {message}\n", argv


def test_count_strip_honours_budget(capsys):
    # --budget bounds the strip DP's stage arrays as it bounds the
    # elimination tables
    argv = ["count", "--grid", "3x40", "--h", "10", "--method", "strip"]
    code, _ = run(capsys, argv + ["--budget", "1"])
    assert code == 3
    code, out = run(capsys, argv + ["--deterministic"])
    assert code == 0
    assert int(json.loads(out)["records"][0]["count"]) > 0


def test_reproduce_abstract_grid_bounds_match_table(capsys):
    code, out = run(capsys, ["reproduce-abstract", "--format", "json",
                             "--deterministic"])
    assert code == 0
    values = {r["name"]: r["value"] for r in json.loads(out)["records"]}
    assert values["square_grid_upper"] == values["zeta"]
    assert values["square_grid_lower"] == values["psi"] ** 1.5 / math.sqrt(2)
    assert abs(values["square_grid_upper"] - 1.4895) <= 1e-3
    assert abs(values["square_grid_lower"] - 1.3685) <= 1e-3
    # the headline: the improved pair lies strictly inside the base pair
    assert (values["alpha_sq"] < values["square_grid_lower"]
            < values["square_grid_upper"] < values["beta"])
    meta = {r["name"]: r["metadata"] for r in json.loads(out)["records"]}
    # each strip row is its kernel's one ladder limit
    assert values["strip_band"] == values["nystrom_band"]
    assert values["strip_two_rows"] == math.sqrt(values["nystrom_tent"])
    assert values["strip_pinned_two"] == values["zeta"]
    assert values["strip_three_rows"] == values["psi"]
    assert abs(values["strip_band"] - 1 / math.atan(0.75)) <= 1e-9
    assert abs(values["strip_two_rows"] - solve_alpha() * math.sqrt(2)) <= 1e-9
    for name in ("nystrom_band", "nystrom_tent", "strip_band", "strip_two_rows"):
        assert meta[name].startswith("N=251/501/1001/2001, err=")
    for name in ("zeta", "psi", "strip_pinned_two", "strip_three_rows"):
        assert meta[name].startswith("N=17/33/65/129, err=")


def test_strip_checks_h_list_before_solving(capsys, monkeypatch):
    # every --h must be at least 1, and three or more feed the 1/h
    # extrapolation, so they must be distinct and increasing; a bad list,
    # --tol or --max-iter exits 2 before any operator is built
    def unreachable(*args):
        raise AssertionError("an operator was built")

    monkeypatch.setattr(strips, "make_operator", unreachable)
    for hs in (["20", "15", "10"], ["3", "4", "4"], ["20", "0"]):
        code = main(["strip", "--kind", "pinned-strip", "--m", "3", "--h", *hs])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), hs
        assert "--h" in captured.err, hs
    for flags in (["--tol", "inf"], ["--tol", "0"], ["--max-iter", "0"]):
        code = main(["strip", "--kind", "pinned-strip", "--m", "3",
                     "--h", "10", "15", "20", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), flags
        assert flags[0] in captured.err, flags


def test_strip_warm_starts_match_cold_solves(capsys):
    # each h starts from the previous h's Perron vector: the first runs the
    # cold solve exactly, every eigenvalue is the cold one to 1e-10, and the
    # list takes fewer iterations than cold solves (but for one free row,
    # whose single state has nothing to carry)
    for kind, m, hs in (("band", None, (50, 100, 200, 400)),
                        ("tent", None, (10, 20, 30)),
                        ("free-strip", 4, (3, 4, 5)),
                        ("pinned-strip", 3, (10, 15, 20)),
                        ("pinned-strip", 3, (20, 10)),
                        ("free-strip", 1, (3, 5))):
        argv = ["strip", "--kind", kind, "--h", *map(str, hs),
                "--deterministic"] + (["--m", str(m)] if m else [])
        code, out = run(capsys, argv)
        assert code == 0, argv
        records = json.loads(out)["records"]
        cold = [strips.top_eigenvalue(strips.make_operator(kind, h, m))
                for h in hs]
        assert records[0]["lambda"] == cold[0].eigenvalue, argv
        assert records[0]["iterations"] == cold[0].iterations, argv
        for rec, est in zip(records, cold):
            assert abs(rec["lambda"] - est.eigenvalue) <= 1e-10 * est.eigenvalue
        warm_total = sum(r["iterations"] for r in records)
        cold_total = sum(e.iterations for e in cold)
        assert warm_total < cold_total or (m == 1 and warm_total == cold_total)


def test_strip_fixed_rows_reject_m(capsys):
    for kind, rows in (("band", 1), ("tent", 2)):
        code = main(["strip", "--kind", kind, "--m", "3", "--h", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (f"error: --m: {kind} operator has "
                                f"m = {rows}, not 3\n")
        code, out = run(capsys, ["strip", "--kind", kind, "--m", str(rows),
                                 "--h", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["records"][0]["m"] == rows


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _ = run(capsys, ["count", "--grid", "2x2", "--h", "1",
                           "--deterministic", "--out", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["records"][0]["count"] == "19"


def test_out_into_missing_directory(capsys, tmp_path):
    # the write fails after the work: a usage error naming --out, and
    # nothing on stdout
    path = tmp_path / "missing" / "report.json"
    code = main(["count", "--grid", "2x2", "--h", "1", "--out", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: --out: ")
    assert captured.err.count("\n") == 1
    assert not path.parent.exists()


def test_bounds_overflowing_asymptotic_forms_are_null(capsys, tmp_path):
    # 1 + 4 ln^2(d)/d overflows below about d = 1e-302 and 1 + 1/(2d) below
    # about 2.8e-309; a form that overflows does not exist, so it is null
    path = tmp_path / "out.json"
    code, out = run(capsys, ["bounds", "--d", "1e-300", "1e-302", "2e-309",
                             "--deterministic", "--out", str(path)])
    assert code == 0
    for text in (out, path.read_text()):
        recs = json.loads(text, parse_constant=_reject_constant)["records"]
        assert [(r["lower_asymptotic"] is None, r["upper_asymptotic"] is None)
                for r in recs] == [(False, False), (False, True), (True, True)]
        d = 1e-300
        assert recs[0]["lower_asymptotic"] == 1.0 + 1.0 / (2.0 * d)
        assert recs[0]["upper_asymptotic"] == 1.0 + 4.0 * math.log(d) ** 2 / d
    code, out = run(capsys, ["bounds", "--d", "1e-302", "2e-309",
                             "--format", "csv"])
    assert code == 0
    assert [line.split(",")[2:5:2] for line in out.splitlines()[1:]] == [
        ["5e+301", ""], ["", ""]]


# one bad value for each flag whose range depends on no other flag
@pytest.mark.parametrize("argv, flag", [
    (["count", "--grid", "2x2", "--h", "1", "--seed", "-1"], "--seed"),
    (["generate", "--er", "10", "2", "--seed", "x"], "--seed"),
    (["count", "--family", "path", "--n", "0", "--h", "1"], "--n"),
    (["random-lab", "--mode", "giant", "--n", "0"], "--n"),
    (["count", "--grid", "2x2", "--h", "-1"], "--h"),
    (["random-lab", "--mode", "lll", "--h", "-1"], "--h"),
    # no table or lattice fits in fewer than one cell: not a resource limit
    (["count", "--grid", "2x2", "--h", "1", "--budget", "-5"], "--budget"),
    (["count", "--grid", "2x2", "--h", "1", "--budget", "0"], "--budget"),
    (["ehrhart", "--grid", "2x2", "--budget", "0"], "--budget"),
    (["count", "--method", "strip", "--grid", "3x40", "--h", "10",
      "--budget", "0"], "--budget"),
    (["strip", "--kind", "free-strip", "--m", "0", "--h", "3"], "--m"),
    (["strip", "--kind", "band", "--h", "5", "0"], "--h"),
    (["strip", "--kind", "band", "--h", "5", "--max-iter", "0"], "--max-iter"),
    (["strip", "--kind", "band", "--h", "5", "--tol", "-1"], "--tol"),
    (["strip", "--kind", "band", "--h", "5", "--tol", "inf"], "--tol"),
    (["bounds", "--d", "5", "0"], "--d"),
    (["bounds", "--d", "nan"], "--d"),
    (["random-lab", "--mode", "pairs", "--trials", "0"], "--trials"),
    (["random-lab", "--mode", "pairs", "--size", "0"], "--size"),
    (["count", "--grid", "2y2", "--h", "1"], "--grid"),
    (["generate", "--grid", "0x2"], "--grid"),
    (["count", "--er", "2.5", "1", "--h", "1"], "--er"),
    # second names for path, brute and the first rows of reproduce-abstract
    (["count", "--family", "tree", "--n", "4", "--h", "1"], "--family"),
    (["count", "--grid", "2x2", "--h", "1", "--method", "auto"], "--method"),
    (["constants"], "command"),
])
def test_flag_ranges_checked_by_parser(capsys, monkeypatch, argv, flag):
    def no_handler(args):
        raise AssertionError("a handler ran")

    monkeypatch.setattr(cli, "_DISPATCH", dict.fromkeys(cli._DISPATCH,
                                                        no_handler))
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: argument {flag}: ")
    assert captured.err.count("\n") == 1


def test_checks_between_values_name_their_flag(capsys, tmp_path):
    # what involves two values, the mode or a file is checked by the
    # subcommand
    missing = tmp_path / "missing.edges"
    bad = tmp_path / "bad.edges"
    bad.write_text("x y\n")
    loop = tmp_path / "loop.edges"
    loop.write_text("2 1\n1 1\n")
    er = "need 0 <= d <= n so the edge probability is in [0, 1]"
    for argv, message in (
            (["count", "--family", "path", "--h", "1"], "--family: needs --n"),
            (["count", "--family", "cycle", "--n", "2", "--h", "1"],
             "--n: cycle needs at least 3 vertices"),
            (["count", "--grid", "2x2", "--h", "1", "--method", "closed"],
             "--method: closed forms need trees or complete graphs, not a "
             "component of 4 vertices and 4 edges"),
            (["count", "--family", "path", "--n", "3", "--h", "1",
              "--method", "strip"], "--method: strip needs --grid"),
            (["strip", "--kind", "band", "--h", "3", "2", "1"],
             "--h: values must be distinct and increasing to extrapolate"),
            (["count", "--er", "5", "10", "--h", "1"], f"--er: {er}"),
            (["random-lab", "--mode", "lll", "--n", "50", "--d", "3"],
             "--d: d must be finite and exceed 4 for a real stretch "
             "parameter"),
            (["random-lab", "--mode", "pairs", "--n", "20", "--d", "1"],
             "--d: must be finite and above 1 to set the pairs size "
             "(or pass --size)"),
            (["random-lab", "--mode", "giant", "--n", "20", "--d", "30"],
             f"--d: {er}"),
            (["count", "--load", str(tmp_path), "--h", "1"],
             f"--load: [Errno 21] Is a directory: '{tmp_path}'"),
            (["count", "--load", str(missing), "--h", "1"],
             f"--load: [Errno 2] No such file or directory: '{missing}'"),
            (["ehrhart", "--load", str(bad)],
             "--load: invalid literal for int() with base 10: 'x'"),
            (["count", "--load", str(loop), "--h", "1"],
             "--load: bad edge (1, 1) for n=2")):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err == f"error: {message}\n", argv
    # a vertex id beyond int64 is a usage error too, not a crash
    huge = tmp_path / "huge.edges"
    huge.write_text(f"2 1\n0 {2 ** 64}\n")
    code = main(["count", "--load", str(huge), "--h", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: --load: ")


def test_strip_needs_grid_before_any_graph(capsys, monkeypatch, tmp_path):
    # a call that will be refused samples no graph and reads no file
    def refuse(*args):
        raise AssertionError("graph built before the usage check")
    monkeypatch.setattr(graphs, "sample_er", refuse)
    monkeypatch.setattr(graphs, "read_edgelist", refuse)
    for source in (["--er", "2000000", "3"],
                   ["--load", str(tmp_path / "missing.edges")]):
        code = main(["count", *source, "--h", "1", "--method", "strip"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), source
        assert captured.err == "error: --method: strip needs --grid\n"


def test_flag_errors_keep_the_library_error_as_cause(capsys, monkeypatch,
                                                     tmp_path):
    # the usage error names its flag and chains the library's error
    raised = []

    def count(args):
        try:
            return cli._cmd_count(args)
        except ValueError as exc:
            raised.append(exc)
            raise
    monkeypatch.setitem(cli._DISPATCH, "count", count)
    missing = tmp_path / "missing.edges"
    for argv, flag, cause in (
            (["--load", str(missing)], "--load", FileNotFoundError),
            (["--er", "5", "10"], "--er", ValueError)):
        assert main(["count", *argv, "--h", "1"]) == 2
        exc = raised.pop()
        assert str(exc) == f"{flag}: {exc.__cause__}"
        assert type(exc.__cause__) is cause
    assert capsys.readouterr().out == ""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["strip", "--help"]) == 0
    assert "--max-iter" in capsys.readouterr().out


def test_load_graph_file(capsys, tmp_path):
    path = tmp_path / "g.edges"
    _, text = run(capsys, ["generate", "--grid", "2x3"])
    path.write_text(text)
    code, out = run(capsys, ["count", "--load", str(path), "--h", "1",
                             "--deterministic"])
    assert code == 0
    assert json.loads(out)["records"][0]["count"] == "121"
