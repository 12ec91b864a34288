import json
import math

import pytest

from lipgrowth import strips
from lipgrowth.cli import main
from lipgrowth.continuum import solve_alpha
from lipgrowth.graphs import from_edgelist_str, make_grid, sample_er
from lipgrowth.randomlab import independent_pair_search


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_count_family_tree(capsys):
    code, out = run(capsys, ["count", "--family", "tree", "--n", "4",
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


def test_constants_table(capsys):
    code, out = run(capsys, ["constants", "--deterministic"])
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
    ["constants", "--format", "json"],
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


def test_exit_codes(capsys):
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
            (["--tol", "nan"], "error: --tol must be positive and finite"),
            (["--tol", "0"], "error: --tol must be positive and finite"),
            (["--tol", "-1"], "error: --tol must be positive and finite"),
            (["--tol", "inf"], "error: --tol must be positive and finite"),
            (["--max-iter", "0"], "error: --max-iter must be at least 1")):
        code = main(["strip", "--kind", "band", "--h", "10", "20", *flags])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), flags
        assert captured.err == message + "\n", flags
    # usage: every strip --h must be at least 1, and the message names --h
    for hs in (["20", "0"], ["0"], ["-1", "5"]):
        code = main(["strip", "--kind", "band", "--h", *hs])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), hs
        assert "error: --h values must be at least 1" in captured.err, hs
    # usage: a degree that is not a positive finite number, and the message
    # names --d
    for argv in (["bounds", "--d", "nan"], ["bounds", "--d", "10", "inf"],
                 ["bounds", "--d", "0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert "error: --d: d must be positive and finite" in captured.err, argv
    # usage: an Erdos-Renyi size or degree out of range, and the message
    # names the flag that set it
    for argv, flag in ((["count", "--er", "10", "nan", "--h", "1"], "--er"),
                       (["count", "--er", "10", "inf", "--h", "1"], "--er"),
                       (["count", "--er", "0", "0", "--h", "1"], "--er"),
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
    # resource limit: the m=8 prefix lattice exceeds the default budget
    assert main(["strip", "--kind", "free-strip", "--m", "8", "--h", "3"]) == 3
    # usage: fewer than one trial, in every random-lab mode
    for mode in ("lll", "giant", "pairs"):
        for trials in ("0", "-1"):
            code, out = run(capsys, ["random-lab", "--mode", mode, "--n", "20",
                                     "--d", "10", "--trials", trials])
            assert (code, out) == (2, ""), (mode, trials)


def test_count_strip_honours_budget(capsys):
    # --budget bounds the strip lattice as it bounds the elimination tables
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


def test_constants_rows_shared_with_reproduce_abstract(capsys):
    argv = ["--format", "json", "--deterministic"]
    _, out = run(capsys, ["constants", *argv])
    constants = json.loads(out)["records"]
    _, out = run(capsys, ["reproduce-abstract", *argv])
    records = json.loads(out)["records"]
    assert [r["name"] for r in constants] == [
        "alpha", "alpha_sq", "alpha_sqrt2", "beta", "nystrom_band",
        "nystrom_tent", "zeta", "psi"]
    assert records[:8] == constants
    values = {r["name"]: r["value"] for r in records}
    meta = {r["name"]: r["metadata"] for r in records}
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
        code, _ = run(capsys, ["strip", "--kind", kind, "--m", "3", "--h", "2"])
        assert code == 2
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


def test_load_graph_file(capsys, tmp_path):
    path = tmp_path / "g.edges"
    _, text = run(capsys, ["generate", "--grid", "2x3"])
    path.write_text(text)
    code, out = run(capsys, ["count", "--load", str(path), "--h", "1",
                             "--deterministic"])
    assert code == 0
    assert json.loads(out)["records"][0]["count"] == "121"
