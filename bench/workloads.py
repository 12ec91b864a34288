"""The three workloads: CLI call lists built from the benchmark seed, each
paired with the expectations its output is checked against.

Inputs that depend on the seed come from the benchmark's own RNG
(``random.Random(seed)``), never from ``lipgrowth.sample_er``, so a change
to the package's sampler cannot change another workload's inputs.
"""
from __future__ import annotations

import math
import os
import random

import oracle


def _constants(seed, rundir):
    a = oracle.alpha()
    refs = {
        "alpha": (a, 1e-9), "alpha_sq": (a * a, 1e-9),
        "alpha_sqrt2": (a * math.sqrt(2), 1e-9), "beta": (oracle.BETA, 1e-9),
        "nystrom_band": (oracle.BETA, 5e-4), "nystrom_tent": (2 * a * a, 5e-4),
        "zeta": (oracle.REF_ZETA, 0.02), "psi": (oracle.REF_PSI, 0.02),
        "strip_band": (oracle.BETA, 2e-3),
        "strip_two_rows": (oracle.REF_ALPHA_SQRT2, 2e-3),
        "strip_pinned_two": (oracle.REF_ZETA, 0.02),
        "strip_three_rows": (oracle.REF_PSI, 0.02),
        "square_grid_lower": (oracle.REF_GRID_LOWER, 0.02),
        "square_grid_upper": (oracle.REF_ZETA, 0.02),
    }
    free = []
    for h in (3, 4, 5):
        lam = oracle.free_strip_top(4, h)
        free.append({"h": h, "lo": lam, "hi": lam})
    pinned = []
    for h in (10, 15, 20):
        lo, hi = oracle.pinned_strip_bracket(3, h, 60)
        pinned.append({"h": h, "lo": lo, "hi": hi})
    return [
        {"argv": ["reproduce-abstract", "--format", "json"],
         "check": {"type": "constants", "references": refs}},
        {"argv": ["strip", "--kind", "free-strip", "--m", "4", "--h", "3", "4", "5"],
         "check": {"type": "strip", "m": 4, "rows": free}},
        {"argv": ["strip", "--kind", "pinned-strip", "--m", "3",
                  "--h", "10", "15", "20"],
         "check": {"type": "strip", "m": 3, "rows": pinned}},
    ]


def random_connected_graph(rng: random.Random, n: int, extra: int):
    """A uniformly relabelled random recursive tree plus ``extra`` chords."""
    label = list(range(n))
    rng.shuffle(label)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = sorted((label[u], label[v]))
        edges.add((a, b))
    chords = [(u, v) for u in range(n) for v in range(u + 1, n)
              if (u, v) not in edges]
    edges.update(rng.sample(chords, extra))
    return sorted(edges)


def _count_call(argv, expected, method):
    return {"argv": ["count", *argv],
            "check": {"type": "count", "expected": str(expected), "method": method}}


def _ehrhart_call(argv, n, edges, order=None):
    counts = [oracle.count_lipschitz(n, edges, h, order) for h in range(n + 1)]
    return {"argv": ["ehrhart", *argv],
            "check": {"type": "ehrhart", "n": n, "k": 1,
                      "node_counts": [str(c) for c in counts[:n]],
                      "held_out_h": n, "held_out": str(counts[n])}}


RANDOM_GRAPHS = 3
RANDOM_GRAPH_N = 6
RANDOM_GRAPH_CHORDS = 2


def _exact(seed, rundir):
    calls = [
        _count_call(["--grid", "3x4", "--h", "2"], oracle.count_grid(3, 4, 2), "brute"),
        _count_call(["--grid", "2x5", "--h", "3"], oracle.count_grid(2, 5, 3), "brute"),
        _count_call(["--family", "cycle", "--n", "10", "--h", "2"],
                    oracle.count_cycle(10, 2), "brute"),
        _count_call(["--family", "complete", "--n", "7", "--h", "4"],
                    oracle.count_complete(7, 4), "brute"),
    ]
    for m, n, h in ((6, 2, 2), (4, 10, 3), (3, 40, 10)):
        calls.append(_count_call(["--method", "strip", "--grid", f"{m}x{n}",
                                  "--h", str(h)], oracle.count_grid(m, n, h),
                                 "strip"))
    cycle = [(i, (i + 1) % 7) for i in range(7)]
    calls.append(_ehrhart_call(["--family", "cycle", "--n", "7"], 7, cycle))
    calls.append(_ehrhart_call(["--grid", "2x3"], 6, oracle.grid_edges(2, 3),
                               oracle.grid_order(2, 3)))
    rng = random.Random(seed)
    for i in range(RANDOM_GRAPHS):
        n = RANDOM_GRAPH_N
        edges = random_connected_graph(rng, n, RANDOM_GRAPH_CHORDS)
        path = os.path.join(rundir, f"graph{i}.txt")
        with open(path, "w") as fh:
            fh.write(f"{n} 1\n" + "".join(f"{u} {v}\n" for u, v in edges))
        calls.append(_ehrhart_call(["--load", path], n, edges))
    return calls


def _random(seed, rundir):
    rng = random.Random(seed)
    s_giant, s_lll, s_pairs = (rng.randrange(2 ** 31) for _ in range(3))
    n_pairs, d_pairs = 20, 10.0
    size = math.ceil(2 * math.log(d_pairs) / d_pairs * n_pairs)
    ds = [5.0, 10.0, 100.0, 1000.0]
    return [
        {"argv": ["random-lab", "--mode", "giant", "--n", "20000", "--d", "2",
                  "--trials", "3", "--seed", str(s_giant)],
         "check": {"type": "giant", "n": 20000, "trials": 3, "seed": s_giant,
                   "prediction": oracle.giant_fraction(2.0), "tol": 0.02}},
        {"argv": ["random-lab", "--mode", "lll", "--n", "5000", "--d", "6",
                  "--h", "100", "--trials", "2000", "--seed", str(s_lll)],
         "check": {"type": "lll", "n": 5000, "h": 100, "trials": 2000,
                   "seed": s_lll}},
        {"argv": ["random-lab", "--mode", "pairs", "--n", str(n_pairs), "--d",
                  "10", "--trials", "5", "--seed", str(s_pairs)],
         "check": {"type": "pairs", "trials": 5, "size": size}},
        {"argv": ["bounds", "--d", *(f"{d:g}" for d in ds)],
         "check": {"type": "bounds", "rows": [oracle.bound_row(d) for d in ds]}},
    ]


BUILDERS = {"constants": _constants, "exact": _exact, "random": _random}
SEED_DEPENDENT = {"constants": False, "exact": True, "random": True}


def build(workload: str, seed: int, rundir: str) -> list[dict]:
    """Calls of one pass; files for ``--load`` are written under ``rundir``."""
    return BUILDERS[workload](seed, rundir)
