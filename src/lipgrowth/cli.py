"""Command-line front end.

Every subcommand emits a machine-readable report (JSON by default, CSV or an
aligned table on request).  All randomness flows from --seed (default 0), so
default runs are reproducible; --deterministic additionally drops timing
fields, making repeated runs byte-identical.

Exit codes: 0 success, 2 usage error, 3 resource limit, 4 non-convergence.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from datetime import datetime, timezone

from . import continuum, counting, graphs, randomlab, strips
from .errors import DEFAULT_BUDGET, ConvergenceError, ResourceLimitError

SCHEMA = 1

# constants row name -> (reference from the abstract, equation)
_ROWS = {
    "alpha": ("1.16234", "largest x with tan(1/x) = x"),
    "alpha_sq": ("1.351", "alpha^2"),
    "alpha_sqrt2": ("1.6438", "alpha*sqrt(2)"),
    "beta": ("1.554", "1/r, cos r + 2 sin r = 2 (r = arctan 3/4)"),
    "zeta": ("1.4895", "sqrt(top eigenvalue), pinned two-row kernel"),
    "psi": ("1.553", "cbrt(top eigenvalue), offset three-row kernel"),
    "nystrom_band": ("", "top eigenvalue, indicator kernel |x-t|<=1"),
    "nystrom_tent": ("", "top eigenvalue, kernel 2-|x-t| (= 2 alpha^2)"),
    "strip_band": ("1.554", "band operator, h -> inf"),
    "strip_two_rows": ("1.6438", "two-row operator, h -> inf"),
    "strip_pinned_two": ("1.4895", "pinned two-row operator, h -> inf"),
    "strip_three_rows": ("1.553", "three-row operator, h -> inf"),
    "square_grid_lower": ("1.3685", "psi^(3/2)/sqrt(2)"),
    "square_grid_upper": ("1.4895", "zeta"),
}


def _seed(text: str) -> int:
    """--seed: a non-negative integer, as numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lipgrowth",
        description="Count h-Lipschitz integer functions on graphs and "
                    "compute their growth constants.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0,
                        help="seed for all randomness (default 0)")
    common.add_argument("--format", choices=["json", "csv", "table"],
                        default=None,
                        help="output format (default: json; table for constants)")
    common.add_argument("--deterministic", action="store_true",
                        help="suppress timestamp/elapsed fields for "
                             "byte-identical runs")
    common.add_argument("--out", type=str, default=None,
                        help="also write the JSON payload to this file")
    sub = p.add_subparsers(dest="command", required=True)

    def add_graph_args(sp, for_generate=False):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--family",
                       choices=["path", "cycle", "complete", "star", "tree"])
        g.add_argument("--grid", metavar="MxN")
        g.add_argument("--er", nargs=2, metavar=("N", "D"))
        if not for_generate:
            g.add_argument("--load", metavar="FILE")
        sp.add_argument("--n", type=int, help="size for --family")

    sp = sub.add_parser("generate", parents=[common], help="write a graph as edge-list text")
    add_graph_args(sp, for_generate=True)

    sp = sub.add_parser(
        "count", parents=[common], help="exact h-Lipschitz function count",
        epilog="Record fields: graph_hash, h, count (decimal string), "
               "node_expansions (table cells evaluated by the elimination; "
               "0 for closed and strip), method, elapsed (dropped under "
               "--deterministic).  method \"brute\" names the general-graph "
               "exact engine, bucket elimination, which auto selects.")
    add_graph_args(sp)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--method", choices=["auto", "brute", "closed", "strip"],
                    default="auto")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="cells of the largest elimination table (brute) or "
                         "prefix lattice (strip)")

    sp = sub.add_parser(
        "ehrhart", parents=[common], help="fit the counting polynomial",
        epilog="Record fields: graph_hash, nodes (h = 0..d, d = n - k), "
               "counts (exact count at each node, decimal strings), counted "
               "(the h actually counted, 0..d//2+1; reciprocity "
               "L(-1-h) = (-1)^d L(h) gives the rest and the fit checks "
               "itself against the spare values), coefficients and leading "
               "(exact rationals, constant term first), degree, c_estimate "
               "(leading^(1/degree); null at degree 0).")
    add_graph_args(sp)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                    help="cells of the largest elimination table")

    sp = sub.add_parser(
        "strip", parents=[common], help="transfer-operator spectra",
        epilog="CSV columns: kind, m, h, lambda, normalized, residual, "
               "iterations.  lambda is a Lanczos solve's top Ritz value, "
               "residual the relative change of its last two estimates "
               "(stop at --tol, positive and finite; 0 when the Krylov "
               "basis spans an invariant subspace) and iterations its "
               "operator applies (at most --max-iter, at least 1).  Every "
               "h must be at least 1; each solve starts "
               "from the previous h's Perron vector.  With three or more h "
               "values, which must then be distinct and increasing, the JSON "
               "payload adds the extrapolated h->infinity limit and its 1/h "
               "slope.")
    sp.add_argument("--kind", required=True,
                    choices=["band", "tent", "free-strip", "pinned-strip"])
    sp.add_argument("--m", type=int, default=None,
                    help="rows (free/pinned strips; band has 1, tent 2)")
    sp.add_argument("--h", type=int, nargs="+", required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-iter", type=int, default=10**5)

    sub.add_parser("constants", parents=[common], help="solve for the growth constants")

    sp = sub.add_parser(
        "bounds", parents=[common], help="random-graph bound expressions",
        epilog="CSV columns: d, lower_exact, lower_asymptotic, upper_exact, "
               "upper_asymptotic, lower_valid, upper_valid, "
               "upper_exact_below_two, pair_margin, giant_fraction.  A "
               "value outside its validity range is null (an empty cell).")
    sp.add_argument("--d", type=float, nargs="+", required=True)

    sp = sub.add_parser(
        "random-lab", parents=[common], help="Monte-Carlo experiments",
        epilog="CSV columns by mode -- lll: mode, n, d, h, trials, successes, "
               "estimate, ci_low, ci_high, edge_failure_rate, seed; giant: "
               "mode, n, d, seed, components, giant_fraction, predicted; "
               "pairs: mode, n, d, size, seed, found, definitive.  A search "
               "that finds nothing still exits 0: absence is data.")
    sp.add_argument("--mode", choices=["lll", "giant", "pairs"], required=True)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--d", type=float, default=5.0)
    sp.add_argument("--h", type=int, default=100)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--size", type=int, default=None,
                    help="set size for pairs mode (default: "
                         "ceil(2 ln(d)/d * n), which needs 1 < d < inf)")

    sub.add_parser("reproduce-abstract", parents=[common],
                   help="full pipeline for the headline constants table")
    return p


def _grid_shape(text: str) -> tuple[int, int]:
    try:
        m, n = (int(x) for x in text.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"bad --grid {text!r}, expected MxN") from exc
    return m, n


def _build_graph(args) -> graphs.Graph:
    if args.family:
        if args.n is None:
            raise ValueError("--family needs --n")
        kind = "path" if args.family == "tree" else args.family
        return graphs.make_family(kind, args.n)
    if args.grid:
        return graphs.make_grid(*_grid_shape(args.grid))
    if args.er:
        try:
            return graphs.sample_er(int(args.er[0]), float(args.er[1]), args.seed)
        except ValueError as exc:
            raise ValueError(f"--er: {exc}") from exc
    if getattr(args, "load", None):
        return graphs.read_edgelist(args.load)
    raise ValueError("no graph specified")


def _cmd_generate(args):
    return {"text": graphs.to_edgelist_str(_build_graph(args))}


def _cmd_count(args):
    g = _build_graph(args)
    t0 = time.perf_counter()
    method = args.method
    if method in ("auto", "brute"):
        value, expansions = counting.count_with_stats(g, args.h, args.budget)
        method = "brute"
    elif method == "closed":
        if args.family in ("tree", "path", "star"):
            value = counting.count_closed_form("tree", g.n, args.h)
        elif args.family == "complete":
            value = counting.count_closed_form("complete", g.n, args.h)
        else:
            raise ValueError("--method closed needs a tree or complete family")
        expansions = 0
    else:  # strip
        if not args.grid:
            raise ValueError("--method strip needs --grid")
        m, n = _grid_shape(args.grid)
        value = strips.strip_count_exact(m, n, args.h, args.budget)
        expansions = 0
    elapsed = time.perf_counter() - t0
    rec = {"graph_hash": graphs.graph_hash(g), "h": args.h,
           "count": str(value), "node_expansions": expansions,
           "method": method}
    if not args.deterministic:
        rec["elapsed"] = elapsed
    return {"records": [rec]}


def _cmd_ehrhart(args):
    g = _build_graph(args)
    fit, counted = counting.reciprocal_fit(g, args.budget)
    nodes = list(range(g.n - g.component_count + 1))
    return {"records": [{
        "graph_hash": graphs.graph_hash(g),
        "nodes": nodes,
        "counts": [str(fit.evaluate(h)) for h in nodes],
        "counted": [h for h, _ in counted],
        "coefficients": [str(c) for c in fit.coeffs],
        "leading": str(fit.leading),
        "degree": fit.degree,
        "c_estimate": fit.c_estimate if fit.degree else None,
    }]}


def _cmd_strip(args):
    # checked before any solve: the solver's own checks would name no
    # flag, the normalization divides by h, and the extrapolation needs a
    # 1/h ladder
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise ValueError("--tol must be positive and finite")
    if args.max_iter < 1:
        raise ValueError("--max-iter must be at least 1")
    if min(args.h) < 1:
        raise ValueError("--h values must be at least 1")
    if len(args.h) >= 3 and sorted(set(args.h)) != args.h:
        raise ValueError("--h values must be distinct and increasing "
                         "to extrapolate")
    records = []
    pairs = []
    est = None
    for h in args.h:
        # each solve starts from the previous h's Perron vector
        op = strips.make_operator(args.kind, h, args.m)
        start = None if est is None else op.prolong(est.vector, est.h)
        est = strips.top_eigenvalue(op, args.tol, args.max_iter, start)
        pairs.append((h, est.normalized))
        records.append({"kind": est.kind, "m": est.m, "h": h,
                        "lambda": est.eigenvalue, "normalized": est.normalized,
                        "residual": est.residual, "iterations": est.iterations})
    payload = {"records": records}
    if len(pairs) >= 3:
        fit = strips.extrapolate_limit(pairs)
        payload["extrapolated"] = {"limit": fit.limit, "slope": fit.slope,
                                   "curvature": fit.curvature}
    return payload


def _ladder(fit: continuum.KernelLimit, scale: float = 1.0) -> str:
    return f"N={'/'.join(map(str, fit.meshes))}, err={fit.error * scale:.1e}"


def _abstract_records():
    """Every constants row, the eight of ``constants`` first; a strip row
    is its kernel's ladder limit, the kernel being the scaled operator."""
    alpha = continuum.solve_alpha()
    band, tent, zeta, psi = (continuum.kernel_limit(k) for k in
                             ("band-indicator", "tent", "zeta", "psi"))
    two_rows = math.sqrt(tent.value)
    rows = [
        ("alpha", alpha, ""),
        ("alpha_sq", alpha ** 2, ""),
        ("alpha_sqrt2", alpha * math.sqrt(2), ""),
        ("beta", continuum.solve_beta(), ""),
        ("nystrom_band", band.value, _ladder(band)),
        ("nystrom_tent", tent.value, _ladder(tent)),
        ("zeta", zeta.value, _ladder(zeta)),
        ("psi", psi.value, _ladder(psi)),
        ("strip_band", band.value, _ladder(band)),
        ("strip_two_rows", two_rows, _ladder(tent, 0.5 / two_rows)),
        ("strip_pinned_two", zeta.value, _ladder(zeta)),
        ("strip_three_rows", psi.value, _ladder(psi)),
        ("square_grid_lower", psi.value ** 1.5 / math.sqrt(2), ""),
        ("square_grid_upper", zeta.value, ""),
    ]
    return [{"name": name, "value": value, "reference": _ROWS[name][0],
             "equation": _ROWS[name][1], "metadata": meta}
            for name, value, meta in rows]


def _cmd_constants(args):
    return {"records": _abstract_records()[:8]}


def _cmd_bounds(args):
    records = []
    for d in args.d:
        try:
            rep = randomlab.bound_report(d)
        except ValueError as exc:
            raise ValueError(f"--d: {exc}") from exc
        rec = {"d": d,
               "lower_exact": rep.lower_exact,
               "lower_asymptotic": rep.lower_asymptotic,
               "upper_exact": rep.upper_exact,
               "upper_asymptotic": rep.upper_asymptotic,
               "lower_valid": rep.lower_valid,
               "upper_valid": rep.upper_valid,
               "upper_exact_below_two": rep.upper_exact_below_two}
        rec["pair_margin"] = (randomlab.independent_pair_margin(d).margin
                              if d >= 9 else None)
        rec["giant_fraction"] = (randomlab.giant_fraction_prediction(d)
                                 if d > 1 else None)
        records.append(rec)
    return {"records": records}


def _lab_graph(args, seed: int) -> graphs.Graph:
    """``sample_er(args.n, args.d, seed)``; its usage error names the flag."""
    try:
        return graphs.sample_er(args.n, args.d, seed)
    except ValueError as exc:
        raise ValueError(f"{'--n' if args.n < 1 else '--d'}: {exc}") from exc


def _cmd_random_lab(args):
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    if args.mode == "lll":
        g = _lab_graph(args, args.seed)
        cfg = randomlab.LllConfig(h=args.h, d=args.d)
        res = randomlab.lll_sampler(g, cfg, args.trials, args.seed)
        rec = {"mode": "lll", "n": args.n, "d": args.d, "h": args.h,
               "trials": res.trials, "successes": res.successes,
               "estimate": res.estimate, "ci_low": res.ci_low,
               "ci_high": res.ci_high, "edge_failure_rate": res.edge_failure_rate,
               "seed": res.seed}
        return {"records": [rec]}
    if args.mode == "giant":
        predicted = (randomlab.giant_fraction_prediction(args.d)
                     if args.d > 1 else None)
        records = []
        for t in range(args.trials):
            g = _lab_graph(args, args.seed + t)
            records.append({"mode": "giant", "n": args.n, "d": args.d,
                            "seed": args.seed + t,
                            "components": g.component_count,
                            "giant_fraction": g.giant_size / args.n,
                            "predicted": predicted})
        return {"records": records}
    # pairs
    size = args.size
    if size is None:
        # the size 2 ln(d)/d * n is positive and finite only for 1 < d < inf
        if not 1 < args.d < math.inf:
            raise ValueError("--d must be finite and above 1 to set the "
                             "pairs size (or pass --size)")
        size = math.ceil(randomlab.flatness_parameter(args.d) * args.n)
    found = 0
    records = []
    for t in range(args.trials):
        g = _lab_graph(args, args.seed + t)
        res = randomlab.independent_pair_search(g, size, seed=args.seed + t)
        found += res.found
        records.append({"mode": "pairs", "n": args.n, "d": args.d, "size": size,
                        "seed": args.seed + t, "found": res.found,
                        "definitive": res.definitive})
    return {"records": records,
            "summary": {"found_fraction": found / args.trials}}


def _cmd_reproduce_abstract(args):
    return {"records": _abstract_records()}


_DISPATCH = {
    "generate": _cmd_generate,
    "count": _cmd_count,
    "ehrhart": _cmd_ehrhart,
    "strip": _cmd_strip,
    "constants": _cmd_constants,
    "bounds": _cmd_bounds,
    "random-lab": _cmd_random_lab,
    "reproduce-abstract": _cmd_reproduce_abstract,
}

_TABLE_DEFAULT = {"constants", "reproduce-abstract"}


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.10g}"
    if v is None:
        return ""
    return str(v)


def _as_table(records) -> str:
    if not records:
        return "(no records)\n"
    cols = list(records[0].keys())
    rows = [[_format_cell(r.get(c)) for c in cols] for r in records]
    widths = [max(len(c), *(len(row[i]) for row in rows))
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip()]
    lines += ["  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip()
              for row in rows]
    return "\n".join(lines) + "\n"


def _as_csv(records) -> str:
    import csv
    import io
    buf = io.StringIO()
    if records:
        writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
        writer.writeheader()
        for r in records:
            writer.writerow({k: _format_cell(v) for k, v in r.items()})
    return buf.getvalue()


def _dumps(body: dict) -> str:
    """Strict JSON: a NaN or infinity raises instead of printing bare NaN."""
    return json.dumps(body, sort_keys=True, indent=2, default=str,
                      allow_nan=False) + "\n"


def _emit(payload: dict, args) -> str:
    if "text" in payload:
        return payload["text"]
    fmt = args.format or ("table" if args.command in _TABLE_DEFAULT else "json")
    body = dict(payload)
    body["schema"] = SCHEMA
    body["command"] = args.command
    if not args.deterministic:
        body["timestamp"] = datetime.now(timezone.utc).isoformat()
    if fmt == "json":
        return _dumps(body)
    records = payload.get("records", [])
    if fmt == "csv":
        return _as_csv(records)
    return _as_table(records)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = _DISPATCH[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 4
    text = _emit(payload, args)
    if args.out:
        body = dict(payload)
        body["schema"] = SCHEMA
        body["command"] = args.command
        with open(args.out, "w") as fh:
            fh.write(_dumps(body))
    sys.stdout.write(text)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
