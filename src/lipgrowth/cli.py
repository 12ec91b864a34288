"""Command-line front end.

Every subcommand emits a machine-readable report: JSON by default (an
aligned table for reproduce-abstract), and JSON, CSV or a table on request.
All randomness flows from --seed (default 0), so default runs are
reproducible; --deterministic additionally drops timing fields, making
repeated runs byte-identical.

Exit codes: 0 success, 2 usage error, 3 resource limit, 4 non-convergence.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
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


class _Parser(argparse.ArgumentParser):
    """A usage error raises ``ValueError``, so ``main`` reports it in the
    same one-line format as a handler's."""

    def error(self, message):
        raise ValueError(message)


def _at_least(lo: int):
    """argparse type: an integer of at least ``lo``."""
    def at_least(text: str) -> int:
        with contextlib.suppress(ValueError):
            if (value := int(text)) >= lo:
                return value
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least {lo}, got {text!r}")
    return at_least


def _positive_finite(text: str) -> float:
    """argparse type: a positive finite number."""
    with contextlib.suppress(ValueError):
        if 0 < (value := float(text)) < math.inf:
            return value
    raise argparse.ArgumentTypeError(
        f"must be positive and finite, got {text!r}")


def _grid_shape(text: str) -> tuple[int, int]:
    """argparse type for --grid: MxN, both at least 1."""
    with contextlib.suppress(ValueError):
        m, n = (int(x) for x in text.lower().split("x"))
        if m >= 1 and n >= 1:
            return m, n
    raise argparse.ArgumentTypeError(
        f"expected MxN with both at least 1, got {text!r}")


class _ErShape(argparse.Action):
    """--er N D: an integer N of at least 1 and a finite D of at least 0."""

    def __call__(self, parser, namespace, values, option_string=None):
        with contextlib.suppress(ValueError):
            n, d = int(values[0]), float(values[1])
            if n >= 1 and 0 <= d < math.inf:
                return setattr(namespace, self.dest, (n, d))
        raise argparse.ArgumentError(self, "expected integer N >= 1 and finite "
                                     f"D >= 0, got {' '.join(values)!r}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lipgrowth",
        description="Count h-Lipschitz integer functions on graphs and "
                    "compute their growth constants.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_at_least(0), default=0,
                        help="seed for all randomness (default 0)")
    common.add_argument("--format", choices=["json", "csv", "table"],
                        default=None,
                        help="output format (default: json; table for "
                             "reproduce-abstract)")
    common.add_argument("--deterministic", action="store_true",
                        help="suppress timestamp/elapsed fields for "
                             "byte-identical runs")
    common.add_argument("--out", type=str, default=None,
                        help="also write the JSON payload to this file")
    sub = p.add_subparsers(dest="command", required=True)

    def add_graph_args(sp, for_generate=False):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--family",
                       choices=["path", "cycle", "complete", "star"])
        g.add_argument("--grid", type=_grid_shape, metavar="MxN")
        g.add_argument("--er", nargs=2, action=_ErShape, metavar=("N", "D"))
        if not for_generate:
            g.add_argument("--load", metavar="FILE")
        sp.add_argument("--n", type=_at_least(1), help="size for --family")

    sp = sub.add_parser("generate", parents=[common], help="write a graph as edge-list text")
    add_graph_args(sp, for_generate=True)

    sp = sub.add_parser(
        "count", parents=[common], help="exact h-Lipschitz function count",
        epilog="Record fields: graph_hash, h, count (decimal string), "
               "node_expansions (table cells evaluated by the elimination; "
               "0 for closed and strip), method, elapsed (dropped under "
               "--deterministic).  method \"brute\", the default, names the "
               "general-graph exact engine, bucket elimination; \"closed\" "
               "needs every component a tree or a complete graph.")
    add_graph_args(sp)
    sp.add_argument("--h", type=_at_least(0), required=True)
    sp.add_argument("--method", choices=["brute", "closed", "strip"],
                    default="brute")
    sp.add_argument("--budget", type=_at_least(1), default=DEFAULT_BUDGET,
                    help="cells, not bytes, of the largest elimination table "
                         "(brute; past int64 a Python int per cell) or of each "
                         "of the two folded lattice buffers (strip; int64 "
                         "limbs, 16 bytes per budget cell), at least 1")

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
    sp.add_argument("--budget", type=_at_least(1), default=DEFAULT_BUDGET,
                    help="cells of the largest elimination table, at least 1")

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
               "and 1/h^2 coefficients, slope and curvature.")
    sp.add_argument("--kind", required=True,
                    choices=["band", "tent", "free-strip", "pinned-strip"])
    sp.add_argument("--m", type=_at_least(1), default=None,
                    help="rows (free/pinned strips; band has 1, tent 2)")
    sp.add_argument("--h", type=_at_least(1), nargs="+", required=True)
    sp.add_argument("--tol", type=_positive_finite, default=1e-10)
    sp.add_argument("--max-iter", type=_at_least(1), default=10**5)

    sp = sub.add_parser(
        "bounds", parents=[common], help="random-graph bound expressions",
        epilog="CSV columns: d, lower_exact, lower_asymptotic, upper_exact, "
               "upper_asymptotic, lower_valid, upper_valid, "
               "upper_exact_below_two, pair_margin, giant_fraction.  A "
               "value outside its validity range is null (an empty cell).")
    sp.add_argument("--d", type=_positive_finite, nargs="+", required=True)

    sp = sub.add_parser(
        "random-lab", parents=[common], help="Monte-Carlo experiments",
        epilog="CSV columns by mode -- lll: mode, n, d, h, trials, successes, "
               "estimate, ci_low, ci_high, edge_failure_rate, seed; giant: "
               "mode, n, d, seed, components, giant_fraction, predicted; "
               "pairs: mode, n, d, size, seed, found, definitive.  A search "
               "that finds nothing still exits 0: absence is data.")
    sp.add_argument("--mode", choices=["lll", "giant", "pairs"], required=True)
    sp.add_argument("--n", type=_at_least(1), default=1000)
    sp.add_argument("--d", type=float, default=5.0)
    sp.add_argument("--h", type=_at_least(0), default=100)
    sp.add_argument("--trials", type=_at_least(1), default=100)
    sp.add_argument("--size", type=_at_least(1), default=None,
                    help="set size for pairs mode (default: "
                         "ceil(2 ln(d)/d * n), which needs 1 < d < inf)")

    sub.add_parser("reproduce-abstract", parents=[common],
                   help="full pipeline for the headline constants table")
    return p


@contextlib.contextmanager
def _blame(flag: str):
    """Report a library error raised inside as a usage error of ``flag``."""
    try:
        yield
    except (ValueError, OverflowError, OSError) as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def _build_graph(args) -> graphs.Graph:
    if args.family:
        if args.n is None:
            raise ValueError("--family: needs --n")
        with _blame("--n"):
            return graphs.make_family(args.family, args.n)
    if args.grid:
        return graphs.make_grid(*args.grid)
    if args.er:
        with _blame("--er"):
            return graphs.sample_er(*args.er, args.seed)
    with _blame("--load"):
        return graphs.read_edgelist(args.load)


def _cmd_generate(args):
    return {"text": graphs.to_edgelist_str(_build_graph(args))}


def _cmd_count(args):
    if args.method == "strip" and not args.grid:
        raise ValueError("--method: strip needs --grid")
    g = _build_graph(args)
    t0 = time.perf_counter()
    expansions = 0
    if args.method == "brute":
        value, expansions = counting.count_with_stats(g, args.h, args.budget)
    elif args.method == "closed":
        with _blame("--method"):
            value = counting.count_closed_form(g, args.h)
    else:  # strip
        value = strips.strip_count_exact(*args.grid, args.h, args.budget)
    elapsed = time.perf_counter() - t0
    rec = {"graph_hash": graphs.graph_hash(g), "h": args.h,
           "count": str(value), "node_expansions": expansions,
           "method": args.method}
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
    if len(args.h) >= 3 and sorted(set(args.h)) != args.h:
        raise ValueError("--h: values must be distinct and increasing "
                         "to extrapolate")
    records = []
    pairs = []
    est = None
    for h in args.h:
        with _blame("--m"):  # band and tent have fixed rows
            op = strips.make_operator(args.kind, h, args.m)
        # each solve starts from the previous h's Perron vector
        est = strips.top_eigenvalue(op, args.tol, args.max_iter, est)
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
    """Every constants row; a strip row is its kernel's ladder limit, the
    kernel being the scaled operator."""
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


def _cmd_bounds(args):
    return {"records": [dataclasses.asdict(randomlab.bound_report(d))
                        for d in args.d]}


def _lab_graph(args, seed: int) -> graphs.Graph:
    """``sample_er(args.n, args.d, seed)``, with an n it cannot index
    blamed on --n and any other error on --d."""
    with _blame("--n"):
        graphs.er_pairs(args.n)
    with _blame("--d"):
        return graphs.sample_er(args.n, args.d, seed)


def _cmd_random_lab(args):
    if args.mode == "lll":
        with _blame("--d"):
            cfg = randomlab.LllConfig(h=args.h, d=args.d)
        g = _lab_graph(args, args.seed)
        res = randomlab.lll_sampler(g, cfg, args.trials, args.seed)
        return {"records": [{"mode": "lll", "n": args.n, "d": args.d,
                             "h": args.h, **dataclasses.asdict(res)}]}
    if args.mode == "giant":
        predicted = randomlab.giant_fraction_or_none(args.d)
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
            raise ValueError("--d: must be finite and above 1 to set the "
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
    "bounds": _cmd_bounds,
    "random-lab": _cmd_random_lab,
    "reproduce-abstract": _cmd_reproduce_abstract,
}


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


def _body(payload: dict, args) -> dict:
    """The JSON body of stdout and of --out."""
    return {**payload, "schema": SCHEMA, "command": args.command}


def _emit(payload: dict, args) -> str:
    if "text" in payload:
        return payload["text"]
    fmt = args.format or ("table" if args.command == "reproduce-abstract"
                          else "json")
    if fmt == "json":
        body = _body(payload, args)
        if not args.deterministic:
            body["timestamp"] = datetime.now(timezone.utc).isoformat()
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
        payload = _DISPATCH[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValueError as exc:
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
        try:
            with open(args.out, "w") as fh:
                fh.write(_dumps(_body(payload, args)))
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
