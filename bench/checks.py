"""Checks of one CLI call's output against expectations built by oracle.py.

A call passes when it exits 0, prints JSON, and every check holds.  Each
check is labelled ``oracle`` (compared with an independently computed
value) or ``structural`` (a consistency rule, where no oracle exists).  The
tolerances are the ones this repository states: exact equality for counts,
relative 1e-9 for a strip eigenvalue against a dense or bracketed reference
(tests/test_strips.py), 2e-3 / 5e-4 for the strip and Nystrom constants
(acceptance criteria 4 and 5), 0.02 for zeta, psi and the square-grid pair
(criterion 6), 1e-10 for the bound expressions and 0.02 for the giant
fraction (criterion 8).
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from oracle import extrapolate, wilson

EIGEN_REL_TOL = 1e-9


def _check(name, kind, ok, value=None, reference=None, tol=None):
    rec = {"check": name, "kind": kind, "ok": bool(ok)}
    if value is not None:
        rec["value"] = value
    if reference is not None:
        rec["reference"] = reference
        if isinstance(value, (int, float)) and isinstance(reference, (int, float)):
            rec["abs_err"] = abs(value - reference)
    if tol is not None:
        rec["tol"] = tol
    return rec


def _close(name, kind, value, reference, tol):
    ok = (isinstance(value, (int, float)) and math.isfinite(value)
          and abs(value - reference) <= tol)
    return _check(name, kind, ok, value, reference, tol)


def _count(spec, body):
    rec = body["records"][0]
    return [_check("count", "oracle", rec["count"] == spec["expected"],
                   rec["count"], spec["expected"]),
            _check("method", "structural", rec["method"] == spec["method"],
                   rec["method"], spec["method"])]


def _ehrhart(spec, body):
    rec = body["records"][0]
    degree = spec["n"] - spec["k"]
    coeffs = [Fraction(c) for c in rec["coefficients"]]
    held_out = sum(c * spec["held_out_h"] ** i for i, c in enumerate(coeffs))
    lead = float(Fraction(rec["leading"]))
    return [
        _check("nodes", "structural", rec["nodes"] == list(range(degree + 1))),
        _check("node_counts", "oracle", rec["counts"] == spec["node_counts"]),
        _check("degree", "structural", rec["degree"] == degree,
               rec["degree"], degree),
        _check(f"held_out_h{spec['held_out_h']}", "oracle",
               held_out == int(spec["held_out"]), str(held_out),
               spec["held_out"]),
        _close("c_estimate", "structural", rec["c_estimate"],
               lead ** (1.0 / degree), 1e-12 * lead),
    ]


def _constants(spec, body):
    values = {r["name"]: r["value"] for r in body["records"]}
    out = []
    for name, (reference, tol) in spec["references"].items():
        out.append(_close(name, "oracle", values.get(name), reference, tol))
    return out


def _strip(spec, body):
    out = []
    pairs = []
    rows = {r["h"]: r for r in body["records"]}
    for ref in spec["rows"]:
        rec = rows.get(ref["h"])
        if rec is None:
            out.append(_check(f"h{ref['h']}", "structural", False))
            continue
        lam = rec["lambda"]
        lo = ref["lo"] * (1 - EIGEN_REL_TOL)
        hi = ref["hi"] * (1 + EIGEN_REL_TOL)
        rec_check = _check(f"lambda_h{ref['h']}", "oracle", lo <= lam <= hi,
                           lam, (ref["lo"] + ref["hi"]) / 2, EIGEN_REL_TOL)
        rec_check["bracket"] = [ref["lo"], ref["hi"]]
        out.append(rec_check)
        norm = lam ** (1.0 / spec["m"]) / ref["h"]
        out.append(_close(f"normalized_h{ref['h']}", "structural",
                          rec["normalized"], norm, 1e-12 * norm))
        pairs.append((ref["h"], rec["normalized"]))
    if len(pairs) >= 3:
        limit = body.get("extrapolated", {}).get("limit")
        out.append(_close("extrapolated_fit", "structural", limit,
                          extrapolate(pairs), 1e-9))
    return out


def _giant(spec, body):
    recs = body["records"]
    fractions = [r["giant_fraction"] for r in recs]
    mean = sum(fractions) / len(fractions) if fractions else math.nan
    return [
        _close("giant_mean_vs_prediction", "oracle", mean, spec["prediction"],
               spec["tol"]),
        _check("predicted", "oracle", all(
            abs(r["predicted"] - spec["prediction"]) <= 1e-9 for r in recs)),
        _check("seeds", "structural", [r["seed"] for r in recs] ==
               [spec["seed"] + t for t in range(spec["trials"])]),
        _check("components", "structural",
               all(1 <= r["components"] <= spec["n"] for r in recs)),
    ]


def _lll(spec, body):
    rec = body["records"][0]
    trials, succ = rec["trials"], rec["successes"]
    ok_counts = trials == spec["trials"] and 0 <= succ <= trials
    lo, hi = wilson(succ, trials) if ok_counts else (math.nan, math.nan)
    return [
        _check("counts", "structural", ok_counts, succ, trials),
        _close("estimate", "structural", rec["estimate"],
               succ / max(trials, 1), 1e-15),
        _close("wilson_low", "oracle", rec["ci_low"], lo, 1e-12),
        _close("wilson_high", "oracle", rec["ci_high"], hi, 1e-12),
        _check("edge_failure_rate", "structural",
               0.0 <= rec["edge_failure_rate"] <= 1.0),
        _check("echo", "structural", (rec["n"], rec["h"], rec["seed"]) ==
               (spec["n"], spec["h"], spec["seed"])),
    ]


def _pairs(spec, body):
    recs = body["records"]
    found = sum(r["found"] for r in recs)
    return [
        _check("records", "structural", len(recs) == spec["trials"]),
        _check("size", "structural", all(r["size"] == spec["size"] for r in recs)),
        _check("definitive", "structural", all(r["definitive"] for r in recs)),
        _close("found_fraction", "structural",
               body["summary"]["found_fraction"], found / spec["trials"], 1e-15),
    ]


def _bounds(spec, body):
    out = []
    for rec, ref in zip(body["records"], spec["rows"], strict=True):
        for key in ("lower_exact", "upper_exact", "lower_asymptotic",
                    "upper_asymptotic", "pair_margin", "giant_fraction"):
            if key in ref:
                out.append(_close(f"d{rec['d']:g}.{key}", "oracle",
                                  rec[key], ref[key], 1e-10))
        out.append(_check(f"d{rec['d']:g}.flags", "oracle",
                          (rec["lower_valid"], rec["upper_valid"]) ==
                          (ref["lower_valid"], ref["upper_valid"])))
    return out


CHECKERS = {"count": _count, "ehrhart": _ehrhart, "constants": _constants,
            "strip": _strip, "giant": _giant, "lll": _lll, "pairs": _pairs,
            "bounds": _bounds}


def check_call(spec: dict, code: int, stdout: str) -> list[dict]:
    """All checks of one call; the call passes when every ``ok`` is true."""
    if code != 0:
        return [_check("exit_code", "structural", False, code, 0)]
    try:
        body = json.loads(stdout)
        return CHECKERS[spec["type"]](spec, body)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [_check("output", "structural", False, repr(exc)[:200])]


class Tally:
    """Calls attempted and failed over a run, keeping the first ten failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def add(self, argv: list[str], checks: list[dict]) -> None:
        self.attempted += 1
        bad = [c for c in checks if not c["ok"]]
        if bad:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append({"argv": argv, "checks": bad})

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted
