"""Reference outputs and the comparison rule for one benchmark item.

A summary keeps what a refactor must not change: the outcome (or the error
type), Salem coefficients, the integer parameters, matrix data, per-section
verdict counts and strict evidence, compared exactly; the entropy, compared to
within ENTROPY_TOL; and every ball radius of the report, which may shrink but
not grow.  Radii get a relative slack of RADIUS_SLACK because numpy's SIMD
paths for exp and reductions may differ in the last bits between CPUs, and
root radii inherit that.
"""

from __future__ import annotations

import json
import os

ENTROPY_TOL = 1e-9
RADIUS_SLACK = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _radii(doc: dict) -> list[float]:
    out = [b["radius"] for b in doc["salem"]["roots"]]
    for fp in doc["fixed_points"]:
        out += [fp["trace"]["radius"], fp["det"]["radius"], fp["s"]["radius"]]
        out += [e["radius"] for e in fp["eigenvalues"]]
    return out


def _int_parameters(params: dict) -> dict:
    """Parameters that are exact (ints, bools, int lists); floats such as
    orbit residuals are diagnostics, not part of the certificate."""
    return {k: v for k, v in params.items() if not isinstance(v, float)}


def summarize(doc: dict | None, error: BaseException | None = None) -> dict:
    if error is not None:
        return {"outcome": "error", "error": type(error).__name__}
    counts = []
    for si in range(len(doc["sections"])):
        tally: dict[str, int] = {}
        for v in doc["verdicts"]:
            if v["section"] == si:
                tally[v["verdict"]] = tally.get(v["verdict"], 0) + 1
        counts.append(tally)
    return {
        "outcome": "report",
        "salem": doc["salem"]["coeffs"],
        "parameters": _int_parameters(doc["parameters"]),
        "matrix": doc["matrix"],
        "verdicts": counts,
        "evidence": doc["evidence"],
        "entropy": doc["salem"]["entropy"],
        "radii": _radii(doc),
    }


def compare(ref: dict, got: dict) -> tuple[str, list[str]]:
    """Classify got against ref: ("match" | "new" | "mismatch", diffs).

    "new" marks an item that raised at the reference and now completes."""
    if ref["outcome"] == "error":
        if got["outcome"] == "report":
            return "new", []
        if got["error"] != ref["error"]:
            return "mismatch", ["error %s, reference %s" % (got["error"], ref["error"])]
        return "match", []
    if got["outcome"] == "error":
        return "mismatch", ["raised %s, reference completed" % got["error"]]
    diffs = []
    for field in ("salem", "parameters", "matrix", "verdicts", "evidence"):
        if got[field] != ref[field]:
            diffs.append("%s: %r, reference %r" % (field, got[field], ref[field]))
    if abs(got["entropy"] - ref["entropy"]) > ENTROPY_TOL:
        diffs.append("entropy %r, reference %r" % (got["entropy"], ref["entropy"]))
    if len(got["radii"]) != len(ref["radii"]):
        diffs.append("%d radii, reference %d" % (len(got["radii"]), len(ref["radii"])))
    else:
        grown = [i for i, (g, r) in enumerate(zip(got["radii"], ref["radii"]))
                 if g > r * (1.0 + RADIUS_SLACK)]
        if grown:
            i = grown[0]
            diffs.append("%d radii grew, first #%d: %r, reference %r"
                         % (len(grown), i, got["radii"][i], ref["radii"][i]))
    return ("mismatch" if diffs else "match"), diffs


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)
