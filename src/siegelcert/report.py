"""JSON report schema and serialization.

One top-level object: {config, family, salem {coeffs, roots[], lambda,
entropy}, fixed_points[], verdicts[], matrix {dim, trace, bound}, evidence}.
The config block records command, family, arguments, strict and version.
Complex numbers serialize as [re, im] pairs and balls as
{center: [re, im], radius}.  Identical RunConfig must produce
byte-identical output, so everything is emitted with sorted keys and no
timestamps.

render(doc) returns, byte for byte, json.dumps(doc, sort_keys=True,
indent=2) plus a newline, for every doc; so json.loads followed by that
dump reproduces every report and CLI error object.  With an indent the
stdlib runs its pure-Python encoder, which took more time than any
certification layer on a cuspidal report, so the rows that make up most of
a report are written by render itself, one %-format each.  Four row kinds
have templates, built once at import through the stdlib at their
indentation: a row of the top-level fixed_points list, a verdicts row with
a witness and one whose witness is null, a sections row, and a ball of
salem.roots.  A row takes its template only when it is a dict with the
row's exact key set, every container has the row's shape (lists of the
row's lengths, balls with exactly center and radius) and every leaf has the
row's type: exactly float (finite, tested on the float itself, since a
string such as the location Infinity may spell a float word), int but not
bool, or str.  The stdlib writes everything else: the other values, any row
that does not fit, and any doc or salem block that is not a dict with str
keys.  So the output never depends on which path wrote it, and the float
repr of the floats is most of what a report costs to write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii as _string
from math import isfinite

from . import __version__
from .balls import ComplexBall
from .certifier import CertificationReport


@dataclass(frozen=True)
class RunConfig:
    command: str
    family: str
    arguments: dict = field(default_factory=dict)
    strict: bool = False
    out: str | None = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "family": self.family,
            "arguments": self.arguments,
            "strict": self.strict,
            "version": __version__,
        }


def cplx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def ball(b: ComplexBall) -> dict:
    return {"center": cplx(b.center), "radius": float(b.radius)}


def report_to_dict(report: CertificationReport, config: RunConfig) -> dict:
    cert = report.salem_cert
    roots = ([ball(cert.lam), ball(cert.inv_lam)]
             + [ball(r) for r in cert.circle_roots])
    fixed_points = []
    verdicts = []
    for si, sec in enumerate(report.sections):
        for pi, (rec, ver) in enumerate(zip(sec.records, sec.verdicts)):
            fixed_points.append({
                "section": si,
                "index": pi,
                "location": rec.location.value,
                "coords": [cplx(c) for c in rec.coords.coords],
                "trace": ball(rec.trace),
                "det": ball(rec.det),
                "s": ball(rec.s),
                "eigenvalues": [ball(e) for e in rec.eigenvalues],
            })
            verdicts.append({
                "section": si,
                "index": pi,
                "verdict": ver.verdict.value,
                "witness": None if ver.witness is None else {
                    "delta": ball(ver.witness.delta),
                    "point_index": ver.witness.point_index,
                    "margin": ver.witness.margin,
                },
                "note": ver.note,
            })
    evidence: dict = {}
    if report.strict_evidence is not None:
        ev = report.strict_evidence
        evidence["strict"] = {
            "resultant_degree": ev.resultant_degree,
            "candidate_degree": ev.candidate_degree,
            "prime": ev.prime,
            "irreducible": ev.irreducible,
        }
    return {
        "config": config.to_dict(),
        "family": report.family,
        "parameters": report.parameters,
        "salem": {
            "coeffs": [int(c) for c in cert.poly.coeffs],
            "roots": roots,
            "lambda": ball(cert.lam),
            "entropy": cert.entropy,
        },
        "sections": [{"delta": ball(sec.delta)} for sec in report.sections],
        "principal": 0,
        "fixed_points": fixed_points,
        "verdicts": verdicts,
        "matrix": report.matrix_info,
        "evidence": evidence,
    }


_STDLIB = json.JSONEncoder(sort_keys=True, indent=2)


def _json(o, nl: str) -> str:
    """o as the stdlib writes it, at the indentation whose newline and
    spaces are nl: JSON text has no newline but its indentation's."""
    return _STDLIB.encode(o).replace("\n", nl)


# ---------------------------------------------------------------------------
# report rows: one %-format each
# ---------------------------------------------------------------------------

class _Mismatch(Exception):
    """A report row that its template does not fit."""


def _dict(d, keys) -> dict:
    """d, a dict with exactly the given keys."""
    if type(d) is dict and d.keys() == keys:
        return d
    raise _Mismatch


def _items(seq, n: int) -> list:
    """seq, a list of length n."""
    if type(seq) is list and len(seq) == n:
        return seq
    raise _Mismatch


def _int(v) -> int:
    if type(v) is int:
        return v
    raise _Mismatch


def _finite_float(v) -> float:
    if type(v) is float and isfinite(v):
        return v
    raise _Mismatch


def _str(v) -> str:
    """v written as a JSON string."""
    if type(v) is str:
        return _string(v)
    raise _Mismatch


def _pair(p) -> tuple[float, float]:
    """The floats of p, a list of two exact finite floats."""
    if type(p) is list and len(p) == 2:
        x, y = p
        if type(x) is float and type(y) is float and isfinite(x) and isfinite(y):
            return x, y
    raise _Mismatch


_BALL_SLOTS = {"center": ["%r", "%r"], "radius": "%r"}
_BALL_KEYS = _BALL_SLOTS.keys()


def _ball(b) -> tuple[float, float, float]:
    """Center and radius of b, a ball of exact finite floats."""
    b = _dict(b, _BALL_KEYS)
    return (*_pair(b["center"]), _finite_float(b["radius"]))


def _template(shape, nl: str) -> str:
    """A report row's text at the indentation nl with a %-slot at each leaf:
    shape is the row with each leaf replaced by its slot, %r for a float, %d
    for an int and %s for a string already written as JSON."""
    text = _json(shape, nl)
    for slot in ("%r", "%d", "%s"):
        text = text.replace(_string(slot), slot)
    return text


_ROW_NL = "\n    "  # the indentation of a row of a top-level list
_FIXED_POINT = {"coords": [["%r", "%r"]] * 3, "det": _BALL_SLOTS,
                "eigenvalues": [_BALL_SLOTS] * 2, "index": "%d",
                "location": "%s", "s": _BALL_SLOTS, "section": "%d",
                "trace": _BALL_SLOTS}
_VERDICT = {"index": "%d", "note": "%s", "section": "%d", "verdict": "%s"}
_WITNESS = {"delta": _BALL_SLOTS, "margin": "%r", "point_index": "%d"}
_SECTION = {"delta": _BALL_SLOTS}
_FIXED_POINT_ROW = _template(_FIXED_POINT, _ROW_NL)
_VERDICT_ROW_NULL = _template({**_VERDICT, "witness": None}, _ROW_NL)
_VERDICT_ROW_WITNESS = _template({**_VERDICT, "witness": _WITNESS}, _ROW_NL)
_SECTION_ROW = _template(_SECTION, _ROW_NL)
_ROOT_BALL = _template(_BALL_SLOTS, _ROW_NL + "  ")  # salem.roots is one deeper
_FIXED_POINT_KEYS = _FIXED_POINT.keys()
_VERDICT_KEYS = _VERDICT.keys() | {"witness"}
_WITNESS_KEYS = _WITNESS.keys()
_SECTION_KEYS = _SECTION.keys()


def _fixed_point_row(row) -> str:
    """A fixed_points row through its template.  The slots follow the
    sorted keys."""
    row = _dict(row, _FIXED_POINT_KEYS)
    c0, c1, c2 = _items(row["coords"], 3)
    e0, e1 = _items(row["eigenvalues"], 2)
    return _FIXED_POINT_ROW % (
        *_pair(c0), *_pair(c1), *_pair(c2), *_ball(row["det"]),
        *_ball(e0), *_ball(e1), _int(row["index"]),
        _str(row["location"]), *_ball(row["s"]), _int(row["section"]),
        *_ball(row["trace"]))


def _verdict_row(row) -> str:
    """A verdicts row through one of its two templates."""
    row = _dict(row, _VERDICT_KEYS)
    head = (_int(row["index"]), _str(row["note"]), _int(row["section"]),
            _str(row["verdict"]))
    witness = row["witness"]
    if witness is None:
        return _VERDICT_ROW_NULL % head
    witness = _dict(witness, _WITNESS_KEYS)
    return _VERDICT_ROW_WITNESS % (
        *head, *_ball(witness["delta"]), _finite_float(witness["margin"]),
        _int(witness["point_index"]))


def _section_row(row) -> str:
    return _SECTION_ROW % _ball(_dict(row, _SECTION_KEYS)["delta"])


def _root_ball(b) -> str:
    return _ROOT_BALL % _ball(b)


def _rows(row_text, rows, nl: str) -> str:
    """A list of report rows at the indentation nl, each through row_text
    or, when it does not fit, the stdlib."""
    if type(rows) is not list or not rows:
        return _json(rows, nl)
    inner = nl + "  "
    texts = []
    for row in rows:
        try:
            texts.append(row_text(row))
        except _Mismatch:
            texts.append(_json(row, inner))
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _object(o, nl: str, fields: dict) -> str:
    """o at the indentation nl.  A dict with str keys is walked here: the
    value of a key in fields goes to fields[key] with its indentation, and
    every other value to the stdlib."""
    if type(o) is not dict or not o or not all(type(k) is str for k in o):
        return _json(o, nl)
    inner = nl + "  "
    return ("{" + inner + ("," + inner).join(
        [_string(k) + ": " + fields.get(k, _json)(o[k], inner)
         for k in sorted(o)]) + nl + "}")


_REPORT = {"fixed_points": partial(_rows, _fixed_point_row),
           "verdicts": partial(_rows, _verdict_row),
           "sections": partial(_rows, _section_row),
           "salem": partial(_object, fields={"roots": partial(_rows, _root_ball)})}


def render(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) plus a newline."""
    return _object(doc, "\n", _REPORT) + "\n"


def exit_code_for(report: CertificationReport) -> int:
    """0 when every verdict is conclusive, 2 when Inconclusive appears."""
    return 2 if report.has_inconclusive else 0
