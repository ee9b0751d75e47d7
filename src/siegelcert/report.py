"""JSON report schema and serialization.

One top-level object: {config, family, salem {coeffs, roots[], lambda,
entropy}, fixed_points[], verdicts[], matrix {dim, trace, bound}, evidence}.
The config block records command, family, arguments, strict and version.
Complex numbers serialize as [re, im] pairs and balls as
{center: [re, im], radius}.  Identical RunConfig must produce
byte-identical output, so everything is emitted with sorted keys and no
timestamps.

render(doc) returns, byte for byte, what the stdlib json module writes for
doc with sort_keys=True and indent=2, plus a newline; so json.loads followed
by that dump reproduces every report and CLI error object.  It does not call
the stdlib: with an indent, json runs its pure-Python encoder, which took
more time than any certification layer on a cuspidal report.  render uses
json's own string primitive and float spellings instead, and writes each
[re, im] pair of floats and each ball of floats as one string.

A report's rows cost one %-format each.  Each row of a top-level
fixed_points or verdicts list is written through a template built once at
import at that row's indentation: one for a fixed point, one for a verdict
with a witness and one for a verdict whose witness is null.  A row takes
its template only when it is a dict with the row's exact key set, every
container has the row's shape (lists of the row's lengths, balls with
exactly center and radius) and every leaf has the row's type: exactly
float (finite, tested on the float itself, since a string such as the
location Infinity may spell a float word), int but not bool, or str.  Any
other row or doc goes through the general encoder, so the output never
depends on which path wrote it.  The float repr of the floats is then most
of what a report costs to write.  Two deviations, reached by no report: a
dict key that is not a str raises
TypeError (the stdlib writes a number, bool or null key as a string), and a
doc that contains itself ends in RecursionError (the stdlib raises
ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


# exact types only: a subclass takes the isinstance chain at the end of _encode
_SCALARS = {str: _string, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}
_BALL_KEYS = {"center", "radius"}


def _finite(text: str) -> bool:
    """False when a float written with %r in text was NaN or infinite: a
    float's repr has no other letters than e."""
    return "nan" not in text and "inf" not in text


def _encode(o, nl: str) -> str:
    """o in render's form, at the indentation whose newline and spaces are
    nl."""
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    inner = nl + "  "
    if type(o) is list and len(o) == 2 and type(o[0]) is float and type(o[1]) is float:
        text = "[%s%r,%s%r%s]" % (inner, o[0], inner, o[1], nl)
        if _finite(text):
            return text
    elif type(o) is dict and o.keys() == _BALL_KEYS:
        c, r = o["center"], o["radius"]
        if (type(c) is list and len(c) == 2 and type(c[0]) is float
                and type(c[1]) is float and type(r) is float):
            deep = inner + "  "
            text = '{%s"center": [%s%r,%s%r%s],%s"radius": %r%s}' % (
                inner, deep, c[0], deep, c[1], inner, inner, r, nl)
            if _finite(text):
                return text
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_encode(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        # _string raises TypeError on a key that is not a str
        items = [_string(k) + ": " + _encode(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    # subclasses of str, int and float; bool cannot be subclassed, so it is
    # always caught by _SCALARS before int
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# report rows: one %-format each
# ---------------------------------------------------------------------------

class _Mismatch(Exception):
    """A report row that its template does not fit."""


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


def _ball(b) -> tuple[float, float, float]:
    """Center and radius of b, a ball of exact finite floats."""
    if type(b) is dict and b.keys() == _BALL_KEYS:
        return (*_pair(b["center"]), _finite_float(b["radius"]))
    raise _Mismatch


_ROW_NL = "\n    "  # the indentation of a row of a top-level list


def _template(shape: dict) -> str:
    """A report row's text with a %-slot at each leaf: shape is the row with
    each leaf replaced by its slot, %r for a float, %d for an int and %s for
    a string already written as JSON."""
    text = _encode(shape, _ROW_NL)
    for slot in ("%r", "%d", "%s"):
        text = text.replace(_string(slot), slot)
    return text


_BALL_SLOTS = {"center": ["%r", "%r"], "radius": "%r"}
_FIXED_POINT = {"coords": [["%r", "%r"]] * 3, "det": _BALL_SLOTS,
                "eigenvalues": [_BALL_SLOTS] * 2, "index": "%d",
                "location": "%s", "s": _BALL_SLOTS, "section": "%d",
                "trace": _BALL_SLOTS}
_VERDICT = {"index": "%d", "note": "%s", "section": "%d", "verdict": "%s"}
_WITNESS = {"delta": _BALL_SLOTS, "margin": "%r", "point_index": "%d"}
_FIXED_POINT_ROW = _template(_FIXED_POINT)
_VERDICT_ROW_NULL = _template({**_VERDICT, "witness": None})
_VERDICT_ROW_WITNESS = _template({**_VERDICT, "witness": _WITNESS})
_FIXED_POINT_KEYS = _FIXED_POINT.keys()
_VERDICT_KEYS = _VERDICT.keys() | {"witness"}
_WITNESS_KEYS = _WITNESS.keys()


def _fixed_point_row(row) -> str | None:
    """A fixed_points row through its template; None when it does not fit.
    The slots follow the sorted keys."""
    if type(row) is not dict or row.keys() != _FIXED_POINT_KEYS:
        return None
    try:
        c0, c1, c2 = _items(row["coords"], 3)
        e0, e1 = _items(row["eigenvalues"], 2)
        return _FIXED_POINT_ROW % (
            *_pair(c0), *_pair(c1), *_pair(c2), *_ball(row["det"]),
            *_ball(e0), *_ball(e1), _int(row["index"]),
            _str(row["location"]), *_ball(row["s"]), _int(row["section"]),
            *_ball(row["trace"]))
    except _Mismatch:
        return None


def _verdict_row(row) -> str | None:
    """A verdicts row through one of its two templates; None when it fits
    neither."""
    if type(row) is not dict or row.keys() != _VERDICT_KEYS:
        return None
    witness = row["witness"]
    try:
        head = (_int(row["index"]), _str(row["note"]), _int(row["section"]),
                _str(row["verdict"]))
        if witness is None:
            return _VERDICT_ROW_NULL % head
        if type(witness) is dict and witness.keys() == _WITNESS_KEYS:
            return _VERDICT_ROW_WITNESS % (
                *head, *_ball(witness["delta"]),
                _finite_float(witness["margin"]), _int(witness["point_index"]))
    except _Mismatch:
        pass
    return None


_ROWS = {"fixed_points": _fixed_point_row, "verdicts": _verdict_row}


def _rows(rows, row_text) -> str:
    """A top-level list of report rows, each through row_text or, when that
    gives None, _encode."""
    if type(rows) is not list or not rows:
        return _encode(rows, "\n  ")
    return ("[" + _ROW_NL
            + ("," + _ROW_NL).join([row_text(r) or _encode(r, _ROW_NL)
                                    for r in rows])
            + "\n  ]")


def render(doc: dict) -> str:
    """doc in the stdlib's sort_keys=True, indent=2 form, with a final
    newline (see the module docstring for the two deviations)."""
    if type(doc) is not dict or not doc:
        return _encode(doc, "\n") + "\n"
    items = [_string(k) + ": " + (_rows(doc[k], _ROWS[k]) if k in _ROWS
                                  else _encode(doc[k], "\n  "))
             for k in sorted(doc)]
    return "{\n  " + ",\n  ".join(items) + "\n}\n"


def exit_code_for(report: CertificationReport) -> int:
    """0 when every verdict is conclusive, 2 when Inconclusive appears."""
    return 2 if report.has_inconclusive else 0
