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
[re, im] pair of floats and each ball of floats as one string.  Two
deviations, reached by no report: a dict key that is not a str raises
TypeError (the stdlib writes a number, bool or null key as a string), and a
doc that contains itself ends in RecursionError (the stdlib raises
ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string

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


def render(doc: dict) -> str:
    """doc in the stdlib's sort_keys=True, indent=2 form, with a final
    newline (see the module docstring for the two deviations)."""
    return _encode(doc, "\n") + "\n"


def exit_code_for(report: CertificationReport) -> int:
    """0 when every verdict is conclusive, 2 when Inconclusive appears."""
    return 2 if report.has_inconclusive else 0
