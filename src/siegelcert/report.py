"""JSON report schema and serialization.

One top-level object: {config, family, salem {coeffs, roots[], lambda,
entropy}, fixed_points[], verdicts[], matrix {dim, trace, bound}, evidence}.
The config block records command, family, arguments, strict and version.
Complex numbers serialize as [re, im] pairs and balls as
{center: [re, im], radius}.  Identical RunConfig must produce
byte-identical output, so everything is emitted with sorted keys and no
timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


def render(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def exit_code_for(report: CertificationReport) -> int:
    """0 when every verdict is conclusive, 2 when Inconclusive appears."""
    return 2 if report.has_inconclusive else 0
