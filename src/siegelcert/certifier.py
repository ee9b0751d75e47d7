"""Fixed-point records and the Galois-conjugate Siegel-disk certificate.

A fixed point w of f_delta with |delta| = 1 certified gets the verdict
SiegelCertified when its rotation number s = Tr^2/Det is certified inside
[0,4] and some Galois-conjugate fixed point (delta*, w*) has s certified
outside [0,4], where delta* is one of the unit-circle roots of the run's
SalemCertificate.  Verdicts rest on that certificate alone: a root of a
certified Salem polynomial is not a root of unity, so nothing here
re-evaluates or re-certifies the polynomial.  The conjugate with the outside
s-value forces the eigenvalue ratio off the unit circle at the conjugate,
which upgrades "eigenvalues on the circle" to "multiplicatively independent
eigenvalues"; transcendence theory then provides the Siegel disk, so
multiplicative independence is the entire computable content of the
certificate.  The witness is a fact about its root alone, so each root's
best witness is decided once per run.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum

from .balls import ComplexBall, Verdict, ball_in_interval, certified_out_margin
from .errors import BallDomainError, CheckFailed, NoSalemFactor, WitnessMismatch
from .geometry import ProjectivePoint
from .intpoly import IntPolynomial
from .salem import SalemCertificate, is_salem


class Location(Enum):
    CURVE_SINGULAR = "CurveSingular"
    AFFINE_DIAGONAL = "AffineDiagonal"
    INFINITY = "Infinity"
    GENERIC = "Generic"


class PointVerdict(Enum):
    SIEGEL_CERTIFIED = "SiegelCertified"
    NOT_ROTATION = "NotRotation"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class FixedPointRecord:
    location: Location
    coords: ProjectivePoint
    trace: ComplexBall
    det: ComplexBall
    s: ComplexBall
    eigenvalues: tuple[ComplexBall, ComplexBall]

    def __post_init__(self):
        tr, dt = self.trace, self.det
        e1, e2 = self.eigenvalues
        if not (e1 + e2).disjoint(tr) and not (e1 * e2).disjoint(dt):
            return
        raise CheckFailed("eigenvalue sum/product inconsistent with trace/det")


def record_from_jacobian(location: Location, coords: ProjectivePoint,
                         jac) -> FixedPointRecord:
    """Build a record from a 2x2 ball Jacobian (trace, det, s, eigenvalues)."""
    (a, b), (c, d) = jac
    tr = a + d
    det = a * d - b * c
    s = tr * tr / det
    disc = tr * tr - 4 * det
    sq = _safe_sqrt(disc)
    half = ComplexBall.exact(0.5)
    eig = ((tr + sq) * half, (tr - sq) * half)
    return FixedPointRecord(location, coords, tr, det, s, eig)


def _safe_sqrt(ball: ComplexBall) -> ComplexBall:
    try:
        return ball.sqrt()
    except BallDomainError:
        # disc ball contains 0: enclose both branches in one disk around 0
        _, hi = ball.abs_bounds()
        return ComplexBall(0j, math.sqrt(hi) * (1 + 2 ** -40) + 1e-300)


# no library path calls this; perfbench's clear_caches still clears it.  It
# reads True for a Salem polynomial times cyclotomic factors too
@functools.cache
def _salem_verdict(coeffs: tuple[int, ...]) -> bool:
    try:
        is_salem(IntPolynomial(coeffs))
    except NoSalemFactor:
        return False
    return True


@dataclass(frozen=True)
class Witness:
    delta: ComplexBall
    point_index: int
    margin: float


@dataclass(frozen=True)
class CertifiedVerdict:
    verdict: PointVerdict
    witness: Witness | None = None
    note: str = ""


def certify_fixed_point(rec: FixedPointRecord, witness: Witness | None,
                        cert: SalemCertificate,
                        strict_ok: bool) -> CertifiedVerdict:
    """Verdict for one fixed point given the best witness among its Galois
    conjugates, or None when none is CertifiedOut (see certify_sections).

    The witness's delta* must be one of cert.circle_roots, which proves it
    is not a root of unity; where the point would use any other value,
    WitnessMismatch is raised.  strict_ok is False when strict-mode evidence
    failed.  The curve-singular fixed point is decided directly: its
    eigenvalue ratio is a primitive cube root of unity, so the eigenvalues
    are multiplicatively dependent and no Siegel disk can be centered there,
    even though its s-value is 1.
    """
    if rec.location is Location.CURVE_SINGULAR:
        return CertifiedVerdict(PointVerdict.NOT_ROTATION,
                                note="eigenvalue ratio is a root of unity")
    v = ball_in_interval(rec.s)
    if v is Verdict.CERTIFIED_OUT:
        return CertifiedVerdict(PointVerdict.NOT_ROTATION)
    if v is not Verdict.CERTIFIED_IN:
        return CertifiedVerdict(PointVerdict.INCONCLUSIVE, note="s straddles [0,4]")
    if not strict_ok:
        return CertifiedVerdict(PointVerdict.INCONCLUSIVE,
                                note="strict-mode conjugacy evidence failed")
    if witness is None:
        return CertifiedVerdict(PointVerdict.INCONCLUSIVE,
                                note="no conjugate with s outside [0,4]")
    if witness.delta not in cert.circle_roots:
        raise WitnessMismatch(
            f"witness delta {witness.delta.center} is not a certified circle root")
    return CertifiedVerdict(PointVerdict.SIEGEL_CERTIFIED, witness=witness)


@dataclass
class RootSection:
    """Certification data for one unit-circle parameter value."""

    delta: ComplexBall
    records: list[FixedPointRecord]
    verdicts: list[CertifiedVerdict]

    def count(self, verdict: PointVerdict) -> int:
        return sum(1 for v in self.verdicts if v.verdict is verdict)


@dataclass
class StrictEvidence:
    resultant_degree: int          # degree of the raw eliminated resultant
    candidate_degree: int          # degree of its squarefree part
    prime: int | None
    irreducible: bool


def certify_sections(cert: SalemCertificate, records_by_root: dict,
                     evidence: StrictEvidence | None) -> list[RootSection]:
    """One RootSection per key of records_by_root, in insertion order, with
    verdicts for that root's records.

    Keys are unit-circle roots of cert.  A record is a witness when it is
    not the curve-singular point and its s is CertifiedOut of [0,4]; the
    certified distance only ranks witnesses.  Each root's best witness is
    decided once (the first of largest margin, in record order), and a
    root's points share the first best of the other roots, in root order:
    the first maximum over all their records.  A witness's point_index is
    the index of its record inside the witness root's own section.
    evidence is the run's strict-mode evidence (None outside strict mode);
    when it fails, every in-range verdict is Inconclusive.
    """
    strict_ok = evidence is None or evidence.irreducible
    margin = operator.attrgetter("margin")
    roots = list(records_by_root.items())
    best = [max((Witness(delta, p, certified_out_margin(rec.s))
                 for p, rec in enumerate(recs)
                 if rec.location is not Location.CURVE_SINGULAR
                 and ball_in_interval(rec.s) is Verdict.CERTIFIED_OUT),
                key=margin, default=None)
            for delta, recs in roots]
    sections = []
    for i, (delta, recs) in enumerate(roots):
        witness = max((w for j, w in enumerate(best) if j != i and w is not None),
                      key=margin, default=None)
        verdicts = [certify_fixed_point(rec, witness, cert, strict_ok)
                    for rec in recs]
        sections.append(RootSection(delta, list(recs), verdicts))
    return sections


@dataclass
class CertificationReport:
    family: str
    parameters: dict
    salem_cert: SalemCertificate
    sections: list[RootSection]         # sections[0] is the headline one
    matrix_info: dict = field(default_factory=dict)
    strict_evidence: StrictEvidence | None = None
    siegel_cap: int | None = None       # hard upper bound on certified centers

    def __post_init__(self):
        if self.siegel_cap is not None:
            for sec in self.sections:
                n = sec.count(PointVerdict.SIEGEL_CERTIFIED)
                if n > self.siegel_cap:
                    raise CheckFailed(
                        f"certified {n} Siegel centers, cap is {self.siegel_cap}")

    @property
    def entropy(self) -> float:
        return self.salem_cert.entropy

    @property
    def principal_section(self) -> RootSection:
        return self.sections[0]

    @property
    def has_inconclusive(self) -> bool:
        return any(sec.count(PointVerdict.INCONCLUSIVE) for sec in self.sections)
