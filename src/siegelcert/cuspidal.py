"""The quadratic birational family fixing the cuspidal cubic y z^2 = x^3.

For delta outside {0, 1} and d = (1 - delta)/(3 delta), the map

    f [x:y:z] = [ delta  (x y - 2 d y z + 2 d^3 x z - d^4 z^2)
                : delta^3 (y^2 - 3 d^2 x y + 3 d^4 x^2 - d^6 z^2)
                : y z - 3 d x^2 + 3 d^2 x z - d^3 z^2 ]

preserves the cubic and restricts to t -> delta (t + d) on its smooth locus
under the parametrization p(t) = [t : t^3 : 1].  The backward indeterminacy
orbit closes after n steps exactly when delta is a root of an explicit integer
polynomial; at n = 8 the non-cyclotomic part is a degree-8 Salem polynomial,
and for its unit-circle roots both fixed points off the cubic carry Siegel
disks, which certify_cuspidal establishes through the conjugate criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .balls import ComplexBall
from .certifier import (CertificationReport, FixedPointRecord, Location,
                        StrictEvidence, certify_sections, record_from_jacobian)
from .cohomology import quad_action_matrix, spectral_check
from .errors import CheckFailed, DegenerateTau, Indeterminate, PoleAtTau
from .geometry import ProjectivePoint, chart_jacobian
from .intpoly import IntPolynomial, resultant
# is_salem is not called here; perfbench's tracer tests check that it stays
# bound in this module
from .salem import is_salem, salem_factor  # noqa: F401
from .strictmode import squarefree_evidence

INDETERMINACY_TOL = 1e-10
RESIDUAL_TOL = 1e-9  # chordal distance of a fixed point from its image


@dataclass(frozen=True)
class CuspidalParams:
    """Map parameter delta with the derived quantities recomputed on access."""

    delta: complex

    def __post_init__(self):
        d = complex(self.delta)
        if abs(d) < 1e-12 or abs(d - 1) < 1e-12:
            raise ValueError("delta must avoid 0 and 1")
        object.__setattr__(self, "delta", d)

    @property
    def d(self) -> complex:
        return (1 - self.delta) / (3 * self.delta)

    @property
    def tau(self) -> complex:
        return self.delta + 1 / self.delta


@dataclass(frozen=True)
class CurvePoint:
    """Parameter t of the smooth-locus point [t : t^3 : 1]."""

    t: complex

    def embed(self) -> ProjectivePoint:
        return ProjectivePoint(self.t, self.t ** 3, 1.0)


class QuadMap:
    """Homogeneous components and partials; scalars may be complex or balls."""

    def __init__(self, delta, d=None):
        self.delta = delta
        self.d = d if d is not None else (1 - delta) / (3 * delta)

    def components(self, x, y, z):
        delta, d = self.delta, self.d
        d2 = d * d
        d3 = d2 * d
        d4 = d2 * d2
        d6 = d3 * d3
        fx = delta * (x * y - 2 * d * y * z + 2 * d3 * x * z - d4 * z * z)
        fy = delta * delta * delta * (y * y - 3 * d2 * x * y + 3 * d4 * x * x - d6 * z * z)
        fz = y * z - 3 * d * x * x + 3 * d2 * x * z - d3 * z * z
        return (fx, fy, fz)

    def partials(self, x, y, z):
        delta, d = self.delta, self.d
        d2 = d * d
        d3 = d2 * d
        d4 = d2 * d2
        d6 = d3 * d3
        delta3 = delta * delta * delta
        return (
            (delta * (y + 2 * d3 * z),
             delta * (x - 2 * d * z),
             delta * (-2 * d * y + 2 * d3 * x - 2 * d4 * z)),
            (delta3 * (-3 * d2 * y + 6 * d4 * x),
             delta3 * (2 * y - 3 * d2 * x),
             delta3 * (-2 * d6 * z)),
            (-6 * d * x + 3 * d2 * z,
             z,
             y + 3 * d2 * x - 2 * d3 * z),
        )


def quad_map_eval(params: CuspidalParams, pt: ProjectivePoint) -> ProjectivePoint:
    """Image of pt; raises Indeterminate at the indeterminacy points."""
    comps = QuadMap(params.delta, params.d).components(*pt.coords)
    if max(abs(c) for c in comps) < INDETERMINACY_TOL:
        raise Indeterminate(f"{pt} is an indeterminacy point")
    return ProjectivePoint(*comps)


def curve_restriction(params: CuspidalParams, t: CurvePoint) -> CurvePoint:
    """Restriction to the smooth locus: t -> delta (t + d); total."""
    return CurvePoint(params.delta * (t.t + params.d))


def orbit_polynomial(n: int) -> IntPolynomial:
    """Integer polynomial whose roots close the indeterminacy orbit at step n.

    The closure identity clears to t^(n+2) - 2 t^(n+1) + 2 t - 1, which always
    carries the excluded degenerate parameter t = 1 as a root; that single
    linear factor is divided out exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [-1, 2] + [0] * (n - 1) + [-2, 1]
    cleared = IntPolynomial(tuple(coeffs))
    q = cleared.try_exact_div(IntPolynomial((-1, 1)))
    if q is None:
        raise CheckFailed(f"t - 1 does not divide the orbit polynomial at n={n}")
    return q


def closure_residual(delta: complex, n: int) -> float:
    """|(-delta^(n+1) d + (1 - delta^n)/3) - d| for the orbit-closure identity."""
    d = (1 - delta) / (3 * delta)
    return abs(-delta ** (n + 1) * d + (1 - delta ** n) / 3 - d)


# ---------------------------------------------------------------------------
# fixed points off the cubic
# ---------------------------------------------------------------------------

def _tau_quadratic_roots(tau: ComplexBall) -> tuple[ComplexBall, ComplexBall]:
    """Ball roots of 27 x^2 - 9 (tau-2) x + (tau-1)(tau-2) = 0."""
    t2 = tau - 2
    disc = (81 * t2) * t2 - (108 * (tau - 1)) * t2
    sq = disc.sqrt()
    inv54 = ComplexBall.exact(54).inverse()
    return ((9 * t2 + sq) * inv54, (9 * t2 - sq) * inv54)


def _r_tau(tau: ComplexBall, x: ComplexBall) -> ComplexBall:
    """Ordinate of the fixed point: r_tau(x) = (tau-2)x/(3(tau+1)) - (tau-2)^2/(27(tau+1))."""
    t2 = tau - 2
    inv = (3 * (tau + 1)).inverse()
    return t2 * x * inv - t2 * t2 * inv / 9


def s_value(tau, x) -> ComplexBall:
    """Certified ball for s(tau, x) = (9 (tau-1) x - (tau^2 - 4 tau + 6))^2 / (tau + 2)."""
    tau = ComplexBall.exact(tau)
    x = ComplexBall.exact(x)
    pole = tau + 2
    lo, _ = pole.abs_bounds()
    if lo <= 0.0:
        raise PoleAtTau("tau + 2 vanishes")
    inner = 9 * (tau - 1) * x - (tau * tau - 4 * tau + 6)
    return inner * inner / pole


def fixed_points_cuspidal(params: CuspidalParams) -> list[FixedPointRecord]:
    """The two fixed points off the cubic, with certified derivative data."""
    return _records_for_delta(ComplexBall.exact(params.delta))


def _records_for_delta(delta: ComplexBall,
                       tau: ComplexBall | None = None) -> list[FixedPointRecord]:
    """Fixed-point records for a (possibly ball) parameter value.

    When tau is supplied it must be a certified-real ball for delta + 1/delta
    (sound when |delta| = 1 exactly); otherwise tau is computed as a plain
    ball.  Degenerate tau in {-1, 2} is rejected.  Each record's coordinates
    are verified by one application of the map at delta's center (residual
    below RESIDUAL_TOL in chordal distance, else CheckFailed).
    """
    if tau is None:
        tau = delta + delta.inverse()
    for bad in (-1.0, 2.0):
        if (tau - bad).contains_zero():
            raise DegenerateTau(f"tau ball meets {bad}")
    qm = QuadMap(delta, (1 - delta) * (3 * delta).inverse())
    params = CuspidalParams(delta.center)
    records = []
    for x in _tau_quadratic_roots(tau):
        y = _r_tau(tau, x)
        w = ProjectivePoint(x.center, y.center, 1.0)
        residual = w.distance(quad_map_eval(params, w))
        if residual > RESIDUAL_TOL:
            raise CheckFailed(f"fixed-point residual {residual:.2e} at {w}")
        jac = chart_jacobian(qm, w, chart=2,
                             point_radius=max(x.radius, y.radius))
        rec = record_from_jacobian(Location.GENERIC, w, jac)
        # the closed-form rotation number is the tighter certificate; keep it
        s = s_value(tau, x)
        records.append(FixedPointRecord(rec.location, rec.coords, rec.trace,
                                        rec.det, s, rec.eigenvalues))
    return records


# ---------------------------------------------------------------------------
# certification pipeline for the family
# ---------------------------------------------------------------------------

def abscissa_resultant(salem: IntPolynomial) -> IntPolynomial:
    """Delta-eliminated integer polynomial vanishing at all fixed abscissas.

    Eliminates delta from {salem(delta) = 0, Qnum(delta, x) = 0}, where Qnum
    is the fixed-point quadratic with denominators cleared:

        27 delta^2 x^2 - 9 delta (delta-1)^2 x + (delta^2-delta+1)(delta-1)^2.
    """
    sq = IntPolynomial((0, 0, 27))       # 27 x^2
    lin = IntPolynomial((0, -9))         # -9 x
    # (delta^2-delta+1)(delta-1)^2 = delta^4 - 3 delta^3 + 4 delta^2 - 3 delta + 1
    q_by_power = [
        IntPolynomial((1,)),                       # delta^0
        lin + IntPolynomial((-3,)),                # delta^1
        sq + (-2 * lin) + IntPolynomial((4,)),     # delta^2
        lin + IntPolynomial((-3,)),                # delta^3
        IntPolynomial((1,)),                       # delta^4
    ]
    return resultant(salem, q_by_power).primitive_positive()


def strict_mode_evidence(salem: IntPolynomial) -> StrictEvidence:
    """Mod-p irreducibility evidence for the eliminated abscissa polynomial.

    The raw resultant is a square (delta and 1/delta share the same fixed
    abscissas), so the minimal-polynomial candidate is its squarefree part.
    Irreducibility of that candidate modulo any admissible prime is a
    sufficient condition for irreducibility over Q, the machine-checkable
    stand-in for conjugacy of all (delta, fixed point) pairs; failure at every
    prime is recorded, not fatal.
    """
    return squarefree_evidence(abscissa_resultant(salem))


def certify_cuspidal(n: int, strict: bool = False,
                     workers: int = 1) -> CertificationReport:
    """Full certification run for orbit length n.

    For each unit-circle root delta of the Salem factor: both off-curve fixed
    points, their rotation numbers, and Siegel verdicts with the witness chosen
    among all other unit-circle conjugates (largest certified distance of its
    s-value from [0,4], ties broken by root order).  workers is accepted
    and ignored: every run is single-threaded.
    """
    cert = salem_factor(orbit_polynomial(n))
    evidence = strict_mode_evidence(cert.poly) if strict else None
    # |delta| = 1 certified by the Salem pattern, so tau is exactly real
    records = {delta: _records_for_delta(delta,
                                         (delta + delta.inverse()).realize_real())
               for delta in cert.circle_roots}
    sections = certify_sections(cert, records, evidence)
    spectral = spectral_check(quad_action_matrix(n, n, n), cert)

    return CertificationReport(
        family="cuspidal",
        parameters={"n": n, "strict": strict},
        salem_cert=cert,
        sections=sections,
        matrix_info=spectral.matrix_info,
        strict_evidence=evidence,
        siegel_cap=2,
    )
