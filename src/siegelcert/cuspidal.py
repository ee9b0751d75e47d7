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
disks, which certify_cuspidal establishes through the conjugate criterion;
certifier.certify_run assembles its report.
"""

from __future__ import annotations

from .balls import ComplexBall
from .certifier import (CertificationReport, FixedPointRecord, Location,
                        StrictEvidence, certify_run, record_from_trace)
from .cohomology import quad_action_matrix
from .errors import DegenerateTau, PoleAtTau
from .geometry import ProjectivePoint, chart_jacobian
from .intpoly import IntPolynomial, resultant
from .salem import is_salem
from .strictmode import squarefree_evidence

class QuadMap:
    """Homogeneous components and partials; scalars may be complex or balls."""

    def __init__(self, delta):
        self.delta = delta
        self.d = d = (1 - delta) / (3 * delta)
        # the powers every record needs, in the association the formulas use
        self.d2 = d2 = d * d
        self.d3 = d3 = d2 * d
        self.d4 = d2 * d2
        self.d6 = d3 * d3
        self.delta3 = delta * delta * delta

    def components(self, x, y, z):
        delta, d, d2, d3, d4 = self.delta, self.d, self.d2, self.d3, self.d4
        fx = delta * (x * y - 2 * d * y * z + 2 * d3 * x * z - d4 * z * z)
        fy = self.delta3 * (y * y - 3 * d2 * x * y + 3 * d4 * x * x - self.d6 * z * z)
        fz = y * z - 3 * d * x * x + 3 * d2 * x * z - d3 * z * z
        return (fx, fy, fz)

    def partials(self, x, y, z):
        delta, d, d2, d3, d4 = self.delta, self.d, self.d2, self.d3, self.d4
        delta3 = self.delta3
        return (
            (delta * (y + 2 * d3 * z),
             delta * (x - 2 * d * z),
             delta * (-2 * d * y + 2 * d3 * x - 2 * d4 * z)),
            (delta3 * (-3 * d2 * y + 6 * d4 * x),
             delta3 * (2 * y - 3 * d2 * x),
             delta3 * (-2 * self.d6 * z)),
            (-6 * d * x + 3 * d2 * z,
             z,
             y + 3 * d2 * x - 2 * d3 * z),
        )


def orbit_polynomial(n: int) -> IntPolynomial:
    """Integer polynomial whose roots close the indeterminacy orbit at step n.

    The closure identity clears to t^(n+2) - 2 t^(n+1) + 2 t - 1, which always
    carries the excluded degenerate parameter t = 1 as a root; the quotient
    by t - 1 is t^(n+1) - t^n - ... - t + 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return IntPolynomial((1,) + (-1,) * n + (1,))


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


def _records_for_delta(delta: ComplexBall) -> list[FixedPointRecord]:
    """The two fixed points off the cubic, with certified derivative data.

    Precondition: delta is a circle root of a certified Salem factor, so
    tau = delta + 1/delta = 2 Re(delta), twice the real part of delta's ball
    (|Re(delta - c)| <= |delta - c|).  Degenerate tau in {-1, 2} is rejected.
    The trace comes from the chart Jacobian, det and s from their lemmas,
    and the eigenvalues are the roots of t^2 - trace t + det.

    2-form lemma: eta = dx dy / (y - x^3) in the chart z = 1 has its poles
    on the cubic, and f*eta = delta eta, since f acts on the cubic by
    t -> delta (t + d).  At a fixed point off the cubic this reads
    det Df = delta, so det is the root ball itself.  s is the closed form
    s_value(tau, x).

    Lemma: at a circle root delta of a certified Salem factor both points
    are fixed (the quadratic and r_tau are the fixed-point equations off the
    cubic) and miss I(f) = {p(d)}, which lies on the cubic.  Eliminating x
    from them and r_tau(x) = x^3 leaves (tau - 2)^3 (tau + 1) (tau + 2)^2
    (tau^2 - 6 tau + 11): tau in {2, -1, -2} makes delta a root of unity,
    and the last factor has no real root, while tau = 2 Re(delta) is real.
    """
    tau = 2 * ComplexBall(complex(delta.center.real, 0.0), delta.radius)
    for bad in (-1.0, 2.0):
        if (tau - bad).contains_zero():
            raise DegenerateTau(f"tau ball meets {bad}")
    qm = QuadMap(delta)
    records = []
    for x in _tau_quadratic_roots(tau):
        y = _r_tau(tau, x)
        w = ProjectivePoint(x.center, y.center, 1.0)
        (a, _), (_, d) = chart_jacobian(qm, w, chart=2,
                                        point_radius=max(x.radius, y.radius))
        records.append(record_from_trace(Location.GENERIC, w, a + d, delta,
                                         s_value(tau, x)))
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
    sq = IntPolynomial((1, -2, 1))                    # (delta-1)^2
    q = [IntPolynomial((1, -1, 1)) * sq,              # x^0
         IntPolynomial((0, -9)) * sq,                 # x^1
         IntPolynomial((0, 0, 27))]                   # x^2
    return resultant(salem, q).primitive_positive()


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
    s-value from [0,4], ties broken by root order).  certifier.certify_run
    assembles them with quad_action_matrix(n, n, n).  Each section holds
    the two records of _records_for_delta.  workers is accepted and
    ignored: every run is single-threaded.
    """
    cert = is_salem(orbit_polynomial(n))
    evidence = strict_mode_evidence(cert.poly) if strict else None
    records = {delta: _records_for_delta(delta) for delta in cert.circle_roots}
    return certify_run("cuspidal", {"n": n, "strict": strict}, cert, records,
                       evidence, quad_action_matrix(n, n, n))
