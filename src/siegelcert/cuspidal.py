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
    """Homogeneous components and their jet; scalars may be complex or balls.
    The d-powers and their scalar multiples (2d, 3d^2, ...) are formed once
    per map, that is once per root; a jet forms (3d^2) x and (2d^3) x once."""

    def __init__(self, delta):
        self.delta = delta
        self.d = d = (1 - delta) / (3 * delta)
        self.d2 = d2 = d * d
        self.d3 = d3 = d2 * d
        self.d4 = d4 = d2 * d2
        self.d6 = d6 = d3 * d3
        self.delta3 = delta * delta * delta
        self.k2d, self.k3d, self.km2d, self.km6d, self.k3d2, self.km3d2 = (
            2 * d, 3 * d, -2 * d, -6 * d, 3 * d2, -3 * d2)
        self.k2d3, self.k2d4, self.k3d4, self.k6d4, self.km2d6 = (
            2 * d3, 2 * d4, 3 * d4, 6 * d4, -2 * d6)

    def jet(self, x, y, z, cols):
        """The components and their partials in each coordinate of cols."""
        delta, delta3, d3, d4 = self.delta, self.delta3, self.d3, self.d4
        k3d2x, k2d3x = self.k3d2 * x, self.k2d3 * x
        comps = (
            delta * (x * y - self.k2d * y * z + k2d3x * z - d4 * z * z),
            delta3 * (y * y - k3d2x * y + self.k3d4 * x * x - self.d6 * z * z),
            y * z - self.k3d * x * x + k3d2x * z - d3 * z * z)
        columns = []
        for c in cols:
            if c == 0:
                columns.append((delta * (y + self.k2d3 * z),
                                delta3 * (self.km3d2 * y + self.k6d4 * x),
                                self.km6d * x + self.k3d2 * z))
            elif c == 1:
                columns.append((delta * (x - self.k2d * z),
                                delta3 * (2 * y - k3d2x), z))
            else:
                columns.append((delta * (self.km2d * y + k2d3x
                                         - self.k2d4 * z),
                                delta3 * (self.km2d6 * z),
                                y + k3d2x - self.k2d3 * z))
        return comps, columns


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

def _s_of(tau: ComplexBall):
    """x -> s(tau, x) (see s_value), with the tau-only balls formed once:
    the tau + 2 pole check and its inverse, 9 (tau-1) and tau^2 - 4 tau + 6."""
    pole = tau + 2
    lo, _ = pole.abs_bounds()
    if lo <= 0.0:
        raise PoleAtTau("tau + 2 vanishes")
    inv_pole, slope, shift = pole.inverse(), 9 * (tau - 1), tau * tau - 4 * tau + 6

    def s(x):
        inner = slope * x - shift
        return inner * inner * inv_pole
    return s


def s_value(tau, x) -> ComplexBall:
    """Certified ball for s(tau, x) = (9 (tau-1) x - (tau^2 - 4 tau + 6))^2 / (tau + 2)."""
    tau, x = ComplexBall.exact(tau), ComplexBall.exact(x)
    return _s_of(tau)(x)


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
    s_value(tau, x), and the ordinate r_tau(x) = (tau-2) x/(3(tau+1)) -
    (tau-2)^2/(27(tau+1)).  Their tau-only balls (tau - 2, (3(tau+1))^-1,
    (tau-2)^2 (3(tau+1))^-1 / 9 and those of _s_of) are formed once per root.

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
    # the abscissas: the roots of 27 x^2 - 9 (tau-2) x + (tau-1)(tau-2)
    t2 = tau - 2
    sq = ((81 * t2) * t2 - (108 * (tau - 1)) * t2).sqrt()
    inv54, t9 = ComplexBall.exact(54).inverse(), 9 * t2
    xs = ((t9 + sq) * inv54, (t9 - sq) * inv54)
    inv = (3 * (tau + 1)).inverse()
    shift = t2 * t2 * inv / 9
    s_at = _s_of(tau)
    records = []
    for x in xs:
        y = t2 * x * inv - shift
        w = ProjectivePoint(x.center, y.center, 1.0)
        (a, _), (_, d) = chart_jacobian(qm, w, chart=2,
                                        point_radius=max(x.radius, y.radius))
        records.append(record_from_trace(Location.GENERIC, w, a + d, delta,
                                         s_at(x)))
    return records


def _conjugate_records(records: list[FixedPointRecord],
                       delta: ComplexBall) -> list[FixedPointRecord]:
    """The records at delta from _records_for_delta's records at a root
    ball whose conjugate lies inside delta's ball and holds delta's root.

    Lemma: f's coefficients are polynomials in delta with rational
    coefficients, so f_conj(delta) = c o f_delta o c, c complex
    conjugation, and J(conj(delta), conj(w)) = conj J(delta, w).  Both
    fixed points are real: tau is real and the abscissa quadratic's
    discriminant is 27 (4 - tau^2) > 0 on the circle, so conj(w) = w, and
    the fixed point at conj(delta) is the same point with the conjugate
    trace and the same s, s being a function of tau.  So record i keeps
    coords and s, conjugates the trace (the same index i: the abscissas
    depend on tau alone), and takes delta itself as det (the 2-form
    lemma).  CPython's complex arithmetic and ball arithmetic round
    symmetrically under conjugation, so these are the bits
    _records_for_delta gives at the conjugate of the source ball.
    """
    return [record_from_trace(Location.GENERIC, rec.coords,
                              rec.trace.conjugate(), delta, rec.s)
            for rec in records]


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

    Each pair of cert.conjugate_roots runs _records_for_delta once, at the
    member of smaller radius (the earlier in root order on a tie); the
    other member's records are _conjugate_records of those.  By the pairing
    lemma there, the leader's disk conjugated is the concentric disk of the
    smaller radius around the other member's center, and holds its root.
    """
    cert = is_salem(orbit_polynomial(n))
    evidence = strict_mode_evidence(cert.poly) if strict else None
    pairs = cert.conjugate_roots
    records = {}
    for delta in cert.circle_roots:
        if delta in records:
            continue
        partner = pairs.get(delta)
        if partner is None:
            records[delta] = _records_for_delta(delta)
            continue
        lead, other = ((partner, delta) if partner.radius < delta.radius
                       else (delta, partner))
        records[lead] = _records_for_delta(lead)
        records[other] = _conjugate_records(records[lead], other)
    records = {delta: records[delta] for delta in cert.circle_roots}
    return certify_run("cuspidal", {"n": n, "strict": strict}, cert, records,
                       evidence, quad_action_matrix(n, n, n))
