"""The degree-(N+1) birational family fixing three concurrent lines.

In the affine chart the map is

    f(x, y) = ( y,  g1(y) (x + delta y) / ( delta { (g2(y)-g1(y)) x/y - delta g1(y) } ) )

with g1(y) = prod (1 - y/a_i), g2(y) = prod (1 - y/b_j) and equal list lengths
N.  The apparent x/y singularity is removable: the constant terms of g1 and g2
cancel, so (g2 - g1)/y is a polynomial, and the homogeneous form

    [x:y:z] -> [ y delta (H x - delta G1) : G1 (x + delta y) : z delta (H x - delta G1) ]

with G_i(y,z) the homogenizations and H = (G2 - G1)/y is total away from the
2N+1 indeterminacy points and restricts on z = 0 to the expected projective
action.  The module also carries the orbit conditions that lift the map to a
rational-surface automorphism: parameter formulas a_k, b_k in delta, the
rational constraint chi = 1 whose cleared form yields the Salem polynomial,
fixed points and their derivative data, and the two parameter constructions
(all rotation numbers inside (0,4), respectively all outside [0,4]) that seed
the approximation search.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .balls import ComplexBall, Verdict, ball_in_interval
from .certifier import (FixedPointRecord, Location, _safe_sqrt,
                        record_from_jacobian)
from .errors import (BoundaryUndecidable, BudgetExhausted, CheckFailed,
                     ClusterUnresolved, DegenerateSpectrum, Indeterminate,
                     NonConvergence, NoSalemFactor, OffUnitCircle,
                     PerturbationFailed, PoleAtParameter, PoleHit, PoleInFormula,
                     SearchFailed)
from .geometry import ProjectivePoint, chart_jacobian
from .intpoly import ONE, IntPolynomial, x_pow_minus_one, x_pow_plus_one
from .roots import ComplexPolynomial, poly_roots, self_paired
from .salem import SalemCertificate, salem_factor

INDETERMINACY_TOL = 1e-10
RESIDUAL_TOL = 1e-8  # chordal distance of a fixed point from its image
COLLISION_TOL = 1e-7
K_SEARCH = 64  # orbit lengths 1..K_SEARCH ranked by the density search


@dataclass(frozen=True)
class OrbitData:
    """Orbit lengths: the a-orbits close after 3 m_i - 2 steps, the b-orbits
    after 3 n_j steps.  The single excluded case is (m, n) = ((1,), (1,))."""

    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        m = tuple(int(v) for v in self.m)
        n = tuple(int(v) for v in self.n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        if len(m) != len(n) or not m:
            raise ValueError("m and n must be nonempty lists of equal length")
        if any(v < 1 for v in m + n):
            raise ValueError("orbit data must be positive integers")
        if m == (1,) and n == (1,):
            raise ValueError("orbit data ((1,),(1,)) is excluded")

    @property
    def N(self) -> int:
        return len(self.m)

    @property
    def blowup_count(self) -> int:
        return 3 + sum(3 * mi - 1 for mi in self.m) + sum(3 * nj + 1 for nj in self.n)


@dataclass(frozen=True)
class ThreeLinesParams:
    delta: complex
    a: tuple[complex, ...]
    b: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "delta", complex(self.delta))
        object.__setattr__(self, "a", tuple(complex(v) for v in self.a))
        object.__setattr__(self, "b", tuple(complex(v) for v in self.b))
        if len(self.a) != len(self.b) or not self.a:
            raise ValueError("a and b must be nonempty and of equal length")
        if abs(self.delta) < 1e-300 or any(abs(v) < 1e-300 for v in self.a + self.b):
            raise ValueError("delta, a_i, b_j must be nonzero")

    @property
    def N(self) -> int:
        return len(self.a)

    @property
    def alpha(self) -> complex:
        return sum(1 / v for v in self.a)

    @property
    def beta(self) -> complex:
        return sum(1 / v for v in self.b)

    @property
    def c(self) -> complex:
        return self.beta - self.alpha

    @property
    def alpha0(self) -> complex:
        out = 1 + 0j
        for v in self.a:
            out /= v
        return out

    @property
    def beta0(self) -> complex:
        out = 1 + 0j
        for v in self.b:
            out /= v
        return out

    @property
    def d(self) -> complex:
        return (1 + self.delta) ** 2 / self.delta

    def normalized(self) -> "ThreeLinesParams":
        """Conjugate rescaling making beta - alpha = 1."""
        c = self.c
        if abs(c) < 1e-300:
            raise ValueError("c = beta - alpha vanishes; cannot normalize")
        return ThreeLinesParams(self.delta, tuple(v * c for v in self.a),
                                tuple(v * c for v in self.b))


def _sym_coeffs(invs):
    """Coefficients of prod(z - y w) by y-power; works for complex or balls."""
    c = [1]
    for w in invs:
        nxt = [c[0]]
        nxt += [c[k] - w * c[k - 1] for k in range(1, len(c))]
        nxt.append(-(w * c[-1]))
        c = nxt
    return c


def _eval_homog(coeffs, y, z):
    deg = len(coeffs) - 1
    ypow = [1]
    zpow = [1]
    for _ in range(deg):
        ypow.append(ypow[-1] * y)
        zpow.append(zpow[-1] * z)
    out = coeffs[0] * zpow[deg]
    for k in range(1, deg + 1):
        out = out + coeffs[k] * ypow[k] * zpow[deg - k]
    return out


def _eval_dy(coeffs, y, z):
    dcoeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
    return _eval_homog(dcoeffs, y, z) if dcoeffs else 0

def _eval_dz(coeffs, y, z):
    deg = len(coeffs) - 1
    dcoeffs = [(deg - k) * coeffs[k] for k in range(0, deg)]
    return _eval_homog(dcoeffs, y, z) if dcoeffs else 0


class TLMap:
    """Homogeneous components and partials; scalars may be complex or balls."""

    def __init__(self, delta, inv_a, inv_b):
        self.delta = delta
        self.N = len(inv_a)
        self.g1 = _sym_coeffs(inv_a)
        g2 = _sym_coeffs(inv_b)
        # (G2 - G1)/y: constant y-terms cancel since both products are monic in z
        self.h = [g2[k] - self.g1[k] for k in range(1, self.N + 1)]

    @staticmethod
    def from_params(params: ThreeLinesParams) -> "TLMap":
        return TLMap(params.delta,
                     [1 / v for v in params.a], [1 / v for v in params.b])

    @staticmethod
    def ball_map(delta: ComplexBall, a_balls, b_balls) -> "TLMap":
        return TLMap(delta, [v.inverse() for v in a_balls],
                     [v.inverse() for v in b_balls])

    def components(self, x, y, z):
        delta = self.delta
        g1 = _eval_homog(self.g1, y, z)
        h = _eval_homog(self.h, y, z)
        t = h * x - delta * g1
        return (y * delta * t, g1 * (x + delta * y), z * delta * t)

    def partials(self, x, y, z):
        delta = self.delta
        g1 = _eval_homog(self.g1, y, z)
        g1y = _eval_dy(self.g1, y, z)
        g1z = _eval_dz(self.g1, y, z)
        h = _eval_homog(self.h, y, z)
        hy = _eval_dy(self.h, y, z)
        hz = _eval_dz(self.h, y, z)
        t = h * x - delta * g1
        ty = hy * x - delta * g1y
        tz = hz * x - delta * g1z
        return (
            (y * delta * h, delta * (t + y * ty), y * delta * tz),
            (g1, g1y * (x + delta * y) + delta * g1, g1z * (x + delta * y)),
            (z * delta * h, z * delta * ty, delta * (t + z * tz)),
        )


def tl_map_eval(params: ThreeLinesParams, pt):
    """Image of an affine pair or a ProjectivePoint (same kind returned)."""
    tlm = TLMap.from_params(params)
    if isinstance(pt, ProjectivePoint):
        comps = tlm.components(*pt.coords)
        if max(abs(c) for c in comps) < INDETERMINACY_TOL:
            raise Indeterminate(f"{pt} is an indeterminacy point")
        return ProjectivePoint(*comps)
    x, y = pt
    comps = tlm.components(*ProjectivePoint.affine(x, y).coords)
    if max(abs(c) for c in comps) < INDETERMINACY_TOL:
        raise Indeterminate(f"({x}, {y}) is an indeterminacy point")
    if abs(comps[2]) <= INDETERMINACY_TOL * max(abs(comps[0]), abs(comps[1])):
        raise PoleHit(f"image of ({x}, {y}) lies on the line at infinity")
    return (comps[0] / comps[2], comps[1] / comps[2])


@dataclass(frozen=True)
class IndeterminacySet:
    forward_a: tuple[ProjectivePoint, ...]
    forward_b: tuple[ProjectivePoint, ...]
    forward_0: ProjectivePoint
    backward_a: tuple[ProjectivePoint, ...]
    backward_b: tuple[ProjectivePoint, ...]
    backward_0: ProjectivePoint

    @property
    def forward(self) -> tuple[ProjectivePoint, ...]:
        return self.forward_a + self.forward_b + (self.forward_0,)

    @property
    def backward(self) -> tuple[ProjectivePoint, ...]:
        return self.backward_a + self.backward_b + (self.backward_0,)


def indeterminacy(params: ThreeLinesParams) -> IndeterminacySet:
    d = params.delta
    return IndeterminacySet(
        forward_a=tuple(ProjectivePoint(0, ai, 1) for ai in params.a),
        forward_b=tuple(ProjectivePoint(-bj * d, bj, 1) for bj in params.b),
        forward_0=ProjectivePoint(1, 0, 0),
        backward_a=tuple(ProjectivePoint(ai, 0, 1) for ai in params.a),
        backward_b=tuple(ProjectivePoint(bj, -bj / d, 1) for bj in params.b),
        backward_0=ProjectivePoint(0, 1, 0),
    )


def h_iterate(params: ThreeLinesParams, k: int, x: complex) -> complex:
    """Closed-form Moebius iterate governing the triple-step line dynamics.

    h_k(x) = x / (delta^{3k} + p (1 - delta^{3k}) x), p = delta c / (delta^3 - 1);
    this is 1/(delta^{3k} (1/x - p) + p) continued through x = 0.
    """
    delta = params.delta
    if abs(delta ** 3 - 1) < 1e-12:
        raise PoleInFormula("delta^3 - 1 vanishes")
    p = delta * params.c / (delta ** 3 - 1)
    pw = delta ** (3 * k)
    den = pw + p * (1 - pw) * x
    if abs(den) < 1e-14 * (1 + abs(pw)):
        raise PoleHit(f"Moebius denominator vanishes at x={x}")
    return x / den


# ---------------------------------------------------------------------------
# parameter formulas in delta and the chi constraint
# ---------------------------------------------------------------------------

def a_value(delta, k: int):
    """a_k(delta) = -(delta^3-1)(delta^{3k-1}+1) / (delta (delta^{3k}-1))."""
    return -((delta ** 3 - 1) * (delta ** (3 * k - 1) + 1)) / (delta * (delta ** (3 * k) - 1))


def b_value(delta, k: int):
    """b_k(delta) = (delta^3-1)(delta^{3k+1}+1) / (delta^2 (delta^{3k}-1))."""
    return ((delta ** 3 - 1) * (delta ** (3 * k + 1) + 1)) / (delta * delta * (delta ** (3 * k) - 1))


def _check_poles(delta: complex, orbit: OrbitData, tol: float = 1e-9):
    if abs(delta ** 3 - 1) < tol:
        raise PoleInFormula("delta^3 - 1")
    for mi in orbit.m:
        if abs(delta ** (3 * mi) - 1) < tol:
            raise PoleInFormula(f"delta^(3*{mi}) - 1")
        if abs(delta ** (3 * mi - 1) + 1) < tol:
            raise PoleInFormula(f"delta^(3*{mi}-1) + 1")
    for nj in orbit.n:
        if abs(delta ** (3 * nj) - 1) < tol:
            raise PoleInFormula(f"delta^(3*{nj}) - 1")
        if abs(delta ** (3 * nj + 1) + 1) < tol:
            raise PoleInFormula(f"delta^(3*{nj}+1) + 1")


def ab_from_delta(delta: complex, orbit: OrbitData) -> ThreeLinesParams:
    """Parameters realizing the orbit conditions at delta; normalizes c to 1
    when delta satisfies the chi constraint."""
    _check_poles(delta, orbit)
    return ThreeLinesParams(
        delta,
        tuple(a_value(delta, mi) for mi in orbit.m),
        tuple(b_value(delta, nj) for nj in orbit.n),
    )


def chi(delta, orbit: OrbitData) -> ComplexBall:
    """Certified value of the rational orbit constraint (equals 1 at lift
    parameters)."""
    if not isinstance(delta, ComplexBall):
        _check_poles(complex(delta), orbit)
        delta = ComplexBall.exact(delta)
    d3 = delta ** 3 - 1
    total = ComplexBall.exact(0)
    for nj in orbit.n:
        total = total + (delta * delta * (delta ** (3 * nj) - 1)) / \
            (d3 * (delta ** (3 * nj + 1) + 1))
    for mi in orbit.m:
        total = total + (delta * (delta ** (3 * mi) - 1)) / \
            (d3 * (delta ** (3 * mi - 1) + 1))
    return total


def cleared_chi_polynomial(orbit: OrbitData) -> IntPolynomial:
    """Integer polynomial obtained by clearing denominators of chi = 1."""
    a_dens = [x_pow_plus_one(3 * mi - 1) for mi in orbit.m]
    b_dens = [x_pow_plus_one(3 * nj + 1) for nj in orbit.n]

    def prod(polys):
        return math.prod(polys, start=ONE)

    total = IntPolynomial(())
    for j, nj in enumerate(orbit.n):
        num = x_pow_minus_one(3 * nj).scale_pow(2)  # t^2 (t^{3n_j} - 1)
        total = total + num * prod(a_dens) * prod(b_dens[:j] + b_dens[j + 1:])
    for i, mi in enumerate(orbit.m):
        num = x_pow_minus_one(3 * mi).scale_pow(1)  # t (t^{3m_i} - 1)
        total = total + num * prod(a_dens[:i] + a_dens[i + 1:]) * prod(b_dens)
    total = total - x_pow_minus_one(3) * prod(a_dens) * prod(b_dens)
    return total.primitive_positive()


def salem_from_orbit(orbit: OrbitData) -> SalemCertificate:
    """Salem certificate for the non-cyclotomic factor of the cleared chi
    constraint; the factor itself is cert.poly."""
    return salem_factor(cleared_chi_polynomial(orbit))


def lambda_by_bisection(orbit: OrbitData, lo: float = 1.0 + 1e-9,
                        hi: float = 64.0, iters: int = 200) -> float:
    """Root of chi = 1 on (1, inf) by bisection; independent spectral oracle."""
    def val(t: float) -> float:
        return chi(complex(t), orbit).center.real - 1.0

    flo = val(lo)
    while val(hi) > 0:
        hi *= 2
        if hi > 2 ** 40:
            raise SearchFailed("chi - 1 has no sign change on (1, inf)")
    if flo < 0:
        # move lo just above the pole region near 1
        while flo < 0:
            lo = 1 + (lo - 1) * 2
            flo = val(lo)
            if lo > hi:
                raise SearchFailed("no bracketing interval for chi = 1")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if val(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# orbit verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitCheck:
    label: str
    steps: int
    residual: float
    collision_step: int | None = None

    @property
    def ok(self) -> bool:
        return self.collision_step is None and self.residual < 1e-8


@dataclass(frozen=True)
class OrbitReport:
    checks: tuple[OrbitCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.checks)

    @property
    def collisions(self) -> tuple[OrbitCheck, ...]:
        return tuple(c for c in self.checks if c.collision_step is not None)


def orbit_verify(params: ThreeLinesParams, orbit: OrbitData) -> OrbitReport:
    """Direct iteration check of every orbit condition.

    Each backward indeterminacy point must reach its forward partner in the
    scheduled number of steps without meeting I(f) earlier; early hits are
    reported as collisions (non-generic parameters), not raised.
    """
    ind = indeterminacy(params)
    fwd = ind.forward
    plan = [("p0", ind.backward_0, 2, ind.forward_0)]
    for i, mi in enumerate(orbit.m):
        plan.append((f"a{i + 1}", ind.backward_a[i], 3 * mi - 2, ind.forward_a[i]))
    for j, nj in enumerate(orbit.n):
        plan.append((f"b{j + 1}", ind.backward_b[j], 3 * nj, ind.forward_b[j]))

    checks = []
    for label, start, steps, target in plan:
        pt = start
        collision = None
        for k in range(steps):
            if any(pt.distance(q) < COLLISION_TOL for q in fwd):
                collision = k
                break
            try:
                pt = tl_map_eval(params, pt)
            except Indeterminate:
                collision = k
                break
        residual = pt.distance(target) if collision is None else math.inf
        checks.append(OrbitCheck(label, steps, residual, collision))
    return OrbitReport(tuple(checks))


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def _abscissa_roots(d: ComplexBall, ab, bb) -> tuple[list[ComplexBall], set[int]]:
    """Roots of the degree-N abscissa polynomial sum_k (d ga_k - gb_k) x^k,
    sorted by rounded center, and the indices of the certified-real ones:
    the disks self-paired under z -> conj(z) (roots.self_paired).

    ga, gb are the symmetric coefficients of the inverse parameters.  The
    real indices mean something only when d and the parameters are exactly
    real; callers gate on that.
    """
    ga = _sym_coeffs([v.inverse() for v in ab])
    gb = _sym_coeffs([v.inverse() for v in bb])
    coeffs = [d * ga[k] - gb[k] for k in range(len(ga))]
    centers = tuple(c.center for c in coeffs)
    radii = tuple(c.radius for c in coeffs)
    if abs(centers[-1]) <= radii[-1]:
        raise DegenerateSpectrum("leading coefficient of the abscissa polynomial "
                                 "is not certified nonzero")
    roots = poly_roots(ComplexPolynomial(centers), coeff_radii=radii)
    if not roots.is_simple:
        raise DegenerateSpectrum("abscissa polynomial has clustered roots")
    xs = sorted(roots.balls, key=lambda bl: (round(bl.center.real, 10),
                                             round(bl.center.imag, 10)))
    return xs, self_paired(xs, ComplexBall.conjugate)


def _realized_record(rec: FixedPointRecord) -> FixedPointRecord:
    """Record with the rotation number realized to an exactly real ball.

    Only called where reality of the true s is certified (see call sites)."""
    return FixedPointRecord(rec.location, rec.coords, rec.trace, rec.det,
                            rec.s.realize_real(), rec.eigenvalues)


def param_balls(root: ComplexBall, orbit: OrbitData):
    """(delta, a_balls, b_balls) at a certified unit-circle root: the balls
    argument of fixed_points_tl.

    |delta| = 1 exactly makes every a_k(delta), b_k(delta) real (they reduce
    to real trigonometric expressions), so the parameter balls are realized."""
    return (root, [a_value(root, mi).realize_real() for mi in orbit.m],
            [b_value(root, nj).realize_real() for nj in orbit.n])


def fixed_points_tl(params: ThreeLinesParams,
                    balls=None) -> list[FixedPointRecord]:
    """All N+3 isolated fixed points with certified derivative data.

    Order: the singular point of the line triple, the N affine diagonal
    points (sorted by abscissa), then the two points on the line at infinity.
    Without balls the plain parameter values are treated as exact.

    balls is param_balls(root, orbit) at a certified unit-circle root
    (|delta| = 1 exactly, real parameters).  Every record is then certified
    relative to those enclosures, and the rotation numbers that are provably
    real get exactly real ball centers: at affine points whose abscissa is
    certified real by conjugate pairing, and at the infinity points when
    beta0/alpha0 is certified inside [0, 4].  As a soundness guard nothing is
    realized when a parameter ball has a non-real center.  The singular point
    (s = 1 identically) is realized in every case.
    """
    if balls is None:
        db = ComplexBall.exact(params.delta)
        ab = [ComplexBall.exact(v) for v in params.a]
        bb = [ComplexBall.exact(v) for v in params.b]
        realize = False
    else:
        db, ab, bb = balls
        realize = all(b.center.imag == 0.0 for b in [*ab, *bb])
    tlm_ball = TLMap.ball_map(db, ab, bb)

    w0 = record_from_jacobian(
        Location.CURVE_SINGULAR, ProjectivePoint(0, 0, 1),
        chart_jacobian(tlm_ball, ProjectivePoint(0, 0, 1), chart=2))
    # Tr^2/Det at the singular point is identically 1 (eigenvalue pair
    # (w/delta, 1/(w delta)) with w a primitive cube root of unity)
    records = [_realized_record(w0)]

    # affine diagonal points: roots of the degree-N abscissa polynomial
    d_ball = (1 + db) * (1 + db) / db
    if realize:
        d_ball = d_ball.realize_real()  # (1+delta)^2/delta real for |delta| = 1
    xs, real_idx = _abscissa_roots(d_ball, ab, bb)
    if not realize:
        real_idx = set()  # complex coefficients: conjugate pairing proves nothing
    for i, x in enumerate(xs):
        w = ProjectivePoint(x.center, x.center, 1)
        jac = chart_jacobian(tlm_ball, w, chart=2, point_radius=x.radius)
        rec = record_from_jacobian(Location.AFFINE_DIAGONAL, w, jac)
        if i in real_idx:
            # real parameters, real d, certified-real abscissa: s is real
            rec = _realized_record(rec)
        records.append(rec)

    # infinity points: alpha0 x^2 + delta (2 alpha0 - beta0) x + alpha0 delta^2
    ratio = _parameter_ratio(ab, bb)
    half = ComplexBall.exact(0.5)
    ratio_in = realize and \
        ball_in_interval(ratio, 0.0, 4.0) is Verdict.CERTIFIED_IN
    for num in _infinity_numerators(ratio):
        x = db * num * half
        w = ProjectivePoint(x.center, 1, 0)
        jac = chart_jacobian(tlm_ball, w, point_radius=x.radius)
        rec = record_from_jacobian(Location.INFINITY, w, jac)
        if ratio_in:
            # real ratio in [0,4] puts the in-line eigenvalue t on the unit
            # circle, so s = 2 + 2 Re(delta t^2) is real for |delta| = 1
            rec = _realized_record(rec)
        records.append(rec)

    for rec in records:
        img_comps = TLMap.from_params(params).components(*rec.coords.coords)
        if max(abs(c) for c in img_comps) < INDETERMINACY_TOL:
            raise CheckFailed(f"fixed point {rec.coords} hits indeterminacy")
        resid = rec.coords.distance(ProjectivePoint(*img_comps))
        if resid > RESIDUAL_TOL:
            raise CheckFailed(
                f"fixed-point residual {resid:.2e} at {rec.coords}")
    return records


def trace_affine(params: ThreeLinesParams, x_l) -> ComplexBall:
    """Certified trace at the diagonal fixed point (x_l, x_l):

        (delta + 1) { 1 - sum 1/(1 - x_l/a_i) + sum 1/(1 - x_l/b_j) }.
    """
    x = ComplexBall.exact(x_l)
    for v in params.a + params.b:
        if (x - v).contains_zero():
            raise PoleAtParameter(f"x_l meets parameter {v}")
    total = ComplexBall.exact(1)
    for v in params.a:
        total = total - (1 - x / v).inverse()
    for v in params.b:
        total = total + (1 - x / v).inverse()
    return (ComplexBall.exact(params.delta) + 1) * total


def _parameter_ratio(ab, bb) -> ComplexBall:
    """beta0/alpha0 = prod a_i/b_i over the parameter balls."""
    ratio = ComplexBall.exact(1)
    for va, vb in zip(ab, bb):
        ratio = ratio * va / vb
    return ratio


def _infinity_numerators(ratio: ComplexBall) -> list[ComplexBall]:
    """ratio - 2 +- sqrt((ratio - 2)^2 - 4): twice the two roots t of
    t^2 + (2 - ratio) t + 1 = 0, the in-line eigenvalue at infinity."""
    disc = (ratio - 2) * (ratio - 2) - 4
    sq = _safe_sqrt(disc)
    return [ratio - 2 + sign * sq for sign in (1, -1)]


def infinity_eigen_data(delta, ratio: ComplexBall):
    """Rotation numbers at both infinity fixed points from the eigenvalue route.

    The in-line eigenvalue t solves t^2 + (2 - ratio) t + 1 = 0 and the full
    eigenvalue pair is (delta t, 1/t), so s = 2 + delta t^2 + 1/(delta t^2).
    |delta| = 1 is a hypothesis of this route: when the real ratio is
    certified inside [0,4], t lies on the unit circle exactly and
    s = 2 + 2 Re(delta t^2) is real; those balls get real centers.
    """
    db = ComplexBall.exact(delta)
    half = ComplexBall.exact(0.5)
    realize = ball_in_interval(ratio, 0.0, 4.0) is Verdict.CERTIFIED_IN
    out = []
    for num in _infinity_numerators(ratio):
        tt = num * half
        w = db * tt * tt
        s = 2 + w + w.inverse()
        out.append(s.realize_real() if realize else s)
    return tuple(out)


def infinity_criterion(params: ThreeLinesParams) -> Verdict:
    """Rotation verdict at the two infinity fixed points via beta0/alpha0.

    Requires |delta| = 1; the membership beta0/alpha0 in [0,4] is equivalent
    to both rotation numbers lying in [0,4] there.  The eigenvalue route is
    evaluated as a cross-check and a contradiction raises (it would mean a
    broken equivalence, not a data issue).
    """
    if abs(abs(params.delta) - 1) > 1e-9:
        raise OffUnitCircle(f"|delta| = {abs(params.delta)}")
    ratio = _parameter_ratio([ComplexBall.exact(v) for v in params.a],
                             [ComplexBall.exact(v) for v in params.b])
    if all(v.imag == 0.0 for v in params.a + params.b):
        ratio = ratio.realize_real()  # product of reals
    verdict = ball_in_interval(ratio, 0.0, 4.0)
    eigen = [ball_in_interval(s, 0.0, 4.0)
             for s in infinity_eigen_data(params.delta, ratio)]
    for ev in eigen:
        if {verdict, ev} == {Verdict.CERTIFIED_IN, Verdict.CERTIFIED_OUT}:
            raise CheckFailed(
                f"infinity criterion contradiction: ratio {verdict} vs eigen {ev}")
    if verdict is Verdict.UNKNOWN and eigen[0] is eigen[1] != Verdict.UNKNOWN:
        return eigen[0]
    return verdict


# ---------------------------------------------------------------------------
# parameter constructions
# ---------------------------------------------------------------------------

def _delta_on_circle(d: float) -> complex:
    """The |delta| = 1 solution of (1+delta)^2/delta = d with Im(delta) > 0."""
    if not 0.0 < d < 4.0:
        raise ValueError("d must lie in (0, 4)")
    return complex((d - 2.0) / 2.0, math.sqrt(d * (4.0 - d)) / 2.0)


def construct_c0(N: int, d_target: float = 0.99) -> ThreeLinesParams:
    """Real interleaved parameters with every rotation number inside (0, 4).

    Seeds a_i = i and places the diagonal fixed abscissas at the midpoints
    (a_{i-1} + a_i)/2 by interpolating the b-side product through them; the
    sufficient bounds |1/(1-x_l/b_i) - 1/(1-x_l/a_i)| < 1/N and
    1 < a_i/b_i < 2^(1/N) are then checked, the rotation numbers are verified
    a posteriori, and the result is rescaled so beta - alpha = 1.
    """
    if not 0.0 < d_target < 1.0:
        raise ValueError("d_target must lie in (0, 1)")
    if N < 1:
        raise ValueError("N must be >= 1")
    a = [float(i) for i in range(1, N + 1)]
    xs = [i - 0.5 for i in range(1, N + 1)]
    d = d_target

    def g(x: float) -> float:
        out = d
        for ai in a:
            out *= 1 - x / ai
        return out

    # interpolate h with h(0) = 1, h(x_l) = g(x_l); its roots are the b_i
    nodes = [0.0] + xs
    values = [1.0] + [g(x) for x in xs]
    coeffs = _lagrange_coeffs(nodes, values)
    roots = poly_roots(ComplexPolynomial(tuple(coeffs)), require_simple=True)
    b = sorted(r.center.real for r in roots.balls)
    if any(abs(r.center.imag) > 1e-9 for r in roots.balls):
        raise SearchFailed("interpolated b-polynomial has non-real roots")
    for i, bi in enumerate(b):
        lo = a[i - 1] if i else 0.0
        if not lo < bi < a[i]:
            raise SearchFailed(f"interleaving failed: b_{i + 1} = {bi:.6f} "
                               f"not in ({lo}, {a[i]})")
    for i, (ai, bi) in enumerate(zip(a, b)):
        r = ai / bi
        if not 1.0 < r < 2.0 ** (1.0 / N):
            raise SearchFailed(f"ratio bound failed: a_{i + 1}/b_{i + 1} = {r:.6f}")
        for x in xs:
            gap = abs(1 / (1 - x / bi) - 1 / (1 - x / ai))
            if gap >= 1.0 / N:
                raise SearchFailed(
                    f"correction bound failed: |...| = {gap:.4f} at x = {x}")
    # rotation numbers are invariant under the c = 1 rescaling, so the design
    # check runs on the raw real values
    _require_pattern(a, b, d, inside=True, what="construct_c0")
    return ThreeLinesParams(_delta_on_circle(d), tuple(a), tuple(b)).normalized()


def _lagrange_coeffs(nodes: list[float], values: list[float]) -> list[float]:
    n = len(nodes)
    coeffs = [0.0] * n
    for i in range(n):
        basis = [1.0]
        denom = 1.0
        for j in range(n):
            if j == i:
                continue
            # multiply basis by (x - nodes[j])
            nxt = [0.0] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k + 1] += c
                nxt[k] -= c * nodes[j]
            basis = nxt
            denom *= nodes[i] - nodes[j]
        w = values[i] / denom
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    return coeffs


def design_rotation_numbers(a, b, d: float) -> tuple[list[ComplexBall], ComplexBall]:
    """Rotation-number balls for a real design (a, b, d), plus beta0/alpha0.

    Everything runs through exactly real ball chains: the affine values use
    the closed trace formula d (1 + sum(1/(1-x/b_i) - 1/(1-x/a_i)))^2 at
    abscissas whose reality is certified by conjugate pairing; the infinity
    pair is represented by beta0/alpha0, whose membership in [0,4] is
    equivalent to both infinity rotation numbers lying there when the design
    puts delta on the unit circle (that is what d in (0,4) encodes).
    """
    da = ComplexBall.exact(float(d))
    ab = [ComplexBall.exact(complex(v)) for v in a]
    bb = [ComplexBall.exact(complex(v)) for v in b]
    xs, real_idx = _abscissa_roots(da, ab, bb)
    svals = []
    for i, x in enumerate(xs):
        if i in real_idx:
            x = x.realize_real()
        corr = ComplexBall.exact(1)
        for va, vb in zip(ab, bb):
            corr = corr + (1 - x / vb).inverse() - (1 - x / va).inverse()
        svals.append(da * corr * corr)
    return svals, _parameter_ratio(ab, bb).realize_real()


def _require_pattern(a, b, d: float, inside: bool, what: str):
    """Validate that all N+2 non-singular rotation numbers are In (or Out)."""
    svals, ratio = design_rotation_numbers(a, b, d)
    want = Verdict.CERTIFIED_IN if inside else Verdict.CERTIFIED_OUT
    err = SearchFailed if inside else PerturbationFailed
    for s in svals:
        v = ball_in_interval(s, 0.0, 4.0)
        if v is not want:
            raise err(f"{what}: affine rotation number {s.center:.4f} "
                      f"is {v.value}, wanted {want.value}")
    v = ball_in_interval(ratio, 0.0, 4.0)
    if v is not want:
        raise err(f"{what}: beta0/alpha0 = {ratio.center.real:.4f} "
                  f"is {v.value}, wanted {want.value}")


def construct_cstar(N: int) -> ThreeLinesParams:
    """Real parameters with every rotation number outside [0, 4].

    Equal-parameter seed b0 = 1, a0 = 4^(1/N), d = 1/16, then a deterministic
    spread to pairwise-distinct values that pushes prod(a_i/b_i) above 4 while
    keeping the diagonal rotation numbers outside; the spread size walks down
    a ladder until every verdict is CertifiedOut.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    a0 = 4.0 ** (1.0 / N)
    d = 1.0 / 16.0
    delta = _delta_on_circle(d)
    last_err: Exception | None = None
    for eps in (0.08, 0.06, 0.04, 0.03, 0.02, 0.012, 0.008, 0.005, 0.003, 0.002):
        a = tuple(a0 * (1 + eps * i) for i in range(1, N + 1))
        b = tuple(1.0 * (1 - eps * (N + 1 - i)) for i in range(1, N + 1))
        try:
            _require_pattern(a, b, d, inside=False, what="construct_cstar")
            return ThreeLinesParams(delta, a, b).normalized()
        except (PerturbationFailed, DegenerateSpectrum) as exc:
            last_err = exc
    raise PerturbationFailed(f"no spread size worked for N={N}: {last_err}")


# ---------------------------------------------------------------------------
# the approximation search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxResult:
    orbit: OrbitData
    delta0: ComplexBall
    delta_star: ComplexBall
    params0: ThreeLinesParams
    params_star: ThreeLinesParams
    salem_cert: SalemCertificate


def _mult_independent(d0: complex, dstar: complex, bound: int = 12,
                      tol: float = 1e-9) -> bool:
    for k in range(-bound, bound + 1):
        for el in range(-bound, bound + 1):
            if (k, el) == (0, 0):
                continue
            if abs(d0 ** k * dstar ** el - 1) < tol:
                return False
    return True


def _joint_pick(formula, targets0, targets_star, d0, dstar,
                used: set[int], rank: int = 0,
                window: float = math.inf) -> list[int]:
    """Greedy density choice for each target pair.

    Indices whose joint approximation error stays below `window` are ranked by
    size (small orbits keep the blowup count low); if none qualify the ranking
    falls back to the raw error.  rank > 0 walks down the ladder
    deterministically."""
    picks = []
    for t0, ts in zip(targets0, targets_star):
        inside = []
        scored = []
        for k in range(1, K_SEARCH + 1):
            if k in used:
                continue
            try:
                v0 = formula(d0, k)
                vs = formula(dstar, k)
            except ZeroDivisionError:
                continue
            err = max(abs(v0 - t0), abs(vs - ts))
            scored.append((err, k))
            if err < window:
                inside.append(k)
        if not scored:
            raise SearchFailed("no admissible index left in the density search")
        if inside:
            pick = inside[min(rank, len(inside) - 1)]
        else:
            scored.sort()
            pick = scored[min(rank, len(scored) - 1)][1]
        used.add(pick)
        picks.append(pick)
    return picks


def approx_parameters(c0: ThreeLinesParams, cstar: ThreeLinesParams, eps: float,
                      *, mN_cap: int, accept=None,
                      n_rank: int = 0) -> ApproxResult:
    """Orbit data and two unit-circle Salem roots approximating both targets.

    n_1..n_N and m_1..m_{N-1} are fixed by the joint density argument at the
    two target determinants; m_N then sweeps upward.  A candidate passes when
    both roots and all parameter coordinates land within eps of their targets
    (the last a-coordinate closes automatically through the chi identity but
    is checked all the same).  `accept`, when given, may reject a candidate
    (the caller's certification gate) and the sweep continues; n_rank > 0
    shifts the density choice to later-ranked indices.  Raises BudgetExhausted
    when m_N exceeds its cap.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    N = c0.N
    if cstar.N != N:
        raise ValueError("target families have different N")
    d0, dstar = c0.delta, cstar.delta
    if not _mult_independent(d0, dstar):
        raise SearchFailed("target determinants are multiplicatively dependent")

    window = 0.9 * eps
    used: set[int] = set()
    n_pick = _joint_pick(b_value, c0.b, cstar.b, d0, dstar, used,
                         rank=n_rank, window=window)
    used_m: set[int] = set()
    m_head = _joint_pick(a_value, c0.a[:-1], cstar.a[:-1], d0, dstar,
                         used_m, rank=n_rank, window=window) if N > 1 else []

    for mN in range(1, mN_cap + 1):
        if mN in used_m:
            continue
        m = tuple(m_head + [mN])
        n = tuple(n_pick)
        if m == (1,) and n == (1,):
            continue
        orbit = OrbitData(m, n)
        try:
            cert = salem_from_orbit(orbit)
        except (NoSalemFactor, BoundaryUndecidable, ClusterUnresolved,
                NonConvergence):
            # non-generic orbit data (e.g. a reducible non-cyclotomic part);
            # not a lift candidate, keep sweeping
            continue
        near0 = _roots_within(cert.circle_roots, d0, eps)
        near_star = _roots_within(cert.circle_roots, dstar, eps)
        for cand0 in near0:
            try:
                p0 = ab_from_delta(cand0.center, orbit)
            except PoleInFormula:
                continue
            if not (_within(p0.a, c0.a, eps) and _within(p0.b, c0.b, eps)):
                continue
            for cand_star in near_star:
                if cand0.center == cand_star.center:
                    continue
                try:
                    ps = ab_from_delta(cand_star.center, orbit)
                except PoleInFormula:
                    continue
                if not (_within(ps.a, cstar.a, eps) and _within(ps.b, cstar.b, eps)):
                    continue
                result = ApproxResult(orbit, cand0, cand_star, p0, ps, cert)
                if accept is None or accept(result):
                    return result
    raise BudgetExhausted(f"m_N sweep exceeded {mN_cap} without hitting both "
                          f"targets at eps={eps}")


def _roots_within(circle_roots, target: complex, eps: float, cap: int = 12):
    """Circle roots within eps of the target, nearest first, at most cap."""
    ranked = sorted(circle_roots, key=lambda r: abs(r.center - target))
    out = [r for r in ranked if abs(r.center - target) < eps]
    return out[:cap]


def _within(values, targets, eps: float) -> bool:
    return all(abs(v - t) < eps for v, t in zip(values, targets))


def equidistribution_stat(orbit: OrbitData, bins: int = 12) -> float:
    """Per-root chi-square of the circle-root angle histogram vs uniform.

    Diagnostic for the asymptotic equidistribution of the non-dominant roots;
    decreases as the orbit lengths grow.
    """
    cert = salem_from_orbit(orbit)
    angles = [cmath.phase(r.center) % (2 * math.pi) for r in cert.circle_roots]
    counts = [0] * bins
    for t in angles:
        counts[min(int(t / (2 * math.pi) * bins), bins - 1)] += 1
    expected = len(angles) / bins
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    return chi2 / len(angles)
