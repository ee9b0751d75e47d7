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

import collections
import functools
import math
import operator
from dataclasses import dataclass, replace

from .balls import ComplexBall, Verdict, _power, ball_in_interval
from .certifier import (_HALF, FixedPointRecord, Location, _safe_sqrt,
                        record_from_jacobian)
from .errors import (BoundaryUndecidable, BudgetExhausted, DegenerateSpectrum,
                     NonConvergence, NoSalemFactor, PerturbationFailed,
                     SearchFailed, SiegelcertError)
from .geometry import (ProjectivePoint, chart_jacobian, chordal_distance,
                       divide_by_pivot, norm)
from .intpoly import ONE, IntPolynomial, x_pow_minus_one, x_pow_plus_one
from .roots import ComplexPolynomial, poly_roots
from .salem import SalemCertificate, is_salem

INDETERMINACY_TOL = 1e-10
COLLISION_TOL = 1e-7
ORBIT_RESIDUAL_TOL = 1e-8  # an orbit check passes below this chordal residual
NONZERO_TOL = 1e-300  # |delta|, |a_i|, |b_j| and |beta - alpha| must reach it
K_SEARCH = 64  # orbit lengths 1..K_SEARCH ranked by the density search
DENSITY_RANKS = 4  # density ranks the search walks before it gives up
DEFAULT_EPS = 1.6  # search radius around both targets, roots and parameters
DEFAULT_MN_CAP = 18  # the m_N sweep stops after this orbit length
D0_TARGET = 0.96  # first design determinant construct_c0 tries


@dataclass(frozen=True)
class OrbitData:
    """Orbit lengths: the a-orbits close after 3 m_i - 2 steps, the b-orbits
    after 3 n_j steps.  The single excluded case is (m, n) = ((1,), (1,))."""

    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        try:
            m = tuple(map(operator.index, self.m))
            n = tuple(map(operator.index, self.n))
        except TypeError:
            raise ValueError("orbit data must be integers, got "
                             f"m={self.m!r}, n={self.n!r}") from None
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
        if abs(self.delta) < NONZERO_TOL or any(
                abs(v) < NONZERO_TOL for v in self.a + self.b):
            raise ValueError("delta, a_i, b_j must be nonzero")

    @property
    def N(self) -> int:
        return len(self.a)

    @property
    def c(self) -> complex:
        """beta - alpha, with alpha = sum 1/a_i and beta = sum 1/b_j."""
        return sum(1 / v for v in self.b) - sum(1 / v for v in self.a)

    def normalized(self) -> "ThreeLinesParams":
        """Conjugate rescaling making beta - alpha = 1."""
        c = self.c
        if abs(c) < NONZERO_TOL:
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


def _eval_homog(coeffs, ypow, zpow):
    """The homogeneous form sum_k coeffs[k] y^k z^(deg-k) from power tables;
    the empty list is the zero form."""
    if not coeffs:
        return 0
    deg = len(coeffs) - 1
    out = coeffs[0] * zpow[deg]
    for k in range(1, deg + 1):
        out = out + coeffs[k] * ypow[k] * zpow[deg - k]
    return out


def _dy_coeffs(coeffs):
    return [k * coeffs[k] for k in range(1, len(coeffs))]


def _dz_coeffs(coeffs):
    deg = len(coeffs) - 1
    return [(deg - k) * coeffs[k] for k in range(0, deg)]


def _vanishes(comps) -> bool:
    """The image components all lie below INDETERMINACY_TOL: the point is
    taken for an indeterminacy point."""
    return max(map(abs, comps)) < INDETERMINACY_TOL


class TLMap:
    """The homogeneous map through one evaluator, jet: orbit_verify takes its
    components, chart_jacobian its columns too; scalars may be complex or
    balls."""

    def __init__(self, delta, inv_a, inv_b):
        self.delta = delta
        self.N = len(inv_a)
        self.g1 = _sym_coeffs(inv_a)
        self.g2 = _sym_coeffs(inv_b)
        # (G2 - G1)/y: constant y-terms cancel since both products are monic in z
        self.h = [self.g2[k] - self.g1[k] for k in range(1, self.N + 1)]
        # derivative forms; an empty list (h when N = 1) is the zero form
        self.g1y, self.g1z = _dy_coeffs(self.g1), _dz_coeffs(self.g1)
        self.hy, self.hz = _dy_coeffs(self.h), _dz_coeffs(self.h)

    @staticmethod
    def from_params(params: ThreeLinesParams) -> "TLMap":
        return TLMap(params.delta,
                     [1 / v for v in params.a], [1 / v for v in params.b])

    @staticmethod
    def ball_map(delta: ComplexBall, a_balls, b_balls) -> "TLMap":
        return TLMap(delta, [v.inverse() for v in a_balls],
                     [v.inverse() for v in b_balls])

    def jet(self, x, y, z, cols):
        """The components and their partials in each coordinate of cols; the
        derivative forms of a coordinate are evaluated only for its column.

        The power tables [1, y, y^2, ...] and [1, z, z^2, ...] are built by
        repeated multiplication from the int 1 (for balls, 1 * y pads y's
        radius), and G1 and H are summed in one pass over them in
        _eval_homog's order."""
        delta, n = self.delta, self.N
        g1c, hc = self.g1, self.h
        ypow, zpow = [1], [1]
        for _ in range(n):
            ypow.append(ypow[-1] * y)
            zpow.append(zpow[-1] * z)
        g1 = g1c[0] * zpow[n]
        h = hc[0] * zpow[n - 1]
        for k in range(1, n):
            g1 = g1 + g1c[k] * ypow[k] * zpow[n - k]
            h = h + hc[k] * ypow[k] * zpow[n - 1 - k]
        g1 = g1 + g1c[n] * ypow[n] * zpow[0]
        dg1 = delta * g1
        t = h * x - dg1
        yd, zd = y * delta, z * delta
        xdy = x + delta * y
        columns = []
        for c in cols:
            if c == 0:
                columns.append((yd * h, g1, zd * h))
            elif c == 1:
                g1y = _eval_homog(self.g1y, ypow, zpow)
                ty = _eval_homog(self.hy, ypow, zpow) * x - delta * g1y
                columns.append((delta * (t + y * ty), g1y * xdy + dg1, zd * ty))
            else:
                g1z = _eval_homog(self.g1z, ypow, zpow)
                tz = _eval_homog(self.hz, ypow, zpow) * x - delta * g1z
                columns.append((yd * tz, g1z * xdy, delta * (t + z * tz)))
        return (yd * t, g1 * xdy, zd * t), columns


# ---------------------------------------------------------------------------
# parameter formulas in delta and the chi constraint
# ---------------------------------------------------------------------------

def a_value(delta, k: int):
    """a_k(delta) = -(delta^3-1)(delta^{3k-1}+1) / (delta (delta^{3k}-1))."""
    return -((delta ** 3 - 1) * (delta ** (3 * k - 1) + 1)) / (delta * (delta ** (3 * k) - 1))


def b_value(delta, k: int):
    """b_k(delta) = (delta^3-1)(delta^{3k+1}+1) / (delta^2 (delta^{3k}-1))."""
    return ((delta ** 3 - 1) * (delta ** (3 * k + 1) + 1)) / (delta * delta * (delta ** (3 * k) - 1))


def _orbit_values(delta, orbit: OrbitData, power, finish=None):
    """[a_value(delta, m_i)], [b_value(delta, n_j)] bit for bit, for a
    complex or ball delta with power(e) = delta ** e: the same operations on
    the same operands, with delta^3 - 1 and delta^2 formed once.  finish,
    when given, is applied to each value as soon as it is formed, so an
    error it raises comes in the order of one value at a time."""
    finish = finish or (lambda v: v)
    d3 = power(3) - 1
    dd = delta * delta
    return ([finish(-(d3 * (power(3 * k - 1) + 1))
                    / (delta * (power(3 * k) - 1))) for k in orbit.m],
            [finish((d3 * (power(3 * k + 1) + 1))
                    / (dd * (power(3 * k) - 1))) for k in orbit.n])


def ab_from_delta(delta: complex, orbit: OrbitData) -> ThreeLinesParams:
    """Parameters realizing the orbit conditions at delta; normalizes c to 1
    when delta satisfies the chi constraint.

    Lemma: no denominator vanishes at a circle root delta of a certified
    Salem factor.  delta^3 - 1, delta^(3k) - 1 and delta^(3k +- 1) + 1
    vanish only at roots of unity, and delta's minimal polynomial is not
    cyclotomic.  param_balls divides balls: a denominator ball containing 0
    raises BallDomainError there.
    """
    return ThreeLinesParams(delta, *_orbit_values(delta, orbit, delta.__pow__))


def cleared_chi_polynomial(orbit: OrbitData) -> IntPolynomial:
    """Integer polynomial obtained by clearing denominators of chi = 1."""
    a_dens = [x_pow_plus_one(3 * mi - 1) for mi in orbit.m]
    b_dens = [x_pow_plus_one(3 * nj + 1) for nj in orbit.n]

    def prod(polys):
        return math.prod(polys, start=ONE)

    a_all, b_all = prod(a_dens), prod(b_dens)
    total = IntPolynomial(())
    for j, nj in enumerate(orbit.n):
        num = x_pow_minus_one(3 * nj).scale_pow(2)  # t^2 (t^{3n_j} - 1)
        total = total + num * a_all * prod(b_dens[:j] + b_dens[j + 1:])
    for i, mi in enumerate(orbit.m):
        num = x_pow_minus_one(3 * mi).scale_pow(1)  # t (t^{3m_i} - 1)
        total = total + num * prod(a_dens[:i] + a_dens[i + 1:]) * b_all
    total = total - x_pow_minus_one(3) * a_all * b_all
    return total.primitive_positive()


def salem_from_orbit(orbit: OrbitData) -> SalemCertificate:
    """Salem certificate for the non-cyclotomic factor of the cleared chi
    constraint; the factor itself is cert.poly."""
    return is_salem(cleared_chi_polynomial(orbit))



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
        return self.collision_step is None and self.residual < ORBIT_RESIDUAL_TOL


@dataclass(frozen=True)
class OrbitReport:
    checks: tuple[OrbitCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_residual(self) -> float:
        """The largest residual, or NaN when any residual is NaN (max()
        would pass over it and report a failed check's residual as small)."""
        residuals = [c.residual for c in self.checks]
        return math.nan if any(map(math.isnan, residuals)) else max(residuals)

    @property
    def collisions(self) -> tuple[OrbitCheck, ...]:
        return tuple(c for c in self.checks if c.collision_step is not None)


def orbit_verify(params: ThreeLinesParams, orbit: OrbitData) -> OrbitReport:
    """Direct iteration check of every orbit condition.

    Each backward indeterminacy point must reach its forward partner in the
    scheduled number of steps without meeting I(f) earlier; early hits are
    reported as collisions (non-generic parameters), not raised.  The orbits
    are iterated as normalized coordinate triples, each with the index of
    the coordinate it was divided by (geometry.divide_by_pivot).

    Screen lemma.  Let p and q be triples divided by a coordinate of
    largest modulus, p by index i and q by index j, each divisor of modulus
    at least INDETERMINACY_TOL (an iterate divides an image that _vanishes
    passed; the start and forward points have a coordinate 1).  Then every
    coordinate has modulus at most 1 + u and the divided-by one is within u
    of 1, where u, a few units in the last place, bounds the rounding of the
    complex division.  So |p| |q| <= 3 (1 + u)^2, and the chordal distance
    |p x q| / (|p| |q|) is at least |p_a q_b - p_b q_a| / (3 (1 + u)^2) for
    any a != b.  If i = j, the component at (i, k) is q_k - p_k up to 2u.  If
    i != j, the component at (i, j) has modulus at least
    1 - |p_j| |q_i| - 2u; only moduli enter, so a tie in modulus, where p_j
    or q_i is a phase, does no harm.  When that lower bound reaches
    4 COLLISION_TOL, the computed distance lies above COLLISION_TOL with room
    for every rounding error (each below 1e-14), and q is skipped.  (A
    triple with a NaN or infinite coordinate has NaN distances, never a
    collision, so skipping it changes nothing.)  Otherwise the step falls
    through to the chordal distance itself, with pt's norm computed on the
    first fall-through of the step, so every decision and every residual
    bit is that of measuring all 2N+1 distances (tests/oracles.py,
    orbit_verify_reference).

    The tie.  The index must be the one the normalization divided by: on
    |delta| = 1 each forward_b point [-b delta : b : 1] has |x| = |y|, and
    pivot_index of its normalized coordinates can pick -1/delta, a phase and
    not 1.
    """
    # the indeterminacy points, as (triple, divided-by index)
    d = params.delta
    forward_a = [divide_by_pivot((0, ai, 1)) for ai in params.a]
    forward_b = [divide_by_pivot((-bj * d, bj, 1)) for bj in params.b]
    forward_0 = divide_by_pivot((1, 0, 0))
    fwd = [(q, j, tuple(map(abs, q)), norm(q))
           for q, j in forward_a + forward_b + [forward_0]]
    plan = [("p0", divide_by_pivot((0, 1, 0)), 2, forward_0)]
    for i, mi in enumerate(orbit.m):
        plan.append((f"a{i + 1}", divide_by_pivot((params.a[i], 0, 1)),
                     3 * mi - 2, forward_a[i]))
    for j, nj in enumerate(orbit.n):
        bj = params.b[j]
        plan.append((f"b{j + 1}", divide_by_pivot((bj, -bj / d, 1)),
                     3 * nj, forward_b[j]))

    jet = TLMap.from_params(params).jet
    far = 4 * COLLISION_TOL  # a screened component at least this far is safe
    near = 1 - far
    others = ((1, 2), (0, 2), (0, 1))
    checks = []
    for label, (pt, i), steps, (target, _) in plan:
        collision = None
        for k in range(steps):
            a, b = others[i]
            pa, pb = pt[a], pt[b]
            mags = (abs(pt[0]), abs(pt[1]), abs(pt[2]))
            pt_norm = None
            for q, j, q_mags, q_norm in fwd:
                if j == i:
                    if abs(q[a] - pa) >= far or abs(q[b] - pb) >= far:
                        continue
                elif mags[j] * q_mags[i] <= near:
                    continue
                if pt_norm is None:
                    pt_norm = norm(pt)
                if chordal_distance(pt, q, pt_norm, q_norm) < COLLISION_TOL:
                    break  # pt meets a forward point
            else:
                comps = jet(*pt, ())[0]
                if not _vanishes(comps):
                    pt, i = divide_by_pivot(comps)
                    continue
            collision = k  # pt met a forward point or is indeterminate
            break
        if collision is None:
            residual = chordal_distance(pt, target, norm(pt), norm(target))
        else:
            residual = math.inf
        checks.append(OrbitCheck(label, steps, residual, collision))
    return OrbitReport(tuple(checks))


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def _abscissa_roots(d: ComplexBall, ga, gb) -> tuple[list[ComplexBall], set[int]]:
    """Roots of the degree-N abscissa polynomial sum_k (d ga_k - gb_k) x^k,
    as disks that conjugation maps onto one another, in the order of
    poly_roots' disks sorted by rounded center, and the indices of the
    certified-real ones: the disks whose conjugate meets them and no other
    disk (the lemma of roots.self_paired).

    ga, gb are the symmetric coefficients of the inverse parameters (a TLMap's
    g1 and g2).  The real indices and the closing below mean something only
    when d and the parameters are exactly real, as both callers' are: the
    polynomial is then real.

    Closing lemma.  poly_roots' disks are pairwise disjoint and hold one
    root each, and the conjugate of a root is a root.  A real disk of
    center c holds a real root z, and |z - Re c| = |Re(z - c)| <= |z - c|:
    the disk of center Re c and the same radius holds z too, and it takes
    that place.  If the conjugate of a non-real disk B_i meets exactly one
    disk B_j, j != i, and the conjugate of B_j exactly B_i, the conjugate
    of B_i's root lies in B_j: the two roots are conjugate, as in the
    pairing lemma of SalemCertificate.conjugate_roots, and the conjugate of
    the smaller disk (the earlier on a tie) holds the larger one's root,
    and takes its place.  Every non-real disk must have such a partner,
    else DegenerateSpectrum.  So each disk returned holds its poly_roots
    disk's root with no larger radius, and the conjugate of each disk is
    exactly a disk returned: the real ones have a real center.
    """
    coeffs = _abscissa_coeffs(d, ga, gb)
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
    images = [x.conjugate() for x in xs]
    met = [[j for j, y in enumerate(xs) if not im.disjoint(y)] for im in images]
    closed, real_idx = [], set()
    for i, x in enumerate(xs):
        if met[i] == [i]:
            real_idx.add(i)
            closed.append(ComplexBall(complex(x.center.real, 0.0), x.radius))
            continue
        j = met[i][0] if len(met[i]) == 1 else i
        if j == i or met[j] != [i]:
            raise DegenerateSpectrum("an abscissa disk has no conjugate partner")
        closed.append(x if (x.radius, i) <= (xs[j].radius, j) else images[j])
    return closed, real_idx


def _abscissa_coeffs(d: ComplexBall, ga, gb) -> list[ComplexBall]:
    """The coefficients d ga_k - gb_k of the abscissa polynomial, by power."""
    return [d * ga[k] - gb[k] for k in range(len(ga))]


def _closed_form_abscissas(coeffs) -> list[ComplexBall]:
    """The roots of c0 + c1 x (N = 1) or c0 + c1 x + c2 x^2 (N = 2) by
    formula: -c0/c1, and (-c1 +- sqrt(c1^2 - 4 c0 c2)) / (2 c2) through
    ComplexBall.sqrt, whose branch is analytic on its ball.  Each ball
    encloses a root for every choice of coefficients in their balls; a
    leading or discriminant ball containing 0 raises BallDomainError."""
    if len(coeffs) == 2:
        c0, c1 = coeffs
        return [-c0 / c1]
    c0, c1, c2 = coeffs
    sq = (c1 * c1 - 4 * c0 * c2).sqrt()
    inv = (2 * c2).inverse()
    return [(sq - c1) * inv, (-c1 - sq) * inv]


def param_balls(root: ComplexBall, orbit: OrbitData):
    """(delta, a_balls, b_balls) at a certified unit-circle root, the
    parameter balls of fixed_points_tl.

    |delta| = 1 exactly makes every a_k(delta), b_k(delta) real (they reduce
    to real trigonometric expressions), so the parameter balls are realized."""
    return (root, *_orbit_values(root, orbit, functools.partial(_power, [root]),
                                 ComplexBall.realize_real))


def fixed_points_tl(root: ComplexBall, orbit: OrbitData,
                    want: Verdict | None = None, *, params=None
                    ) -> list[FixedPointRecord] | None:
    """All N+3 isolated fixed points with certified derivative data.

    Precondition: root is a circle root of salem_from_orbit(orbit).  params,
    when given, is param_balls(root, orbit), which the caller holds already
    (certify_three_lines hands a pair leader's over to
    conjugate_fixed_points too); it changes no record.

    Order: the singular point of the line triple, the N affine diagonal
    points (sorted by abscissa), then the two points on the line at infinity.
    Every record is certified relative to param_balls(root, orbit), whose
    centers are exactly real, and the rotation numbers that are provably
    real get exactly real ball centers: at affine points whose abscissa is
    certified real by conjugate pairing, and at the infinity points when
    beta0/alpha0 is certified inside [0, 4].  The singular point's record
    comes from its lemma (see _singular_record): s is the real ball 1.

    want (Verdict.CERTIFIED_IN or CERTIFIED_OUT) asks for a pattern: the
    records come back only if every non-singular s has that verdict, and
    None comes back as soon as one does not.  The records are built in the
    order above, one at a time, so the list returned is the one want=None
    returns.  Before any record, a pattern that the ratio
    beta0/alpha0 = prod a_i/b_i rules out returns None:

    Ratio lemma.  The in-line eigenvalue t at an infinity point solves
    t^2 + (2 - ratio) t + 1 = 0, and s = 2 + delta t^2 + 1/(delta t^2).
    With real parameters and |delta| = 1 the ratio is real.  If it lies
    outside [0, 4], the discriminant ratio (ratio - 4) is positive, so t is
    real with |t| != 1; then w = delta t^2 has |w| != 1, and s - 2 = w + 1/w
    is not in [-2, 2] (w + 1/w = c in [-2, 2] forces w^2 - c w + 1 = 0, whose
    roots have modulus 1).  So s is not in [0, 4], and the In pattern is
    false: a ratio certified Out rules out want = CERTIFIED_IN.  If the ratio
    lies inside [0, 4], t is on the unit circle and s = 2 + 2 Re(delta t^2)
    lies in [0, 4], so no enclosure of s is disjoint from [0, 4]: a ratio
    certified In rules out want = CERTIFIED_OUT.

    Then, for want = CERTIFIED_IN and N <= 2 only, the closed-form screen:
    the abscissas from their formula (_closed_form_abscissas) and s at each
    from its lemma (diagonal_s), with no root isolation and no Jacobian.
    Each s ball encloses the true s of a diagonal point, so one certified
    Out means no record can certify that point In, and None comes back.
    A SiegelcertError inside the screen is raised as any record's is.  The
    screen cannot serve want = CERTIFIED_OUT (an In verdict needs the
    abscissa proved real) nor N >= 3 (no closed form).

    Lemma: at a circle root delta of a certified Salem factor every point
    is fixed by construction ([0:0:1] maps to [0:0:-delta^2]; the abscissas
    solve d g1 = g2 and the quadratic of f on z = 0) and none lies in
    I(f) = {[0:a_i:1], [-b_j delta:b_j:1], [1:0:0]}.  The points [x:1:0]
    miss it, and [0:0:1] or a diagonal point meets it only if some a_i or
    b_j is 0 or delta = -1, each a root-of-unity case (see ab_from_delta).
    """
    db, ab, bb = param_balls(root, orbit) if params is None else params
    ratio = _parameter_ratio(ab, bb)
    ratio_verdict = ball_in_interval(ratio)
    if want is not None and ratio_verdict not in (want, Verdict.UNKNOWN):
        return None  # the ratio lemma: certified on the other side
    tlm_ball = TLMap.ball_map(db, ab, bb)
    d_ball = _diagonal_d(db)
    if want is Verdict.CERTIFIED_IN and orbit.N <= 2 and any(
            ball_in_interval(s) is Verdict.CERTIFIED_OUT
            for _, s in _closed_form_diagonal(d_ball, tlm_ball, ab, bb)):
        return None  # the closed-form s: a diagonal point is Out
    records = [_singular_record(db)]
    for rec in _nonsingular_records(tlm_ball, db, d_ball, ratio,
                                    ratio_verdict is Verdict.CERTIFIED_IN):
        if want is not None and ball_in_interval(rec.s) is not want:
            return None
        records.append(rec)
    return records


def conjugate_fixed_points(records: list[FixedPointRecord], other: ComplexBall,
                           params) -> list[FixedPointRecord]:
    """The N+3 records at other from records = fixed_points_tl(lead, orbit),
    where params = param_balls(lead, orbit), other is lead's partner in
    SalemCertificate.conjugate_roots and lead.radius <= other.radius.

    Conjugation lemma.  Every a_k(delta), b_k(delta) is rational in delta
    with integer coefficients, so f_conj(delta) = c o f_delta o c, c complex
    conjugation: a fixed point w of f_delta with chart Jacobian J gives the
    fixed point conj(w) of f_conj(delta) with Jacobian conj(J), whose trace,
    det, s and eigenvalues are the conjugates of J's.  By the pairing lemma
    there, other's root lies in the disk of center other.center and radius
    lead.radius, the conjugate of lead's.  param_balls gives the same real
    balls at both roots, so both see one abscissa polynomial and the same
    disks (_abscissa_roots), which conjugation maps onto one another.
    CPython's complex arithmetic and ball arithmetic round symmetrically
    under conjugation, so each record below is what fixed_points_tl gives
    at ComplexBall(other.center, lead.radius), up to the sign of a zero
    imaginary part; a ball or coordinate with a real center is kept as it
    is, so no zero changes sign.

    The singular record is _singular_record at other's own ball: its
    eigenvalues come omega/delta first, which conjugation would swap.
    Affine record k is the conjugate of lead's record at the conjugate of
    coords k: conjugation swaps the two disks of a complex pair.

    Infinity-order lemma.  The two infinity records are conjugated, and
    swap exactly when the numerators ratio - 2 +- sqrt(disc) of
    _infinity_numerators are non-real: the ratio is real and the same at
    both roots, so both compute the same numerators, and then
    conj(num+) = num-.  This is read from lead's own ratio ball, from the
    params that fixed_points_tl took at lead.
    """
    _, ab, bb = params
    n = len(ab)
    affine = records[1:n + 1]
    position = {rec.coords: k for k, rec in enumerate(affine)}
    derived = sorted(map(_conjugate_record, affine),
                     key=lambda rec: position[rec.coords])
    infinity = [_conjugate_record(rec) for rec in records[n + 1:]]
    if _infinity_numerators(_parameter_ratio(ab, bb))[0].center.imag:
        infinity.reverse()
    return [_singular_record(other), *derived, *infinity]


def _conjugate_record(rec: FixedPointRecord) -> FixedPointRecord:
    """rec with its coordinates and balls conjugated; a ball with a real
    center is kept as it is (ProjectivePoint.conjugate does the same for a
    coordinate)."""
    def conj(b: ComplexBall) -> ComplexBall:
        return b.conjugate() if b.center.imag else b

    e1, e2 = rec.eigenvalues
    return FixedPointRecord(rec.location, rec.coords.conjugate(),
                            conj(rec.trace), conj(rec.det), conj(rec.s),
                            (conj(e1), conj(e2)))


# omega = e^(2 pi i/3) to within 2^-54, and the exact 1 with one rounding pad
_OMEGA = ComplexBall(complex(-0.5, math.sqrt(3) / 2), 2.0 ** -52)
_ONE_PADDED = ComplexBall.exact(1) * 1


def _singular_record(db: ComplexBall) -> FixedPointRecord:
    """The record at [0:0:1] from its lemma: g1(0) = g2(0) = 1 gives
    Df = [[0, 1], [-delta^-2, -delta^-1]] in the chart z = 1, so trace
    -1/delta, det delta^-2, eigenvalues omega/delta and conj(omega)/delta,
    and s = 1 exactly (its ball keeps a rounding radius, as any s does)."""
    inv = db.inverse()
    return FixedPointRecord(Location.CURVE_SINGULAR, ProjectivePoint(0, 0, 1),
                            -inv, inv * inv, _ONE_PADDED,
                            (_OMEGA * inv, _OMEGA.conjugate() * inv))


def _diagonal_d(db: ComplexBall) -> ComplexBall:
    """d = (1+delta)^2/delta, real for |delta| = 1."""
    one_db = 1 + db
    return (one_db * one_db / db).realize_real()


def _closed_form_diagonal(d_ball: ComplexBall, tlm_ball: TLMap, ab, bb):
    """(x, s) at each diagonal point for N <= 2, one at a time: the
    abscissa x from _closed_form_abscissas and s from diagonal_s, with no
    root isolation and no Jacobian."""
    coeffs = _abscissa_coeffs(d_ball, tlm_ball.g1, tlm_ball.g2)
    for x in _closed_form_abscissas(coeffs):
        yield x, diagonal_s(x, ab, bb, d_ball)


def _nonsingular_records(tlm_ball: TLMap, db: ComplexBall, d_ball: ComplexBall,
                         ratio: ComplexBall, ratio_in: bool):
    """The N diagonal records, then the two at infinity, built one at a time
    as the caller asks for them."""
    # affine diagonal points: roots of the degree-N abscissa polynomial
    xs, real_idx = _abscissa_roots(d_ball, tlm_ball.g1, tlm_ball.g2)
    for i, x in enumerate(xs):
        w = ProjectivePoint(x.center, x.center, 1)
        jac = chart_jacobian(tlm_ball, w, chart=2, point_radius=x.radius)
        rec = record_from_jacobian(Location.AFFINE_DIAGONAL, w, jac)
        if i in real_idx:
            # real parameters, real d, certified-real abscissa: s is real
            rec = replace(rec, s=rec.s.realize_real())
        yield rec

    # infinity points: alpha0 x^2 + delta (2 alpha0 - beta0) x + alpha0 delta^2
    for num in _infinity_numerators(ratio):
        x = db * num * _HALF
        w = ProjectivePoint(x.center, 1, 0)
        jac = chart_jacobian(tlm_ball, w, point_radius=x.radius)
        rec = record_from_jacobian(Location.INFINITY, w, jac)
        if ratio_in:
            # real ratio in [0,4] puts the in-line eigenvalue t on the unit
            # circle, so s = 2 + 2 Re(delta t^2) is real for |delta| = 1
            rec = replace(rec, s=rec.s.realize_real())
        yield rec


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


# ---------------------------------------------------------------------------
# parameter constructions
# ---------------------------------------------------------------------------

def _delta_on_circle(d: float) -> complex:
    """The |delta| = 1 solution of (1+delta)^2/delta = d with Im(delta) > 0."""
    if not 0.0 < d < 4.0:
        raise ValueError("d must lie in (0, 4)")
    return complex((d - 2.0) / 2.0, math.sqrt(d * (4.0 - d)) / 2.0)


def construct_c0(N: int) -> ThreeLinesParams:
    """Real parameters with every rotation number inside (0, 4): the first
    design_c0(N, d) that certifies as d walks up from D0_TARGET, each rung
    halving 1 - d.  Any SiegelcertError moves to the next rung; after nine
    rungs (1 - d >= 1e-4) the walk raises SearchFailed naming the last error.
    """
    d = D0_TARGET
    while True:
        try:
            return design_c0(N, d)
        except SiegelcertError as exc:
            d = 1.0 - 0.5 * (1.0 - d)
            if 1.0 - d < 1e-4:
                raise SearchFailed(f"no design determinant worked for N={N}: "
                                   f"{exc}") from exc


def design_c0(N: int, d: float) -> ThreeLinesParams:
    """The all-inside design at one determinant d in (0, 1).

    Seeds a_i = i and places the diagonal fixed abscissas at the midpoints
    (a_{i-1} + a_i)/2 by interpolating the b-side product through them.  The
    certificate is the a-posteriori In-pattern check of all N+2 rotation
    numbers (SearchFailed unless each is CertifiedIn); it supersedes the
    paper's sufficient bounds, which could only reject certified designs.
    The result is rescaled so beta - alpha = 1.
    """
    if not 0.0 < d < 1.0:
        raise ValueError("d must lie in (0, 1)")
    if N < 1:
        raise ValueError("N must be >= 1")
    a = [float(i) for i in range(1, N + 1)]
    xs = [i - 0.5 for i in range(1, N + 1)]

    def g(x: float) -> float:
        out = d
        for ai in a:
            out *= 1 - x / ai
        return out

    # interpolate h with h(0) = 1, h(x_l) = g(x_l); its roots are the b_i
    nodes = [0.0] + xs
    values = [1.0] + [g(x) for x in xs]
    coeffs = _lagrange_coeffs(nodes, values)
    roots = poly_roots(ComplexPolynomial(tuple(coeffs)))
    b = sorted(r.center.real for r in roots.balls)
    # rotation numbers are invariant under the c = 1 rescaling, so the design
    # check runs on the raw real values
    _require_pattern(a, b, d, inside=True, what="design_c0")
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

    Everything runs through exactly real ball chains: the affine values are
    diagonal_s at abscissas whose reality is certified by conjugate pairing;
    the infinity pair is represented by beta0/alpha0, whose membership in
    [0,4] is equivalent to both infinity rotation numbers lying there when
    the design puts delta on the unit circle (that is what d in (0,4)
    encodes).
    """
    da = ComplexBall.exact(float(d))
    ab = [ComplexBall.exact(complex(v)) for v in a]
    bb = [ComplexBall.exact(complex(v)) for v in b]
    xs, _ = _abscissa_roots(da, _sym_coeffs([v.inverse() for v in ab]),
                            _sym_coeffs([v.inverse() for v in bb]))
    svals = [diagonal_s(x, ab, bb, da) for x in xs]
    return svals, _parameter_ratio(ab, bb).realize_real()


def diagonal_s(x: ComplexBall, ab, bb, d: ComplexBall) -> ComplexBall:
    """The rotation number s at the diagonal fixed point (x, x) in closed
    form, d (1 + sum 1/(1 - x/b_j) - sum 1/(1 - x/a_i))^2 with
    d = (1+delta)^2/delta, over balls for x, the parameters and d.

    Lemma.  The trace of Df at (x, x) is
    (delta + 1) (1 - sum 1/(1 - x/a_i) + sum 1/(1 - x/b_j)).  The determinant
    is delta: Df = [[0, 1], [F_x, F_y]] with
    F = g1 (x + delta y) / (delta T), T = h x - delta g1, so det = -F_x
    = g1 g2 / T^2, and at a diagonal fixed point d g1 = g2 and
    delta T = (1 + delta) g1 give det = d delta^2/(1 + delta)^2 = delta.
    So s = tr^2/det = d (1 - sum ... + sum ...)^2, and the ball returned
    encloses the true s.

    A CertifiedOut verdict needs nothing more: a ball disjoint from [0, 4]
    puts the true s outside it, real or not.  A CertifiedIn verdict needs an
    exactly real center (ball_in_interval), sound only once s is proved
    real: real parameters and d with an abscissa certified real by
    conjugate pairing, which design_rotation_numbers has and the gate's
    closed-form abscissas (fixed_points_tl) do not.
    """
    corr = ComplexBall.exact(1)
    for va, vb in zip(ab, bb):
        corr = corr + (1 - x / vb).inverse() - (1 - x / va).inverse()
    return d * corr * corr


def _require_pattern(a, b, d: float, inside: bool, what: str):
    """Validate that all N+2 non-singular rotation numbers are In (or Out)."""
    svals, ratio = design_rotation_numbers(a, b, d)
    want = Verdict.CERTIFIED_IN if inside else Verdict.CERTIFIED_OUT
    err = SearchFailed if inside else PerturbationFailed
    for s in svals:
        v = ball_in_interval(s)
        if v is not want:
            raise err(f"{what}: affine rotation number {s.center:.4f} "
                      f"is {v.value}, wanted {want.value}")
    v = ball_in_interval(ratio)
    if v is not want:
        raise err(f"{what}: beta0/alpha0 = {ratio.center.real:.4f} "
                  f"is {v.value}, wanted {want.value}")


def construct_cstar(N: int) -> ThreeLinesParams:
    """Real parameters with every rotation number outside [0, 4].

    Equal-parameter seed b0 = 1, a0 = 4^(1/N), d = 1/16, then a deterministic
    spread to pairwise-distinct values that pushes prod(a_i/b_i) above 4 while
    keeping the diagonal rotation numbers outside; the spread size walks down
    a ladder until every verdict is CertifiedOut.  Any SiegelcertError moves
    to the next rung; after the last one the walk raises PerturbationFailed
    naming the last error.
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
        except SiegelcertError as exc:
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
    salem_cert: SalemCertificate


def _joint_pick(formula, targets0, targets_star, d0, dstar,
                used: set[int], rank: int, window: float) -> list[int]:
    """Greedy density choice for each target pair.

    Indices whose joint approximation error stays below `window` are ranked by
    size (small orbits keep the blowup count low) and the one at `rank` is
    picked; a window holding `rank` or fewer unused indices raises
    SearchFailed.  No formula value divides by zero: a target delta
    has cos(arg delta) = d/2 - 1 rational in (-1, -1/2), so by Niven's
    theorem it is no root of unity (and at the ten target determinants the
    float denominators are nonzero for k <= K_SEARCH)."""
    picks = []
    for t0, ts in zip(targets0, targets_star):
        inside = [k for k in range(1, K_SEARCH + 1) if k not in used and
                  max(abs(formula(d0, k) - t0),
                      abs(formula(dstar, k) - ts)) < window]
        if len(inside) <= rank:
            raise SearchFailed(f"{len(inside)} indices inside the density "
                               f"window, too few for rank {rank}")
        used.add(inside[rank])
        picks.append(inside[rank])
    return picks


def _rank_orbits(c0: ThreeLinesParams, cstar: ThreeLinesParams, rank: int):
    """The orbit data of one density rank, in sweep order.

    n_1..n_N and m_1..m_{N-1} are fixed by the joint density argument at the
    two target determinants; m_N then sweeps 1..DEFAULT_MN_CAP, passing over
    the m-values already picked and the excluded ((1,), (1,))."""
    d0, dstar = c0.delta, cstar.delta
    window = 0.9 * DEFAULT_EPS
    n = tuple(_joint_pick(b_value, c0.b, cstar.b, d0, dstar, set(),
                          rank, window))
    used_m: set[int] = set()
    m_head = _joint_pick(a_value, c0.a[:-1], cstar.a[:-1], d0, dstar,
                         used_m, rank, window)
    for mN in range(1, DEFAULT_MN_CAP + 1):
        m = tuple(m_head + [mN])
        if mN not in used_m and (m, n) != ((1,), (1,)):
            yield OrbitData(m, n)


def format_counts(counts: collections.Counter) -> str:
    """Counts as "3 A, 1 B, 1 C": largest first, ties by name."""
    return ", ".join(f"{n} {name}" for name, n in
                     sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def approx_parameters(c0: ThreeLinesParams, cstar: ThreeLinesParams, *,
                      accept) -> ApproxResult:
    """Orbit data and two unit-circle Salem roots approximating both
    targets, each root taken by accept (the caller's certification gate).

    The search walks the DENSITY_RANKS density ranks in order and, inside
    each, the m_N sweep of _rank_orbits.  Orbit data whose Salem
    certificate fails (NoSalemFactor, BoundaryUndecidable, NonConvergence)
    are skipped and counted by error type.  Otherwise the roots near c0 and
    those near c* are listed by _candidates, and a datum with an empty list
    is passed over.  accept((orbit, root, "delta0")) is called on the c0
    roots nearest first until one is taken, then accept((orbit, root,
    "delta*")) on the c* roots the same way; the first orbit datum where
    both sides are taken is the result.  So accept sees each (orbit, root,
    side) at most once.  When no rank yields a result, raises
    BudgetExhausted with the totals over all ranks: orbit data tried and
    orbit data skipped by error type.
    """
    if cstar.N != c0.N:
        raise ValueError("target families have different N")
    tried = 0
    skipped: collections.Counter = collections.Counter()  # error type -> count
    for rank in range(DENSITY_RANKS):
        for orbit in _rank_orbits(c0, cstar, rank):
            tried += 1
            try:
                cert = salem_from_orbit(orbit)
            except (NoSalemFactor, BoundaryUndecidable, NonConvergence) as exc:
                # non-generic orbit data (e.g. a reducible non-cyclotomic
                # part); not a lift candidate, keep sweeping
                skipped[type(exc).__name__] += 1
                continue
            params: dict = {}
            near0 = _candidates(cert.circle_roots, orbit, c0, params)
            near_star = _candidates(cert.circle_roots, orbit, cstar, params)
            if not (near0 and near_star):
                continue
            delta0 = next((root for root in near0
                           if accept((orbit, root, "delta0"))), None)
            if delta0 is None:
                continue
            delta_star = next((root for root in near_star
                               if accept((orbit, root, "delta*"))), None)
            if delta_star is not None:
                return ApproxResult(orbit, delta0, delta_star, cert)
    skip_note = (f" ({sum(skipped.values())} skipped: {format_counts(skipped)})"
                 if skipped else "")
    raise BudgetExhausted(
        f"no candidate accepted over {DENSITY_RANKS} density ranks with m_N "
        f"<= {DEFAULT_MN_CAP} at eps={DEFAULT_EPS}: {tried} orbit data "
        f"tried{skip_note}")


def _candidates(circle_roots, orbit: OrbitData, target: ThreeLinesParams,
                params: dict) -> list[ComplexBall]:
    """Of the 12 circle roots nearest the target's delta and within
    DEFAULT_EPS of it, nearest first, those whose parameters also lie within
    DEFAULT_EPS of the target's.  params maps a root to its
    ab_from_delta(root.center, orbit), filled here, so that the calls for
    both targets of one orbit datum compute each root's parameters once."""
    dists = [(abs(r.center - target.delta), i)
             for i, r in enumerate(circle_roots)]
    near = sorted(di for di in dists if di[0] < DEFAULT_EPS)
    out = []
    for _, i in near[:12]:
        root = circle_roots[i]
        p = params.get(root)
        if p is None:
            p = params[root] = ab_from_delta(root.center, orbit)
        if _within(p.a, target.a) and _within(p.b, target.b):
            out.append(root)
    return out


def _within(values, targets) -> bool:
    return all(abs(v - t) < DEFAULT_EPS for v, t in zip(values, targets))
