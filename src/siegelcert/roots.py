"""Simultaneous root iteration with certified a-posteriori error disks.

The solver is a Durand-Kerner sweep started on a scaled circle.  After the
iterates settle, each point z_i gets the Weierstrass correction

    W_i = p(z_i) / (lc * prod_{j != i} (z_i - z_j)),

and the classical inclusion theorem applies: the union of the disks
D(z_i, n*|W_i|) contains every root of p, and a connected component made of k
disks contains exactly k roots counted with multiplicity.  We inflate |p(z_i)|
by a running Horner error bound (and by coefficient radii, when the input
coefficients are themselves only known up to a ball), so the disks are valid
for the exact polynomial, not just its floating image.

Degree 2 runs no sweep.  Its centers come from the stable closed form, its
disks from the same certificate, and then the two-root lemma tightens them:
if the two disks D(z_i, R_i) are disjoint, each holds exactly one root x_i of
every polynomial p~ in the coefficient balls, and p~(z_i) = c~2 (z_i - x_i)
(z_i - x_j) gives

    |z_i - x_i| <= P_i / (lc_low (|z_i - z_j| - R_j)),

with P_i the bound on |p~(z_i)| and lc_low the least |c~2|.  That is about
R_i / 2, since R_i = 2 P_i / (lc_low |z_i - z_j|); the radius taken is the
smaller of the two, rounded up.  Overlapping disks stay as they are, with
is_simple False.  Degree 1 and degree >= 3 run the sweep.

The sweep starts on one circle and has one stopping rule for every caller:
every correction below DEFAULT_TOL times the root scale, or DEFAULT_MAX_ITER
sweeps.  The disks are valid wherever the sweep stops; a tighter stop only
makes them smaller, and so more often disjoint.

A sweep costs Python dispatch more than arithmetic, so each step is one
positional numpy call into work arrays allocated once per polynomial, with
the expression form's operands and so its bits (see poly_roots).  The
certificate keeps CPython's abs of complex values, which numpy's abs does
not always match: its distances go through np.hypot, the libm hypot that
CPython's abs calls.  It bounds Horner's float error at all points at once.
"""

from __future__ import annotations

import bisect
import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .balls import _EPS, _ONE_EPS, _TINY, ComplexBall
from .errors import BallDomainError, NonConvergence

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 500

_U = 2.0 ** -53
_SWEEP_SLACK = 1.0 + 2.0 ** -40  # covers the roundings of _undecided_pairs


@dataclass(frozen=True)
class ComplexPolynomial:
    """Dense complex-coefficient polynomial; coeffs[k] multiplies x^k."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        # complex() would parse a string such as "1+2j"; only numbers pass
        c = tuple(self.coeffs)
        if not all(isinstance(v, numbers.Number) for v in c):
            raise ValueError(f"coefficients must be numbers, got {c!r}")
        c = tuple(map(complex, c))
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)
        if c and not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in c):
            raise ValueError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RootSet:
    """Certified root enclosures: one ball per root (with multiplicity).

    is_simple says the disks are pairwise disjoint, so each holds exactly one
    root.  When it is False, only the union of each connected component of
    overlapping disks is certified, to hold as many roots as it has disks.
    """

    balls: tuple[ComplexBall, ...]
    is_simple: bool

    def __iter__(self):
        return iter(self.balls)

    def __len__(self):
        return len(self.balls)


def poly_roots(p: ComplexPolynomial, *,
               coeff_radii: tuple[float, ...] | None = None) -> RootSet:
    """All roots of p with certified error disks.

    coeff_radii, when given, widens the certificates so they hold for every
    polynomial whose k-th coefficient lies within coeff_radii[k] of coeffs[k].
    It holds one finite radius >= 0 per coefficient of p, the leading one
    included; else ValueError, since a radius on a coefficient that p trims
    as zero admits roots that no disk holds.  Raises NonConvergence if the
    sweep stalls and the disks are nonetheless pairwise disjoint (no overlap
    explains the stall).

    Degree 2 takes its centers from the closed form, not the sweep, and
    never raises NonConvergence; when its two disks are disjoint each is
    tightened by the two-root lemma (see _quadratic_roots):
    |z_i - x_i| <= P_i / (lc_low (|z_i - z_j| - R_j)), with P_i the
    certificate's bound on |p~(z_i)| for every p~ in the coefficient balls.
    A root beyond double range raises BallDomainError.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    if coeff_radii is not None and (
            len(coeff_radii) != len(p.coeffs)
            or not all(0.0 <= r < math.inf for r in coeff_radii)):
        raise ValueError("coeff_radii must hold one finite radius >= 0 per "
                         f"coefficient of the degree-{p.degree} polynomial, "
                         f"got {coeff_radii!r}")
    if p.degree == 2:
        return _quadratic_roots(p, coeff_radii)
    coeffs = np.array(p.coeffs, dtype=np.complex128)
    n = p.degree
    lc = coeffs[-1]

    # one start circle at the geometric mean of the root moduli: spot on for
    # reciprocal polynomials, whose roots crowd the unit circle
    bound = 1.0 + float(max(abs(coeffs[:-1] / lc))) if n else 1.0
    gmean = abs(coeffs[0] / lc) ** (1.0 / n) if coeffs[0] != 0 else 0.5
    r0 = 1.02 * min(max(gmean, 1e-3), bound)

    scale = max(1.0, bound)
    k = np.arange(n)
    converged = False
    z = r0 * np.exp(2j * np.pi * (k + 0.37) / n)
    # Work arrays allocated once, each step one positional ufunc call into
    # them with the operands the expression form gave its kernel, so the bits
    # are the same.  numpy's complex multiply rounds differently in place on
    # a length-1 array, so no multiply writes into its own input: Horner
    # alternates two buffers, and only the adds (exact per part) run in place.
    zero, even, odd, prod, denom, w, z_next = (np.zeros(n, complex) for _ in range(7))
    steps = [(np.asarray(c), (even, odd)[i % 2]) for i, c in enumerate(coeffs[::-1])]
    diff = np.empty((n, n), complex)
    diagonal = diff.reshape(-1)[::n + 1]
    lc, modulus, tame = np.asarray(lc), np.empty(n), np.empty(n, bool)
    with np.errstate(all="ignore"):
        for sweep in range(DEFAULT_MAX_ITER):
            pz = zero
            for c, out in steps:
                np.multiply(pz, z, out)
                np.add(out, c, out)
                pz = out
            np.subtract.outer(z, z, out=diff)
            diagonal[:] = 1.0
            diff.prod(axis=1, out=prod)
            np.multiply(lc, prod, denom)
            np.divide(pz, denom, w)
            finite = np.isfinite(w).all()
            if not finite:
                w = np.where(np.isfinite(w), w, 0.0)
            np.subtract(z, w, z_next)
            z, z_next = z_next, z
            # reseed exploded or non-finite iterates deterministically: a
            # NaN modulus fails the comparison too
            np.less_equal(np.abs(z, modulus), 16.0 * scale, tame)
            if not tame.all():
                z = np.where(
                    tame, z,
                    0.83 * r0 * np.exp(2j * np.pi * (k + 0.11 * (sweep + 2)) / n))
                continue
            if finite and np.abs(w, modulus).max() < DEFAULT_TOL * scale:
                converged = True
                break
        balls = _certify(p, z.tolist(), coeff_radii)
    is_simple = pairwise_disjoint(balls)
    if not converged and is_simple:
        raise NonConvergence(
            f"no convergence after {DEFAULT_MAX_ITER} iterations "
            f"at tol={DEFAULT_TOL:g}")
    return RootSet(balls, is_simple)


def _quadratic_roots(p: ComplexPolynomial, coeff_radii) -> RootSet:
    """Degree 2: the stable closed form's centers, _certify's disks there,
    and each disk tightened by the two-root lemma when the two are disjoint.

    The centers: q = -(c1 + sqrt(disc))/2 with the root's sign that adds
    c1 and sqrt(disc) without cancellation, then x1 = q/c2 and x2 = c0/q,
    on the coefficients scaled by a power of two (exact) so that disc
    cannot overflow.  Only the centers come from floats; the disks are
    certified for p itself.

    The lemma, with R_i = 2 P_i / (lc_low d) _certify's radius (rounded
    up), P_i its bound on |p~(z_i)| and d = |z_1 - z_2| as it computed it:
    disjoint disks hold one root each, x_i in D_i and x_j in D_j, of every
    p~ in the coefficient balls, and p~(z_i) = c~2 (z_i - x_i)(z_i - x_j)
    with |z_i - x_j| >= |z_i - z_j| - R_j, so

        |z_i - x_i| <= P_i / (lc_low (|z_i - z_j| - R_j))
                    <= R_i d / (2 (|z_i - z_j| - R_j)).

    d_low = d (1 - 2^-50) is at most the exact |z_i - z_j| (the subtraction
    and hypot round by 2^-53 each, relative), and the quotient's three
    roundings are covered by the same 2^-40 pad as _certify's.  The new
    radius, near R_i / 2, is the minimum of that bound and R_i.
    """
    e = math.frexp(max(map(abs, p.coeffs)))[1]
    c0, c1, c2 = (complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e))
                  for c in p.coeffs)
    sq = cmath.sqrt(c1 * c1 - 4.0 * c0 * c2)
    if (c1.conjugate() * sq).real < 0.0:
        sq = -sq
    q = -0.5 * (c1 + sq)
    pts = [q / c2, c0 / q] if q else [0j, 0j]
    if not all(cmath.isfinite(z) for z in pts):
        raise BallDomainError("a root of the quadratic is out of double range")
    with np.errstate(all="ignore"):
        balls = _certify(p, pts, coeff_radii)
    if not balls[0].disjoint(balls[1]):
        return RootSet(balls, False)
    d = abs(pts[0] - pts[1])
    d_low = d * (1.0 - 2.0 ** -50)
    tight = []
    for b, other in zip(balls, balls[::-1]):
        bound = b.radius * d / (2.0 * (d_low - other.radius))
        tight.append(ComplexBall(b.center, min(
            b.radius, bound * (1.0 + 2 ** -40) + 1e-300)))
    return RootSet(tuple(tight), True)


def _certify(p: ComplexPolynomial, pts: list[complex],
             coeff_radii) -> tuple[ComplexBall, ...]:
    n = p.degree
    lc_low = abs(p.coeffs[-1])
    if coeff_radii is not None:
        lc_low -= coeff_radii[-1]
        if lc_low <= 0:
            raise ValueError("leading coefficient ball contains 0")
    rev = p.coeffs[::-1]
    # each Horner value's error bound and the radii's reach at every point at
    # once: float operations one at a time round as CPython's do, and under
    # poly_roots' errstate an overflow gives inf silently, as there
    moduli = np.array([abs(zi) for zi in pts])
    errs = 4.0 * len(rev) * _U * _horner_bound([abs(c) for c in rev], moduli)
    if coeff_radii is not None:
        errs += _horner_bound(coeff_radii[::-1], moduli)
    # prod_{j != i} |z_i - z_j| as CPython's abs and loop give it: numpy
    # subtracts complex values part by part, np.hypot is the libm hypot that
    # abs(complex) calls, and row i multiplies in j order, an exact 1.0 at
    # j = i, one column at a time
    z = np.array(pts, dtype=complex)
    diff = np.subtract.outer(z, z)
    dists = np.hypot(diff.real, diff.imag)
    np.fill_diagonal(dists, 1.0)
    prods = np.ones(len(pts))
    for col in dists.T:
        prods *= col
    # |p(z)| by Horner once per point value and, when every coefficient is
    # real, once per conjugate pair: CPython's complex multiply and add are
    # symmetric under conjugation up to the sign of a zero, so p(conj z) is
    # the conjugate of p(z) up to signs of zeros, which abs ignores
    real = all(c.imag == 0.0 for c in rev)
    sizes = {}
    balls = []
    for zi, err, prod in zip(pts, errs.tolist(), prods.tolist()):
        if prod == 0.0 or not math.isfinite(prod):
            # coincident iterates: fall back to a crude containment disk
            radius = math.inf
        else:
            size = sizes.get(zi)
            if size is None:
                val = 0j
                for c in rev:
                    val = val * zi + c
                size = sizes[zi] = abs(val)
                if real:
                    sizes[zi.conjugate()] = size
            radius = n * (size + err) / (lc_low * prod)
        if not math.isfinite(radius):
            # pathological; a huge disk makes the overlap explicit
            radius = 2.0 * (1.0 + max(abs(q) for q in pts if math.isfinite(abs(q))))
        balls.append(ComplexBall(zi, radius * (1.0 + 2 ** -40) + 1e-300))

    return tuple(balls)


def _horner_bound(weights, moduli: np.ndarray) -> np.ndarray:
    """Horner at every modulus at once, weights highest degree first."""
    s = np.zeros(len(moduli))
    for wk in weights:
        np.multiply(s, moduli, s)
        np.add(s, wk, s)
    return s


def pairwise_disjoint(balls) -> bool:
    """Every two of the disks are disjoint (ComplexBall.disjoint)."""
    return all(balls[i].disjoint(balls[j])
               for i, near in enumerate(_undecided_pairs(balls, balls))
               for j in near if j > i)


def self_paired(centers: np.ndarray, radii: np.ndarray, rows) -> np.ndarray:
    """For each i in rows, whether the disk D(centers[i], radii[i]) is
    self-paired under z -> 1/conj(z): its image disk, ComplexBall.inverse
    of its conjugate, meets it and no other disk of the arrays.

    The lemma: let the disks be a simple root enclosure (each disk holds
    exactly one root) of a polynomial whose root set is invariant under an
    involution sigma, and let image(B) enclose sigma(B).  If image(B_i)
    meets no other disk, sigma of B_i's root is a root lying in image(B_i),
    hence in B_i, and so equals the root itself: the disk holds a root that
    sigma fixes.  With sigma(z) = conj(z) (real coefficients) that root is
    real; with sigma(z) = 1/conj(z) (real palindromic coefficients), the
    case decided here, it has |z| = 1.

    Each image and each test is the per-ball one, ComplexBall.inverse, its
    _ball padding and ComplexBall.disjoint, operation for operation over
    numpy arrays of every pair: np.hypot is the libm hypot that CPython's
    abs(complex) calls, and the image center c / denom taken part by part
    has the values of CPython's complex division by a real, up to the sign
    of a zero, which no test reads.  So the answer is that of the loop over
    the disks.  Every disk's image is formed, in rows or not, and the first
    one that the per-ball inverse rejects raises its BallDomainError.
    """
    with np.errstate(all="ignore"):
        x, y = centers.real, centers.imag
        modulus = np.hypot(x, y)
        denom = modulus * modulus - radii * radii
        cx, cy = x / denom, y / denom
        size = np.hypot(cx, cy)
        r = radii / (denom * (1.0 - 4.0 * _EPS)) + 4.0 * _EPS * size
        r = r * _ONE_EPS + size * _EPS + _TINY
        failed = (denom <= _TINY) | (modulus <= radii) | ~(r < math.inf)
    if failed.any():
        i = int(failed.argmax())
        ComplexBall(complex(centers[i]), float(radii[i])).conjugate().inverse()
    rows = np.asarray(rows, dtype=np.intp)
    gap = (np.hypot(cx[rows, None] - x, cy[rows, None] - y)
           - (r[rows, None] + radii))
    disjoint = gap > _EPS * (size[rows, None] + modulus + 1.0)
    own = (np.arange(len(rows)), rows)
    meets_own = ~disjoint[own]
    disjoint[own] = True
    return meets_own & disjoint.all(axis=1)


def _undecided_pairs(queries, balls) -> list[list[int]]:
    """For each query disk, the indices of the balls it may meet: every ball
    left out is one that ComplexBall.disjoint finds disjoint from it.

    One sort of the balls by the real part of their centers, then a sweep
    outward from each query's real part.  The inequality that leaves a pair
    out: with M >= the computed |center| of every disk, h = radius +
    _EPS (M + 1/2) and dx the float difference of the two real parts,

        |dx| > (h_q + h_b) (1 + 2^-40)

    makes disjoint(q, b) True.  Its float |c_q - c_b| is at least |dx| up to
    one rounding of hypot, the radius sum and the tolerance
    _EPS (|c_q| + |c_b| + 1) <= _EPS (2 M + 1) exceed their exact values
    by a few roundings at most, and each rounding is a relative 2^-52 at
    most: 2^-40 covers them all many times over.  Every other pair goes to
    disjoint itself, so a caller's booleans are those of the full pair loop.
    """
    if not balls:
        return [[] for _ in queries]
    pad = _EPS * (max(abs(b.center) for b in (*queries, *balls)) + 0.5)
    order = sorted(range(len(balls)), key=lambda j: balls[j].center.real)
    xs = [balls[j].center.real for j in order]
    hs = [balls[j].radius + pad for j in order]
    h_max = max(hs)
    out = []
    for q in queries:
        x, h = q.center.real, q.radius + pad
        reach = (h + h_max) * _SWEEP_SLACK
        near = []
        start = bisect.bisect_left(xs, x)
        # rightward then leftward: |dx| grows monotonically in each direction
        for ks, sign in ((range(start, len(xs)), 1.0),
                         (range(start - 1, -1, -1), -1.0)):
            for k in ks:
                dx = (xs[k] - x) * sign
                if dx > reach:
                    break
                if dx <= (h + hs[k]) * _SWEEP_SLACK:
                    near.append(order[k])
        out.append(near)
    return out


def sort_roots(balls) -> list[ComplexBall]:
    """Deterministic order: ascending argument in [0, 2pi), then modulus."""
    def key(b: ComplexBall):
        a = cmath.phase(b.center)
        if a < -1e-15:
            a += 2.0 * math.pi
        return (round(a, 12), abs(b.center))
    return sorted(balls, key=key)
