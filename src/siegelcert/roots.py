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

The sweep starts on one circle and has one stopping rule for every caller:
every correction below DEFAULT_TOL times the root scale, or DEFAULT_MAX_ITER
sweeps.  The disks are valid wherever the sweep stops; a tighter stop only
makes them smaller, and so more often disjoint.

A sweep costs Python dispatch more than arithmetic, so each step is one
positional numpy call into work arrays allocated once per polynomial, with
the expression form's operands and so its bits (see poly_roots).  The
certificate keeps CPython's abs of complex values, which numpy's abs does
not always match, and bounds Horner's float error at all points at once.
"""

from __future__ import annotations

import bisect
import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .balls import _EPS, ComplexBall
from .errors import NonConvergence

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
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    if coeff_radii is not None and (
            len(coeff_radii) != len(p.coeffs)
            or not all(0.0 <= r < math.inf for r in coeff_radii)):
        raise ValueError("coeff_radii must hold one finite radius >= 0 per "
                         f"coefficient of the degree-{p.degree} polynomial, "
                         f"got {coeff_radii!r}")
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
    # |z_i - z_j| once per pair: fl(z_j - z_i) = -fl(z_i - z_j) exactly
    upper = [[abs(zi - zj) for zj in pts[i + 1:]] for i, zi in enumerate(pts)]
    balls = []
    for i, (zi, err) in enumerate(zip(pts, errs.tolist())):
        val = 0j
        for c in rev:
            val = val * zi + c
        prod = 1.0
        for j in range(i):
            prod *= upper[j][i - j - 1]
        for dist in upper[i]:
            prod *= dist
        if prod == 0.0 or not math.isfinite(prod):
            # coincident iterates: fall back to a crude containment disk
            radius = math.inf
        else:
            radius = n * (abs(val) + err) / (lc_low * prod)
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


def self_paired(balls, image) -> set[int]:
    """Indices i whose image disk image(balls[i]) meets balls[i] and no other
    disk.

    The lemma: let balls be a simple root enclosure (each disk holds exactly
    one root) of a polynomial whose root set is invariant under an involution
    sigma, and let image(B) enclose sigma(B).  If image(B_i) meets no other
    disk, sigma of B_i's root is a root lying in image(B_i), hence in B_i, and
    so equals the root itself: the disk holds a root that sigma fixes.  With
    sigma(z) = conj(z) (real coefficients) that root is real; with
    sigma(z) = 1/conj(z) (real palindromic coefficients) it has |z| = 1.
    """
    images = [image(b) for b in balls]
    nears = _undecided_pairs(images, balls)
    out = set()
    for i, (im, near) in enumerate(zip(images, nears)):
        if not im.disjoint(balls[i]) and all(
                im.disjoint(balls[j]) for j in near if j != i):
            out.add(i)
    return out


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
