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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .balls import ComplexBall
from .errors import ClusterUnresolved, NonConvergence

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 500

_U = 2.0 ** -53


@dataclass(frozen=True)
class ComplexPolynomial:
    """Dense complex-coefficient polynomial; coeffs[k] multiplies x^k."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        c = tuple(complex(v) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)
        if c and not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in c):
            raise ValueError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, z: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + c
        return out

    def eval_with_error(self, z: complex) -> tuple[complex, float]:
        """Horner value plus a running bound on its floating-point error."""
        out = 0j
        s = 0.0
        az = abs(z)
        for c in reversed(self.coeffs):
            out = out * z + c
            s = s * az + abs(c)
        return out, 4.0 * len(self.coeffs) * _U * s


@dataclass(frozen=True)
class RootSet:
    """Certified root enclosures: one ball per root (with multiplicity).

    clusters lists index tuples of overlapping disks; for such a component only
    the *union* is certified to hold exactly len(component) roots.
    """

    balls: tuple[ComplexBall, ...]
    clusters: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def is_simple(self) -> bool:
        return not self.clusters

    def __iter__(self):
        return iter(self.balls)

    def __len__(self):
        return len(self.balls)


def poly_roots(p: ComplexPolynomial, *,
               coeff_radii: tuple[float, ...] | None = None,
               require_simple: bool = False) -> RootSet:
    """All roots of p with certified error disks.

    coeff_radii, when given, widens the certificates so they hold for every
    polynomial whose k-th coefficient lies within coeff_radii[k] of coeffs[k].
    require_simple raises ClusterUnresolved instead of returning flagged
    clusters.  Raises NonConvergence if the sweep stalls without producing a
    cluster explanation.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
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
    with np.errstate(all="ignore"):
        for sweep in range(DEFAULT_MAX_ITER):
            pz = _horner_vec(coeffs, z)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            denom = lc * diff.prod(axis=1)
            w = pz / denom
            bad = ~np.isfinite(w)
            if bad.any():
                w = np.where(bad, 0.0, w)
            z = z - w
            # reseed exploded or non-finite iterates deterministically
            wild = (~np.isfinite(z)) | (np.abs(z) > 16.0 * scale)
            if wild.any():
                z = np.where(
                    wild,
                    0.83 * r0 * np.exp(2j * np.pi * (k + 0.11 * (sweep + 2)) / n),
                    z)
                continue
            if not bad.any() and np.max(np.abs(w)) < DEFAULT_TOL * scale:
                converged = True
                break

    balls, clusters = _certify(p, [complex(v) for v in z], coeff_radii)
    if not converged and not clusters:
        raise NonConvergence(
            f"no convergence after {DEFAULT_MAX_ITER} iterations "
            f"at tol={DEFAULT_TOL:g}")
    if require_simple and clusters:
        raise ClusterUnresolved(
            f"{len(clusters)} root cluster(s) at tol={DEFAULT_TOL:g}")
    return RootSet(tuple(balls), tuple(clusters))


def _horner_vec(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _certify(p: ComplexPolynomial, pts: list[complex],
             coeff_radii) -> tuple[list[ComplexBall], list[tuple[int, ...]]]:
    n = p.degree
    lc_low = abs(p.coeffs[-1])
    if coeff_radii is not None:
        lc_low -= coeff_radii[-1]
        if lc_low <= 0:
            raise ValueError("leading coefficient ball contains 0")
    balls = []
    for i, zi in enumerate(pts):
        val, err = p.eval_with_error(zi)
        if coeff_radii is not None:
            azi = abs(zi)
            s = 0.0
            for r in reversed(coeff_radii):
                s = s * azi + r
            err += s
        prod = 1.0
        for j, zj in enumerate(pts):
            if j != i:
                prod *= abs(zi - zj)
        if prod == 0.0 or not math.isfinite(prod):
            # coincident iterates: fall back to a crude containment disk
            radius = math.inf
        else:
            radius = n * (abs(val) + err) / (lc_low * prod)
        if not math.isfinite(radius):
            # pathological; make the component explicit with a huge disk
            radius = 2.0 * (1.0 + max(abs(q) for q in pts if math.isfinite(abs(q))))
        balls.append(ComplexBall(zi, radius * (1.0 + 2 ** -40) + 1e-300))

    # connected components of the overlap graph
    parent = list(range(len(balls)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if not balls[i].disjoint(balls[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(len(balls)):
        groups.setdefault(find(i), []).append(i)
    clusters = [tuple(g) for g in groups.values() if len(g) > 1]
    clusters.sort()
    return balls, clusters


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
    out = set()
    for i, b in enumerate(balls):
        im = image(b)
        if not im.disjoint(b) and all(
                im.disjoint(o) for j, o in enumerate(balls) if j != i):
            out.add(i)
    return out


def sort_roots(balls) -> list[ComplexBall]:
    """Deterministic order: ascending argument in [0, 2pi), then modulus."""
    def key(b: ComplexBall):
        a = cmath.phase(b.center)
        if a < -1e-15:
            a += 2.0 * math.pi
        return (round(a, 12), abs(b.center))
    return sorted(balls, key=key)
