"""Salem certificates for integer polynomials.

A Salem number is an algebraic unit lambda > 1 whose conjugates include
1/lambda and otherwise lie on the unit circle.  The certificate checks, with
ball arithmetic throughout:

  * cyclotomic factors are divided out exactly first, and the rest is
    monic, of even degree >= 4, with palindromic coefficients;
  * exactly one root disk certifiably outside the closed unit disk and exactly
    one certifiably inside;
  * every remaining root disk is self-paired (roots.self_paired) under
    z -> 1/conj(z), which the real palindromic coefficients make a symmetry of
    the roots; by the lemma stated there, each such disk holds a root with
    |z| = 1 exactly.

The pattern and the pairing are decided over numpy arrays of the disks with
the float operations of ComplexBall.abs_bounds, inverse and disjoint, so
they answer as the per-ball checks would.

The rest is cert.poly, the certified polynomial.  Once the pattern holds,
it is irreducible (a proper monic factor would either split lambda from
1/lambda, forcing a non-integer constant term, or have all roots on the
circle and be cyclotomic, which the exact division ruled out), so its
unit-circle roots are provably not roots of unity.  A polynomial that fails
a structural or pattern check raises NoSalemFactor with the reason; one
whose pattern double precision cannot decide raises BoundaryUndecidable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .balls import _EPS, _TINY, ComplexBall
from .errors import BallDomainError, BoundaryUndecidable, NoSalemFactor
from .intpoly import IntPolynomial, strip_cyclotomic
from .roots import ComplexPolynomial, RootSet, poly_roots, self_paired, sort_roots


@dataclass(frozen=True)
class SalemCertificate:
    """A certified Salem polynomial and its root disks.  conjugate_roots
    pairs the circle roots whose centers are exact float conjugates; the
    pairing lemma there shows that their roots are conjugate and lie in
    the smaller of the two radii around each center."""

    lam: ComplexBall                      # the root with |.| > 1 (real)
    inv_lam: ComplexBall                  # its reciprocal partner
    circle_roots: tuple[ComplexBall, ...]  # certified |z| = 1, sorted by argument
    poly: IntPolynomial

    @property
    def entropy(self) -> float:
        return math.log(self.lam.center.real)

    @cached_property
    def circle_root_set(self) -> frozenset[ComplexBall]:
        """circle_roots as a set, built once per certificate."""
        return frozenset(self.circle_roots)

    @cached_property
    def conjugate_roots(self) -> dict[ComplexBall, ComplexBall]:
        """Each circle root whose center's exact float conjugate is the
        center of another circle root, mapped to that root; built once per
        certificate.

        Pairing lemma: poly has real coefficients, so the conjugate of a
        root is a root.  Let b.center == a.center.conjugate() and, say,
        b.radius <= a.radius.  The conjugate of b's root lies in the disk
        of center a.center and radius b.radius, inside a's disk, which holds
        exactly one root because the disks are pairwise disjoint (is_salem
        checks is_simple).  So the two roots are conjugate, and each lies in
        the disk of its own center and the smaller radius of the two."""
        by_center = {b.center: b for b in self.circle_roots}
        pairs = {}
        for a in self.circle_roots:
            b = by_center.get(a.center.conjugate())
            if b is not None and b is not a:
                pairs[a] = b
        return pairs


def _float_coefficients(p: IntPolynomial):
    """p's coefficients as floats, and poly_roots' coeff_radii for them:
    None when every conversion is exact, else each exact conversion error
    (nonzero beyond 2^53) rounded up, so the disks hold for p itself.  A
    coefficient beyond double range raises BallDomainError."""
    try:
        floats = tuple(map(float, p.coeffs))
    except OverflowError:
        raise BallDomainError("a coefficient is out of double range") from None
    errors = [abs(c - int(f)) for c, f in zip(p.coeffs, floats)]
    if not any(errors):
        return floats, None
    return floats, tuple(math.nextafter(float(e), math.inf)
                         if int(float(e)) < e else float(e) for e in errors)


def is_salem(p: IntPolynomial) -> SalemCertificate:
    """Salem certificate for the non-cyclotomic part of p; raises
    NoSalemFactor with the reason when that part is not a Salem polynomial.

    The cyclotomic factors of p are divided out once, exactly; the rest is
    the certified polynomial cert.poly, not p.  Its roots are isolated once,
    at the default tolerance of poly_roots.  Unless exactly one disk is
    certified outside the unit circle and one inside, the pattern fails:
    two or more on one side prove that the polynomial is not Salem
    (NoSalemFactor); else a disk that straddles the circle may hold lambda
    or 1/lambda, and double precision cannot decide (BoundaryUndecidable);
    else NoSalemFactor.
    """
    if p.is_zero:
        raise NoSalemFactor("zero polynomial")
    rest, cyclo = strip_cyclotomic(p)
    if rest.degree < 4:
        raise NoSalemFactor(
            f"non-cyclotomic part has degree {rest.degree} < 4 "
            f"(cyclotomic factors {cyclo})")
    if not rest.is_monic:
        raise NoSalemFactor("not monic")
    if rest.degree % 2 != 0:
        raise NoSalemFactor(f"odd degree {rest.degree}")
    if not rest.is_palindromic:
        raise NoSalemFactor("not reciprocal")

    floats, coeff_radii = _float_coefficients(rest)
    rs: RootSet = poly_roots(ComplexPolynomial(floats), coeff_radii=coeff_radii)
    if not rs.is_simple:
        raise BoundaryUndecidable("root disks overlap; cannot classify pattern")
    # ComplexBall.abs_bounds of every disk at once: np.hypot is the libm
    # hypot that CPython's abs(complex) calls
    centers = np.array([b.center for b in rs.balls])
    radii = np.array([b.radius for b in rs.balls])
    modulus = np.hypot(centers.real, centers.imag)
    is_out = (modulus - radii) * (1.0 - _EPS) > 1.0
    is_in = ~is_out & ((modulus + radii) * (1.0 + _EPS) + _TINY < 1.0)
    outside = [rs.balls[i] for i in np.flatnonzero(is_out)]
    inside = [rs.balls[i] for i in np.flatnonzero(is_in)]
    straddle = np.flatnonzero(~(is_out | is_in)).tolist()
    if len(outside) != 1 or len(inside) != 1:
        if straddle and len(outside) <= 1 and len(inside) <= 1:
            raise BoundaryUndecidable(
                f"{len(straddle)} disk(s) straddle the unit circle")
        raise NoSalemFactor(
            f"root pattern: {len(outside)} outside, {len(inside)} inside, "
            f"{len(straddle)} straddling")
    if not self_paired(centers, radii, straddle).all():
        raise BoundaryUndecidable(
            "a boundary disk is not self-paired under z -> 1/conj(z)")
    lam = outside[0]
    if not (lam.center.real - lam.radius > 1.0 and lam.meets_real_axis()):
        raise NoSalemFactor("dominant root not certified real > 1")
    return SalemCertificate(
        lam=lam,
        inv_lam=inside[0],
        circle_roots=tuple(sort_roots(rs.balls[i] for i in straddle)),
        poly=rest,
    )
