"""Salem certificates for integer polynomials.

A Salem number is an algebraic unit lambda > 1 whose conjugates include
1/lambda and otherwise lie on the unit circle.  The certificate checks, with
ball arithmetic throughout:

  * monic, even degree >= 4, palindromic coefficients;
  * no cyclotomic polynomial divides (exact integer division);
  * exactly one root disk certifiably outside the closed unit disk and exactly
    one certifiably inside;
  * every remaining root disk is matched to itself under z -> 1/conj(z).

The self-matching step is what certifies |z| = 1 exactly: the coefficients are
real and palindromic, so 1/conj(z) is again a root; if the image disk of a
one-root disk B meets no *other* root disk, that root's conjugate-inverse lies
in B and hence equals the root itself.  Once the pattern holds, the polynomial
is irreducible (a proper monic factor would either split lambda from 1/lambda,
forcing a non-integer constant term, or have all roots on the circle and be
cyclotomic), so its unit-circle roots are provably not roots of unity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .balls import ComplexBall
from .errors import BoundaryUndecidable
from .intpoly import IntPolynomial, strip_cyclotomic
from .roots import ComplexPolynomial, RootSet, poly_roots, sort_roots


@dataclass(frozen=True)
class SalemRejection:
    reason: str

    def __bool__(self):
        return False


@dataclass(frozen=True)
class SalemCertificate:
    lam: ComplexBall                      # the root with |.| > 1 (real)
    inv_lam: ComplexBall                  # its reciprocal partner
    circle_roots: tuple[ComplexBall, ...]  # certified |z| = 1, sorted by argument
    poly: IntPolynomial

    def __bool__(self):
        return True

    @property
    def entropy(self) -> float:
        return math.log(self.lam.center.real)


def is_salem(p: IntPolynomial) -> SalemCertificate | SalemRejection:
    """Salem certificate for p, or a rejection carrying the reason.

    The roots are isolated once, at the default tolerance of poly_roots.  A
    root disk that straddles the unit circle without resolving the pattern
    raises BoundaryUndecidable: double precision cannot decide it.
    """
    if p.is_zero or not p.is_monic:
        return SalemRejection("not monic")
    if p.degree < 4:
        return SalemRejection(f"degree {p.degree} < 4")
    if p.degree % 2 != 0:
        return SalemRejection(f"odd degree {p.degree}")
    if not p.is_palindromic:
        return SalemRejection("not reciprocal")
    rest, cyclo = strip_cyclotomic(p)
    if cyclo:
        return SalemRejection(f"cyclotomic factor(s) {cyclo}")

    rs: RootSet = poly_roots(ComplexPolynomial(tuple(map(float, p.coeffs))))
    if not rs.is_simple:
        raise BoundaryUndecidable("root disks overlap; cannot classify pattern")
    outside, inside, straddle = [], [], []
    for b in rs.balls:
        lo, hi = b.abs_bounds()
        if lo > 1.0:
            outside.append(b)
        elif hi < 1.0:
            inside.append(b)
        else:
            straddle.append(b)
    if len(outside) != 1 or len(inside) != 1:
        if straddle and (len(outside) > 1 or len(inside) > 1):
            raise BoundaryUndecidable(
                f"{len(straddle)} disk(s) straddle the unit circle")
        return SalemRejection(
            f"root pattern: {len(outside)} outside, {len(inside)} inside, "
            f"{len(straddle)} straddling")
    # certify each straddler is self-matched under z -> 1/conj(z)
    for b in straddle:
        image = b.conjugate().inverse()
        for other in rs.balls:
            if other is b:
                continue
            if not image.disjoint(other):
                raise BoundaryUndecidable(
                    "conjugate-inverse image of a boundary disk meets another disk")
        # the conjugate-inverse root lies in some disk and only B qualifies
        if image.disjoint(b):
            raise BoundaryUndecidable(
                "conjugate-inverse image of a boundary disk escapes every disk")
    lam = outside[0]
    if not (lam.center.real - lam.radius > 1.0 and lam.meets_real_axis()):
        return SalemRejection("dominant root not certified real > 1")
    return SalemCertificate(
        lam=lam,
        inv_lam=inside[0],
        circle_roots=tuple(sort_roots(straddle)),
        poly=p,
    )
