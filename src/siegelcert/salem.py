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

from .balls import ComplexBall
from .errors import BoundaryUndecidable, NoSalemFactor
from .intpoly import IntPolynomial, strip_cyclotomic
from .roots import ComplexPolynomial, RootSet, poly_roots, self_paired, sort_roots


@dataclass(frozen=True)
class SalemCertificate:
    lam: ComplexBall                      # the root with |.| > 1 (real)
    inv_lam: ComplexBall                  # its reciprocal partner
    circle_roots: tuple[ComplexBall, ...]  # certified |z| = 1, sorted by argument
    poly: IntPolynomial

    @property
    def entropy(self) -> float:
        return math.log(self.lam.center.real)


def is_salem(p: IntPolynomial) -> SalemCertificate:
    """Salem certificate for the non-cyclotomic part of p; raises
    NoSalemFactor with the reason when that part is not a Salem polynomial.

    The cyclotomic factors of p are divided out once, exactly; the rest is
    the certified polynomial cert.poly, not p.  Its roots are isolated once,
    at the default tolerance of poly_roots.  A root disk that straddles the
    unit circle without resolving the pattern raises BoundaryUndecidable:
    double precision cannot decide it.
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

    rs: RootSet = poly_roots(ComplexPolynomial(tuple(map(float, rest.coeffs))))
    if not rs.is_simple:
        raise BoundaryUndecidable("root disks overlap; cannot classify pattern")
    outside, inside, straddle = [], [], []
    for i, b in enumerate(rs.balls):
        lo, hi = b.abs_bounds()
        if lo > 1.0:
            outside.append(b)
        elif hi < 1.0:
            inside.append(b)
        else:
            straddle.append(i)
    if len(outside) != 1 or len(inside) != 1:
        if straddle and (len(outside) > 1 or len(inside) > 1):
            raise BoundaryUndecidable(
                f"{len(straddle)} disk(s) straddle the unit circle")
        raise NoSalemFactor(
            f"root pattern: {len(outside)} outside, {len(inside)} inside, "
            f"{len(straddle)} straddling")
    on_circle = self_paired(rs.balls, lambda b: b.conjugate().inverse())
    if not on_circle.issuperset(straddle):
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
