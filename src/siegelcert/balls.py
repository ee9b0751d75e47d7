"""Complex ball arithmetic: a double-precision center plus an error radius.

Every operation returns a ball that contains the exact image of every point of
the operand balls (outward rounding).  Radii are inflated by a relative slop of
2^-46 per operation, a safe margin over the 2^-53 unit roundoff of the center
arithmetic, plus a denormal-scale absolute term so exact zeros stay honest.

The certificates produced downstream (root isolation, Salem patterns, interval
membership of trace^2/det values) reduce to inequalities between ball bounds,
so soundness of this module is what makes every "Certified" verdict a theorem
about the true values rather than about floating-point artifacts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import BallDomainError

# Relative rounding slop per operation (>> 2^-53 actual roundoff) and an
# absolute floor that keeps radii positive without drowning tiny quantities.
_EPS = 2.0 ** -46
_TINY = 1e-290


class Verdict(Enum):
    CERTIFIED_IN = "CertifiedIn"
    CERTIFIED_OUT = "CertifiedOut"
    UNKNOWN = "Unknown"


def _pad(center: complex, radius: float) -> float:
    return radius * (1.0 + _EPS) + abs(center) * _EPS + _TINY


@dataclass(frozen=True)
class ComplexBall:
    """Closed disk {z : |z - center| <= radius} in the complex plane."""

    center: complex
    radius: float = 0.0

    def __post_init__(self):
        if not (self.radius >= 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise ValueError(f"center must be finite, got {self.center}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(z) -> "ComplexBall":
        if isinstance(z, ComplexBall):
            return z
        if isinstance(z, int) and abs(z) > 2 ** 52:
            # big integers may not be exactly representable
            c = float(z)
            return ComplexBall(complex(c, 0.0), abs(z - int(c)) * (1.0 + _EPS) + _TINY)
        return ComplexBall(complex(z), 0.0)

    # -- queries -----------------------------------------------------------

    def abs_bounds(self) -> tuple[float, float]:
        """Certified lower/upper bounds for |z| over the ball."""
        a = abs(self.center)
        lo = max(0.0, (a - self.radius) * (1.0 - _EPS))
        hi = (a + self.radius) * (1.0 + _EPS) + _TINY
        return lo, hi

    def real_bounds(self) -> tuple[float, float]:
        return (self.center.real - self.radius * (1.0 + _EPS),
                self.center.real + self.radius * (1.0 + _EPS))

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) <= self.radius * (1.0 + _EPS) + _TINY

    def contains_zero(self) -> bool:
        return self.contains(0.0)

    def meets_real_axis(self) -> bool:
        return abs(self.center.imag) <= self.radius * (1.0 + _EPS) + _TINY

    def disjoint(self, other: "ComplexBall") -> bool:
        gap = abs(self.center - other.center) - (self.radius + other.radius)
        return gap > _EPS * (abs(self.center) + abs(other.center) + 1.0)

    def realize_real(self) -> "ComplexBall":
        """Ball around Re(center) still containing every *real* point of self.

        Only sound when the enclosed true value is known to be real (e.g. a sum
        z + 1/z with |z| = 1 certified); callers state that justification.
        """
        r = self.radius * (1.0 + _EPS) + abs(self.center.imag) * (1.0 + _EPS) + _TINY
        return ComplexBall(complex(self.center.real, 0.0), r)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ComplexBall":
        return ComplexBall(-self.center, self.radius)

    def conjugate(self) -> "ComplexBall":
        return ComplexBall(self.center.conjugate(), self.radius)

    def __add__(self, other) -> "ComplexBall":
        o = ComplexBall.exact(other)
        c = self.center + o.center
        return ComplexBall(c, _pad(c, self.radius + o.radius))

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexBall":
        return self + (-ComplexBall.exact(other))

    def __rsub__(self, other) -> "ComplexBall":
        return ComplexBall.exact(other) + (-self)

    def __mul__(self, other) -> "ComplexBall":
        o = ComplexBall.exact(other)
        c = self.center * o.center
        r = (abs(self.center) * o.radius
             + abs(o.center) * self.radius
             + self.radius * o.radius)
        return ComplexBall(c, _pad(c, r))

    __rmul__ = __mul__

    def inverse(self) -> "ComplexBall":
        """Exact disk image of z -> 1/z (Moebius maps send disks to disks)."""
        a = abs(self.center)
        denom = a * a - self.radius * self.radius
        if denom <= _TINY or a <= self.radius:
            raise BallDomainError(
                f"division through a ball containing 0: {self!r}")
        # center at the exact disk image; only the radius uses the shrunken
        # denominator (growing the disk), so no uncompensated center bias
        c = self.center.conjugate() / denom
        r = self.radius / (denom * (1.0 - 4.0 * _EPS)) + 4.0 * _EPS * abs(c)
        return ComplexBall(c, _pad(c, r))

    def __truediv__(self, other) -> "ComplexBall":
        return self * ComplexBall.exact(other).inverse()

    def __rtruediv__(self, other) -> "ComplexBall":
        return ComplexBall.exact(other) * self.inverse()

    def __pow__(self, n: int) -> "ComplexBall":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ComplexBall.exact(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def sqrt(self) -> "ComplexBall":
        """Analytic square root branch through sqrt(center).

        Requires 0 outside the ball; then some branch of sqrt is analytic on
        the disk and |sqrt'| <= 1/(2 sqrt(|center| - radius)) bounds the spread.
        """
        a = abs(self.center)
        if a <= self.radius + _TINY:
            raise BallDomainError(f"sqrt of a ball containing 0: {self!r}")
        c = cmath.sqrt(self.center)
        lo = (a - self.radius) * (1.0 - _EPS)
        r = self.radius / (2.0 * math.sqrt(lo))
        return ComplexBall(c, _pad(c, r))

    def __repr__(self):
        return f"ComplexBall({self.center!r}, {self.radius:.3e})"


def ball_in_interval(x: ComplexBall, lo: float, hi: float) -> Verdict:
    """Membership of a ball value in the real segment [lo, hi].

    CERTIFIED_OUT: the ball is disjoint from the segment, so the true value is
    certainly outside it.  CERTIFIED_IN demands an exactly real center (the
    realize_real gate, applied only where reality of the true value has been
    certified: conjugate-paired root enclosures, parameter identities at
    certified unit-circle values) with the real range strictly inside [lo, hi].
    Anything else is UNKNOWN.
    """
    if lo > hi:
        raise ValueError("lo must be <= hi")
    # distance from center to the segment [lo, hi] x {0}
    cx, cy = x.center.real, x.center.imag
    dx = max(lo - cx, 0.0, cx - hi)
    dist = math.hypot(dx, cy)
    margin = _EPS * (abs(cx) + abs(cy) + abs(lo) + abs(hi) + 1.0) + _TINY
    if dist > x.radius * (1.0 + _EPS) + margin:
        return Verdict.CERTIFIED_OUT
    rlo, rhi = x.real_bounds()
    if cy == 0.0 and rlo >= lo + margin and rhi <= hi - margin:
        return Verdict.CERTIFIED_IN
    return Verdict.UNKNOWN


def certified_out_margin(x: ComplexBall, lo: float, hi: float) -> float:
    """Certified distance from the ball to [lo, hi]; positive iff CERTIFIED_OUT."""
    cx, cy = x.center.real, x.center.imag
    dx = max(lo - cx, 0.0, cx - hi)
    dist = math.hypot(dx, cy)
    return dist - x.radius * (1.0 + _EPS)
