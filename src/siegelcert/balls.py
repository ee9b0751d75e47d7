"""Complex ball arithmetic: a double-precision center plus an error radius.

Every operation returns a ball that contains the exact image of every point of
the operand balls (outward rounding).  Radii are inflated by a relative slop of
2^-46 per operation, a safe margin over the 2^-53 unit roundoff of the center
arithmetic, plus a denormal-scale absolute term so exact zeros stay honest.

The certificates produced downstream (root isolation, Salem patterns, interval
membership of trace^2/det values) reduce to inequalities between ball bounds,
so soundness of this module is what makes every "Certified" verdict a theorem
about the true values rather than about floating-point artifacts.

The kernel.  ComplexBall is an immutable slotted value, equal and hashed by
(center, radius).  The public constructor validates its arguments and raises
ValueError for a non-finite center or a negative or non-finite radius.  Every
arithmetic result goes through the trusted constructor _ball(c, r) instead.
It pads r to r (1 + _EPS) + |c| _EPS + _TINY and checks finiteness with one
comparison on the padded radius, which is not finite whenever c or r is not.
When that comparison fails the operation overflowed, and _ball raises
BallDomainError: an overflowing candidate is a diagnosed rejection, not a
crash.

Scalar operands.  +, - and * take a float or an int of magnitude at most 2^52
directly; any other operand (a complex, a number beyond 2^52 in magnitude,
an infinity or NaN) goes through ComplexBall.exact.  A fast path gives the
same center and radius bits as the exact ball would: CPython before 3.14
promotes a real operand x to complex(x, 0.0) before complex arithmetic,
exact(x) has radius 0, and the radius terms that radius 0 zeroes out add
nothing.  Pythons that apply C99 mixed-mode rules instead (3.14 on) keep
signed zeros differently, so there every scalar takes the exact path.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

from .errors import BallDomainError

# Relative rounding slop per operation (>> 2^-53 actual roundoff) and an
# absolute floor that keeps radii positive without drowning tiny quantities.
_EPS = 2.0 ** -46
_ONE_EPS = 1.0 + _EPS  # exact in binary64
_TINY = 1e-290
_INF = math.inf

# Scalars that skip ComplexBall.exact: |x| <= 2^52 makes an int exact as a
# double and keeps out infinities and NaN.  The probe sees whether a real
# operand is promoted to complex(x, 0.0): then -0.0 + 0.0 gives +0.0.
_EXACT_SCALAR = float(2 ** 52)
_PROMOTES_REALS = math.copysign(1.0, (complex(0.0, -0.0) + 0.0).imag) > 0.0
_FAST_SCALARS = (float, int) if _PROMOTES_REALS else ()


class Verdict(Enum):
    CERTIFIED_IN = "CertifiedIn"
    CERTIFIED_OUT = "CertifiedOut"
    UNKNOWN = "Unknown"


class ComplexBall:
    """Closed disk {z : |z - center| <= radius} in the complex plane."""

    # Read-only properties over private slots, as in fractions.Fraction:
    # the trusted constructor stores into the slots directly, and assigning
    # center, radius or an undeclared attribute raises AttributeError.
    __slots__ = ("_center", "_radius")

    def __new__(cls, center, radius=0.0):
        if not (radius >= 0.0 and math.isfinite(radius)):
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        if not (math.isfinite(center.real) and math.isfinite(center.imag)):
            raise ValueError(f"center must be finite, got {center}")
        return _raw(center, radius)

    @property
    def center(self):
        return self._center

    @property
    def radius(self) -> float:
        return self._radius

    def __eq__(self, other):
        if other.__class__ is ComplexBall:
            return (self._center, self._radius) == (other._center, other._radius)
        return NotImplemented

    def __hash__(self):
        return hash((self._center, self._radius))

    # copy and pickle rebuild through the validating constructor; the default
    # for slots would call __new__ without arguments
    def __reduce__(self):
        return (ComplexBall, (self._center, self._radius))

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
        a = abs(self._center)
        lo = max(0.0, (a - self._radius) * (1.0 - _EPS))
        hi = (a + self._radius) * (1.0 + _EPS) + _TINY
        return lo, hi

    def real_bounds(self) -> tuple[float, float]:
        return (self._center.real - self._radius * (1.0 + _EPS),
                self._center.real + self._radius * (1.0 + _EPS))

    def contains(self, z: complex) -> bool:
        return abs(z - self._center) <= self._radius * (1.0 + _EPS) + _TINY

    def contains_zero(self) -> bool:
        return self.contains(0.0)

    def meets_real_axis(self) -> bool:
        return abs(self._center.imag) <= self._radius * (1.0 + _EPS) + _TINY

    def disjoint(self, other: "ComplexBall") -> bool:
        gap = abs(self._center - other._center) - (self._radius + other._radius)
        return gap > _EPS * (abs(self._center) + abs(other._center) + 1.0)

    def realize_real(self) -> "ComplexBall":
        """Ball around Re(center) still containing every *real* point of self.

        Only sound when the enclosed true value is known to be real (e.g. a sum
        z + 1/z with |z| = 1 certified); callers state that justification.
        """
        r = self._radius * (1.0 + _EPS) + abs(self._center.imag) * (1.0 + _EPS) + _TINY
        return ComplexBall(complex(self._center.real, 0.0), r)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "ComplexBall":
        return _raw(-self._center, self._radius)

    def conjugate(self) -> "ComplexBall":
        return _raw(self._center.conjugate(), self._radius)

    def __add__(self, other) -> "ComplexBall":
        if other.__class__ is ComplexBall:
            return _ball(self._center + other._center, self._radius + other._radius)
        if (other.__class__ in _FAST_SCALARS
                and -_EXACT_SCALAR <= other <= _EXACT_SCALAR):
            return _ball(self._center + other, self._radius)
        o = ComplexBall.exact(other)
        return _ball(self._center + o._center, self._radius + o._radius)

    __radd__ = __add__

    def __sub__(self, other) -> "ComplexBall":
        if other.__class__ is ComplexBall:
            return _ball(self._center - other._center, self._radius + other._radius)
        if (other.__class__ in _FAST_SCALARS
                and -_EXACT_SCALAR <= other <= _EXACT_SCALAR):
            return _ball(self._center - other, self._radius)
        o = ComplexBall.exact(other)
        return _ball(self._center - o._center, self._radius + o._radius)

    def __rsub__(self, other) -> "ComplexBall":
        if (other.__class__ in _FAST_SCALARS
                and -_EXACT_SCALAR <= other <= _EXACT_SCALAR):
            return _ball(other - self._center, self._radius)
        o = ComplexBall.exact(other)
        return _ball(o._center - self._center, o._radius + self._radius)

    def __mul__(self, other) -> "ComplexBall":
        if other.__class__ is ComplexBall:
            o = other
        elif (other.__class__ in _FAST_SCALARS
                and -_EXACT_SCALAR <= other <= _EXACT_SCALAR):
            return _ball(self._center * other, abs(other) * self._radius)
        else:
            o = ComplexBall.exact(other)
        c = self._center * o._center
        r = (abs(self._center) * o._radius
             + abs(o._center) * self._radius
             + self._radius * o._radius)
        return _ball(c, r)

    __rmul__ = __mul__

    def inverse(self) -> "ComplexBall":
        """Exact disk image of z -> 1/z (Moebius maps send disks to disks)."""
        a = abs(self._center)
        denom = a * a - self._radius * self._radius
        if denom <= _TINY or a <= self._radius:
            raise BallDomainError(
                f"division through a ball containing 0: {self!r}")
        # center at the exact disk image; only the radius uses the shrunken
        # denominator (growing the disk), so no uncompensated center bias
        c = self._center.conjugate() / denom
        r = self._radius / (denom * (1.0 - 4.0 * _EPS)) + 4.0 * _EPS * abs(c)
        return _ball(c, r)

    def __truediv__(self, other) -> "ComplexBall":
        return self * ComplexBall.exact(other).inverse()

    def __rtruediv__(self, other) -> "ComplexBall":
        return ComplexBall.exact(other) * self.inverse()

    def __pow__(self, n: int) -> "ComplexBall":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return _power([self], n)

    def sqrt(self) -> "ComplexBall":
        """Analytic square root branch through sqrt(center).

        Requires 0 outside the ball; then some branch of sqrt is analytic on
        the disk and |sqrt'| <= 1/(2 sqrt(|center| - radius)) bounds the spread.
        """
        a = abs(self._center)
        if a <= self._radius + _TINY:
            raise BallDomainError(f"sqrt of a ball containing 0: {self!r}")
        c = cmath.sqrt(self._center)
        lo = (a - self._radius) * (1.0 - _EPS)
        r = self._radius / (2.0 * math.sqrt(lo))
        return _ball(c, r)

    def __repr__(self):
        return f"ComplexBall({self._center!r}, {self._radius:.3e})"


_new = object.__new__


def _raw(c, r) -> ComplexBall:
    """A ball with exactly this center and radius, for callers that keep the
    invariants (finite center, finite radius >= 0) by construction."""
    b = _new(ComplexBall)
    b._center = c
    b._radius = r
    return b


def _power(squares: list, n: int) -> ComplexBall:
    """squares[0] ** n by repeated squaring: exact(1) times squares[k] =
    squares[0]^(2^k) for each set bit k of n, ascending.  The squarings
    that squares lacks are appended to it, so powers of one ball formed
    through one list share them; each power has the same bits either way."""
    out = ComplexBall.exact(1)
    k = 0
    while n:
        if k == len(squares):
            squares.append(squares[-1] * squares[-1])
        if n & 1:
            out = out * squares[k]
        n >>= 1
        k += 1
    return out


def _ball(c, r) -> ComplexBall:
    """Trusted constructor of an arithmetic result: center c, radius r >= 0
    padded for rounding.  Raises BallDomainError when the result overflowed."""
    try:
        r = r * _ONE_EPS + abs(c) * _EPS + _TINY
    except OverflowError:  # |c| overflows although both parts are finite
        r = _INF
    if r < _INF:  # _raw inlined: every arithmetic result passes here
        b = _new(ComplexBall)
        b._center = c
        b._radius = r
        return b
    raise BallDomainError(
        f"ball arithmetic overflowed: center {c!r}, radius {r!r}")


# The rotation-number interval: a fixed point's s = Tr^2/Det lies in [0, 4]
# exactly when its eigenvalues have equal modulus, and the parameter ratio
# beta0/alpha0 of the three-lines family is tested against the same segment.
ROTATION_INTERVAL = (0.0, 4.0)


def ball_in_interval(x: ComplexBall) -> Verdict:
    """Membership of a ball value in the real segment ROTATION_INTERVAL.

    CERTIFIED_OUT: the ball is disjoint from the segment, so the true value is
    certainly outside it.  CERTIFIED_IN demands an exactly real center (the
    realize_real gate, applied only where reality of the true value has been
    certified: conjugate-paired root enclosures, parameter identities at
    certified unit-circle values) with the real range strictly inside it.
    Anything else is UNKNOWN.
    """
    lo, hi = ROTATION_INTERVAL
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


def certified_out_margin(x: ComplexBall) -> float:
    """Certified distance from the ball to ROTATION_INTERVAL; positive iff
    CERTIFIED_OUT."""
    lo, hi = ROTATION_INTERVAL
    cx, cy = x.center.real, x.center.imag
    dx = max(lo - cx, 0.0, cx - hi)
    dist = math.hypot(dx, cy)
    return dist - x.radius * (1.0 + _EPS)
