"""Projective points, chordal distance, and affine-chart Jacobians.

A family map object exposes `components(x, y, z)` and `partials(x, y, z)`
returning the three homogeneous components and their 3x3 partial-derivative
matrix.  Both are written once and evaluated with either plain complex
scalars (fast paths, finite-difference oracles) or ComplexBall operands
(certified paths); only +, -, * and integer powers are used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .balls import ComplexBall
from .errors import ChartFailure


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous coordinates, normalized so the largest-modulus one is 1."""

    x: complex
    y: complex
    z: complex

    def __post_init__(self):
        coords = (complex(self.x), complex(self.y), complex(self.z))
        mags = [abs(c) for c in coords]
        m = max(mags)
        if m == 0.0:
            raise ValueError("all coordinates zero")
        pivot = coords[mags.index(m)]
        coords = tuple(c / pivot for c in coords)
        object.__setattr__(self, "x", coords[0])
        object.__setattr__(self, "y", coords[1])
        object.__setattr__(self, "z", coords[2])

    @staticmethod
    def affine(x: complex, y: complex) -> "ProjectivePoint":
        return ProjectivePoint(x, y, 1.0)

    @property
    def coords(self) -> tuple[complex, complex, complex]:
        return (self.x, self.y, self.z)

    @property
    def pivot_index(self) -> int:
        mags = [abs(c) for c in self.coords]
        return mags.index(max(mags))

    def distance(self, other: "ProjectivePoint") -> float:
        """Chordal distance: norm of the cross product of unit representatives."""
        p, q = self.coords, other.coords
        cross = (p[1] * q[2] - p[2] * q[1],
                 p[2] * q[0] - p[0] * q[2],
                 p[0] * q[1] - p[1] * q[0])
        num = math.sqrt(sum(abs(c) ** 2 for c in cross))
        den = math.sqrt(sum(abs(c) ** 2 for c in p)) * \
            math.sqrt(sum(abs(c) ** 2 for c in q))
        return num / den

    def __repr__(self):
        def fmt(c):
            return f"{c.real:+.6g}{c.imag:+.6g}i"
        return f"[{fmt(self.x)} : {fmt(self.y)} : {fmt(self.z)}]"


# chart c: homogeneous coordinate c is held at 1; the local coordinates are
# the remaining two indices in ascending order
_CHART_LOCALS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def chart_point(point: ProjectivePoint, chart: int):
    i, j = _CHART_LOCALS[chart]
    pivot = point.coords[chart]
    if pivot == 0:
        raise ChartFailure(f"point {point} not in chart {chart}")
    return (point.coords[i] / pivot, point.coords[j] / pivot)


def embed_chart(u, v, chart: int):
    """Homogeneous triple for local coordinates (u, v) of a chart."""
    one = 1.0
    if chart == 0:
        return (one, u, v)
    if chart == 1:
        return (u, one, v)
    return (u, v, one)


def chart_jacobian(family_map, point: ProjectivePoint,
                   chart: int | None = None,
                   point_radius: float = 0.0) -> tuple:
    """Certified 2x2 Jacobian of the chart expression of the map at `point`.

    The chart defaults to the pivot coordinate of the (normalized) point; for
    a fixed point the image then lies in the same chart.  Entries follow the
    quotient rule from the homogeneous components and their partials, all in
    ball arithmetic, so the returned matrix ball contains the true derivative.
    point_radius widens the two local coordinates, making the result valid for
    every point within that distance (e.g. a root enclosure rather than its
    center).  Raises ChartFailure if the chart's denominator component
    vanishes.
    """
    if chart is None:
        chart = point.pivot_index
    u, v = chart_point(point, chart)
    i, j = _CHART_LOCALS[chart]
    hom = embed_chart(ComplexBall(complex(u), point_radius),
                      ComplexBall(complex(v), point_radius), chart)
    comps = family_map.components(*hom)
    parts = family_map.partials(*hom)
    den = comps[chart]
    lo, _ = den.abs_bounds()
    if lo <= 0.0:
        raise ChartFailure(f"chart {chart} denominator vanishes at {point}")
    inv_den = den.inverse()
    rows = []
    for out_idx in (i, j):
        row = []
        for var_idx in (i, j):
            num = parts[out_idx][var_idx] * den - comps[out_idx] * parts[chart][var_idx]
            row.append(num * inv_den * inv_den)
        rows.append(tuple(row))
    return tuple(rows)
