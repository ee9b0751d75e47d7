"""Strict-mode Galois evidence for the three-lines family.

Default certification treats all fixed points over the roots of one Salem
factor as a single conjugate family (the fixed-point equations have
coefficients polynomial in delta).  Strict mode computes the delta-eliminated
integer polynomial satisfied by the diagonal fixed abscissas and tests its
irreducibility modulo small primes: one success is a sufficient condition for
irreducibility over Q, which is the checkable stand-in for the conjugacy
assumption.  Failure at every prime is recorded and downgrades verdicts to
Inconclusive; it never blocks a run.
"""

from __future__ import annotations

from .certifier import StrictEvidence
from .intpoly import (IntPolynomial, admissible_primes, irreducible_mod_p,
                      resultant, squarefree_part, x_pow_minus_one,
                      x_pow_plus_one)

PRIME_BUDGET = 25  # admissible primes tried before the evidence fails


class _BivarX:
    """Polynomial in x whose coefficients live in Z[delta]."""

    def __init__(self, coeffs_by_x: list[IntPolynomial]):
        c = list(coeffs_by_x)
        while c and c[-1].is_zero:
            c.pop()
        self.c = c

    @staticmethod
    def const(p: IntPolynomial) -> "_BivarX":
        return _BivarX([p])

    @staticmethod
    def linear(const_part: IntPolynomial, x_part: IntPolynomial) -> "_BivarX":
        return _BivarX([const_part, x_part])

    def __mul__(self, other: "_BivarX") -> "_BivarX":
        if not self.c or not other.c:
            return _BivarX([])
        out = [IntPolynomial(()) for _ in range(len(self.c) + len(other.c) - 1)]
        for i, a in enumerate(self.c):
            if a.is_zero:
                continue
            for j, b in enumerate(other.c):
                out[i + j] = out[i + j] + a * b
        return _BivarX(out)

    def __sub__(self, other: "_BivarX") -> "_BivarX":
        n = max(len(self.c), len(other.c))
        def at(poly, k):
            return poly.c[k] if k < len(poly.c) else IntPolynomial(())
        return _BivarX([at(self, k) - at(other, k) for k in range(n)])

    def by_delta_power(self) -> list[IntPolynomial]:
        """Transpose to delta-major: entry d is the x-polynomial at delta^d."""
        if not self.c:
            return []
        dmax = max(p.degree for p in self.c if not p.is_zero)
        out = []
        for d in range(dmax + 1):
            out.append(IntPolynomial(tuple(p[d] for p in self.c)))
        return out


def abscissa_resultant_tl(salem: IntPolynomial, orbit) -> IntPolynomial:
    """Delta-eliminated polynomial vanishing at all diagonal fixed abscissas.

    The diagonal fixed-point equation d prod(1 - x/a_i) = prod(1 - x/b_j) with
    a_i = a_{m_i}(delta), b_j = b_{n_j}(delta) and d = (1+delta)^2/delta clears
    to

      (1+delta)^2 prod(Q_i + x P_i) prod(T_j) = delta prod(T_j - x R_j) prod(Q_i)

    with P_i = delta (delta^{3m_i}-1), Q_i = (delta^3-1)(delta^{3m_i-1}+1),
    R_j = delta^2 (delta^{3n_j}-1), T_j = (delta^3-1)(delta^{3n_j+1}+1); the
    resultant against the Salem polynomial eliminates delta exactly.
    """
    d3 = x_pow_minus_one(3)
    lhs = _BivarX.const(IntPolynomial((1, 2, 1)))  # (1+delta)^2
    for mi in orbit.m:
        p_i = x_pow_minus_one(3 * mi).scale_pow(1)
        q_i = d3 * x_pow_plus_one(3 * mi - 1)
        lhs = lhs * _BivarX.linear(q_i, p_i)
    rhs = _BivarX.const(IntPolynomial((0, 1)))     # delta
    for nj in orbit.n:
        r_j = x_pow_minus_one(3 * nj).scale_pow(2)
        t_j = d3 * x_pow_plus_one(3 * nj + 1)
        rhs = rhs * _BivarX.linear(t_j, -1 * r_j)
    for nj in orbit.n:
        lhs = lhs * _BivarX.const(d3 * x_pow_plus_one(3 * nj + 1))
    for mi in orbit.m:
        rhs = rhs * _BivarX.const(d3 * x_pow_plus_one(3 * mi - 1))
    cleared = lhs - rhs
    eliminated = resultant(salem, cleared.by_delta_power())
    return eliminated.primitive_positive()


def three_lines_strict_evidence(salem: IntPolynomial, orbit) -> StrictEvidence:
    """Mod-p irreducibility evidence for the eliminated abscissa polynomial.

    As in the cuspidal case the minimal-polynomial candidate is the squarefree
    part of the resultant (reciprocal pairs of delta-roots produce repeated
    abscissa factors)."""
    return squarefree_evidence(abscissa_resultant_tl(salem, orbit))


def squarefree_evidence(eliminated: IntPolynomial) -> StrictEvidence:
    """Evidence from a delta-eliminated resultant: its squarefree part, and
    the first of PRIME_BUDGET admissible primes modulo which that part is
    irreducible, if any."""
    candidate = squarefree_part(eliminated)
    for p in admissible_primes(candidate, PRIME_BUDGET):
        if irreducible_mod_p(candidate, p):
            return StrictEvidence(eliminated.degree, candidate.degree, p, True)
    return StrictEvidence(eliminated.degree, candidate.degree, None, False)
