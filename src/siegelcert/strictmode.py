"""Strict-mode Galois evidence for both families.

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
from .intpoly import (ONE, IntPolynomial, admissible_primes,
                      irreducible_mod_p, resultant, squarefree_part,
                      x_pow_minus_one, x_pow_plus_one)

PRIME_BUDGET = 25  # admissible primes tried before the evidence fails


def _x_product(factors: list[list[IntPolynomial]]) -> list[IntPolynomial]:
    """Product of polynomials in x with Z[delta] coefficients, each given by
    powers of x."""
    out = [ONE]
    for f in factors:
        prod = [IntPolynomial(())] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] = prod[i + j] + a * b
        out = prod
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
    p = [x_pow_minus_one(3 * mi).scale_pow(1) for mi in orbit.m]
    q = [d3 * x_pow_plus_one(3 * mi - 1) for mi in orbit.m]
    r = [x_pow_minus_one(3 * nj).scale_pow(2) for nj in orbit.n]
    t = [d3 * x_pow_plus_one(3 * nj + 1) for nj in orbit.n]
    lhs = _x_product([[IntPolynomial((1, 2, 1))],       # (1+delta)^2
                      *([qi, pi] for qi, pi in zip(q, p)), *([tj] for tj in t)])
    rhs = _x_product([[IntPolynomial((0, 1))],          # delta
                      *([tj, -rj] for tj, rj in zip(t, r)), *([qi] for qi in q)])
    cleared = [a - b for a, b in zip(lhs, rhs)]
    eliminated = resultant(salem, cleared)
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
