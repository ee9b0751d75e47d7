"""Exact integer-coefficient polynomial algebra.

Coefficients are Python bigints, index = degree of the term.  Everything here
is exact: cyclotomic stripping is trial exact division, resultants are
fraction-free Sylvester determinants over Z[x], and the mod-p irreducibility
test works over GF(p).  No floating point enters except in eval_ball, which
wraps honest conversion error for coefficients beyond 2^53.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .balls import ComplexBall
from .errors import BadPrime, CheckFailed, DegreeOverflow


@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...]  # coeffs[k] multiplies x^k; leading coeff nonzero

    def __post_init__(self):
        c = tuple(int(v) for v in self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    # -- basics --------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def is_palindromic(self) -> bool:
        return self.coeffs == tuple(reversed(self.coeffs))

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self[k] + other[k] for k in range(n)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPolynomial(tuple(self[k] - other[k] for k in range(n)))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def scale_pow(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def try_exact_div(self, divisor: "IntPolynomial"):
        """Quotient if divisor divides self exactly over Z, else None."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return IntPolynomial(())
        if self.degree < divisor.degree:
            return None
        rem = list(self.coeffs)
        dc = divisor.coeffs
        lead = dc[-1]
        qdeg = self.degree - divisor.degree
        q = [0] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            c = rem[k + len(dc) - 1]
            if c % lead != 0:
                return None
            f = c // lead
            q[k] = f
            if f:
                for j, d in enumerate(dc):
                    rem[k + j] -= f * d
        if any(rem[: len(dc) - 1]):
            return None
        return IntPolynomial(tuple(q))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def reversed(self) -> "IntPolynomial":
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        return g

    def primitive_positive(self) -> "IntPolynomial":
        """Divide out the content and normalize the leading coefficient > 0."""
        if self.is_zero:
            return self
        g = self.content()
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPolynomial(tuple(c // (sign * g) for c in self.coeffs))

    # -- evaluation ------------------------------------------------------

    def eval_int(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def eval_complex(self, z: complex) -> complex:
        out = 0 + 0j
        for c in reversed(self.coeffs):
            out = out * z + float(c)
        return out

    def eval_ball(self, z: ComplexBall) -> ComplexBall:
        out = ComplexBall.exact(0)
        for c in reversed(self.coeffs):
            out = out * z + ComplexBall.exact(c)
        return out

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if not c:
                continue
            term = "1" if (abs(c) == 1 and k > 0) else str(abs(c))
            if k == 1:
                term += "*t" if term != "1" else "t"
            elif k > 1:
                term = (term + "*" if term != "1" else "") + f"t^{k}"
            parts.append(("- " if c < 0 else "+ " if parts else "") + term)
        return " ".join(parts)


ONE = IntPolynomial((1,))


def x_pow_plus_one(e: int) -> IntPolynomial:
    """x^e + 1, for e >= 1."""
    return IntPolynomial((1,) + (0,) * (e - 1) + (1,))


def x_pow_minus_one(e: int) -> IntPolynomial:
    """x^e - 1, for e >= 1."""
    return IntPolynomial((-1,) + (0,) * (e - 1) + (1,))


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

@functools.cache
def cyclotomic(k: int) -> IntPolynomial:
    """k-th cyclotomic polynomial via exact division of x^k - 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    p = x_pow_minus_one(k)
    for d in range(1, k):
        if k % d == 0:
            q = p.try_exact_div(cyclotomic(d))
            if q is None:
                raise CheckFailed(f"cyclotomic recursion failed at k={k}, d={d}")
            p = q
    return p


@functools.cache
def _totient_table(limit: int) -> tuple[int, ...]:
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # i prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return tuple(phi)


def cyclotomic_indices(max_degree: int) -> list[int]:
    """All k with euler_phi(k) <= max_degree, ascending."""
    if max_degree < 1:
        return [1, 2] if max_degree >= 0 else []
    # phi(k) >= sqrt(k/2), so phi(k) > d for all k > 2 d^2 + 1
    limit = 2 * max_degree * max_degree + 2
    phi = _totient_table(limit)
    return [k for k in range(1, limit + 1) if phi[k] <= max_degree]


def strip_cyclotomic(p: IntPolynomial) -> tuple[IntPolynomial, list[int]]:
    """Divide out every cyclotomic factor (with multiplicity).

    Returns (rest, factors) with rest * prod(cyclotomic(k) for k in factors) == p
    exactly; factors lists the cyclotomic indices in ascending order, repeated
    per multiplicity.  Candidate indices are the k with euler_phi(k) <= deg p.
    A cheap numeric screen (vanishing at one primitive k-th root of unity)
    gates the exact divisions; divisibility itself is always proved exactly.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    rest = p
    factors: list[int] = []
    for k in cyclotomic_indices(p.degree):
        if k > 2 and not _unity_root_screen(rest, k):
            continue
        phi_k = cyclotomic(k)
        if phi_k.degree > rest.degree:
            continue
        while True:
            q = rest.try_exact_div(phi_k)
            if q is None:
                break
            rest = q
            factors.append(k)
            if rest.degree < phi_k.degree:
                break
    return rest, factors


def _unity_root_screen(p: IntPolynomial, k: int) -> bool:
    """Fast necessary condition for cyclotomic(k) | p: p nearly vanishes at a
    primitive k-th root of unity.  Degrees or coefficients too large for a
    trustworthy float evaluation pass the screen unconditionally."""
    if p.degree > 4096 or max(abs(c) for c in p.coeffs) > 2 ** 48:
        return True
    z = cmath.exp(2j * cmath.pi / k)
    val = 0j
    scale = 0.0
    for c in reversed(p.coeffs):
        val = val * z + c
        scale = scale + abs(c)
    return abs(val) <= 1e-8 * max(scale, 1.0)


def rebuild(rest: IntPolynomial, factors: list[int]) -> IntPolynomial:
    out = rest
    for k in factors:
        out = out * cyclotomic(k)
    return out


# ---------------------------------------------------------------------------
# resultants (Sylvester determinant, fraction-free over Z[x])
# ---------------------------------------------------------------------------

SYLVESTER_DIM_CAP = 192


def resultant(p: IntPolynomial, q_coeffs: list[IntPolynomial],
              dim_cap: int = SYLVESTER_DIM_CAP) -> IntPolynomial:
    """Eliminate t from p(t) = 0 and q(t, x) = 0.

    p is a polynomial in the eliminated variable t; q is given by its t-power
    coefficients, each an IntPolynomial in x.  Returns the Sylvester resultant
    with the q-rows placed first, i.e. lc_t(q)^deg(p) * prod_{q(b,x)=0} p(b),
    as an exact polynomial in x.  Bareiss fraction-free elimination keeps all
    intermediate entries in Z[x].
    """
    if p.is_zero:
        raise ValueError("p must be nonzero")
    qc = list(q_coeffs)
    while qc and qc[-1].is_zero:
        qc.pop()
    if not qc:
        raise ValueError("q must be nonzero")
    m = p.degree          # rows of q
    n = len(qc) - 1       # rows of p
    dim = m + n
    if dim > dim_cap:
        raise DegreeOverflow(f"Sylvester dimension {dim} exceeds cap {dim_cap}")
    if dim == 0:
        return ONE
    zero = IntPolynomial(())
    rows: list[list[IntPolynomial]] = []
    qrev = list(reversed(qc))  # leading first
    for i in range(m):
        rows.append([zero] * i + qrev + [zero] * (dim - n - 1 - i))
    prev = list(reversed([IntPolynomial((c,)) for c in p.coeffs]))
    for i in range(n):
        rows.append([zero] * i + prev + [zero] * (dim - m - 1 - i))
    return _bareiss_det(rows)


def _bareiss_det(rows: list[list[IntPolynomial]]) -> IntPolynomial:
    n = len(rows)
    sign = 1
    denom = ONE
    for k in range(n - 1):
        if rows[k][k].is_zero:
            for i in range(k + 1, n):
                if not rows[i][k].is_zero:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return IntPolynomial(())
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = rows[i][j] * pivot - rows[i][k] * rows[k][j]
                q = num.try_exact_div(denom)
                if q is None:
                    raise CheckFailed("Bareiss exact division failed")
                rows[i][j] = q
            rows[i][k] = IntPolynomial(())
        denom = pivot
    det = rows[n - 1][n - 1]
    return det if sign == 1 else -det


# ---------------------------------------------------------------------------
# gcd and squarefree part over Z[x]
# ---------------------------------------------------------------------------

def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced by b."""
    if b.is_zero:
        raise ZeroDivisionError("pseudo-remainder by zero")
    r = a
    lead = b.coeffs[-1]
    while not r.is_zero and r.degree >= b.degree:
        shift = r.degree - b.degree
        r = r * lead - (b * r.coeffs[-1]).scale_pow(shift)
    return r


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive positive gcd in Z[x] (Euclid on pseudo-remainders)."""
    a = p.primitive_positive()
    b = q.primitive_positive()
    if a.is_zero:
        return b
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, (r.primitive_positive() if not r.is_zero else r)
    return a.primitive_positive()


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """The product of the distinct irreducible factors of p, primitive and
    with positive leading coefficient."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    pp = p.primitive_positive()
    if pp.degree < 1:
        return pp
    g = poly_gcd(pp, pp.derivative())
    q = pp.try_exact_div(g)
    if q is None:
        raise CheckFailed("gcd does not divide the primitive polynomial over Z")
    return q.primitive_positive()


# ---------------------------------------------------------------------------
# irreducibility over GF(p)
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _gf_rem(out, mod, p)


def _gf_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            f = c * inv_lead % p
            for j in range(len(mod)):
                a[k - dm + j] = (a[k - dm + j] - f * mod[j]) % p
    del a[dm:]
    return _gf_trim(a)

def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _gf_trim(list(a)), _gf_trim(list(b))
    while b:
        a, b = b, _gf_rem(a, b, p)
    if a:  # normalize monic
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _gf_powmod_x(e: int, mod: list[int], p: int) -> list[int]:
    """x^e mod (mod, p) by square and multiply."""
    result = [1]
    base = _gf_rem([0, 1], mod, p)
    while e:
        if e & 1:
            result = _gf_mulmod(result, base, mod, p)
        base = _gf_mulmod(base, base, mod, p)
        e >>= 1
    return result


def irreducible_mod_p(poly: IntPolynomial, prime: int) -> bool:
    """Whether poly mod prime is irreducible over GF(prime).

    Distinct-degree style test: for f of degree n, f is irreducible iff
    x^(p^n) = x mod f and gcd(x^(p^(n/l)) - x, f) = 1 for every prime l | n.
    Irreducibility mod a prime not dividing the leading coefficient is a
    sufficient (not necessary) condition for irreducibility over Q.
    """
    if not _is_prime(prime):
        raise BadPrime(f"{prime} is not prime")
    if poly.is_zero or poly.coeffs[-1] % prime == 0:
        raise BadPrime(f"{prime} divides the leading coefficient")
    f = _gf_trim([c % prime for c in poly.coeffs])
    n = len(f) - 1
    if n == 0:
        return False
    if n == 1:
        return True
    # x^(p^n) == x mod f
    top = _gf_powmod_x(prime ** n, f, prime)
    if _gf_trim(top) != [0, 1]:
        return False
    for ell in _prime_divisors(n):
        e = prime ** (n // ell)
        xe = _gf_powmod_x(e, f, prime)
        diff = list(xe)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % prime
        g = _gf_gcd(diff, f, prime)
        if len(g) - 1 != 0:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def admissible_primes(poly: IntPolynomial, count: int) -> list[int]:
    """First `count` primes not dividing the leading coefficient."""
    out = []
    n = 2
    lead = abs(poly.coeffs[-1])
    while len(out) < count:
        if _is_prime(n) and lead % n != 0:
            out.append(n)
        n += 1
    return out
