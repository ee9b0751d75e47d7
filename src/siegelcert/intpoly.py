"""Exact integer-coefficient polynomial algebra.

Coefficients are Python bigints, index = degree of the term.  Everything here
is exact: cyclotomic stripping is trial exact division, and the mod-p
irreducibility test runs Rabin's criterion on the Frobenius matrix over GF(p).
Stripping tries the indices k with euler_phi(k) <= deg p, found below the
Rosser-Schoenfeld bound n / phi(n) < e^gamma ln ln n + 3 / ln ln n, and a
float screen (p nearly vanishing at a primitive k-th root of unity, all k
in one numpy pass) only decides which exact divisions are attempted.
The resultant eliminates t from p(t) and q(t, x), with q given by powers of x
(q[k] is the Z[t] coefficient of x^k).  Its x-degree is at most
(len(q) - 1) * deg p, and its sign is that of the Sylvester determinant with
the q-rows first.  It is computed by the subresultant PRS at integer points
and interpolated exactly in Z[x].  No floating point enters a result except
in eval_ball, which wraps honest conversion error for coefficients beyond 2^53.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .balls import ComplexBall
from .errors import BadPrime, CheckFailed

_E_GAMMA = math.exp(0.5772156649015329)  # e to the Euler-Mascheroni constant


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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return _int_poly(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            out[k] -= c
        return _int_poly(out)

    def __neg__(self) -> "IntPolynomial":
        return _int_poly([-c for c in self.coeffs])

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return _int_poly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return _int_poly([])
        # the x^k +- 1 factors and most cyclotomic divisors are sparse
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    out[i + j] += a * b
        return _int_poly(out)

    __rmul__ = __mul__

    def scale_pow(self, k: int) -> "IntPolynomial":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return _int_poly([0] * k + list(self.coeffs))

    def try_exact_div(self, divisor: "IntPolynomial"):
        """Quotient if divisor divides self exactly over Z, else None."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return _int_poly([])
        if self.degree < divisor.degree:
            return None
        rem = list(self.coeffs)
        dc = divisor.coeffs
        lead = dc[-1]
        # the leading term is left out: it only cancels rem's top entry,
        # which is never read again
        terms = [(j, d) for j, d in enumerate(dc[:-1]) if d]
        qdeg = self.degree - divisor.degree
        q = [0] * (qdeg + 1)
        for k in range(qdeg, -1, -1):
            c = rem[k + len(dc) - 1]
            if c % lead != 0:
                return None
            f = c // lead
            q[k] = f
            if f:
                for j, d in terms:
                    rem[k + j] -= f * d
        if any(rem[: len(dc) - 1]):
            return None
        return _int_poly(q)

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


def _int_poly(coeffs: list[int]) -> IntPolynomial:
    """Trusted constructor for arithmetic results, as balls._ball: coeffs is
    a fresh list of ints, so only its trailing zeros are dropped."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    out = object.__new__(IntPolynomial)
    object.__setattr__(out, "coeffs", tuple(coeffs))
    return out


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


def _totient_exceeds_from(d: int) -> int:
    """An n0 >= 3 with euler_phi(n) > d for every n >= n0 (2043 at d = 400,
    where the largest k with euler_phi(k) <= 400 is 1680).

    Rosser and Schoenfeld (1962, Theorem 15) give n / phi(n) < e^gamma ln ln n
    + 2.51 / ln ln n for n >= 3, so phi(n) > g(n) = n / (e^gamma L + 3 / L)
    with L = ln ln n > 0.  g increases for n >= 3: with f = e^gamma L + 3 / L,
    n g'(n) / g(n) = 1 - n f'(n) / f, where n f'(n) = (e^gamma - 3 / L^2) / ln n
    is at most e^gamma / ln 3 < 1.7 and f >= 2 sqrt(3 e^gamma) > 4.6.  So
    phi(n) > d for every n >= n0 once g(n0) > d + 1; the extra 1 absorbs the
    rounding of g in floating point.  n0 is found by doubling, then bisection.
    """
    def g(n: int) -> float:
        lnln = math.log(math.log(n))
        return n / (_E_GAMMA * lnln + 3.0 / lnln)

    hi = 6  # g(6) < 1, so the loop runs at least once
    while g(hi) <= d + 1:
        hi *= 2
    lo = hi // 2  # the last hi with g(hi) <= d + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(mid) > d + 1:
            hi = mid
        else:
            lo = mid
    return hi


def cyclotomic_indices(max_degree: int) -> list[int]:
    """All k with euler_phi(k) <= max_degree, ascending.

    The totients are sieved below _totient_exceeds_from(max_degree), the
    Rosser-Schoenfeld bound past which euler_phi(k) > max_degree."""
    if max_degree < 1:
        return [1, 2] if max_degree >= 0 else []
    limit = _totient_exceeds_from(max_degree) - 1
    phi = _totient_table(limit)
    return [k for k in range(1, limit + 1) if phi[k] <= max_degree]


def strip_cyclotomic(p: IntPolynomial) -> tuple[IntPolynomial, list[int]]:
    """Divide out every cyclotomic factor (with multiplicity).

    Returns (rest, factors) with rest * prod(cyclotomic(k) for k in factors) == p
    exactly; factors lists the cyclotomic indices in ascending order, repeated
    per multiplicity.  Candidate indices are the k with euler_phi(k) <= deg p.

    A numeric screen gates the exact divisions for k > 2: one numpy Horner
    pass evaluates p at a primitive k-th root of unity for every candidate k
    at once, and k survives when |p(z_k)| <= 1e-8 * max(sum |c|, 1).  That is
    a necessary condition for cyclotomic(k) to divide any remaining cofactor,
    since the cofactor divides p and p(z_k) = 0 exactly; float error at
    degree <= 4096 and coefficients <= 2^48 stays far below the tolerance.
    Larger inputs pass the screen unconditionally.  Divisibility itself is
    always decided by exact division.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    indices = cyclotomic_indices(p.degree)
    screened = set(indices)
    if p.degree <= 4096 and max(abs(c) for c in p.coeffs) <= 2 ** 48:
        high = np.array([k for k in indices if k > 2], dtype=float)
        z = np.exp(2j * np.pi / high)
        val = np.zeros_like(z)
        for c in reversed(p.coeffs):
            val *= z
            val += c
        tol = 1e-8 * max(float(sum(abs(c) for c in p.coeffs)), 1.0)
        screened = {1, 2} | {int(k) for k in high[np.abs(val) <= tol]}
    rest = p
    factors: list[int] = []
    for k in indices:
        if k not in screened:
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


def rebuild(rest: IntPolynomial, factors: list[int]) -> IntPolynomial:
    out = rest
    for k in factors:
        out = out * cyclotomic(k)
    return out


# ---------------------------------------------------------------------------
# resultants (evaluation at integers, subresultant PRS, exact interpolation)
# ---------------------------------------------------------------------------

def resultant(p: IntPolynomial, q: list[IntPolynomial]) -> IntPolynomial:
    """Eliminate t from p(t) = 0 and q(t, x) = 0.

    p is a polynomial in the eliminated variable t; q is given by powers of x,
    q[k] being the Z[t] coefficient of x^k.  Returns the Sylvester resultant
    with the q-rows placed first, i.e. lc_t(q)^deg(p) * prod_{q(b,x)=0} p(b),
    as an exact polynomial in x.  Only the deg(p) q-rows depend on x, so its
    x-degree is at most (len(q) - 1) * deg(p).  It is evaluated at that many
    plus one integers (0, 1, -1, 2, ..., skipping each x0 where q(t, x0) drops
    below deg_t(q), i.e. the roots of lc_t(q)) by the subresultant PRS and
    interpolated exactly in Z[x].
    """
    if p.is_zero:
        raise ValueError("p must be nonzero")
    q = list(q)
    while q and q[-1].is_zero:
        q.pop()
    if not q:
        raise ValueError("q must be nonzero")
    deg_t = max(c.degree for c in q)
    need = p.degree * (len(q) - 1) + 1
    xs, ys = [], []
    x0 = 0
    while len(xs) < need:
        powers = [x0 ** k for k in range(len(q))]
        q0 = IntPolynomial(tuple(sum(w * c[d] for w, c in zip(powers, q))
                                 for d in range(deg_t + 1)))
        if q0.degree == deg_t:
            xs.append(x0)
            ys.append(_int_resultant(q0, p))
        x0 = -x0 if x0 > 0 else 1 - x0
    return _interpolate(xs, ys)


def _int_resultant(a: IntPolynomial, b: IntPolynomial) -> int:
    """Sylvester resultant of nonzero a, b in Z[t], a-rows first, by the
    subresultant PRS (Collins, J. ACM 18, 1971)."""
    if a.degree == 0 or b.degree == 0:
        return a.coeffs[0] ** b.degree * b.coeffs[0] ** a.degree
    ca, cb = a.content(), b.content()
    t = ca ** b.degree * cb ** a.degree
    a = IntPolynomial(tuple(c // ca for c in a.coeffs))
    b = IntPolynomial(tuple(c // cb for c in b.coeffs))
    s = g = h = 1
    if a.degree < b.degree:
        a, b = b, a
        if a.degree % 2 and b.degree % 2:
            s = -1
    while b.degree > 0:
        delta = a.degree - b.degree
        if a.degree % 2 and b.degree % 2:
            s = -s
        r = _pseudo_rem(a, b)
        div = g * h ** delta
        a, b = b, IntPolynomial(tuple(_exact_div(c, div) for c in r.coeffs))
        g = a.coeffs[-1]
        h = _exact_div(g ** delta, h ** (delta - 1)) if delta else h
    if b.is_zero:
        return 0
    return s * t * _exact_div(b.coeffs[0] ** a.degree, h ** (a.degree - 1))


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise CheckFailed("subresultant exact division failed")
    return q


def _interpolate(xs: list[int], ys: list[int]) -> IntPolynomial:
    """The polynomial of degree < len(xs) through (xs, ys), by Newton divided
    differences.  At distinct integer nodes these are all integers exactly
    when the interpolant lies in Z[x]; CheckFailed otherwise."""
    dd = list(ys)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            q, r = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - k])
            if r:
                raise CheckFailed("resultant interpolant is not integral")
            dd[i] = q
    out: list[int] = []
    for xk, ck in zip(reversed(xs), reversed(dd)):
        out = [0] + out                      # out * x ...
        for i in range(len(out) - 1):
            out[i] -= xk * out[i + 1]        # ... - xk * out
        out[0] += ck
    return IntPolynomial(tuple(out))


# ---------------------------------------------------------------------------
# gcd and squarefree part over Z[x]
# ---------------------------------------------------------------------------

def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced by b."""
    if b.is_zero:
        raise ZeroDivisionError("pseudo-remainder by zero")
    r = a
    lead = b.coeffs[-1]
    steps = a.degree - b.degree + 1
    while not r.is_zero and r.degree >= b.degree:
        shift = r.degree - b.degree
        r = r * lead - (b * r.coeffs[-1]).scale_pow(shift)
        steps -= 1
    return r * lead ** steps if steps > 0 else r


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

    Rabin's test: f of degree n is irreducible iff x^(p^n) = x mod f and
    gcd(x^(p^(n/l)) - x, f) = 1 for every prime l | n.  The iterates come
    from the Frobenius matrix (Berlekamp 1970): row i holds x^(i p) mod f,
    built from one x^p mod f, and since g^p = g(x^p) over GF(p) each
    x^(p^(k+1)) is the vector of x^(p^k) times that matrix.  Irreducibility
    mod a prime not dividing the leading coefficient is a sufficient (not
    necessary) condition for irreducibility over Q.
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
    xp = _gf_powmod_x(prime, f, prime)
    frob = [[1]]
    for _ in range(n - 1):
        frob.append(_gf_mulmod(frob[-1], xp, f, prime))
    checks = {n // ell for ell in _prime_divisors(n)}
    xk = [0, 1]                                  # x^(p^k), from k = 0
    for k in range(1, n + 1):
        acc = [0] * n
        for c, row in zip(xk, frob):
            if c:
                for j, r in enumerate(row):
                    acc[j] += c * r
        xk = _gf_trim([a % prime for a in acc])
        if k in checks:
            diff = xk + [0] * (2 - len(xk))
            diff[1] = (diff[1] - 1) % prime
            if len(_gf_gcd(diff, f, prime)) != 1:
                return False
    return xk == [0, 1]


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
