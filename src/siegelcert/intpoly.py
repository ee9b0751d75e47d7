"""Exact integer-coefficient polynomial algebra.

Coefficients are Python bigints, index = degree of the term.  Everything here
is exact: cyclotomic stripping is trial exact division, and the mod-p
irreducibility test is Ben-Or's, over GF(p) with a Frobenius matrix.
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
The resultant, the gcd and the test mod p run on plain lists of ints.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .balls import ComplexBall
from .errors import BadPrime, CheckFailed

_E_GAMMA = math.exp(0.5772156649015329)  # e to the Euler-Mascheroni constant


@dataclass(frozen=True)
class IntPolynomial:
    coeffs: tuple[int, ...]  # coeffs[k] multiplies x^k; leading coeff nonzero

    def __post_init__(self):
        try:
            c = tuple(map(operator.index, self.coeffs))
        except TypeError:
            raise ValueError("IntPolynomial coefficients must be integers, "
                             f"got {self.coeffs!r}") from None
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
        return math.gcd(*self.coeffs)

    def primitive_positive(self) -> "IntPolynomial":
        """Divide out the content and normalize the leading coefficient > 0."""
        return _int_poly(_primitive_positive(list(self.coeffs)))

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
        # positional ufunc calls; the multiply stays in place, as `*=` ran
        for c in np.array(p.coeffs[::-1], dtype=complex):
            np.multiply(val, z, val)
            np.add(val, c, val)
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
# pseudo-remainders on coefficient lists
# ---------------------------------------------------------------------------
# The strict kernels below (the resultant's PRS, the gcd and the test mod p)
# work on plain lists of ints, index = degree, with no trailing zeros; the
# zero polynomial is [].

def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b in Z[x], as a new
    list; b is nonzero.  It is the unique r of degree < deg b with
    lc(b)^(deg a - deg b + 1) * a - r a multiple of b, so the order of the
    steps cannot change it.  Each step reads the top coefficient c and forms
    lc(b) * r - c x^s b; a zero top costs no step, and the powers of lc(b)
    still owed at the end multiply r then.  For deg a < deg b it is a."""
    db = len(b) - 1
    owed = len(a) - db
    r = a[:]
    if owed <= 0:
        return r
    lead = b[-1]
    low = b[:-1]
    for k in range(len(a) - 1, db - 1, -1):
        c = r.pop()
        if c:
            if lead != 1:
                r = [v * lead for v in r]
            s = k - db
            r[s:k] = [v - c * w for v, w in zip(r[s:k], low)]
            owed -= 1
    _trim(r)
    if owed and lead != 1:
        m = lead ** owed
        r = [v * m for v in r]
    return r


def _primitive_positive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient; a
    itself when that changes nothing."""
    if not a:
        return a
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [v // g for v in a]


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
    width = max(len(c.coeffs) for c in q)  # deg_t(q) + 1
    rows = [list(c.coeffs) + [0] * (width - len(c.coeffs)) for c in q]
    pc = list(p.coeffs)
    need = p.degree * (len(q) - 1) + 1
    xs, ys = [], []
    x0 = 0
    while len(xs) < need:
        q0 = rows[-1]
        for row in reversed(rows[:-1]):      # Horner in x at x0
            q0 = [v * x0 + c for v, c in zip(q0, row)]
        if q0[-1]:                           # deg q(t, x0) = deg_t(q)
            xs.append(x0)
            ys.append(_int_resultant(q0, pc))
        x0 = -x0 if x0 > 0 else 1 - x0
    return _interpolate(xs, ys)


def _int_resultant(a: list[int], b: list[int]) -> int:
    """Sylvester resultant of nonzero a, b in Z[t], a-rows first, by the
    subresultant PRS (Collins, J. ACM 18, 1971)."""
    da, db = len(a) - 1, len(b) - 1
    if da == 0 or db == 0:
        return a[0] ** db * b[0] ** da
    ca, cb = math.gcd(*a), math.gcd(*b)
    t = ca ** db * cb ** da
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    s = g = h = 1
    if da < db:
        a, b = b, a
        if da % 2 and db % 2:
            s = -1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = _prem(a, b)
        div = g * h ** delta
        a, b = b, (r if div == 1 else [_exact_div(c, div) for c in r])
        g = a[-1]
        h = _exact_div(g ** delta, h ** (delta - 1)) if delta else h
    if not b:
        return 0
    da = len(a) - 1
    return s * t * _exact_div(b[0] ** da, h ** (da - 1))


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

def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive positive gcd in Z[x] (Euclid on pseudo-remainders)."""
    a = _primitive_positive(list(p.coeffs))
    b = _primitive_positive(list(q.coeffs))
    if not a:
        return _int_poly(b)
    while b:
        a, b = b, _primitive_positive(_prem(a, b))
    return _int_poly(a)


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

# psi_13 (Sorenson and Webster, Math. Comp. 86, 2017): the least integer that
# is a strong probable prime to every prime base up to 41.  Below it those
# thirteen bases decide primality exactly; psi_12 = 318665857834031151167461
# = 399165290221 * 798330580441 passes the twelve bases up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin at the prime bases up to 41, which
    is exact below _MR_EXACT_BELOW; BadPrime at or above it."""
    if n >= _MR_EXACT_BELOW:
        raise BadPrime(f"{n} is beyond the deterministic primality test "
                       f"(exact below {_MR_EXACT_BELOW})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def _gf_rem(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f over GF(p), reduced and trimmed, reusing the list a; f is
    nonzero with f[-1] a unit mod p.  Each coefficient is reduced once: a
    top one when it is read, the remainder's at the end."""
    df = len(f) - 1
    if len(a) > df:
        low = f[:-1]
        inv = pow(f[-1], -1, p)
        for k in range(len(a) - 1, df - 1, -1):
            c = a.pop() * inv % p
            if c:
                s = k - df
                a[s:k] = [v - c * w for v, w in zip(a[s:k], low)]
    return _trim([v % p for v in a])


class _GFQuotient:
    """GF(p)[x] / (f), for monic f of degree n >= 2, with Kronecker
    substitution: a list a of residues packs into the int sum a[i] 2^(8 w i)
    of w-byte slots, so one int product of two packed lists forms every
    coefficient of their product.  reduce folds slots n..2n-2 back through
    the packed x^j mod f, built at its first use.  No slot it sees exceeds
    2 n p^2 < 2^(8 w), so none carries into the next, and each coefficient
    is reduced mod p once."""

    __slots__ = ("f", "p", "n", "w", "fold")

    def __init__(self, f: list[int], p: int):
        self.f, self.p, self.n = f, p, len(f) - 1
        self.w = ((2 * self.n * p * p).bit_length() + 7) // 8
        self.fold: list[int] = []

    def pack(self, a: list[int]) -> int:
        w = self.w
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]),
                              "little")

    def _slots(self, v: int) -> list[int]:
        w = self.w
        size = -(-v.bit_length() // (8 * w)) * w
        buf = v.to_bytes(size, "little")
        return [int.from_bytes(buf[i:i + w], "little")
                for i in range(0, size, w)]

    def reduce(self, v: int) -> list[int]:
        """The residue list of v mod f, for v a product of two packed
        residue lists or a sum of at most n packed lists times residues."""
        n, p = self.n, self.p
        shift = 8 * self.w * n
        if v >> shift:
            if not self.fold:
                f = self.f
                r = [-c % p for c in f[:-1]]   # x^n mod f
                for _ in range(n - 1):
                    self.fold.append(self.pack(r))
                    top = r.pop()               # x r mod f
                    r.insert(0, 0)
                    if top:
                        r = [(u - top * c) % p for u, c in zip(r, f)]
            acc = v & ((1 << shift) - 1)
            for c, r in zip(self._slots(v >> shift), self.fold):
                c %= p
                if c:
                    acc += c * r
            v = acc
        return _trim([c % p for c in self._slots(v)])


def _gf_coprime(a: list[int], f: list[int], p: int) -> bool:
    """Whether gcd(a, f) = 1 over GF(p), by Euclid; a is reduced and
    deg a < deg f.  a is consumed, f is not."""
    f = f[:]
    while a:
        f, a = a, _gf_rem(f, a, p)
    return len(f) == 1


def irreducible_mod_p(poly: IntPolynomial, prime: int) -> bool:
    """Whether poly mod prime is irreducible over GF(prime).

    Ben-Or's test (FOCS 1981): f of degree n is irreducible over GF(p) if and
    only if gcd(x^(p^k) - x, f) = 1 for every k = 1..floor(n/2).  Over GF(p),
    x^(p^k) - x is the product of the monic irreducibles whose degree divides
    k.  If f is reducible it has an irreducible factor g of degree d <= n/2,
    and g divides x^(p^d) - x, so the gcd at k = d is not 1.  If f is
    irreducible, that gcd is 1 or f, and f divides x^(p^k) - x only when n
    divides k, which no k in 1..n/2 does.

    The test runs on the monic normalisation of f.  It computes x^p mod f by
    square and multiply, where each multiplication by x is a shift, and
    checks k = 1 first; most reducible inputs stop there.  Only from k = 2
    on does it build the Frobenius matrix (Berlekamp 1970): row i holds
    x^(i p) mod f, and since g^p = g(x^p) over GF(p), x^(p^k) is the vector
    of x^(p^(k-1)) times that matrix.  Products mod f are Kronecker
    substitutions (_GFQuotient).  It returns False at the first k whose
    gcd is not 1.  Irreducibility mod a prime not dividing the leading
    coefficient is a sufficient (not necessary) condition for
    irreducibility over Q.
    """
    if not _is_prime(prime):
        raise BadPrime(f"{prime} is not prime")
    if poly.is_zero or poly.coeffs[-1] % prime == 0:
        raise BadPrime(f"{prime} divides the leading coefficient")
    n = poly.degree
    if n < 2:
        return n == 1
    inv = pow(poly.coeffs[-1], -1, prime)
    f = [c * inv % prime for c in poly.coeffs]
    ring = _GFQuotient(f, prime)
    xk = [0, 1]
    for bit in bin(prime)[3:]:               # x^p mod f, from x
        v = ring.pack(xk)
        xk = ring.reduce(v * v)
        if bit == "1":
            xk = _gf_rem([0] + xk, f, prime)
    rows: list[int] = []                     # packed x^(i p) mod f
    for k in range(1, n // 2 + 1):
        if k == 2:
            xp = ring.pack(xk)
            rows = [1]
            for _ in range(n - 1):
                rows.append(ring.pack(ring.reduce(xp * rows[-1])))
        if k >= 2:                           # x^(p^k) = x^(p^(k-1)) * matrix
            acc = 0
            for c, r in zip(xk, rows):
                if c:
                    acc += c * r
            xk = ring.reduce(acc)
        diff = xk + [0] * (2 - len(xk))      # x^(p^k) - x
        diff[1] = (diff[1] - 1) % prime
        if not _gf_coprime(_trim(diff), f, prime):
            return False
    return True


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
