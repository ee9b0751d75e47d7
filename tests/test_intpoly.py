"""Integer polynomial algebra: cyclotomics, stripping, resultants, mod p."""

import cmath
import functools
import itertools
import random

import numpy as np
import pytest

from siegelcert import intpoly
from siegelcert.errors import BadPrime
from siegelcert.intpoly import (IntPolynomial, _is_prime, admissible_primes,
                                cyclotomic, cyclotomic_indices,
                                irreducible_mod_p, rebuild, resultant,
                                squarefree_part, strip_cyclotomic)
from siegelcert.roots import ComplexPolynomial, poly_roots

from oracles import irreducible_mod_p_reference


def test_basic_arithmetic_and_division():
    p = IntPolynomial((1, 2, 3))
    q = IntPolynomial((-1, 1))
    prod = p * q
    assert prod.try_exact_div(q) == p
    assert prod.try_exact_div(p) == q
    assert (p * 0).is_zero
    assert IntPolynomial((1, 1)).try_exact_div(IntPolynomial((0, 2))) is None


def test_coefficients_that_are_not_integers_raise():
    for coeffs in ((0.5, 1.7), ("3", 1), (2.0, 1)):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            IntPolynomial(coeffs)
    # numpy integers and bools are integers; the coefficients become ints
    p = IntPolynomial((np.int64(-2), True, np.uint8(3), False))
    assert p == IntPolynomial((-2, 1, 3))
    assert all(type(c) is int for c in p.coeffs)


def test_cyclotomic_degrees_and_values():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(105).degree == 48  # first index with coefficient +-2
    assert 2 in {abs(c) for c in cyclotomic(105).coeffs}
    def phi(k):
        return sum(1 for j in range(1, k + 1) if _gcd(j, k) == 1)
    for k in range(1, 40):
        assert cyclotomic(k).degree == phi(k)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_cyclotomic_indices_bound():
    idx = cyclotomic_indices(8)
    assert all(cyclotomic(k).degree <= 8 for k in idx)
    assert 30 in idx  # phi(30) = 8
    assert 17 not in idx  # phi(17) = 16


def _sieve_indices(max_degree: int) -> list[int]:
    """cyclotomic_indices as it sieved before the Rosser-Schoenfeld bound:
    every k <= 2 d^2 + 2, from phi(k) >= sqrt(k / 2)."""
    if max_degree < 1:
        return [1, 2] if max_degree >= 0 else []
    limit = 2 * max_degree * max_degree + 2
    phi = _totients()
    return [k for k in range(1, limit + 1) if phi[k] <= max_degree]


@functools.cache
def _totients(limit: int = 2 * 400 * 400 + 2) -> list[int]:
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return phi


def test_cyclotomic_indices_match_the_quadratic_sieve():
    # every k with phi(k) <= 400 lies below 2 * 400^2 + 2, so filtering that
    # short list by each d's old limit reproduces the old sieve exactly
    phi = _totients()
    small = [k for k in range(1, len(phi)) if phi[k] <= 400]
    for d in range(0, 401):
        want = ([1, 2] if d == 0 else
                [k for k in small if phi[k] <= d and k <= 2 * d * d + 2])
        assert cyclotomic_indices(d) == want, d
    assert cyclotomic_indices(-1) == []


def _scalar_strip(p: IntPolynomial) -> tuple[IntPolynomial, list[int]]:
    """strip_cyclotomic with the screen it had before the numpy pass: one
    root of unity at a time, on the current cofactor."""
    def screen(q, k):
        if q.degree > 4096 or max(abs(c) for c in q.coeffs) > 2 ** 48:
            return True
        z = cmath.exp(2j * cmath.pi / k)
        val, scale = 0j, 0.0
        for c in reversed(q.coeffs):
            val = val * z + c
            scale = scale + abs(c)
        return abs(val) <= 1e-8 * max(scale, 1.0)

    rest, factors = p, []
    for k in _sieve_indices(p.degree):
        if k > 2 and not screen(rest, k):
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


def _strip_inputs():
    from siegelcert.cuspidal import orbit_polynomial
    from siegelcert.threelines import OrbitData, cleared_chi_polynomial
    yield from (orbit_polynomial(n) for n in range(4, 61))
    rng = random.Random(2015)
    for _ in range(12):
        N = rng.randint(1, 3)
        m = tuple(rng.randint(1, 7) for _ in range(N))
        n = tuple(rng.randint(1, 7) for _ in range(N))
        if (m, n) != ((1,), (1,)):
            yield cleared_chi_polynomial(OrbitData(m, n))
    base = IntPolynomial((1, -2, 1, -2, 1, -2, 1, -2, 1))
    yield rebuild(base, [1, 1, 2, 3, 3, 3, 12, 30])
    yield rebuild(IntPolynomial((3, 0, 1)), [5, 5, 7, 7, 105])
    # one coefficient beyond 2^48: the screen passes every index
    yield rebuild(IntPolynomial((2 ** 49 + 1, 1)), [4, 6, 6, 9])


def test_strip_matches_the_scalar_screen():
    for p in _strip_inputs():
        assert strip_cyclotomic(p) == _scalar_strip(p), p


def test_strip_examples(salem8):
    rest, fac = strip_cyclotomic(IntPolynomial((1, 1)) * salem8)
    assert rest == salem8 and fac == [2]
    rest, fac = strip_cyclotomic(cyclotomic(3))
    assert rest == IntPolynomial((1,)) and fac == [3]


def test_strip_cleared_chi_salem_part_matches_roots():
    from siegelcert.threelines import OrbitData, cleared_chi_polynomial
    cleared = cleared_chi_polynomial(OrbitData((2,), (1,)))
    rest, fac = strip_cyclotomic(cleared)
    assert rebuild(rest, fac) == cleared
    # root multiset of the cleared polynomial = salem roots + cyclotomic roots
    all_roots = poly_roots(ComplexPolynomial(tuple(map(float, cleared.coeffs))))
    salem_roots = poly_roots(ComplexPolynomial(tuple(map(float, rest.coeffs))))
    for b in salem_roots:
        assert min(abs(b.center - a.center) for a in all_roots) < 1e-8


def test_strip_exact_reconstruction_random():
    rng = random.Random(11)
    for _ in range(20):
        base = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5)))
                             + (1,))
        ks = [rng.choice((1, 2, 3, 4, 6, 12)) for _ in range(rng.randint(0, 3))]
        p = rebuild(base, ks)
        rest, fac = strip_cyclotomic(p)
        assert rebuild(rest, fac) == p
        # every claimed factor divides exactly
        probe = p
        for k in fac:
            q = probe.try_exact_div(cyclotomic(k))
            assert q is not None
            probe = q


def test_resultant_linear_elimination():
    # res_t(t - 2, t - x) = x - 2; q by powers of x
    p = IntPolynomial((-2, 1))
    q = [IntPolynomial((0, 1)), IntPolynomial((-1,))]
    assert resultant(p, q) == IntPolynomial((-2, 1))


def test_resultant_quadratic_square():
    # res_t(t^2 - 2, x - t^2) = (x - 2)^2
    p = IntPolynomial((-2, 0, 1))
    q = [IntPolynomial((0, 0, -1)), IntPolynomial((1,))]
    assert resultant(p, q) == IntPolynomial((4, -4, 1))


def test_resultant_degree16_vanishes_at_fixed_abscissas(salem8):
    from siegelcert.cuspidal import abscissa_resultant
    elim = abscissa_resultant(salem8)
    assert elim.degree == 16
    roots = poly_roots(ComplexPolynomial(tuple(map(float, salem8.coeffs))))
    scale = sum(abs(c) for c in elim.coeffs)
    for b in roots:
        delta = b.center
        tau = delta + 1 / delta
        disc = (81 * (tau - 2) ** 2 - 108 * (tau - 1) * (tau - 2)) ** 0.5
        for sign in (1, -1):
            x = (9 * (tau - 2) + sign * disc) / 54
            val = elim.eval_complex(x)
            rel = abs(val) / (scale * max(1.0, abs(x)) ** elim.degree)
            assert rel < 1e-6


def _sylvester_det_at(p, q, x):
    """Determinant of the integer Sylvester matrix of p(t) and q(t, x) at an
    integer x, q-rows first, by elimination over Fractions.  q is given by
    powers of x; its t-coefficients at x are summed here."""
    from fractions import Fraction
    n = max(c.degree for c in q)
    qrev = [sum(c[d] * x ** k for k, c in enumerate(q))
            for d in range(n, -1, -1)]
    prev = list(reversed(p.coeffs))
    m = p.degree
    dim = m + n
    rows = ([[0] * i + qrev + [0] * (m - 1 - i) for i in range(m)]
            + [[0] * i + prev + [0] * (n - 1 - i) for i in range(n)])
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for k in range(dim):
        piv = next((i for i in range(k, dim) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, dim):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [u - f * v for u, v in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def _assert_resultant_matches_sylvester(p, q):
    res = resultant(p, q)
    # the roots of lc_t(q) are skipped by the evaluation scheme; check them too
    deg_t = max(c.degree for c in q)
    lc = IntPolynomial(tuple(c[deg_t] for c in q))
    lc_roots = [x for x in range(-6, 7) if lc.eval_int(x) == 0]
    for x in list(range(-3, 4)) + [11, -17] + lc_roots:
        assert res.eval_int(x) == _sylvester_det_at(p, q, x), (p, q, x)
    return res


def test_resultant_matches_sylvester_determinant_random():
    rng = random.Random(8)
    for _ in range(60):
        m, n, dx = rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, 2)
        p = IntPolynomial(tuple(rng.randint(-3, 3) for _ in range(m))
                          + (rng.choice((1, -1, 2, 3)),))
        # leading t-coefficient with integer roots, e.g. (x - 1)(x + 2)
        lc = (IntPolynomial((-rng.randint(-2, 2), 1))
              * IntPolynomial((rng.randint(-2, 2), 1)))
        # q by powers of x: lower t-coefficients of x-degree at most dx
        q = [IntPolynomial(tuple(rng.randint(-2, 2) if k <= dx else 0
                                 for _ in range(n)) + (lc[k],))
             for k in range(3)]
        _assert_resultant_matches_sylvester(p, q)


def test_resultant_special_operands():
    # q is given by powers of x throughout
    x = IntPolynomial((0, 1))
    # shared root t = 1 for every x: the resultant is zero
    p = IntPolynomial((-1, 0, 1))                        # t^2 - 1
    q = [IntPolynomial((3, -3)), IntPolynomial((-1, 0, 1))]  # (t - 1)(x t + x - 3)
    assert _assert_resultant_matches_sylvester(p, q).is_zero
    # p linear: res_t(q, t - 2) = q(2, x), q = x^2 + (1 + x) t + (3 x^2 - 1) t^2
    p = IntPolynomial((-2, 1))
    q = [IntPolynomial((0, 1, -1)), IntPolynomial((0, 1)), IntPolynomial((1, 0, 3))]
    assert _assert_resultant_matches_sylvester(p, q) == (
        x * x + IntPolynomial((2, 2)) + IntPolynomial((-4, 0, 12)))
    # q constant in t: res_t(x + 1, t^2 + 1) = (x + 1)^2
    q = [IntPolynomial((1,)), IntPolynomial((1,))]
    assert _assert_resultant_matches_sylvester(IntPolynomial((1, 0, 1)), q) \
        == IntPolynomial((1, 2, 1))
    # p constant: res_t(t^2 + x, 3) = 3^2
    q = [IntPolynomial((0, 0, 1)), IntPolynomial((1,))]
    assert _assert_resultant_matches_sylvester(IntPolynomial((3,)), q) \
        == IntPolynomial((9,))


def test_irreducible_mod_p_examples():
    assert irreducible_mod_p(IntPolynomial((1, 0, 1)), 3) is True
    assert irreducible_mod_p(IntPolynomial((-1, 0, 1)), 7) is False
    with pytest.raises(BadPrime):
        irreducible_mod_p(IntPolynomial((1, 0, 1)), 4)
    with pytest.raises(BadPrime):
        irreducible_mod_p(IntPolynomial((1, 0, 3)), 3)


def test_irreducible_mod_p_vs_exhaustive_factor_search(salem8):
    """Mod-p verdict for the degree-16 eliminated polynomial against an
    exhaustive trial-division oracle over GF(p)."""
    from siegelcert.cuspidal import abscissa_resultant
    elim = abscissa_resultant(salem8)
    p = admissible_primes(elim, 1)[0]
    got = irreducible_mod_p(elim, p)
    assert got == _exhaustive_irreducible(elim, p)


def test_irreducible_mod_p_vs_exhaustive_all_small_degrees():
    # every polynomial of degree 2..8 over GF(2) and 2..4 over GF(3), GF(5),
    # also against Rabin's test
    for p, top in ((2, 8), (3, 4), (5, 4)):
        for deg in range(2, top + 1):
            for tail in itertools.product(range(p), repeat=deg):
                for lead in range(1, p):
                    f = IntPolynomial(tail + (lead,))
                    got = irreducible_mod_p(f, p)
                    assert got == _exhaustive_irreducible(f, p), (f, p)
                    assert got == irreducible_mod_p_reference(f, p), (f, p)


def test_irreducible_mod_p_rejects_squares_and_equal_degree_products(
        monkeypatch):
    # g * h with irreducible g, h of degree n/2: every gcd before k = n/2
    # is 1, so only Ben-Or's last step rejects it
    cases = [
        (2, (1, 1, 1), (1, 1, 1)),            # g^2, g = x^2 + x + 1
        (2, (1, 1, 0, 1), (1, 0, 1, 1)),      # two irreducible cubics
        (2, (1, 1, 0, 0, 1), (1, 0, 0, 1, 1)),  # x^4 + x + 1, x^4 + x^3 + 1
        (3, (1, 0, 1), (2, 1, 1)),            # two irreducible quadratics
        (3, (1, 2, 0, 1), (1, 2, 0, 1)),      # g^2, g = x^3 + 2x + 1
        (5, (2, 0, 1), (3, 0, 1)),            # x^2 + 2 and x^2 + 3
        (7, (3, 0, 0, 1), (5, 0, 0, 1)),      # x^3 + 3 and x^3 + 5
    ]
    for p, g, h in cases:
        g, h = IntPolynomial(g), IntPolynomial(h)
        assert _exhaustive_irreducible(g, p) and _exhaustive_irreducible(h, p)
        got, steps = _ben_or_steps(monkeypatch, g * h, p)
        assert got is False and _exhaustive_irreducible(g * h, p) is False
        assert steps == [True] * (g.degree - 1) + [False], (g, h, p)


def _ben_or_steps(monkeypatch, f, p):
    """irreducible_mod_p(f, p) and the gcd results of its steps k = 1, 2, ..."""
    steps = []
    coprime = intpoly._gf_coprime

    def spy(*args):
        steps.append(coprime(*args))
        return steps[-1]

    monkeypatch.setattr(intpoly, "_gf_coprime", spy)
    return irreducible_mod_p(f, p), steps


def test_ben_or_stops_at_the_first_step_with_a_common_factor(monkeypatch):
    # a root mod p: the k = 1 gcd is not 1, and no Frobenius row is built
    f = IntPolynomial((-1, 1)) * IntPolynomial((3, 1, 0, 0, 4, 0, 2, 1))
    got, steps = _ben_or_steps(monkeypatch, f, 5)
    assert got is False and steps == [False]


def test_ben_or_sees_a_square_mod_p_of_a_squarefree_polynomial(monkeypatch):
    # squarefree over Z, but a square mod p: (x + 1)^2 mod 2, and
    # x^4 + 2 x^2 + 3 x + 1 = (x^2 + 1)^2 mod 3 with x^2 + 1 irreducible
    for f, p, want in (((1, 0, 1), 2, [False]),
                       ((1, 3, 2, 0, 1), 3, [True, False])):
        f = IntPolynomial(f)
        assert squarefree_part(f) == f
        got, steps = _ben_or_steps(monkeypatch, f, p)
        assert got is False and steps == want


def test_ben_or_at_degrees_two_and_three_takes_one_step(monkeypatch):
    for f, p, want in (((1, 0, 1), 3, True), ((-1, 0, 1), 7, False),
                       ((1, 1, 0, 1), 2, True), ((1, 0, 0, 1), 2, False),
                       ((2, 0, 0, 1), 7, True), ((1, 0, 0, 1), 7, False)):
        f = IntPolynomial(f)
        got, steps = _ben_or_steps(monkeypatch, f, p)
        assert got is want and steps == [want], (f, p)
        assert want is _exhaustive_irreducible(f, p)


PSI_12 = 318665857834031151167461   # least strong pseudoprime to bases 2..37
PSI_13 = 3317044064679887385961981  # least strong pseudoprime to bases 2..41


def test_is_prime_is_exact_below_psi_13():
    assert PSI_12 == 399165290221 * 798330580441
    assert _is_prime(399165290221) and _is_prime(798330580441)
    assert not _is_prime(PSI_12)
    with pytest.raises(BadPrime, match="not prime"):
        irreducible_mod_p(IntPolynomial((1, 0, 1)), PSI_12)
    for n in (PSI_13, PSI_13 + 2, 2 ** 100 + 277):
        with pytest.raises(BadPrime, match="deterministic"):
            irreducible_mod_p(IntPolynomial((1, 0, 1)), n)
    sieve = [True] * 5000
    sieve[0] = sieve[1] = False
    for i in range(2, 71):
        for j in range(i * i, 5000, i):
            sieve[j] = False
    assert [n for n in range(5000) if _is_prime(n)] == \
        [n for n in range(5000) if sieve[n]]


def test_irreducible_mod_p_at_an_80_bit_prime():
    p = 2 ** 80 - 65                     # prime, and 3 mod 4
    assert _is_prime(p) and p < PSI_13
    # -1 is a non-residue mod p = 3 mod 4, so x^2 + 1 is irreducible
    assert irreducible_mod_p(IntPolynomial((1, 0, 1)), p) is True
    rng = random.Random(80)
    for deg in (3, 4, 6, 9):
        f = IntPolynomial(tuple(rng.randrange(p) for _ in range(deg)) + (1,))
        assert irreducible_mod_p(f, p) is irreducible_mod_p_reference(f, p)
        g = f * IntPolynomial((rng.randrange(p), rng.randrange(p), 1))
        assert irreducible_mod_p(g, p) is False


def _exhaustive_irreducible(poly: IntPolynomial, p: int) -> bool:
    f = [c % p for c in poly.coeffs]
    while f and f[-1] == 0:
        f.pop()
    n = len(f) - 1
    for deg in range(1, n // 2 + 1):
        for code in range(p ** deg):
            cand = []
            c = code
            for _ in range(deg):
                cand.append(c % p)
                c //= p
            cand.append(1)  # monic
            if _gf_divides(cand, f, p):
                return False
    return True


def _gf_divides(d, f, p):
    rem = list(f)
    dd = len(d) - 1
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        shift = len(rem) - 1 - dd
        factor = rem[-1]  # divisor monic
        for i, c in enumerate(d):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
    return not any(rem)


def test_admissible_primes_skip_leading_divisors():
    p = IntPolynomial((1, 0, 6))
    assert admissible_primes(p, 3) == [5, 7, 11]


def test_poly_gcd_and_squarefree_part():
    from siegelcert.intpoly import poly_gcd, squarefree_part
    a = IntPolynomial((-1, 1))        # x - 1
    b = IntPolynomial((2, 1))         # x + 2
    p = a * a * b * 6
    assert poly_gcd(p, p.derivative()) == a
    assert squarefree_part(p) == a * b
    assert squarefree_part(a * b) == a * b
    c = IntPolynomial((1, 0, 1))
    assert squarefree_part(c * c * c) == c


def test_strict_candidate_is_square_root_of_resultant(salem8):
    from siegelcert.cuspidal import abscissa_resultant
    from siegelcert.intpoly import squarefree_part
    elim = abscissa_resultant(salem8)
    cand = squarefree_part(elim)
    assert cand.degree == 8
    # the raw eliminated polynomial is exactly a square of the candidate
    assert (cand * cand).primitive_positive() == elim.primitive_positive()


def test_eval_ball_exact_integers(salem8):
    from siegelcert.balls import ComplexBall
    v = salem8.eval_ball(ComplexBall.exact(1))
    assert v.center == complex(salem8.eval_int(1))
