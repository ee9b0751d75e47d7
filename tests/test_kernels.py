"""The Z[x] and root-disk kernels against their dense references.

The sparse products and divisions of IntPolynomial, and the root
certificate that takes each |z_i - z_j| once, must give exactly what the
dense kernels of oracles.py give: the same coefficient tuples, and disks
with the same center and radius bits.  The root kernels are checked on
every call that the theorem1 searches for k = 3 and k = 4 and a three-lines
run make: the Salem polynomials of the searched orbit data, and the
abscissa polynomials of the fixed points, whose ball coefficients come with
coeff_radii.  The strict kernels (the subresultant resultant, the gcd and
Ben-Or's test mod p, all on lists of ints) are checked the same way against
the IntPolynomial kernels and Rabin's test they replaced, on every call of
the strict runs of the benchmark's strict-evidence pool.
"""

import itertools

import numpy as np
import pytest

from siegelcert import intpoly, roots, strictmode
from siegelcert.cuspidal import certify_cuspidal
from siegelcert.intpoly import IntPolynomial, cyclotomic, x_pow_minus_one
from siegelcert.pipeline import certify_three_lines, theorem1_pipeline
from siegelcert.roots import ComplexPolynomial
from siegelcert.threelines import OrbitData, cleared_chi_polynomial

from oracles import (certify_reference, horner_vec_reference,
                     int_add_reference, int_mul_reference,
                     int_resultant_reference, int_sub_reference,
                     irreducible_mod_p_reference, poly_gcd_reference,
                     try_exact_div_reference)

BIG = 2 ** 64 + 13

OPERANDS = [
    IntPolynomial(()),                                   # zero
    IntPolynomial((1,)),
    IntPolynomial((-3,)),
    IntPolynomial((1, 0, 0, 0, 0, 0, 0, 1)),             # sparse: x^7 + 1
    x_pow_minus_one(9).scale_pow(2),                     # sparse, shifted
    IntPolynomial((-1, 2, -3, 4, -5)),                   # negative, dense
    IntPolynomial((0, 0, -7, 0, 5)),
    IntPolynomial((BIG, -BIG * BIG, 0, 3)),              # beyond 2^64
    cyclotomic(105),
    cleared_chi_polynomial(OrbitData((2, 3), (1, 2))),
]


def _bits(balls):
    return [(b.center.real.hex(), b.center.imag.hex(), b.radius.hex())
            for b in balls]


def test_add_sub_mul_match_the_dense_kernels():
    for a, b in itertools.product(OPERANDS, repeat=2):
        assert (a + b).coeffs == int_add_reference(a, b).coeffs
        assert (a - b).coeffs == int_sub_reference(a, b).coeffs
        assert (a * b).coeffs == int_mul_reference(a, b).coeffs
    for a, k in itertools.product(OPERANDS, (0, 1, -2, BIG)):
        assert (a * k).coeffs == int_mul_reference(a, k).coeffs
        assert (k * a).coeffs == int_mul_reference(a, k).coeffs


def test_results_trim_to_the_validated_form():
    a = IntPolynomial((1, 2, 3))
    for got in (a - a, a + (-a), a * 0, IntPolynomial(()).scale_pow(3)):
        assert got == IntPolynomial(()) and got.coeffs == ()
    assert (a - IntPolynomial((0, 0, 3))).coeffs == (1, 2)
    assert all(type(c) is int for c in (a * True).coeffs)


def test_exact_division_matches_the_dense_kernel():
    divisors = [d for d in OPERANDS if not d.is_zero] + [
        cyclotomic(k) for k in (1, 2, 3, 12, 30)]
    for a, d in itertools.product(OPERANDS, divisors):
        for num in (a, a * d, a * d + IntPolynomial((1,))):
            got = num.try_exact_div(d)
            want = try_exact_div_reference(num, d)
            assert (got is None) == (want is None), (num, d)
            if got is not None:
                assert got.coeffs == want.coeffs
    with pytest.raises(ZeroDivisionError):
        OPERANDS[1].try_exact_div(IntPolynomial(()))


@pytest.fixture(scope="module")
def root_calls():
    """Every _certify and _horner_vec call of theorem1 (k = 3, 4) and of
    three-lines (1,2),(1,1), each beside its reference result."""
    certify, horner = roots._certify, roots._horner_vec
    calls = {"certify": [], "horner": []}

    def both_certify(p, pts, coeff_radii):
        got = certify(p, pts, coeff_radii)
        want = certify_reference(p, pts, coeff_radii)
        calls["certify"].append((coeff_radii is not None, got, want))
        return got

    def both_horner(coeffs, z):
        got = horner(coeffs, z)
        calls["horner"].append((len(z), got, horner_vec_reference(coeffs, z)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_certify", both_certify)
        mp.setattr(roots, "_horner_vec", both_horner)
        theorem1_pipeline(3)
        theorem1_pipeline(4)
        certify_three_lines(OrbitData((1, 2), (1, 1)))
    return calls


def test_certify_matches_the_reference_bit_for_bit(root_calls):
    calls = root_calls["certify"]
    # the Salem polynomials and the abscissa ball polynomials both occur
    assert {radii for radii, _, _ in calls} == {False, True}
    assert len(calls) > 100
    for _, got, want in calls:
        assert _bits(got) == _bits(want)


def test_horner_matches_the_reference_bit_for_bit(root_calls):
    calls = root_calls["horner"]
    # abscissa polynomials of degree 1 and 2, Salem polynomials beyond
    sizes = {n for n, _, _ in calls}
    assert {1, 2} <= sizes and max(sizes) >= 10
    for _, got, want in calls:
        assert got.tobytes() == want.tobytes()


def test_certify_with_coincident_iterates():
    """Coincident points zero the distance product: the radius = inf branch
    falls back to the crude containment disk, identically."""
    p = ComplexPolynomial((-27.0, 27.0, -9.0, 1.0))  # (t - 3)^3
    for pts, radii in (([3.0 + 0j, 3.0 + 0j, 3.1 + 0j], None),
                       ([3.0 + 0j, 2.9 - 0.1j, 3.0 + 0j], (1e-9, 0.0, 0.0, 0.0))):
        got = roots._certify(p, pts, radii)
        assert _bits(got) == _bits(certify_reference(p, pts, radii))
        assert got[0].radius > 6.0


def test_horner_on_length_one_arrays():
    rng = np.random.default_rng(2015)
    for _ in range(2000):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert (roots._horner_vec(coeffs, z).tobytes()
                == horner_vec_reference(coeffs, z).tobytes())


@pytest.fixture(scope="module")
def strict_calls():
    """Every _int_resultant, poly_gcd and irreducible_mod_p call of the strict
    runs in the strict-evidence pool: cuspidal n = 8..20, three-lines N = 1
    with entries <= 3 (but (1), (1)) and (1,1), (1,1), with its arguments and
    result."""
    resultant, gcd = intpoly._int_resultant, intpoly.poly_gcd
    irreducible = strictmode.irreducible_mod_p
    calls = {"resultant": [], "gcd": [], "irreducible": []}

    def record(name, fn):
        def wrapped(*args):
            out = fn(*args)
            calls[name].append((args, out))
            return out
        return wrapped

    orbits = [OrbitData((m,), (n,)) for m in (1, 2, 3) for n in (1, 2, 3)
              if (m, n) != (1, 1)] + [OrbitData((1, 1), (1, 1))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intpoly, "_int_resultant", record("resultant", resultant))
        mp.setattr(intpoly, "poly_gcd", record("gcd", gcd))
        mp.setattr(strictmode, "irreducible_mod_p",
                   record("irreducible", irreducible))
        for n in range(8, 21):
            certify_cuspidal(n, strict=True)
        for orbit in orbits:
            certify_three_lines(orbit, strict=True)
    return calls


def test_strict_resultants_match_the_polynomial_prs(strict_calls):
    calls = strict_calls["resultant"]
    assert len(calls) > 400
    for (a, b), out in calls:
        assert type(out) is int
        assert out == int_resultant_reference(IntPolynomial(a), IntPolynomial(b))


def test_strict_gcds_match_the_polynomial_prs(strict_calls):
    calls = strict_calls["gcd"]
    assert len(calls) == 22  # one squarefree part per strict run
    for (p, q), out in calls:
        assert out.coeffs == poly_gcd_reference(p, q).coeffs
    # most resultants are squares: their gcd with the derivative is big
    assert max(out.degree for _, out in calls) >= 8


def test_strict_irreducibility_matches_rabins_test(strict_calls):
    calls = strict_calls["irreducible"]
    assert len(calls) > 100
    # 21 of the 22 runs find a prime, after rejections at many others
    assert {out for _, out in calls} == {False, True}
    assert sum(out for _, out in calls) == 21
    for (f, p), out in calls:
        assert out is irreducible_mod_p_reference(f, p)
