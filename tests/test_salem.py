"""Salem certificates: the degree-8 instance, cyclotomic rejections, oracles."""

import pytest

from siegelcert.errors import BoundaryUndecidable, NoSalemFactor
from siegelcert.intpoly import IntPolynomial, cyclotomic
from siegelcert.salem import SalemCertificate, is_salem, salem_factor


def test_salem8_certificate(salem8, salem8_cert):
    cert = salem8_cert
    assert isinstance(cert, SalemCertificate)
    assert len(cert.circle_roots) == 6 == salem8.degree - 2
    assert cert.lam.contains(1.994004199185754)
    assert abs(cert.lam.center.real - 1.9940) < 5e-4
    assert cert.lam.center.real - cert.lam.radius > 1
    assert abs(cert.inv_lam.center.real - 0.5015) < 5e-4
    assert abs(cert.entropy - 0.6901) < 1e-3


def test_circle_roots_certified_on_circle(salem8_cert):
    for b in salem8_cert.circle_roots:
        lo, hi = b.abs_bounds()
        assert lo <= 1.0 <= hi
        assert hi - lo < 1e-9


def test_rejects_every_cyclotomic_up_to_30():
    for k in range(1, 31):
        with pytest.raises(NoSalemFactor, match="degree|cyclotomic"):
            is_salem(cyclotomic(k))


def test_rejects_structural_defects(salem8):
    with pytest.raises(NoSalemFactor, match="monic"):
        is_salem(2 * salem8)
    with pytest.raises(NoSalemFactor, match="degree"):
        is_salem(IntPolynomial((1, -3, 1)))
    odd = IntPolynomial((1, -2, 0, -2, 1)) * IntPolynomial((1, 1))
    with pytest.raises(NoSalemFactor, match="degree"):
        is_salem(odd)  # odd after multiplying by t+1
    with pytest.raises(NoSalemFactor, match="reciprocal"):
        is_salem(IntPolynomial((2, -2, 1, -2, 1, -2, 1, -2, 1)))


def test_rejects_cyclotomic_multiple(salem8):
    # Salem times Phi_4 has the right outside/inside pattern but a cyclotomic
    # factor; accepting it would break the not-a-root-of-unity conclusion
    with pytest.raises(NoSalemFactor, match="cyclotomic"):
        is_salem(salem8 * cyclotomic(4))


def test_salem_factor_strips_cyclotomic_part(salem8):
    cert = salem_factor(salem8 * cyclotomic(4))
    assert isinstance(cert, SalemCertificate)
    assert cert.poly == salem8


def test_salem_factor_rejects_cyclotomic_product():
    with pytest.raises(NoSalemFactor, match="degree 0 < 4"):
        salem_factor(cyclotomic(1) * cyclotomic(4) * cyclotomic(12))


def test_lehmer_degree_case_vs_chi_bisection():
    from oracles import lambda_by_bisection
    from siegelcert.threelines import OrbitData, salem_from_orbit
    orbit = OrbitData((2,), (1,))
    cert = salem_from_orbit(orbit)
    assert isinstance(cert, SalemCertificate)
    lam = lambda_by_bisection(orbit)
    assert abs(cert.lam.center.real - lam) < 1e-9


def test_salem_certificate_implies_not_root_of_unity(salem8_cert):
    # every unit-circle root ball is far from every root of unity of small order
    import cmath
    for b in salem8_cert.circle_roots:
        for k in range(1, 13):
            for j in range(k):
                assert abs(b.center - cmath.exp(2j * cmath.pi * j / k)) > 1e-3


def test_double_roots_are_boundary_undecidable():
    lehmer = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    assert isinstance(is_salem(lehmer), SalemCertificate)
    # L^2 passes every exact check; its double roots give overlapping disks,
    # which the one classification pass cannot resolve
    with pytest.raises(BoundaryUndecidable):
        is_salem(lehmer * lehmer)
