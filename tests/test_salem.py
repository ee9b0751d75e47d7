"""Salem certificates: the degree-8 instance, cyclotomic rejections, oracles."""

import pytest

from siegelcert.errors import BoundaryUndecidable
from siegelcert.intpoly import IntPolynomial, cyclotomic
from siegelcert.salem import SalemCertificate, is_salem


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
        verdict = is_salem(cyclotomic(k))
        assert not verdict, f"Phi_{k} accepted"


def test_rejects_structural_defects(salem8):
    assert "monic" in is_salem(2 * salem8).reason
    assert "degree" in is_salem(IntPolynomial((1, -3, 1))).reason
    odd = IntPolynomial((1, -2, 0, -2, 1)) * IntPolynomial((1, 1))
    assert "degree" in is_salem(odd).reason  # odd after multiplying by t+1
    assert "reciprocal" in is_salem(IntPolynomial((2, -2, 1, -2, 1, -2, 1, -2, 1))).reason


def test_rejects_cyclotomic_multiple(salem8):
    # Salem times Phi_4 has the right outside/inside pattern but a cyclotomic
    # factor; accepting it would break the not-a-root-of-unity conclusion
    verdict = is_salem(salem8 * cyclotomic(4))
    assert not verdict
    assert "cyclotomic" in verdict.reason


def test_lehmer_degree_case_vs_chi_bisection():
    from siegelcert.threelines import OrbitData, lambda_by_bisection, salem_from_orbit
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
    assert is_salem(lehmer)
    # L^2 passes every exact check; its double roots give overlapping disks,
    # which the one classification pass cannot resolve
    with pytest.raises(BoundaryUndecidable):
        is_salem(lehmer * lehmer)
