"""Action matrices: form preservation, exact char polys, spectral data."""

import random
from types import SimpleNamespace

import pytest

from siegelcert.balls import ComplexBall
from siegelcert.cohomology import (ActionMatrix, delta_eigen_check,
                                   fixed_point_bound, matrix_info,
                                   quad_action_matrix, spectral_data,
                                   tl_action_matrix)
from siegelcert.errors import NoSalemFactor, PipelineFailed
from siegelcert.intpoly import IntPolynomial, cyclotomic, strip_cyclotomic
from siegelcert.salem import is_salem
from siegelcert.threelines import OrbitData, salem_from_orbit

from oracles import char_poly_faddeev_leverrier, lambda_by_bisection

PERMS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)]


def test_form_preserved_random_quad_matrices():
    rng = random.Random(17)
    for _ in range(12):
        ns = [rng.randint(0, 7) for _ in range(3)]
        sigma = PERMS[rng.randrange(6)]
        m = quad_action_matrix(*ns, sigma=sigma)  # constructor checks the form
        assert m.preserves_form()
        assert m.dim == 1 + sum(ns) + 3


def test_form_violation_rejected():
    with pytest.raises(ValueError):
        ActionMatrix(((2, 0), (0, 1)), ("H", "E"))
    # flipping the sign of the off-diagonal entry (H, E1.0) keeps every
    # diagonal entry of M^T J M and breaks only off-diagonal ones
    m = quad_action_matrix(8, 8, 8)
    rows = [list(r) for r in m.entries]
    assert rows[0][1] == 1
    rows[0][1] = -1
    with pytest.raises(ValueError):
        ActionMatrix(tuple(map(tuple, rows)), m.labels)


def test_quad_888_charpoly_and_entropy(salem8):
    m = quad_action_matrix(8, 8, 8)
    assert m.dim == 28
    assert m.trace() == 2
    assert fixed_point_bound(m) == 4
    rest, cyclo = strip_cyclotomic(m.char_poly)
    assert rest == salem8
    cert = is_salem(m.char_poly)
    assert abs(cert.entropy - 0.6901) < 1e-3
    assert cert.lam.contains(1.994004199185754)
    assert cert.poly == salem8
    cyclo_parts = spectral_data(m, cert)
    assert tuple(sorted(cyclo_parts)) == cyclo_parts == tuple(cyclo)


def test_quad_fixes_canonical_class():
    for sigma in PERMS:
        m = quad_action_matrix(3, 5, 2, sigma=sigma)
        assert m.apply(m.canonical_vector) == m.canonical_vector


def test_tl_matrices_match_bisection_and_bound():
    for orbit in (OrbitData((2,), (1,)), OrbitData((1, 2), (1, 1))):
        m = tl_action_matrix(orbit)
        assert m.dim == 1 + orbit.blowup_count
        assert m.trace() == orbit.N + 1
        assert fixed_point_bound(m) == orbit.N + 3
        assert m.apply(m.canonical_vector) == m.canonical_vector
        cert = is_salem(m.char_poly)
        assert abs(cert.lam.center.real - lambda_by_bisection(orbit)) < 1e-9
        assert cert.poly == salem_from_orbit(orbit).poly


def test_charpoly_reciprocal_up_to_sign():
    mats = [quad_action_matrix(8, 8, 8), quad_action_matrix(2, 3, 4, (1, 2, 0)),
            tl_action_matrix(OrbitData((2,), (1,))),
            tl_action_matrix(OrbitData((1, 2), (1, 1)))]
    for m in mats:
        cp = m.char_poly
        assert cp.reversed() in (cp, -cp)


def test_identity_matrix_spectral_data():
    ident = ActionMatrix(
        tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)),
        ("H", "E1", "E2", "E3"))
    # (t - 1)^4 is all cyclotomic: no Salem part, so no entropy
    assert strip_cyclotomic(ident.char_poly) == (IntPolynomial((1,)),
                                                 [1, 1, 1, 1])
    with pytest.raises(NoSalemFactor, match="degree 0 < 4"):
        is_salem(ident.char_poly)
    assert fixed_point_bound(ident) == 6
    one = ActionMatrix(((1,),), ("H",))
    assert fixed_point_bound(one) == 3


def test_delta_eigen_check_quad_roots(salem8, salem8_cert):
    m = quad_action_matrix(8, 8, 8)
    for b in (salem8_cert.lam,) + salem8_cert.circle_roots:
        val = delta_eigen_check(m, b)
        assert val.contains_zero()
    # a non-eigenvalue stays certified away from zero
    val = delta_eigen_check(m, ComplexBall.exact(1.5))
    assert not val.contains_zero()


def test_delta_eigen_check_identity_exact():
    ident = ActionMatrix(
        tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3)),
        ("H", "E1", "E2"))
    val = delta_eigen_check(ident, ComplexBall.exact(1))
    assert val.center == 0 and val.contains_zero()


def test_delta_eigen_check_tl_root():
    orbit = OrbitData((2,), (1,))
    m = tl_action_matrix(orbit)
    cert = salem_from_orbit(orbit)
    assert delta_eigen_check(m, cert.circle_roots[0]).contains_zero()


def test_delta_eigen_check_large_matrix_exact():
    orbit = OrbitData((30,), (3,))
    m = tl_action_matrix(orbit)
    assert m.dim > 96
    cert = salem_from_orbit(orbit)
    assert delta_eigen_check(m, cert.lam).contains_zero()
    assert not delta_eigen_check(m, ComplexBall.exact(2.5 + 0.1j)).contains_zero()


def test_spectral_check_every_dimension():
    orbit = OrbitData((30,), (3,))
    m = tl_action_matrix(orbit)
    assert m.dim == 103
    cert = salem_from_orbit(orbit)
    rest, cyclo = strip_cyclotomic(m.char_poly)
    assert rest == cert.poly
    assert spectral_data(m, cert) == tuple(cyclo)
    assert matrix_info(m) == {"dim": 103, "trace": m.trace(),
                              "bound": fixed_point_bound(m)}
    # the check runs at dim 103 and catches a mismatch
    other = salem_from_orbit(OrbitData((2,), (1,)))
    with pytest.raises(PipelineFailed) as info:
        spectral_data(m, other)
    assert info.value.stage == "spectral_data"


def test_spectral_data_failure_branches():
    m = quad_action_matrix(8, 8, 8)
    message = ("spectral_data: action-matrix Salem factor differs from the "
               "orbit's Salem polynomial")
    # the division by a foreign Salem polynomial is not exact
    lehmer = salem_from_orbit(OrbitData((2,), (1,)))
    assert m.char_poly.try_exact_div(lehmer.poly) is None
    with pytest.raises(PipelineFailed) as info:
        spectral_data(m, lehmer)
    assert str(info.value) == message
    # t - 1 divides exactly, but the quotient keeps the Salem factor
    linear = SimpleNamespace(poly=cyclotomic(1))
    quotient = m.char_poly.try_exact_div(linear.poly)
    assert quotient is not None and strip_cyclotomic(quotient)[0].degree == 8
    with pytest.raises(PipelineFailed) as info:
        spectral_data(m, linear)
    assert str(info.value) == message


def test_char_poly_matches_faddeev_leverrier():
    mats = [quad_action_matrix(*ns, sigma=sigma)
            for sigma in PERMS for ns in ((0, 0, 0), (1, 4, 2), (9, 7, 12))]
    mats += [quad_action_matrix(38, 38, 39, sigma) for sigma in PERMS[:2]]
    orbits = [((2,), (1,)), ((1,), (5,)), ((30,), (3,)),
              ((1, 2), (1, 1)), ((7, 6), (5, 9)), ((12, 10), (8, 6)),
              ((1, 1, 1), (1, 1, 1)), ((3, 4, 5), (2, 3, 4)),
              ((5, 6, 7), (4, 5, 6))]
    mats += [tl_action_matrix(OrbitData(*o)) for o in orbits]
    assert max(m.dim for m in mats) == 119
    for m in mats:
        assert m.char_poly == char_poly_faddeev_leverrier(m.entries), m.dim


def test_char_poly_of_unit_column_cycles():
    # every unit column of the identity sits on the diagonal, so all of them
    # are kept in the split
    ident = ActionMatrix(
        tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)),
        ("H", "E1", "E2", "E3"))
    assert ident.char_poly == IntPolynomial((1, -4, 6, -4, 1))  # (t - 1)^4
    # H fixed and E1 -> E2 -> E3 -> E1: one cycle of unit columns, cut once
    cycle = ActionMatrix(((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0),
                          (0, 0, 1, 0)), ("H", "E1", "E2", "E3"))
    assert cycle.char_poly == IntPolynomial((-1, 1)) * IntPolynomial((-1, 0, 0, 1))
    assert cycle.char_poly == char_poly_faddeev_leverrier(cycle.entries)
    # all cyclotomic: no Salem part, so no entropy
    assert strip_cyclotomic(cycle.char_poly) == (IntPolynomial((1,)), [1, 1, 3])
    with pytest.raises(NoSalemFactor):
        is_salem(cycle.char_poly)


def test_matrix_text_export_stable():
    m = quad_action_matrix(1, 1, 1)
    text = m.to_text()
    lines = text.strip().split("\n")
    assert lines[0].split() == ["H", "E1.0", "E1.1", "E2.0", "E2.1", "E3.0", "E3.1"]
    assert len(lines) == 1 + m.dim
    assert text == m.to_text()
    # round-trip: the grid parses back to the entries
    grid = [tuple(int(v) for v in row.split()) for row in lines[1:]]
    assert tuple(grid) == m.entries


def test_quad_sigma_changes_matrix_but_not_form():
    a = quad_action_matrix(2, 3, 4, (0, 1, 2))
    b = quad_action_matrix(2, 3, 4, (1, 2, 0))
    assert a.entries != b.entries
    assert a.char_poly.degree == b.char_poly.degree
