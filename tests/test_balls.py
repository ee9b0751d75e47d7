"""Ball arithmetic: containment soundness against a higher-precision oracle."""

import cmath
import copy
import math
import pickle
import random
import struct

import mpmath
import pytest

from siegelcert.balls import ComplexBall, Verdict, _power, ball_in_interval
from siegelcert.errors import BallDomainError, SiegelcertError

from oracles import (ball_add_reference, ball_mul_reference,
                     ball_pow_reference, ball_rsub_reference,
                     ball_sub_reference)

mpmath.mp.dps = 50


def _sample_in(ball: ComplexBall, rng: random.Random) -> complex:
    r = ball.radius * math.sqrt(rng.random())
    t = rng.uniform(0.0, 2.0 * math.pi)
    return ball.center + r * complex(math.cos(t), math.sin(t))


def _random_ball(rng: random.Random, spread: float = 4.0) -> ComplexBall:
    c = complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
    return ComplexBall(c, abs(rng.gauss(0, 0.1)))


def test_inclusion_monotonicity_1000_cases():
    """Exact arithmetic on points inside the operands lands inside the output."""
    rng = random.Random(20240811)
    ops = ("add", "sub", "mul", "div", "sqrt", "inv", "pow3")
    checked = 0
    while checked < 1000:
        a = _random_ball(rng)
        b = _random_ball(rng)
        op = ops[checked % len(ops)]
        try:
            if op == "add":
                out = a + b
            elif op == "sub":
                out = a - b
            elif op == "mul":
                out = a * b
            elif op == "div":
                out = a / b
            elif op == "sqrt":
                out = a.sqrt()
            elif op == "inv":
                out = a.inverse()
            else:
                out = a ** 3
        except BallDomainError:
            continue
        za = _sample_in(a, rng)
        zb = _sample_in(b, rng)
        ma = mpmath.mpc(za.real, za.imag)
        mb = mpmath.mpc(zb.real, zb.imag)
        if op == "add":
            exact = ma + mb
        elif op == "sub":
            exact = ma - mb
        elif op == "mul":
            exact = ma * mb
        elif op == "div":
            exact = ma / mb
        elif op == "sqrt":
            exact = mpmath.sqrt(ma)
            if abs(complex(exact) - cmath.sqrt(a.center)) > abs(
                    -complex(exact) - cmath.sqrt(a.center)):
                exact = -exact  # the analytic branch through sqrt(center)
        elif op == "inv":
            exact = 1 / ma
        else:
            exact = ma ** 3
        dist = abs(mpmath.mpc(out.center.real, out.center.imag) - exact)
        assert dist <= out.radius * (1 + 1e-12) + 1e-290, (op, a, b, out)
        checked += 1
    # a scalar on either side: ints and floats within 2^52 take the fast
    # paths, 2^53 + 1, 1e20 and complex numbers the exact one
    scalars = (0, 1, -1, 2, 3, -7, 2 ** 52, -2 ** 52, 2 ** 53 + 1, 0.5, -1.5,
               -0.0, 1e-3, 3.25e8, 1e20, 2 - 0.5j)
    scalar_ops = (lambda b, x: b + x, lambda b, x: x + b,
                  lambda b, x: b - x, lambda b, x: x - b,
                  lambda b, x: b * x, lambda b, x: x * b)
    for case in range(500):
        b = _random_ball(rng)
        x = rng.choice(scalars)
        op = scalar_ops[case % len(scalar_ops)]
        out = op(b, x)
        zb = _sample_in(b, rng)
        mx = mpmath.mpc(x.real, x.imag) if isinstance(x, complex) else mpmath.mpf(x)
        exact = op(mpmath.mpc(zb.real, zb.imag), mx)
        dist = abs(mpmath.mpc(out.center.real, out.center.imag) - exact)
        assert dist <= out.radius * (1 + 1e-12) + 1e-290, (case, b, x, out)
        checked += 1
    print(f"ball inclusion monotonicity: {checked} cases PASS")


def _bits(z) -> tuple:
    """Bit patterns of the parts of a float or complex; tells -0.0 from 0.0."""
    z = complex(z)
    return (struct.pack("<d", z.real), struct.pack("<d", z.imag))


def _same_bits(ball: ComplexBall, ref: tuple) -> bool:
    center, radius = ref
    return (_bits(ball.center) == _bits(center)
            and struct.pack("<d", ball.radius) == struct.pack("<d", radius))


def test_scalar_fast_paths_match_the_exact_path_bit_for_bit():
    """+, - and * with an int or float operand give the bits of the old
    kernel, which made every operand a ball through ComplexBall.exact."""
    rng = random.Random(20261018)
    balls = [_random_ball(rng) for _ in range(40)]
    balls += [ComplexBall(complex(0.0, -0.0)), ComplexBall(complex(-0.0, 0.0), 1e-9),
              ComplexBall(complex(-2.5, -0.0), 3e-12), ComplexBall(0j, 0.0),
              ComplexBall(complex(1e-300, -1e-300), 1e-310)]
    operands = [0, -1, 1, 3, -12345, 2 ** 52, -2 ** 52, 2 ** 53 + 1,
                -(2 ** 53 + 1), 0.0, -0.0, 0.5, -1.5, 1e-300, -3.7e10, 1e200,
                0j, complex(-0.0, -0.0), complex(1.5, -2.0), complex(-0.0, 3.0),
                True]
    operands += [rng.uniform(-1e3, 1e3) for _ in range(10)]
    cases = 0
    for a in balls:
        for x in operands:
            for got, ref in ((a + x, ball_add_reference(a, x)),
                             (x + a, ball_add_reference(a, x)),
                             (a - x, ball_sub_reference(a, x)),
                             (x - a, ball_rsub_reference(a, x)),
                             (a * x, ball_mul_reference(a, x)),
                             (x * a, ball_mul_reference(a, x))):
                assert _same_bits(got, ref), (a, x, got, ref)
                cases += 1
    # ball operands of both signs of zero, through the same formulas
    for a in balls:
        for b in balls[-5:]:
            assert _same_bits(a + b, ball_add_reference(a, b))
            assert _same_bits(a - b, ball_sub_reference(a, b))
            assert _same_bits(b - a, ball_rsub_reference(a, b))
            assert _same_bits(a * b, ball_mul_reference(a, b))
    # 2^53 + 1 is not a double: it takes the exact path and its ball is wide
    assert ComplexBall.exact(2 ** 53 + 1).radius >= 1.0
    assert (ComplexBall(0j) + (2 ** 53 + 1)).radius >= 1.0
    print(f"scalar fast paths: {cases} cases bit-identical")


def test_value_semantics():
    a = ComplexBall(1.5 - 2j, 1e-9)
    for name in ("center", "radius", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0.0)
    with pytest.raises(AttributeError):
        del a.center
    twin = ComplexBall(1.5 - 2j, 1e-9)
    assert twin is not a and twin == a and hash(twin) == hash(a)
    assert {a: "root"}[twin] == "root"
    assert twin in [ComplexBall(0j), a]
    assert -(-a) == a and a.conjugate().conjugate() == a
    assert a != ComplexBall(1.5 - 2j, 2e-9) and a != ComplexBall(1.5 + 2j, 1e-9)
    assert a != (1.5 - 2j, 1e-9) and a != 1.5 - 2j
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for center, radius in ((complex(math.nan, 0.0), 0.0),
                           (complex(0.0, math.inf), 0.0),
                           (1.0 + 0j, math.inf), (1.0 + 0j, math.nan),
                           (1.0 + 0j, -1e-300)):
        with pytest.raises(ValueError):
            ComplexBall(center, radius)


def test_overflow_raises_ball_domain_error():
    """An overflowing result is a diagnosed BallDomainError, not a crash."""
    big = ComplexBall(1e200)
    with pytest.raises(BallDomainError):
        big * big
    with pytest.raises(BallDomainError):
        ComplexBall(1e308 + 0j) + ComplexBall(1e308 + 0j)
    with pytest.raises(BallDomainError):
        ComplexBall(1e300 + 0j) * 1e300
    with pytest.raises(BallDomainError):
        ComplexBall(1e-300 + 0j, 1e-310).inverse() * 1e300
    with pytest.raises(BallDomainError):
        # both parts finite, the modulus is not
        ComplexBall(complex(1.5e308, 1.5e308)) + 0.0
    assert issubclass(BallDomainError, SiegelcertError)
    assert not issubclass(BallDomainError, ValueError)
    # a non-finite operand is bad input, rejected by the public constructor
    with pytest.raises(ValueError):
        ComplexBall(1.0 + 0j) * math.inf
    with pytest.raises(ValueError):
        ComplexBall(1.0 + 0j) + math.nan


def test_ball_interval_examples():
    assert ball_in_interval(ComplexBall(2.0 + 0j, 1e-9)) is Verdict.CERTIFIED_IN
    assert ball_in_interval(ComplexBall(5.91 + 0j, 1e-3)) is Verdict.CERTIFIED_OUT
    assert ball_in_interval(ComplexBall(4.0 + 0j, 1e-3)) is Verdict.UNKNOWN


def test_ball_interval_complex_cases():
    # far off the axis: certainly outside the segment
    assert ball_in_interval(ComplexBall(2 + 1j, 0.5)) is Verdict.CERTIFIED_OUT
    # meets the axis inside the segment but center not exactly real: the
    # reality gate (realize_real after a reality certificate) has not run
    assert ball_in_interval(ComplexBall(2 + 0.1j, 0.2)) is Verdict.UNKNOWN
    assert ball_in_interval(ComplexBall(2 + 1e-15j, 1e-9)) is Verdict.UNKNOWN
    assert ball_in_interval(
        ComplexBall(2 + 1e-15j, 1e-9).realize_real()) is Verdict.CERTIFIED_IN


def test_division_through_zero_rejected():
    with pytest.raises(BallDomainError):
        ComplexBall(0.5 + 0j, 1.0).inverse()
    with pytest.raises(BallDomainError):
        ComplexBall(1e-3 + 0j, 1e-2).sqrt()


def test_realize_real_contains_real_truth():
    # value known real, computed with a small imaginary drift
    b = ComplexBall(1.5 + 1e-13j, 1e-12).realize_real()
    assert b.center.imag == 0.0
    assert b.contains(1.5 + 0j)
    assert b.contains(1.5 + 1e-13j - 1e-13j)


def test_exact_big_int_conversion():
    n = 2**60 + 1  # not representable as a double
    b = ComplexBall.exact(n)
    assert b.radius >= 1.0
    assert abs(b.center - float(n)) == 0.0


def _ball_bits(b: ComplexBall):
    return b.center.real.hex(), b.center.imag.hex(), b.radius.hex()


def test_powers_sharing_squarings_keep_the_bits_of_one_power():
    """ComplexBall ** n and _power over one shared list of squarings, in
    any order of exponents, against the loop of one power; overflow raises
    the same BallDomainError."""
    rng = random.Random(17)
    for trial in range(40):
        b = ComplexBall(cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 7)),
                        rng.choice([0.0, 1e-15, 1e-9, 1e-3]))
        exponents = list(range(0, 200))
        rng.shuffle(exponents)
        squares = [b]
        for n in exponents:
            want = ball_pow_reference(b, n)
            assert _ball_bits(b ** n) == _ball_bits(want)
            assert _ball_bits(_power(squares, n)) == _ball_bits(want)
    big = ComplexBall(1e80 + 1e80j, 1.0)
    with pytest.raises(BallDomainError) as want:
        ball_pow_reference(big, 7)
    with pytest.raises(BallDomainError) as got:
        _power([big, big * big], 7)
    assert str(got.value) == str(want.value)


def test_pow_zero_and_one():
    b = ComplexBall(2 + 1j, 1e-3)
    assert (b ** 0).center == 1
    assert (b ** 1).contains(b.center)
