import pytest

from siegelcert.intpoly import IntPolynomial


@pytest.fixture(scope="session")
def salem8() -> IntPolynomial:
    """The degree-8 Salem polynomial governing the cuspidal orbit closure."""
    return IntPolynomial((1, -2, 1, -2, 1, -2, 1, -2, 1))


@pytest.fixture(scope="session")
def salem8_cert(salem8):
    from siegelcert.salem import is_salem
    return is_salem(salem8)
