"""Reference computations that the tests compare the library against.

They are slow and simple on purpose: each is a textbook algorithm with no
structure assumed of its input.
"""

from siegelcert.intpoly import IntPolynomial


def mat_mul(a, b):
    """Exact product of square integer matrices; zero entries of a are
    skipped, so sparse left factors cost little."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(n):
                    oi[j] += v * bk[j]
    return out


def char_poly_faddeev_leverrier(entries) -> IntPolynomial:
    """det(t I - M) by Faddeev-LeVerrier over bigints: O(n^4) integer work,
    and every division is exact."""
    n = len(entries)
    aux = [[0] * n for _ in range(n)]
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        for i in range(n):
            aux[i][i] += coeffs[n - k + 1]
        aux = mat_mul(entries, aux)
        tr = sum(aux[i][i] for i in range(n))
        assert tr % k == 0, "Faddeev-LeVerrier trace not divisible"
        coeffs[n - k] = -tr // k
    return IntPolynomial(tuple(coeffs))
