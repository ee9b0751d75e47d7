"""Integer action matrices on the blowup cohomology lattice.

The basis is the line class H followed by one exceptional class per blown-up
orbit point, each orbit listed oldest step first; the intersection form is
diag(1, -1, ..., -1).  Constructors build the pullback action for the two map
families and verify exact form preservation M^T J M = J on construction.
Characteristic polynomials are computed exactly over Python bigints
(Faddeev-LeVerrier), never in floating point, so cyclotomic stripping and
Salem-factor comparisons are integer identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .balls import ComplexBall
from .errors import MixedFactor, PipelineFailed
from .intpoly import IntPolynomial, strip_cyclotomic
from .salem import SalemCertificate, is_salem

CHARPOLY_DIM_CAP = 96


@dataclass(frozen=True)
class ActionMatrix:
    """Pullback matrix: column j holds the image of basis vector j."""

    entries: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(r) != n for r in self.entries):
            raise ValueError("entries must be square and nonempty")
        if len(self.labels) != n:
            raise ValueError("label count must match dimension")
        if not self.preserves_form():
            raise ValueError("matrix does not preserve the intersection form")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def form_signs(self) -> tuple[int, ...]:
        return (1,) + (-1,) * (self.dim - 1)

    def preserves_form(self) -> bool:
        m = self.entries
        signs = self.form_signs
        n = self.dim
        for i in range(n):
            for j in range(i, n):
                s = sum(signs[k] * m[k][i] * m[k][j] for k in range(n))
                want = signs[i] if i == j else 0
                if s != want:
                    return False
        return True

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.dim))

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        n = self.dim
        return tuple(sum(self.entries[i][j] * vec[j] for j in range(n))
                     for i in range(n))

    @property
    def canonical_vector(self) -> tuple[int, ...]:
        """K = -3 H + sum of all exceptional classes."""
        return (-3,) + (1,) * (self.dim - 1)

    @cached_property
    def char_poly(self) -> IntPolynomial:
        """Exact monic characteristic polynomial det(t I - M)."""
        return _char_poly_exact(self.entries)

    def to_text(self) -> str:
        """Stable plain-text export: label header row, then the integer grid."""
        width = max(len(s) for s in self.labels)
        width = max(width, max(len(str(v)) for row in self.entries for v in row))
        head = " ".join(s.rjust(width) for s in self.labels)
        body = "\n".join(" ".join(str(v).rjust(width) for v in row)
                         for row in self.entries)
        return head + "\n" + body + "\n"


def _char_poly_exact(entries) -> IntPolynomial:
    """Faddeev-LeVerrier over bigints: all divisions are exact."""
    n = len(entries)
    m = [list(r) for r in entries]
    aux = [row[:] for row in m]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    c = -sum(aux[i][i] for i in range(n))
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        for i in range(n):
            aux[i][i] += c
        aux = _mat_mul(m, aux)
        tr = sum(aux[i][i] for i in range(n))
        assert tr % k == 0, "Faddeev-LeVerrier trace not divisible"
        c = -tr // k
        coeffs[n - k] = c
    return IntPolynomial(tuple(coeffs))


def _mat_mul(a, b):
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


# ---------------------------------------------------------------------------
# constructors for the two families
# ---------------------------------------------------------------------------

def quad_action_matrix(n1: int, n2: int, n3: int,
                       sigma: tuple[int, int, int] = (0, 1, 2)) -> ActionMatrix:
    """Pullback action for a quadratic map whose i-th backward indeterminacy
    point reaches the sigma(i)-th forward one after n_i steps.

    Dimension 1 + (n1 + n2 + n3 + 3).  The class over the line pulls back to
    twice itself minus the three orbit-end classes; the class over each
    backward point pulls back to the line class minus the end classes of the
    two other matched orbits; every other orbit class shifts one step down.
    """
    ns = (n1, n2, n3)
    if any(v < 0 for v in ns):
        raise ValueError("orbit lengths must be >= 0")
    if sorted(sigma) != [0, 1, 2]:
        raise ValueError("sigma must be a permutation of (0, 1, 2)")
    labels = ["H"]
    index: dict[tuple[int, int], int] = {}
    for l in range(3):
        for k in range(ns[l] + 1):
            index[(l, k)] = len(labels)
            labels.append(f"E{l + 1}.{k}")
    dim = len(labels)
    col = [[0] * dim for _ in range(dim)]  # col[j][i]: row i of column j

    ends = {l: index[(l, ns[l])] for l in range(3)}
    inv_sigma = {sigma[l]: l for l in range(3)}

    col[0][0] = 2
    for l in range(3):
        col[0][ends[l]] -= 1
    for i in range(3):
        j = index[(i, 0)]
        col[j][0] += 1
        partner = inv_sigma[i]
        for l in range(3):
            if l != partner:
                col[j][ends[l]] -= 1
    for l in range(3):
        for k in range(1, ns[l] + 1):
            col[index[(l, k)]][index[(l, k - 1)]] += 1
    entries = tuple(tuple(col[j][i] for j in range(dim)) for i in range(dim))
    return ActionMatrix(entries, tuple(labels))


def tl_action_matrix(orbit) -> ActionMatrix:
    """Pullback action for the three-lines family with the given orbit data.

    Dimension 1 + [3 + sum(3 m_i - 1) + sum(3 n_j + 1)].  The line class pulls
    back to (N+1) H minus N times the end of the infinity orbit minus every
    other orbit end; the three kinds of backward classes pull back to the
    displayed combinations of H and orbit ends; all other classes shift one
    step down their orbit.
    """
    m, n = orbit.m, orbit.n
    N = len(m)
    labels = ["H"]
    index: dict[tuple[str, int, int], int] = {}

    def add_orbit(tag: str, which: int, length: int):
        for k in range(length):
            index[(tag, which, k)] = len(labels)
            labels.append(f"E{tag}{which if tag != '0' else ''}.{k}")

    add_orbit("0", 0, 3)
    for i, mi in enumerate(m):
        add_orbit("a", i + 1, 3 * mi - 1)
    for j, nj in enumerate(n):
        add_orbit("b", j + 1, 3 * nj + 1)
    dim = len(labels)
    col = [[0] * dim for _ in range(dim)]

    end0 = index[("0", 0, 2)]
    end_a = {i: index[("a", i + 1, 3 * m[i] - 2)] for i in range(N)}
    end_b = {j: index[("b", j + 1, 3 * n[j])] for j in range(N)}

    def minus_all_ends(column, h_coeff, e0_coeff):
        column[0] += h_coeff
        column[end0] -= e0_coeff
        for i in range(N):
            column[end_a[i]] -= 1
        for j in range(N):
            column[end_b[j]] -= 1

    minus_all_ends(col[0], N + 1, N)
    minus_all_ends(col[index[("0", 0, 0)]], N, N - 1)
    for i in range(N):
        j0 = index[("a", i + 1, 0)]
        col[j0][0] += 1
        col[j0][end0] -= 1
        col[j0][end_a[i]] -= 1
    for j in range(N):
        j0 = index[("b", j + 1, 0)]
        col[j0][0] += 1
        col[j0][end0] -= 1
        col[j0][end_b[j]] -= 1
    for (tag, which, k), idx in index.items():
        if k >= 1:
            col[idx][index[(tag, which, k - 1)]] += 1
    entries = tuple(tuple(col[j][i] for j in range(dim)) for i in range(dim))
    return ActionMatrix(entries, tuple(labels))


# ---------------------------------------------------------------------------
# spectral data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralData:
    lam: ComplexBall
    entropy: float
    salem_part: IntPolynomial
    cyclo_parts: tuple[int, ...]
    salem_cert: SalemCertificate | None = None


def spectral_data(m: ActionMatrix,
                  dim_cap: int | None = CHARPOLY_DIM_CAP) -> SpectralData:
    """Exact char poly, cyclotomic/Salem split, spectral radius and entropy.

    Raises MixedFactor above dim_cap (None: no cap)."""
    if dim_cap is not None and m.dim > dim_cap:
        raise MixedFactor(f"dimension {m.dim} exceeds the exact char-poly cap "
                          f"{dim_cap}; use delta_eigen_check for large matrices")
    rest, cyclo = strip_cyclotomic(m.char_poly)
    if rest.degree < 1:
        return SpectralData(ComplexBall.exact(1), 0.0, rest, tuple(cyclo))
    cert = is_salem(rest)
    if not cert:
        raise MixedFactor(f"non-cyclotomic factor of degree {rest.degree} "
                          f"fails the Salem pattern: {cert.reason}")
    return SpectralData(cert.lam, cert.entropy, rest, tuple(cyclo), cert)


def fixed_point_bound(m: ActionMatrix) -> int:
    """Upper bound trace + 2 for the number of isolated fixed points."""
    return m.trace() + 2


def delta_eigen_check(m: ActionMatrix, delta) -> ComplexBall:
    """Certified ball for |det(delta I - M)|, the exact characteristic
    polynomial evaluated at the ball; eigenvalue claims demand it contain
    zero."""
    value = m.char_poly.eval_ball(ComplexBall.exact(delta))
    return ComplexBall(complex(abs(value.center), 0.0), value.radius)


@dataclass(frozen=True)
class SpectralCheck:
    matrix_info: dict               # dim, trace and fixed-point bound
    entropy: float
    data: SpectralData | None       # None when the dimension exceeded the cap


def spectral_check(m: ActionMatrix, cert: SalemCertificate,
                   dim_cap: int | None = CHARPOLY_DIM_CAP) -> SpectralCheck:
    """Matrix data and entropy for a report whose Salem factor is cert.poly.

    Up to dim_cap (None: every dimension) the exact characteristic polynomial
    must split off exactly cert.poly, and the entropy comes from it; above
    the cap the entropy is the certificate's and nothing is cross-checked.
    """
    info = {"dim": m.dim, "trace": m.trace(), "bound": fixed_point_bound(m)}
    if dim_cap is not None and m.dim > dim_cap:
        return SpectralCheck(info, cert.entropy, None)
    sd = spectral_data(m, dim_cap=None)
    if sd.salem_part != cert.poly:
        raise PipelineFailed("spectral_data", "action-matrix Salem factor "
                             "differs from the orbit's Salem polynomial")
    return SpectralCheck(info, sd.entropy, sd)
