"""Integer action matrices on the blowup cohomology lattice.

The basis is the line class H followed by one exceptional class per blown-up
orbit point, each orbit listed oldest step first; the intersection form is
diag(1, -1, ..., -1).  Both constructors build the pullback action for their
map family on one shared orbit-lattice scaffold, and every ActionMatrix
verifies exact form preservation M^T J M = J on construction, with the same
exact integer product (_mat_mul) that computes the characteristic polynomial.
Characteristic polynomials are computed exactly over Python bigints
(Faddeev-LeVerrier), never in floating point, so cyclotomic stripping and
Salem-factor comparisons are integer identities.  spectral_data works at any
dimension; the one size cap, CHARPOLY_DIM_CAP, is applied by spectral_check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .balls import ComplexBall
from .errors import CheckFailed, MixedFactor, PipelineFailed
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
        """Exact integer check of M^T J M = J."""
        form = _diagonal(self.form_signs)
        transpose = tuple(zip(*self.entries))
        return _mat_mul(transpose, _mat_mul(form, self.entries)) == form

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
    aux = [[0] * n for _ in range(n)]
    coeffs = [0] * n + [1]
    for k in range(1, n + 1):
        for i in range(n):
            aux[i][i] += coeffs[n - k + 1]
        aux = _mat_mul(entries, aux)
        tr = sum(aux[i][i] for i in range(n))
        if tr % k:
            raise CheckFailed("Faddeev-LeVerrier trace not divisible")
        coeffs[n - k] = -tr // k
    return IntPolynomial(tuple(coeffs))


def _diagonal(values) -> list[list[int]]:
    out = [[0] * len(values) for _ in values]
    for i, v in enumerate(values):
        out[i][i] = v
    return out


def _mat_mul(a, b):
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


# ---------------------------------------------------------------------------
# constructors for the two families
# ---------------------------------------------------------------------------

def _orbit_lattice(chains):
    """Basis scaffolding shared by both families.

    chains lists (name, length) for each orbit; the basis is H followed by
    the classes "name.k" of every orbit, oldest step first.  Returns the
    labels, index (index[c][k] is the basis position of class k of chain c,
    so index[c][-1] is the orbit end) and the column grid col[j][i] (row i of
    column j) with every class k >= 1 already shifted one step down its orbit.
    """
    labels = ["H"]
    index = []
    for name, length in chains:
        index.append(range(len(labels), len(labels) + length))
        labels.extend(f"{name}.{k}" for k in range(length))
    col = [[0] * len(labels) for _ in labels]
    for idx in index:
        for prev, cur in zip(idx, idx[1:]):
            col[cur][prev] += 1
    return tuple(labels), index, col


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
    labels, index, col = _orbit_lattice(
        [(f"E{l + 1}", ns[l] + 1) for l in range(3)])
    ends = [idx[-1] for idx in index]
    inv_sigma = {sigma[l]: l for l in range(3)}

    col[0][0] = 2
    for end in ends:
        col[0][end] -= 1
    for i in range(3):
        j = index[i][0]
        col[j][0] += 1
        for l in range(3):
            if l != inv_sigma[i]:
                col[j][ends[l]] -= 1
    return ActionMatrix(tuple(zip(*col)), labels)


def tl_action_matrix(orbit) -> ActionMatrix:
    """Pullback action for the three-lines family with the given orbit data.

    Dimension 1 + [3 + sum(3 m_i - 1) + sum(3 n_j + 1)].  The line class pulls
    back to (N+1) H minus N times the end of the infinity orbit minus every
    other orbit end; the three kinds of backward classes pull back to the
    displayed combinations of H and orbit ends; all other classes shift one
    step down their orbit.
    """
    N = len(orbit.m)
    labels, index, col = _orbit_lattice(
        [("E0", 3)]
        + [(f"Ea{i + 1}", 3 * mi - 1) for i, mi in enumerate(orbit.m)]
        + [(f"Eb{j + 1}", 3 * nj + 1) for j, nj in enumerate(orbit.n)])
    end0 = index[0][-1]
    other_ends = [idx[-1] for idx in index[1:]]

    def minus_all_ends(column, h_coeff, e0_coeff):
        column[0] += h_coeff
        column[end0] -= e0_coeff
        for end in other_ends:
            column[end] -= 1

    minus_all_ends(col[0], N + 1, N)
    minus_all_ends(col[index[0][0]], N, N - 1)
    for idx in index[1:]:  # the a and b orbits alike
        col[idx[0]][0] += 1
        col[idx[0]][end0] -= 1
        col[idx[0]][idx[-1]] -= 1
    return ActionMatrix(tuple(zip(*col)), labels)


# ---------------------------------------------------------------------------
# spectral data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralData:
    lam: ComplexBall
    entropy: float
    salem_part: IntPolynomial
    cyclo_parts: tuple[int, ...]


def spectral_data(m: ActionMatrix) -> SpectralData:
    """Exact char poly, cyclotomic/Salem split, spectral radius and entropy,
    at every dimension (the size cap is spectral_check's choice)."""
    rest, cyclo = strip_cyclotomic(m.char_poly)
    if rest.degree < 1:
        return SpectralData(ComplexBall.exact(1), 0.0, rest, tuple(cyclo))
    cert = is_salem(rest)
    if not cert:
        raise MixedFactor(f"non-cyclotomic factor of degree {rest.degree} "
                          f"fails the Salem pattern: {cert.reason}")
    return SpectralData(cert.lam, cert.entropy, rest, tuple(cyclo))


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
    data: SpectralData | None       # None when the dimension exceeded the cap


def spectral_check(m: ActionMatrix, cert: SalemCertificate,
                   dim_cap: int | None = CHARPOLY_DIM_CAP) -> SpectralCheck:
    """Matrix data for a report whose Salem factor is cert.poly.

    Up to dim_cap (None: every dimension) the exact characteristic polynomial
    must split off exactly cert.poly (else PipelineFailed), so the report's
    entropy, cert.entropy, is the action's; above the cap nothing is
    cross-checked and data is None.  This is the only place the cap is read:
    it bounds the Faddeev-LeVerrier cost of per-item runs, while theorem1
    passes None.
    """
    info = {"dim": m.dim, "trace": m.trace(), "bound": fixed_point_bound(m)}
    if dim_cap is not None and m.dim > dim_cap:
        return SpectralCheck(info, None)
    sd = spectral_data(m)
    if sd.salem_part != cert.poly:
        raise PipelineFailed("spectral_data", "action-matrix Salem factor "
                             "differs from the orbit's Salem polynomial")
    return SpectralCheck(info, sd)
