"""Integer action matrices on the blowup cohomology lattice.

The basis is the line class H followed by one exceptional class per blown-up
orbit point, each orbit listed oldest step first; the intersection form is
diag(1, -1, ..., -1).  An ActionMatrix keeps each column's nonzero entries
(most columns hold one) and never a dim x dim grid: both constructors build
the pullback action for their map family as columns on one shared
orbit-lattice scaffold, a dense grid given to the public constructor is
converted once, and the dense entries are derived on demand for to_text.
Every ActionMatrix verifies exact form preservation M^T J M = J on
construction, summed over each row's nonzeros.  Characteristic polynomials
are exact over Python bigints, never in floating point: most columns of an
action matrix are unit vectors that shift a class one step down its orbit,
so the matrix determinant lemma reduces det(t I - M) to an r x r
determinant over Z[1/t], with r = 4 for the cuspidal family and 2N + 2 for
three-lines.  Cyclotomic
stripping and Salem-factor comparisons are therefore integer identities:
spectral_data divides the characteristic polynomial by the run's certified
Salem factor exactly, at every dimension, and strips only the quotient.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from functools import cached_property

from .balls import ComplexBall
from .errors import CheckFailed, PipelineFailed
from .intpoly import ONE, IntPolynomial, strip_cyclotomic
from .salem import SalemCertificate


@dataclass(frozen=True, init=False)
class ActionMatrix:
    """Pullback matrix: column j holds the image of basis vector j, kept as
    its nonzero entries (row, value) in ascending row order."""

    columns: tuple[tuple[tuple[int, int], ...], ...]
    labels: tuple[str, ...]

    def __init__(self, entries, labels):
        """The matrix whose row i is entries[i], a square grid."""
        n = len(entries)
        if n == 0 or any(len(r) != n for r in entries):
            raise ValueError("entries must be square and nonempty")
        self._assign(tuple(tuple((i, row[j]) for i, row in enumerate(entries)
                                 if row[j]) for j in range(n)), labels)

    @classmethod
    def _from_columns(cls, columns, labels) -> "ActionMatrix":
        """The matrix whose column j has the entries columns[j], a mapping
        from row to value."""
        m = cls.__new__(cls)
        m._assign(tuple(tuple(sorted((i, v) for i, v in col.items() if v))
                        for col in columns), labels)
        return m

    def _assign(self, columns, labels):
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "labels", labels)
        if len(labels) != len(columns):
            raise ValueError("label count must match dimension")
        if not self.preserves_form():
            raise ValueError("matrix does not preserve the intersection form")

    @property
    def dim(self) -> int:
        return len(self.columns)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The dense grid: entries[i][j] is row i of column j."""
        grid = [[0] * self.dim for _ in self.columns]
        for j, col in enumerate(self.columns):
            for i, v in col:
                grid[i][j] = v
        return tuple(map(tuple, grid))

    @property
    def form_signs(self) -> tuple[int, ...]:
        return (1,) + (-1,) * (self.dim - 1)

    def preserves_form(self) -> bool:
        """Exact integer check of M^T J M = J.  Row k adds J_k M[k][i] M[k][j]
        to entry (i, j) for each pair of its nonzeros; the diagonal must then
        equal the form signs and every other entry must be 0."""
        signs = self.form_signs
        rows = [[] for _ in signs]
        for j, col in enumerate(self.columns):
            for i, v in col:
                rows[i].append((j, v))
        gram = collections.Counter()
        for sign, nonzeros in zip(signs, rows):
            for i, v in nonzeros:
                for j, w in nonzeros:
                    gram[i, j] += sign * v * w
        return (all(gram.pop((i, i), 0) == sign
                    for i, sign in enumerate(signs))
                and not any(gram.values()))

    def trace(self) -> int:
        return sum(v for j, col in enumerate(self.columns)
                   for i, v in col if i == j)

    @cached_property
    def char_poly(self) -> IntPolynomial:
        """Exact monic characteristic polynomial det(t I - M)."""
        return _char_poly_lattice(self.columns)

    def to_text(self) -> str:
        """Stable plain-text export: label header row, then the integer grid."""
        entries = self.entries
        width = max(len(s) for s in self.labels)
        width = max(width, max(len(str(v)) for row in entries for v in row))
        head = " ".join(s.rjust(width) for s in self.labels)
        body = "\n".join(" ".join(str(v).rjust(width) for v in row)
                         for row in entries)
        return head + "\n" + body + "\n"


def _char_poly_lattice(columns) -> IntPolynomial:
    """det(t I - M) by the matrix determinant lemma over the column split.

    columns[j] lists the nonzero (row, value) entries of column j.  A unit
    column e_i with i != j sends j to its successor i; S holds every other
    column plus one column of each successor cycle, so the unit columns
    outside S form a nilpotent P and M = P + U E_S^T with r = |S|.  Each
    j outside S walks to a terminal a(j) in S in d(j) >= 1 steps, and with
    s = 1/t, K_ab(s) = s (M[a][b] + sum over a(j) = a of M[j][b] s^d(j)), so
    det(t I - M) = t^n det(I_r - K(1/t)).  D(s) = det(I_r - K(s)) comes from
    fraction-free Bareiss over Z[s]; each pivot is a leading principal minor
    with constant term 1, so none is zero, and a failed exact division or
    D(0) != 1 raises CheckFailed.  The coefficients of the characteristic
    polynomial are those of D, reversed.
    """
    n = len(columns)
    succ = {j: col[0][0] for j, col in enumerate(columns)
            if len(col) == 1 and col[0][1] == 1 and col[0][0] != j}
    reach = {}  # j outside S -> (a(j), d(j))
    for start in range(n):
        path = {}  # the walk from start, in order
        j = start
        while j in succ and j not in reach and j not in path:
            path[j] = None
            j = succ[j]
        if j in path:  # a new successor cycle: its column j joins S
            del succ[j]
        a, d = reach[j] if j in reach else (j, 0)
        for k in reversed(path):
            if k not in succ:
                a, d = k, 0
                continue
            d += 1
            reach[k] = a, d
    split = [j for j in range(n) if j not in succ]
    pos = {a: p for p, a in enumerate(split)}
    r = len(split)
    # entry[a][b] maps each power of s to its coefficient in (I_r - K(s))_ab
    entry = [[{0: 1} if a == b else {} for b in range(r)] for a in range(r)]
    for b, col in enumerate(split):
        for j, v in columns[col]:
            a, d = reach.get(j, (j, 0))
            powers = entry[pos[a]][b]
            powers[d + 1] = powers.get(d + 1, 0) - v
    rows = [[IntPolynomial(tuple(powers.get(k, 0)
                                 for k in range(max(powers, default=-1) + 1)))
             for powers in row] for row in entry]
    prev = ONE
    for k in range(r - 1):
        pivot = rows[k][k]
        for i in range(k + 1, r):
            lead = rows[i][k]
            for j in range(k + 1, r):
                q = (pivot * rows[i][j] - lead * rows[k][j]).try_exact_div(prev)
                if q is None:
                    raise CheckFailed("Bareiss division over Z[s] not exact")
                rows[i][j] = q
        prev = pivot
    det = rows[-1][-1]
    if det[0] != 1 or det.degree > n:
        raise CheckFailed("determinant-lemma polynomial is not 1 + O(s) "
                          f"of degree <= {n}")
    return IntPolynomial(tuple(det[n - k] for k in range(n + 1)))


# ---------------------------------------------------------------------------
# constructors for the two families
# ---------------------------------------------------------------------------

def _orbit_lattice(chains):
    """Basis scaffolding shared by both families.

    chains lists (name, length) for each orbit; the basis is H followed by
    the classes "name.k" of every orbit, oldest step first.  Returns the
    labels, index (index[c][k] is the basis position of class k of chain c,
    so index[c][-1] is the orbit end) and the columns, col[j] mapping each
    row i to the entry in row i of column j (0 where it has none), with
    every class k >= 1 already shifted one step down its orbit.
    """
    labels = ["H"]
    index = []
    for name, length in chains:
        index.append(range(len(labels), len(labels) + length))
        labels.extend(f"{name}.{k}" for k in range(length))
    col = [collections.defaultdict(int) for _ in labels]
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
    return ActionMatrix._from_columns(col, labels)


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
    return ActionMatrix._from_columns(col, labels)


# ---------------------------------------------------------------------------
# spectral data
# ---------------------------------------------------------------------------

def spectral_data(m: ActionMatrix, cert: SalemCertificate) -> tuple[int, ...]:
    """Cyclotomic indices of m's characteristic polynomial once cert.poly is
    divided out exactly, ascending and repeated per multiplicity.

    The non-cyclotomic part must be cert.poly itself, so that the report's
    entropy, cert.entropy, is the action's: an inexact division or a
    quotient with a non-cyclotomic factor raises PipelineFailed.  Only the
    quotient is stripped; cert.poly is Salem, hence has no cyclotomic factor.
    """
    rest = m.char_poly.try_exact_div(cert.poly)
    if rest is not None:
        rest, cyclo = strip_cyclotomic(rest)
    if rest != ONE:
        raise PipelineFailed("spectral_data", "action-matrix Salem factor "
                             "differs from the orbit's Salem polynomial")
    return tuple(cyclo)


def matrix_info(m: ActionMatrix) -> dict:
    """The report's matrix block: dimension, trace and fixed-point bound."""
    return {"dim": m.dim, "trace": m.trace(), "bound": fixed_point_bound(m)}


def fixed_point_bound(m: ActionMatrix) -> int:
    """Upper bound trace + 2 for the number of isolated fixed points."""
    return m.trace() + 2


# no library path calls this; perfbench's tracer still lists it as a layer
def delta_eigen_check(m: ActionMatrix, delta) -> ComplexBall:
    """Certified ball for |det(delta I - M)|, the exact characteristic
    polynomial evaluated at the ball; eigenvalue claims demand it contain
    zero."""
    value = m.char_poly.eval_ball(ComplexBall.exact(delta))
    return ComplexBall(complex(abs(value.center), 0.0), value.radius)
