"""Reference computations that the tests compare the library against.

They are slow and simple on purpose: each is a textbook algorithm with no
structure assumed of its input, or a closed form that the library's
production path does not use.
"""

import cmath
import collections
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from siegelcert import threelines
from siegelcert.balls import (_EPS, _TINY, ComplexBall, Verdict,
                              ball_in_interval, certified_out_margin)
from siegelcert.certifier import (CertifiedVerdict, FixedPointRecord,
                                  Location, PointVerdict, Witness,
                                  record_from_trace)
from siegelcert.cuspidal import QuadMap
from siegelcert.errors import (BoundaryUndecidable, BudgetExhausted,
                               CheckFailed, NoSalemFactor, NonConvergence,
                               SearchFailed, SiegelcertError, WitnessMismatch)
from siegelcert.geometry import (_CHART_LOCALS, ProjectivePoint, chart_point,
                                 embed_chart)
from siegelcert.intpoly import IntPolynomial
from siegelcert.roots import DEFAULT_MAX_ITER, DEFAULT_TOL
from siegelcert.threelines import (COLLISION_TOL, OrbitCheck, OrbitData,
                                   OrbitReport, ThreeLinesParams, TLMap,
                                   _parameter_ratio, _vanishes,
                                   fixed_points_tl, indeterminacy,
                                   infinity_eigen_data, salem_from_orbit)


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


# ---------------------------------------------------------------------------
# the action matrices as cohomology built them, on a dense dim x dim grid;
# each returns (entries, labels) for the dense ActionMatrix constructor
# ---------------------------------------------------------------------------

def _orbit_lattice_dense(chains):
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


def quad_action_entries_reference(n1, n2, n3, sigma=(0, 1, 2)):
    ns = (n1, n2, n3)
    labels, index, col = _orbit_lattice_dense(
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
    return tuple(zip(*col)), labels


def tl_action_entries_reference(orbit):
    N = len(orbit.m)
    labels, index, col = _orbit_lattice_dense(
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
    for idx in index[1:]:
        col[idx[0]][0] += 1
        col[idx[0]][end0] -= 1
        col[idx[0]][idx[-1]] -= 1
    return tuple(zip(*col)), labels


# ---------------------------------------------------------------------------
# ball +, - and * as the frozen-dataclass kernel computed them, every operand
# through ComplexBall.exact; each returns the result's (center, radius)
# ---------------------------------------------------------------------------

def _pad(center, radius):
    return radius * (1.0 + _EPS) + abs(center) * _EPS + _TINY


def _exact_parts(z):
    if isinstance(z, ComplexBall):
        return z.center, z.radius
    if isinstance(z, int) and abs(z) > 2 ** 52:
        c = float(z)
        return complex(c, 0.0), abs(z - int(c)) * (1.0 + _EPS) + _TINY
    return complex(z), 0.0


def ball_add_reference(a: ComplexBall, other):
    """a + other, and other + a (the old __radd__ was __add__)."""
    oc, orad = _exact_parts(other)
    c = a.center + oc
    return c, _pad(c, a.radius + orad)


def ball_sub_reference(a: ComplexBall, other):
    """a - other, computed as a + (-exact(other))."""
    oc, orad = _exact_parts(other)
    c = a.center + (-oc)
    return c, _pad(c, a.radius + orad)


def ball_rsub_reference(a: ComplexBall, other):
    """other - a, computed as exact(other) + (-a)."""
    oc, orad = _exact_parts(other)
    c = oc + (-a.center)
    return c, _pad(c, orad + a.radius)


def ball_mul_reference(a: ComplexBall, other):
    """a * other, and other * a (the old __rmul__ was __mul__)."""
    oc, orad = _exact_parts(other)
    c = a.center * oc
    r = abs(a.center) * orad + abs(oc) * a.radius + a.radius * orad
    return c, _pad(c, r)


# ---------------------------------------------------------------------------
# Z[x] arithmetic and the root-disk certificate as the dense kernels computed
# them: every result through the validating IntPolynomial constructor, every
# product over all coefficients, every |z_i - z_j| and |c_k| once per root
# ---------------------------------------------------------------------------

def int_add_reference(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    n = max(len(a.coeffs), len(b.coeffs))
    return IntPolynomial(tuple(a[k] + b[k] for k in range(n)))


def int_sub_reference(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    n = max(len(a.coeffs), len(b.coeffs))
    return IntPolynomial(tuple(a[k] - b[k] for k in range(n)))


def int_mul_reference(a: IntPolynomial, b) -> IntPolynomial:
    if isinstance(b, int):
        return IntPolynomial(tuple(c * b for c in a.coeffs))
    if a.is_zero or b.is_zero:
        return IntPolynomial(())
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
    return IntPolynomial(tuple(out))


def try_exact_div_reference(a: IntPolynomial, divisor: IntPolynomial):
    if divisor.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return IntPolynomial(())
    if a.degree < divisor.degree:
        return None
    rem = list(a.coeffs)
    dc = divisor.coeffs
    lead = dc[-1]
    qdeg = a.degree - divisor.degree
    q = [0] * (qdeg + 1)
    for k in range(qdeg, -1, -1):
        c = rem[k + len(dc) - 1]
        if c % lead != 0:
            return None
        f = c // lead
        q[k] = f
        if f:
            for j, d in enumerate(dc):
                rem[k + j] -= f * d
    if any(rem[: len(dc) - 1]):
        return None
    return IntPolynomial(tuple(q))


# ---------------------------------------------------------------------------
# the strict kernels as intpoly computed them on IntPolynomial: a pseudo-
# remainder that builds a polynomial at every step, under the subresultant
# PRS and the primitive-PRS gcd, and Rabin's irreducibility test, which
# builds the whole Frobenius matrix and runs all n of its steps
# ---------------------------------------------------------------------------

def pseudo_rem_reference(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced by b."""
    if b.is_zero:
        raise ZeroDivisionError("pseudo-remainder by zero")
    r = a
    lead = b.coeffs[-1]
    steps = a.degree - b.degree + 1
    while not r.is_zero and r.degree >= b.degree:
        shift = r.degree - b.degree
        r = r * lead - (b * r.coeffs[-1]).scale_pow(shift)
        steps -= 1
    return r * lead ** steps if steps > 0 else r


def _exact_div_reference(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise CheckFailed("subresultant exact division failed")
    return q


def int_resultant_reference(a: IntPolynomial, b: IntPolynomial) -> int:
    """Sylvester resultant of nonzero a, b in Z[t], a-rows first, by the
    subresultant PRS (Collins, J. ACM 18, 1971)."""
    if a.degree == 0 or b.degree == 0:
        return a.coeffs[0] ** b.degree * b.coeffs[0] ** a.degree
    ca, cb = a.content(), b.content()
    t = ca ** b.degree * cb ** a.degree
    a = IntPolynomial(tuple(c // ca for c in a.coeffs))
    b = IntPolynomial(tuple(c // cb for c in b.coeffs))
    s = g = h = 1
    if a.degree < b.degree:
        a, b = b, a
        if a.degree % 2 and b.degree % 2:
            s = -1
    while b.degree > 0:
        delta = a.degree - b.degree
        if a.degree % 2 and b.degree % 2:
            s = -s
        r = pseudo_rem_reference(a, b)
        div = g * h ** delta
        a, b = b, IntPolynomial(tuple(_exact_div_reference(c, div)
                                      for c in r.coeffs))
        g = a.coeffs[-1]
        h = _exact_div_reference(g ** delta, h ** (delta - 1)) if delta else h
    if b.is_zero:
        return 0
    return s * t * _exact_div_reference(b.coeffs[0] ** a.degree,
                                        h ** (a.degree - 1))


def poly_gcd_reference(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive positive gcd in Z[x] (Euclid on pseudo-remainders)."""
    a = p.primitive_positive()
    b = q.primitive_positive()
    if a.is_zero:
        return b
    while not b.is_zero:
        r = pseudo_rem_reference(a, b)
        a, b = b, (r.primitive_positive() if not r.is_zero else r)
    return a.primitive_positive()


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _gf_rem(out, mod, p)


def _gf_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c:
            f = c * inv_lead % p
            for j in range(len(mod)):
                a[k - dm + j] = (a[k - dm + j] - f * mod[j]) % p
    del a[dm:]
    return _gf_trim(a)


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _gf_trim(list(a)), _gf_trim(list(b))
    while b:
        a, b = b, _gf_rem(a, b, p)
    if a:  # normalize monic
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _gf_powmod_x(e: int, mod: list[int], p: int) -> list[int]:
    """x^e mod (mod, p) by square and multiply."""
    result = [1]
    base = _gf_rem([0, 1], mod, p)
    while e:
        if e & 1:
            result = _gf_mulmod(result, base, mod, p)
        base = _gf_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def irreducible_mod_p_reference(poly: IntPolynomial, prime: int) -> bool:
    """Rabin's test: f of degree n is irreducible iff x^(p^n) = x mod f and
    gcd(x^(p^(n/l)) - x, f) = 1 for every prime l | n, with each x^(p^k)
    from the Frobenius matrix (row i holds x^(i p) mod f).  prime must be a
    prime not dividing the leading coefficient."""
    f = _gf_trim([c % prime for c in poly.coeffs])
    n = len(f) - 1
    if n == 0:
        return False
    if n == 1:
        return True
    xp = _gf_powmod_x(prime, f, prime)
    frob = [[1]]
    for _ in range(n - 1):
        frob.append(_gf_mulmod(frob[-1], xp, f, prime))
    checks = {n // ell for ell in _prime_divisors(n)}
    xk = [0, 1]                                  # x^(p^k), from k = 0
    for k in range(1, n + 1):
        acc = [0] * n
        for c, row in zip(xk, frob):
            if c:
                for j, r in enumerate(row):
                    acc[j] += c * r
        xk = _gf_trim([a % prime for a in acc])
        if k in checks:
            diff = xk + [0] * (2 - len(xk))
            diff[1] = (diff[1] - 1) % prime
            if len(_gf_gcd(diff, f, prime)) != 1:
                return False
    return xk == [0, 1]


def horner_vec_reference(coeffs, z):
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def durand_kerner_reference(p, reseeds=None) -> tuple[np.ndarray, bool]:
    """roots.poly_roots' sweep in expression form, every numpy operation
    into a fresh array: the final iterates and whether every correction
    fell below DEFAULT_TOL times the root scale.  reseeds, when given, gets
    the number of each sweep that reseeded exploded iterates."""
    coeffs = np.array(p.coeffs, dtype=np.complex128)
    n = p.degree
    lc = coeffs[-1]
    bound = 1.0 + float(max(abs(coeffs[:-1] / lc))) if n else 1.0
    gmean = abs(coeffs[0] / lc) ** (1.0 / n) if coeffs[0] != 0 else 0.5
    r0 = 1.02 * min(max(gmean, 1e-3), bound)
    scale = max(1.0, bound)
    k = np.arange(n)
    z = r0 * np.exp(2j * np.pi * (k + 0.37) / n)
    with np.errstate(all="ignore"):
        for sweep in range(DEFAULT_MAX_ITER):
            pz = horner_vec_reference(coeffs, z)
            diff = np.subtract.outer(z, z)
            diff.flat[::n + 1] = 1.0
            w = pz / (lc * diff.prod(axis=1))
            finite = np.isfinite(w).all()
            if not finite:
                w = np.where(np.isfinite(w), w, 0.0)
            z = z - w
            tame = np.abs(z) <= 16.0 * scale
            if not tame.all():
                z = np.where(
                    tame, z,
                    0.83 * r0 * np.exp(2j * np.pi * (k + 0.11 * (sweep + 2)) / n))
                if reseeds is not None:
                    reseeds.append(sweep)
                continue
            if finite and np.abs(w).max() < DEFAULT_TOL * scale:
                return z, True
    return z, False


def cyclotomic_screen_reference(p: IntPolynomial, indices) -> set[int]:
    """strip_cyclotomic's numeric screen with augmented assignments: the k
    of indices whose primitive root of unity z_k has |p(z_k)| <= 1e-8 *
    max(sum |c|, 1), with 1 and 2, or every k past the screen's range."""
    if p.degree > 4096 or max(abs(c) for c in p.coeffs) > 2 ** 48:
        return set(indices)
    high = np.array([k for k in indices if k > 2], dtype=float)
    z = np.exp(2j * np.pi / high)
    val = np.zeros_like(z)
    for c in reversed(p.coeffs):
        val *= z
        val += c
    tol = 1e-8 * max(float(sum(abs(c) for c in p.coeffs)), 1.0)
    return {1, 2} | {int(k) for k in high[np.abs(val) <= tol]}


def certify_reference(p, pts: list[complex], coeff_radii) -> tuple[ComplexBall, ...]:
    """roots._certify's disks: Weierstrass radius n (|p(z_i)| + err) /
    (|lc| prod_j |z_i - z_j|), with a running Horner error bound."""
    n = p.degree
    lc_low = abs(p.coeffs[-1])
    if coeff_radii is not None:
        lc_low -= coeff_radii[-1]
        if lc_low <= 0:
            raise ValueError("leading coefficient ball contains 0")
    balls = []
    for i, zi in enumerate(pts):
        val = 0j
        s = 0.0
        az = abs(zi)
        for c in reversed(p.coeffs):
            val = val * zi + c
            s = s * az + abs(c)
        err = 4.0 * len(p.coeffs) * 2.0 ** -53 * s
        if coeff_radii is not None:
            azi = abs(zi)
            s = 0.0
            for r in reversed(coeff_radii):
                s = s * azi + r
            err += s
        prod = 1.0
        for j, zj in enumerate(pts):
            if j != i:
                prod *= abs(zi - zj)
        if prod == 0.0 or not math.isfinite(prod):
            radius = math.inf
        else:
            radius = n * (abs(val) + err) / (lc_low * prod)
        if not math.isfinite(radius):
            radius = 2.0 * (1.0 + max(abs(q) for q in pts if math.isfinite(abs(q))))
        balls.append(ComplexBall(zi, radius * (1.0 + 2 ** -40) + 1e-300))
    return tuple(balls)


# ---------------------------------------------------------------------------
# the conjugate witness, by scanning every conjugate record for every point
# ---------------------------------------------------------------------------

def certify_fixed_point_scan(rec, conjugates, cert,
                             strict_ok: bool = True) -> CertifiedVerdict:
    """Verdict for one fixed point from its (delta*, index, record)
    conjugate triples: the witness is the first CertifiedOut record of
    largest certified margin, the curve-singular point skipped."""
    if rec.location is Location.CURVE_SINGULAR:
        return CertifiedVerdict(PointVerdict.NOT_ROTATION,
                                note="eigenvalue ratio is a root of unity")
    v = ball_in_interval(rec.s)
    if v is Verdict.CERTIFIED_OUT:
        return CertifiedVerdict(PointVerdict.NOT_ROTATION)
    if v is not Verdict.CERTIFIED_IN:
        return CertifiedVerdict(PointVerdict.INCONCLUSIVE, note="s straddles [0,4]")
    if not strict_ok:
        return CertifiedVerdict(PointVerdict.INCONCLUSIVE,
                                note="strict-mode conjugacy evidence failed")
    best = None
    for delta_star, idx, conj in conjugates:
        if conj.location is Location.CURVE_SINGULAR:
            continue
        if ball_in_interval(conj.s) is not Verdict.CERTIFIED_OUT:
            continue
        margin = certified_out_margin(conj.s)
        if best is None or margin > best.margin:
            best = Witness(delta_star, idx, margin)
    if best is None:
        return CertifiedVerdict(PointVerdict.INCONCLUSIVE,
                                note="no conjugate with s outside [0,4]")
    if best.delta not in cert.circle_roots:
        raise WitnessMismatch(
            f"witness delta {best.delta.center} is not a certified circle root")
    return CertifiedVerdict(PointVerdict.SIEGEL_CERTIFIED, witness=best)


def certify_sections_scan(cert, records_by_root: dict, evidence):
    """Verdict lists, one per root in insertion order; a root's conjugates
    are the records over every other root, in root then record order."""
    strict_ok = evidence is None or evidence.irreducible
    roots = list(records_by_root.items())
    out = []
    for i, (delta, recs) in enumerate(roots):
        conjugates = [(other, p, rec)
                      for j, (other, others) in enumerate(roots) if j != i
                      for p, rec in enumerate(others)]
        out.append([certify_fixed_point_scan(rec, conjugates, cert, strict_ok)
                    for rec in recs])
    return out


# ---------------------------------------------------------------------------
# the theorem1 gate as it was before fixed_points_tl learned to stop early:
# every record built, then the pattern checked; and the search as it was
# before it offered roots one side at a time: every (delta0, delta*) pair
# ---------------------------------------------------------------------------

PATTERN_SIDES = {"delta0": Verdict.CERTIFIED_IN, "delta*": Verdict.CERTIFIED_OUT}


def pattern_reference(orbit, root, side: str):
    """The records of fixed_points_tl(root, orbit, want=...) from the full
    record list: all of them when every non-singular s has the side's
    verdict, else None."""
    recs = fixed_points_tl(root, orbit)
    want = PATTERN_SIDES[side]
    if all(ball_in_interval(rec.s) is want for rec in recs
           if rec.location is not Location.CURVE_SINGULAR):
        return recs
    return None


def pair_search_reference(c0, cstar, accept_pair):
    """threelines.approx_parameters as the nested loop over (delta0, delta*)
    root pairs: the first ApproxResult that accept_pair takes.  When none
    is taken, raises BudgetExhausted with the tail of approx_parameters'
    message (orbit data tried, and skipped by error type)."""
    tried = 0
    skipped = collections.Counter()
    for rank in range(threelines.DENSITY_RANKS):
        for orbit in threelines._rank_orbits(c0, cstar, rank):
            tried += 1
            try:
                cert = threelines.salem_from_orbit(orbit)
            except (NoSalemFactor, BoundaryUndecidable,
                    NonConvergence) as exc:
                skipped[type(exc).__name__] += 1
                continue
            near0 = list(threelines._candidates(cert.circle_roots, orbit, c0))
            near_star = list(threelines._candidates(cert.circle_roots, orbit,
                                                    cstar))
            for cand0 in near0:
                for cand_star in near_star:
                    if cand0.center == cand_star.center:
                        continue
                    result = threelines.ApproxResult(orbit, cand0, cand_star,
                                                     cert)
                    if accept_pair(result):
                        return result
    skip_note = (f" ({sum(skipped.values())} skipped: "
                 f"{threelines.format_counts(skipped)})" if skipped else "")
    raise BudgetExhausted(f"{tried} orbit data tried{skip_note}")


# ---------------------------------------------------------------------------
# root-disk pair tests over every pair
# ---------------------------------------------------------------------------

def pairwise_disjoint_reference(balls) -> bool:
    """roots.pairwise_disjoint by the loop over all i < j."""
    n = len(balls)
    return all(balls[i].disjoint(balls[j]) for i in range(n)
               for j in range(i + 1, n))


def self_paired_reference(balls, image) -> set[int]:
    """roots.self_paired testing each image against every disk."""
    out = set()
    for i, b in enumerate(balls):
        im = image(b)
        if not im.disjoint(b) and all(
                im.disjoint(o) for j, o in enumerate(balls) if j != i):
            out.add(i)
    return out


# ---------------------------------------------------------------------------
# the cuspidal map on points, with a float indeterminacy test, and the
# orbit-closure identity
# ---------------------------------------------------------------------------

QUAD_INDETERMINACY_TOL = 1e-10


class QuadIndeterminate(SiegelcertError):
    """Every image component of a point lies below QUAD_INDETERMINACY_TOL."""


def quad_map_eval(delta: complex, pt: ProjectivePoint) -> ProjectivePoint:
    """Image of pt; raises QuadIndeterminate when every image component
    lies below QUAD_INDETERMINACY_TOL."""
    comps = QuadMap(delta).components(*pt.coords)
    if max(abs(c) for c in comps) < QUAD_INDETERMINACY_TOL:
        raise QuadIndeterminate(f"{pt} is an indeterminacy point")
    return ProjectivePoint(*comps)


def closure_residual(delta: complex, n: int) -> float:
    """|(-delta^(n+1) d + (1 - delta^n)/3) - d| for the orbit-closure
    identity, d = (1 - delta)/(3 delta)."""
    d = (1 - delta) / (3 * delta)
    return abs(-delta ** (n + 1) * d + (1 - delta ** n) / 3 - d)


# ---------------------------------------------------------------------------
# projective normalization, chordal distance and orbit verification written
# out per point: every iterate a ProjectivePoint, every distance from scratch
# ---------------------------------------------------------------------------

def normalize_reference(coords) -> tuple[complex, complex, complex]:
    """Homogeneous coordinates scaled so the largest-modulus one is 1."""
    coords = (complex(coords[0]), complex(coords[1]), complex(coords[2]))
    mags = [abs(c) for c in coords]
    m = max(mags)
    if m == 0.0:
        raise ValueError("all coordinates zero")
    pivot = coords[mags.index(m)]
    return tuple(c / pivot for c in coords)


def distance_reference(p, q) -> float:
    """Chordal distance: norm of the cross product of unit representatives."""
    cross = (p[1] * q[2] - p[2] * q[1],
             p[2] * q[0] - p[0] * q[2],
             p[0] * q[1] - p[1] * q[0])
    num = math.sqrt(sum(abs(c) ** 2 for c in cross))
    den = math.sqrt(sum(abs(c) ** 2 for c in p)) * \
        math.sqrt(sum(abs(c) ** 2 for c in q))
    return num / den


def orbit_verify_reference(params: ThreeLinesParams,
                           orbit: OrbitData) -> OrbitReport:
    """threelines.orbit_verify iterating ProjectivePoints through
    TLMap.components and measuring each step with ProjectivePoint.distance."""
    ind = indeterminacy(params)
    fwd = ind.forward
    plan = [("p0", ind.backward_0, 2, ind.forward_0)]
    for i, mi in enumerate(orbit.m):
        plan.append((f"a{i + 1}", ind.backward_a[i], 3 * mi - 2, ind.forward_a[i]))
    for j, nj in enumerate(orbit.n):
        plan.append((f"b{j + 1}", ind.backward_b[j], 3 * nj, ind.forward_b[j]))

    components = TLMap.from_params(params).components
    checks = []
    for label, start, steps, target in plan:
        pt = start
        collision = None
        for k in range(steps):
            if any(pt.distance(q) < COLLISION_TOL for q in fwd):
                collision = k
                break
            comps = components(*pt.coords)
            if _vanishes(comps):
                collision = k
                break
            pt = ProjectivePoint(*comps)
        residual = pt.distance(target) if collision is None else math.inf
        checks.append(OrbitCheck(label, steps, residual, collision))
    return OrbitReport(tuple(checks))


# ---------------------------------------------------------------------------
# closed forms and diagnostics of the three-lines family, and a
# finite-difference Jacobian
# ---------------------------------------------------------------------------

class OffUnitCircle(SiegelcertError):
    """Operation requires |delta| = 1."""


class FormulaPole(SiegelcertError):
    """A denominator of a closed form vanishes at delta; message names it."""


def h_iterate(params: ThreeLinesParams, k: int, x: complex) -> complex:
    """Closed-form Moebius iterate governing the triple-step line dynamics.

    h_k(x) = x / (delta^{3k} + p (1 - delta^{3k}) x), p = delta c / (delta^3 - 1);
    this is 1/(delta^{3k} (1/x - p) + p) continued through x = 0.
    """
    delta = params.delta
    if abs(delta ** 3 - 1) < 1e-12:
        raise FormulaPole("delta^3 - 1 vanishes")
    p = delta * params.c / (delta ** 3 - 1)
    pw = delta ** (3 * k)
    den = pw + p * (1 - pw) * x
    if abs(den) < 1e-14 * (1 + abs(pw)):
        raise FormulaPole(f"Moebius denominator vanishes at x={x}")
    return x / den


def chi(delta, orbit: OrbitData) -> ComplexBall:
    """Certified value of the rational orbit constraint (equals 1 at lift
    parameters)."""
    if not isinstance(delta, ComplexBall):
        delta = complex(delta)
        dens = {"delta^3 - 1": delta ** 3 - 1}
        dens.update((f"delta^(3*{nj}+1) + 1", delta ** (3 * nj + 1) + 1)
                    for nj in orbit.n)
        dens.update((f"delta^(3*{mi}-1) + 1", delta ** (3 * mi - 1) + 1)
                    for mi in orbit.m)
        for name, value in dens.items():
            if abs(value) < 1e-9:
                raise FormulaPole(name)
        delta = ComplexBall.exact(delta)
    d3 = delta ** 3 - 1
    total = ComplexBall.exact(0)
    for nj in orbit.n:
        total = total + (delta * delta * (delta ** (3 * nj) - 1)) / \
            (d3 * (delta ** (3 * nj + 1) + 1))
    for mi in orbit.m:
        total = total + (delta * (delta ** (3 * mi) - 1)) / \
            (d3 * (delta ** (3 * mi - 1) + 1))
    return total


def lambda_by_bisection(orbit: OrbitData, lo: float = 1.0 + 1e-9,
                        hi: float = 64.0, iters: int = 200) -> float:
    """Root of chi = 1 on (1, inf) by bisection; independent spectral oracle."""
    def val(t: float) -> float:
        return chi(complex(t), orbit).center.real - 1.0

    flo = val(lo)
    while val(hi) > 0:
        hi *= 2
        if hi > 2 ** 40:
            raise SearchFailed("chi - 1 has no sign change on (1, inf)")
    if flo < 0:
        # move lo just above the pole region near 1
        while flo < 0:
            lo = 1 + (lo - 1) * 2
            flo = val(lo)
            if lo > hi:
                raise SearchFailed("no bracketing interval for chi = 1")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if val(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def infinity_criterion(params: ThreeLinesParams) -> Verdict:
    """Rotation verdict at the two infinity fixed points via beta0/alpha0.

    Requires |delta| = 1; the membership beta0/alpha0 in [0,4] is equivalent
    to both rotation numbers lying in [0,4] there.  The eigenvalue route is
    evaluated as a cross-check and a contradiction raises (it would mean a
    broken equivalence, not a data issue).
    """
    if abs(abs(params.delta) - 1) > 1e-9:
        raise OffUnitCircle(f"|delta| = {abs(params.delta)}")
    ratio = _parameter_ratio([ComplexBall.exact(v) for v in params.a],
                             [ComplexBall.exact(v) for v in params.b])
    if all(v.imag == 0.0 for v in params.a + params.b):
        ratio = ratio.realize_real()  # product of reals
    verdict = ball_in_interval(ratio)
    eigen = [ball_in_interval(s)
             for s in infinity_eigen_data(params.delta, ratio)]
    for ev in eigen:
        if {verdict, ev} == {Verdict.CERTIFIED_IN, Verdict.CERTIFIED_OUT}:
            raise CheckFailed(
                f"infinity criterion contradiction: ratio {verdict} vs eigen {ev}")
    if verdict is Verdict.UNKNOWN and eigen[0] is eigen[1] != Verdict.UNKNOWN:
        return eigen[0]
    return verdict


def equidistribution_stat(orbit: OrbitData, bins: int = 12) -> float:
    """Per-root chi-square of the circle-root angle histogram vs uniform.

    Diagnostic for the asymptotic equidistribution of the non-dominant roots;
    decreases as the orbit lengths grow.
    """
    cert = salem_from_orbit(orbit)
    angles = [cmath.phase(r.center) % (2 * math.pi) for r in cert.circle_roots]
    counts = [0] * bins
    for t in angles:
        counts[min(int(t / (2 * math.pi) * bins), bins - 1)] += 1
    expected = len(angles) / bins
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    return chi2 / len(angles)


def fd_chart_jacobian(family_map, point: ProjectivePoint,
                      chart: int | None = None, h: float = 1e-5):
    """Finite-difference Jacobian oracle with one Richardson refinement.

    Central differences at steps h and h/2 combined as (4*D2 - D1)/3; used in
    tests against the closed-form chart_jacobian.
    """
    if chart is None:
        chart = point.pivot_index
    u0, v0 = chart_point(point, chart)
    i, j = _CHART_LOCALS[chart]

    def phi(u, v):
        comps = family_map.components(*embed_chart(u, v, chart))
        return (comps[i] / comps[chart], comps[j] / comps[chart])

    def diff(step):
        cols = []
        for du, dv in ((step, 0.0), (0.0, step)):
            fp = phi(u0 + du, v0 + dv)
            fm = phi(u0 - du, v0 - dv)
            cols.append(((fp[0] - fm[0]) / (2 * step), (fp[1] - fm[1]) / (2 * step)))
        return cols

    d1, d2 = diff(h), diff(h / 2)
    cols = [((4 * b[0] - a[0]) / 3, (4 * b[1] - a[1]) / 3) for a, b in zip(d1, d2)]
    # columns are d/du, d/dv; transpose to rows = outputs
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


# ---------------------------------------------------------------------------
# each map's components with its full 3x3 partial matrix, every product
# formed where it is used; the quotient-rule chart Jacobian over them; and
# the cuspidal records with r_tau and s formed per point.  These are the
# library's formulas as they were before the jets, in the same float
# operations, so the library must match them bit for bit
# ---------------------------------------------------------------------------

def quad_reference(qm: QuadMap, x, y, z):
    """QuadMap's components, and its partials: row k holds the partials of
    component k in x, y and z."""
    delta, d, d2, d3, d4 = qm.delta, qm.d, qm.d2, qm.d3, qm.d4
    delta3, d6 = qm.delta3, qm.d6
    comps = (delta * (x * y - 2 * d * y * z + 2 * d3 * x * z - d4 * z * z),
             delta3 * (y * y - 3 * d2 * x * y + 3 * d4 * x * x - d6 * z * z),
             y * z - 3 * d * x * x + 3 * d2 * x * z - d3 * z * z)
    parts = (
        (delta * (y + 2 * d3 * z),
         delta * (x - 2 * d * z),
         delta * (-2 * d * y + 2 * d3 * x - 2 * d4 * z)),
        (delta3 * (-3 * d2 * y + 6 * d4 * x),
         delta3 * (2 * y - 3 * d2 * x),
         delta3 * (-2 * d6 * z)),
        (-6 * d * x + 3 * d2 * z,
         z,
         y + 3 * d2 * x - 2 * d3 * z),
    )
    return comps, parts


def tl_reference(tlm: TLMap, x, y, z):
    """TLMap's components and its partials, as quad_reference."""
    delta = tlm.delta
    ypow, zpow = threelines._powers(y, z, tlm.N)
    g1, g1y, g1z, h, hy, hz = (
        threelines._eval_homog(coeffs, ypow, zpow)
        for coeffs in (tlm.g1, tlm.g1y, tlm.g1z, tlm.h, tlm.hy, tlm.hz))
    t = h * x - delta * g1
    ty = hy * x - delta * g1y
    tz = hz * x - delta * g1z
    comps = (y * delta * t, g1 * (x + delta * y), z * delta * t)
    parts = (
        (y * delta * h, delta * (t + y * ty), y * delta * tz),
        (g1, g1y * (x + delta * y) + delta * g1, g1z * (x + delta * y)),
        (z * delta * h, z * delta * ty, delta * (t + z * tz)),
    )
    return comps, parts


def chart_jacobian_reference(family_map, reference, point: ProjectivePoint,
                             chart: int, point_radius: float = 0.0):
    """The chart Jacobian by the quotient rule over reference(family_map,
    x, y, z), quad_reference or tl_reference."""
    u, v = chart_point(point, chart)
    i, j = _CHART_LOCALS[chart]
    hom = embed_chart(ComplexBall(complex(u), point_radius),
                      ComplexBall(complex(v), point_radius), chart)
    comps, parts = reference(family_map, *hom)
    den = comps[chart]
    inv_den = den.inverse()
    rows = []
    for out_idx in (i, j):
        row = []
        for var_idx in (i, j):
            num = (parts[out_idx][var_idx] * den
                   - comps[out_idx] * parts[chart][var_idx])
            row.append(num * inv_den * inv_den)
        rows.append(tuple(row))
    return tuple(rows)


def tau_quadratic_roots_reference(tau: ComplexBall):
    """Ball roots of 27 x^2 - 9 (tau-2) x + (tau-1)(tau-2) = 0."""
    t2 = tau - 2
    disc = (81 * t2) * t2 - (108 * (tau - 1)) * t2
    sq = disc.sqrt()
    inv54 = ComplexBall.exact(54).inverse()
    return ((9 * t2 + sq) * inv54, (9 * t2 - sq) * inv54)


def r_tau_reference(tau: ComplexBall, x: ComplexBall) -> ComplexBall:
    """r_tau(x) = (tau-2)x/(3(tau+1)) - (tau-2)^2/(27(tau+1))."""
    t2 = tau - 2
    inv = (3 * (tau + 1)).inverse()
    return t2 * x * inv - t2 * t2 * inv / 9


def s_value_reference(tau: ComplexBall, x: ComplexBall) -> ComplexBall:
    """s(tau, x) = (9 (tau-1) x - (tau^2 - 4 tau + 6))^2 / (tau + 2)."""
    inner = 9 * (tau - 1) * x - (tau * tau - 4 * tau + 6)
    return inner * inner / (tau + 2)


def records_for_delta_reference(delta: ComplexBall) -> list[FixedPointRecord]:
    """cuspidal._records_for_delta with r_tau, s and the chart Jacobian
    formed per point, from quad_reference."""
    tau = 2 * ComplexBall(complex(delta.center.real, 0.0), delta.radius)
    qm = QuadMap(delta)
    records = []
    for x in tau_quadratic_roots_reference(tau):
        y = r_tau_reference(tau, x)
        w = ProjectivePoint(x.center, y.center, 1.0)
        (a, _), (_, d) = chart_jacobian_reference(
            qm, quad_reference, w, 2, max(x.radius, y.radius))
        records.append(record_from_trace(Location.GENERIC, w, a + d, delta,
                                         s_value_reference(tau, x)))
    return records


# ---------------------------------------------------------------------------
# every fixed-point record recomputed at 50 digits: the circle root, the lift
# parameters, each stratum's fixed points from its defining equation, and the
# chart-map Jacobian, all in mpmath
# ---------------------------------------------------------------------------

DIGITS = 50


def _mpc(z) -> mpmath.mpc:
    return mpmath.mpc(z.real, z.imag)


def circle_root_50(poly: IntPolynomial, seed: complex) -> mpmath.mpc:
    """The root of poly that Newton's method reaches from seed, iterated
    until a step falls below 10^(5 - dps) at the working precision; raises
    ValueError after 50 steps.  (mpmath.findroot's default solver is the secant method, which
    ignores df: from the seeds x0 and x0 + 1/4 it left the circle root near
    0.97298 - 0.23089j of the ((1, 5), (4, 7)) Salem factor.)"""
    coeffs = poly.coeffs[::-1]
    x = _mpc(seed)
    tol = mpmath.mpf(10) ** (5 - mpmath.mp.dps)
    for _ in range(50):
        value, slope = mpmath.polyval(coeffs, x, derivative=True)
        step = value / slope
        x -= step
        if abs(step) < tol:
            return x
    raise ValueError(f"Newton did not converge from {seed}")


def _form(coeffs, y, z):
    """sum_k coeffs[k] y^k z^(deg - k), deg = len(coeffs) - 1."""
    deg = len(coeffs) - 1
    return mpmath.fsum(c * y ** k * z ** (deg - k) for k, c in enumerate(coeffs))


def _product_form(roots):
    """Coefficients of prod (z - y w) over w in roots, by power of y."""
    c = [mpmath.mpc(1)]
    for w in roots:
        c = [hi - w * lo for hi, lo in zip(c + [0], [0] + c)]
    return c


def _ab_50(delta: mpmath.mpc, orbit: OrbitData):
    """a_k and b_k from their formulas in delta."""
    d3 = delta ** 3 - 1
    a = [-d3 * (delta ** (3 * k - 1) + 1) / (delta * (delta ** (3 * k) - 1))
         for k in orbit.m]
    b = [d3 * (delta ** (3 * k + 1) + 1) / (delta ** 2 * (delta ** (3 * k) - 1))
         for k in orbit.n]
    return a, b


def three_lines_50(delta: mpmath.mpc, orbit: OrbitData):
    """(map, degree, fixed points by Location) of the three-lines family at
    delta, with a_k and b_k from their formulas in delta.

    The map is [y delta T : G1 (x + delta y) : z delta T], T = H x - delta G1,
    H = (G2 - G1)/y.  The fixed points: the singular point [0:0:1]; the
    diagonal points (x, x), where d g1(x) = g2(x) with d = (1+delta)^2/delta;
    the points [x:1:0], where f restricted to z = 0 gives
    alpha0 x^2 + delta (2 alpha0 - beta0) x + alpha0 delta^2 = 0 with
    alpha0 = prod 1/a_i, beta0 = prod 1/b_j.
    """
    a, b = _ab_50(delta, orbit)
    g1 = _product_form([1 / v for v in a])
    g2 = _product_form([1 / v for v in b])
    h = [g2[k] - g1[k] for k in range(1, len(g1))]

    def fmap(x, y, z):
        G1 = _form(g1, y, z)
        t = _form(h, y, z) * x - delta * G1
        return (y * delta * t, G1 * (x + delta * y), z * delta * t)

    d = (1 + delta) ** 2 / delta
    diagonal = mpmath.polyroots([d * u - v for u, v in zip(g1, g2)][::-1],
                                maxsteps=200, extraprec=2 * DIGITS)
    alpha0 = mpmath.fprod(1 / v for v in a)
    beta0 = mpmath.fprod(1 / v for v in b)
    infinity = mpmath.polyroots([alpha0, delta * (2 * alpha0 - beta0),
                                 alpha0 * delta ** 2], extraprec=2 * DIGITS)
    one, zero = mpmath.mpc(1), mpmath.mpc(0)
    points = {Location.CURVE_SINGULAR: [(zero, zero, one)],
              Location.AFFINE_DIAGONAL: [(x, x, one) for x in diagonal],
              Location.INFINITY: [(x, one, zero) for x in infinity]}
    return fmap, orbit.N + 1, points


def cuspidal_50(delta: mpmath.mpc):
    """(map, degree, fixed points by Location) of the cuspidal family at
    delta: the map of the module formula, and the two points off the cubic,
    27 x^2 - 9 (tau-2) x + (tau-1)(tau-2) = 0 and
    y = (tau-2) x/(3(tau+1)) - (tau-2)^2/(27(tau+1)), tau = delta + 1/delta."""
    d = (1 - delta) / (3 * delta)

    def fmap(x, y, z):
        return (delta * (x * y - 2 * d * y * z + 2 * d ** 3 * x * z - d ** 4 * z * z),
                delta ** 3 * (y * y - 3 * d ** 2 * x * y + 3 * d ** 4 * x * x
                              - d ** 6 * z * z),
                y * z - 3 * d * x * x + 3 * d ** 2 * x * z - d ** 3 * z * z)

    tau = delta + 1 / delta
    xs = mpmath.polyroots([27, -9 * (tau - 2), (tau - 1) * (tau - 2)],
                          extraprec=2 * DIGITS)
    points = [(x, (tau - 2) * x / (3 * (tau + 1))
               - (tau - 2) ** 2 / (27 * (tau + 1)), mpmath.mpc(1)) for x in xs]
    return fmap, 2, {Location.GENERIC: points}


def _norm(p):
    return mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in p))


def chordal_50(p, q):
    """Chordal distance: |p x q| / (|p| |q|)."""
    cross = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
             p[0] * q[1] - p[1] * q[0])
    return _norm(cross) / (_norm(p) * _norm(q))


def image_size(fmap, degree: int, p):
    """|f(p)| / |p|^degree: zero exactly at the indeterminacy points."""
    return _norm(fmap(*p)) / _norm(p) ** degree


def rotation_number_50(fmap, p):
    """tr^2/det of the chart expression of fmap at the fixed point p, the
    chart being p's largest coordinate.

    Central differences at step 10^-DIGITS, worked at 2 DIGITS: their
    truncation error (step^2) and rounding error (10^-2 DIGITS / step) both
    stay near 10^-DIGITS, the accuracy of p itself.  At DIGITS with step
    1e-20, the rounding alone left |Im s| near 1e-30 at real s."""
    c = max(range(3), key=lambda i: abs(p[i]))
    i, j = (k for k in range(3) if k != c)

    def phi(u, v):
        q = [p[c]] * 3
        q[i], q[j] = u * p[c], v * p[c]
        img = fmap(*q)
        return img[i] / img[c], img[j] / img[c]

    with mpmath.workdps(2 * DIGITS):
        u0, v0 = p[i] / p[c], p[j] / p[c]
        step = mpmath.mpf(10) ** -DIGITS
        cols = []
        for du, dv in ((step, 0), (0, step)):
            hi, lo = phi(u0 + du, v0 + dv), phi(u0 - du, v0 - dv)
            cols.append([(hi[r] - lo[r]) / (2 * step) for r in range(2)])
        tr = cols[0][0] + cols[1][1]
        det = cols[0][0] * cols[1][1] - cols[1][0] * cols[0][1]
        return tr * tr / det


def by_stratum(records, points: dict):
    """(record, point) pairs: within each Location, records and points in
    sorted order of their abscissa x/z, or x/y on the line at infinity."""
    def key(coords):
        x = coords[0] / (coords[2] if coords[2] != 0 else coords[1])
        return round(float(x.real), 6), round(float(x.imag), 6)

    pairs = []
    for loc, pts in points.items():
        recs = [r for r in records if r.location is loc]
        if len(recs) != len(pts):
            raise ValueError(f"{loc}: {len(recs)} records, {len(pts)} points")
        pairs += zip(sorted(recs, key=lambda r: key(r.coords.coords)),
                     sorted(pts, key=key))
    if len(pairs) != len(records):
        raise ValueError("records outside the computed strata")
    return pairs


@dataclass(frozen=True)
class Record50:
    """A report's record beside its fixed point recomputed at 50 digits."""

    label: str
    section: int                    # index of the record's section
    record: FixedPointRecord
    s: mpmath.mpc                   # tr^2/det at P
    fixed_residual: mpmath.mpf      # chordal distance of P from f(P)
    image_size: mpmath.mpf          # |f(P)| / |P|^deg, 0 on I(f)
    distance: mpmath.mpf            # chordal distance of P from the record
    s_error: mpmath.mpf             # |tr^2/det at P - the s ball's center|
    delta_error: mpmath.mpf         # |root - the section's delta center|
    delta_radius: float


def records_at_50_digits(report) -> list[Record50]:
    """Every record of a cuspidal or three-lines report against its 50-digit
    fixed point: each section's root refined from its center, then the
    stratum's points from their defining equations (three_lines_50,
    cuspidal_50), matched to the records by by_stratum."""
    if report.family != "cuspidal":
        orbit = OrbitData(report.parameters["m"], report.parameters["n"])
    out = []
    with mpmath.workdps(DIGITS):
        for i, sec in enumerate(report.sections):
            delta = circle_root_50(report.salem_cert.poly, sec.delta.center)
            fmap, degree, points = (cuspidal_50(delta)
                                    if report.family == "cuspidal"
                                    else three_lines_50(delta, orbit))
            for rec, p in by_stratum(sec.records, points):
                s = rotation_number_50(fmap, p)
                out.append(Record50(
                    f"section {i} {rec.location.value} {rec.coords}", i, rec,
                    s, chordal_50(p, fmap(*p)), image_size(fmap, degree, p),
                    chordal_50(p, [_mpc(c) for c in rec.coords.coords]),
                    abs(s - _mpc(rec.s.center)),
                    abs(delta - _mpc(sec.delta.center)), sec.delta.radius))
    return out


def point_failures(row: Record50) -> list[str]:
    """The 50-digit point must be fixed (relative cross product below 1e-40)
    and determinate (its image is no zero vector)."""
    failures = []
    if not row.fixed_residual < 1e-40:
        failures.append(f"{row.label}: not fixed ({row.fixed_residual})")
    if not row.image_size > 1e-20:
        failures.append(f"{row.label}: on I(f) ({row.image_size})")
    return failures


def enclosure_failures(row: Record50) -> list[str]:
    """The record must enclose its 50-digit values: the section's delta ball
    holds the root, the point lies within 1e-9 chordal, the s ball holds s."""
    failures = []
    if not row.delta_error <= row.delta_radius:
        failures.append(f"{row.label}: delta outside its ball")
    if not row.distance < 1e-9:
        failures.append(f"{row.label}: point {row.distance} away")
    if not row.s_error <= row.record.s.radius:
        failures.append(f"{row.label}: s outside its ball")
    return failures


def verdict_failures(report, rows: list[Record50]) -> tuple[list[str], int]:
    """Every SiegelCertified verdict at 50 digits, and how many there are.

    The point's s lies in (0, 4).  Its witness is the record at point_index
    in the witness root's section, another section of the report; the
    certified margin bounds the 50-digit distance of the witness's s from
    [0, 4] from below, up to 1e-12."""
    s_50 = {(row.section, id(row.record)): row.s for row in rows}
    section_of = {sec.delta: j for j, sec in enumerate(report.sections)}
    failures = []
    certified = 0
    for i, sec in enumerate(report.sections):
        for rec, v in zip(sec.records, sec.verdicts):
            if v.verdict is not PointVerdict.SIEGEL_CERTIFIED:
                continue
            certified += 1
            s = s_50[(i, id(rec))]
            if not (abs(s.imag) < 1e-30 and 0 < s.real < 4):
                failures.append(f"section {i} {rec.coords}: s = {s}")
            j = section_of.get(v.witness.delta)
            if j is None or j == i:
                failures.append(f"section {i} {rec.coords}: witness section {j}")
                continue
            witness = report.sections[j].records[v.witness.point_index]
            s_star = s_50[(j, id(witness))]
            distance = abs(s_star - min(max(s_star.real, 0), 4))
            if not (distance > 0 and distance >= v.witness.margin - 1e-12):
                failures.append(f"section {j} {witness.coords}: witness s = "
                                f"{s_star}, margin {v.witness.margin}")
    return failures, certified


def ratio_lemma_50(poly: IntPolynomial, root: ComplexBall, orbit: OrbitData):
    """The ratio lemma's two sides at 50 digits, at the root of poly that
    Newton reaches from root's center: beta0/alpha0 = prod a_i/b_i, and the
    s of both points at infinity from the chart-map Jacobian
    (rotation_number_50), not from the lemma's eigenvalue formula."""
    with mpmath.workdps(DIGITS):
        delta = circle_root_50(poly, root.center)
        a, b = _ab_50(delta, orbit)
        ratio = mpmath.fprod(va / vb for va, vb in zip(a, b))
        fmap, _, points = three_lines_50(delta, orbit)
        return ratio, [rotation_number_50(fmap, p)
                       for p in points[Location.INFINITY]]


def diagonal_s_50(poly: IntPolynomial, root: ComplexBall, orbit: OrbitData):
    """(x, s) at every diagonal fixed point (x, x) at 50 digits, at the root
    of poly that Newton reaches from root's center: x from d g1 = g2
    (three_lines_50), and s from the chart-map Jacobian (rotation_number_50),
    not from threelines.diagonal_s's closed form."""
    with mpmath.workdps(DIGITS):
        delta = circle_root_50(poly, root.center)
        fmap, _, points = three_lines_50(delta, orbit)
        return [(p[0], rotation_number_50(fmap, p))
                for p in points[Location.AFFINE_DIAGONAL]]
