"""End-to-end construction of an automorphism with a prescribed number of
Siegel-disk centers.

k = 2 is the cuspidal-cubic run at orbit length 8.  For k >= 3 the three-lines
family with N = k - 2 is driven through: build the all-inside and all-outside
parameter targets, then one threelines.approx_parameters call, which holds
the whole search policy, walks orbit data whose Salem polynomial has
unit-circle roots near both targets.  A gate decides each root it offers
by its pattern alone: a root delta0 is taken when the N+3 isolated fixed
points over it certify the inside pattern, a root delta* when they certify
the outside pattern.  The orbit conditions are algebraic in delta, so they
do not tell the circle roots of one orbit datum apart: they are checked
once the search has returned, at the two roots taken, by the step
certify_three_lines runs at each circle root that is not the exact
conjugate of an earlier one (_checked_orbit).
certifier.certify_run assembles the report over the two taken roots, as it does
every certify_cuspidal and certify_three_lines report: each off-curve point
is certified by the conjugate criterion with the outside root as witness
family, and the entropy is the action matrix's.  For k = 2 and k >= 3 alike
the principal section must show exactly k SiegelCertified points unless
strict evidence failed.
"""

from __future__ import annotations

import collections
import functools

from . import strictmode
from .balls import Verdict
# certify_fixed_point is not called here; perfbench's tracer tests check
# that it stays bound in this module
from .certifier import (CertificationReport, PointVerdict,
                        certify_fixed_point, certify_run)  # noqa: F401
from .cohomology import tl_action_matrix
from .cuspidal import certify_cuspidal
from .errors import (BudgetExhausted, OrbitCollision, PipelineFailed,
                     SiegelcertError)
# DEFAULT_EPS and DEFAULT_MN_CAP are not used here; perfbench's workloads
# read them from this module for the theorem1 run config
from .threelines import (DEFAULT_EPS, DEFAULT_MN_CAP,  # noqa: F401
                         ApproxResult, ab_from_delta, approx_parameters,
                         conjugate_fixed_points, construct_c0, construct_cstar,
                         fixed_points_tl, format_counts, orbit_verify,
                         param_balls, salem_from_orbit)


_PATTERNS = {"delta0": Verdict.CERTIFIED_IN, "delta*": Verdict.CERTIFIED_OUT}


def _gate(candidate, kept: dict, rejections: collections.Counter) -> bool:
    """The certification gate for one (orbit, root, side) of the search:
    the root's fixed points must certify the side's pattern (fixed_points_tl
    with want, see _PATTERNS).  Its screens and its records stop at the
    first failing check, so the gate computes only what its answer needs.
    A screen can name the pattern where a record would first have raised,
    and a screen that raises rejects the root under its error's type;
    otherwise the accept or reject is that of the full record list.
    kept and rejections are created by theorem1_pipeline and live for that
    one call.  A taken root's records are kept under its candidate for
    _report_from_candidate; a rejected root adds one to rejections under
    "delta0 pattern", "delta* pattern", or the type name of the
    SiegelcertError that fixed_points_tl raised.
    """
    orbit, root, side = candidate
    try:
        records = fixed_points_tl(root, orbit, want=_PATTERNS[side])
    except SiegelcertError as exc:
        rejections[type(exc).__name__] += 1
        return False
    if records is None:
        rejections[f"{side} pattern"] += 1
        return False
    kept[candidate] = records
    return True


def _checked_orbit(root, orbit):
    """The orbit conditions at one circle root, by direct iteration: the
    OrbitReport, or OrbitCollision when they fail."""
    rep = orbit_verify(ab_from_delta(root.center, orbit), orbit)
    if not rep.passed:
        raise OrbitCollision(
            f"orbit conditions failed at root {root.center:.6f}: "
            f"max residual {rep.max_residual:.2e}, "
            f"{len(rep.collisions)} collision(s)")
    return rep


def certify_three_lines(orbit, strict: bool = False,
                        workers: int = 1) -> CertificationReport:
    """Full certification run for fixed orbit data.

    Builds the Salem polynomial from the cleared chi constraint, then for
    every unit-circle root: the lift parameters, direct orbit verification,
    and the N+3 fixed points.  certifier.certify_run assembles the report:
    Siegel verdicts with witnesses drawn from the other unit-circle roots'
    fixed points, and the block of tl_action_matrix(orbit).  workers is
    accepted and ignored: every run is single-threaded.

    Conjugation lemma.  Every a_k(delta), b_k(delta) is rational in delta
    with integer coefficients, so f_conj(delta) = c o f_delta o c, c complex
    conjugation, and the orbit conditions and fixed points at conj(delta)
    are the conjugates of those at delta.  So each pair of
    cert.conjugate_roots (exactly conjugate centers) is decided once, when
    the loop reaches its first member in root order.  The orbit check runs
    there, before any record: CPython's complex powers, quotients, abs and
    pivot choices are symmetric under conjugation, so the iteration at the
    other member is the bitwise conjugate, with the same residuals and
    collisions.  fixed_points_tl runs at the member of smaller radius (the
    earlier in root order on a tie), and the other member's records are
    conjugate_fixed_points of those: by the pairing lemma there, the
    leader's disk conjugated is the disk of the smaller radius around the
    other member's center, and holds its root, so no radius grows.  The
    leader's param_balls are computed once, here, and serve both.
    """
    cert = salem_from_orbit(orbit)
    evidence = (strictmode.three_lines_strict_evidence(cert.poly, orbit)
                if strict else None)
    pairs = cert.conjugate_roots
    records = {}
    for root in cert.circle_roots:
        if root in records:
            continue
        _checked_orbit(root, orbit)
        partner = pairs.get(root)
        if partner is None:
            records[root] = fixed_points_tl(root, orbit)
            continue
        lead, other = ((partner, root) if partner.radius < root.radius
                       else (root, partner))
        params = param_balls(lead, orbit)
        records[lead] = fixed_points_tl(lead, orbit, params=params)
        records[other] = conjugate_fixed_points(records[lead], other, params)
    records = {root: records[root] for root in cert.circle_roots}
    parameters = {"m": list(orbit.m), "n": list(orbit.n), "N": orbit.N,
                  "strict": strict}
    return certify_run("three_lines", parameters, cert, records, evidence,
                       tl_action_matrix(orbit))


def theorem1_pipeline(k: int, strict: bool = False,
                      workers: int = 1) -> CertificationReport:
    """Certification report with exactly k Siegel-certified fixed points.

    The report's principal section must hold exactly k SiegelCertified
    points, for k = 2 and k >= 3 alike, unless strict evidence failed:
    with strict=True the report carries the conjugacy evidence, and when
    that evidence fails the in-range verdicts become Inconclusive and the
    report is returned as it stands.  workers is accepted and ignored.  For
    k >= 3 a failed search raises PipelineFailed with approx_parameters'
    totals over all density ranks, then how many of the roots offered the
    gate rejected, by reason; a taken pair whose orbit conditions fail
    raises OrbitCollision.
    """
    if k < 2:
        why = ("is not a number of Siegel disks" if k < 0 else "is handled by "
               "prior constructions (degree-2 maps on other cubics)")
        raise PipelineFailed("arguments",
                             f"k = {k} {why}; this pipeline needs k >= 2")
    if k == 2:
        report = certify_cuspidal(8, strict=strict)
    else:
        n = k - 2
        try:
            c0 = construct_c0(n)
        except SiegelcertError as exc:
            raise PipelineFailed("construct_c0", str(exc))
        try:
            cstar = construct_cstar(n)
        except SiegelcertError as exc:
            raise PipelineFailed("construct_cstar", str(exc))
        kept: dict = {}
        rejections: collections.Counter = collections.Counter()
        gate = functools.partial(_gate, kept=kept, rejections=rejections)
        try:
            approx = approx_parameters(c0, cstar, accept=gate)
        except BudgetExhausted as exc:
            rejected = sum(rejections.values())
            reasons = (f"; the gate rejected {rejected} of "
                       f"{rejected + len(kept)} root(s): "
                       f"{format_counts(rejections)}" if rejections else "")
            raise PipelineFailed("approx_parameters", f"{exc}{reasons}")
        report = _report_from_candidate(k, approx, kept, strict)
    evidence = report.strict_evidence
    certified = report.principal_section.count(PointVerdict.SIEGEL_CERTIFIED)
    if (evidence is None or evidence.irreducible) and certified != k:
        raise PipelineFailed("certification",
                             f"expected {k} certified centers, got {certified}")
    return report


def _report_from_candidate(k: int, approx: ApproxResult, kept: dict,
                           strict: bool) -> CertificationReport:
    """The report for the roots the gate took; their fixed points are read
    back from kept, not computed again.  The orbit conditions are checked
    here, at delta0 and then at delta* (OrbitCollision when they fail).
    The matrix block also names the Salem degree and the cyclotomic indices
    of the report."""
    orbit, cert = approx.orbit, approx.salem_cert
    residual0 = _checked_orbit(approx.delta0, orbit).max_residual
    residual_star = _checked_orbit(approx.delta_star, orbit).max_residual
    records = {root: kept[(orbit, root, side)] for root, side in
               ((approx.delta0, "delta0"), (approx.delta_star, "delta*"))}
    evidence = (strictmode.three_lines_strict_evidence(cert.poly, orbit)
                if strict else None)
    parameters = {
        "k": k, "N": orbit.N, "m": list(orbit.m), "n": list(orbit.n),
        "orbit_residual0": residual0, "orbit_residual_star": residual_star,
    }
    report = certify_run("three_lines", parameters, cert, records, evidence,
                         tl_action_matrix(orbit))
    info = report.matrix_info
    info.update(salem_degree=cert.poly.degree,
                cyclotomic_factors=list(report.cyclotomic_factors))
    return report
