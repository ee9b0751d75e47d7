"""End-to-end construction of an automorphism with a prescribed number of
Siegel-disk centers.

k = 2 is the cuspidal-cubic run at orbit length 8.  For k >= 3 the three-lines
family with N = k - 2 is driven through: build the all-inside and all-outside
parameter targets, then one threelines.approx_parameters call, which holds
the whole search policy, offers orbit data whose Salem polynomial has
unit-circle roots delta0, delta* near both targets.  A gate checks each
candidate: the N+3 isolated fixed points at delta0 must certify the inside
pattern and those at delta* the outside pattern, and only then are the orbit
conditions at both roots verified by direct iteration.  The gate is a filter
and computes only what its answer needs: a root whose beta0/alpha0 is
certified on the wrong side of [0, 4] is rejected before any fixed point,
and the records are built one at a time, the singular point's from its
lemma first, up to the first that breaks the pattern.  A root that passes
gets all N+3 records, the same list certify_three_lines builds.
certifier.certify_run assembles the accepted candidate's report, as it does
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
                         construct_c0, construct_cstar, fixed_points_tl,
                         format_counts, orbit_verify, salem_from_orbit)


_PATTERNS = {"delta0": Verdict.CERTIFIED_IN, "delta*": Verdict.CERTIFIED_OUT}


def _pattern_step(orbit, root, side: str):
    """Certified fixed points at one root, kept when the side's pattern holds:
    (records, None), or (None, the rejection reason).  fixed_points_tl stops
    at the first record that breaks the pattern, or before any record when
    beta0/alpha0 rules the pattern out."""
    recs = fixed_points_tl(root, orbit, want=_PATTERNS[side])
    if recs is None:
        return None, f"{side} pattern"
    return recs, None


def _orbit_step(orbit, root):
    rep = orbit_verify(ab_from_delta(root.center, orbit), orbit)
    return (rep, None) if rep.passed else (None, "orbit check")


def _memoised(memo: dict, step, *args):
    """step(*args) once per (step, *args).  A SiegelcertError is kept as a
    rejection whose reason is the error's type name."""
    key = (step, *args)
    if key not in memo:
        try:
            memo[key] = step(*args)
        except SiegelcertError as exc:
            memo[key] = None, type(exc).__name__
    return memo[key]


def _gate_steps(approx: ApproxResult):
    """The gate's checks as (step, args), cheapest first: the In-pattern at
    delta0, the Out-pattern at delta*, then both orbit verifications."""
    orbit = approx.orbit
    return ((_pattern_step, (orbit, approx.delta0, "delta0")),
            (_pattern_step, (orbit, approx.delta_star, "delta*")),
            (_orbit_step, (orbit, approx.delta0)),
            (_orbit_step, (orbit, approx.delta_star)))


def _try_candidate(approx: ApproxResult, memo: dict,
                   rejections: collections.Counter) -> bool:
    """The certification gate: every step of _gate_steps passes.

    A pattern step stops at the first failing record, so a candidate is
    rejected under the first failure in record order: the singular point's
    record comes from its lemma and cannot fail, then the diagonal points,
    then infinity.  One rejected by beta0/alpha0 alone counts as a pattern
    failure; see threelines.fixed_points_tl.
    memo is created by theorem1_pipeline and lives for that one call; no
    other search shares it.  Within the search many (delta0, delta*) pairs
    share a root, so it holds each (orbit, root, side)'s certified fixed
    points with its pattern result, and each (orbit, root)'s orbit report;
    every check runs once per key and a repeated pair costs lookups only.
    A rejected candidate adds one to rejections under the reason of its
    first failing check: "delta0 pattern", "delta* pattern", "orbit check",
    or the type name of the SiegelcertError that check raised.
    """
    for step, args in _gate_steps(approx):
        _, reason = _memoised(memo, step, *args)
        if reason is not None:
            rejections[reason] += 1
            return False
    return True


def certify_three_lines(orbit, strict: bool = False,
                        workers: int = 1) -> CertificationReport:
    """Full certification run for fixed orbit data.

    Builds the Salem polynomial from the cleared chi constraint, then for
    every unit-circle root: the lift parameters, direct orbit verification,
    and the N+3 fixed points.  certifier.certify_run assembles the report:
    Siegel verdicts with witnesses drawn from the other unit-circle roots'
    fixed points, and the block of tl_action_matrix(orbit).  workers is
    accepted and ignored: every run is single-threaded.
    """
    cert = salem_from_orbit(orbit)
    evidence = (strictmode.three_lines_strict_evidence(cert.poly, orbit)
                if strict else None)
    records = {}
    for root in cert.circle_roots:
        params = ab_from_delta(root.center, orbit)
        rep = orbit_verify(params, orbit)
        if not rep.passed:
            raise OrbitCollision(
                f"orbit conditions failed at root {root.center:.6f}: "
                f"max residual {rep.max_residual:.2e}, "
                f"{len(rep.collisions)} collision(s)")
        records[root] = fixed_points_tl(root, orbit)
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
    totals over all density ranks, then the gate's rejections by reason.
    """
    if k < 2:
        raise PipelineFailed(
            "arguments", f"k = {k} is handled by prior constructions "
            "(degree-2 maps on other cubics); this pipeline needs k >= 2")
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
        memo: dict = {}
        rejections: collections.Counter = collections.Counter()
        gate = functools.partial(_try_candidate, memo=memo,
                                 rejections=rejections)
        try:
            approx = approx_parameters(c0, cstar, accept=gate)
        except BudgetExhausted as exc:
            reasons = (f"; the gate rejected them: {format_counts(rejections)}"
                       if rejections else "")
            raise PipelineFailed("approx_parameters", f"{exc}{reasons}")
        report = _report_from_candidate(k, approx, memo, strict)
    evidence = report.strict_evidence
    certified = report.principal_section.count(PointVerdict.SIEGEL_CERTIFIED)
    if (evidence is None or evidence.irreducible) and certified != k:
        raise PipelineFailed("certification",
                             f"expected {k} certified centers, got {certified}")
    return report


def _report_from_candidate(k: int, approx: ApproxResult, memo: dict,
                           strict: bool) -> CertificationReport:
    """The report for the candidate the gate accepted; its fixed points and
    orbit reports are read back from the gate's memo, not computed again.
    The matrix block also names the Salem degree and the cyclotomic
    indices of the report; the postcondition is that the fixed-point bound
    equals the N+3 records."""
    records0, records_star, orbit_report0, orbit_report_star = (
        _memoised(memo, step, *args)[0] for step, args in _gate_steps(approx))
    orbit, cert = approx.orbit, approx.salem_cert
    evidence = (strictmode.three_lines_strict_evidence(cert.poly, orbit)
                if strict else None)
    parameters = {
        "k": k, "N": orbit.N, "m": list(orbit.m), "n": list(orbit.n),
        "orbit_residual0": orbit_report0.max_residual,
        "orbit_residual_star": orbit_report_star.max_residual,
    }
    report = certify_run("three_lines", parameters, cert,
                         {approx.delta0: records0,
                          approx.delta_star: records_star},
                         evidence, tl_action_matrix(orbit))
    info = report.matrix_info
    info.update(salem_degree=cert.poly.degree,
                cyclotomic_factors=list(report.cyclotomic_factors))
    if info["bound"] != len(records0):
        raise PipelineFailed("fixed_point_bound",
                             f"bound {info['bound']} != fixed point "
                             f"count {len(records0)}")
    return report
