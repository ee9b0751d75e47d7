"""End-to-end construction of an automorphism with a prescribed number of
Siegel-disk centers.

k = 2 is the cuspidal-cubic run at orbit length 8.  For k >= 3 the three-lines
family with N = k - 2 is driven through: build the all-inside and all-outside
parameter targets, then one threelines.approx_parameters call, which holds
the whole search policy, walks orbit data whose Salem polynomial has
unit-circle roots near both targets.  A gate checks each root it offers: a
root delta0 is taken when the N+3 isolated fixed points over it certify the
inside pattern, a root delta* when they certify the outside pattern and
then the orbit conditions of both roots pass direct iteration.  The search
returns at the first orbit datum where both sides are taken, so a delta0
root's orbit check waits until a delta* root of its datum is taken.
The gate is a filter and computes only what its answer needs: a root whose
beta0/alpha0 is certified on the wrong side of [0, 4] is rejected before
any fixed point; a delta0 root with N <= 2 is rejected when the closed-form
s of a diagonal point is certified outside [0, 4], before any root
isolation or Jacobian; and the records are built one at a time, the
singular point's from its lemma first, up to the first that breaks the
pattern.  A root that passes gets all N+3 records, the same list
certify_three_lines builds.
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
                         construct_c0, construct_cstar, fixed_points_tl,
                         format_counts, orbit_verify, salem_from_orbit)


_PATTERNS = {"delta0": Verdict.CERTIFIED_IN, "delta*": Verdict.CERTIFIED_OUT}


def _gate(candidate, kept: dict, rejections: collections.Counter) -> bool:
    """The certification gate for one (orbit, root, side) of the search.

    The root's fixed points must certify the side's pattern
    (fixed_points_tl with want, see _PATTERNS), and its orbit conditions
    must pass direct iteration.  Two screens run before any record:
    beta0/alpha0 on both sides, and for delta0 with N <= 2 the closed-form
    s of the diagonal points; a root either screen rules out counts as a
    pattern failure (see threelines.fixed_points_tl).  Past them, a pattern
    check stops at the first failing record, so the root is rejected under
    the first failure in record order: the singular point's record comes
    from its lemma and cannot fail, then the diagonal points, then
    infinity.  The accept or reject is that of the full record list either
    way; a screen can only name the pattern where a record would first
    have raised.
    A delta0 root is taken on its pattern; its orbit check waits until a
    delta* root of its orbit datum passes its own, and a delta* root is
    taken only when both pass.  A failing delta0 check rejects the datum's
    delta* roots as "delta0 orbit check" and the search leaves the datum
    (no run of the benchmark pools or the CLI gets there).
    kept and rejections are created by theorem1_pipeline and live for that
    one call.  A taken root's records and orbit report (None while deferred)
    are kept under its candidate for _report_from_candidate.  A rejected
    root adds one to rejections under the reason of its first failing
    check: "delta0 pattern", "delta* pattern", "orbit check", "delta0 orbit
    check", or the type name of the SiegelcertError that check raised.
    """
    orbit, root, side = candidate
    try:
        records = fixed_points_tl(root, orbit, want=_PATTERNS[side])
        if records is None:
            reason = f"{side} pattern"
        elif side == "delta0":
            kept[candidate] = records, None
            return True
        else:
            orbit_report = orbit_verify(ab_from_delta(root.center, orbit), orbit)
            taken0 = next(c for c in kept if c[0] == orbit and c[2] == "delta0")
            records0, report0 = kept[taken0]
            if orbit_report.passed and report0 is None:
                report0 = orbit_verify(ab_from_delta(taken0[1].center, orbit), orbit)
                kept[taken0] = records0, report0
            reason = ("orbit check" if not orbit_report.passed else
                      None if report0.passed else "delta0 orbit check")
    except SiegelcertError as exc:
        reason = type(exc).__name__
    if reason is not None:
        rejections[reason] += 1
        return False
    kept[candidate] = records, orbit_report
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
    totals over all density ranks, then how many of the roots offered the
    gate rejected, by reason.
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
    """The report for the roots the gate took; their fixed points and orbit
    reports are read back from kept, not computed again.  The matrix block
    also names the Salem degree and the cyclotomic indices of the report."""
    orbit, cert = approx.orbit, approx.salem_cert
    records0, orbit_report0 = kept[(orbit, approx.delta0, "delta0")]
    records_star, orbit_report_star = kept[(orbit, approx.delta_star,
                                            "delta*")]
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
    return report
