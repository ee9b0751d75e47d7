"""End-to-end construction of an automorphism with a prescribed number of
Siegel-disk centers.

k = 2 is the cuspidal-cubic run at orbit length 8.  For k >= 3 the three-lines
family with N = k - 2 is driven through: build the all-inside and all-outside
parameter targets, search orbit data whose Salem polynomial has unit-circle
roots near both targets, verify the orbit conditions by direct iteration,
compute the N+3 isolated fixed points, and certify each off-curve point by the
conjugate criterion with the outside root as witness family.  The report shows
exactly k SiegelCertified points, the singular point as NotRotation, and
positive entropy from the action matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .balls import ComplexBall, Verdict, ball_in_interval
from .certifier import (CertificationReport, Location, PointVerdict, RootSection,
                        certify_fixed_point, certify_sections)
from .cohomology import spectral_check, tl_action_matrix
from .cuspidal import certify_cuspidal
from .errors import (BudgetExhausted, OrbitCollision, PipelineFailed,
                     SiegelcertError)
from .threelines import (ApproxResult, a_value, ab_from_delta, approx_parameters,
                         b_value, construct_c0, construct_cstar, fixed_points_tl,
                         orbit_verify, salem_from_orbit)

D0_TARGET = 0.96  # first design determinant tried for the all-inside target
DEFAULT_EPS = 1.6
DEFAULT_MN_CAP = 18


@dataclass
class _Candidate:
    approx: ApproxResult
    records0: list
    records_star: list
    orbit_report0: object
    orbit_report_star: object


def _param_balls(delta: ComplexBall, orbit):
    """Parameter enclosures at a certified unit-circle root.

    |delta| = 1 exactly makes every a_k(delta), b_k(delta) real (they reduce
    to real trigonometric expressions), so the balls are realized."""
    a = [a_value(delta, mi).realize_real() for mi in orbit.m]
    b = [b_value(delta, nj).realize_real() for nj in orbit.n]
    return a, b


def _records_at(delta: ComplexBall, params, orbit):
    a_balls, b_balls = _param_balls(delta, orbit)
    return fixed_points_tl(params, delta_ball=delta,
                           a_balls=a_balls, b_balls=b_balls, on_circle=True)


def _pattern_holds(records, want: Verdict) -> bool:
    for rec in records:
        if rec.location is Location.CURVE_SINGULAR:
            continue
        if ball_in_interval(rec.s, 0.0, 4.0) is not want:
            return False
    return True


def _try_candidate(approx: ApproxResult) -> _Candidate | None:
    try:
        rep0 = orbit_verify(approx.params0, approx.orbit)
        rep_star = orbit_verify(approx.params_star, approx.orbit)
        if not (rep0.passed and rep_star.passed):
            return None
        recs0 = _records_at(approx.delta0, approx.params0, approx.orbit)
        recs_star = _records_at(approx.delta_star, approx.params_star, approx.orbit)
    except SiegelcertError:
        return None
    if not _pattern_holds(recs0, Verdict.CERTIFIED_IN):
        return None
    if not _pattern_holds(recs_star, Verdict.CERTIFIED_OUT):
        return None
    return _Candidate(approx, recs0, recs_star, rep0, rep_star)


def certify_three_lines(orbit, strict: bool = False,
                        workers: int = 1) -> CertificationReport:
    """Full certification run for fixed orbit data.

    Builds the Salem polynomial from the cleared chi constraint, then for
    every unit-circle root: the lift parameters, direct orbit verification,
    the N+3 fixed points, and Siegel verdicts with witnesses drawn from the
    other unit-circle roots' fixed points.  workers is accepted and ignored:
    every run is single-threaded.
    """
    cert = salem_from_orbit(orbit)

    strict_ok = True
    evidence = None
    if strict:
        from .strictmode import three_lines_strict_evidence
        evidence = three_lines_strict_evidence(cert.poly, orbit)
        strict_ok = evidence.irreducible

    records = []
    for root in cert.circle_roots:
        params = ab_from_delta(root.center, orbit)
        rep = orbit_verify(params, orbit)
        if not rep.passed:
            raise OrbitCollision(
                f"orbit conditions failed at root {root.center:.6f}: "
                f"max residual {rep.max_residual:.2e}, "
                f"{len(rep.collisions)} collision(s)")
        records.append(_records_at(root, params, orbit))
    sections = certify_sections(cert, records, strict_ok)
    spectral = spectral_check(tl_action_matrix(orbit), cert)
    return CertificationReport(
        family="three_lines",
        parameters={"m": list(orbit.m), "n": list(orbit.n), "N": orbit.N,
                    "strict": strict},
        salem_cert=cert,
        sections=sections,
        matrix_info=spectral.matrix_info,
        strict_evidence=evidence,
    )


def theorem1_pipeline(k: int, strict: bool = False, workers: int = 1,
                      eps: float = DEFAULT_EPS, mN_cap: int = DEFAULT_MN_CAP
                      ) -> CertificationReport:
    """Certification report with exactly k Siegel-certified fixed points.

    With strict=True the report carries the conjugacy evidence; when that
    evidence fails, the verdicts at delta0 become Inconclusive and the report
    is returned as it stands.  workers is accepted and ignored.
    """
    if k < 2:
        raise PipelineFailed(
            "arguments", f"k = {k} is handled by prior constructions "
            "(degree-2 maps on other cubics); this pipeline needs k >= 2")
    if k == 2:
        report = certify_cuspidal(8, strict=strict)
        count = report.principal_section.count(PointVerdict.SIEGEL_CERTIFIED)
        if count != 2:
            raise PipelineFailed("certify_cuspidal",
                                 f"expected 2 certified centers, got {count}")
        return report

    n = k - 2
    c0 = None
    c0_err: Exception | None = None
    d_try = D0_TARGET
    while d_try < 1.0:
        try:
            c0 = construct_c0(n, d_target=d_try)
            break
        except SiegelcertError as exc:
            # the sufficient bounds need d closer to 1; walk the target up
            c0_err = exc
            d_try = 1.0 - 0.5 * (1.0 - d_try)
            if 1.0 - d_try < 1e-4:
                break
    if c0 is None:
        raise PipelineFailed("construct_c0", str(c0_err))
    try:
        cstar = construct_cstar(n)
    except SiegelcertError as exc:
        raise PipelineFailed("construct_cstar", str(exc))

    found: list[_Candidate] = []

    def gate(approx: ApproxResult) -> bool:
        cand = _try_candidate(approx)
        if cand is None:
            return False
        found.append(cand)
        return True

    approx_err = None
    for rank in range(4):
        try:
            approx_parameters(c0, cstar, eps, mN_cap=mN_cap, accept=gate,
                              n_rank=rank)
            break
        except BudgetExhausted as exc:
            approx_err = exc
    if not found:
        raise PipelineFailed("approx_parameters", str(approx_err))
    cand = found[0]
    return _report_from_candidate(k, cand, strict)


def _report_from_candidate(k: int, cand: _Candidate,
                           strict: bool) -> CertificationReport:
    approx = cand.approx
    n = approx.orbit.N
    cert = approx.salem_cert

    evidence = None
    strict_ok = True
    if strict:
        from .strictmode import three_lines_strict_evidence
        evidence = three_lines_strict_evidence(cert.poly, approx.orbit)
        strict_ok = evidence.irreducible

    conjugates = [(approx.delta_star, i, rec)
                  for i, rec in enumerate(cand.records_star)]
    verdicts0 = [certify_fixed_point(rec, conjugates, cert, strict_ok)
                 for rec in cand.records0]
    verdicts_star = [certify_fixed_point(rec, [], cert, strict_ok)
                     for rec in cand.records_star]
    sections = [RootSection(approx.delta0, cand.records0, verdicts0),
                RootSection(approx.delta_star, cand.records_star, verdicts_star)]

    certified = sections[0].count(PointVerdict.SIEGEL_CERTIFIED)
    if strict_ok and certified != k:
        raise PipelineFailed("certification",
                             f"expected {k} certified centers, got {certified}")
    w0_verdicts = [v for rec, v in zip(cand.records0, verdicts0)
                   if rec.location is Location.CURVE_SINGULAR]
    if len(w0_verdicts) != 1 or w0_verdicts[0].verdict is not PointVerdict.NOT_ROTATION:
        raise PipelineFailed("certification", "singular point not NotRotation")

    spectral = spectral_check(tl_action_matrix(approx.orbit), cert, dim_cap=None)
    matrix_info = dict(spectral.matrix_info,
                       salem_degree=spectral.data.salem_part.degree,
                       cyclotomic_factors=list(spectral.data.cyclo_parts))
    if matrix_info["bound"] != len(cand.records0):
        raise PipelineFailed("fixed_point_bound",
                             f"bound {matrix_info['bound']} != fixed point "
                             f"count {len(cand.records0)}")

    return CertificationReport(
        family="three_lines",
        parameters={
            "k": k, "N": n,
            "m": list(approx.orbit.m), "n": list(approx.orbit.n),
            "orbit_residual0": cand.orbit_report0.max_residual,
            "orbit_residual_star": cand.orbit_report_star.max_residual,
        },
        salem_cert=cert,
        sections=sections,
        matrix_info=matrix_info,
        strict_evidence=evidence,
    )
