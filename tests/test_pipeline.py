"""The theorem1 search gate (one certification per root, and why it
rejects), and the one report assembly every run goes through."""

import collections
import functools
import types

import mpmath
import pytest

from siegelcert import certifier, cuspidal, pipeline, threelines
from siegelcert.balls import Verdict, ball_in_interval
from siegelcert.certifier import PointVerdict, StrictEvidence
from siegelcert.errors import (BudgetExhausted, NoSalemFactor,
                               PerturbationFailed, PipelineFailed,
                               SiegelcertError)

import oracles
import pools


def _offered_roots(monkeypatch) -> list:
    """Patch theorem1_pipeline's search so that every (candidate, taken)
    its gate answers is appended to the list returned."""
    offered = []
    real_approx = pipeline.approx_parameters

    def approx_parameters(*args, accept, **kwargs):
        def gate(candidate):
            taken = accept(candidate)
            offered.append((candidate, taken))
            return taken
        return real_approx(*args, accept=gate, **kwargs)

    monkeypatch.setattr(pipeline, "approx_parameters", approx_parameters)
    return offered


def test_search_certifies_each_orbit_root_side_once(monkeypatch):
    # the gate sees each (orbit, root, side) at most once and certifies its
    # fixed points once; the orbit conditions are verified once at each
    # delta* root whose pattern holds and at the delta0 root of the pair
    # taken, and at no other root: a delta0 root's check waits until a
    # delta* root of its orbit datum is taken
    offered = _offered_roots(monkeypatch)
    patterns = collections.Counter()
    patterned = {}
    verified = collections.Counter()
    real_fixed_points = pipeline.fixed_points_tl
    real_orbit_verify = pipeline.orbit_verify

    def fixed_points(root, orbit, want):
        patterns[(orbit, root, want)] += 1
        records = real_fixed_points(root, orbit, want=want)
        if records is not None:
            patterned[(orbit, root.center)] = want
        return records

    def orbit_verify(params, orbit):
        verified[(orbit, params.delta)] += 1
        return real_orbit_verify(params, orbit)

    monkeypatch.setattr(pipeline, "fixed_points_tl", fixed_points)
    monkeypatch.setattr(pipeline, "orbit_verify", orbit_verify)
    deferred = 0
    for k in (3, 4):
        for seen in (offered, patterns, patterned, verified):
            seen.clear()
        report = pipeline.theorem1_pipeline(k)
        candidates = [candidate for candidate, _ in offered]
        assert len(set(candidates)) == len(candidates)
        assert set(patterns.values()) == {1}
        assert sum(patterns.values()) == len(candidates)
        # the search ends on the delta* root it takes, at the orbit datum
        # of the delta0 root taken last; they are the report's two sections
        (orbit, root_star, side), taken = offered[-1]
        assert taken and side == "delta*"
        orbit0, root0, _ = next(c for c, ok in reversed(offered)
                                if ok and c[2] == "delta0")
        assert orbit0 == orbit
        star = {key for key, want in patterned.items()
                if want is Verdict.CERTIFIED_OUT}
        assert set(verified.values()) == {1}
        assert set(verified) == star | {(orbit, root0.center)}
        deferred += len(patterned) - len(verified)
        assert report.parameters["m"] == list(orbit.m)
        assert [sec.delta for sec in report.sections] == [root0, root_star]
    # at k = 3, delta0 roots are taken at orbit data where no delta* root
    # then passes, and their orbit conditions are never verified
    assert deferred > 0


@pytest.mark.parametrize("k, mn_cap", [(3, None), (4, None), (3, 4), (4, 4),
                                       (5, 4)])
def test_search_takes_the_pair_the_pair_loop_accepts(monkeypatch, k, mn_cap):
    # offering roots one side at a time finds the (orbit, delta0, delta*)
    # that the nested loop over root pairs accepts first, or fails after
    # the same orbit data tried and skipped
    if mn_cap is not None:
        monkeypatch.setattr(threelines, "DEFAULT_MN_CAP", mn_cap)
    c0 = threelines.construct_c0(k - 2)
    cstar = threelines.construct_cstar(k - 2)

    @functools.cache
    def root_passes(orbit, root, side):
        try:
            if oracles.pattern_reference(orbit, root, side) is None:
                return False
            params = threelines.ab_from_delta(root.center, orbit)
            return threelines.orbit_verify(params, orbit).passed
        except SiegelcertError:
            return False

    def pair_passes(approx):
        return (root_passes(approx.orbit, approx.delta0, "delta0")
                and root_passes(approx.orbit, approx.delta_star, "delta*"))

    gate = functools.partial(pipeline._gate, kept={},
                             rejections=collections.Counter())
    try:
        want = oracles.pair_search_reference(c0, cstar, pair_passes)
    except BudgetExhausted as exc:
        with pytest.raises(BudgetExhausted) as got:
            threelines.approx_parameters(c0, cstar, accept=gate)
        assert str(got.value).endswith(f": {exc}")
    else:
        got = threelines.approx_parameters(c0, cstar, accept=gate)
        assert (got.orbit, got.delta0, got.delta_star) == (
            want.orbit, want.delta0, want.delta_star)
        assert got.salem_cert.poly == want.salem_cert.poly


def _segment_distance(z) -> mpmath.mpf:
    """Distance from z to the segment [0, 4] of the real axis."""
    return abs(z - min(max(z.real, 0), 4))


def _screen_spy(monkeypatch) -> list:
    """Patch fixed_points_tl's closed-form screen so that every (x, s) it
    yields is appended to the list returned."""
    points = []
    real = threelines._closed_form_diagonal

    def screen(*args):
        for x, s in real(*args):
            points.append((x, s))
            yield x, s

    monkeypatch.setattr(threelines, "_closed_form_diagonal", screen)
    return points


def _screen_rejected(points) -> bool:
    """The screen stops at the first s certified Out and rejects the root."""
    return bool(points) and ball_in_interval(points[-1][1]) is \
        Verdict.CERTIFIED_OUT


def _closed_form_points(root, orbit) -> list:
    """Every (x, s) of the closed-form screen at root."""
    db, ab, bb = threelines.param_balls(root, orbit)
    tlm = threelines.TLMap.ball_map(db, ab, bb)
    return list(threelines._closed_form_diagonal(threelines._diagonal_d(db),
                                                 tlm, ab, bb))


def _s_at_50_digits(poly, root, orbit, points) -> list:
    """The 50-digit s of the diagonal point each (x, s) encloses; x and s
    must each hold its 50-digit value."""
    exact = oracles.diagonal_s_50(poly, root, orbit)
    out = []
    for x, s in points:
        x50, s50 = min(exact, key=lambda p: abs(p[0] - x.center))
        assert abs(x50 - x.center) <= x.radius, (orbit, root, x)
        assert abs(s50 - s.center) <= s.radius, (orbit, root, s)
        out.append(s50)
    return out


@pytest.mark.parametrize("k", [3, 4])
def test_gate_decides_like_the_full_record_gate(monkeypatch, k):
    # every (orbit, root, side) the search meets gets the same accept or
    # reject, and the same records, as from the gate that builds them all,
    # and so does every circle root of the pool's orbit data with N = k - 2
    # on the delta0 side; where beta0/alpha0 alone rules the pattern out,
    # the ratio lemma holds at 50 digits, and the closed-form s holds there
    # at every point the screen rejected a root at and at every diagonal
    # point of the pool's data
    real_fixed_points = pipeline.fixed_points_tl
    sides = {want: side for side, want in oracles.PATTERN_SIDES.items()}
    points = _screen_spy(monkeypatch)
    decided = {}
    screened = []
    closed_form_out = []

    def decide(root, orbit, want):
        """fixed_points_tl's answer, the records, None or the error raised,
        checked against the full record gate (where a raise is None)."""
        side = sides[want]
        points.clear()
        try:
            got = real_fixed_points(root, orbit, want=want)
        except SiegelcertError as exc:
            got = exc
        try:
            ref = oracles.pattern_reference(orbit, root, side)
        except SiegelcertError:
            ref = None
        records = None if isinstance(got, Exception) else got
        assert records == ref, (orbit, root, side)
        decided[(orbit, root, side)] = records is not None
        _, ab, bb = threelines.param_balls(root, orbit)
        ratio = ball_in_interval(threelines._parameter_ratio(ab, bb))
        if ratio not in (want, Verdict.UNKNOWN):
            assert records is None and not points
            screened.append((orbit, root, side))
        elif _screen_rejected(points):
            assert side == "delta0" and records is None
            closed_form_out.append((orbit, root, points[-1]))
        return got

    def fixed_points(root, orbit, want):
        got = decide(root, orbit, want)
        if isinstance(got, Exception):
            raise got
        return got

    monkeypatch.setattr(pipeline, "fixed_points_tl", fixed_points)
    pipeline.theorem1_pipeline(k)
    assert sum(decided.values()) >= 2  # the two roots taken
    assert screened and closed_form_out

    polys = {}
    for orbit, root, side in screened:
        if orbit not in polys:
            polys[orbit] = threelines.salem_from_orbit(orbit).poly
        ratio, s_values = oracles.ratio_lemma_50(polys[orbit], root, orbit)
        assert abs(ratio.imag) < 1e-40  # real, as |delta| = 1 makes it
        for s in s_values:
            if side == "delta0":  # ratio outside [0, 4]: each s is too
                assert _segment_distance(ratio.real) > 0
                assert _segment_distance(s) > 1e-20
            else:  # ratio inside [0, 4]: each s is real and in [0, 4]
                assert _segment_distance(ratio.real) == 0
                assert _segment_distance(s) < 1e-30
    for orbit, root, point in closed_form_out:
        if orbit not in polys:
            polys[orbit] = threelines.salem_from_orbit(orbit).poly
        s50, = _s_at_50_digits(polys[orbit], root, orbit, [point])
        assert _segment_distance(s50) > 1e-20

    pool_roots = 0
    for item in pools.workloads.three_lines_pool():
        orbit = threelines.OrbitData(*item.args)
        if orbit.N != k - 2:
            continue
        try:
            cert = threelines.salem_from_orbit(orbit)
        except SiegelcertError:
            continue
        for root in cert.circle_roots:
            decide(root, orbit, Verdict.CERTIFIED_IN)
            found = _closed_form_points(root, orbit)
            assert len(found) == orbit.N
            _s_at_50_digits(cert.poly, root, orbit, found)
            pool_roots += 1
    assert pool_roots


def test_screened_roots_skip_root_isolation_and_jacobians(monkeypatch):
    # a delta0 root that the closed-form screen rejects costs no abscissa
    # root isolation and no chart Jacobian; the other gate calls still do
    points = _screen_spy(monkeypatch)
    work = collections.Counter()
    for name in ("_abscissa_roots", "chart_jacobian"):
        real = getattr(threelines, name)

        def counted(*args, name=name, real=real, **kwargs):
            work[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(threelines, name, counted)
    real_fixed_points = pipeline.fixed_points_tl
    rejected = []
    total = collections.Counter()

    def fixed_points(root, orbit, want):
        points.clear()
        work.clear()
        records = real_fixed_points(root, orbit, want=want)
        if _screen_rejected(points):
            assert want is Verdict.CERTIFIED_IN and records is None
            assert not work, (orbit, root)
            rejected.append((orbit, root))
        total.update(work)
        return records

    monkeypatch.setattr(pipeline, "fixed_points_tl", fixed_points)
    for k in (3, 4):
        rejected.clear()
        total.clear()
        pipeline.theorem1_pipeline(k)
        assert rejected
        assert total["_abscissa_roots"] and total["chart_jacobian"]


def test_theorem1_constructs_the_inside_target_once(monkeypatch):
    # the In-pattern certificate holds at the first design determinant
    tried = []
    real = threelines.design_c0

    def design_c0(n, d):
        tried.append(d)
        return real(n, d)

    def construct_cstar(n):
        raise PerturbationFailed("stop after the targets")

    monkeypatch.setattr(threelines, "design_c0", design_c0)
    monkeypatch.setattr(pipeline, "construct_cstar", construct_cstar)
    with pytest.raises(PipelineFailed, match="construct_cstar"):
        pipeline.theorem1_pipeline(4)
    assert tried == [threelines.D0_TARGET]


def test_failed_search_names_the_gate_rejections(monkeypatch):
    # three delta0 roots are taken, each at an orbit datum where no delta*
    # root then passes; every rejection is on the delta* side, which the
    # closed-form screen of delta0 roots never reaches, so the message is
    # the one the full record gate gives
    monkeypatch.setattr(threelines, "DEFAULT_MN_CAP", 4)
    with pytest.raises(PipelineFailed) as exc:
        pipeline.theorem1_pipeline(3)
    assert str(exc.value) == (
        "approx_parameters: no candidate accepted over 4 density ranks with "
        "m_N <= 4 at eps=1.6: 15 orbit data tried; the gate rejected 5 of 8 "
        "root(s): 5 delta* pattern")


def test_failed_deferred_orbit_check_leaves_the_orbit_datum(monkeypatch):
    # when the orbit check of a taken delta0 root fails, once a delta* root of
    # its datum has passed its own, that delta* root is rejected under
    # "delta0 orbit check" and no pair is taken at the datum
    taken0 = set()
    real_fixed_points = pipeline.fixed_points_tl
    real_orbit_verify = pipeline.orbit_verify

    def fixed_points(root, orbit, want):
        records = real_fixed_points(root, orbit, want=want)
        if records is not None and want is Verdict.CERTIFIED_IN:
            taken0.add(root.center)
        return records

    def orbit_verify(params, orbit):
        if params.delta in taken0:
            return types.SimpleNamespace(passed=False)
        return real_orbit_verify(params, orbit)

    monkeypatch.setattr(pipeline, "fixed_points_tl", fixed_points)
    monkeypatch.setattr(pipeline, "orbit_verify", orbit_verify)
    with pytest.raises(PipelineFailed, match="delta0 orbit check"):
        pipeline.theorem1_pipeline(3)


def test_failed_search_names_the_skipped_orbit_data(monkeypatch):
    real = threelines.salem_from_orbit

    def salem(orbit):
        if orbit.m[-1] == 2:
            raise NoSalemFactor("injected")
        return real(orbit)

    monkeypatch.setattr(threelines, "salem_from_orbit", salem)
    monkeypatch.setattr(threelines, "DEFAULT_MN_CAP", 4)
    with pytest.raises(PipelineFailed) as exc:
        pipeline.theorem1_pipeline(3)
    # m_N = 2 is swept once in each of the four density ranks
    assert "15 orbit data tried (4 skipped: 4 NoSalemFactor)" in str(exc.value)


def test_failed_search_reports_totals_over_all_ranks(monkeypatch):
    # a skip at density rank 1 and the roots offered at every rank stay in
    # the account, which the last rank alone would not show; its rejection
    # counts add up to the gate calls less the roots taken
    rank_one = threelines.OrbitData((3,), (2,))
    seen = []
    real_salem = threelines.salem_from_orbit

    def salem(orbit):
        seen.append(orbit)
        if orbit == rank_one:
            raise NoSalemFactor("injected")
        return real_salem(orbit)

    monkeypatch.setattr(threelines, "salem_from_orbit", salem)
    monkeypatch.setattr(threelines, "DEFAULT_MN_CAP", 4)
    offered = _offered_roots(monkeypatch)
    with pytest.raises(PipelineFailed) as exc:
        pipeline.theorem1_pipeline(3)
    msg = str(exc.value)
    assert {orbit.n for orbit in seen} == {(1,), (2,), (3,), (4,)}
    assert rank_one.n == (2,) and seen[-1].n == (4,)
    assert {candidate[0].n for candidate, _ in offered} != {(4,)}
    rejected = sum(not taken for _, taken in offered)
    assert (f"{len(seen)} orbit data tried (1 skipped: 1 NoSalemFactor); "
            f"the gate rejected {rejected} of {len(offered)} root(s): "
            in msg)
    reasons = msg.rsplit(" root(s): ", 1)[1]
    assert sum(int(part.split()[0]) for part in reasons.split(", ")) == \
        rejected


def test_rejection_summary_orders_reasons_by_count():
    counts = collections.Counter({"orbit check": 1, "delta0 pattern": 3,
                                  "BallDomainError": 1})
    assert threelines.format_counts(counts) == (
        "3 delta0 pattern, 1 BallDomainError, 1 orbit check")


@pytest.mark.parametrize("run", [
    lambda: cuspidal.certify_cuspidal(8),
    lambda: pipeline.certify_three_lines(threelines.OrbitData((1, 2), (1, 1))),
    lambda: pipeline.theorem1_pipeline(3),
], ids=["cuspidal", "three-lines", "theorem1"])
def test_each_run_assembles_its_report_once(monkeypatch, run):
    # certify_run is the one assembly: it alone calls certify_sections,
    # spectral_data and matrix_info, once each, and its report is the run's
    calls = collections.Counter()
    built = []

    def counted(name, keep=False):
        real = getattr(certifier, name)

        def wrapper(*args):
            calls[name] += 1
            result = real(*args)
            if keep:
                built.append(result)
            return result
        return wrapper

    for name in ("certify_sections", "spectral_data", "matrix_info"):
        monkeypatch.setattr(certifier, name, counted(name))
    assemble = counted("certify_run", keep=True)
    for module in (cuspidal, pipeline):
        monkeypatch.setattr(module, "certify_run", assemble)
    report = run()
    assert calls == {"certify_run": 1, "certify_sections": 1,
                     "spectral_data": 1, "matrix_info": 1}
    assert built[0] is report


def test_theorem1_k2_with_failed_evidence_returns_its_report(monkeypatch):
    # as for k >= 3: failed strict evidence leaves the in-range verdicts
    # Inconclusive, and the report is returned instead of failing its count
    failed = StrictEvidence(16, 8, None, False)
    monkeypatch.setattr(cuspidal, "strict_mode_evidence", lambda poly: failed)
    report = pipeline.theorem1_pipeline(2, strict=True)
    assert report.strict_evidence is failed
    verdicts = [v.verdict for v in report.principal_section.verdicts]
    assert verdicts == [PointVerdict.INCONCLUSIVE] * 2
