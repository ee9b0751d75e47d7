"""The theorem1 search gate (one certification per root, and why it
rejects), and the one report assembly every run goes through."""

import collections

import mpmath
import pytest

from siegelcert import certifier, cuspidal, pipeline, threelines
from siegelcert.balls import Verdict, ball_in_interval
from siegelcert.certifier import PointVerdict, StrictEvidence
from siegelcert.errors import (NoSalemFactor, PerturbationFailed,
                               PipelineFailed, SiegelcertError)

import oracles


def test_search_certifies_each_orbit_root_side_once(monkeypatch):
    # the gate sees many (delta0, delta*) pairs that share a root; each
    # (orbit, root, side) must get its fixed points certified exactly once,
    # and each (orbit, root) its orbit conditions verified exactly once
    current = []
    calls = collections.Counter()
    verified = collections.Counter()
    real_fixed_points = pipeline.fixed_points_tl
    real_orbit_verify = pipeline.orbit_verify
    real_approx = pipeline.approx_parameters

    def fixed_points(root, orbit, want):
        approx = current[-1]
        assert orbit == approx.orbit
        side = "delta0" if root == approx.delta0 else "delta*"
        calls[(orbit, root, side)] += 1
        return real_fixed_points(root, orbit, want=want)

    def orbit_verify(params, orbit):
        approx = current[-1]
        root, = (r for r in (approx.delta0, approx.delta_star)
                 if r.center == params.delta)
        verified[(orbit, root)] += 1
        return real_orbit_verify(params, orbit)

    def approx_parameters(*args, accept, **kwargs):
        def gate(approx):
            current.append(approx)
            return accept(approx)
        return real_approx(*args, accept=gate, **kwargs)

    monkeypatch.setattr(pipeline, "fixed_points_tl", fixed_points)
    monkeypatch.setattr(pipeline, "orbit_verify", orbit_verify)
    monkeypatch.setattr(pipeline, "approx_parameters", approx_parameters)
    pipeline.theorem1_pipeline(3)
    pairs = len(current)
    distinct_roots0 = len({(a.orbit, a.delta0) for a in current})
    assert distinct_roots0 < pairs  # pairs do share roots
    assert calls and max(calls.values()) == 1
    assert sum(calls.values()) == len(calls)
    assert verified and set(verified.values()) == {1}


def _segment_distance(z) -> mpmath.mpf:
    """Distance from z to the segment [0, 4] of the real axis."""
    return abs(z - min(max(z.real, 0), 4))


@pytest.mark.parametrize("k", [3, 4])
def test_gate_decides_like_the_full_record_gate(monkeypatch, k):
    # every (orbit, root, side) the search meets gets the same accept or
    # reject, and the same records, as from the gate that builds them all;
    # where beta0/alpha0 alone rules the pattern out, the ratio lemma holds
    # at 50 digits
    real_step = pipeline._pattern_step
    decided = {}
    screened = []

    def step(orbit, root, side):
        try:
            got = real_step(orbit, root, side)
        except SiegelcertError as exc:
            got = exc
        try:
            ref = oracles.pattern_step_reference(orbit, root, side)[0]
        except SiegelcertError:
            ref = None
        records = None if isinstance(got, Exception) else got[0]
        assert records == ref, (orbit, root, side)
        decided[(orbit, root, side)] = records is not None
        _, ab, bb = threelines.param_balls(root, orbit)
        ratio = ball_in_interval(threelines._parameter_ratio(ab, bb))
        if ratio not in (pipeline._PATTERNS[side], Verdict.UNKNOWN):
            assert records is None
            screened.append((orbit, root, side))
        if isinstance(got, Exception):
            raise got
        return got

    monkeypatch.setattr(pipeline, "_pattern_step", step)
    pipeline.theorem1_pipeline(k)
    assert sum(decided.values()) >= 2  # the accepted pair's two sides
    assert screened

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
    monkeypatch.setattr(threelines, "DEFAULT_MN_CAP", 4)
    with pytest.raises(PipelineFailed) as exc:
        pipeline.theorem1_pipeline(3)
    assert str(exc.value) == (
        "approx_parameters: no candidate accepted over 4 density ranks with "
        "m_N <= 4 at eps=1.6: 15 orbit data tried, 18 candidate(s) offered; "
        "the gate rejected them: 10 delta* pattern, 8 delta0 pattern")


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
    # a skip at density rank 1 and the candidates of every rank stay in the
    # account, which the last rank alone would not show
    rank_one = threelines.OrbitData((3,), (2,))
    seen = []
    offered = []
    real_salem = threelines.salem_from_orbit
    real_approx = pipeline.approx_parameters

    def salem(orbit):
        seen.append(orbit)
        if orbit == rank_one:
            raise NoSalemFactor("injected")
        return real_salem(orbit)

    def approx_parameters(*args, accept, **kwargs):
        def gate(approx):
            offered.append(approx.orbit)
            return accept(approx)
        return real_approx(*args, accept=gate, **kwargs)

    monkeypatch.setattr(threelines, "salem_from_orbit", salem)
    monkeypatch.setattr(threelines, "DEFAULT_MN_CAP", 4)
    monkeypatch.setattr(pipeline, "approx_parameters", approx_parameters)
    with pytest.raises(PipelineFailed) as exc:
        pipeline.theorem1_pipeline(3)
    msg = str(exc.value)
    assert {orbit.n for orbit in seen} == {(1,), (2,), (3,), (4,)}
    assert rank_one.n == (2,) and seen[-1].n == (4,)
    assert {orbit.n for orbit in offered} != {(4,)}
    assert (f"{len(seen)} orbit data tried (1 skipped: 1 NoSalemFactor), "
            f"{len(offered)} candidate(s) offered; the gate rejected them: "
            in msg)
    rejected = msg.rsplit("the gate rejected them: ", 1)[1]
    assert sum(int(part.split()[0]) for part in rejected.split(", ")) == \
        len(offered)


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
