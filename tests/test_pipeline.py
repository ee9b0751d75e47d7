"""The theorem1 search gate: one certification per root, and why it rejects."""

import collections

import pytest

from siegelcert import pipeline, threelines
from siegelcert.errors import NoSalemFactor, PerturbationFailed, PipelineFailed


def test_search_certifies_each_orbit_root_side_once(monkeypatch):
    # the gate sees many (delta0, delta*) pairs that share a root; each
    # (orbit, root, side) must get its fixed points certified exactly once
    current = []
    calls = collections.Counter()
    real_fixed_points = pipeline.fixed_points_tl
    real_approx = pipeline.approx_parameters

    def fixed_points(params, balls):
        approx = current[-1]
        side = "delta0" if balls[0] == approx.delta0 else "delta*"
        calls[(approx.orbit, balls[0], side)] += 1
        return real_fixed_points(params, balls)

    def approx_parameters(*args, accept, **kwargs):
        def gate(approx):
            current.append(approx)
            return accept(approx)
        return real_approx(*args, accept=gate, **kwargs)

    monkeypatch.setattr(pipeline, "fixed_points_tl", fixed_points)
    monkeypatch.setattr(pipeline, "approx_parameters", approx_parameters)
    pipeline.theorem1_pipeline(3)
    pairs = len(current)
    distinct_roots0 = len({(a.orbit, a.delta0) for a in current})
    assert distinct_roots0 < pairs  # pairs do share roots
    assert calls and max(calls.values()) == 1
    assert sum(calls.values()) == len(calls)


def test_theorem1_constructs_the_inside_target_once(monkeypatch):
    # the In-pattern certificate holds at the first design determinant
    tried = []
    real = pipeline.construct_c0

    def construct_c0(n, d_target):
        tried.append(d_target)
        return real(n, d_target=d_target)

    def construct_cstar(n):
        raise PerturbationFailed("stop after the targets")

    monkeypatch.setattr(pipeline, "construct_c0", construct_c0)
    monkeypatch.setattr(pipeline, "construct_cstar", construct_cstar)
    with pytest.raises(PipelineFailed, match="construct_cstar"):
        pipeline.theorem1_pipeline(4)
    assert tried == [pipeline.D0_TARGET]


def test_failed_search_names_the_gate_rejections(monkeypatch):
    monkeypatch.setattr(threelines, "DEFAULT_MN_CAP", 4)
    with pytest.raises(PipelineFailed) as exc:
        pipeline.theorem1_pipeline(3)
    msg = str(exc.value)
    assert "none accepted" in msg
    assert "the gate rejected 18 candidate(s)" in msg
    assert "delta0 pattern" in msg and "delta* pattern" in msg


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
    assert "(1 orbit data skipped: 1 NoSalemFactor)" in str(exc.value)


def test_rejection_summary_orders_reasons_by_count():
    counts = collections.Counter({"orbit check": 1, "delta0 pattern": 3,
                                  "BallDomainError": 1})
    assert pipeline._rejection_summary(counts) == (
        "over 4 density ranks the gate rejected 5 candidate(s): "
        "3 delta0 pattern, 1 BallDomainError, 1 orbit check")
    assert "no candidate reached the gate" in \
        pipeline._rejection_summary(collections.Counter())
