"""CLI surface: exit codes, report schema, determinism."""

import json

import pytest

from siegelcert import cuspidal, strictmode
from siegelcert.certifier import StrictEvidence
from siegelcert.cli import main
from siegelcert.intpoly import IntPolynomial


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cuspidal_full_run(capsys):
    code, out = _run(capsys, "cuspidal", "--n", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "cuspidal"
    assert doc["salem"]["coeffs"] == [1, -2, 1, -2, 1, -2, 1, -2, 1]
    assert abs(doc["salem"]["entropy"] - 0.6901) < 1e-3
    assert doc["matrix"] == {"bound": 4, "dim": 28, "trace": 2}
    assert doc["config"]["version"]
    assert set(doc["config"]) == {"arguments", "command", "family", "strict",
                                  "version"}
    principal = doc["principal"]
    vs = [v for v in doc["verdicts"] if v["section"] == principal]
    assert [v["verdict"] for v in vs] == ["SiegelCertified", "SiegelCertified"]
    d0 = doc["sections"][principal]["delta"]["center"]
    assert abs(complex(*d0) - (0.6098 + 0.7925j)) < 5e-4
    for v in vs:
        w = complex(*v["witness"]["delta"]["center"])
        assert abs(w - (-0.7478 + 0.6640j)) < 5e-4


def test_cuspidal_no_salem_factor_exit_1(capsys):
    code, out = _run(capsys, "cuspidal", "--n", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["stage"] == "NoSalemFactor"


def test_cuspidal_strict_adds_evidence(capsys):
    code, out = _run(capsys, "cuspidal", "--n", "8", "--strict")
    doc = json.loads(out)
    ev = doc["evidence"]["strict"]
    assert ev["resultant_degree"] == 16
    assert isinstance(ev["irreducible"], bool)
    assert doc["config"]["strict"] is True


def test_three_lines_n1_report(capsys):
    code, out = _run(capsys, "three-lines", "--m", "2", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"] == {"bound": 4, "dim": 13, "trace": 2}
    per_section = {}
    for fp in doc["fixed_points"]:
        per_section.setdefault(fp["section"], []).append(fp)
    for recs in per_section.values():
        assert len(recs) == 4  # N + 3


def test_three_lines_excluded_orbit(capsys):
    code, out = _run(capsys, "three-lines", "--m", "1", "--n", "1")
    assert code == 1
    assert "excluded" in json.loads(out)["error"]["message"]


def test_three_lines_n2_report(capsys):
    code, out = _run(capsys, "three-lines", "--m", "1,2", "--n", "1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["parameters"]["N"] == 2
    assert doc["matrix"]["bound"] == 5


def test_theorem1_k1_usage_error(capsys):
    code, out = _run(capsys, "theorem1", "--k", "1")
    assert code == 1
    assert json.loads(out)["error"]["stage"] == "PipelineFailed"


def test_precision_flags_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cuspidal", "--n", "8", "--tol", "1e-12"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_check_failure_is_a_json_error(capsys, monkeypatch):
    monkeypatch.setattr(cuspidal, "RESIDUAL_TOL", 1e-300)
    code, out = _run(capsys, "cuspidal", "--n", "8")
    assert code == 1
    assert json.loads(out)["error"]["stage"] == "CheckFailed"


def test_failed_exact_division_is_a_json_error(capsys, monkeypatch):
    monkeypatch.setattr(IntPolynomial, "try_exact_div",
                        lambda self, divisor: None)
    code, out = _run(capsys, "cuspidal", "--n", "8")
    assert code == 1
    assert json.loads(out)["error"]["stage"] == "CheckFailed"


def test_theorem1_strict_failed_evidence_is_inconclusive(capsys, monkeypatch):
    # stands in for the slow Z[x] resultant, whose k = 3 evidence also fails
    monkeypatch.setattr(strictmode, "three_lines_strict_evidence",
                        lambda salem, orbit: StrictEvidence(0, 0, None, False))
    code, out = _run(capsys, "theorem1", "--k", "3", "--strict")
    assert code == 2
    doc = json.loads(out)
    assert doc["evidence"]["strict"]["irreducible"] is False
    principal = [v["verdict"] for v in doc["verdicts"]
                 if v["section"] == doc["principal"]]
    assert "SiegelCertified" not in principal
    assert principal.count("Inconclusive") == 3


def test_theorem1_k2_runs_cuspidal(capsys):
    code, out = _run(capsys, "theorem1", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "cuspidal"
    vs = [v for v in doc["verdicts"]
          if v["section"] == doc["principal"]
          and v["verdict"] == "SiegelCertified"]
    assert len(vs) == 2


def test_report_determinism(capsys):
    _, out1 = _run(capsys, "cuspidal", "--n", "8")
    _, out2 = _run(capsys, "cuspidal", "--n", "8")
    assert out1 == out2
    _, out3 = _run(capsys, "three-lines", "--m", "2", "--n", "1")
    _, out4 = _run(capsys, "three-lines", "--m", "2", "--n", "1")
    assert out3 == out4


def test_report_written_to_out(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = _run(capsys, "cuspidal", "--n", "8", "--out", str(path))
    assert code == 0
    assert path.read_text() == out


def test_matrix_dump_quad(capsys):
    code, out = _run(capsys, "matrix", "--family", "quad", "--n", "2,3,4")
    assert code == 0
    head = out.splitlines()[0].split()
    assert head[0] == "H" and len(head) == 1 + (2 + 3 + 4 + 3)


def test_matrix_dump_three_lines(capsys):
    code, out = _run(capsys, "matrix", "--family", "three-lines",
                     "--m", "2", "--n", "1")
    assert code == 0
    assert len(out.splitlines()) == 1 + 13
    assert out.splitlines()[0].split() == (
        ["H", "E0.0", "E0.1", "E0.2"] + [f"Ea1.{k}" for k in range(5)]
        + [f"Eb1.{k}" for k in range(4)])


def test_matrix_dump_bad_args(capsys):
    code, out = _run(capsys, "matrix", "--family", "quad", "--n", "2,3")
    assert code == 1
