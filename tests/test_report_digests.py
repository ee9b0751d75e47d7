"""The base-against-head classification of tests/report_digests.py."""

import report_digests


def _entry(digest, radii=(1e-12,), outcome="report", verdicts=None):
    if outcome == "error":
        return {"digest": digest,
                "summary": {"outcome": "error", "error": "BallDomainError"}}
    return {"digest": digest, "summary": {
        "outcome": "report", "salem": [1, -1, 1], "parameters": {"n": 9},
        "matrix": {"dim": 31}, "verdicts": verdicts or [{"SiegelCertified": 2}],
        "evidence": None, "entropy": 0.5, "radii": list(radii)}}


def test_changed_items_are_classified_against_the_base():
    base = {"cuspidal-sweep\tcuspidal n=9": _entry("a", (2e-12,)),
            "cuspidal-sweep\tcuspidal n=10": _entry("b"),
            "cuspidal-sweep\tcuspidal n=11": _entry("c"),
            "three-lines-sweep\tthree-lines m=3 n=2": _entry("d", outcome="error"),
            "three-lines-sweep\tthree-lines m=7 n=5": _entry("e")}
    head = {"cuspidal-sweep\tcuspidal n=9": _entry("a2", (1e-12,)),
            "cuspidal-sweep\tcuspidal n=10": _entry("b2", (3e-12,)),
            "cuspidal-sweep\tcuspidal n=11": _entry("c2", verdicts=[{}]),
            "three-lines-sweep\tthree-lines m=3 n=2": _entry("d2"),
            "three-lines-sweep\tthree-lines m=7 n=5": _entry("e")}
    added = ("radii shrink at `cuspidal n=9` and `cuspidal n=10`\n"
             "`cuspidal n=11` mismatch: a verdict changes, because ...\n")
    rows, failed = report_digests.classify(base, head, added)
    got = {key: (named, kind) for named, kind, _, key, _ in rows}
    assert got == {
        "cuspidal n=9": ("named", "match"),
        # a grown radius is a mismatch, and a line without "mismatch" does
        # not explain it
        "cuspidal n=10": ("unnamed", "mismatch"),
        "cuspidal n=11": ("named", "mismatch"),
        "three-lines m=3 n=2": ("unnamed", "new")}
    assert failed == 2

    rows, failed = report_digests.classify(base, base, "")
    assert rows == [] and failed == 0
