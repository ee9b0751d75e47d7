"""report.render writes exactly the stdlib's sort_keys=True, indent=2 bytes.

json.dumps stays the oracle: every case compares render(doc) with
json.dumps(doc, sort_keys=True, indent=2) + "\\n".
"""

import copy
import enum
import json
import math
import random
import struct
from collections import OrderedDict

import pytest

from siegelcert import report
from siegelcert.cuspidal import certify_cuspidal
from siegelcert.errors import SiegelcertError
from siegelcert.pipeline import certify_three_lines, theorem1_pipeline
from siegelcert.report import RunConfig, render, report_to_dict
from siegelcert.threelines import OrbitData

from pools import workloads


def _stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _assert_parity(doc):
    assert render(doc) == _stdlib(doc)


ACCEPTANCE_RUNS = {
    "cuspidal --n 8": lambda: report_to_dict(
        certify_cuspidal(8), RunConfig("cuspidal", "cuspidal", {"n": 8})),
    "three-lines --m 2 --n 1": lambda: report_to_dict(
        certify_three_lines(OrbitData((2,), (1,))),
        RunConfig("three-lines", "three_lines", {"m": [2], "n": [1]})),
    "three-lines --m 1,2 --n 1,1": lambda: report_to_dict(
        certify_three_lines(OrbitData((1, 2), (1, 1))),
        RunConfig("three-lines", "three_lines", {"m": [1, 2], "n": [1, 1]})),
    "theorem1 --k 3": lambda: report_to_dict(
        theorem1_pipeline(3), RunConfig("theorem1", "theorem1", {"k": 3})),
}


@pytest.mark.parametrize("run", sorted(ACCEPTANCE_RUNS))
def test_acceptance_reports_match_the_stdlib(run):
    _assert_parity(ACCEPTANCE_RUNS[run]())


def _random_float(rng: random.Random) -> float:
    # any bit pattern: NaN, infinities, subnormals and signed zeros included
    if rng.random() < 0.5:
        return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
    return rng.choice((0.0, -0.0, 1.0, 0.1, 1e16, 5e-324, math.inf, -math.inf,
                       math.nan, rng.uniform(-2, 2)))


def _random_str(rng: random.Random) -> str:
    alphabet = 'ab"\\/\n\t\x00\x1f\x7f é€ \U0001f600\udcff'
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))


def _random_tree(rng: random.Random, depth: int):
    kind = rng.randrange(12 if depth < 5 else 6)
    if kind == 0:
        return _random_str(rng)
    if kind == 1:
        return rng.choice((None, True, False, 0, 1, -1))
    if kind == 2:
        return rng.randint(-2 ** 70, 2 ** 70)
    if kind in (3, 4):
        return _random_float(rng)
    if kind == 5:
        return rng.choice(([], {}, ()))
    if kind == 6:
        return [_random_float(rng), _random_float(rng)]
    if kind == 7:
        return {"center": [_random_float(rng), _random_float(rng)],
                "radius": _random_float(rng)}
    if kind in (8, 9):
        seq = [_random_tree(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(seq) if rng.random() < 0.2 else seq
    return {_random_str(rng): _random_tree(rng, depth + 1)
            for _ in range(rng.randint(0, 4))}


@pytest.mark.parametrize("seed", range(5))
def test_random_trees_match_the_stdlib(seed):
    rng = random.Random(seed)
    for _ in range(120):
        _assert_parity(_random_tree(rng, 0))


class _Color(enum.IntEnum):
    RED = 1


class _Str(str):
    pass


class _Float(float):
    def __repr__(self):
        return "not the stdlib's spelling"


EDGE_CASES = [
    # floats
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, [math.nan, -0.0],
    [1e16, -math.inf], _Float(2.5),
    # ints, bools and null
    2 ** 64 + 1, -(2 ** 200), [True, 1, False, 0, None], {"a": True, "b": 1},
    _Color.RED, [_Color.RED, True],
    # strings
    'say "hi"', "back\\slash", "\x00\x01\x1f\x7f\n\r\t\b\f", "Siegel–Möbius",
    "\U0001f600 \U00010000", "\ud800", _Str("sub"), {_Str("key"): 1},
    # empty containers at every depth
    {}, [], (), {"a": {}}, {"a": []}, [[]], [{}], {"a": {"b": {"c": {}}}},
    [[[[[]]]]], {"a": [{"b": [{}]}]},
    # balls and near-balls
    {"center": [0.5, -0.25], "radius": 1e-12},
    {"center": [0.5, -0.25], "radius": 0},
    {"center": [0.5, -0.25, 1.0], "radius": 1e-12},
    {"center": (0.5, -0.25), "radius": 1e-12},
    {"center": [0.5, -0.25], "radius": 1e-12, "extra": None},
    {"center": [0.5, -0.25], "radius": math.nan},
    {"center": [math.inf, -0.25], "radius": 1e-12},
    {"center": [1, 2], "radius": 1e-12},
    {"center": [0.5, _Float(0.25)], "radius": 1e-12},
    {"center": [0.5, -0.25]},
    OrderedDict([("radius", 1e-12), ("center", [0.5, -0.25])]),
    # pairs and near-pairs
    [0.5, 2], [0.5, -0.25, 1.0], (0.5, -0.25), [[0.5, -0.25], [math.nan, 1.0]],
    # the two shapes inside a report
    {"z": [{"center": [1.0, 2.0], "radius": 3.0}], "a": [[1.0, 2.0]]},
]


@pytest.mark.parametrize("doc", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_edge_cases_match_the_stdlib(doc):
    _assert_parity(doc)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), 1j,
                                   {"a": [frozenset()]}])
def test_values_the_stdlib_rejects_raise_type_error(value):
    with pytest.raises(TypeError):
        _stdlib(value)
    with pytest.raises(TypeError):
        render(value)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_a_key_that_is_not_a_str_raises_type_error(key):
    # the one deviation: the stdlib writes such a key as a string
    doc = {"a": {key: 0}}
    assert json.loads(_stdlib(doc))["a"]
    with pytest.raises(TypeError):
        render(doc)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_reports_and_errors_match_the_stdlib(name):
    for item in workloads.WORKLOADS[name].pool:
        try:
            doc = workloads.run_item(item)
        except (SiegelcertError, ValueError) as exc:  # the CLI's error object
            doc = {"error": {"stage": type(exc).__name__, "message": str(exc)}}
        _assert_parity(doc)


def _report_doc() -> dict:
    """A report whose rows include a verdict with a witness and one without."""
    doc = ACCEPTANCE_RUNS["cuspidal --n 8"]()
    witnesses = [v["witness"] for v in doc["verdicts"]]
    assert None in witnesses and any(witnesses)
    return doc


def _fixed_point(doc):
    return doc["fixed_points"][1]


def _with_witness(doc):
    return next(v for v in doc["verdicts"] if v["witness"] is not None)


def _set(path, value):
    """An edit of a report row: path leads from the row to the value that
    value replaces (or the key it adds)."""
    def edit(row):
        *head, last = path
        for step in head:
            row = row[step]
        row[last] = value
    return edit


def _delete(key):
    def edit(row):
        del row[key]
    return edit


# (which row, edit) pairs: each breaks what a row template assumes, or fits
# it with text that a check on the text would misread (float words, % slots,
# escapes)
ROW_EDITS = {
    "coords NaN": (_fixed_point, _set(["coords", 0, 0], math.nan)),
    "det radius inf": (_fixed_point, _set(["det", "radius"], math.inf)),
    "eigenvalue -inf": (_fixed_point,
                        _set(["eigenvalues", 1, "center", 1], -math.inf)),
    "trace radius NaN": (_fixed_point, _set(["trace", "radius"], math.nan)),
    "witness radius inf": (_with_witness,
                           _set(["witness", "delta", "radius"], math.inf)),
    "margin NaN": (_with_witness, _set(["witness", "margin"], math.nan)),
    "margin -inf": (_with_witness, _set(["witness", "margin"], -math.inf)),
    "coords bool": (_fixed_point, _set(["coords", 2, 1], True)),
    "s radius int": (_fixed_point, _set(["s", "radius"], 1)),
    "margin int": (_with_witness, _set(["witness", "margin"], 3)),
    "margin bool": (_with_witness, _set(["witness", "margin"], False)),
    "det center float subclass": (_fixed_point,
                                  _set(["det", "center", 0], _Float(2.5))),
    "index bool": (_fixed_point, _set(["index"], True)),
    "section float": (_with_witness, _set(["section"], 0.0)),
    "point_index bool": (_with_witness, _set(["witness", "point_index"], True)),
    "location str subclass": (_fixed_point, _set(["location"], _Str("Generic"))),
    "location int": (_fixed_point, _set(["location"], 7)),
    "note None": (_with_witness, _set(["note"], None)),
    "missing key s": (_fixed_point, _delete("s")),
    "missing key note": (_with_witness, _delete("note")),
    "missing witness key": (_with_witness, lambda row: row["witness"].pop("margin")),
    "extra key": (_fixed_point, _set(["extra"], 1.0)),
    "extra verdict key": (_with_witness, _set(["extra"], None)),
    "extra ball key": (_fixed_point, _set(["det", "extra"], 0.0)),
    "extra witness key": (_with_witness, _set(["witness", "extra"], [])),
    "three eigenvalues": (_fixed_point,
                          lambda row: row["eigenvalues"].append(row["det"])),
    "two coords": (_fixed_point, lambda row: row["coords"].pop()),
    "coords tuple": (_fixed_point,
                     lambda row: row.update(coords=tuple(row["coords"]))),
    "coords pair of three": (_fixed_point,
                             lambda row: row["coords"][0].append(0.0)),
    "coords dict": (_fixed_point, _set(["coords", 1], {"x": 0.5, "y": 1.5})),
    "witness list": (_with_witness, _set(["witness"], [1.0, 2.0])),
    "witness false": (_with_witness, _set(["witness"], False)),
    "row OrderedDict": (_fixed_point,
                        lambda row: row.update(det=OrderedDict(row["det"]))),
    "note nan inf Infinity": (_with_witness,
                              _set(["note"], "nan, inf, -Infinity, NaN")),
    "note with % slots": (_with_witness, _set(["note"], "100% %r %s %d %%")),
    "location Infinity": (_fixed_point, _set(["location"], "Infinity")),
    "verdict with quotes": (_with_witness, _set(["verdict"], 'say "\u00e9" \\')),
}


@pytest.mark.parametrize("edit", sorted(ROW_EDITS))
def test_edited_report_rows_match_the_stdlib(edit):
    doc = _report_doc()
    pick, change = ROW_EDITS[edit]
    change(pick(doc))
    _assert_parity(doc)


@pytest.mark.parametrize("rows", ["fixed_points", "verdicts"])
def test_row_lists_that_are_not_rows_match_the_stdlib(rows):
    for value in ([], (), {}, None, "rows", [None], [[]], [{}],
                  tuple(_report_doc()[rows])):
        doc = _report_doc()
        doc[rows] = value
        _assert_parity(doc)
    # rows nested deeper than a report's take the general path
    doc = _report_doc()
    _assert_parity({"outer": doc})
    _assert_parity([doc])
    _assert_parity(OrderedDict(doc))


def test_report_rows_take_their_templates(monkeypatch):
    """No fixed_points or verdicts row of a report reaches _encode, so a row
    that silently fell back to it fails here."""
    docs = [run() for run in ACCEPTANCE_RUNS.values()]
    rows = [row for doc in docs for key in ("fixed_points", "verdicts")
            for row in doc[key]]
    assert len(rows) > 50
    assert any(row.get("witness") is None for row in rows)
    assert any(row["location"] == "Infinity" for row in rows
               if "location" in row)
    encoded = []
    encode = report._encode

    def spy(o, nl):
        encoded.append(o)
        return encode(o, nl)

    monkeypatch.setattr(report, "_encode", spy)
    for doc in docs:
        _assert_parity(doc)
    assert encoded
    assert not any(o is row for o in encoded for row in rows)
    # a row that does not fit its template does reach _encode
    edited = copy.deepcopy(docs[0])
    edited["fixed_points"][0]["index"] = True
    _assert_parity(edited)
    assert any(o is edited["fixed_points"][0] for o in encoded)
