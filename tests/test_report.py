"""report.render writes exactly the stdlib's sort_keys=True, indent=2 bytes.

json.dumps stays the oracle: every case compares render(doc) with
json.dumps(doc, sort_keys=True, indent=2) + "\\n".
"""

import enum
import json
import math
import random
import struct
from collections import OrderedDict

import pytest

from siegelcert.cuspidal import certify_cuspidal
from siegelcert.pipeline import certify_three_lines, theorem1_pipeline
from siegelcert.report import RunConfig, render, report_to_dict
from siegelcert.threelines import OrbitData


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
