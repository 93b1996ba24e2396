"""Serialization: repr-exact floats, deterministic JSON/CSV, atomic writes."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from warpspec import ConfigError, RunConfig, config_from_json, config_to_json
from warpspec._format import dumps_json, write_csv_atomic, write_json_atomic, write_text_atomic

# one CSV row: a double (zeros, subnormals, NaN and infinities included), and
# numpy float32, int64 and bool_ scalars
_ROW = st.tuples(
    st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.225e-308, math.nan, math.inf, -math.inf]),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def _same(got, want) -> bool:
    """Integers (and bools) equal; floats bit-equal, NaN equal to NaN and -0.0 unequal to 0.0."""
    if isinstance(want, int):
        return got == want
    return (math.isnan(got) and math.isnan(want)) or (got == want and math.copysign(1.0, got) == math.copysign(1.0, want))


@given(rows=st.lists(_ROW, min_size=1, max_size=20))
def test_written_values_read_back_exactly(tmp_path_factory, rows):
    scalars = [list(col) for col in zip(*rows)]
    arrays = [np.array(scalars[0]), *(np.array(col, dtype=col[0].dtype) for col in scalars[1:])]
    expected = [a.tolist() for a in arrays]

    back = json.loads(dumps_json({"scalars": scalars, "arrays": arrays}))
    for got in (back["scalars"], back["arrays"]):
        for got_col, want_col in zip(got, expected):
            assert [type(v) for v in got_col] == [type(v) for v in want_col]
            assert all(map(_same, got_col, want_col))

    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv_atomic(path, ["x", "x32", "i", "b"], arrays)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,x32,i,b" and len(lines) == len(rows) + 1
    for line, want in zip(lines[1:], zip(*expected)):
        cells = line.split(",")
        assert all(_same((int if isinstance(w, int) else float)(c), w) for c, w in zip(cells, want))


def test_write_text_atomic_honours_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        write_text_atomic(tmp_path / "a.txt", "one")
    finally:
        os.umask(old)
    assert (tmp_path / "a.txt").stat().st_mode & 0o777 == 0o644


def test_dumps_json_sorted_and_deterministic():
    doc = {"b": [1.0, 0.5], "a": {"z": np.arange(3.0), "y": math.pi}, "c": None, "d": True}
    s1 = dumps_json(doc)
    s2 = dumps_json(doc)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["a"]["z"] == [0.0, 1.0, 2.0]
    assert parsed["a"]["y"] == math.pi
    # keys come out sorted at every level
    assert s1.index('"a"') < s1.index('"b"') < s1.index('"c"')
    # floats print as their shortest repr, so 2.0 reads back as a float
    assert dumps_json([0.1, 2.0, np.float64(2000.0), math.nan, -math.inf]) == (
        "[\n  0.1,\n  2.0,\n  2000.0,\n  NaN,\n  -Infinity\n]\n"
    )
    with pytest.raises(TypeError):
        dumps_json({"x": object()})


def test_write_json_atomic_no_temp_left(tmp_path):
    path = tmp_path / "doc.json"
    write_json_atomic(path, {"x": np.float64(2.5), "arr": np.array([1.0, 2.0])})
    assert json.loads(path.read_text()) == {"x": 2.5, "arr": [1.0, 2.0]}
    assert os.listdir(tmp_path) == ["doc.json"]


def test_write_csv_atomic_header_and_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_csv_atomic(path, ["x", "y"], [np.array([1.0, 2.0]), np.array([0.1, math.pi])])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == 0.1
    assert float(lines[2].split(",")[1]) == math.pi
    assert os.listdir(tmp_path) == ["t.csv"]
    write_csv_atomic(path, ["j", "x"], [np.array([0, 1]), np.array([0.1, math.nan])])
    assert path.read_text() == "j,x\n0,0.1\n1,nan\n"


def test_write_text_atomic_overwrites(tmp_path):
    path = tmp_path / "a.txt"
    write_text_atomic(path, "one")
    write_text_atomic(path, "two")
    assert path.read_text() == "two"


def test_runconfig_json_round_trip():
    cfg = RunConfig(command="scan", n=4, k=1.25, lambda_step=5e-3, j_max=2)
    doc = config_to_json(cfg)
    back = config_from_json(doc)
    assert back == cfg
    # and through the actual serializer
    assert config_from_json(json.loads(dumps_json(doc))) == cfg


@given(
    n=st.integers(min_value=2, max_value=6),
    k=st.floats(min_value=0.9, max_value=4.0),
    gamma=st.floats(min_value=0.2, max_value=2.0),
    trials=st.integers(min_value=1, max_value=9),
)
def test_runconfig_round_trip_property(n, k, gamma, trials):
    cfg = RunConfig(command="verify-growth", n=n, k=k, gamma=gamma, trials=trials)
    assert config_from_json(config_to_json(cfg)) == cfg


def test_runconfig_rejects_unknown_key():
    with pytest.raises(ConfigError):
        config_from_json({"command": "scan", "n": 3, "turbo": True})


@pytest.mark.parametrize(
    "bad, match",
    [
        ({"command": "scan", "n": 1}, "n >= 2"),
        ({"command": "verify-growth", "trials": 0}, "^trials must be positive$"),
        ({"command": "scan", "lambda_step": 0.0}, "^lambda_step must be positive$"),
        ({"command": "scan", "threads": 1}, "threads"),  # the removed threads key is now unknown
        ({"command": "nonsense"}, "nonsense"),
        ({"command": "curvature-report", "profile": "flat-torus"}, "unknown profile"),
    ],
    ids=[f"bad{i}" for i in range(6)],
)
def test_runconfig_validates_values(bad, match):
    with pytest.raises(ConfigError, match=match):
        config_from_json(bad)
