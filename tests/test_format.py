"""Serialization: 17-digit floats, deterministic JSON/CSV, atomic writes."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from warpspec import ConfigError, RunConfig, config_from_json, config_to_json
from warpspec._format import dumps_json, fmt_float, write_csv_atomic, write_json_atomic, write_text_atomic


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips_exactly(x):
    assert float(fmt_float(x)) == x


def test_fmt_float_digits():
    assert fmt_float(1.0) == "1"
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(math.pi)) == math.pi


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


def test_write_text_atomic_overwrites(tmp_path):
    path = tmp_path / "a.txt"
    write_text_atomic(path, "one")
    write_text_atomic(path, "two")
    assert path.read_text() == "two"


def test_runconfig_json_round_trip():
    cfg = RunConfig(command="scan", n=4, k=1.25, lambda_step=5e-3, seed=7)
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
    "bad",
    [
        {"command": "scan", "n": 1},
        {"command": "scan", "trials": 0},
        {"command": "scan", "lambda_step": 0.0},
        {"command": "scan", "threads": 1},  # the removed threads key is now unknown
        {"command": "nonsense"},
        {"command": "scan", "profile": "flat-torus"},
    ],
)
def test_runconfig_validates_values(bad):
    with pytest.raises(ConfigError):
        config_from_json(bad)
