"""End-to-end checks of the command line: exit codes, artifacts, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import warpspec
from warpspec.cli import (
    _COMMANDS,
    _PROFILE_KINDS,
    RunConfig,
    _build_parser,
    _settings,
    emit_plot_data,
    main,
    profile_from_json,
    profile_to_json,
)
from warpspec.embedded_construction import reference_profile
from warpspec.errors import ConfigError
from warpspec.growth_and_identities import GrowthSeries, power_decay_profile, slow_log_decay_profile
from warpspec.warp_geometry import curvature_of_profile, cusp_profile, euclidean_profile, hyperbolic_profile, uniform_grid


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip().startswith("{") else None
    return code, doc, captured.err


# --------------------------------------------------------------------------
# exit code 2: configuration refusals


def test_unknown_flag_exits_2(capsys):
    assert main(["scan", "--turbo"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_profile_exits_2(capsys):
    # argparse choices catch it before config resolution
    assert main(["curvature-report", "--profile", "flat-torus"]) == 2
    capsys.readouterr()


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "euclidean", "turbo": True}))
    code, _, err = run_cli(capsys, ["curvature-report", "--config", str(cfg)])
    assert code == 2
    assert "config error" in err


def test_malformed_config_file_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, ["curvature-report", "--config", str(cfg)])
    assert code == 2
    code, _, err = run_cli(capsys, ["curvature-report", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_weak_coupling_exits_2(capsys):
    code, _, err = run_cli(
        capsys, ["scan", "--n", "3", "--k", "0.5", "--r-max", "200", "--j-max", "0"]
    )
    assert code == 2
    assert "config error" in err


def test_eigenfunction_needs_glued_profile(capsys):
    code, _, err = run_cli(capsys, ["verify-growth", "--eigenfunction", "--profile", "power"])
    assert code == 2
    assert "glued" in err


@pytest.mark.parametrize("name", ["alpha", "trials", "seed"])
def test_eigenfunction_mode_refuses_the_trial_settings(capsys, monkeypatch, tmp_path, name):
    # the decay series reads none of them: refused as a flag and as a config
    # key, naming the setting, before the construction is built
    monkeypatch.setattr("warpspec.cli.build_construction", _no_build)
    value = {"alpha": 2.5, "trials": 9, "seed": 3}[name]
    code, doc, err = run_cli(capsys, ["verify-growth", "--profile", "glued", "--eigenfunction", f"--{name}", str(value)])
    assert code == 2 and doc is None
    assert "config error" in err and repr(name) in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "glued", "eigenfunction": True, name: value}))
    code, doc, err = run_cli(capsys, ["verify-growth", "--config", str(cfg)])
    assert code == 2 and doc is None
    assert "config error" in err and repr(name) in err


def test_eigenfunction_decays_at_the_predicted_rate(capsys):
    # k = 1 gives k_eff ~ 2.83: t I(t) ~ t^(1 - k_eff/2) falls by only ~5x
    # over [50, 1000], and the check reads that slope, not a fixed ratio
    code, doc, _ = run_cli(
        capsys, ["verify-growth", "--profile", "glued", "--eigenfunction", "--r-max", "1100"]
    )
    assert code == 0
    rep = doc["report"]
    assert rep["checks"] == {"decays_at_predicted_rate": True}
    assert rep["end_over_start"] > 0.01
    assert abs(rep["decay_slope"] - rep["predicted_slope"]) <= 0.05


def test_overflowing_profile_range_exits_2(capsys):
    # an explicit range equal to the glued default is honoured, so refused here
    code, _, err = run_cli(capsys, ["curvature-report", "--profile", "hyperbolic", "--r-max", "2000"])
    assert code == 2
    assert "r = 710" in err


def test_hyperbolic_curvature_report_to_r_600_does_not_overflow(capsys):
    # S' = -1/sinh^2 r is formed as (1/sinh r)^2, which underflows quietly
    # where sinh(r)^2 would overflow (r > 355); RuntimeWarnings are errors here
    code, doc, _ = run_cli(capsys, ["curvature-report", "--profile", "hyperbolic", "--r-max", "600"])
    assert code == 0
    assert doc["report"]["checks"] == {"trace_residual_below_tol": True}


@pytest.mark.parametrize("profile, r_max", [("hyperbolic", 710.0), ("cusp", 2000.0)])
def test_verify_growth_on_a_model_end_runs_at_its_defaults(capsys, profile, r_max):
    # the trials' span [50, 1000] would leave the plotting range r <= 40, so
    # the profile reaches as far as it holds and the span stops inside it
    code, doc, err = run_cli(capsys, ["verify-growth", "--profile", profile])
    assert code == 0, err
    cfg = doc["config"]
    assert cfg["r_max"] == r_max
    assert min(r_max, 1000.0) - 0.1 < cfg["t_end"] <= min(r_max, 1000.0)
    assert doc["report"]["checks"] == {"all_trials_grew": True}


def test_cusp_profile_runs_to_r_1000(capsys):
    # log f = r is never exponentiated on the grid, so the cusp has no range limit
    code, doc, _ = run_cli(capsys, ["curvature-report", "--profile", "cusp", "--r-max", "1000"])
    assert code == 0
    assert doc["report"]["grid_points"] > 12000


@pytest.mark.parametrize(
    "argv",
    [
        ["build-example", "--j-max", "-1", "--r-max", "300"],
        ["verify-growth", "--profile", "power", "--seed", "-1"],
    ],
    ids=["negative_j_max", "negative_seed"],
)
def test_negative_counts_exit_2_before_any_build(capsys, argv):
    code, doc, err = run_cli(capsys, argv)
    assert code == 2
    assert doc is None
    assert "config error" in err and "nonnegative" in err


def _no_build(*args, **kwargs):
    raise AssertionError("a refused configuration reached a build")


@pytest.mark.parametrize("lo, hi", [(2.3, 2.2), (2.2, 2.2)], ids=["reversed", "empty"])
def test_bad_lambda_window_exits_2_before_the_build(capsys, monkeypatch, lo, hi):
    monkeypatch.setattr("warpspec.cli.build_construction", _no_build)
    code, doc, err = run_cli(capsys, ["build-example", "--lambda-lo", str(lo), "--lambda-hi", str(hi)])
    assert code == 2
    assert doc is None
    assert "empty lambda window" in err


# a valid value of each setting, as a flag's words and as a config value: its
# default, or a path or a number where that is null; a bool's is False
_SETTING_VALUES = {
    f.name: f.default if f.default is not None else "art" if f.type == "str | None" else 1.0
    for f in dataclasses.fields(RunConfig)
    if f.name != "command"
}


def _flag(name):
    value = _SETTING_VALUES[name]
    return ["--" + name.replace("_", "-")] + ([] if value is False else [str(value)])


@pytest.mark.parametrize(
    "command, name",
    [(c, name) for c in _COMMANDS for name in _SETTING_VALUES if name not in _settings(c)],
)
def test_a_setting_the_command_does_not_read_exits_2(capsys, monkeypatch, tmp_path, command, name):
    # refused as a flag by the parser and as a config key by config_from_json,
    # before any profile or construction is built
    monkeypatch.setattr("warpspec.cli.build_construction", _no_build)
    monkeypatch.setattr("warpspec.cli._named_profile", _no_build)
    code, doc, err = run_cli(capsys, [command, *_flag(name)])
    assert code == 2 and doc is None
    assert "unrecognized arguments: " + " ".join(_flag(name)) in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({name: _SETTING_VALUES[name]}))
    code, doc, err = run_cli(capsys, [command, "--config", str(cfg)])
    assert code == 2 and doc is None
    assert "config error" in err and repr(name) in err


@pytest.mark.parametrize("command", _COMMANDS)
def test_every_command_takes_its_own_settings_as_flags(command):
    argv = [command] + [word for name in _settings(command) for word in _flag(name)]
    args = vars(_build_parser().parse_args(argv))
    assert {name: args[name] for name in _settings(command)} == {
        name: True if _SETTING_VALUES[name] is False else _SETTING_VALUES[name] for name in _settings(command)
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--lambda-step", "nan", "--r-max", "200", "--j-max", "0"],
        ["curvature-report", "--profile", "euclidean", "--r-max", "inf"],
        ["verify-growth", "--profile", "power", "--gamma", "nan"],
    ],
    ids=["nan_lambda_step", "infinite_r_max", "nan_gamma"],
)
def test_non_finite_settings_exit_2_before_any_build(capsys, argv):
    code, doc, err = run_cli(capsys, argv)
    assert code == 2
    assert doc is None
    assert "config error" in err and "finite" in err


@pytest.mark.parametrize(
    "command, bad",
    [
        ("curvature-report", {"n": "3"}),
        ("curvature-report", {"r_max": None}),
        ("scan", {"j_max": 1.5}),
        ("curvature-report", {"timings": "yes"}),
        ("curvature-report", {"n": 3.0}),
        ("verify-growth", {"trials": True}),
    ],
    ids=["str_n", "null_r_max", "float_j_max", "str_timings", "float_n", "bool_trials"],
)
def test_wrongly_typed_config_value_exits_2(capsys, tmp_path, command, bad):
    # a bool is never a number and a float never an int
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "euclidean", **bad} if command == "curvature-report" else bad))
    code, doc, err = run_cli(capsys, [command, "--config", str(cfg)])
    assert code == 2
    assert doc is None
    assert "config error" in err and next(iter(bad)) in err


def test_int_config_value_for_a_float_setting_is_stored_as_float(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "euclidean", "r_max": 30}))
    code, doc, _ = run_cli(capsys, ["curvature-report", "--config", str(cfg)])
    assert code == 0
    assert doc["config"]["r_max"] == 30.0 and isinstance(doc["config"]["r_max"], float)


# --------------------------------------------------------------------------
# exit codes 0 and 1 on the cheap subcommand


def test_curvature_report_euclidean(capsys, tmp_path):
    out = tmp_path / "art"
    code, doc, _ = run_cli(
        capsys,
        ["curvature-report", "--profile", "euclidean", "--out", str(out)],
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["command"] == "curvature-report"
    assert doc["report"]["checks"]["trace_residual_below_tol"] is True
    assert doc["report"]["trace_residual"] <= 1e-8
    # flat space: S = 1/r exactly, so r (K_rad + 1) == r up to the last grid point
    assert 39.0 <= doc["report"]["sup_r_abs_k_plus_1"] <= 40.0
    assert (out / "report.json").exists()
    assert json.loads((out / "report.json").read_text()) == doc
    header = (out / "curvature.csv").read_text().splitlines()[0]
    assert header == "r,S,K_rad,r_times_K_plus_1"
    prof = profile_from_json(json.loads((out / "profile.json").read_text()))
    assert prof.kind == "euclidean" and prof.n == 3


def test_curvature_report_failure_exits_1(capsys):
    code, doc, _ = run_cli(
        capsys,
        ["curvature-report", "--profile", "euclidean", "--trace-tol", "1e-30"],
    )
    assert code == 1
    assert doc["passed"] is False
    assert doc["report"]["checks"]["trace_residual_below_tol"] is False


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "profile": "hyperbolic", "trace_tol": 1e-5}))
    code, doc, _ = run_cli(
        capsys, ["curvature-report", "--config", str(cfg), "--n", "3"]
    )
    assert code == 0
    assert doc["config"]["n"] == 3  # flag wins
    assert doc["config"]["profile"] == "hyperbolic"  # file survives
    assert doc["config"]["trace_tol"] == 1e-5
    assert doc["report"]["n"] == 3


@pytest.mark.parametrize("profile", ["power", "log"])
def test_decay_profiles_honour_r_max(capsys, tmp_path, profile):
    out = tmp_path / "art"
    code, doc, _ = run_cli(
        capsys, ["curvature-report", "--profile", profile, "--r-max", "50", "--out", str(out)]
    )
    assert code == 0
    assert doc["config"]["r_max"] == 50.0
    last_r = float((out / "curvature.csv").read_text().splitlines()[-1].split(",")[0])
    assert 49.0 < last_r <= 50.0
    # without --r-max the closed form reaches 1100
    _, doc, _ = run_cli(capsys, ["curvature-report", "--profile", profile])
    assert doc["config"]["r_max"] == 1100.0


def test_reports_are_deterministic(capsys, tmp_path):
    out = tmp_path / "art"
    argv = ["curvature-report", "--profile", "hyperbolic", "--n", "2", "--out", str(out)]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        capsys.readouterr()
        runs.append((out / "report.json").read_bytes() + (out / "curvature.csv").read_bytes())
    assert runs[0] == runs[1]


def test_timings_flag_fills_wall_clock(capsys):
    code, doc, _ = run_cli(capsys, ["curvature-report", "--profile", "euclidean", "--timings"])
    assert code == 0
    assert doc["wall_clock_s"] > 0.0
    _, doc, _ = run_cli(capsys, ["curvature-report", "--profile", "euclidean"])
    assert doc["wall_clock_s"] is None


# --------------------------------------------------------------------------
# plot-data emission


def test_emit_plot_data_layouts(tmp_path):
    t = np.linspace(10.0, 20.0, 50)
    series = GrowthSeries(n=3, gamma=1.0, alpha=2.0, t=t, i_values=t, t_gamma_i=t * t)
    p = emit_plot_data(series, tmp_path / "g.csv")
    assert p.read_text().splitlines()[0] == "t,I,t_gamma_I"

    fld = curvature_of_profile(euclidean_profile(3))
    p = emit_plot_data(fld, tmp_path / "c.csv")
    assert p.read_text().splitlines()[0] == "r,S,K_rad,r_times_K_plus_1"

    with pytest.raises(ConfigError):
        emit_plot_data([1, 2, 3], tmp_path / "x.csv")
    empty = GrowthSeries(
        n=3, gamma=1.0, alpha=2.0, t=np.array([]), i_values=np.array([]), t_gamma_i=np.array([])
    )
    with pytest.raises(ConfigError):
        emit_plot_data(empty, tmp_path / "e.csv")


# --------------------------------------------------------------------------
# identity and scan subcommands


def test_check_identities_euclidean(capsys, tmp_path):
    out = tmp_path / "art"
    code, doc, _ = run_cli(
        capsys,
        [
            "check-identities",
            "--profile", "euclidean",
            "--span-lo", "1.0",
            "--span-hi", "10.0",
            "--out", str(out),
        ],
    )
    assert code == 0
    rows = doc["report"]["identities"]
    assert len(rows) == 18  # 6 identities x 3 data bundles
    assert all(r["passed"] for r in rows)
    assert doc["report"]["checks"]["trace_residual_below_tol"] is True
    assert (out / "identities.json").exists()
    code2, doc2, _ = run_cli(
        capsys,
        ["check-identities", "--profile", "euclidean", "--span-lo", "5.0", "--span-hi", "2.0"],
    )
    assert code2 == 2


def test_check_identities_log_runs_at_its_defaults(capsys):
    # the log end starts at r = 2, after the default span_lo of 1: the
    # default span starts there, and a span the user gives is not moved
    code, doc, err = run_cli(capsys, ["check-identities", "--profile", "log"])
    assert code == 0, err
    assert doc["report"]["span"] == [2.0, 20.0]
    code, doc, err = run_cli(capsys, ["check-identities", "--profile", "log", "--span-lo", "1.0"])
    assert code == 2 and doc is None
    assert "identity span (1.0, 20.0)" in err


def test_scan_smoke(capsys, tmp_path):
    out = tmp_path / "art"
    code, doc, _ = run_cli(
        capsys,
        [
            "scan",
            "--n", "3",
            "--k", "1.0",
            "--r-max", "200",
            "--j-max", "0",
            "--lambda-lo", "1.9",
            "--lambda-hi", "2.1",
            "--lambda-step", "0.05",
            "--out", str(out),
        ],
    )
    assert code == 0
    assert doc["report"]["max_wronskian_drift"] <= 1e-6
    assert doc["report"]["channels"] == 1
    assert doc["report"]["resonance_energy"] == 2.0
    header = (out / "scan.csv").read_text().splitlines()[0]
    assert header == "j,lam,verdict,envelope_exponent,refined_lam"


def test_build_example_smoke(capsys, tmp_path):
    out = tmp_path / "art"
    code, doc, _ = run_cli(
        capsys,
        [
            "build-example",
            "--n", "3",
            "--k", "1.0",
            "--r-max", "400",
            "--j-max", "0",
            "--lambda-lo", "1.8",
            "--lambda-hi", "2.2",
            "--lambda-step", "0.05",
            "--out", str(out),
        ],
    )
    assert code == 0
    checks = doc["report"]["checks"]
    assert all(checks.values()), checks
    for name in ("profile.json", "psi.csv", "scan.csv", "report.json"):
        assert (out / name).exists(), name
    fired = doc["report"]["scan"]["fired"]
    assert len(fired) == 1
    assert fired[0]["lam"] == pytest.approx(2.0, abs=1e-12)
    assert fired[0]["refined_lam"] == pytest.approx(2.0, abs=2e-3)
    assert (out / "psi.csv").read_text().splitlines()[0] == "r,psi"
    prof = profile_from_json(json.loads((out / "profile.json").read_text()))
    assert prof.kind == "glued"


def test_build_example_report_reads_back_float_settings(capsys, tmp_path):
    out = tmp_path / "art"
    argv = ["build-example", "--r-max", "400", "--j-max", "0", "--lambda-lo", "1.8", "--lambda-hi", "2.2",
            "--lambda-step", "0.05", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    config = json.loads((out / "report.json").read_text())["config"]
    # 400.0 is written as 400.0, not 400, so it loads as the float it was
    assert type(config["r_max"]) is float and config["r_max"] == 400.0
    assert type(config["n"]) is int
    rows = (out / "scan.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0"] * (len(rows) - 1)
    assert {row.split(",")[2] for row in rows[1:]} == {"0", "1"}


def test_build_example_scans_the_requested_window(capsys, tmp_path):
    out = tmp_path / "art"
    code, doc, _ = run_cli(
        capsys,
        [
            "build-example",
            "--r-max", "500",
            "--j-max", "0",
            "--lambda-lo", "2.2",
            "--lambda-hi", "2.3",
            "--lambda-step", "0.01",
            "--out", str(out),
        ],
    )
    # the resonance at 2 lies outside the window, so the certificate fails
    assert code == 1
    assert doc["report"]["scan"]["fired"] == []
    rows = (out / "scan.csv").read_text().splitlines()[1:]
    lams = [float(row.split(",")[1]) for row in rows]
    assert len(lams) == 11
    assert all(2.2 <= lam <= 2.3 for lam in lams)
    # a window that is not a whole multiple of the step is scanned at the step
    # itself, from lo, never past hi
    out = tmp_path / "art3"
    code, _, _ = run_cli(
        capsys,
        [
            "build-example",
            "--r-max", "500",
            "--j-max", "0",
            "--lambda-lo", "2.2",
            "--lambda-hi", "2.3",
            "--lambda-step", "0.03",
            "--out", str(out),
        ],
    )
    assert code == 1
    rows = (out / "scan.csv").read_text().splitlines()[1:]
    lams = [float(row.split(",")[1]) for row in rows]
    assert lams == pytest.approx([2.2, 2.23, 2.26, 2.29], rel=1e-12)
    code, _, err = run_cli(capsys, ["build-example", "--lambda-lo", "2.3", "--lambda-hi", "2.2"])
    assert code == 2
    assert "empty lambda window" in err


# --------------------------------------------------------------------------
# profile.json


# a profile of every kind but glued, which comes from the session fixture
_PROFILE_MAKERS = {
    "euclidean": lambda: euclidean_profile(3),
    "hyperbolic": lambda: hyperbolic_profile(2, r_max=30.0),
    "cusp": lambda: cusp_profile(4),
    "wvn": lambda: reference_profile(3, 1.5, r_max=200.0),
    "power_decay": lambda: power_decay_profile(3),
    "log_decay": lambda: slow_log_decay_profile(3),
}


@pytest.mark.parametrize("kind", sorted(_PROFILE_KINDS))
def test_profile_json_round_trip(kind, request):
    prof = request.getfixturevalue("glued_k25").profile if kind == "glued" else _PROFILE_MAKERS[kind]()
    assert prof.kind == kind
    doc = profile_to_json(prof)
    # a shape is code: the document holds the builder's parameters only
    assert set(doc) == {"n", "kind", "params"}
    back = profile_from_json(json.loads(json.dumps(doc)))
    assert back.n == prof.n and back.kind == kind
    assert back.kinks == prof.kinks and (back.r_min, back.r_max) == (prof.r_min, prof.r_max)
    r = uniform_grid(prof.r_min, prof.r_max)
    for name in ("s", "s_prime", "log_f"):
        assert getattr(back.shape, name)(r).tobytes() == getattr(prof.shape, name)(r).tobytes()


_EUCLIDEAN_DOC = {"n": 3, "kind": "euclidean", "params": {"r_min": 0.05, "r_max": 40.0}}


@pytest.mark.parametrize(
    "doc, match",
    [
        ({"n": 3, "params": {}}, "kind"),
        ({**_EUCLIDEAN_DOC, "r_max": 40.0}, "r_max"),
        ({**_EUCLIDEAN_DOC, "params": {"r_max": 40.0, "step": 0.05}}, "step"),
        ({**_EUCLIDEAN_DOC, "params": {"radius": 40.0}}, "radius"),
        ({**_EUCLIDEAN_DOC, "n": "x"}, "n must be"),
        ({**_EUCLIDEAN_DOC, "n": True}, "n must be"),
        ({**_EUCLIDEAN_DOC, "n": 1}, "n must be"),
        ({**_EUCLIDEAN_DOC, "kind": ["euclidean"]}, "no builder"),
        ({**_EUCLIDEAN_DOC, "params": [0.05, 40.0]}, "mapping"),
        ({**_EUCLIDEAN_DOC, "params": {"r_max": "a"}}, "r_max"),
        ({**_EUCLIDEAN_DOC, "params": {"r_max": True}}, "r_max"),
        ({**_EUCLIDEAN_DOC, "params": {"r_max": math.inf}}, "r_max"),
        ([_EUCLIDEAN_DOC], "list"),
    ],
    ids=["no-kind", "top-level-r_max", "step", "unknown-param", "n-str", "n-bool", "n-1", "kind-list",
         "params-list", "param-str", "param-bool", "param-inf", "list"],
)
def test_profile_from_json_refuses_malformed_documents(doc, match):
    # profile.json comes from outside the program: every malformed document,
    # an older layout included, is a ConfigError that names what is wrong
    with pytest.raises(ConfigError, match=match):
        profile_from_json(doc)


def test_python_m_warpspec_runs_the_cli(tmp_path):
    src = str(Path(warpspec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "warpspec", "curvature-report", "--profile", "cusp"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["command"] == "curvature-report"
