"""End-to-end checks of the command line: exit codes, artifacts, determinism."""

import json
import math

import numpy as np
import pytest

from warpspec.cli import emit_plot_data, main, profile_from_json
from warpspec.errors import ConfigError
from warpspec.growth_and_identities import GrowthSeries
from warpspec.warp_geometry import curvature_of_profile, euclidean_profile


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
    code, _, _ = run_cli(capsys, ["curvature-report", "--profile", "cusp", "--r-max", "1000"])
    assert code == 2
    # an explicit range equal to the glued default is honoured, so refused here
    code, _, err = run_cli(capsys, ["curvature-report", "--profile", "hyperbolic", "--r-max", "2000"])
    assert code == 2
    assert "r = 600" in err


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
    "bad",
    [{"n": "3"}, {"r_max": None}, {"j_max": 1.5}, {"timings": "yes"}, {"n": 3.0}, {"trials": True}],
    ids=["str_n", "null_r_max", "float_j_max", "str_timings", "float_n", "bool_trials"],
)
def test_wrongly_typed_config_value_exits_2(capsys, tmp_path, bad):
    # a bool is never a number and a float never an int
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "euclidean", **bad}))
    code, doc, err = run_cli(capsys, ["curvature-report", "--config", str(cfg)])
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
    # without --r-max the closed form reaches 1100 and the arrays stop at r_cap = 600
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
