"""Command-line entry point: configuration-driven runs with atomic artifacts.

Subcommands
    build-example      full pipeline: glued construction, verification, scan
    curvature-report   curvature field + trace-identity residual of a profile
    scan               channel scan of the glued construction over a lambda window
    verify-growth      seeded growth trials (or the eigenfunction decay series)
    check-identities   quadrature residuals of the radial integral identities

Each command takes only the settings its runner reads, plus --out and
--timings; the table _COMMANDS below the runners lists them, and the parser,
the config-file check and the report's config block all read it.  A flag is
its RunConfig field's name with - for _, and a setting another command reads
is refused as a flag and as a config key.

A JSON config file (--config) supplies defaults; explicit flags win.  Exit
codes: 0 all requested checks passed, 1 a computation or check failed, 2 the
configuration was invalid.  Without --r-max (or an r_max key) the commands
that take --profile build the model profiles euclidean, hyperbolic and cusp
to r = 40 and the power and log ends to r = 1100; the glued construction and
the wvn end reach r = 2000.  verify-growth, whose trials run to --t-end,
takes a model profile shorter than that as far as it holds (hyperbolic to
r = 710, where sinh r overflows, the others to 2000), and without --t-end
its span stops at the profile's r_max if that comes first.  Without
--span-lo, check-identities starts its span no earlier than the profile's
r_min.  verify-growth --eigenfunction refuses alpha, trials and seed, which
only the trials read.  Non-finite settings are refused.  All artifacts are
written atomically and print each float as Python's repr, the shortest
string that reads back to the same double, so repeated runs are
byte-identical; wall-clock time goes to stderr
(and into the report only under --timings, which deliberately breaks
byte-identity).  A profile.json artifact holds exactly the keys n, kind and
params, the keyword arguments of that kind's builder, and profile_from_json
reads it back into the same profile.  A curvature.csv artifact
(curvature-report) has the columns r, S, K_rad and r_times_K_plus_1 at the
nodes r_min + i pi/40 of the profile's range, S and K_rad evaluated from the
closed-form shape.  A psi.csv
artifact (build-example) samples the eigenfunction at the same nodes up to
min(r_max, 600).  A scan.csv artifact (build-example, scan) has one row per
channel j and energy lam, with the columns j, lam, verdict (1 fired, 0 not),
envelope_exponent and refined_lam, which is nan off the refined point.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, get_args, get_type_hints

import numpy as np

from ._format import dumps_json, write_csv_atomic, write_json_atomic, write_text_atomic
from .channel_reduction import block_max_slope, channel_potential, resonance_energy
from .embedded_construction import PSI_R_MAX, build_construction, reference_profile, verify_construction
from .errors import ConfigError, WarpspecError
from .growth_and_identities import (
    GrowthSeries,
    check_parts_identities,
    eigenfunction_growth_series,
    power_decay_profile,
    slow_log_decay_profile,
    standard_identity_data,
    verify_growth_theorem,
)
from .halfline_solver import energy_grid, fired_detections, scan_channels
from .warp_geometry import (
    CurvatureField,
    WarpProfile,
    curvature_of_profile,
    cusp_profile,
    euclidean_profile,
    hyperbolic_profile,
    uniform_grid,
)

__all__ = [
    "RunConfig",
    "main",
    "emit_plot_data",
    "config_to_json",
    "config_from_json",
    "profile_to_json",
    "profile_from_json",
]

# the builder of each profile kind, called as builder(n, **params) with the
# params the kind stores
_PROFILE_KINDS: dict[str, Callable[..., WarpProfile]] = {
    "euclidean": euclidean_profile,
    "hyperbolic": hyperbolic_profile,
    "cusp": cusp_profile,
    "wvn": reference_profile,
    "glued": lambda n, *, k, r_max: build_construction(n, k, r_max=r_max).profile,
    "power_decay": power_decay_profile,
    "log_decay": slow_log_decay_profile,
}
# --profile names: the kinds, two of them shortened
_PROFILES = ("euclidean", "hyperbolic", "cusp", "wvn", "glued", "power", "log")
_KIND_OF = {"power": "power_decay", "log": "log_decay"}
# default range of the closed-form model profiles in the commands that take
# --profile (everything else defaults to RunConfig.r_max)
_PROFILE_R_MAX = {"euclidean": 40.0, "hyperbolic": 40.0, "cusp": 40.0, "power": 1100.0, "log": 1100.0}
# where a model profile stops being finite: sinh r in log(sinh r) overflows
# beyond r = 710; the others hold for every r
_PROFILE_R_LIMIT = {"hyperbolic": 710.0}


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI run; unknown keys, values of another type
    than their field's and non-finite floats are rejected.  A bool is never a
    number and a float never an int; an int for a float field becomes that float."""

    command: str
    n: int = 3
    k: float = 1.0
    r_max: float = 2000.0
    j_max: int = 5
    lambda_lo: float | None = None
    lambda_hi: float | None = None
    lambda_step: float = 1e-3
    alpha: float | None = None
    gamma: float = 1.0
    trials: int = 5
    seed: int = 0
    t0: float = 50.0
    t_end: float = 1000.0
    profile: str = "glued"
    span_lo: float = 1.0
    span_hi: float = 20.0
    eigenfunction: bool = False
    out: str | None = None
    timings: bool = False
    identity_tol: float = 1e-7
    trace_tol: float = 1e-5
    residual_tol: float = 1e-6

    def __post_init__(self):
        for name, hint in get_type_hints(RunConfig).items():
            types, value = get_args(hint) or (hint,), getattr(self, name)
            if type(value) is int and float in types:
                value = float(value) if abs(value) <= sys.float_info.max else math.inf
                object.__setattr__(self, name, value)
            elif type(value) not in types:
                wanted = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ConfigError(f"{name} must be {wanted}, got {type(value).__name__} {value!r}")
            if type(value) is float and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; choose from {tuple(_COMMANDS)}")
        if self.n < 2:
            raise ConfigError("need dimension n >= 2")
        if self.profile not in _PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}; choose from {_PROFILES}")
        for name in ("r_max", "lambda_step", "trials"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("j_max", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")


def config_to_json(cfg: RunConfig) -> dict:
    """The command and the settings it takes, in field order."""
    takes = _settings(cfg.command)
    return {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name == "command" or f.name in takes}


def config_from_json(doc: dict) -> RunConfig:
    """The RunConfig of a document holding a command and only settings that command takes."""
    command = doc.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {tuple(_COMMANDS)}")
    foreign = sorted(set(doc) - {"command", *_settings(command)})
    if foreign:
        raise ConfigError(f"{command} does not take the config keys {foreign}")
    return RunConfig(**doc)


# --------------------------------------------------------------------------
# artifact emission


def emit_plot_data(series, path: str | Path) -> Path:
    """Write a known series type as a full-precision CSV (atomic)."""
    path = Path(path)
    if isinstance(series, GrowthSeries):
        cols = [series.t, series.i_values, series.t_gamma_i]
        header = ["t", "I", "t_gamma_I"]
    elif isinstance(series, CurvatureField):
        cols = [series.grid, series.s, series.k_rad, series.grid * (series.k_rad + 1.0)]
        header = ["r", "S", "K_rad", "r_times_K_plus_1"]
    else:
        raise ConfigError(f"no CSV layout known for {type(series).__name__}")
    if len(cols[0]) == 0:
        raise ConfigError("refusing to write an empty series")
    write_csv_atomic(path, header, cols)
    return path


def _outdir(cfg: RunConfig) -> Path | None:
    if cfg.out is None:
        return None
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _named_profile(cfg: RunConfig) -> WarpProfile:
    name = cfg.profile
    if cfg.r_max > _PROFILE_R_LIMIT.get(name, math.inf):
        raise ConfigError("profile hyperbolic overflows beyond r = 710, where sinh r in log(sinh r) overflows; lower --r-max")
    params = {"k": cfg.k} if name in ("wvn", "glued") else {}
    return _PROFILE_KINDS[_KIND_OF.get(name, name)](cfg.n, r_max=cfg.r_max, **params)


def profile_to_json(profile: WarpProfile) -> dict:
    """JSON-ready dict of a profile: its n, kind and the params its kind's builder takes.

    A shape is code, not data, so a kind without a builder in the CLI's
    table cannot be stored and raises ConfigError.
    """
    if profile.kind not in _PROFILE_KINDS:
        raise ConfigError(f"profile kind {profile.kind!r} has no builder")
    return {"n": profile.n, "kind": profile.kind, "params": dict(profile.params)}


def profile_from_json(doc: Mapping) -> WarpProfile:
    """Rebuild a profile from profile_to_json output through its kind's builder.

    The document must hold exactly n (an int >= 2), kind (a kind with a
    builder) and params (finite real numbers that bind to the builder's
    keywords); anything else raises ConfigError naming what is wrong.
    """
    if not isinstance(doc, Mapping) or set(doc) != {"n", "kind", "params"}:
        got = sorted(map(str, doc)) if isinstance(doc, Mapping) else type(doc).__name__
        raise ConfigError(f"a profile document holds exactly the keys kind, n and params, got {got}")
    n, kind, params = doc["n"], doc["kind"], doc["params"]
    if type(n) is not int or n < 2:
        raise ConfigError(f"profile n must be an int >= 2, got {n!r}")
    if not isinstance(kind, str) or kind not in _PROFILE_KINDS:
        raise ConfigError(f"profile kind {kind!r} has no builder")
    builder = _PROFILE_KINDS[kind]
    try:
        inspect.signature(builder).bind(n, **params)
    except TypeError as exc:
        raise ConfigError(f"profile params do not fit the {kind} builder: {exc}") from None
    bad = [k for k, v in params.items() if type(v) not in (int, float) or (type(v) is float and not math.isfinite(v))]
    if bad:
        raise ConfigError(f"profile params must be finite real numbers: {', '.join(bad)}")
    return builder(n, **params)


# --------------------------------------------------------------------------
# subcommands: each returns (report dict, ok flag, artifact paths)


def _lambda_window(cfg: RunConfig) -> tuple[float, float]:
    """Scan window from the config, b_n +- 0.5 by default."""
    b_n = resonance_energy(cfg.n)
    lo = cfg.lambda_lo if cfg.lambda_lo is not None else b_n - 0.5
    hi = cfg.lambda_hi if cfg.lambda_hi is not None else b_n + 0.5
    return lo, hi


def _cmd_build_example(cfg: RunConfig) -> tuple[dict, bool, list[str]]:
    b_n = resonance_energy(cfg.n)
    window = _lambda_window(cfg)
    energy_grid(*window, cfg.lambda_step)  # refuse a bad window before the build
    g = build_construction(cfg.n, cfg.k, r_max=cfg.r_max)
    report, scans = verify_construction(g, j_max=cfg.j_max, lambda_window=window, lambda_step=cfg.lambda_step)
    fired = report["scan"]["fired"]
    checks = {
        "residual_below_tol": report["residual"]["global"] <= cfg.residual_tol,
        "junctions_continuous": max(report["continuity"]["f_prime_jump_r1"], report["continuity"]["f_prime_jump_r2"]) <= 1e-6,
        "ball_exact": report["ball_max_dev"] <= 1e-8,
        "scan_fires_at_resonance": any(abs(d["lam"] - b_n) <= 2e-3 for d in fired),
        "scan_fires_nowhere_else": all(abs(d["lam"] - b_n) <= 2e-3 for d in fired),
        "wronskian_drift_below_1e-6": report["scan"]["max_wronskian_drift"] <= 1e-6,
    }
    report["checks"] = checks
    ok = all(checks.values())
    artifacts: list[str] = []
    out = _outdir(cfg)
    if out is not None:
        write_json_atomic(out / "profile.json", profile_to_json(g.profile))
        artifacts.append(str(out / "profile.json"))
        grid = uniform_grid(g.profile.r_min, min(g.profile.r_max, PSI_R_MAX))
        write_csv_atomic(out / "psi.csv", ["r", "psi"], [grid, g.psi_fn(grid)])
        artifacts.append(str(out / "psi.csv"))
        _write_scan_csv(out / "scan.csv", scans)
        artifacts.append(str(out / "scan.csv"))
    return report, ok, artifacts


def _write_scan_csv(path: Path, scans) -> None:
    rows = [
        (d.j, d.lam, int(d.verdict), d.envelope_exponent, math.nan if d.refined_lam is None else d.refined_lam)
        for rep in scans
        for d in rep.detections
    ]
    write_csv_atomic(path, ["j", "lam", "verdict", "envelope_exponent", "refined_lam"], list(zip(*rows)))


def _cmd_scan(cfg: RunConfig) -> tuple[dict, bool, list[str]]:
    b_n = resonance_energy(cfg.n)
    lo, hi = _lambda_window(cfg)
    lams = energy_grid(lo, hi, cfg.lambda_step)
    g = build_construction(cfg.n, cfg.k, r_max=cfg.r_max)
    chans = [channel_potential(g.profile, j) for j in range(cfg.j_max + 1)]
    scans = scan_channels(chans, lams, origin_bc="regular", r_max=cfg.r_max)
    fired = [
        {"j": rep.j, "lam": d.lam, "refined_lam": d.refined_lam, "envelope_exponent": d.envelope_exponent}
        for rep in scans
        for d in fired_detections(rep.detections)
    ]
    max_drift = max(rep.wronskian_drift for rep in scans)
    report = {
        "lambda_window": [lo, hi],
        "lambda_step": cfg.lambda_step,
        "channels": cfg.j_max + 1,
        "resonance_energy": b_n,
        "fired": fired,
        "max_wronskian_drift": max_drift,
        "checks": {"wronskian_drift_below_1e-6": max_drift <= 1e-6},
    }
    ok = bool(max_drift <= 1e-6)
    artifacts: list[str] = []
    out = _outdir(cfg)
    if out is not None:
        _write_scan_csv(out / "scan.csv", scans)
        artifacts.append(str(out / "scan.csv"))
    return report, ok, artifacts


def _cmd_curvature_report(cfg: RunConfig) -> tuple[dict, bool, list[str]]:
    profile = _named_profile(cfg)
    fld = curvature_of_profile(profile)
    ok = fld.trace_residual <= cfg.trace_tol
    report = {
        "profile": cfg.profile,
        "n": cfg.n,
        "grid_points": len(fld.grid),
        "trace_residual": fld.trace_residual,
        "sup_r_abs_k_plus_1": float(np.max(fld.grid * np.abs(fld.k_rad + 1.0))),
        "checks": {"trace_residual_below_tol": ok},
        "trace_tol": cfg.trace_tol,
    }
    artifacts: list[str] = []
    out = _outdir(cfg)
    if out is not None:
        emit_plot_data(fld, out / "curvature.csv")
        artifacts.append(str(out / "curvature.csv"))
        write_json_atomic(out / "profile.json", profile_to_json(profile))
        artifacts.append(str(out / "profile.json"))
    return report, ok, artifacts


def _cmd_verify_growth(cfg: RunConfig) -> tuple[dict, bool, list[str]]:
    artifacts: list[str] = []
    out = _outdir(cfg)
    if cfg.eigenfunction:
        if cfg.profile != "glued":
            raise ConfigError("--eigenfunction requires --profile glued")
        g = build_construction(cfg.n, cfg.k, r_max=cfg.r_max)
        series = eigenfunction_growth_series(g, gamma=cfg.gamma, t_min=cfg.t0, t_max=cfg.t_end)
        start = float(series.t_gamma_i[0])
        end = float(series.t_gamma_i[-1])
        # the L^2 tail decays like t^(-k_eff/4), so t^gamma I ~ t^(gamma - k_eff/2)
        slope, _ = block_max_slope(series.t, series.t_gamma_i)
        predicted = cfg.gamma - 0.5 * g.diagnostics["k_eff"]
        ok = slope is not None and slope < 0 and abs(slope - predicted) <= 0.05
        report = {
            "mode": "eigenfunction",
            "gamma": cfg.gamma,
            "alpha": series.alpha,
            "t_window": [float(series.t[0]), float(series.t[-1])],
            "start_value": start,
            "end_value": end,
            "end_over_start": end / start,
            "decay_slope": slope,
            "predicted_slope": predicted,
            "checks": {"decays_at_predicted_rate": ok},
        }
        if out is not None:
            emit_plot_data(series, out / "growth.csv")
            artifacts.append(str(out / "growth.csv"))
        return report, ok, artifacts

    profile = _named_profile(cfg)
    alpha = cfg.alpha if cfg.alpha is not None else resonance_energy(cfg.n)
    verdict = verify_growth_theorem(
        profile,
        alpha=alpha,
        gamma=cfg.gamma,
        trials=cfg.trials,
        t0=cfg.t0,
        t_end=cfg.t_end,
        seed=cfg.seed,
    )
    report = {
        "mode": "trials",
        "profile": cfg.profile,
        "alpha": verdict.alpha,
        "gamma": verdict.gamma,
        "seed": verdict.seed,
        "hypothesis": verdict.hypothesis,
        "trials": list(verdict.trials),
        "checks": {"all_trials_grew": verdict.passed},
    }
    if out is not None:
        emit_plot_data(verdict.worst, out / "growth.csv")
        artifacts.append(str(out / "growth.csv"))
    return report, verdict.passed, artifacts


def _cmd_check_identities(cfg: RunConfig) -> tuple[dict, bool, list[str]]:
    profile = _named_profile(cfg)
    span = (cfg.span_lo, cfg.span_hi)
    results = []
    all_ok = True
    for data in standard_identity_data():
        checks = check_parts_identities(profile, data, span=span, tol=cfg.identity_tol)
        for ch in checks:
            results.append(
                {
                    "data": data.name,
                    "identity": ch.name,
                    "lhs": ch.lhs,
                    "rhs": ch.rhs,
                    "residual": ch.residual,
                    "passed": ch.passed,
                }
            )
            all_ok = all_ok and ch.passed
    trace = curvature_of_profile(profile).trace_residual
    trace_ok = trace <= cfg.trace_tol
    report = {
        "profile": cfg.profile,
        "n": cfg.n,
        "span": [span[0], span[1]],
        "identity_tol": cfg.identity_tol,
        "identities": results,
        "trace_residual": trace,
        "checks": {"identities_within_tol": all_ok, "trace_residual_below_tol": trace_ok},
    }
    ok = all_ok and trace_ok
    artifacts: list[str] = []
    out = _outdir(cfg)
    if out is not None:
        write_json_atomic(out / "identities.json", report)
        artifacts.append(str(out / "identities.json"))
    return report, ok, artifacts


class _Command(NamedTuple):
    run: Callable[[RunConfig], tuple[dict, bool, list[str]]]
    reads: str  # the settings the runner reads, space-separated


# every command, the runner it calls and the settings that runner reads; each
# also takes out and timings.  A command's flags, its config keys and its
# report's config block are these settings and no others.
_COMMANDS = {
    "build-example": _Command(_cmd_build_example, "n k r_max j_max lambda_lo lambda_hi lambda_step residual_tol"),
    "curvature-report": _Command(_cmd_curvature_report, "profile n k r_max trace_tol"),
    "scan": _Command(_cmd_scan, "n k r_max j_max lambda_lo lambda_hi lambda_step"),
    "verify-growth": _Command(_cmd_verify_growth, "profile n k r_max alpha gamma trials seed t0 t_end eigenfunction"),
    "check-identities": _Command(_cmd_check_identities, "profile n k r_max span_lo span_hi identity_tol trace_tol"),
}


def _settings(command: str) -> tuple[str, ...]:
    return (*_COMMANDS[command].reads.split(), "out", "timings")


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, one flag per setting it takes: --r-max sets
    r_max, typed by its RunConfig field; a bool is a switch."""
    ap = argparse.ArgumentParser(prog="warpspec", description="spectral checks for rotationally symmetric ends")
    sub = ap.add_subparsers(dest="command", required=True)
    hints = get_type_hints(RunConfig)
    for command in _COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="JSON config file; flags override it")
        for name in _settings(command):
            flag = "--" + name.replace("_", "-")
            if hints[name] is bool:
                sp.add_argument(flag, action="store_true", default=None)
            else:
                (kind,) = set(get_args(hints[name]) or (hints[name],)) - {type(None)}
                sp.add_argument(flag, type=kind, choices=_PROFILES if name == "profile" else None)
    return ap


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    doc: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
    takes = _settings(args.command)
    doc["command"] = args.command
    doc.update({name: value for name in takes if (value := getattr(args, name)) is not None})
    cfg = config_from_json(doc)
    trial_settings = sorted({"alpha", "trials", "seed"} & doc.keys())
    if cfg.eigenfunction and trial_settings:
        raise ConfigError(f"verify-growth --eigenfunction does not read the settings {trial_settings}")
    if "r_max" not in doc and "profile" in takes and cfg.profile in _PROFILE_R_MAX:
        r_max = _PROFILE_R_MAX[cfg.profile]
        if "t_end" in takes and r_max < cfg.t_end:
            # the trials run to t_end: take the profile as far as it holds
            r_max = _PROFILE_R_LIMIT.get(cfg.profile, RunConfig.r_max)
        cfg = replace(cfg, r_max=r_max)
    if "t_end" not in doc and "t_end" in takes and cfg.profile in _PROFILE_R_MAX:
        # and they stop where the profile's range does, when that comes first
        cfg = replace(cfg, t_end=min(cfg.t_end, cfg.r_max))
    if "span_lo" not in doc and "span_lo" in takes and cfg.profile in _PROFILE_R_MAX:
        # the identity span starts where a model profile does, when that comes
        # later (the log end starts at r = 2); wvn and glued start below 1
        cfg = replace(cfg, span_lo=max(cfg.span_lo, _named_profile(cfg).r_min))
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        cfg = _resolve_config(args)
        body, ok, artifacts = _COMMANDS[cfg.command].run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WarpspecError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    report = {
        "command": cfg.command,
        "config": config_to_json(cfg),
        "report": body,
        "passed": ok,
        "artifacts": artifacts,
        "wall_clock_s": elapsed if cfg.timings else None,
    }
    text = dumps_json(report)
    out = _outdir(cfg)
    if out is not None:
        write_text_atomic(out / "report.json", text)
    print(text, end="")
    print(f"wall clock: {elapsed:.3f} s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
