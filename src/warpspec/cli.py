"""Command-line entry point: configuration-driven runs with atomic artifacts.

Subcommands
    build-example      full pipeline: glued construction, verification, scan
    curvature-report   curvature field + trace-identity residual of a profile
    scan               channel scan of the glued construction over a lambda window
    verify-growth      seeded growth trials (or the eigenfunction decay series)
    check-identities   quadrature residuals of the radial integral identities

A JSON config file (--config) supplies defaults; explicit flags win.  Exit
codes: 0 all requested checks passed, 1 a computation or check failed, 2 the
configuration was invalid.  Without --r-max (or an r_max key) the commands
that take --profile build the model profiles euclidean, hyperbolic and cusp
to r = 40 and the power and log ends to r = 1100; the glued construction and
the wvn end reach r = 2000.  Non-finite settings are refused.  All artifacts
are written atomically and print each float as Python's repr, the shortest
string that reads back to the same double, so repeated runs are
byte-identical; wall-clock time goes to stderr (and into the report only
under --timings, which deliberately breaks byte-identity).  A profile.json
artifact holds a profile's kind and the parameters of its builder, and
profile_from_json reads it back into the same profile.  A scan.csv artifact
(build-example, scan) has one row per channel j and energy lam, with the
columns j, lam, verdict (1 fired, 0 not), envelope_exponent and refined_lam,
which is nan off the refined point.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Mapping, get_args, get_type_hints

import numpy as np

from ._format import dumps_json, write_csv_atomic, write_json_atomic, write_text_atomic
from .channel_reduction import block_max_slope, channel_potential, resonance_energy
from .embedded_construction import build_construction, reference_profile, verify_construction
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

_COMMANDS = ("build-example", "curvature-report", "scan", "verify-growth", "check-identities")
# the builder of each profile kind, called as builder(n, **params) with the
# params the kind stores (the glued kind's step is always the default)
_PROFILE_KINDS: dict[str, Callable[..., WarpProfile]] = {
    "euclidean": euclidean_profile,
    "hyperbolic": hyperbolic_profile,
    "cusp": cusp_profile,
    "wvn": reference_profile,
    "glued": lambda n, *, k, r_max, **_: build_construction(n, k, r_max=r_max).profile,
    "power_decay": power_decay_profile,
    "log_decay": slow_log_decay_profile,
}
# --profile names: the kinds, two of them shortened
_PROFILES = ("euclidean", "hyperbolic", "cusp", "wvn", "glued", "power", "log")
_KIND_OF = {"power": "power_decay", "log": "log_decay"}
# default range of the closed-form model profiles in the commands that take
# --profile (everything else defaults to RunConfig.r_max)
_PROFILE_R_MAX = {"euclidean": 40.0, "hyperbolic": 40.0, "cusp": 40.0, "power": 1100.0, "log": 1100.0}
_PROFILE_COMMANDS = ("curvature-report", "verify-growth", "check-identities")


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
                try:
                    object.__setattr__(self, name, float(value))
                except OverflowError:
                    raise ConfigError(f"settings must be finite: {name}") from None
            elif type(value) not in types:
                wanted = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ConfigError(f"{name} must be {wanted}, got {type(value).__name__} {value!r}")
        nonfinite = [name for name, v in asdict(self).items() if isinstance(v, float) and not math.isfinite(v)]
        if nonfinite:
            raise ConfigError(f"settings must be finite: {', '.join(nonfinite)}")
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; choose from {_COMMANDS}")
        if self.n < 2:
            raise ConfigError("need dimension n >= 2")
        if self.profile not in _PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}; choose from {_PROFILES}")
        if self.r_max <= 0 or self.lambda_step <= 0 or self.trials < 1:
            raise ConfigError("r_max, lambda_step must be positive and trials >= 1")
        if self.j_max < 0 or self.seed < 0:
            raise ConfigError("j_max and seed must be nonnegative")


def config_to_json(cfg: RunConfig) -> dict:
    return asdict(cfg)


def config_from_json(doc: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    if "command" not in doc:
        raise ConfigError("config needs a 'command' key")
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
    if name in ("hyperbolic", "cusp") and cfg.r_max > 600.0:
        raise ConfigError(f"profile {name} overflows beyond r = 600; lower --r-max")
    params = {"k": cfg.k} if name in ("wvn", "glued") else {}
    return _PROFILE_KINDS[_KIND_OF.get(name, name)](cfg.n, r_max=cfg.r_max, **params)


def profile_to_json(profile: WarpProfile) -> dict:
    """JSON-ready dict of a profile: its n, kind, r_max and the params its kind's builder takes.

    A shape is code, not data, so a kind without a builder in the CLI's
    table cannot be stored and raises ConfigError.
    """
    if profile.kind not in _PROFILE_KINDS:
        raise ConfigError(f"profile kind {profile.kind!r} has no builder")
    return {"n": profile.n, "kind": profile.kind, "r_max": profile.r_max, "params": dict(profile.params)}


def profile_from_json(doc: Mapping) -> WarpProfile:
    """Rebuild a profile from profile_to_json output through its kind's builder."""
    if doc["kind"] not in _PROFILE_KINDS:
        raise ConfigError(f"profile kind {doc['kind']!r} has no builder")
    return _PROFILE_KINDS[doc["kind"]](int(doc["n"]), **doc.get("params", {}))


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
        grid = g.profile.grid
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
        slope, _ = block_max_slope(series.t, series.t_gamma_i, 8)
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
    if not span[0] < span[1]:
        raise ConfigError(f"bad identity span {span}")
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


_RUNNERS = {
    "build-example": _cmd_build_example,
    "curvature-report": _cmd_curvature_report,
    "scan": _cmd_scan,
    "verify-growth": _cmd_verify_growth,
    "check-identities": _cmd_check_identities,
}


# --------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="warpspec",
        description="spectral checks for rotationally symmetric ends",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file; flags override it")
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--k", type=float, default=None)
        sp.add_argument("--r-max", dest="r_max", type=float, default=None)
        sp.add_argument("--j-max", dest="j_max", type=int, default=None)
        sp.add_argument("--lambda-lo", dest="lambda_lo", type=float, default=None)
        sp.add_argument("--lambda-hi", dest="lambda_hi", type=float, default=None)
        sp.add_argument("--lambda-step", dest="lambda_step", type=float, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--t0", type=float, default=None)
        sp.add_argument("--t-end", dest="t_end", type=float, default=None)
        sp.add_argument("--profile", type=str, default=None, choices=_PROFILES)
        sp.add_argument("--span-lo", dest="span_lo", type=float, default=None)
        sp.add_argument("--span-hi", dest="span_hi", type=float, default=None)
        sp.add_argument("--eigenfunction", action="store_true", default=None)
        sp.add_argument("--out", type=str, default=None, help="artifact directory")
        sp.add_argument("--timings", action="store_true", default=None)
        sp.add_argument("--identity-tol", dest="identity_tol", type=float, default=None)
        sp.add_argument("--trace-tol", dest="trace_tol", type=float, default=None)
        sp.add_argument("--residual-tol", dest="residual_tol", type=float, default=None)
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
    doc["command"] = args.command
    for f in fields(RunConfig):
        if f.name in ("command",):
            continue
        val = getattr(args, f.name, None)
        if val is not None:
            doc[f.name] = val
    cfg = config_from_json(doc)
    if "r_max" not in doc and cfg.command in _PROFILE_COMMANDS and cfg.profile in _PROFILE_R_MAX:
        cfg = replace(cfg, r_max=_PROFILE_R_MAX[cfg.profile])
    return cfg


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        cfg = _resolve_config(args)
        body, ok, artifacts = _RUNNERS[cfg.command](cfg)
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
