"""Rotationally symmetric manifolds carrying an embedded L^2 eigenvalue.

The construction glues three pieces into one smooth warped-product metric:

  * a round ball [0, r1] with f(r) = r, where the first Dirichlet mode H of
    the eigenvalue b_n = (n-1)^2/4 + 1 lives (r1 is its first zero),
  * a bridge [r1, r2] whose warp factor is solved *from* a prescribed
    monotone-decreasing eigenfunction psi (a degree-4 spline for -psi'),
  * a reference end [r2, oo) with shape S = 1 + k sin(2r)/r, whose channel
    potential has a resonant x^-1 sinusoid of amplitude k_eff; for |k| above
    the resonance threshold the decaying solution at energy b_n is square
    integrable.

Because the bridge metric is defined by S = -(b_n psi + psi'')/((n-1) psi'),
psi is an exact eigenfunction on all three pieces, and the multiplicative
freedom psi -> c psi cancels from S, so rescaling the eigenfunction cannot
change the metric (this is checked bit-for-bit in the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.interpolate import BSpline, CubicSpline
from scipy.optimize import brentq, lsq_linear
from scipy.special import gamma as _gammafn
from scipy.special import jv, sici

from .channel_reduction import (
    channel_potential,
    inverse_liouville,
    resonance_coupling_threshold,
    resonance_energy,
)
from .errors import (
    ConfigError,
    ConnectorFailureError,
    CouplingTooWeakError,
    WarpspecError,
)
from .halfline_solver import (
    ShootingResult,
    decaying_solution,
    energy_grid,
    fit_power_decay,
    integrate_schrodinger,
    scan_channels,
)
from .warp_geometry import (
    DEFAULT_STEP,
    GaussLegendrePanels,
    WarpProfile,
    fd_derivative,
    piece_edges,
    profile_from_shape,
    register_profile_kind,
    uniform_grid,
)

__all__ = [
    "DiskEigenfunction",
    "Connector",
    "GluedConstruction",
    "disk_eigenfunction",
    "reference_profile",
    "junction_candidates",
    "build_construction",
    "scale_construction",
    "verify_construction",
]


# ---------------------------------------------------------------- ball piece


@dataclass(frozen=True, eq=False)
class DiskEigenfunction:
    """First radial Dirichlet mode of the flat ball at energy b_n.

    H solves H'' + (n-1)/r H' + b_n H = 0 with H(0) = 1, H'(0) = 0, and r1 is
    its first zero.  h_fn/h_prime_fn are closed forms via Bessel functions,
    stable down to r = 0.
    """

    n: int
    b_n: float
    nu: float
    r1: float
    grid: np.ndarray
    h: np.ndarray
    h_prime: np.ndarray
    h_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    h_prime_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _first_bessel_zero(nu: float) -> float:
    """First positive zero of J_nu by sign scan plus Brent refinement."""
    x = nu + 0.1
    step = 0.05
    prev = jv(nu, x)
    while True:
        x2 = x + step
        cur = jv(nu, x2)
        if prev > 0 and cur <= 0:
            return float(brentq(lambda t: jv(nu, t), x, x2, xtol=1e-15, rtol=8.9e-16))
        x, prev = x2, cur
        if x > nu + 50:
            raise WarpspecError(f"no sign change found for J_{nu}")


def disk_eigenfunction(n: int, *, samples: int = 2001) -> DiskEigenfunction:
    if n < 2:
        raise ConfigError("need n >= 2")
    b_n = 0.25 * (n - 1) ** 2 + 1.0
    a = math.sqrt(b_n)
    nu = 0.5 * (n - 2)
    r1 = _first_bessel_zero(nu) / a
    c_norm = _gammafn(nu + 1.0) * (0.5 * a) ** (-nu)

    def h_fn(r):
        r = np.asarray(r, dtype=float)
        small = np.abs(r) < 1e-8
        rr = np.where(small, 1.0, r)
        vals = c_norm * rr ** (-nu) * jv(nu, a * rr)
        series = 1.0 - b_n * r * r / (2.0 * n)
        return np.where(small, series, vals)

    def h_prime_fn(r):
        r = np.asarray(r, dtype=float)
        small = np.abs(r) < 1e-8
        rr = np.where(small, 1.0, r)
        vals = -c_norm * a * rr ** (-nu) * jv(nu + 1.0, a * rr)
        series = -b_n * r / n
        return np.where(small, series, vals)

    grid = np.linspace(0.0, r1, samples)
    h = h_fn(grid)
    hp = h_prime_fn(grid)
    if abs(h[-1]) > 1e-12:
        raise WarpspecError(f"H(r1) = {h[-1]:.3g}, zero location inconsistent")
    if np.any(h[:-1] <= 0):
        raise WarpspecError("H must stay positive before its first zero")
    if np.any(hp[1:] >= 0):
        raise WarpspecError("H must be strictly decreasing on (0, r1]")
    return DiskEigenfunction(
        n=n, b_n=b_n, nu=nu, r1=r1, grid=grid, h=h, h_prime=hp, h_fn=h_fn, h_prime_fn=h_prime_fn
    )


# ----------------------------------------------------------- reference end


def reference_profile(n: int, k: float, *, r_max: float = 2000.0, step: float = DEFAULT_STEP) -> WarpProfile:
    """Shape S = 1 + k sin(2r)/r on [1, r_max]; log f via the sine integral.

    Requires the coupling to clear the resonance threshold
    |k| (n-1) sqrt((n-1)^2 + 4) > 4 so that the channel sinusoid amplitude
    k_eff exceeds 2.  Sample arrays are capped at r = 600 (f ~ e^r would
    overflow float64); the shape callables remain valid on [1, r_max].
    """
    thr = resonance_coupling_threshold(n)
    if abs(k) <= thr:
        raise CouplingTooWeakError(
            f"|k| = {abs(k)} is at or below the resonance threshold {thr:.6g} for n = {n}",
            threshold=thr,
        )
    si2 = sici(2.0)[0]

    def s(r):
        r = np.asarray(r, dtype=float)
        return 1.0 + k * np.sin(2.0 * r) / r

    def s_prime(r):
        r = np.asarray(r, dtype=float)
        return k * (2.0 * np.cos(2.0 * r) / r - np.sin(2.0 * r) / r**2)

    def s_second(r):
        r = np.asarray(r, dtype=float)
        return k * (-4.0 * np.sin(2.0 * r) / r - 4.0 * np.cos(2.0 * r) / r**2 + 2.0 * np.sin(2.0 * r) / r**3)

    def log_f(r):
        r = np.asarray(r, dtype=float)
        return (r - 1.0) + k * (sici(2.0 * r)[0] - si2)

    return profile_from_shape(
        n,
        s=s,
        s_prime=s_prime,
        log_f=log_f,
        s_second=s_second,
        grid=uniform_grid(1.0, min(r_max, 600.0), step),
        kind="wvn",
        params={"k": k, "r_max": r_max, "step": step},
        r_max=r_max,
    )


register_profile_kind("wvn", lambda n, **p: reference_profile(n, p.pop("k"), **p))


# ------------------------------------------------------------- bridge piece


def _ode_derivs(seed0: float, seed1: float, s_derivs: list[float], b_n: float, n: int, m_max: int = 4) -> list[float]:
    """Derivatives of a solution of d'' + (n-1) S d' + b_n d = 0 at one point.

    Differentiating the equation m times gives the recursion
    d^(m+2) = -(n-1) sum_i C(m,i) S^(i) d^(m-i+1) - b_n d^(m).
    """
    d = [float(seed0), float(seed1)]
    for m in range(m_max - 1):
        acc = 0.0
        for i in range(m + 1):
            acc += math.comb(m, i) * s_derivs[i] * d[m - i + 1]
        d.append(-(n - 1) * acc - b_n * d[m])
    return d


@dataclass(frozen=True)
class _ConnectorTrial:
    knots: np.ndarray
    coeffs: np.ndarray
    err: float
    fmin_rel: float
    max_q0: float


def _try_connector(hd_ball: list[float], hd_tail: list[float], length: float, sigma: float, b_n: float, n: int) -> _ConnectorTrial:
    """Solve for -psi' as a positive degree-4 spline matching both sides.

    The spline s = -psi' has clamped knots with 12 interior breakpoints
    (17 coefficients).  Nine equality rows fix s and its first three
    derivatives at both ends plus the integral of s (which pins psi(r2));
    they are enforced by weighting 1e8 against a second-difference smoothing
    objective under the bound s >= 0.1 sigma.  Since degree-4 B-splines are a
    partition of unity, the coefficient bound makes s >= 0.1 sigma pointwise,
    i.e. psi is structurally strictly decreasing.  BVLS solves it exactly; an
    iterative solver stops early along the nearly flat smoothing directions.
    """
    nc = 17
    tk = np.concatenate([np.zeros(5), np.linspace(0.0, length, 14)[1:-1], np.full(5, length)])
    basis = BSpline(tk, np.eye(nc), 4)
    rows, rhs = [], []
    for mder in range(4):
        spl = basis if mder == 0 else basis.derivative(mder)
        rows.append(spl(0.0))
        rhs.append(-hd_ball[mder + 1])
        rows.append(spl(length))
        rhs.append(-hd_tail[mder + 1])
    anti = basis.antiderivative()
    rows.append(anti(length) - anti(0.0))
    rhs.append(hd_ball[0] - hd_tail[0])
    a_mat = np.array(rows)
    b_vec = np.array(rhs)

    floor = 0.1 * sigma
    d2 = np.diff(np.eye(nc), 2, axis=0)
    sol = lsq_linear(
        np.vstack([1e8 * a_mat, d2]),
        np.concatenate([1e8 * b_vec, np.zeros(nc - 2)]),
        bounds=(floor, np.inf),
        method="bvls",
    )
    coeffs = sol.x
    err = float(np.max(np.abs(a_mat @ coeffs - b_vec)))

    spl = BSpline(tk, coeffs, 4)
    anti_c = spl.antiderivative()
    tt = np.linspace(0.0, length, 4001)
    psi = hd_ball[0] - (anti_c(tt) - anti_c(0.0))
    psi_p = -spl(tt)
    psi_pp = -spl.derivative(1)(tt)
    psi_ppp = -spl.derivative(2)(tt)
    g = -(b_n * psi + psi_pp) / ((n - 1) * psi_p)
    gp = -(b_n * psi_p + psi_ppp) / ((n - 1) * psi_p) + (b_n * psi + psi_pp) * psi_pp / ((n - 1) * psi_p**2)
    p = 0.5 * (n - 1)
    q0 = p * p * g * g + p * gp
    cum = cumulative_trapezoid(g, tt, initial=0.0)
    return _ConnectorTrial(
        knots=tk,
        coeffs=coeffs,
        err=err,
        fmin_rel=float(np.exp(np.min(cum))),
        max_q0=float(np.max(np.abs(q0))),
    )


@dataclass(frozen=True, eq=False)
class Connector:
    """Bridge data: psi' = -s on [r1, r2] with s a positive degree-4 spline.

    amplitude is an overall scalar on the eigenfunction only; the bridge
    metric is computed from knots/coeffs/c_tail alone, so rescaling amplitude
    provably cannot perturb the glued warp factor.
    """

    n: int
    r1: float
    r2: float
    sigma: float
    knots: np.ndarray
    coeffs: np.ndarray
    c_tail: float
    amplitude: float = 1.0
    constraint_err: float = 0.0
    fmin_rel: float = 1.0
    max_mid_potential: float = 0.0
    candidates_tried: int = 0
    attempts: int = 0


def junction_candidates(
    x: np.ndarray,
    h: np.ndarray,
    h_prime: np.ndarray,
    r1: float,
    *,
    delta: float = 0.1,
) -> np.ndarray:
    """Indices where the tail solution supports a monotone bridge.

    A point qualifies when h and h' carry the same sign and both exceed 10%
    of their running tail maxima (quarter-period interiors, away from the
    sign-ambiguous nodes), strictly so at both neighbors so that a verdict
    cannot rest on a grid-tangency.  Points must lie beyond max(r1, 1) + delta.
    """
    tails_h = np.maximum.accumulate(np.abs(h)[::-1])[::-1]
    tails_hp = np.maximum.accumulate(np.abs(h_prime)[::-1])[::-1]
    sgn = np.sign(h)
    core = (x > max(r1, 1.0) + delta) & (sgn * h > 0.1 * tails_h) & (sgn * h_prime > 0.1 * tails_hp)
    strict = np.zeros_like(core)
    strict[1:-1] = core[1:-1] & core[:-2] & core[2:]
    return np.nonzero(strict)[0]


# ---------------------------------------------------------------- assembly


def _piecewise(r, r1: float, r2: float, f_ball, f_mid_t, f_tail):
    """Evaluate a three-piece radial function (f_mid_t takes t = r - r1) as an array shaped like r."""
    arr = np.asarray(r, dtype=float)
    out = np.empty_like(arr)
    m1 = arr < r1
    m3 = arr >= r2
    m2 = ~(m1 | m3)
    if np.any(m1):
        out[m1] = f_ball(arr[m1])
    if np.any(m2):
        out[m2] = f_mid_t(arr[m2] - r1)
    if np.any(m3):
        out[m3] = f_tail(arr[m3])
    return out


@dataclass(frozen=True, eq=False)
class GluedConstruction:
    """A glued profile together with its embedded eigenfunction psi at b_n."""

    n: int
    k: float
    b_n: float
    r1: float
    r2: float
    sigma: float
    c2: float
    connector: Connector
    disk: DiskEigenfunction
    reference: WarpProfile
    profile: WarpProfile
    tail: ShootingResult
    psi_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    diagnostics: dict = field(default_factory=dict, compare=False, repr=False)


def _glue(connector: Connector, disk: DiskEigenfunction, ref: WarpProfile, tail: ShootingResult, *, grid_step: float = DEFAULT_STEP):
    """Assemble the glued profile and the eigenfunction callable."""
    n = connector.n
    b_n = disk.b_n
    p = 0.5 * (n - 1)
    r1, r2 = connector.r1, connector.r2
    length = r2 - r1

    spl = BSpline(connector.knots, connector.coeffs, 4)
    anti = spl.antiderivative()
    dspl1 = spl.derivative(1)
    dspl2 = spl.derivative(2)
    anti0 = float(anti(0.0))

    def psi_mid_raw(t):
        return -(anti(t) - anti0)

    def g_of_t(t):
        psi = psi_mid_raw(t)
        psi_p = -spl(t)
        psi_pp = -dspl1(t)
        return -(b_n * psi + psi_pp) / ((n - 1) * psi_p)

    def gp_of_t(t):
        psi = psi_mid_raw(t)
        psi_p = -spl(t)
        psi_pp = -dspl1(t)
        psi_ppp = -dspl2(t)
        return -(b_n * psi_p + psi_ppp) / ((n - 1) * psi_p) + (b_n * psi + psi_pp) * psi_pp / (
            (n - 1) * psi_p**2
        )

    # accumulate log f across the bridge on spline-break-aligned GL panels
    bk = np.unique(connector.knots)
    nodes = [np.linspace(a, b, 9)[:-1] for a, b in zip(bk[:-1], bk[1:])]
    nodes = np.concatenate(nodes + [np.array([length])])
    gl = GaussLegendrePanels(nodes)
    cum = gl.antiderivative(g_of_t(gl.x.ravel()))[1]
    logf_mid_spl = CubicSpline(nodes, math.log(r1) + cum)
    logf_r2 = float(math.log(r1) + cum[-1])
    sh1 = ref.shape
    log_c2 = logf_r2 - float(sh1.log_f(r2))
    c2 = math.exp(log_c2)

    # the glue radii and the interior spline knots, where S is only C^2: quadrature
    # panels, stencils and ODE steps must not straddle them
    knots = [float(r1 + t) for t in bk if 1e-12 < t < length - 1e-12]
    profile = profile_from_shape(
        n,
        s=lambda r: _piecewise(r, r1, r2, lambda v: 1.0 / v, g_of_t, sh1.s),
        s_prime=lambda r: _piecewise(r, r1, r2, lambda v: -1.0 / v**2, gp_of_t, sh1.s_prime),
        log_f=lambda r: _piecewise(r, r1, r2, np.log, logf_mid_spl, lambda v: log_c2 + sh1.log_f(v)),
        grid=uniform_grid(grid_step, min(ref.r_max, 600.0), grid_step),
        kind="glued",
        params={"k": float(ref.params["k"]), "r_max": ref.r_max, "step": grid_step},
        kinks=(r1, *knots, r2),
        r_max=ref.r_max,
    )

    ball_scale = 1.0 / abs(float(disk.h_prime_fn(r1)))
    tail_interp = CubicSpline(tail.x, tail.w)

    def psi_fn(r, _amp=connector.amplitude, _c=connector.c_tail):
        def ball(v):
            return _amp * ball_scale * disk.h_fn(v)

        def mid(t):
            return _amp * psi_mid_raw(t)

        def tail_piece(v):
            return _amp * _c * tail_interp(v) * np.exp(-p * sh1.log_f(v))

        return _piecewise(r, r1, r2, ball, mid, tail_piece)

    extras = {
        "log_c2": log_c2,
        "c2": c2,
        "f_r2": math.exp(logf_r2),
        "f_min_rel_bridge": float(np.exp(np.min(cum))),
        "s_jump_r1": abs(float(g_of_t(0.0)) - 1.0 / r1),
        "s_jump_r2": abs(float(g_of_t(length)) - float(sh1.s(r2))),
    }
    return profile, psi_fn, extras


def build_construction(
    n: int = 3,
    k: float = 1.0,
    *,
    r_max: float = 2000.0,
    contact_order: int = 4,
    delta: float = 0.1,
    sigma_ladder: tuple[float, ...] = (0.5, 0.8, 1.3, 2.0),
    max_candidates: int = 20,
    rtol: float = 1e-11,
) -> GluedConstruction:
    """Build the glued manifold with eigenvalue b_n = (n-1)^2/4 + 1.

    Junction candidates (quarter-period interiors of the tail solution) are
    tried in increasing radius, each over the sigma ladder of bridge scales
    (|psi(r2)| = sigma (r2 - r1)); a candidate is accepted when the bridge
    constraints are met to 1e-8, the warp factor dips below its r1 value by
    no more than a factor 200 (channel barriers stay within float64 range),
    and the bridge channel potential stays bounded by 40.
    """
    if contact_order != 4:
        raise ConfigError("only contact order 4 (C^4 gluing) is supported")
    disk = disk_eigenfunction(n)
    ref = reference_profile(n, k, r_max=r_max)
    b_n = resonance_energy(n)
    q0 = channel_potential(ref, 0)
    tail = decaying_solution(q0, b_n, r_anchor=r_max, x_end=1.0, verify=True, rtol=rtol)

    x = tail.x
    sh = ref.shape
    h, hp = inverse_liouville(ref, x, tail.w, tail.w_prime)

    idx = junction_candidates(x, h, hp, disk.r1, delta=delta)[:max_candidates]
    if len(idx) == 0:
        raise ConnectorFailureError("no junction candidates found in the tail solution", attempts=0)

    s_ball = [1.0 / disk.r1, -1.0 / disk.r1**2, 2.0 / disk.r1**3]
    hd_ball = _ode_derivs(0.0, -1.0, s_ball, b_n, n)

    tried = 0
    best: tuple[float, dict] | None = None
    for attempt, ci in enumerate(idx, start=1):
        r2 = float(x[ci])
        length = r2 - disk.r1
        s_tail = [float(sh.s(r2)), float(sh.s_prime(r2)), float(sh.s_second(r2))]
        for sigma in sigma_ladder:
            tried += 1
            c_tail = -sigma * length / float(h[ci])
            hd_tail = _ode_derivs(c_tail * float(h[ci]), c_tail * float(hp[ci]), s_tail, b_n, n)
            trial = _try_connector(hd_ball, hd_tail, length, sigma, b_n, n)
            if best is None or trial.err < best[0]:
                best = (trial.err, {"r2": r2, "sigma": sigma, "fmin_rel": trial.fmin_rel, "max_q0": trial.max_q0})
            if trial.err <= 1e-8 and trial.fmin_rel >= 5e-3 and trial.max_q0 <= 40.0:
                connector = Connector(
                    n=n,
                    r1=disk.r1,
                    r2=r2,
                    sigma=sigma,
                    knots=trial.knots,
                    coeffs=trial.coeffs,
                    c_tail=c_tail,
                    constraint_err=trial.err,
                    fmin_rel=trial.fmin_rel,
                    max_mid_potential=trial.max_q0,
                    candidates_tried=attempt,
                    attempts=tried,
                )
                profile, psi_fn, extras = _glue(connector, disk, ref, tail)
                diagnostics = dict(extras)
                diagnostics.update(
                    {
                        "constraint_err": trial.err,
                        "attempts": tried,
                        "candidates_tried": attempt,
                        "k_eff": q0.k_eff,
                        "two_run_agreement": tail.meta.get("two_run_agreement"),
                    }
                )
                return GluedConstruction(
                    n=n,
                    k=k,
                    b_n=b_n,
                    r1=disk.r1,
                    r2=r2,
                    sigma=sigma,
                    c2=extras["c2"],
                    connector=connector,
                    disk=disk,
                    reference=ref,
                    profile=profile,
                    tail=tail,
                    psi_fn=psi_fn,
                    diagnostics=diagnostics,
                )
    raise ConnectorFailureError(
        f"no admissible bridge after {len(idx)} junction candidates",
        attempts=len(idx),
        diagnostics=best[1] if best else {},
    )


def scale_construction(g: GluedConstruction, factor: float) -> GluedConstruction:
    """Rescale the eigenfunction psi -> factor * psi and reassemble.

    The warp factor is recomputed from scratch; it must come out bit-for-bit
    identical because the bridge shape depends only on ratios of psi.
    """
    connector = replace(g.connector, amplitude=g.connector.amplitude * float(factor))
    profile, psi_fn, extras = _glue(connector, g.disk, g.reference, g.tail)
    return GluedConstruction(
        n=g.n,
        k=g.k,
        b_n=g.b_n,
        r1=g.r1,
        r2=g.r2,
        sigma=g.sigma,
        c2=extras["c2"],
        connector=connector,
        disk=g.disk,
        reference=g.reference,
        profile=profile,
        tail=g.tail,
        psi_fn=psi_fn,
        diagnostics=dict(g.diagnostics),
    )


def _glued_from_params(n: int, **params) -> WarpProfile:
    g = build_construction(n=n, k=float(params["k"]), r_max=float(params.get("r_max", 2000.0)))
    return g.profile


register_profile_kind("glued", _glued_from_params)


# -------------------------------------------------------------- verification


def _eigen_residual_on(x: np.ndarray, psi: np.ndarray, s_vals: np.ndarray, b_n: float, n: int) -> float:
    """Max relative residual of psi'' + (n-1) S psi' + b_n psi on one piece."""
    d1 = fd_derivative(x, psi, order=1)
    d2 = fd_derivative(x, psi, order=2)
    num = d2 + (n - 1) * s_vals * d1 + b_n * psi
    den = np.abs(d2) + np.abs((n - 1) * s_vals * d1) + np.abs(b_n * psi)
    den = np.maximum(den, 1e-9 * np.max(den))
    return float(np.max(np.abs(num) / den))


def verify_construction(
    g: GluedConstruction,
    *,
    run_scan: bool = True,
    j_max: int = 5,
    lambda_window: tuple[float, float] | None = None,
    lambda_step: float = 1e-3,
    fine_step: float = math.pi / 400.0,
    rtol: float = 1e-10,
) -> tuple[dict, list]:
    """Numerical certificate for a glued construction.

    Returns (report, scan_reports).  The report covers: the eigenfunction
    residual measured by finite differences piece by piece (stencils never
    cross a kink of the profile), warp-factor continuity at the glue radii,
    exactness of f = r on the ball, tail curvature decay r (K_rad + 1) against the
    predicted sinusoid amplitude, the L^2 norm of psi with the tail-integrand
    exponent, and (optionally) a channel scan over lambda_window (default
    b_n +- 0.5, sampled by energy_grid, so an empty window raises
    ConfigError) whose only firing must be the built eigenvalue.  All quantities are deterministic,
    so serialized reports are byte-identical across runs.
    """
    n, b_n, r1, r2 = g.n, g.b_n, g.r1, g.r2
    p = 0.5 * (n - 1)
    prof = g.profile
    sh = prof.shape
    report: dict = {}

    # (a) eigenfunction residual, piecewise FD
    xb = np.arange(fine_step, r1 - 0.5 * fine_step, fine_step)
    res_ball = _eigen_residual_on(xb, g.psi_fn(xb), sh.s(xb), b_n, n)
    # bridge: psi is C^3 only at the spline knots, so stencils stay inside
    # maximal knot-free sub-segments
    edges = piece_edges(r1, r2, prof.kinks)
    res_mid = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(24, int(math.ceil((b - a) / fine_step)) + 1)
        xm = np.linspace(a + 1e-9 * (b - a), b - 1e-9 * (b - a), m)
        res_mid = max(res_mid, _eigen_residual_on(xm, g.psi_fn(xm), sh.s(xm), b_n, n))
    # tail: continue the recovered solution forward from its sample at r2 on a
    # fine grid (any true solution of the channel ODE gives residual zero; this
    # honestly tests the integrator output, not a closed form)
    ci = int(np.searchsorted(g.tail.x, r2))
    if abs(g.tail.x[ci] - r2) > 1e-9:
        raise WarpspecError("junction radius is not a tail sample point")
    x_hi = min(prof.grid[-1], 600.0)
    xt = np.arange(r2 + fine_step, x_hi, fine_step)
    tail = integrate_schrodinger(
        channel_potential(g.reference, 0),
        b_n,
        span=(r2, float(xt[-1])),
        init=(g.tail.w[ci], g.tail.w_prime[ci]),
        t_eval=xt,
        rtol=1e-12,
    )
    if tail.log_offset is not None:
        raise WarpspecError("unexpected rescaling on the tail piece")
    with np.errstate(under="ignore"):
        psi_t = g.connector.amplitude * g.connector.c_tail * tail.w * np.exp(-p * g.reference.shape.log_f(tail.x))
    res_tail = _eigen_residual_on(tail.x, psi_t, sh.s(tail.x), b_n, n)
    report["residual"] = {
        "ball": res_ball,
        "bridge": res_mid,
        "tail": res_tail,
        "global": max(res_ball, res_mid, res_tail),
    }

    # (b) junction continuity (q0 read 1e-9 to either side) and ball exactness
    f_r2 = math.exp(float(sh.log_f(r2)))
    q0_fn = channel_potential(prof, 0).q_fn
    report["continuity"] = {
        "s_jump_r1": g.diagnostics["s_jump_r1"],
        "s_jump_r2": g.diagnostics["s_jump_r2"],
        "f_prime_jump_r1": g.diagnostics["s_jump_r1"] * r1,
        "f_prime_jump_r2": g.diagnostics["s_jump_r2"] * f_r2,
        "q0_jump_r1": abs(float(q0_fn(r1 - 1e-9)) - float(q0_fn(r1 + 1e-9))),
        "q0_jump_r2": abs(float(q0_fn(r2 - 1e-9)) - float(q0_fn(r2 + 1e-9))),
    }
    mask_ball = prof.grid < r1
    report["ball_max_dev"] = float(np.max(np.abs(prof.f[mask_ball] - prof.grid[mask_ball])))

    # (c) tail curvature decay
    rr = np.arange(r2, prof.r_max, math.pi / 40.0)
    k_plus_1 = 1.0 - (sh.s_prime(rr) + sh.s(rr) ** 2)
    y = rr * k_plus_1
    report["sup_r_k_plus_1"] = float(np.max(np.abs(y)))
    wmask = (rr >= 100.0) & (rr <= 500.0)
    design = np.column_stack([np.sin(2.0 * rr[wmask]), np.cos(2.0 * rr[wmask])])
    coef, *_ = np.linalg.lstsq(design, y[wmask], rcond=None)
    report["curvature_amplitude"] = float(np.hypot(*coef))
    report["curvature_amplitude_predicted"] = 2.0 * math.sqrt(2.0) * abs(g.k)
    report["sup_r_s_minus_1"] = float(np.max(np.abs(rr * (sh.s(rr) - 1.0))))

    # (d) L2 norm of psi and tail integrand exponent
    norms = []
    for a, b in ((1e-9, r1), (r1, r2)):
        gl = GaussLegendrePanels(np.linspace(a, b, 65), order=32)
        pts = gl.x.ravel()
        norms.append(float(np.sum(gl.integrals(g.psi_fn(pts) ** 2 * np.exp((n - 1) * sh.log_f(pts))))))
    norm_ball, norm_mid = norms
    t_mask = g.tail.x >= r2
    wt = g.tail.w[t_mask]
    amp2 = (g.connector.amplitude * g.connector.c_tail) ** 2 * g.c2 ** (n - 1)
    norm_tail = amp2 * float(trapezoid(wt**2, g.tail.x[t_mask]))
    report["l2_norm"] = math.sqrt(norm_ball + norm_mid + norm_tail)
    rho = g.tail.amplitude[t_mask]
    fit = fit_power_decay(g.tail.x[t_mask], rho**2, window=(100.0, 1000.0))
    report["tail_integrand_exponent"] = fit.exponent
    report["tail_integrand_stderr"] = fit.stderr

    scan_reports: list = []
    if run_scan:
        chans = [channel_potential(prof, j) for j in range(j_max + 1)]
        lo, hi = lambda_window if lambda_window is not None else (b_n - 0.5, b_n + 0.5)
        lams = energy_grid(lo, hi, lambda_step)
        scan_reports = scan_channels(chans, lams, origin_bc="regular", r_max=prof.r_max, rtol=rtol)
        fired = [(rep.j, d.lam, d.refined_lam) for rep in scan_reports for d in rep.detections if d.verdict]
        report["scan"] = {
            "fired": [{"j": j, "lam": lam, "refined_lam": rl} for j, lam, rl in fired],
            "max_wronskian_drift": max(rep.wronskian_drift for rep in scan_reports),
            "n_lambda": int(len(lams)),
            "j_max": j_max,
        }
    return report, scan_reports
