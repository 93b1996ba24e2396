"""Schrodinger problems -w'' + q w = lam w on the half line.

Provides shooting integration with Wronskian verification, phase-amplitude
(Prufer) decomposition above the essential-spectrum edge, power-law decay
fitting, recovery of the decaying solution of an oscillatory-tail potential
by backward integration, and an embedded-eigenvalue detector based on the
envelope exponent of solutions.

Solutions crossing large angular-momentum barriers overflow float64 (growth
factors beyond e^700), so the core integrator renormalizes the state whenever
it reaches 1e150 and keeps an exact per-sample logarithmic offset ledger;
fits are done on log-amplitudes and never re-exponentiate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .channel_reduction import (
    ChannelPotential,
    decade_window,
    fit_tail_oscillation,
    require_oscillatory,
    sphere_multiplicity,
)
from .errors import (
    ConfigError,
    DetectorRefusalError,
    NoDecayingSolutionError,
    SingularOriginError,
    TwoRunMismatchError,
    WarpspecError,
)
from .warp_geometry import piece_edges

__all__ = [
    "ShootingResult",
    "DecayFit",
    "EigenDetection",
    "ChannelScanReport",
    "integrate_schrodinger",
    "prufer_series",
    "propagate",
    "fit_power_decay",
    "frobenius_init",
    "decaying_solution",
    "detect_embedded_eigenvalue",
    "scan_channels",
    "reversibility_check",
    "synthetic_channel",
    "fired_detections",
]

_MAX_STEP = math.pi / 10.0
_CAP_LOG = math.log(1e150)
# batched zoom refinement: points per probe call (odd, so the bracket's centre
# is probed), relative stopping tolerance, and a cap on the rounds, which
# only a bracket containing 0 reaches
_ZOOM_POINTS = 17
_ZOOM_XTOL = 1e-7
_ZOOM_MAX_ROUNDS = 20


@dataclass(frozen=True, eq=False)
class ShootingResult:
    """Solution samples on an ascending grid.

    When the integration was renormalized, w and w_prime hold rescaled values
    and log_offset the per-sample logarithm of the removed factor, so the true
    solution is w * exp(log_offset).  amplitude/phase are the Prufer data
    rho = hypot(w, w'/kappa), theta = atan2(kappa w, w') for lam above the
    potential limit (None otherwise); amplitude is in rescaled units too.
    """

    x: np.ndarray
    w: np.ndarray
    w_prime: np.ndarray
    lam: float
    direction: str
    kappa: float | None = None
    amplitude: np.ndarray | None = None
    phase: np.ndarray | None = None
    log_offset: np.ndarray | None = None
    wronskian_drift: float | None = None
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def log_amplitude(self) -> np.ndarray:
        """log of the true envelope, offsets folded back in."""
        if self.amplitude is None:
            raise ConfigError("no phase-amplitude data on this result")
        la = np.log(self.amplitude)
        if self.log_offset is not None:
            la = la + self.log_offset
        return la


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power law |values| ~ C x^exponent over a log-log window."""

    exponent: float
    stderr: float
    intercept: float
    window: tuple[float, float]
    n_samples: int


@dataclass(frozen=True, eq=False)
class EigenDetection:
    """Verdict for one spectral grid point of one channel."""

    j: int
    lam: float
    verdict: bool
    envelope_exponent: float
    envelope_stderr: float
    integrand_exponent: float
    refined_lam: float | None = None
    refined_exponent: float | None = None
    evidence: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class ChannelScanReport:
    j: int
    lam_sphere: float
    multiplicity: int
    detections: list[EigenDetection]
    wronskian_drift: float
    k_eff: float | None


def _loglog_fit(logx: np.ndarray, logy: np.ndarray) -> tuple[float, float, float]:
    """Slope, stderr of slope, intercept for logy ~ slope*logx + intercept."""
    design = np.column_stack([logx, np.ones_like(logx)])
    coef, *_ = np.linalg.lstsq(design, logy, rcond=None)
    res = logy - design @ coef
    dof = max(len(logx) - 2, 1)
    sigma2 = float(res @ res) / dof
    cov00 = sigma2 * np.linalg.inv(design.T @ design)[0, 0]
    return float(coef[0]), float(math.sqrt(max(cov00, 0.0))), float(coef[1])


def fit_power_decay(
    x: np.ndarray,
    values: np.ndarray,
    *,
    window: tuple[float, float],
    min_samples: int = 50,
) -> DecayFit:
    """Fit |values| ~ C x^e on a window spanning at least one decade."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = decade_window(x, window[0], window[1], min_samples=min_samples)
    xs = x[mask]
    ys = np.abs(values[mask])
    if np.any(ys <= 0):
        raise ConfigError("fit_power_decay needs nonzero values; fit log data directly instead")
    slope, stderr, intercept = _loglog_fit(np.log(xs), np.log(ys))
    return DecayFit(slope, stderr, intercept, (float(xs[0]), float(xs[-1])), int(len(xs)))


def frobenius_init(*, s: float, q_reg: float, lam: float, x0: float) -> tuple[float, float]:
    """Series start w = x^s (1 + beta x^2) for q ~ s(s-1)/x^2 + q_reg near 0.

    beta = (q_reg - lam) / (4 s + 2) is the first regular-series coefficient;
    returns (w(x0), w'(x0)).
    """
    beta = (q_reg - lam) / (4.0 * s + 2.0)
    w = x0**s * (1.0 + beta * x0 * x0)
    wp = s * x0 ** (s - 1.0) + (s + 2.0) * beta * x0 ** (s + 1.0)
    return float(w), float(wp)


def _q_parts(q) -> tuple[Callable[[float], float], tuple[float, ...]]:
    """q_fn and the kinks of a potential; a bare callable has no kinks."""
    if isinstance(q, ChannelPotential):
        return q.q_fn, q.kinks
    if callable(q):
        return q, ()
    raise ConfigError("q must be a ChannelPotential or a callable")


def _companion_columns(w0: float, wp0: float) -> tuple[np.ndarray, float]:
    """Initial columns of (w0, wp0) and an independent partner, with their Wronskian."""
    nu = math.hypot(w0, wp0)
    if nu == 0:
        raise ConfigError("companion run needs a nonzero initial condition")
    return np.array([[w0, -wp0 / nu], [wp0, w0 / nu]]), nu


def _wronskian_drift(y: np.ndarray, off: np.ndarray, wr0: float) -> float:
    """Max relative Wronskian drift of the column pair in y of shape (2, 2, K).

    Measured against the local bilinear scale |w z'| + |z w'| at every sample,
    which stays meaningful through angular-momentum barriers where the
    conserved value is exponentially small compared to the solutions.
    """
    w, wp = y[0, 0], y[1, 0]
    z, zp = y[0, 1], y[1, 1]
    wr = w * zp - z * wp
    expected = wr0 * np.exp(-2.0 * off)
    scale = np.abs(w * zp) + np.abs(z * wp) + np.abs(expected)
    return float(np.max(np.abs(wr - expected) / scale))


def _frame_maps(kap: np.ndarray):
    """Maps between (w, w') and the amplitudes (a, b) of w = a cos(kap x) + b sin(kap x).

    Both act on x of shape (K,) and states of shape (2, M, K), one kap per column.
    """
    k = kap[:, None]

    def to_frame(x, y):
        c, s = np.cos(k * x), np.sin(k * x)
        v = y[1] / k
        return np.stack([y[0] * c - v * s, y[0] * s + v * c])

    def from_frame(x, y):
        c, s = np.cos(k * x), np.sin(k * x)
        return np.stack([y[0] * c + y[1] * s, k * (y[1] * c - y[0] * s)])

    return to_frame, from_frame


def propagate(
    q,
    lams: np.ndarray,
    y0: np.ndarray,
    x0: float,
    x1: float,
    t_eval: np.ndarray,
    *,
    limit: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-300,
    max_step: float = _MAX_STEP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate w_i'' = (q - lam_i) w_i for all lam_i at once with rescaling.

    This is the one linear propagator of the package: the shooting, scan,
    decay, growth and identity code all integrate through it.  q is a
    ChannelPotential or a callable.  The integration runs in legs that
    stop at every kink of a ChannelPotential (glue radii and spline knots,
    where q is only C^1), so no step of the high-order integrator straddles a
    jump in the higher derivatives.

    With limit given (every lam_i above it) the state is not (w, w') but the
    slowly varying amplitudes (a, b) of the free oscillation,

        w = a cos(kx) + b sin(kx),   w' = k (-a sin(kx) + b cos(kx)),
        a' = -V w sin(kx) / k,       b' = V w cos(kx) / k,

    with k = sqrt(lam_i - limit) and V = q - limit (variation of constants).
    On a tail where V = O(1/x) the integrated functions are O(1/x) small, so
    the global error at a fixed tolerance shrinks accordingly.

    Whenever max|y| reaches 1e150 the whole state is divided by that maximum
    (a single common factor keeps the linear system exact) and the log of the
    factor is added to the offset ledger.  Samples are taken at the t_eval
    points strictly after x0 up to and including x1.  Returns (x ascending,
    (w, w') of shape (2, M, K) rescaled, offsets of shape (K,)).
    """
    q_fn, kinks = _q_parts(q)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    m = len(lams)
    forward = x1 > x0
    y_start = np.asarray(y0, dtype=float).reshape(2, m, 1)

    if limit is None:

        def rhs(x, y):
            y = y.reshape(2, m)
            return np.concatenate([y[1], (q_fn(x) - lams) * y[0]])

        from_frame = None
    else:
        kap = np.sqrt(lams - limit)
        to_frame, from_frame = _frame_maps(kap)
        y_start = to_frame(np.array([x0]), y_start)

        def rhs(x, y):
            a, b = y.reshape(2, m)
            c, s = np.cos(kap * x), np.sin(kap * x)
            g = (q_fn(x) - limit) * (a * c + b * s) / kap
            return np.concatenate([-g * s, g * c])

    def too_big(x, y):
        mx = np.max(np.abs(y))
        return _CAP_LOG - (math.log(mx) if mx > 0 else -1.0)

    too_big.terminal = True

    # samples and leg stops in the direction of integration (sign * x ascending)
    sign = 1.0 if forward else -1.0
    t_eval = sign * np.sort(sign * np.asarray(t_eval, dtype=float))
    t_eval = t_eval[(sign * t_eval > sign * x0) & (sign * t_eval <= sign * x1)]
    edges = piece_edges(min(x0, x1), max(x0, x1), kinks)
    stops = edges[1:] if forward else edges[-2::-1]
    # each leg samples the points up to and including its stop
    ends = np.searchsorted(sign * t_eval, sign * np.asarray(stops), side="right")

    y_cur = y_start.reshape(-1)
    t_cur = float(x0)
    offset = 0.0
    mx0 = np.max(np.abs(y_cur))
    if mx0 > 1e100:
        y_cur = y_cur / mx0
        offset += math.log(mx0)

    ts: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    offs: list[np.ndarray] = []
    i = 0
    for stop, j in zip(stops, ends):
        while True:
            req = t_eval[i:j]
            # the stop itself is always sampled: it carries the state into the next leg
            pts = req if len(req) and req[-1] == stop else np.append(req, stop)
            # scipy's initial-step guess scales each component by atol + rtol |y|;
            # with atol = 1e-300 an exactly zero component overflows that guess
            # (a RuntimeWarning and a zero step), so such a state starts small
            first = None if np.all(y_cur) else min(1e-6, abs(stop - t_cur))
            sol = solve_ivp(
                rhs,
                (t_cur, stop),
                y_cur,
                method="DOP853",
                rtol=rtol,
                atol=atol,
                max_step=max_step,
                t_eval=pts,
                events=too_big,
                first_step=first,
            )
            t_arr = np.asarray(sol.t, dtype=float)
            if sol.status == -1:
                raise WarpspecError(f"integration failed at x ~ {t_arr[-1] if t_arr.size else t_cur}: {sol.message}")
            y_arr = np.asarray(sol.y, dtype=float)
            n_req = min(t_arr.size, len(req))
            if n_req:
                ts.append(t_arr[:n_req])
                ys.append(y_arr[:, :n_req])
                offs.append(np.full(n_req, offset))
                i += n_req
            if sol.status == 1:
                t_cur = float(sol.t_events[0][0])
                y_ev = np.asarray(sol.y_events[0][0], dtype=float)
                scale = np.max(np.abs(y_ev))
                y_cur = y_ev / scale
                offset += math.log(scale)
                if (t_cur < stop) if forward else (t_cur > stop):
                    continue
            else:
                y_cur = y_arr[:, -1]
            t_cur = float(stop)
            break

    if not ts:
        raise WarpspecError("no requested sample points were reached")
    x_all = np.concatenate(ts)
    y_all = np.concatenate(ys, axis=1).reshape(2, m, -1)
    off_all = np.concatenate(offs)
    if from_frame is not None:
        y_all = from_frame(x_all, y_all)
    if not forward:
        x_all = x_all[::-1]
        y_all = y_all[:, :, ::-1]
        off_all = off_all[::-1]
    return x_all, y_all, off_all


def integrate_schrodinger(
    q,
    lam: float,
    *,
    span: tuple[float, float],
    init: tuple[float, float],
    t_eval: np.ndarray | None = None,
    q_limit: float | None = None,
    companion: bool = False,
    rtol: float = 1e-10,
    atol: float = 1e-13,
    max_step: float = _MAX_STEP,
) -> ShootingResult:
    """Shooting integration of w'' = (q(x) - lam) w over span = (start, end).

    The integration legs stop at every kink of a ChannelPotential (the glue
    radii and bridge spline knots of a glued profile).  When lam lies above
    the channel limit (q_limit, else the limit of a ChannelPotential) the
    slowly varying amplitudes of w = a cos(kx) + b sin(kx) are integrated
    instead of (w, w'); see propagate.  Amplitude and phase data are
    attached when q_limit is given and lam lies above it.  Solutions that
    reach 1e150 are rescaled, the removed factors kept in log_offset.

    With companion=True a second, independent solution is propagated alongside
    and the relative Wronskian drift (measured against the local bilinear
    scale |w z'| + |z w'|) is recorded.  Raises SingularOriginError when the
    start point sits inside an x^-2 singular region; use frobenius_init and a
    start point outside instead.
    """
    q_fn, _ = _q_parts(q)
    x0, x1 = float(span[0]), float(span[1])
    if min(x0, x1) <= 0:
        raise ConfigError("span must stay within x > 0")
    if x0 < 0.02 and abs(q_fn(x0)) * x0 * x0 > 0.05:
        raise SingularOriginError(
            f"q(x) ~ s(s-1)/x^2 is singular at start {x0}; seed with frobenius_init"
        )
    forward = x1 > x0
    if t_eval is None:
        npts = max(int(abs(x1 - x0) / (math.pi / 40.0)), 16)
        t_eval = np.linspace(x0, x1, npts + 1)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < min(x0, x1)) or np.any(t_eval > max(x0, x1)):
        raise ConfigError(f"t_eval must lie within the span {span}")
    if np.unique(t_eval).size != t_eval.size:
        raise ConfigError("t_eval must not repeat a point")

    limit = q_limit if q_limit is not None else (q.limit if isinstance(q, ChannelPotential) else None)
    w0, wp0 = float(init[0]), float(init[1])
    if companion:
        cols, wr0 = _companion_columns(w0, wp0)
    else:
        cols = np.array([[w0], [wp0]])
    x, y, off = propagate(
        q,
        np.full(cols.shape[1], float(lam)),
        cols,
        x0,
        x1,
        t_eval,
        limit=limit if limit is not None and lam > limit else None,
        rtol=rtol,
        atol=atol,
        max_step=max_step,
    )
    if np.any(t_eval == x0):
        # the start sample is the initial state itself
        at = 0 if forward else len(x)
        x = np.insert(x, at, x0)
        y = np.insert(y, at, cols, axis=2)
        off = np.insert(off, at, 0.0)
    drift = _wronskian_drift(y, off, wr0) if companion else None
    res = ShootingResult(
        x=x,
        w=y[0, 0],
        w_prime=y[1, 0],
        lam=float(lam),
        direction="forward" if forward else "backward",
        log_offset=off if np.any(off != 0.0) else None,
        wronskian_drift=drift,
    )
    if q_limit is not None and lam > q_limit:
        res = prufer_series(res, q_limit=q_limit)
    return res


def prufer_series(result: ShootingResult, *, q_limit: float) -> ShootingResult:
    """Attach phase-amplitude data for lam above the essential-spectrum edge."""
    kappa = require_oscillatory(result.lam, q_limit)
    amplitude = np.hypot(result.w, result.w_prime / kappa)
    phase = np.arctan2(kappa * result.w, result.w_prime)
    return ShootingResult(
        x=result.x,
        w=result.w,
        w_prime=result.w_prime,
        lam=result.lam,
        direction=result.direction,
        kappa=kappa,
        amplitude=amplitude,
        phase=phase,
        log_offset=result.log_offset,
        wronskian_drift=result.wronskian_drift,
        meta=dict(result.meta),
    )


def reversibility_check(
    q,
    lam: float,
    *,
    span: tuple[float, float],
    init: tuple[float, float],
    rtol: float = 1e-10,
    atol: float = 1e-13,
) -> float:
    """Integrate forward then back; relative error of the recovered start state.

    The round-trip error is not the forward global error: the error left at
    the far end is carried back through the transfer matrix of the span, so
    it is amplified by that matrix's conditioning.  Across the bridge of the
    glued k = 1 profile (channel 0, lam = 2) the singular values are about
    384 and 2.6e-3, a factor of about 4.5e3.
    """
    x0, x1 = float(span[0]), float(span[1])
    ends = np.array([x0, x1])
    fwd = integrate_schrodinger(q, lam, span=(x0, x1), init=init, t_eval=ends, rtol=rtol, atol=atol)
    i_start, i_end = (0, -1) if x1 > x0 else (-1, 0)
    back = integrate_schrodinger(
        q, lam, span=(x1, x0), init=(fwd.w[i_end], fwd.w_prime[i_end]), t_eval=ends, rtol=rtol, atol=atol
    )
    # both runs may have rescaled; the true recovered state carries both factors
    log_scale = 0.0
    for res, i in ((fwd, i_end), (back, i_start)):
        if res.log_offset is not None:
            log_scale += float(res.log_offset[i])
    rec = np.array([back.w[i_start], back.w_prime[i_start]]) * math.exp(log_scale)
    scale = max(abs(init[0]), abs(init[1]), 1e-300)
    return float(max(abs(rec[0] - init[0]), abs(rec[1] - init[1])) / scale)


def synthetic_channel(
    *,
    k_eff: float,
    limit: float = 0.0,
    phase: float = 0.0,
    remainder_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    x_min: float = 1.0,
    x_max: float = 2000.0,
    n: int = 3,
    j: int = 0,
) -> ChannelPotential:
    """Channel potential q = limit + k_eff sin(2x + phase)/x + remainder.

    For detector and decay studies independent of any warp profile.  The tail
    fit metadata is computed from the samples exactly as channel_potential
    does, so the detector preconditions are exercised honestly.
    """

    def q_fn(x):
        x = np.asarray(x, dtype=float)
        out = limit + k_eff * np.sin(2.0 * x + phase) / x
        if remainder_fn is not None:
            out = out + remainder_fn(x)
        return out

    grid = x_min + (math.pi / 40.0) * np.arange(int((min(x_max, 600.0) - x_min) / (math.pi / 40.0)) + 1)
    q = q_fn(grid)
    # any amplitude is accepted: the caller chose the tail
    fit = fit_tail_oscillation(grid, q, limit)
    if fit is None:
        raise ConfigError("synthetic channel needs samples beyond x = 50 for its tail fit")
    return ChannelPotential(
        n=n,
        j=j,
        lam_sphere=0.0,
        limit=float(limit),
        grid=grid,
        q=q,
        q_fn=q_fn,
        x_min=float(x_min),
        x_max=float(x_max),
        origin_exponent=None,
        k_eff=fit.k_eff,
        phase=fit.phase,
        remainder_slope=fit.remainder_slope,
        fit_window=fit.window,
    )


def _decaying_seed(k_eff: float, phase: float, kappa: float, r: float) -> tuple[float, float]:
    """Initial data at radius r selecting the square-integrable direction.

    The envelope equation of a resonant x^-1 sinusoid pins the decaying
    solution's phase to (phase + pi)/2 (mod pi); the derivative carries the
    first-order envelope correction -k_eff/(4 r).
    """
    phi_dec = 0.5 * (phase + math.pi) + math.pi
    th = kappa * r + phi_dec
    w = math.sin(th)
    wp = kappa * math.cos(th) - (k_eff / (4.0 * r)) * math.sin(th)
    return w, wp


def decaying_solution(
    q: ChannelPotential,
    lam: float,
    *,
    r_anchor: float = 2000.0,
    x_end: float = 1.0,
    step: float = math.pi / 40.0,
    verify: bool = True,
    fit_window: tuple[float, float] | None = None,
    rtol: float = 1e-11,
) -> ShootingResult:
    """Recover the solution decaying at infinity by backward integration.

    Above the potential limit this requires a resonant oscillatory tail with
    |k_eff| > 2 (otherwise no square-integrable solution exists and
    NoDecayingSolutionError is raised); the expected envelope is x^(-k_eff/4)
    and a power-law fit over fit_window (default [r_anchor/20, r_anchor/2])
    is stored in meta["decay_fit"].  Below the limit (spectral gap) any lam
    works and meta["gap_rate"] holds the fitted exponential rate of log rho
    against x, expected -sqrt(limit - lam).

    With verify=True the run is repeated from anchor 2 * r_anchor on the same
    grid and the two solutions are compared after least-squares rescaling;
    disagreement beyond 1e-4 raises TwoRunMismatchError and the achieved
    agreement lands in meta["two_run_agreement"].
    """
    if not isinstance(q, ChannelPotential):
        raise ConfigError("decaying_solution needs a ChannelPotential")
    grid = x_end + step * np.arange(int((r_anchor - x_end) / step + 1e-9) + 1)

    if lam < q.limit:
        kg = math.sqrt(q.limit - lam)
        seed = (1.0, -kg)
        kappa = None
    else:
        kappa = require_oscillatory(lam, q.limit)
        if q.k_eff is None:
            raise NoDecayingSolutionError("potential tail is not a fitted x^-1 sinusoid")
        if q.k_eff <= 2.0:
            raise NoDecayingSolutionError(
                f"k_eff = {q.k_eff:.6g} <= 2: envelope x^(-k_eff/4) is not square integrable"
            )
        if abs(lam - (q.limit + 1.0)) > 0.05:
            raise NoDecayingSolutionError(
                f"lam = {lam} is detuned from the resonance at {q.limit + 1.0}"
            )
        seed = _decaying_seed(q.k_eff, q.phase, kappa, r_anchor)

    def run(anchor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = grid[grid <= anchor + 1e-12]
        s = seed if anchor == r_anchor else _reseed(anchor)
        y0 = np.array([[s[0]], [s[1]]])
        x, y, off = propagate(q, np.array([lam]), y0, anchor, x_end, g, rtol=rtol)
        return x, y[:, 0, :], off

    def _reseed(anchor: float) -> tuple[float, float]:
        if lam < q.limit:
            return seed
        return _decaying_seed(q.k_eff, q.phase, kappa, anchor)

    x, y, off = run(r_anchor)
    w, wp = y[0], y[1]

    agreement = None
    if verify:
        grid2 = x_end + step * np.arange(int((2.0 * r_anchor - x_end) / step + 1e-9) + 1)
        y0b = np.array([[_reseed(2.0 * r_anchor)[0]], [_reseed(2.0 * r_anchor)[1]]])
        xb, yb, offb = propagate(q, np.array([lam]), y0b, 2.0 * r_anchor, x_end, grid2, rtol=rtol)
        m = min(len(x), len(xb))
        if not np.allclose(x[:m], xb[:m], rtol=0, atol=1e-9):
            raise WarpspecError("two-run grids failed to align")
        if lam > q.limit:
            # no rescaling happens in the oscillatory regime; compare raw values
            wb = yb[0, 0, :m]
            sc = float(np.dot(wb, w[:m]) / np.dot(wb, wb))
            agreement = float(np.max(np.abs(sc * wb - w[:m])) / np.max(np.abs(w[:m])))
        else:
            # exponential regime: solutions differ by a scale factor only, so the
            # log envelopes (offsets folded in) must agree up to a constant
            kg = math.sqrt(q.limit - lam)
            la1 = np.log(np.hypot(w[:m], wp[:m] / kg)) + off[:m]
            la2 = np.log(np.hypot(yb[0, 0, :m], yb[1, 0, :m] / kg)) + offb[:m]
            delta = la1 - la2
            agreement = float(np.max(np.abs(delta - np.mean(delta))))
        if agreement > 1e-4:
            raise TwoRunMismatchError(
                f"backward runs from {r_anchor} and {2 * r_anchor} disagree by {agreement:.3g}"
            )

    res = ShootingResult(
        x=x,
        w=w,
        w_prime=wp,
        lam=float(lam),
        direction="backward",
        log_offset=off if np.max(np.abs(off)) > 0 else None,
    )
    if agreement is not None:
        res.meta["two_run_agreement"] = agreement
    if lam > q.limit:
        res = prufer_series(res, q_limit=q.limit)
        win = fit_window if fit_window is not None else (r_anchor / 20.0, r_anchor / 2.0)
        res.meta["decay_fit"] = fit_power_decay(res.x, res.amplitude, window=win)
    else:
        kg = math.sqrt(q.limit - lam)
        la = np.log(np.hypot(w, wp / kg)) + off
        lo = max(2.0 * x_end, 2.0)
        hi = r_anchor / 2.0
        mask = (x >= lo) & (x <= hi) & np.isfinite(la)
        slope, stderr, _ = _loglog_fit(x[mask], la[mask])
        res.meta["gap_rate"] = slope
        res.meta["gap_rate_stderr"] = stderr
    return res


def _detector_preflight(q: ChannelPotential, lambda_grid: np.ndarray) -> None:
    if not isinstance(q, ChannelPotential):
        raise DetectorRefusalError("detector needs a ChannelPotential with tail metadata")
    if q.k_eff is None:
        raise DetectorRefusalError(
            "tail of the potential is not a fitted x^-1 sinusoid; refusing to classify"
        )
    if q.remainder_slope is None or q.remainder_slope > -1.05:
        raise DetectorRefusalError(
            f"tail remainder decays like x^{q.remainder_slope}; need O(x^-1-eps) "
            "for envelope classification to be sound"
        )
    if np.any(np.asarray(lambda_grid) <= q.limit):
        raise ConfigError("lambda grid must stay above the essential-spectrum edge")


def _forward_start(q: ChannelPotential, lam: float | np.ndarray) -> tuple[float, np.ndarray]:
    """Start point and state column(s) for the regular solution at the origin."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if q.origin_exponent is not None:
        s = q.origin_exponent
        x0 = 1e-3 if s <= 1.2 else 0.3
        q_reg = float(q.q_fn(x0)) - s * (s - 1.0) / (x0 * x0)
        cols = np.array([frobenius_init(s=s, q_reg=q_reg, lam=l, x0=x0) for l in lams]).T
        return x0, cols
    x0 = q.x_min
    if abs(q.q_fn(x0)) * x0 * x0 > 0.05 and x0 < 0.02:
        raise SingularOriginError("potential singular at its left endpoint; no regular start known")
    cols = np.tile(np.array([[0.0], [1.0]]), (1, len(lams)))
    return x0, cols


def _probe_exponents(
    q: ChannelPotential,
    lams: np.ndarray,
    *,
    origin_bc: str | None,
    r_max: float,
    rtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Envelope exponent, its stderr, and integrand exponent for each lam."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    t_eval = np.geomspace(r_max / 20.0, r_max, 100)
    if origin_bc == "regular":
        x0, cols = _forward_start(q, lams)
        x, y, off = propagate(q, lams, cols, x0, r_max, t_eval, rtol=rtol)
    elif origin_bc is None:
        cols = np.empty((2, len(lams)))
        for i, l in enumerate(lams):
            kap = math.sqrt(l - q.limit)
            cols[:, i] = _decaying_seed(q.k_eff, q.phase, kap, r_max)
        x, y, off = propagate(q, lams, cols, r_max, max(1.0, q.x_min), t_eval, rtol=rtol)
    else:
        raise ConfigError(f"origin_bc must be 'regular' or None, got {origin_bc!r}")

    kaps = np.sqrt(lams - q.limit)
    env = np.empty(len(lams))
    env_se = np.empty(len(lams))
    integ = np.empty(len(lams))
    lx = np.log(x)
    env_mask = x >= r_max / 10.0
    t_hi = r_max / 8.0
    for i in range(len(lams)):
        la = np.log(np.hypot(y[0, i], y[1, i] / kaps[i])) + off
        s, se, _ = _loglog_fit(lx[env_mask], la[env_mask])
        env[i], env_se[i] = s, se
        # partial integrals of the period-averaged integrand rho^2 / 2,
        # accumulated from the far end; shift-invariant in the offsets
        la2 = 2.0 * (la - np.max(la))
        rho2 = np.exp(la2)
        seg = 0.5 * np.diff(x) * (rho2[1:] + rho2[:-1]) * 0.5
        tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        tmask = (x <= t_hi) & (tail > 0)
        st, _, _ = _loglog_fit(lx[tmask], np.log(tail[tmask]))
        integ[i] = st - 1.0
    return env, env_se, integ


def _zoom_minimum(
    probe: Callable[[np.ndarray], np.ndarray], lo: float, mid: float, hi: float
) -> tuple[float, float, dict]:
    """Minimise a unimodal objective on [lo, hi] by batched zooming.

    Each round makes one probe call on an odd grid that spaces each half of
    the bracket, lo to mid and mid to hi, evenly, and keeps the argmin with
    its two neighbours as the next bracket [a, b]; an argmin on the edge keeps
    the edge interval.  The search never leaves [lo, hi].  It stops once the
    grid spacing is at most 2 * _ZOOM_XTOL * min(|a|, |b|), a golden-section
    search's relative stopping rule applied to the spacing, so for a bracket
    that excludes 0 the result lies within 2 * _ZOOM_XTOL * |x*| of the
    minimiser x*.  Returns the best point, its value and the counters
    refine_probe_calls, refine_lambdas and refine_bracket_width (b - a).
    """
    half = _ZOOM_POINTS // 2
    calls = lambdas = 0
    for _ in range(_ZOOM_MAX_ROUNDS):
        xs = np.concatenate([np.linspace(lo, mid, half + 1)[:-1], np.linspace(mid, hi, half + 1)])
        fs = probe(xs)
        calls += 1
        lambdas += len(xs)
        i = int(np.argmin(fs))
        x, fx = float(xs[i]), float(fs[i])
        spacing = float(np.max(np.diff(xs)))
        lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
        mid = x if 0 < i < len(xs) - 1 else 0.5 * (lo + hi)
        if spacing <= 2.0 * _ZOOM_XTOL * min(abs(lo), abs(hi)):
            break
    return x, fx, {"refine_probe_calls": calls, "refine_lambdas": lambdas, "refine_bracket_width": hi - lo}


def detect_embedded_eigenvalue(
    q: ChannelPotential,
    lambda_grid: np.ndarray,
    *,
    origin_bc: str | None = None,
    r_max: float = 2000.0,
    envelope_threshold: float = -0.55,
    integrand_threshold: float = -1.1,
    refine: bool = True,
    rtol: float = 1e-10,
) -> list[EigenDetection]:
    """Classify each lam on the grid as embedded eigenvalue or not.

    origin_bc = "regular" probes the solution selected by the regular boundary
    condition at the origin (an eigenvalue fires only when that solution is
    itself square integrable); origin_bc = None probes for the existence of a
    square-integrable solution by seeding the decaying direction at r_max and
    integrating backward.  A point fires when the envelope exponent and the
    tail-integrand exponent both clear their thresholds.  With refine, the
    fired point of lowest envelope exponent is refined by minimising that
    exponent over [lam - h, lam + h] (h the grid step, the bracket kept above
    the essential-spectrum edge) with batched zooming, one probe call of 17
    energies per round down to a relative spacing of 1e-7; its evidence
    records refine_probe_calls, refine_lambdas and refine_bracket_width.  When
    a refinement probe fails, refined_lam falls back to the grid point.

    The detector refuses potentials without a verified x^-1 sinusoid tail
    (k_eff absent, or the fit remainder not provably O(x^-1-eps)).
    """
    lambda_grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    _detector_preflight(q, lambda_grid)
    env, env_se, integ = _probe_exponents(q, lambda_grid, origin_bc=origin_bc, r_max=r_max, rtol=rtol)
    fired = (env < envelope_threshold) & (integ < integrand_threshold)

    detections: list[EigenDetection] = []
    refine_target = None
    if refine and np.any(fired):
        refine_target = int(np.argmin(np.where(fired, env, np.inf)))

    for i, lam in enumerate(lambda_grid):
        refined_lam = refined_exp = None
        evidence = {"k_eff": q.k_eff, "origin_bc": origin_bc, "r_max": r_max}
        if i == refine_target:
            lam = float(lam)
            h = abs(float(lambda_grid[1] - lambda_grid[0])) if len(lambda_grid) > 1 else 1e-3
            try:
                refined_lam, refined_exp, counters = _zoom_minimum(
                    lambda lams: _probe_exponents(q, lams, origin_bc=origin_bc, r_max=r_max, rtol=rtol)[0],
                    max(lam - h, 0.5 * (q.limit + lam)),
                    lam,
                    lam + h,
                )
                evidence.update(counters)
            except WarpspecError:
                refined_lam = lam
                refined_exp = float(env[i])
        detections.append(
            EigenDetection(
                j=q.j,
                lam=float(lam),
                verdict=bool(fired[i]),
                envelope_exponent=float(env[i]),
                envelope_stderr=float(env_se[i]),
                integrand_exponent=float(integ[i]),
                refined_lam=refined_lam,
                refined_exponent=refined_exp,
                evidence=evidence,
            )
        )
    return detections


def fired_detections(detections: Sequence[EigenDetection]) -> list[EigenDetection]:
    return [d for d in detections if d.verdict]


def _channel_wronskian_drift(q: ChannelPotential, lam: float, r_max: float, rtol: float) -> float:
    """Relative Wronskian drift of an independent pair across the whole range."""
    x0, col = _forward_start(q, np.array([lam]))
    y0, wr0 = _companion_columns(float(col[0, 0]), float(col[1, 0]))
    t_eval = np.geomspace(max(1.0, 2.0 * x0), r_max, 120)
    x, y, off = propagate(q, np.array([lam, lam]), y0, x0, r_max, t_eval, rtol=rtol)
    return _wronskian_drift(y, off, wr0)


def scan_channels(
    channels: Sequence[ChannelPotential],
    lambda_grid: np.ndarray,
    *,
    origin_bc: str | None = "regular",
    r_max: float = 2000.0,
    refine: bool = True,
    rtol: float = 1e-10,
) -> list[ChannelScanReport]:
    """Run the detector over several channels, in channel order.

    Each channel also records the relative Wronskian drift of an independent
    solution pair at the middle grid energy.
    """
    lambda_grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    lam_mid = float(lambda_grid[len(lambda_grid) // 2])
    return [
        ChannelScanReport(
            j=ch.j,
            lam_sphere=ch.lam_sphere,
            multiplicity=sphere_multiplicity(ch.n, ch.j),
            detections=detect_embedded_eigenvalue(
                ch, lambda_grid, origin_bc=origin_bc, r_max=r_max, refine=refine, rtol=rtol
            ),
            wronskian_drift=_channel_wronskian_drift(ch, lam_mid, r_max, rtol),
            k_eff=ch.k_eff,
        )
        for ch in channels
    ]
