"""Schrodinger problems -w'' + q w = lam w on the half line.

Provides shooting integration with Wronskian verification, phase-amplitude
(Prufer) decomposition above the essential-spectrum edge, power-law decay
fitting, recovery of the decaying solution of an oscillatory-tail potential
by backward integration, and an embedded-eigenvalue detector based on the
envelope exponent of solutions.

The core integrator, propagate, takes sixth-order Magnus steps on a fixed
mesh chosen from q, rtol and the energy range, samples q once per mesh and
steps every energy together.  Solutions crossing large angular-momentum barriers overflow
float64 (growth factors beyond e^700), so it renormalizes the state whenever
it reaches 1e150 and keeps an exact per-sample logarithmic offset ledger;
fits are done on log-amplitudes and never re-exponentiate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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

_CAP_LOG = math.log(1e150)
# steps per chunk of Magnus matrices and of step-selection trials, and a cap
# on the trial steps of one selection round
_CHUNK = 128
_TRIAL_CHUNK = 2048
_MAX_TRIAL_STEPS = 1 << 18
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


def _refuse_singular_start(q_fn: Callable, x0: float) -> None:
    """SingularOriginError when x0 sits inside an x^-2 singular region of q."""
    if x0 < 0.02 and abs(float(q_fn(x0))) * x0 * x0 > 0.05:
        raise SingularOriginError(f"q(x) ~ s(s-1)/x^2 is singular at start {x0}; seed with frobenius_init")


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


def _magnus_exponent(v1, v2, v3, h):
    """Sixth-order Magnus exponent [[p, u], [l, -p]] of one step of y' = [[0, 1], [v, 0]] y.

    v1, v2, v3 are v at the Gauss nodes _NODES of a step of length h and A_i
    the matrix there.  With alpha1 = h A2, alpha2 = sqrt(15) h (A3 - A1) / 3,
    alpha3 = 10 h (A3 - 2 A2 + A1) / 3, C1 = [alpha1, alpha2] and
    C2 = -[alpha1, 2 alpha3 + C1] / 60 (Blanes, Casas & Ros), written out:
    Omega = alpha1 + alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.
    """
    a2 = (math.sqrt(15.0) / 3.0) * h * (v3 - v1)
    a3 = (10.0 / 3.0) * h * (v3 - 2.0 * v2 + v1)
    hv = h * v2
    p = h * a2 * (h * hv / 180.0 + h * a3 / 7200.0 - 1.0 / 12.0)
    u = h * (1.0 + h * h * a2 * a2 / 3600.0 - h * a3 / 180.0)
    l = hv + a3 / 12.0 + h * (hv * a3 / 180.0 + a3 * a3 / 3600.0 - a2 * a2 / 120.0 + h * hv * a2 * a2 / 3600.0)
    return p, u, l


def _step_matrices(p, u, l):
    """Entries (a, b, c, d) of exp Omega = C I + (S / s) Omega, Omega = [[p, u], [l, -p]].

    Omega^2 = s^2 I with s^2 = p^2 + u l: C, S are cosh, sinh of s when
    s^2 > 0 and cos, sin of |s| otherwise.
    """
    z = p * p + u * l
    s = np.sqrt(np.abs(z))
    grow = z > 0
    c = np.where(grow, np.cosh(s), np.cos(s))
    sc = np.divide(np.where(grow, np.sinh(s), np.sin(s)), s, out=np.ones_like(s), where=s > 0)
    return c + sc * p, sc * u, sc * l, c - sc * p


_ROOT15 = math.sqrt(15.0) / 10.0
_NODES = np.array([0.5 - _ROOT15, 0.5, 0.5 + _ROOT15])
# the nodes of a full step followed by those of its two halves
_TRIAL_NODES = np.concatenate([_NODES, 0.5 * _NODES, 0.5 + 0.5 * _NODES])


def _halving_error(qv: np.ndarray, h: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Relative gap between each step and its two half steps, the worse of the extreme lams.

    qv holds q at the _TRIAL_NODES of each step, one row per step; inf marks
    a step not resolved (|s| > 1).
    """
    v = qv.T[:, :, None] - np.array([lams.min(), lams.max()])
    exps = [_magnus_exponent(*v[3 * i : 3 * i + 3], f * h[:, None]) for i, f in enumerate((1.0, 0.5, 0.5))]
    resolved = np.all([np.abs(p * p + u * l) <= 1.0 for p, u, l in exps], axis=(0, 2))
    full, first, second = (np.reshape(_step_matrices(*np.where(resolved[:, None], e, 0.0)), (2, 2, -1, 2)) for e in exps)
    two = np.einsum("ijkm,jlkm->ilkm", second, first)
    rel = np.max(np.abs(full - two), axis=(0, 1)) / np.max(np.abs(two), axis=(0, 1))
    return np.where(resolved, np.max(rel, axis=1), np.inf)


def _cell_steps(q_fn: Callable, edges: np.ndarray, lams: np.ndarray, rtol: float) -> np.ndarray:
    """Number of uniform steps for each cell between consecutive edges.

    A cell's count doubles until each step is resolved and agrees with its
    two half steps to rtol at the lowest and the highest lam (_halving_error),
    then shrinks to what the h^7 law of the local error asks for, never below
    half.  One q_fn call per doubling.
    """
    lo, length = edges[:-1], np.diff(edges)
    n = np.ones(len(lo), dtype=np.int64)
    out = np.zeros(len(lo), dtype=np.int64)
    while np.any(out == 0):
        active = np.flatnonzero(out == 0)
        cnt = n[active]
        if cnt.sum() > _MAX_TRIAL_STEPS:
            raise WarpspecError(f"no resolving step found on [{edges[0]}, {edges[-1]}]")
        starts = np.cumsum(cnt) - cnt
        cell = np.repeat(active, cnt)
        h = (length / n)[cell]
        x = lo[cell] + (np.arange(cell.size) - np.repeat(starts, cnt)) * h
        qv = np.asarray(q_fn((x[:, None] + h[:, None] * _TRIAL_NODES).ravel()), dtype=float).reshape(-1, 9)
        if not np.all(np.isfinite(qv)):
            raise WarpspecError(f"q is not finite on [{edges[0]}, {edges[-1]}]")
        # slices of _TRIAL_CHUNK steps bound the memory held at once
        cut = np.arange(_TRIAL_CHUNK, h.size, _TRIAL_CHUNK)
        err = np.concatenate([_halving_error(q_i, h_i, lams) for q_i, h_i in zip(np.split(qv, cut), np.split(h, cut))])
        cell_err = np.maximum.reduceat(err, starts)
        ok = cell_err <= rtol
        need = np.ceil(cnt[ok] * (cell_err[ok] / rtol) ** (1.0 / 7.0)).astype(np.int64)
        out[active[ok]] = np.maximum(need, (cnt[ok] + 1) // 2)
        n[active[~ok]] *= 2
    return out


def _mesh(q_fn: Callable, lo: float, hi: float, kinks, samples: np.ndarray, lams: np.ndarray, rtol: float) -> np.ndarray:
    """Ascending nodes from lo to hi: every kink and sample, one uniform step per cell.

    The cells are the smooth pieces between kinks, cut further at lo * 2^i
    so that the mesh grades geometrically toward a start near the origin.
    Each gap between consecutive kinks, cuts and samples is divided evenly
    with steps no longer than its cell's step.
    """
    cuts = lo * 2.0 ** np.arange(1, int(math.log2(hi / lo)) + 1) if lo > 0 else []
    edges = np.asarray(piece_edges(lo, hi, [*kinks, *cuts]))
    steps = np.diff(edges) / _cell_steps(q_fn, edges, lams, rtol)
    points = np.union1d(edges, samples)
    gaps = np.diff(points)
    cell = np.searchsorted(edges, points[:-1], side="right") - 1
    cnt = np.maximum(np.ceil(gaps / steps[cell] * (1.0 - 1e-12)), 1).astype(np.int64)
    gap = np.repeat(np.arange(gaps.size), cnt)
    frac = (np.arange(gap.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)) / cnt[gap]
    return np.append(points[:-1][gap] + frac * gaps[gap], hi)


def propagate(
    q,
    lams: np.ndarray,
    y0: np.ndarray,
    x0: float,
    x1: float,
    t_eval: np.ndarray,
    *,
    rtol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate w_i'' = (q - lam_i) w_i for all lam_i at once with rescaling.

    This is the one linear propagator of the package: the shooting, scan,
    decay, growth and identity code all integrate through it.  q is a
    ChannelPotential or a callable.  Each step is the sixth-order Magnus
    step on three Gauss nodes, whose traceless exponent has a closed-form
    exponential: a constant q is integrated exactly, every step matrix has
    determinant 1, and a step backward is the inverse of the step forward.
    The mesh (_mesh) is built on the ascending interval, so both directions
    use the same nodes; it holds every kink of a ChannelPotential (glue
    radii and spline knots, where q is only C^1) and every sample point.
    q is sampled in one q_fn call per mesh; all columns step together.

    Whenever max|y| reaches 1e150 the whole state is divided by that maximum
    (a single common factor keeps the linear system exact) and the log of the
    factor is added to the offset ledger.  Samples are taken at the t_eval
    points strictly after x0 up to and including x1.  Returns (x ascending,
    (w, w') of shape (2, M, K) rescaled, offsets of shape (K,)).
    """
    q_fn, kinks = _q_parts(q)
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    forward = x1 > x0
    sign = 1.0 if forward else -1.0
    t_eval = np.asarray(t_eval, dtype=float)
    x_out = np.unique(t_eval[(sign * t_eval > sign * x0) & (sign * t_eval <= sign * x1)])
    if not x_out.size:
        raise WarpspecError("no requested sample points were reached")
    lo, hi = (float(x0), float(x1)) if forward else (float(x1), float(x0))
    nodes = _mesh(q_fn, lo, hi, kinks, x_out, lams, rtol)
    h = np.diff(nodes)
    qv = np.asarray(q_fn((nodes[:-1, None] + h[:, None] * _NODES).ravel()), dtype=float).reshape(-1, 3)
    # the steps in the order taken, and whether the node each one ends on is sampled
    order = np.arange(h.size) if forward else np.arange(h.size)[::-1]
    sampled = np.isin(nodes, x_out)[order + 1 if forward else order].tolist()

    w, wp = np.array(y0, dtype=float).reshape(2, len(lams))
    out = np.empty((2, len(lams), x_out.size))
    offs = np.empty(x_out.size)
    k, offset = 0, 0.0
    # the state is measured after the first step, then only once the product
    # of the step norms since the last measurement could carry it to 1e150
    grown, check_at = 0.0, -math.inf
    for start in range(0, h.size, _CHUNK):
        idx = order[start : start + _CHUNK]
        v = [qv[idx, i, None] - lams for i in range(3)]
        a, b, c, d = _step_matrices(*(sign * e for e in _magnus_exponent(*v, h[idx, None])))
        norm = np.max(np.maximum(np.abs(a) + np.abs(b), np.abs(c) + np.abs(d)), axis=1)
        growth = (grown + np.cumsum(np.log(norm))).tolist()
        grown = growth[-1]
        for a_i, b_i, c_i, d_i, g_i, s_i in zip(a, b, c, d, growth, sampled[start : start + _CHUNK]):
            w, wp = a_i * w + b_i * wp, c_i * w + d_i * wp
            if g_i > check_at:
                mx = max(float(np.max(np.abs(w))), float(np.max(np.abs(wp))))
                if mx >= 1e150:
                    w, wp, offset, mx = w / mx, wp / mx, offset + math.log(mx), 1.0
                check_at = g_i + _CAP_LOG - math.log(mx) if mx > 0 else math.inf
            if s_i:
                out[0, :, k], out[1, :, k] = w, wp
                offs[k] = offset
                k += 1
    if not forward:
        out, offs = out[:, :, ::-1], offs[::-1]
    return x_out, out, offs


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
) -> ShootingResult:
    """Shooting integration of w'' = (q(x) - lam) w over span = (start, end).

    Runs through propagate, whose mesh holds every kink of a ChannelPotential
    (the glue radii and bridge spline knots of a glued profile) and every
    t_eval point (default: spacing about pi/40).  Amplitude and phase data
    are attached when q_limit is given and lam lies above it.  Solutions
    that reach 1e150 are rescaled, the removed factors kept in log_offset.

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
    _refuse_singular_start(q_fn, x0)
    forward = x1 > x0
    if t_eval is None:
        npts = max(int(abs(x1 - x0) / (math.pi / 40.0)), 16)
        t_eval = np.linspace(x0, x1, npts + 1)
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < min(x0, x1)) or np.any(t_eval > max(x0, x1)):
        raise ConfigError(f"t_eval must lie within the span {span}")
    if np.unique(t_eval).size != t_eval.size:
        raise ConfigError("t_eval must not repeat a point")

    w0, wp0 = float(init[0]), float(init[1])
    if companion:
        cols, wr0 = _companion_columns(w0, wp0)
    else:
        cols = np.array([[w0], [wp0]])
    x, y, off = propagate(q, np.full(cols.shape[1], float(lam)), cols, x0, x1, t_eval, rtol=rtol)
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
) -> float:
    """Integrate forward then back; relative error of the recovered start state.

    Both runs share one mesh and a backward step inverts the forward one, so
    the round trip checks the steps and the offset ledger to rounding, not
    the discretisation error.  Rounding is amplified by the conditioning of
    the span's transfer matrix: across the bridge of the glued k = 1 profile
    (channel 0, lam = 2) its singular values are about 384 and 2.6e-3.
    """
    x0, x1 = float(span[0]), float(span[1])
    ends = np.array([x0, x1])
    fwd = integrate_schrodinger(q, lam, span=(x0, x1), init=init, t_eval=ends, rtol=rtol)
    i_start, i_end = (0, -1) if x1 > x0 else (-1, 0)
    back = integrate_schrodinger(
        q, lam, span=(x1, x0), init=(fwd.w[i_end], fwd.w_prime[i_end]), t_eval=ends, rtol=rtol
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
    _refuse_singular_start(q.q_fn, x0)
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
