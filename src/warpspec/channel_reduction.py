"""Separation of variables on warped products and the half-line normal form.

Acting on h(r) Y_j(theta) with Y_j a sphere harmonic, the Laplacian reduces to

    h'' + (n-1) S h' + (lam - lam_j / f^2) h = 0,       lam_j = j (j + n - 2),

and the substitution w = f^p h with p = (n-1)/2 removes the first-order term:

    w'' = (q_j(x) - lam) w,
    q_j = p^2 S^2 + p S' + lam_j / f^2
        = (n-1)(n-3)/4 * S^2 + (n-1)/2 * f''/f + lam_j / f^2.

For ends with S -> 1 the potential tends to (n-1)^2/4 (the essential-spectrum
edge of the conjugated operator) and x * (q - limit) may approach a sinusoid;
its fitted amplitude k_eff controls resonance phenomena at the energy
limit + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, InsufficientDataError, NonOscillatoryError
from .warp_geometry import WarpProfile, uniform_grid

__all__ = [
    "ChannelPotential",
    "TailFit",
    "sphere_multiplicity",
    "channel_potential",
    "unfitted_channel_potential",
    "fit_tail_oscillation",
    "block_max_slope",
    "inverse_liouville",
    "resonance_coupling_threshold",
    "predicted_k_eff",
    "predicted_phase_constant",
    "resonance_energy",
    "require_oscillatory",
    "decade_window",
]


def sphere_multiplicity(n: int, j: int) -> int:
    """Dimension of the space of degree-j spherical harmonics on the (n-1)-sphere."""
    if n < 2 or j < 0:
        raise ConfigError("need n >= 2 and j >= 0")
    if j < 2:
        return 1 if j == 0 else n
    return math.comb(n + j - 1, j) - math.comb(n + j - 3, j - 2)


@dataclass(frozen=True, eq=False)
class ChannelPotential:
    """Half-line Schrodinger potential of one channel.

    q_fn gives closed-form values on the profile's range [x_min, r_max];
    k_eff is the fitted amplitude (always nonnegative, sign absorbed into
    phase) of x * (q - limit) on the tail window of fit_tail_oscillation,
    which ends at r_max, absent (None) when the tail is not an x^-1 sinusoid
    or was not fitted (unfitted_channel_potential).
    origin_exponent is the indicial root s of the x -> 0 singularity
    q ~ s(s-1)/x^2 for profiles covering the origin, None otherwise.
    kinks are the profile's kinks inside (x_min, r_max), where q is only C^1;
    the ODE mesh has nodes there.
    """

    n: int
    j: int
    lam_sphere: float
    limit: float
    q_fn: Callable[[np.ndarray], np.ndarray]
    x_min: float
    origin_exponent: float | None = None
    k_eff: float | None = None
    phase: float | None = None
    remainder_slope: float | None = None
    kinks: tuple[float, ...] = ()


@dataclass(frozen=True)
class TailFit:
    """Least-squares fit x (q - limit) ~ k_eff sin(2x + phase) on a tail window.

    rms is the root mean square of the fit remainder and remainder_slope the
    log-log slope of its block maxima against radius: -inf when the remainder
    vanishes to rounding (an exact sinusoid), None when fewer than four
    blocks hold samples.
    """

    k_eff: float
    phase: float
    rms: float
    window: tuple[float, float]
    samples: int
    remainder_slope: float | None


# number of geometric blocks of block_max_slope
_BLOCKS = 8


def block_max_slope(x: np.ndarray, y: np.ndarray, *, peak_floor: float | None = None) -> tuple[float | None, list[float]]:
    """Slope of log(max|y| per block) against log(block centre), and the log peaks.

    _BLOCKS blocks split [x[0], x[-1]] geometrically.  Without peak_floor a block
    with fewer than four samples or a zero peak is skipped, and the slope is
    None when fewer than four blocks remain; with it every block counts, its
    peak raised to at least peak_floor.
    """
    edges = np.geomspace(x[0], x[-1], _BLOCKS + 1)
    lx, lm = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (x >= a) & (x <= b)
        if peak_floor is None and np.count_nonzero(m) < 4:
            continue
        peak = max(float(np.max(np.abs(y[m]))), peak_floor or 0.0)
        if peak <= 0:
            continue
        lx.append(math.log(math.sqrt(a * b)))
        lm.append(math.log(peak))
    if peak_floor is None and len(lx) < 4:
        return None, lm
    return float(np.polyfit(lx, lm, 1)[0]), lm


def fit_tail_oscillation(
    q_fn: Callable[[np.ndarray], np.ndarray], limit: float, r_min: float, r_max: float
) -> TailFit | None:
    """Fit the x^-1 sinusoid of a potential on the last quarter of its range.

    q_fn is sampled at the nodes x >= max(50, 0.75 x_last) of the lattice
    uniform_grid(r_min, r_max), x_last its last node, and nowhere else;
    None when no node lies there.  Callers decide whether the fit is good
    enough to use.
    """
    grid = uniform_grid(r_min, r_max)
    xs = grid[grid >= max(50.0, 0.75 * grid[-1])]
    if not xs.size:
        return None
    ys = xs * (q_fn(xs) - limit)
    design = np.column_stack([np.sin(2.0 * xs), np.cos(2.0 * xs)])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    amp, phase = float(math.hypot(*coef)), float(math.atan2(coef[1], coef[0]))
    rms = float(np.sqrt(np.mean((ys - design @ coef) ** 2)))
    rem = ys - amp * np.sin(2.0 * xs + phase)
    if np.max(np.abs(rem)) <= 1e-10 * max(amp, 1.0):
        slope = -math.inf
    else:
        slope, _ = block_max_slope(xs, rem)
    return TailFit(amp, phase, rms, (float(xs[0]), float(xs[-1])), int(len(xs)), slope)


def channel_potential(profile: WarpProfile, j: int) -> ChannelPotential:
    """unfitted_channel_potential(profile, j) with the tail fit: k_eff, phase and remainder_slope.

    The fit samples q_fn on the last quarter of [r_min, r_max] (fit_tail_oscillation).
    """
    q = unfitted_channel_potential(profile, j)
    # tail oscillation fit, used with enough samples and a clear amplitude
    fit = fit_tail_oscillation(q.q_fn, q.limit, profile.r_min, profile.r_max)
    if fit is not None and fit.samples >= 200 and fit.k_eff > max(1e-10, 4.0 * fit.rms):
        return replace(q, k_eff=fit.k_eff, phase=fit.phase, remainder_slope=fit.remainder_slope)
    return q


def unfitted_channel_potential(profile: WarpProfile, j: int) -> ChannelPotential:
    """Half-line potential q_j = p^2 S^2 + p S' + lam_j / f^2 of channel j >= 0, lam_j = j (j + n - 2).

    q_fn evaluates the profile's shape once per call (ShapeFns.pair, or
    triple when lam_j > 0), so it is valid on [r_min, r_max].
    Nothing is sampled: k_eff, phase and remainder_slope stay None
    (channel_potential fits them), so this suits callers that only
    integrate the channel equation.
    """
    if j < 0:
        raise ConfigError(f"channel index j must be nonnegative, got {j}")
    n = profile.n
    p = 0.5 * (n - 1)
    lam_j = float(j * (j + n - 2))
    r_min = profile.r_min
    sh = profile.shape

    def q_fn(x, _sh=sh, _p=p, _lam=lam_j):
        x = np.asarray(x, dtype=float)
        if _lam == 0.0:
            s, s_prime = _sh.pair(x)
            return _p * _p * s * s + _p * s_prime
        s, s_prime, log_f = _sh.triple(x)
        return _p * _p * s * s + _p * s_prime + _lam * np.exp(-2.0 * log_f)

    origin_exponent = None
    if r_min < 0.5 and abs(math.exp(float(sh.log_f(r_min))) / r_min - 1.0) < 0.01:
        # profile covers the origin with f ~ r: indicial root of s(s-1) = p(p-1) + lam_j
        origin_exponent = 0.5 + math.sqrt(0.25 + p * (p - 1.0) + lam_j)

    return ChannelPotential(
        n=n,
        j=j,
        lam_sphere=lam_j,
        limit=0.25 * (n - 1) ** 2,
        q_fn=q_fn,
        x_min=r_min,
        origin_exponent=origin_exponent,
        kinks=tuple(r for r in profile.kinks if r_min < r < profile.r_max),
    )


def inverse_liouville(
    profile: WarpProfile, r: np.ndarray, w: np.ndarray, w_prime: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map (w, w') at radii r back to h = f^-p w and h' = f^-p (w' - p S w).

    This inverts the substitution w = f^p h of the channel equations.  f^-p
    and S are evaluated from the profile's shape at r; f^-p underflows to 0
    silently far out on an exponential end.
    """
    p = 0.5 * (profile.n - 1)
    s, _, log_f = profile.shape.triple(np.asarray(r, dtype=float))
    with np.errstate(under="ignore"):
        fmp = np.exp(-p * log_f)
    return fmp * w, fmp * (w_prime - p * s * w)


def resonance_coupling_threshold(n: int) -> float:
    """Smallest |k| for which the x^-1 sinusoid creates a resonance: |k_eff| > 2."""
    if n < 2:
        raise ConfigError("need n >= 2")
    return 4.0 / ((n - 1) * math.sqrt((n - 1) ** 2 + 4.0))


def predicted_k_eff(n: int, k: float) -> float:
    """Amplitude of x (q0 - limit) for the reference shape S = 1 + k sin(2r)/r."""
    return abs(k) * (n - 1) * math.sqrt((n - 1) ** 2 + 4.0) / 2.0


def predicted_phase_constant(n: int) -> float:
    """Phase offset arctan(2/(n-1)) of the potential sinusoid for the reference shape."""
    return math.atan2(2.0, n - 1)


def resonance_energy(n: int) -> float:
    """Spectral parameter limit + 1 where the sinusoidal tail resonates."""
    return 0.25 * (n - 1) ** 2 + 1.0


def require_oscillatory(lam: float, limit: float) -> float:
    """Wave number sqrt(lam - limit); raises when lam is at or below the edge."""
    if lam <= limit:
        raise NonOscillatoryError(f"lam = {lam} is not above the essential-spectrum edge {limit}")
    return math.sqrt(lam - limit)


def decade_window(x: np.ndarray, lo: float, hi: float, *, min_samples: int = 50) -> np.ndarray:
    """Boolean mask for a fit window, enforcing >= min_samples and >= one decade."""
    if hi < 10.0 * lo:
        raise InsufficientDataError(f"fit window [{lo}, {hi}] spans less than one decade")
    mask = (x >= lo) & (x <= hi)
    if np.count_nonzero(mask) < min_samples:
        raise InsufficientDataError(
            f"fit window [{lo}, {hi}] contains {int(np.count_nonzero(mask))} samples; need {min_samples}"
        )
    return mask
