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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InsufficientDataError, NonOscillatoryError
from .warp_geometry import WarpProfile

__all__ = [
    "ChannelSpec",
    "ChannelPotential",
    "TailFit",
    "ConjugatedSolution",
    "sphere_spectrum",
    "sphere_multiplicity",
    "channel_potential",
    "fit_tail_oscillation",
    "block_max_slope",
    "liouville_transform",
    "inverse_liouville",
    "exp_conjugation",
    "resonance_coupling_threshold",
    "predicted_k_eff",
    "predicted_phase_constant",
    "resonance_energy",
    "require_oscillatory",
    "decade_window",
]


@dataclass(frozen=True)
class ChannelSpec:
    """One rotational channel: sphere eigenvalue lam_j with its multiplicity."""

    j: int
    lam_sphere: float
    multiplicity: int


def sphere_multiplicity(n: int, j: int) -> int:
    """Dimension of the space of degree-j spherical harmonics on the (n-1)-sphere."""
    if n < 2 or j < 0:
        raise ConfigError("need n >= 2 and j >= 0")
    if j < 2:
        return 1 if j == 0 else n
    return math.comb(n + j - 1, j) - math.comb(n + j - 3, j - 2)


def sphere_spectrum(n: int, j_max: int) -> list[ChannelSpec]:
    """Channels j = 0..j_max with eigenvalues j (j + n - 2), ordered by j."""
    if j_max < 0:
        raise ConfigError("j_max must be nonnegative")
    return [
        ChannelSpec(j=j, lam_sphere=float(j * (j + n - 2)), multiplicity=sphere_multiplicity(n, j))
        for j in range(j_max + 1)
    ]


@dataclass(frozen=True, eq=False)
class ChannelPotential:
    """Half-line Schrodinger potential of one channel.

    q_fn gives closed-form values on [x_min, x_max] (beyond the sample grid
    when profile arrays were capped); k_eff is the fitted amplitude (always
    nonnegative, sign absorbed into phase) of x * (q - limit) on the tail fit
    window, absent (None) when the tail is not an x^-1 sinusoid.
    origin_exponent is the indicial root s of the x -> 0 singularity
    q ~ s(s-1)/x^2 for profiles covering the origin, None otherwise.
    kinks are the ascending radii inside (x_min, x_max) where q is only C^1
    (the profile's junctions and soft breakpoints); the ODE mesh has nodes there.
    """

    n: int
    j: int
    lam_sphere: float
    limit: float
    grid: np.ndarray
    q: np.ndarray
    q_fn: Callable[[np.ndarray], np.ndarray]
    x_min: float
    x_max: float
    origin_exponent: float | None = None
    k_eff: float | None = None
    phase: float | None = None
    remainder_slope: float | None = None
    fit_window: tuple[float, float] | None = None
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


def block_max_slope(
    x: np.ndarray, y: np.ndarray, nblocks: int = 8, *, peak_floor: float | None = None
) -> tuple[float | None, list[float]]:
    """Slope of log(max|y| per block) against log(block centre), and the log peaks.

    The blocks split [x[0], x[-1]] geometrically.  Without peak_floor a block
    with fewer than four samples or a zero peak is skipped, and the slope is
    None when fewer than four blocks remain; with it every block counts, its
    peak raised to at least peak_floor.
    """
    edges = np.geomspace(x[0], x[-1], nblocks + 1)
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


def fit_tail_oscillation(grid: np.ndarray, q: np.ndarray, limit: float) -> TailFit | None:
    """Fit the x^-1 sinusoid of a sampled potential on the last quarter of its grid.

    The window is grid >= max(50, 0.75 grid[-1]); None when it holds no
    sample.  Callers decide whether the fit is good enough to use.
    """
    mask = grid >= max(50.0, 0.75 * grid[-1])
    if not np.any(mask):
        return None
    xs, ys = grid[mask], grid[mask] * (q[mask] - limit)
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


def channel_potential(profile: WarpProfile, channel: ChannelSpec | int) -> ChannelPotential:
    """Half-line potential q_j of a channel over the given profile.

    Uses closed-form shape callables when the profile carries them (so q_fn
    stays valid beyond the capped sample arrays); otherwise values come from
    the tabulated f, f', f''.
    """
    if isinstance(channel, int):
        channel = ChannelSpec(
            j=channel,
            lam_sphere=float(channel * (channel + profile.n - 2)),
            multiplicity=sphere_multiplicity(profile.n, channel),
        )
    n = profile.n
    p = 0.5 * (n - 1)
    limit = 0.25 * (n - 1) ** 2
    lam_j = channel.lam_sphere
    grid = profile.grid

    if profile.shape is not None:
        sh = profile.shape

        def q_fn(x, _sh=sh, _p=p, _lam=lam_j):
            x = np.asarray(x, dtype=float)
            s = _sh.s(x)
            out = _p * _p * s * s + _p * _sh.s_prime(x)
            if _lam != 0.0:
                out = out + _lam * np.exp(-2.0 * _sh.log_f(x))
            return out

        q = q_fn(grid)
        x_max = profile.r_max
    else:
        s = profile.f_prime / profile.f
        q = (p * p) * s * s + p * (profile.f_second / profile.f - s * s) + lam_j / profile.f**2
        from scipy.interpolate import CubicSpline

        spl = CubicSpline(grid, q)

        def q_fn(x, _spl=spl):
            return _spl(np.asarray(x, dtype=float))

        x_max = float(grid[-1])

    # tail oscillation fit, used with enough samples and a clear amplitude
    k_eff = phase = remainder_slope = fit_window = None
    fit = fit_tail_oscillation(grid, q, limit)
    if fit is not None and fit.samples >= 200 and fit.k_eff > max(1e-10, 4.0 * fit.rms):
        k_eff, phase, remainder_slope, fit_window = fit.k_eff, fit.phase, fit.remainder_slope, fit.window

    origin_exponent = None
    if grid[0] < 0.5 and abs(profile.f[0] / grid[0] - 1.0) < 0.01:
        # profile covers the origin with f ~ r: indicial root of s(s-1) = p(p-1) + lam_j
        origin_exponent = 0.5 + math.sqrt(0.25 + p * (p - 1.0) + lam_j)

    return ChannelPotential(
        n=n,
        j=channel.j,
        lam_sphere=lam_j,
        limit=limit,
        grid=grid,
        q=q,
        q_fn=q_fn,
        x_min=float(grid[0]),
        x_max=float(x_max),
        origin_exponent=origin_exponent,
        k_eff=k_eff,
        phase=phase,
        remainder_slope=remainder_slope,
        fit_window=fit_window,
        kinks=tuple(r for r in profile.kinks if grid[0] < r < x_max),
    )


def _f_power(profile: WarpProfile, power: float) -> np.ndarray:
    if profile.shape is not None:
        return np.exp(power * profile.shape.log_f(profile.grid))
    return profile.f**power


def liouville_transform(
    profile: WarpProfile,
    h: np.ndarray,
    h_prime: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Map h to w = f^p h (and h' to w' = f^p (h' + p S h) when given)."""
    p = 0.5 * (profile.n - 1)
    fp = _f_power(profile, p)
    w = fp * h
    if h_prime is None:
        return w
    s = profile.s_values
    return w, fp * (h_prime + p * s * h)


def inverse_liouville(
    profile: WarpProfile,
    w: np.ndarray,
    w_prime: np.ndarray | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Map w back to h = f^-p w (and w' to h' = f^-p (w' - p S w))."""
    p = 0.5 * (profile.n - 1)
    fmp = _f_power(profile, -p)
    h = fmp * w
    if w_prime is None:
        return h
    s = profile.s_values
    return h, fmp * (w_prime - p * s * w)


@dataclass(frozen=True, eq=False)
class ConjugatedSolution:
    """u = e^{c r} phi together with its shifted spectral parameter."""

    grid: np.ndarray
    u: np.ndarray
    u_prime: np.ndarray
    c: float
    alpha: float
    lam: float
    below_shifted_spectrum: bool


def exp_conjugation(
    profile: WarpProfile,
    phi: np.ndarray,
    phi_prime: np.ndarray,
    *,
    alpha: float,
    c: float | None = None,
) -> ConjugatedSolution:
    """Exponential conjugation u = e^{c r} phi, shifting alpha to lam = alpha - c^2.

    A radial solution of the eigenvalue equation at alpha becomes a solution of

        u'' + ((n-1) S - 2 c) u' + (c (2 c - (n-1) S) + alpha - c^2) u = 0.

    The flag marks lam <= 0 (alpha at or below c^2), where decay arguments based
    on the shifted equation degenerate.
    """
    if c is None:
        c = 0.5 * (profile.n - 1)
    lam = alpha - c * c
    e = np.exp(c * profile.grid)
    return ConjugatedSolution(
        grid=profile.grid,
        u=e * phi,
        u_prime=e * (phi_prime + c * phi),
        c=float(c),
        alpha=float(alpha),
        lam=float(lam),
        below_shifted_spectrum=bool(lam <= 0.0),
    )


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
