"""Surface growth functional and quadrature-checked radial integral identities.

For a radial solution phi of Delta phi + alpha phi = 0 the surface energy

    I(t) = omega_{n-1} f^{n-1}(t) (phi'(t)^2 + phi(t)^2)

is evaluated in the overflow-safe half-line form I = omega ((w' - p S w)^2 + w^2)
with w = f^p phi, p = (n-1)/2: the f^{n-1} factor cancels exactly.  When the
shape converges to 1 faster than 1/r, every solution above the spectral edge
has t^gamma I(t) eventually growing; the module tests this on seeded random
boundary data and refuses (hypothesis violation) when r|K_rad + 1| does not
tend to zero.

The identity checker verifies, by per-panel Gauss-Legendre quadrature against
the weight W = omega e^{-2cr} f^{n-1}, the radial integration-by-parts ladder:
divergence flux, Laplacian parts, Dirichlet energy with an exponential change
of gauge v = e^{rho} u, and the weighted flux/energy/growth-derivative
identities behind the threshold predicates.  All of them are exact equalities
for radial data, so residuals measure only quadrature and ODE error.  The
solution u of the conjugated equation that the identities use is u = g w,
log g = -(1/2) int (Delta r - 2c), with w the channel-0 solution at energy
c^2 + lam; it and the growth trials integrate through halfline_solver.propagate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import numpy.polynomial.legendre as npleg

from .channel_reduction import block_max_slope, channel_potential, require_oscillatory
from .errors import (
    ConfigError,
    HypothesisViolatedError,
    InsufficientDataError,
    InvalidProfileError,
    NonOscillatoryError,
    OutsideRegimeError,
)
from .halfline_solver import propagate
from .warp_geometry import (
    DEFAULT_STEP,
    GaussLegendrePanels,
    ShapeFns,
    WarpProfile,
    fd_derivative,
    piece_edges,
    profile_from_shape,
    register_profile_kind,
    sphere_area,
    uniform_grid,
)

__all__ = [
    "RadialSolution",
    "GrowthSeries",
    "GrowthVerdict",
    "GrowthThresholds",
    "IdentityCheck",
    "SmoothFn",
    "GaugeWeight",
    "IdentityData",
    "solve_radial",
    "radial_solution_from_w",
    "growth_series",
    "final_decade_report",
    "verify_growth_theorem",
    "eigenfunction_growth_series",
    "check_growth_dichotomy",
    "conjugation_energy_constant",
    "conjugation_energy_margin",
    "growth_thresholds",
    "power_decay_profile",
    "slow_log_decay_profile",
    "sine_fn",
    "gaussian_fn",
    "poly_fn",
    "sine_gauge",
    "zero_gauge",
    "standard_identity_data",
    "gauge_potential",
    "check_parts_identities",
]


# --------------------------------------------------------------------------
# radial solutions in the overflow-safe w-form


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """Radial solution phi of Delta phi + alpha phi = 0 sampled on a grid.

    w = f^p phi and w' = f^p (phi' + p S phi) are the primary data (they stay
    bounded where phi' and f^{n-1} separately overflow); phi/phi_prime are
    recovered values and may underflow to 0 harmlessly at large radii.
    residual is the finite-difference defect of w'' = (q0 - alpha) w, relative
    to the local scale of the equation.
    """

    n: int
    alpha: float
    t: np.ndarray
    w: np.ndarray
    w_prime: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    residual: float
    meta: dict = field(default_factory=dict, compare=False, repr=False)


def _require_shape(profile: WarpProfile) -> ShapeFns:
    if profile.shape is None:
        raise ConfigError("this operation needs a profile with closed-form shape callables")
    return profile.shape


def _w_form_residual(t: np.ndarray, w: np.ndarray, w_prime: np.ndarray, rhs: np.ndarray) -> float:
    """Relative FD defect of (w')' = rhs on a uniform grid."""
    d = fd_derivative(t, w_prime)
    scale = np.max(np.abs(rhs)) + np.max(np.abs(d))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(d - rhs)) / scale)


def _solve_w(
    profile: WarpProfile,
    *,
    alpha: float,
    span: tuple[float, float],
    phi0: np.ndarray,
    phi_prime0: np.ndarray,
    step: float,
    rtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid t and (w, w') of shape (M, len(t)) for M sets of boundary data at span[0].

    Maps (phi, phi') to w = f^p phi, w' = f^p (phi' + p S phi) and integrates
    every column of w'' = (q0 - alpha) w in one propagate call.
    """
    sh = _require_shape(profile)
    p = 0.5 * (profile.n - 1)
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0 > 0:
        raise ConfigError(f"bad radial span {span}")
    if t1 > profile.r_max * (1 + 1e-12):
        raise ConfigError(f"span end {t1} exceeds the profile validity radius {profile.r_max}")
    t = uniform_grid(t0, t1, step)
    phi0, phi_prime0 = np.atleast_1d(phi0), np.atleast_1d(phi_prime0)
    fp0 = math.exp(p * float(sh.log_f(t0)))
    y0 = np.array([fp0 * phi0, fp0 * (phi_prime0 + p * float(sh.s(t0)) * phi0)])
    _, y, off = propagate(channel_potential(profile, 0), np.full(phi0.size, float(alpha)), y0, t0, t[-1], t, rtol=rtol)
    y = np.concatenate([y0[:, :, None], y * np.exp(off)], axis=2)
    return t, y[0], y[1]


def solve_radial(
    profile: WarpProfile,
    *,
    alpha: float,
    span: tuple[float, float],
    phi0: float = 1.0,
    phi_prime0: float = 0.0,
    step: float = DEFAULT_STEP,
    rtol: float = 1e-11,
) -> RadialSolution:
    """Integrate the radial eigenvalue equation phi'' + (n-1)S phi' + alpha phi = 0.

    Internally solves the channel-0 equation w'' = (q0 - alpha) w for
    w = f^p phi with propagate; the boundary data (phi0, phi_prime0) at
    span[0] is mapped through the same substitution, so the returned phi is
    the genuine solution with those values.
    """
    t, w, wp = _solve_w(
        profile, alpha=alpha, span=span, phi0=phi0, phi_prime0=phi_prime0, step=step, rtol=rtol
    )
    return radial_solution_from_w(profile, alpha=alpha, t=t, w=w[0], w_prime=wp[0])


def radial_solution_from_w(
    profile: WarpProfile,
    *,
    alpha: float,
    t: np.ndarray,
    w: np.ndarray,
    w_prime: np.ndarray,
) -> RadialSolution:
    """Wrap half-line samples (w, w') as a RadialSolution, recovering phi."""
    sh = _require_shape(profile)
    n = profile.n
    p = 0.5 * (n - 1)
    t = np.asarray(t, dtype=float)
    s = sh.s(t)
    q0 = channel_potential(profile, 0).q_fn(t)
    with np.errstate(under="ignore"):
        fmp = np.exp(-p * sh.log_f(t))
    phi = fmp * w
    phi_prime = fmp * (w_prime - p * s * w)
    res = _w_form_residual(t, w, w_prime, (q0 - alpha) * w)
    return RadialSolution(
        n=n,
        alpha=float(alpha),
        t=t,
        w=np.asarray(w, dtype=float),
        w_prime=np.asarray(w_prime, dtype=float),
        phi=phi,
        phi_prime=phi_prime,
        residual=res,
    )


# --------------------------------------------------------------------------
# growth functional


@dataclass(frozen=True, eq=False)
class GrowthSeries:
    """Samples of the surface energy I(t) and of t^gamma I(t)."""

    n: int
    gamma: float
    alpha: float
    t: np.ndarray
    i_values: np.ndarray
    t_gamma_i: np.ndarray
    meta: dict = field(default_factory=dict, compare=False, repr=False)


def growth_series(
    profile: WarpProfile,
    solution: RadialSolution,
    *,
    gamma: float = 1.0,
    residual_tol: float = 1e-6,
) -> GrowthSeries:
    """Surface energy I(t) = omega f^{n-1} (phi'^2 + phi^2) of a radial solution.

    Demands alpha above the essential-spectrum edge (n-1)^2/4 and a small
    equation residual, so the series always refers to an actual solution.
    """
    sh = _require_shape(profile)
    n = profile.n
    p = 0.5 * (n - 1)
    limit = 0.25 * (n - 1) ** 2
    try:
        require_oscillatory(solution.alpha, limit)
    except NonOscillatoryError as exc:
        # growth statements assume alpha above the essential-spectrum edge
        raise OutsideRegimeError(str(exc)) from None
    if solution.residual > residual_tol:
        raise ConfigError(
            f"solution residual {solution.residual:.3e} exceeds {residual_tol:.1e}; "
            "refusing to evaluate the growth functional on non-solution data"
        )
    omega = sphere_area(n)
    t = solution.t
    s = sh.s(t)
    i_vals = omega * ((solution.w_prime - p * s * solution.w) ** 2 + solution.w**2)
    return GrowthSeries(
        n=n,
        gamma=float(gamma),
        alpha=solution.alpha,
        t=t,
        i_values=i_vals,
        t_gamma_i=t ** float(gamma) * i_vals,
        meta={"residual": solution.residual},
    )


def final_decade_report(series: GrowthSeries, *, blocks: int = 4) -> dict:
    """Block minima of t^gamma I over the final decade, with growth verdicts.

    The curve oscillates on the wavelength scale, so pointwise monotonicity is
    meaningless; block minima over geometric sub-blocks of [t_end/10, t_end]
    are the stable witness.  increasing: the minima strictly increase.
    exceeds_start: the last block minimum exceeds the value at the first grid
    point (the seeded boundary radius).
    """
    t = series.t
    y = series.t_gamma_i
    t_end = float(t[-1])
    lo = t_end / 10.0
    if lo <= t[0]:
        raise InsufficientDataError("grid too short: final decade reaches back to the seed radius")
    edges = np.geomspace(lo, t_end, blocks + 1)
    minima = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (t >= a) & (t <= b)
        if np.count_nonzero(m) < 4:
            raise InsufficientDataError("final-decade block has fewer than 4 samples")
        minima.append(float(np.min(y[m])))
    start_value = float(y[0])
    increasing = all(b > a for a, b in zip(minima[:-1], minima[1:]))
    return {
        "block_edges": [float(e) for e in edges],
        "block_minima": minima,
        "start_value": start_value,
        "increasing": increasing,
        "exceeds_start": minima[-1] > start_value,
        "grew": increasing and minima[-1] > start_value,
    }


@dataclass(frozen=True, eq=False)
class GrowthVerdict:
    """Outcome of the seeded growth trials, with the worst trajectory attached."""

    passed: bool
    gamma: float
    alpha: float
    seed: int
    trials: tuple[dict, ...]
    worst: GrowthSeries
    hypothesis: dict


def _decay_hypothesis_report(profile: WarpProfile, *, r_hi: float, nblocks: int = 8) -> dict:
    """Evidence that r |K_rad + 1| tends to zero (shape converges to 1 fast).

    Accepts either sup <= 1e-8 on the window (exact cusp-like ends) or block
    maxima with log-log slope <= -0.05 and a final/first ratio <= 0.5.
    """
    sh = _require_shape(profile)
    r_lo = max(5.0, float(profile.grid[0]))
    if r_hi < 10.0 * r_lo:
        raise InsufficientDataError("decay window spans less than one decade")
    r = np.geomspace(r_lo, min(r_hi, profile.r_max), 4000)
    k_plus_1 = 1.0 - (sh.s_prime(r) + sh.s(r) ** 2)
    y = r * np.abs(k_plus_1)
    sup = float(np.max(y))
    report: dict = {"window": (float(r[0]), float(r[-1])), "sup": sup}
    if sup <= 1e-8:
        report.update({"ok": True, "mode": "vanishing"})
        return report
    slope, log_peaks = block_max_slope(r, y, nblocks, peak_floor=1e-300)
    ratio = math.exp(log_peaks[-1] - log_peaks[0])
    report.update(
        {
            "mode": "block_decay",
            "block_slope": slope,
            "final_over_first": ratio,
            "ok": slope <= -0.05 and ratio <= 0.5,
        }
    )
    return report


def verify_growth_theorem(
    profile: WarpProfile,
    *,
    alpha: float,
    gamma: float = 1.0,
    trials: int = 5,
    t0: float = 50.0,
    t_end: float = 1000.0,
    seed: int = 0,
    step: float = DEFAULT_STEP,
    blocks: int = 4,
    rtol: float = 1e-11,
) -> GrowthVerdict:
    """Seeded-trial check that every radial solution's t^gamma I(t) grows.

    Refuses (HypothesisViolatedError) when the profile's curvature does not
    satisfy r |K_rad + 1| -> 0, since the growth statement is then out of
    scope -- that failure mode is the sharpness phenomenon, not a bug.
    Boundary data is drawn uniformly from the unit circle in (phi, phi')(t0);
    all trials integrate together, one column each, in a single propagate call.
    """
    limit = 0.25 * (profile.n - 1) ** 2
    try:
        require_oscillatory(alpha, limit)
    except NonOscillatoryError as exc:
        raise OutsideRegimeError(str(exc)) from None
    hypothesis = _decay_hypothesis_report(profile, r_hi=t_end)
    if not hypothesis["ok"]:
        raise HypothesisViolatedError(
            f"r |K_rad + 1| does not tend to 0 (sup {hypothesis['sup']:.3g}, "
            f"block slope {hypothesis.get('block_slope', float('nan')):.3g}); "
            "growth of t^gamma I(t) is not implied for this profile"
        )
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=trials)
    t, w, wp = _solve_w(
        profile,
        alpha=alpha,
        span=(t0, t_end),
        phi0=np.cos(angles),
        phi_prime0=np.sin(angles),
        step=step,
        rtol=rtol,
    )
    trial_reports = []
    worst: GrowthSeries | None = None
    worst_margin = math.inf
    for idx, eta in enumerate(angles):
        sol = radial_solution_from_w(profile, alpha=alpha, t=t, w=w[idx], w_prime=wp[idx])
        series = growth_series(profile, sol, gamma=gamma)
        rep = final_decade_report(series, blocks=blocks)
        margin = rep["block_minima"][-1] / max(rep["start_value"], 1e-300)
        trial_reports.append({"trial": idx, "angle": float(eta), **rep})
        if margin < worst_margin:
            worst_margin = margin
            worst = series
    passed = all(r["grew"] for r in trial_reports)
    assert worst is not None
    return GrowthVerdict(
        passed=passed,
        gamma=float(gamma),
        alpha=float(alpha),
        seed=seed,
        trials=tuple(trial_reports),
        worst=worst,
        hypothesis=hypothesis,
    )


def eigenfunction_growth_series(construction, *, gamma: float = 1.0, t_min: float = 50.0, t_max: float = 1000.0) -> GrowthSeries:
    """Growth series of a glued construction's eigenfunction along its end.

    The eigenfunction is a constant multiple of the recovered decaying tail
    solution in w-form, so the series comes from the same samples used by the
    residual checks.
    """
    p = 0.5 * (construction.n - 1)
    tail = construction.tail
    scale = construction.connector.amplitude * construction.connector.c_tail * construction.c2**p
    mask = (tail.x >= t_min) & (tail.x <= t_max)
    if np.count_nonzero(mask) < 100:
        raise InsufficientDataError("tail samples do not cover the requested window")
    offs = tail.log_offset[mask] if tail.log_offset is not None else 0.0
    w = tail.w[mask] * np.exp(offs) * scale
    wp = tail.w_prime[mask] * np.exp(offs) * scale
    sol = radial_solution_from_w(construction.profile, alpha=construction.b_n, t=tail.x[mask], w=w, w_prime=wp)
    return growth_series(construction.profile, sol, gamma=gamma)


def check_growth_dichotomy(
    t: np.ndarray,
    i_values: np.ndarray,
    *,
    gamma: float = 1.0,
    c1: float,
) -> dict:
    """Quadrature check of the divergence mechanism behind the growth bound.

    If t^gamma I(t) >= c1 on [t[0], t[-1]], the volume energy integral over
    that range is at least c1 * int t^-gamma dt, which diverges as t grows
    when gamma = 1.  Returns both sides; ok means the lower bound holds up to
    quadrature slack (it must, whenever the premise holds and c1 is honest).
    """
    t = np.asarray(t, dtype=float)
    i_values = np.asarray(i_values, dtype=float)
    if np.min(t ** float(gamma) * i_values) < c1 * (1 - 1e-12):
        raise ConfigError("premise t^gamma I >= c1 fails on the given samples")
    from scipy.integrate import trapezoid

    volume = float(trapezoid(i_values, t))
    if gamma == 1.0:
        bound = c1 * math.log(t[-1] / t[0])
    else:
        bound = c1 * (t[-1] ** (1 - gamma) - t[0] ** (1 - gamma)) / (1 - gamma)
    return {"volume_integral": volume, "lower_bound": bound, "ok": volume >= bound * (1 - 1e-6)}


def conjugation_energy_constant(n: int) -> float:
    """Smallest eigenvalue of the quadratic form (y - cx)^2 + x^2 on the plane.

    With c = (n-1)/2 and u = e^{cr} phi, this constant eps makes
    (phi'^2 + phi^2) >= eps (u'^2 + u^2) e^{-2cr} pointwise, turning surface
    energies of phi into energies of the conjugated solution u.  eps is the
    smaller root of eps^2 - (2 + c^2) eps + 1 = 0.
    """
    if n < 2:
        raise ConfigError("need n >= 2")
    c = 0.5 * (n - 1)
    tr = 2.0 + c * c
    return 0.5 * (tr - math.sqrt(tr * tr - 4.0))


def conjugation_energy_margin(u: np.ndarray, u_prime: np.ndarray, *, n: int) -> float:
    """Minimum of (u' - cu)^2 + u^2 - eps (u'^2 + u^2) over the samples (>= 0)."""
    c = 0.5 * (n - 1)
    eps = conjugation_energy_constant(n)
    u = np.asarray(u, dtype=float)
    u_prime = np.asarray(u_prime, dtype=float)
    return float(np.min((u_prime - c * u) ** 2 + u**2 - eps * (u_prime**2 + u**2)))


@dataclass(frozen=True)
class GrowthThresholds:
    """Spectral-gap thresholds implied by 1/r decay constants of the geometry.

    a1 bounds the shape deficit from above (S <= 1 + ... no: lower side), b1_half
    from below; hatted values absorb the dimension factor n-1.  admissible
    records the window condition 1 - a1_hat > 0 and 2 gamma > a1_hat + b1_hat.
    gap_hessian_ricci uses the mixed Hessian/Ricci constants (ricci_b1 =
    lower-bound coefficient in Ric >= -(n-1)(1 + ricci_b1/r)); gap_hessian_pinch
    uses the two-sided Hessian pinch with ricci_b1 = 2 b1_half implied.
    Growth of t^gamma I is guaranteed for alpha - (n-1)^2/4 above the gap.
    """

    n: int
    gamma: float
    a1: float
    b1_half: float
    ricci_b1: float
    a1_hat: float
    b1_hat: float
    ricci_b1_hat: float
    admissible: bool
    m1: float | None
    gap_hessian_ricci: float | None
    gap_hessian_pinch: float | None


def growth_thresholds(*, n: int, gamma: float, a1: float, b1_half: float, ricci_b1: float | None = None) -> GrowthThresholds:
    """Evaluate the admissibility window and spectral-gap thresholds.

    m1 = max{ 1/(2(1 - a1_hat)), 1/(2 gamma - a1_hat - b1_hat) } with
    hat = (n-1) * value; thresholds are (n-1)(2 a1_hat + ricci_b1_hat) m1 and
    2 (n-1)(a1_hat + b1_hat) m1.  When inadmissible, m1 and the gaps are None.
    """
    if n < 2 or gamma <= 0 or a1 < 0 or b1_half < 0:
        raise ConfigError("need n >= 2, gamma > 0 and nonnegative decay constants")
    if ricci_b1 is None:
        ricci_b1 = 2.0 * b1_half
    a1_hat = (n - 1) * a1
    b1_hat = (n - 1) * b1_half
    ricci_b1_hat = (n - 1) * ricci_b1
    admissible = (1.0 - a1_hat > 0.0) and (2.0 * gamma > a1_hat + b1_hat)
    if not admissible:
        return GrowthThresholds(
            n=n, gamma=gamma, a1=a1, b1_half=b1_half, ricci_b1=ricci_b1,
            a1_hat=a1_hat, b1_hat=b1_hat, ricci_b1_hat=ricci_b1_hat,
            admissible=False, m1=None, gap_hessian_ricci=None, gap_hessian_pinch=None,
        )
    m1 = max(1.0 / (2.0 * (1.0 - a1_hat)), 1.0 / (2.0 * gamma - a1_hat - b1_hat))
    return GrowthThresholds(
        n=n, gamma=gamma, a1=a1, b1_half=b1_half, ricci_b1=ricci_b1,
        a1_hat=a1_hat, b1_hat=b1_hat, ricci_b1_hat=ricci_b1_hat,
        admissible=True, m1=m1,
        gap_hessian_ricci=(n - 1) * (2.0 * a1_hat + ricci_b1_hat) * m1,
        gap_hessian_pinch=2.0 * (n - 1) * (a1_hat + b1_hat) * m1,
    )


# --------------------------------------------------------------------------
# benchmark shapes for the growth hypothesis class


def power_decay_profile(
    n: int,
    *,
    exponent: float = 1.5,
    amplitude: float = 1.0,
    r_min: float = 1.0,
    r_cap: float = 600.0,
    r_max: float = 1100.0,
    step: float = DEFAULT_STEP,
) -> WarpProfile:
    """Shape S = 1 + amplitude r^-exponent, so K_rad + 1 = O(r^-exponent).

    exponent > 1 puts the end inside the o(1/r) hypothesis class.  Arrays are
    tabulated up to min(r_cap, r_max); the closed-form callables stay valid
    to r_max.
    """
    if exponent <= 0:
        raise ConfigError("decay exponent must be positive")
    a, e = float(amplitude), float(exponent)

    def s(r):
        return 1.0 + a * np.asarray(r, dtype=float) ** -e

    def s_prime(r):
        return -a * e * np.asarray(r, dtype=float) ** (-e - 1.0)

    def s_second(r):
        return a * e * (e + 1.0) * np.asarray(r, dtype=float) ** (-e - 2.0)

    def s_third(r):
        return -a * e * (e + 1.0) * (e + 2.0) * np.asarray(r, dtype=float) ** (-e - 3.0)

    if e == 1.0:
        def log_f(r):
            r = np.asarray(r, dtype=float)
            return r + a * np.log(r)
    else:
        def log_f(r):
            r = np.asarray(r, dtype=float)
            return r + a * r ** (1.0 - e) / (1.0 - e)

    return profile_from_shape(
        n,
        s=s,
        s_prime=s_prime,
        s_second=s_second,
        s_third=s_third,
        log_f=log_f,
        grid=uniform_grid(r_min, min(r_cap, r_max), step),
        kind="power_decay",
        params={"exponent": e, "amplitude": a, "r_min": r_min, "r_cap": r_cap, "r_max": r_max, "step": step},
        r_max=r_max,
    )


def slow_log_decay_profile(
    n: int,
    *,
    amplitude: float = 0.5,
    r_min: float = 2.0,
    r_cap: float = 600.0,
    r_max: float = 1100.0,
    step: float = DEFAULT_STEP,
) -> WarpProfile:
    """Shape S = 1 + amplitude/(r log r): boundary of the o(1/r) class.

    Tabulated up to min(r_cap, r_max) like power_decay_profile.
    """
    a = float(amplitude)

    def s(r):
        r = np.asarray(r, dtype=float)
        return 1.0 + a / (r * np.log(r))

    def s_prime(r):
        r = np.asarray(r, dtype=float)
        lg = np.log(r)
        return -a * (lg + 1.0) / (r * lg) ** 2

    def s_second(r):
        r = np.asarray(r, dtype=float)
        lg = np.log(r)
        return a * (2.0 * lg**2 + 3.0 * lg + 2.0) / (r**3 * lg**3)

    def log_f(r):
        r = np.asarray(r, dtype=float)
        return r + a * np.log(np.log(r))

    return profile_from_shape(
        n,
        s=s,
        s_prime=s_prime,
        s_second=s_second,
        log_f=log_f,
        grid=uniform_grid(r_min, min(r_cap, r_max), step),
        kind="log_decay",
        params={"amplitude": a, "r_min": r_min, "r_cap": r_cap, "r_max": r_max, "step": step},
        r_max=r_max,
    )


register_profile_kind("power_decay", lambda n, **p: power_decay_profile(n, **{k: v for k, v in p.items()}))
register_profile_kind("log_decay", lambda n, **p: slow_log_decay_profile(n, **{k: v for k, v in p.items()}))


# --------------------------------------------------------------------------
# integral identities


@dataclass(frozen=True)
class SmoothFn:
    """Closed-form scalar test function with the derivatives the checks need."""

    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray] | None = None


def sine_fn(amp: float, freq: float, shift: float = 0.0) -> SmoothFn:
    """amp sin(freq r) + shift."""
    return SmoothFn(
        value=lambda r: amp * np.sin(freq * np.asarray(r, dtype=float)) + shift,
        d1=lambda r: amp * freq * np.cos(freq * np.asarray(r, dtype=float)),
        d2=lambda r: -amp * freq * freq * np.sin(freq * np.asarray(r, dtype=float)),
    )


def gaussian_fn(center: float, width: float, amp: float = 1.0) -> SmoothFn:
    """amp exp(-((r - center)/width)^2)."""

    def g(r):
        r = np.asarray(r, dtype=float)
        return amp * np.exp(-(((r - center) / width) ** 2))

    return SmoothFn(
        value=g,
        d1=lambda r: g(r) * (-2.0 * (np.asarray(r, dtype=float) - center) / width**2),
        d2=lambda r: g(r)
        * (4.0 * ((np.asarray(r, dtype=float) - center) / width**2) ** 2 - 2.0 / width**2),
    )


def poly_fn(coeffs: Sequence[float]) -> SmoothFn:
    """Polynomial sum c_k r^k with closed-form derivatives."""
    pol = np.polynomial.Polynomial(list(coeffs))
    d1 = pol.deriv(1)
    d2 = pol.deriv(2)
    return SmoothFn(
        value=lambda r: pol(np.asarray(r, dtype=float)),
        d1=lambda r: d1(np.asarray(r, dtype=float)),
        d2=lambda r: d2(np.asarray(r, dtype=float)),
    )


@dataclass(frozen=True)
class GaugeWeight:
    """Exponent rho(r) of the change of gauge v = e^rho u, with derivatives."""

    rho: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    d3: Callable[[np.ndarray], np.ndarray]


def sine_gauge(amp: float, freq: float) -> GaugeWeight:
    """rho = amp sin(freq r)."""
    a, b = float(amp), float(freq)
    return GaugeWeight(
        rho=lambda r: a * np.sin(b * np.asarray(r, dtype=float)),
        d1=lambda r: a * b * np.cos(b * np.asarray(r, dtype=float)),
        d2=lambda r: -a * b * b * np.sin(b * np.asarray(r, dtype=float)),
        d3=lambda r: -a * b**3 * np.cos(b * np.asarray(r, dtype=float)),
    )


def zero_gauge() -> GaugeWeight:
    z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return GaugeWeight(rho=z, d1=z, d2=z, d3=z)


@dataclass(frozen=True)
class IdentityData:
    """One bundle of test data driving all six identity checks.

    a and b are free smooth test functions; psi multiplies the Dirichlet
    energy; gauge is the rho of v = e^rho u; beta/gamma_exp/eps parametrize
    the weighted flux identities; lam is the shifted spectral parameter of the
    conjugated radial equation solved for u.
    """

    name: str
    a: SmoothFn
    b: SmoothFn
    psi: SmoothFn
    gauge: GaugeWeight
    beta: float
    gamma_exp: float
    eps: float
    lam: float
    u0: tuple[float, float] = (1.0, 0.0)


def standard_identity_data() -> tuple[IdentityData, IdentityData, IdentityData]:
    """Three fixed test bundles of increasing wiggliness."""
    return (
        IdentityData(
            name="plain",
            a=sine_fn(1.0, 1.0, 2.0),
            b=gaussian_fn(8.0, 4.0),
            psi=poly_fn([1.0, 0.05]),
            gauge=zero_gauge(),
            beta=0.0,
            gamma_exp=1.0,
            eps=1.0,
            lam=2.0,
        ),
        IdentityData(
            name="gauged",
            a=sine_fn(0.7, 1.7, 1.5),
            b=sine_fn(1.0, 0.6, 0.5),
            psi=gaussian_fn(10.0, 6.0, 2.0),
            gauge=sine_gauge(0.12, 0.7),
            beta=0.5,
            gamma_exp=1.3,
            eps=0.8,
            lam=1.1,
            u0=(0.4, 1.0),
        ),
        IdentityData(
            name="stiff",
            a=gaussian_fn(6.0, 3.0, 1.5),
            b=poly_fn([0.5, 0.1, -0.002]),
            psi=sine_fn(0.5, 1.2, 2.0),
            gauge=sine_gauge(0.08, 1.9),
            beta=1.2,
            gamma_exp=0.7,
            eps=1.4,
            lam=0.35,
            u0=(0.0, 1.0),
        ),
    )


@dataclass(frozen=True)
class IdentityCheck:
    """Two quadrature sides of one identity and their normalized residual."""

    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool


def _legendre_cumulative(rule: GaussLegendrePanels, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Antiderivative of the per-panel nodal interpolant, from the span start.

    Returns values at the quadrature nodes plus the full-span integral.  The
    interpolant agrees with the integrand exactly at the nodes, so a weight
    built as exp of this antiderivative has the prescribed logarithmic
    derivative there to interpolation accuracy.
    """
    vals = np.reshape(values, rule.x.shape)
    out = np.empty_like(vals)
    offset = 0.0
    for i in range(vals.shape[0]):
        coef = npleg.legfit(rule.xg, vals[i], rule.order - 1)
        ic = npleg.legint(coef, lbnd=-1.0)
        out[i] = offset + npleg.legval(rule.xg, ic) * rule.half[i]
        offset += float(npleg.legval(1.0, ic)) * rule.half[i]
    return out.ravel(), offset


def gauge_potential(
    profile: WarpProfile,
    gauge: GaugeWeight,
    *,
    lam: float,
    c: float | None = None,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """q(r) and q'(r) of the gauged radial equation.

    q = rho'^2 - rho'' + (2c - Delta r)(rho' + c) + lam; with rho = 0 this is
    lam + c (2c - Delta r), and identically lam on a cusp end where
    Delta r = 2c.  q' differentiates through, needing S'.
    """
    sh = _require_shape(profile)
    nm1 = profile.n - 1
    if c is None:
        c = 0.5 * nm1

    def q(r):
        r = np.asarray(r, dtype=float)
        lap = nm1 * sh.s(r)
        rp = gauge.d1(r)
        return rp**2 - gauge.d2(r) + (2.0 * c - lap) * (rp + c) + lam

    def q_prime(r):
        r = np.asarray(r, dtype=float)
        lap = nm1 * sh.s(r)
        rp, rpp = gauge.d1(r), gauge.d2(r)
        return 2.0 * rp * rpp - gauge.d3(r) - nm1 * sh.s_prime(r) * (rp + c) + (2.0 * c - lap) * rpp

    return q, q_prime


def check_parts_identities(
    profile: WarpProfile,
    data: IdentityData,
    *,
    span: tuple[float, float],
    c: float | None = None,
    tol: float = 1e-7,
    panel: float = 0.35,
    order: int = 16,
    split_at_junctions: bool = True,
) -> list[IdentityCheck]:
    """Quadrature-verify the six radial integration-by-parts identities.

    All two-sided evaluations use the same weight W = omega e^{-2cr} f^{n-1}
    and the same Gauss-Legendre nodes.  The solution u of the conjugated
    equation u'' + (Delta r - 2c) u' + (c (2c - Delta r) + lam) u = 0 is
    u = g w with log g = -(1/2) int (Delta r - 2c), where w solves the
    channel-0 equation w'' = (q0 - c^2 - lam) w; w is integrated once with
    propagate through the nodes, and g reuses the antiderivative behind W.
    u is then gauged to v = e^rho u.  Residuals are
    |lhs - rhs| / (|lhs| + |rhs| + 1).
    """
    sh = _require_shape(profile)
    n = profile.n
    nm1 = n - 1
    if c is None:
        c = 0.5 * nm1
    s0, t1 = float(span[0]), float(span[1])
    if not (profile.grid[0] - 1e-9 <= s0 < t1 <= profile.r_max + 1e-9):
        raise ConfigError(f"identity span {span} leaves the profile validity range")
    inner = [rj for rj in profile.junctions if s0 < rj < t1]
    if inner and not split_at_junctions:
        raise ConfigError(
            f"span {span} crosses glue radii {inner}; enable split_at_junctions to proceed"
        )
    # panels of width at most panel, split exactly at the kinks
    pieces = piece_edges(s0, t1, profile.kinks if split_at_junctions else ())
    edges = [s0]
    for a, b in zip(pieces[:-1], pieces[1:]):
        edges.extend(np.linspace(a, b, max(1, int(math.ceil((b - a) / panel))) + 1)[1:].tolist())
    rule = GaussLegendrePanels(np.asarray(edges), order)
    x = rule.x.ravel()
    omega = sphere_area(n)
    s_x = sh.s(x)
    lap_x = nm1 * s_x
    ends = np.array([s0, t1])
    # W = omega e^{-2cr} f^{n-1}, rebuilt from the shape's own S so that
    # (log W)' = Delta r - 2c holds exactly at the nodes; the anchor value at
    # s0 multiplies every term of every identity and cancels in the residual.
    logw_anchor = math.log(omega) + nm1 * float(sh.log_f(s0)) - 2.0 * c * s0
    cum, cum_total = _legendre_cumulative(rule, lap_x - 2.0 * c)
    wq = np.exp(logw_anchor + cum)
    w_ends = np.exp(np.array([logw_anchor, logw_anchor + cum_total]))

    def integrate(values: np.ndarray) -> float:
        return float(np.sum(rule.integrals(values)))

    def boundary(vals_at_ends: np.ndarray) -> float:
        return float(vals_at_ends[1] - vals_at_ends[0])

    checks: list[IdentityCheck] = []

    def record(name: str, lhs: float, rhs: float):
        residual = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0)
        checks.append(
            IdentityCheck(name=name, lhs=lhs, rhs=rhs, residual=residual, tolerance=tol, passed=residual <= tol)
        )

    # divergence flux: int (a' + a Delta r) W = [a W] + 2c int a W
    a_x, a_ends = data.a.value(x), data.a.value(ends)
    a1_x = data.a.d1(x)
    record(
        "divergence_flux",
        integrate((a1_x + a_x * lap_x) * wq),
        boundary(a_ends * w_ends) + 2.0 * c * integrate(a_x * wq),
    )

    # Laplacian parts: int (Lap a) b W = [a' b W] - int a' b' W + 2c int a' b W
    if data.a.d2 is None:
        raise ConfigError("test function a needs a second derivative for the Laplacian identity")
    lap_a_x = data.a.d2(x) + lap_x * a1_x
    b_x, b1_x = data.b.value(x), data.b.d1(x)
    a1_ends, b_ends = data.a.d1(ends), data.b.value(ends)
    record(
        "laplacian_parts",
        integrate(lap_a_x * b_x * wq),
        boundary(a1_ends * b_ends * w_ends)
        - integrate(a1_x * b1_x * wq)
        + 2.0 * c * integrate(a1_x * b_x * wq),
    )

    # u = g w at the nodes and t1, with (log g)' = c - p S = -(Delta r - 2c)/2
    # and g(s0) = 1; w solves the channel-0 equation at energy c^2 + lam
    p = 0.5 * nm1
    u0, u0_prime = map(float, data.u0)
    y0 = np.array([[u0], [u0_prime - (c - p * float(sh.s(s0))) * u0]])
    _, y, off = propagate(
        channel_potential(profile, 0), np.array([c * c + data.lam]), y0, s0, t1, np.append(x, t1), rtol=1e-12
    )
    g = np.exp(off - 0.5 * np.append(cum, cum_total))
    w, w1 = y[0, 0], y[1, 0]
    u = g * w
    u1 = g * (w1 + (c - p * np.append(s_x, sh.s(t1))) * w)
    q_fn, qp_fn = gauge_potential(profile, data.gauge, lam=data.lam, c=c)

    def gauged(r, u, u1):
        """v = e^rho u and v' = e^rho (u' + rho' u)."""
        e = np.exp(data.gauge.rho(r))
        return e * u, e * (u1 + data.gauge.d1(r) * u)

    v_x, v1_x = gauged(x, u[:-1], u1[:-1])
    v_ends, v1_ends = gauged(ends, np.array([u0, u[-1]]), np.array([u0_prime, u1[-1]]))
    q_x, qp_x = q_fn(x), qp_fn(x)
    q_ends = q_fn(ends)
    rho1_x = data.gauge.d1(x)
    rho1_ends = data.gauge.d1(ends)

    # Dirichlet energy: int (v'^2 - q v^2) psi W = [psi v v' W] - int (psi' + 2 psi rho') v' v W
    psi_x, psi1_x = data.psi.value(x), data.psi.d1(x)
    psi_ends = data.psi.value(ends)
    record(
        "dirichlet_energy",
        integrate((v1_x**2 - q_x * v_x**2) * psi_x * wq),
        boundary(psi_ends * v_ends * v1_ends * w_ends)
        - integrate((psi1_x + 2.0 * psi_x * rho1_x) * v1_x * v_x * wq),
    )

    # weighted square flux:
    # [r^beta v^2 W] = int r^beta (Delta r - 2c + beta/r) v^2 W + 2 int r^beta v v' W
    beta = data.beta
    record(
        "weighted_square_flux",
        boundary(ends**beta * v_ends**2 * w_ends),
        integrate(x**beta * (lap_x - 2.0 * c + beta / x) * v_x**2 * wq)
        + 2.0 * integrate(x**beta * v_x * v1_x * wq),
    )

    # weighted energy flux:
    # [r^g (v'^2 + q v^2) W / 2] = int r^{g-1} {(g - r Lap + 2cr)/2 + 2 r rho'} v'^2 W
    #                            + int r^{g-1} {(g + r Lap - 2cr) q + r q'} v^2 W / 2
    g = data.gamma_exp
    record(
        "weighted_energy_flux",
        boundary(ends**g * 0.5 * (v1_ends**2 + q_ends * v_ends**2) * w_ends),
        integrate(x ** (g - 1.0) * (0.5 * (g - x * lap_x + 2.0 * c * x) + 2.0 * x * rho1_x) * v1_x**2 * wq)
        + 0.5 * integrate(x ** (g - 1.0) * ((g + x * lap_x - 2.0 * c * x) * q_x + x * qp_x) * v_x**2 * wq),
    )

    # growth flux derivative, with the cross term (g - eps)/(2r) v v':
    eps = data.eps
    flux_ends = ends**g * (
        0.5 * v1_ends**2 + 0.5 * q_ends * v_ends**2 + (g - eps) / (2.0 * ends) * v1_ends * v_ends
    ) * w_ends
    rhs_growth = (
        integrate(
            x ** (g - 1.0)
            * (g - 0.5 * (x * lap_x - 2.0 * c * x + eps) + 2.0 * x * rho1_x)
            * v1_x**2
            * wq
        )
        + 0.5
        * integrate(x ** (g - 1.0) * (x * qp_x + q_x * (x * lap_x - 2.0 * c * x + eps)) * v_x**2 * wq)
        + 0.5
        * (g - eps)
        * integrate(x ** (g - 1.0) * ((g - 1.0) / x + 2.0 * rho1_x) * v1_x * v_x * wq)
    )
    record("growth_flux_derivative", boundary(flux_ends), rhs_growth)

    return checks
