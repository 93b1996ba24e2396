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
change the metric (this is checked bit-for-bit in the tests).  That formula
and its S' live in _bridge alone: the connector screen and the glued profile
both read the bridge from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .channel_reduction import (
    channel_potential,
    inverse_liouville,
    resonance_coupling_threshold,
    resonance_energy,
    unfitted_channel_potential,
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
    fired_detections,
    fit_power_decay,
    propagate,
    scan_channels,
)
from .warp_geometry import (
    DEFAULT_STEP,
    GaussLegendrePanels,
    WarpProfile,
    fd_derivative,
    piece_edges,
    profile_from_shape,
    radial_curvature,
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

# psi is checked and written out (psi.csv) on [r_min, min(r_max, PSI_R_MAX)].
# Farther out psi = f^-p w underflows: on the glued k = 1 end it is exactly
# 0.0 past r ~ 745, so a residual there compares zeros.  The pi/400 tail
# residual to r_max 1000 would also double its cost, and sampling the tail
# solution's own pi/40 nodes instead is too coarse for its 1e-6 bound.
PSI_R_MAX = 600.0


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
    r1: float
    h_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    h_prime_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _first_bessel_zero(nu: float) -> float:
    """First positive zero of J_nu by sign scan plus Brent refinement."""
    from scipy.optimize import brentq
    from scipy.special import jv

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


def disk_eigenfunction(n: int) -> DiskEigenfunction:
    if n < 2:
        raise ConfigError("need n >= 2")
    from scipy.special import gamma, jv

    b_n = 0.25 * (n - 1) ** 2 + 1.0
    a = math.sqrt(b_n)
    nu = 0.5 * (n - 2)
    r1 = _first_bessel_zero(nu) / a
    c_norm = gamma(nu + 1.0) * (0.5 * a) ** (-nu)

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

    grid = np.linspace(0.0, r1, 2001)
    h = h_fn(grid)
    hp = h_prime_fn(grid)
    if abs(h[-1]) > 1e-12:
        raise WarpspecError(f"H(r1) = {h[-1]:.3g}, zero location inconsistent")
    if np.any(h[:-1] <= 0):
        raise WarpspecError("H must stay positive before its first zero")
    if np.any(hp[1:] >= 0):
        raise WarpspecError("H must be strictly decreasing on (0, r1]")
    return DiskEigenfunction(n=n, b_n=b_n, r1=r1, h_fn=h_fn, h_prime_fn=h_prime_fn)


# ----------------------------------------------------------- reference end


# Si(x) = pi/2 - f(x) cos x - g(x) sin x, with the auxiliary functions
# f(x) = int_0^oo sin t / (t + x) dt and g(x) = int_0^oo cos t / (t + x) dt.
# F = x f and G = x^2 g are smooth and tend to 1.  Each octave
# [2^(e-1), 2^e) of x, 2 <= e <= 20, is cut into _SI_ROWS equal rows, and
# on a row F and G are polynomials of degree _SI_DEGREE in the local
# variable t in [0, 1), interpolating them at Chebyshev points.  Past 2^20
# the last row stands in: F and G are within 6/x^2 of 1 there, and Si reads
# them divided by x.
_SI_ROWS = 64
_SI_DEGREE = 5
_SI_OCTAVES = 19
_SI_BLOCK = 1 << 13


def _auxiliary_fg(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(x) and g(x) for x >= 2 from the continued fraction of e^z E1(z) = g - i f at z = i x.

    The fraction 1/(z+1 - 1/(z+3 - 4/(z+5 - ...))) is evaluated backward from
    depth 120, which converges to rounding at x = 2 and sooner beyond.
    """
    z = 1j * np.asarray(x, dtype=float)
    t = z + 241.0
    for i in range(120, 0, -1):
        t = z + (2 * i - 1) - i * i / t
    h = 1.0 / t
    return -h.imag, h.real


@functools.cache
def _si_table() -> np.ndarray:
    """Coefficients of t^d in F and G on each row, shape (_SI_DEGREE + 1, 2, rows)."""
    deg = _SI_DEGREE
    nodes = 0.5 + 0.5 * np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1))
    rows = np.arange(_SI_OCTAVES * _SI_ROWS)
    # row i spans (j + [0, 1)) 2^e / (2 _SI_ROWS) with e = 2 + i // _SI_ROWS, j = _SI_ROWS + i % _SI_ROWS
    x = np.ldexp((_SI_ROWS + rows % _SI_ROWS)[:, None] + nodes, (2 + rows // _SI_ROWS)[:, None]) / (2 * _SI_ROWS)
    f, g = _auxiliary_fg(x)
    vander = np.vander(nodes, deg + 1, increasing=True)
    table = np.stack([np.linalg.solve(vander, (x * f).T), np.linalg.solve(vander, (x * x * g).T)], axis=1)
    table.setflags(write=False)
    return table


def _sine_integral(x: np.ndarray, sin_x: np.ndarray, cos_x: np.ndarray) -> np.ndarray:
    """Si(x) = int_0^x sin t / t dt for x >= 2, given sin x and cos x.

    Its error is about a unit of rounding of pi/2, so it is continuous
    across the rows to rounding.  Below x = 2 the result is not Si.  The
    points go through in blocks of _SI_BLOCK, which bounds the gathered
    coefficients to about 1 MB.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_sin, flat_cos, flat_out = x.reshape(-1), np.ravel(sin_x), np.ravel(cos_x), out.reshape(-1)
    table = _si_table()
    for lo in range(0, flat_x.size, _SI_BLOCK):
        block = slice(lo, lo + _SI_BLOCK)
        t, e = np.frexp(flat_x[block])
        t *= 2 * _SI_ROWS
        row = t.astype(np.intp)
        t -= row
        row += e * _SI_ROWS - 3 * _SI_ROWS
        coef = table.take(row, axis=2, mode="clip")
        # Horner's rule on F and G together
        acc = coef[_SI_DEGREE]
        for d in range(_SI_DEGREE - 1, -1, -1):
            acc *= t
            acc += coef[d]
        inv = 1.0 / flat_x[block]
        flat_out[block] = np.pi / 2 - (acc[0] * flat_cos[block] + acc[1] * flat_sin[block] * inv) * inv
    return out


def reference_profile(n: int, k: float, *, r_max: float = 2000.0) -> WarpProfile:
    """Shape S = 1 + k sin(2r)/r on [1, r_max]; log f = (r - 1) + k (Si(2r) - Si(2)).

    Requires the coupling to clear the resonance threshold
    |k| (n-1) sqrt((n-1)^2 + 4) > 4 so that the channel sinusoid amplitude
    k_eff exceeds 2.  The shape is valid on the profile's range, r >= 1,
    where its sine integral (_sine_integral, numpy alone) holds.  Each
    evaluation computes sin 2r and cos 2r once, for S, S' and Si(2r), and
    its joint evaluations (ShapeFns.pair, triple) give all the values it
    computes.
    """
    thr = resonance_coupling_threshold(n)
    if abs(k) <= thr:
        raise CouplingTooWeakError(
            f"|k| = {abs(k)} is at or below the resonance threshold {thr:.6g} for n = {n}",
            threshold=thr,
        )
    two = np.float64(2.0)
    si2 = _sine_integral(two, np.sin(two), np.cos(two))

    def values(r, with_log_f):
        # sin 2r and cos 2r once, for S, S' and the sine integral
        r = np.asarray(r, dtype=float)
        sin2, cos2 = np.sin(2.0 * r), np.cos(2.0 * r)
        out = (1.0 + k * sin2 / r, k * (2.0 * cos2 / r - sin2 / r**2))
        if with_log_f:
            out += ((r - 1.0) + k * (_sine_integral(2.0 * r, sin2, cos2) - si2),)
        return out

    return profile_from_shape(
        n,
        s=lambda r: values(r, False)[0],
        s_prime=lambda r: values(r, False)[1],
        log_f=lambda r: values(r, True)[2],
        pair=lambda r: values(r, False),
        triple=lambda r: values(r, True),
        r_min=1.0,
        r_max=r_max,
        kind="wvn",
        params={"k": k, "r_max": r_max},
    )


def _reference_s_second(k: float, r: float) -> float:
    """S'' of the reference shape S = 1 + k sin(2r)/r, where a bridge meets the end."""
    r = np.asarray(r, dtype=float)
    return float(k * (-4.0 * np.sin(2.0 * r) / r - 4.0 * np.cos(2.0 * r) / r**2 + 2.0 * np.sin(2.0 * r) / r**3))


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


def _bridge(knots: np.ndarray, coeffs: np.ndarray, b_n: float, n: int):
    """psi (with psi' = -spline, psi(0) = 0) and shape(t) = (S, S') of the bridge at t = r - r1.

    S = -(b_n psi + psi'')/((n-1) psi') makes psi an exact eigenfunction at
    b_n; shape evaluates each spline once per call.
    """
    from scipy.interpolate import BSpline

    spl = BSpline(knots, coeffs, 4)
    anti = spl.antiderivative()
    dspl1, dspl2 = spl.derivative(1), spl.derivative(2)
    anti0 = float(anti(0.0))

    def psi(t):
        return -(anti(t) - anti0)

    def shape(t):
        psi_v, psi_p, psi_pp, psi_ppp = psi(t), -spl(t), -dspl1(t), -dspl2(t)
        s = -(b_n * psi_v + psi_pp) / ((n - 1) * psi_p)
        s_prime = -(b_n * psi_p + psi_ppp) / ((n - 1) * psi_p) + (b_n * psi_v + psi_pp) * psi_pp / (
            (n - 1) * psi_p**2
        )
        return s, s_prime

    return psi, shape


@dataclass(frozen=True)
class _ConnectorTrial:
    knots: np.ndarray
    coeffs: np.ndarray
    err: float


def _try_connector(hd_ball: list[float], hd_tail: list[float], length: float, sigma: float) -> _ConnectorTrial:
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
    from scipy.interpolate import BSpline
    from scipy.optimize import lsq_linear

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
    return _ConnectorTrial(knots=tk, coeffs=coeffs, err=float(np.max(np.abs(a_mat @ coeffs - b_vec))))


def _screen_bridge(trial: _ConnectorTrial, length: float, b_n: float, n: int) -> tuple[float, float]:
    """(fmin_rel, max_q0) of a trial's bridge: the least f/f(r1) and max |q_0|, sampled at 4001 points."""
    tt = np.linspace(0.0, length, 4001)
    g, gp = _bridge(trial.knots, trial.coeffs, b_n, n)[1](tt)
    p = 0.5 * (n - 1)
    q0 = p * p * g * g + p * gp
    # running trapezoid rule from t = 0
    cum = np.concatenate(([0.0], np.cumsum(np.diff(tt) * (g[1:] + g[:-1]) / 2.0)))
    return float(np.exp(np.min(cum))), float(np.max(np.abs(q0)))


@dataclass(frozen=True, eq=False)
class Connector:
    """Bridge data: psi' = -s on [r1, r2] with s a positive degree-4 spline.

    amplitude is an overall scalar on the eigenfunction only; the bridge
    metric is computed from knots/coeffs alone, so rescaling amplitude
    provably cannot perturb the glued warp factor.  constraint_err is the
    accepted spline's largest matching-row defect, and attempts counts the
    (junction, sigma) trials of the search, the accepted one included.
    """

    r1: float
    r2: float
    sigma: float
    knots: np.ndarray
    coeffs: np.ndarray
    c_tail: float
    amplitude: float = 1.0
    constraint_err: float = 0.0
    attempts: int = 0


def junction_candidates(
    x: np.ndarray,
    h: np.ndarray,
    h_prime: np.ndarray,
    r1: float,
) -> np.ndarray:
    """Indices where the tail solution supports a monotone bridge.

    A point qualifies when h and h' carry the same sign and both exceed 10%
    of their running tail maxima (quarter-period interiors, away from the
    sign-ambiguous nodes), strictly so at both neighbors so that a verdict
    cannot rest on a grid-tangency.  Points must lie beyond max(r1, 1) + 0.1.
    """
    tails_h = np.maximum.accumulate(np.abs(h)[::-1])[::-1]
    tails_hp = np.maximum.accumulate(np.abs(h_prime)[::-1])[::-1]
    sgn = np.sign(h)
    core = (x > max(r1, 1.0) + 0.1) & (sgn * h > 0.1 * tails_h) & (sgn * h_prime > 0.1 * tails_hp)
    strict = np.zeros_like(core)
    strict[1:-1] = core[1:-1] & core[:-2] & core[2:]
    return np.nonzero(strict)[0]


# ---------------------------------------------------------------- assembly


def _piecewise(r, r1: float, r2: float, f_ball, f_mid_t, f_tail):
    """Evaluate a three-piece radial function (f_mid_t takes t = r - r1) shaped like r.

    The pieces return an array or a tuple of arrays, and so does this: the
    points are split once for every value.  Points all on the tail, as on
    most of a long probe, go to f_tail at once.
    """
    arr = np.asarray(r, dtype=float)
    if not arr.size or arr.min() >= r2:
        return f_tail(arr)
    m1 = arr < r1
    m3 = arr >= r2
    m2 = ~(m1 | m3)
    parts = [
        (m, fn(arr[m] - r1 if fn is f_mid_t else arr[m]))
        for m, fn in ((m1, f_ball), (m2, f_mid_t), (m3, f_tail))
        if np.any(m)
    ]
    single = not isinstance(parts[0][1], tuple)
    outs = [np.empty_like(arr) for _ in range(1 if single else len(parts[0][1]))]
    for m, vals in parts:
        for out, v in zip(outs, (vals,) if single else vals):
            out[m] = v
    return outs[0] if single else tuple(outs)


@dataclass(frozen=True, eq=False)
class GluedConstruction:
    """A glued profile together with its embedded eigenfunction psi at b_n.

    diagnostics holds k_eff (the reference end's channel-0 sinusoid amplitude)
    and s_jump_r1, s_jump_r2 (the jumps of S at the glue radii); the search's
    defect and trial count sit on connector, the two-run agreement on tail.meta.
    """

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


def _glue(connector: Connector, disk: DiskEigenfunction, ref: WarpProfile, tail: ShootingResult):
    """Assemble the glued profile and psi: (profile, psi_fn, c2, {s_jump_r1, s_jump_r2}).

    c2 scales the reference end's warp factor to meet the bridge at r2.
    """
    from scipy.interpolate import CubicSpline

    n = disk.n
    p = 0.5 * (n - 1)
    r1, r2 = connector.r1, connector.r2
    length = r2 - r1
    psi_mid_raw, bridge_shape = _bridge(connector.knots, connector.coeffs, disk.b_n, n)

    def g_of_t(t):
        return bridge_shape(t)[0]

    # accumulate log f across the bridge on spline-break-aligned GL panels
    bk = np.unique(connector.knots)
    nodes = [np.linspace(a, b, 9)[:-1] for a, b in zip(bk[:-1], bk[1:])]
    nodes = np.concatenate(nodes + [np.array([length])])
    gl = GaussLegendrePanels(nodes)
    cum = gl.antiderivative(g_of_t(gl.x.ravel()))[1]
    logf_mid_spl = CubicSpline(nodes, math.log(r1) + cum)
    sh1 = ref.shape
    log_c2 = float(math.log(r1) + cum[-1]) - float(sh1.log_f(r2))

    # the glue radii and the interior spline knots, where S is only C^2: quadrature
    # panels, stencils and ODE steps must not straddle them
    knots = [float(r1 + t) for t in bk if 1e-12 < t < length - 1e-12]

    def tail_triple(v):
        s, s_prime, log_f = sh1.values(v, with_log_f=True)
        return s, s_prime, log_c2 + log_f

    def pair(r):
        return _piecewise(r, r1, r2, lambda v: (1.0 / v, -1.0 / v**2), bridge_shape, sh1.values)

    def triple(r):
        return _piecewise(
            r, r1, r2, lambda v: (1.0 / v, -1.0 / v**2, np.log(v)), lambda t: (*bridge_shape(t), logf_mid_spl(t)), tail_triple
        )

    profile = profile_from_shape(
        n,
        s=lambda r: pair(r)[0],
        s_prime=lambda r: pair(r)[1],
        log_f=lambda r: triple(r)[2],
        pair=pair,
        triple=triple,
        r_min=DEFAULT_STEP,
        r_max=ref.r_max,
        kind="glued",
        params={"k": float(ref.params["k"]), "r_max": ref.r_max},
        kinks=(r1, *knots, r2),
    )

    ball_scale = 1.0 / abs(float(disk.h_prime_fn(r1)))
    tail_interp = CubicSpline(tail.x, tail.w)
    amp, c_tail = connector.amplitude, connector.c_tail

    def psi_fn(r):
        def ball(v):
            return amp * ball_scale * disk.h_fn(v)

        def mid(t):
            return amp * psi_mid_raw(t)

        def tail_piece(v):
            return amp * c_tail * tail_interp(v) * np.exp(-p * sh1.log_f(v))

        return _piecewise(r, r1, r2, ball, mid, tail_piece)

    jumps = {
        "s_jump_r1": abs(float(g_of_t(0.0)) - 1.0 / r1),
        "s_jump_r2": abs(float(g_of_t(length)) - float(sh1.s(r2))),
    }
    return profile, psi_fn, math.exp(log_c2), jumps


def build_construction(
    n: int = 3,
    k: float = 1.0,
    *,
    r_max: float = 2000.0,
) -> GluedConstruction:
    """Build the glued manifold with eigenvalue b_n = (n-1)^2/4 + 1.

    The bridge meets both sides to contact order 4 (C^4 gluing).  The first
    20 junction candidates (quarter-period interiors of the tail solution)
    are tried in increasing radius, each over the bridge scales
    sigma = 0.5, 0.8, 1.3, 2.0 (|psi(r2)| = sigma (r2 - r1)); a candidate
    is accepted when the bridge constraints are met to 1e-8, the warp factor
    dips below its r1 value by no more than a factor 200 (channel barriers
    stay within float64 range), and the bridge channel potential stays
    bounded by 40.
    """
    disk = disk_eigenfunction(n)
    ref = reference_profile(n, k, r_max=r_max)
    b_n = resonance_energy(n)
    q0 = channel_potential(ref, 0)
    tail = decaying_solution(q0, b_n, r_anchor=r_max)

    x = tail.x
    sh = ref.shape
    h, hp = inverse_liouville(ref, x, tail.w, tail.w_prime)

    idx = junction_candidates(x, h, hp, disk.r1)[:20]
    if len(idx) == 0:
        raise ConnectorFailureError("no junction candidates found in the tail solution", attempts=0)

    s_ball = [1.0 / disk.r1, -1.0 / disk.r1**2, 2.0 / disk.r1**3]
    hd_ball = _ode_derivs(0.0, -1.0, s_ball, b_n, n)

    tried = 0
    # the trial with the least defect, its junction radius and sigma, for the failure's diagnostics
    best: tuple[_ConnectorTrial, float, float] | None = None
    for ci in idx:
        r2 = float(x[ci])
        length = r2 - disk.r1
        s_tail = [float(sh.s(r2)), float(sh.s_prime(r2)), _reference_s_second(k, r2)]
        for sigma in (0.5, 0.8, 1.3, 2.0):
            tried += 1
            c_tail = -sigma * length / float(h[ci])
            hd_tail = _ode_derivs(c_tail * float(h[ci]), c_tail * float(hp[ci]), s_tail, b_n, n)
            trial = _try_connector(hd_ball, hd_tail, length, sigma)
            if best is None or trial.err < best[0].err:
                best = (trial, r2, sigma)
            if trial.err > 1e-8:
                continue
            fmin_rel, max_q0 = _screen_bridge(trial, length, b_n, n)
            if fmin_rel >= 5e-3 and max_q0 <= 40.0:
                connector = Connector(
                    r1=disk.r1, r2=r2, sigma=sigma, knots=trial.knots, coeffs=trial.coeffs, c_tail=c_tail,
                    constraint_err=trial.err, attempts=tried,
                )
                profile, psi_fn, c2, jumps = _glue(connector, disk, ref, tail)
                return GluedConstruction(
                    n=n,
                    k=k,
                    b_n=b_n,
                    r1=disk.r1,
                    r2=r2,
                    sigma=sigma,
                    c2=c2,
                    connector=connector,
                    disk=disk,
                    reference=ref,
                    profile=profile,
                    tail=tail,
                    psi_fn=psi_fn,
                    diagnostics={"k_eff": q0.k_eff, **jumps},
                )
    diagnostics = {}
    if best is not None:
        trial, r2, sigma = best
        fmin_rel, max_q0 = _screen_bridge(trial, r2 - disk.r1, b_n, n)
        diagnostics = {"r2": r2, "sigma": sigma, "fmin_rel": fmin_rel, "max_q0": max_q0}
    raise ConnectorFailureError(
        f"no admissible bridge after {len(idx)} junction candidates ({tried} trials)",
        attempts=tried,
        diagnostics=diagnostics,
    )


def scale_construction(g: GluedConstruction, factor: float) -> GluedConstruction:
    """Rescale the eigenfunction psi -> factor * psi and reassemble.

    The warp factor is recomputed from scratch; it must come out bit-for-bit
    identical because the bridge shape depends only on ratios of psi.
    """
    connector = replace(g.connector, amplitude=g.connector.amplitude * float(factor))
    profile, psi_fn, c2, _ = _glue(connector, g.disk, g.reference, g.tail)
    return replace(g, connector=connector, profile=profile, psi_fn=psi_fn, c2=c2)


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
    j_max: int = 5,
    lambda_window: tuple[float, float] | None = None,
    lambda_step: float = 1e-3,
) -> tuple[dict, list]:
    """Numerical certificate for a glued construction.

    Returns (report, scan_reports).  The report covers: the eigenfunction
    residual measured by finite differences piece by piece (stencils never
    cross a kink of the profile), warp-factor continuity at the glue radii,
    exactness of f = r on the ball, tail curvature decay r (K_rad + 1) against the
    predicted sinusoid amplitude, the L^2 norm of psi with the tail-integrand
    exponent, and a channel scan over lambda_window (default b_n +- 0.5,
    sampled by energy_grid) whose only firing must be the built eigenvalue.
    The finite differences sample at spacing pi/400.  All quantities are
    deterministic, so serialized reports are byte-identical across runs.
    j_max < 0 and a window or step that energy_grid refuses raise ConfigError
    before any work.
    """
    if j_max < 0:
        raise ConfigError(f"j_max must be nonnegative, got {j_max}")
    n, b_n, r1, r2 = g.n, g.b_n, g.r1, g.r2
    lo, hi = lambda_window if lambda_window is not None else (b_n - 0.5, b_n + 0.5)
    lams = energy_grid(lo, hi, lambda_step)
    p = 0.5 * (n - 1)
    prof = g.profile
    sh = prof.shape
    report: dict = {}
    fine_step = math.pi / 400.0

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
    xt = np.arange(r2 + fine_step, min(prof.r_max, PSI_R_MAX), fine_step)
    y0 = np.array([[g.tail.w[ci]], [g.tail.w_prime[ci]]])
    xs, y, off = propagate(unfitted_channel_potential(g.reference, 0), [b_n], y0, r2, xt[-1], xt, rtol=1e-12)
    if np.any(off != 0.0):
        raise WarpspecError("unexpected rescaling on the tail piece")
    with np.errstate(under="ignore"):
        psi_t = g.connector.amplitude * g.connector.c_tail * y[0, 0] * np.exp(-p * g.reference.shape.log_f(xs))
    res_tail = _eigen_residual_on(xs, psi_t, sh.s(xs), b_n, n)
    report["residual"] = {
        "ball": res_ball,
        "bridge": res_mid,
        "tail": res_tail,
        "global": max(res_ball, res_mid, res_tail),
    }

    # (b) junction continuity (q0 read 1e-9 to either side) and ball exactness
    f_r2 = math.exp(float(sh.log_f(r2)))
    chans = [channel_potential(prof, j) for j in range(j_max + 1)]
    q0_fn = chans[0].q_fn
    report["continuity"] = {
        "s_jump_r1": g.diagnostics["s_jump_r1"],
        "s_jump_r2": g.diagnostics["s_jump_r2"],
        "f_prime_jump_r1": g.diagnostics["s_jump_r1"] * r1,
        "f_prime_jump_r2": g.diagnostics["s_jump_r2"] * f_r2,
        "q0_jump_r1": abs(float(q0_fn(r1 - 1e-9)) - float(q0_fn(r1 + 1e-9))),
        "q0_jump_r2": abs(float(q0_fn(r2 - 1e-9)) - float(q0_fn(r2 + 1e-9))),
    }
    rb = uniform_grid(prof.r_min, r1)
    rb = rb[rb < r1]
    report["ball_max_dev"] = float(np.max(np.abs(np.exp(sh.log_f(rb)) - rb)))

    # (c) tail curvature decay
    rr = np.arange(r2, prof.r_max, math.pi / 40.0)
    y = rr * (1.0 + radial_curvature(sh, rr))
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
    w2 = g.tail.w[t_mask] ** 2
    amp2 = (g.connector.amplitude * g.connector.c_tail) ** 2 * g.c2 ** (n - 1)
    # trapezoid rule
    norm_tail = amp2 * float((np.diff(g.tail.x[t_mask]) * (w2[1:] + w2[:-1]) / 2.0).sum())
    report["l2_norm"] = math.sqrt(norm_ball + norm_mid + norm_tail)
    rho = g.tail.amplitude[t_mask]
    fit = fit_power_decay(g.tail.x[t_mask], rho**2, window=(100.0, 1000.0))
    report["tail_integrand_exponent"] = fit.exponent
    report["tail_integrand_stderr"] = fit.stderr

    scan_reports = scan_channels(chans, lams, origin_bc="regular", r_max=prof.r_max)
    fired = [d for rep in scan_reports for d in fired_detections(rep.detections)]
    report["scan"] = {
        "fired": [{"j": d.j, "lam": d.lam, "refined_lam": d.refined_lam} for d in fired],
        "max_wronskian_drift": max(rep.wronskian_drift for rep in scan_reports),
        "n_lambda": int(len(lams)),
        "j_max": j_max,
    }
    return report, scan_reports
