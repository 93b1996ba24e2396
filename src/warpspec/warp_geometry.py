"""Rotationally symmetric metrics g = dr^2 + f(r)^2 g_sphere and their curvature.

A profile is its closed-form shape (logarithmic derivative S = f'/f, S' and
log f), its range [r_min, r_max] and the radii where S loses smoothness;
nothing is tabulated, and each consumer samples the shape where it reads it.
All geometric quantities of interest reduce to S:

    radial curvature   K_rad = -f''/f = -(S' + S^2)      (radial_curvature)
    distance Laplacian Delta r = (n-1) S
    radial Ricci       Ric(dr,dr) = (n-1) K_rad

and the Riccati trace identity  d/dr(Delta r) + (n-1) S^2 + Ric(dr,dr) = 0
holds exactly; its finite-difference residual is the basic consistency check
of a shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import numpy.polynomial.legendre as npleg

from .errors import (
    ComparisonFailureError,
    ConfigError,
    InvalidProfileError,
    ResolutionError,
)

__all__ = [
    "ShapeFns",
    "WarpProfile",
    "CurvatureField",
    "RiccatiBound",
    "ComparisonReport",
    "sphere_area",
    "uniform_grid",
    "euclidean_profile",
    "hyperbolic_profile",
    "cusp_profile",
    "profile_from_shape",
    "radial_curvature",
    "curvature_of_profile",
    "bochner_residual",
    "piece_edges",
    "fd_derivative",
    "GaussLegendrePanels",
    "solve_riccati_bound",
    "hessian_comparison_check",
]

# spacing of the sampling lattice r_min + i * DEFAULT_STEP: twenty nodes per
# period of the sin(2r) oscillation
DEFAULT_STEP = math.pi / 40.0


def sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def uniform_grid(r_min: float, r_max: float, step: float = DEFAULT_STEP) -> np.ndarray:
    """Uniform grid r_min + k*step, last node <= r_max (deterministic)."""
    if not (r_max > r_min > 0 or (r_min >= 0 and r_max > r_min)):
        raise ConfigError(f"bad grid range [{r_min}, {r_max}]")
    m = int(math.floor((r_max - r_min) / step + 1e-9))
    return r_min + step * np.arange(m + 1)


@dataclass(frozen=True)
class ShapeFns:
    """Closed-form shape of a profile: S = f'/f, S' and log f.

    All callables accept scalars or arrays.  S'' is not stored: the one
    place that reads it, where a bridge meets the reference end, evaluates
    it in closed form (embedded_construction).  A shape whose values share
    work (a piecewise dispatch, sin 2r) may also give pair, (S, S'), and
    triple, (S, S', log f), each bit for bit the separate callables' values
    from one evaluation; values() reads them.
    """

    s: Callable[[np.ndarray], np.ndarray]
    s_prime: Callable[[np.ndarray], np.ndarray]
    log_f: Callable[[np.ndarray], np.ndarray]
    pair: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None
    triple: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def values(self, r, with_log_f: bool = False) -> tuple:
        """(S, S') at r, or (S, S', log f) with_log_f, from the joint callable when there is one."""
        if with_log_f:
            return self.triple(r) if self.triple is not None else (self.s(r), self.s_prime(r), self.log_f(r))
        return self.pair(r) if self.pair is not None else (self.s(r), self.s_prime(r))


@dataclass(frozen=True, eq=False)
class WarpProfile:
    """Warp factor of g = dr^2 + f(r)^2 g_sphere: a closed-form shape on a range.

    shape gives S, S' and log f on [r_min, r_max], 0 <= r_min < r_max < oo,
    so f = exp(log f) is positive by construction.  The profile holds no
    samples: each consumer (curvature fields, the channel tail fit, the
    eigenfunction checks) samples the shape on its own span, at the lattice
    nodes r_min + i * DEFAULT_STEP where it needs a lattice.  kinks are the
    ascending radii, without duplicates, where S loses smoothness: glue radii
    and the bridge's spline knots.  Quadrature panels, stencils and ODE legs
    stop at them.
    """

    n: int
    kind: str
    params: Mapping[str, float]
    r_min: float
    r_max: float
    shape: ShapeFns = field(compare=False, repr=False)
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise InvalidProfileError(f"need dimension n >= 2, got {self.n}")
        if not 0.0 <= self.r_min < self.r_max < math.inf:
            raise InvalidProfileError(f"need 0 <= r_min < r_max < inf, got [{self.r_min}, {self.r_max}]")
        if any(b <= a for a, b in zip(self.kinks, self.kinks[1:])):
            raise InvalidProfileError("kinks must be ascending without duplicates")


@dataclass(frozen=True, eq=False)
class CurvatureField:
    """S and K_rad of a profile's shape at the lattice nodes of its range, plus the trace-identity residual.

    Delta r = (n-1) S and Ric(dr,dr) = (n-1) K_rad follow from these two.
    """

    grid: np.ndarray
    s: np.ndarray
    k_rad: np.ndarray
    trace_residual: float


def piece_edges(lo: float, hi: float, kinks: Sequence[float] = ()) -> list[float]:
    """Ascending edges [lo, *kinks strictly inside (lo, hi), hi] of the smooth pieces of a span."""
    return [lo] + sorted(set(float(k) for k in kinks if lo < k < hi)) + [hi]


def _fd_table(order: int, width: int = 7) -> list[np.ndarray]:
    """Weights of the width-point stencil for every node position in the window."""
    out = []
    for pos in range(width):
        offsets = np.arange(width, dtype=float) - pos
        rhs = np.zeros(width)
        rhs[order] = math.factorial(order)
        out.append(np.linalg.solve(np.vander(offsets, width, increasing=True).T, rhs))
    return out


_FD_WEIGHTS = {1: _fd_table(1), 2: _fd_table(2)}


def fd_derivative(x: np.ndarray, y: np.ndarray, order: int = 1) -> np.ndarray:
    """First (order=1) or second (order=2) derivative of samples on one smooth piece.

    7-point stencils, off-centre at the ends, on a uniform grid of at least 7
    nodes.  Data with kinks is differenced piece by piece by the caller
    (piece_edges), so no stencil straddles a kink.
    """
    if order not in _FD_WEIGHTS:
        raise ConfigError(f"fd_derivative supports orders 1 and 2, got {order}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(y)
    if m < 7:
        raise ResolutionError("need at least 7 samples per smooth segment")
    hs = np.diff(x)
    h = hs[0]
    if np.max(np.abs(hs - h)) > 1e-9 * h:
        raise ResolutionError("fd_derivative requires uniform spacing")
    w_tab = _FD_WEIGHTS[order]
    out = np.empty_like(y)
    wc = w_tab[3]
    out[3 : m - 3] = sum(wc[i] * y[i : m - 6 + i] for i in range(7))
    for pos in range(3):
        out[pos] = np.dot(w_tab[pos], y[:7])
        out[m - 1 - pos] = np.dot(w_tab[6 - pos], y[m - 7 :])
    return out / h**order


def radial_curvature(shape: ShapeFns, r: np.ndarray) -> np.ndarray:
    """K_rad = -f''/f = -(S' + S^2) of a shape at radii r."""
    return -(shape.s_prime(r) + shape.s(r) ** 2)


def curvature_of_profile(profile: WarpProfile) -> CurvatureField:
    """S and radial curvature of a profile's shape at uniform_grid(r_min, r_max), with the trace residual."""
    r = uniform_grid(profile.r_min, profile.r_max)
    return CurvatureField(
        grid=r,
        s=profile.shape.s(r),
        k_rad=radial_curvature(profile.shape, r),
        trace_residual=bochner_residual(profile),
    )


def bochner_residual(profile: WarpProfile) -> float:
    """Max residual of d/dr(Delta r) + (n-1) S^2 + Ric(dr,dr) = 0 from samples of a profile's shape.

    The derivative side is always a finite difference of sampled S (never the
    closed-form S'), so the identity tests the consistency of the pair
    (S, S') that every curvature is computed from.  Differencing acts on
    r * Delta r and uses d(Delta r)/dr = (d(r Delta r)/dr - Delta r) / r: near a smooth pole
    Delta r ~ (n-1)/r is unresolvable on a uniform grid while r * Delta r is
    analytic, so the substitution keeps the stencil error uniformly small
    without excluding any sample.

    The span is [r_min, x_last], x_last the last node of uniform_grid(r_min,
    r_max), which curvature_of_profile samples.  Each smooth piece of it
    between the profile's kinks is sampled on its own uniform grid, fine
    enough for the 7-point stencil.
    """
    shape = profile.shape
    nm1 = profile.n - 1
    edges = piece_edges(profile.r_min, float(uniform_grid(profile.r_min, profile.r_max)[-1]), profile.kinks)
    worst = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        width = b - a
        # open the piece a hair: at the edges S' has one-sided limits and the
        # piecewise dispatch of glued shapes is branch-ambiguous there
        a_in, b_in = a + 1e-9 * width, b - 1e-9 * width
        # subdivide geometrically so power-type behavior near small r and
        # short spline pieces both get steps matched to their local scale
        sub = [a_in]
        while sub[-1] * 10.0 < b_in:
            sub.append(sub[-1] * 10.0)
        sub.append(b_in)
        for alpha, beta in zip(sub[:-1], sub[1:]):
            h = min(DEFAULT_STEP, alpha / 50.0, width / 200.0)
            m = max(11, int(math.ceil((beta - alpha) / h)) + 1)
            x = np.linspace(alpha, beta, m)
            s_x, sp_x = (np.asarray(v, dtype=float) for v in shape.values(x))
            lap = nm1 * s_x
            dlap = (fd_derivative(x, x * lap) - lap) / x
            res = dlap + nm1 * s_x**2 - nm1 * (sp_x + s_x**2)
            worst = max(worst, float(np.max(np.abs(res))))
    return worst


class GaussLegendrePanels:
    """The order-point Gauss-Legendre rule on every panel between consecutive edges.

    x holds the nodes, shape (panels, order); integrals() and antiderivative()
    map values at the nodes to per-panel and running integrals.  xg, wg are the
    reference nodes and weights on [-1, 1] (numpy's leggauss, formed once per
    order and shared read-only) and half the panel half-widths.
    """

    def __init__(self, edges: np.ndarray, order: int = 16):
        edges = np.asarray(edges, dtype=float)
        self.order = order
        self.xg, self.wg = self._rule(order)
        a, b = edges[:-1], edges[1:]
        self.half = 0.5 * (b - a)
        self.x = (0.5 * (a + b))[:, None] + self.half[:, None] * self.xg[None, :]

    def integrals(self, vals: np.ndarray) -> np.ndarray:
        """Per-panel integrals half * (vals @ wg) of values at the nodes."""
        return self.half * (np.reshape(vals, self.x.shape) @ self.wg)

    def antiderivative(self, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integral from the first edge of the degree-(order-1) interpolant of vals on each panel.

        Exact for data of that degree.  Returns its values at the nodes, shaped
        like x, and at the edges: 0, then the cumsum of integrals(vals), since
        on a panel the interpolant integrates to the Gauss sum.
        """
        vals = np.reshape(vals, self.x.shape)
        at_edges = np.concatenate([[0.0], np.cumsum(self.integrals(vals))])
        return at_edges[:-1, None] + self.half[:, None] * (vals @ self._antiderivative_matrix(self.order).T), at_edges

    @staticmethod
    @functools.cache
    def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the order-point rule on [-1, 1], read-only."""
        xg, wg = npleg.leggauss(order)
        xg.setflags(write=False)
        wg.setflags(write=False)
        return xg, wg

    @staticmethod
    @functools.cache
    def _antiderivative_matrix(order: int) -> np.ndarray:
        """Node values to the integral from -1 of their interpolant: c_k = (2k+1)/2 sum_i w_i P_k(x_i) v_i, legint."""
        xg, wg = GaussLegendrePanels._rule(order)
        to_coef = (np.arange(order) + 0.5)[:, None] * (npleg.legvander(xg, order - 1) * wg[:, None]).T
        return npleg.legvander(xg, order) @ npleg.legint(to_coef, lbnd=-1.0)


def euclidean_profile(n: int, *, r_min: float = 0.05, r_max: float = 40.0) -> WarpProfile:
    """Flat cap: f(r) = r, curvature 0."""
    return profile_from_shape(
        n,
        s=lambda r: 1.0 / np.asarray(r, dtype=float),
        s_prime=lambda r: -1.0 / np.asarray(r, dtype=float) ** 2,
        log_f=lambda r: np.log(np.asarray(r, dtype=float)),
        r_min=r_min,
        r_max=r_max,
        kind="euclidean",
        params={"r_min": r_min, "r_max": r_max},
    )


def hyperbolic_profile(n: int, *, r_min: float = 0.05, r_max: float = 40.0) -> WarpProfile:
    """Constant curvature -1: f(r) = sinh r."""
    return profile_from_shape(
        n,
        s=lambda r: 1.0 / np.tanh(np.asarray(r, dtype=float)),
        # 1/sinh before squaring: sinh(r) ** 2 overflows past r = 355
        s_prime=lambda r: -((1.0 / np.sinh(np.asarray(r, dtype=float))) ** 2),
        log_f=lambda r: np.log(np.sinh(np.asarray(r, dtype=float))),
        r_min=r_min,
        r_max=r_max,
        kind="hyperbolic",
        params={"r_min": r_min, "r_max": r_max},
    )


def cusp_profile(n: int, *, r_min: float = 0.05, r_max: float = 40.0) -> WarpProfile:
    """Exponential end: f(r) = e^r, so S is identically 1 and K_rad is -1."""
    return profile_from_shape(
        n,
        s=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        s_prime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        log_f=lambda r: np.asarray(r, dtype=float),
        r_min=r_min,
        r_max=r_max,
        kind="cusp",
        params={"r_min": r_min, "r_max": r_max},
    )


def profile_from_shape(
    n: int,
    *,
    s: Callable[[np.ndarray], np.ndarray],
    s_prime: Callable[[np.ndarray], np.ndarray],
    r_min: float,
    r_max: float,
    log_f: Callable[[np.ndarray], np.ndarray] | None = None,
    kind: str = "tabulated",
    params: Mapping[str, float] | None = None,
    kinks: Sequence[float] = (),
    pair: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
    triple: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
) -> WarpProfile:
    """Build a profile from a shape curve S = f'/f on [r_min, r_max].

    Every built-in profile is made here.  Nothing is evaluated unless log_f
    is omitted: then it is accumulated by Gauss-Legendre quadrature of S
    along nodes 0.02 apart (normalized so f(r_min) = 1) and interpolated
    with a cubic spline; supply an exact log_f whenever one is available.  kinks are the
    ascending radii where S loses smoothness.  pair and triple are the
    optional joint evaluations of ShapeFns.  kind and params name the
    builder that remakes the profile; a profile persists to JSON only when
    the CLI knows that kind (cli.profile_to_json).
    """
    if log_f is None:
        from scipy.interpolate import CubicSpline

        dense = np.linspace(r_min, r_max, int((r_max - r_min) / 0.02) + 2)
        gl = GaussLegendrePanels(dense)
        log_f = CubicSpline(dense, gl.antiderivative(np.asarray(s(gl.x.ravel()), dtype=float))[1])

    return WarpProfile(
        n=n,
        kind=kind,
        params=dict(params or {}),
        r_min=float(r_min),
        r_max=float(r_max),
        shape=ShapeFns(s=s, s_prime=s_prime, log_f=log_f, pair=pair, triple=triple),
        kinks=tuple(float(k) for k in kinks),
    )


@dataclass(frozen=True, eq=False)
class RiccatiBound:
    """Comparison shape curves from one-sided curvature decay bounds.

    f1 solves the Riccati equation with curvature -1 + 2*A1/r (upper curvature
    bound, lower shape bound, started at 0); f2 with curvature -1 - 2*B1/r
    (lower curvature bound, upper shape bound, started at upper_start).
    """

    a1: float
    b1_half: float
    r0: float
    upper_start: float
    grid: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    # r^3 |f_i - (1 -+ C_i/r)| samples; note both curves carry a nonzero 1/r^2
    # term (-A1(1+A1)/2 resp. +B1(1-B1)/2), so these grow linearly in r and
    # boundedness is certified against that envelope, not a constant
    asymptotic_residuals: dict = field(default_factory=dict, compare=False, repr=False)


def solve_riccati_bound(
    *,
    a1: float,
    b1_half: float,
    r0: float,
    upper_start: float,
    grid: np.ndarray,
) -> RiccatiBound:
    """Solve the comparison Riccati equations S' = -S^2 - K(r) on grid.

    With S = y'/y each is the linear Jacobi equation y'' = -K y, which is
    integrated through halfline_solver.propagate from (y, y')(r0) = (1, S0)
    and sampled at the grid nodes; grid nodes at r0 take S0 itself.
    Preconditions: A1, B1 >= 0 and the upper curvature bound -1 + 2*A1/r must
    be nonpositive at r0 (so f1 does not immediately leave [0, 1]).  Then
    K < 0 from r0 on, so y has at most one zero, and S blows up to -infinity
    exactly there: the first grid node with y <= 0 raises
    ComparisonFailureError, its blow_up_radius interpolated linearly in y
    between that node and the one before it (or r0).  The start value is
    not bounded: |S0| >= 1000 solves like any other.
    """
    from .halfline_solver import propagate

    if a1 < 0 or b1_half < 0:
        raise ConfigError("decay coefficients A1, B1 must be nonnegative")
    grid = np.asarray(grid, dtype=float)
    if grid[0] < r0 - 1e-12:
        raise ConfigError("grid must start at or after r0")
    if -1.0 + 2.0 * a1 / r0 > 0:
        raise ConfigError(f"upper curvature bound positive at r0={r0}; need r0 >= 2*A1")

    ahead = grid[grid > r0]
    curves = []
    for q, s0 in (
        (lambda r: 1.0 - 2.0 * a1 / r, 0.0),
        (lambda r: 1.0 + 2.0 * b1_half / r, float(upper_start)),
    ):
        _, y, _ = propagate(q, np.zeros(1), np.array([[1.0], [s0]]), r0, grid[-1], ahead, rtol=1e-12)
        w, wp = y[0, 0], y[1, 0]
        below = np.flatnonzero(w <= 0.0)
        if below.size:
            # before its zero y falls from 1 with |y'| <= |S0|, so no rescale
            # of propagate separates the two samples interpolated here
            i = int(below[0])
            r_a, w_a = (float(ahead[i - 1]), float(w[i - 1])) if i else (float(r0), 1.0)
            radius = r_a + w_a * (float(ahead[i]) - r_a) / (w_a - float(w[i]))
            raise ComparisonFailureError(
                f"comparison solution blew up at r = {radius:.6g}", blow_up_radius=radius
            )
        curves.append(np.concatenate([np.full(grid.size - ahead.size, s0), wp / w]))
    f1, f2 = curves
    residuals = {
        "f1": grid**3 * np.abs(f1 - (1.0 - a1 / grid)),
        "f2": grid**3 * np.abs(f2 - (1.0 + b1_half / grid)),
    }
    return RiccatiBound(
        a1=float(a1),
        b1_half=float(b1_half),
        r0=float(r0),
        upper_start=float(upper_start),
        grid=grid,
        asymptotic_residuals=residuals,
        f1=f1,
        f2=f2,
    )


@dataclass(frozen=True)
class ComparisonReport:
    ok: bool
    first_violation_radius: float | None
    which: str | None
    max_lower_gap: float
    max_upper_gap: float


def hessian_comparison_check(
    profile: WarpProfile,
    bound: RiccatiBound,
    *,
    tol: float = 1e-9,
) -> ComparisonReport:
    """Check the shape sandwich f1 <= S <= f2 at the bound's nodes inside [r_min, r_max].

    S is evaluated at the nodes where the bound curves were solved, so
    nothing is interpolated; pointwise slack tol absorbs the solver's error.
    Returns the first violating radius (and which side failed) when the
    sandwich breaks.
    """
    mask = (bound.grid >= profile.r_min) & (bound.grid <= profile.r_max)
    if not np.any(mask):
        raise ConfigError("the bound's nodes miss the profile's range")
    r = bound.grid[mask]
    s = profile.shape.s(r)
    lower_gap = bound.f1[mask] - s
    upper_gap = s - bound.f2[mask]
    bad_low = lower_gap > tol
    bad_up = upper_gap > tol
    if np.any(bad_low) or np.any(bad_up):
        idx_low = np.argmax(bad_low) if np.any(bad_low) else len(r)
        idx_up = np.argmax(bad_up) if np.any(bad_up) else len(r)
        if idx_low <= idx_up:
            return ComparisonReport(False, float(r[idx_low]), "lower", float(np.max(lower_gap)), float(np.max(upper_gap)))
        return ComparisonReport(False, float(r[idx_up]), "upper", float(np.max(lower_gap)), float(np.max(upper_gap)))
    return ComparisonReport(True, None, None, float(np.max(lower_gap)), float(np.max(upper_gap)))
