"""Schrodinger problems -w'' + q w = lam w on the half line.

Provides the linear propagator, power-law decay fitting, recovery of the
decaying solution of an oscillatory-tail potential above the
essential-spectrum edge by backward integration, and an embedded-eigenvalue
detector based on the envelope exponent of solutions.

The core integrator, propagate, takes sixth-order Magnus steps on a fixed
mesh and steps every energy together, carrying one state or m states per
energy: y0 of shape (2, K) or (2, m, K).  The mesh comes from a step
selection (select_mesh): cell edges and one step per cell, chosen from q,
rtol, a span and an energy window; each call places the nodes of its own
span inside it.  A channel scan selects once per channel, and its grid
probe, zoom rounds and Wronskian pair share that selection.  Far out the
channels of a profile coincide (q_j equals q_0 bit for bit once lam_j / f^2
is below half an ulp of q), so the scan selects only a head up to a radius R
for each channel but the first, checks the equality at the Gauss nodes of
the shared span's steps, and integrates that span once for every channel,
their states carried together as m states per energy (scan_channels).

One step builder serves the stepping and the step selection: the exponent
of a step is affine in the energy, with coefficients computed once from q,
and its exponential is a Taylor series in z, where Omega^2 = z I.  The steps
run in blocks, q sampled once per block; within a block the products of
short groups of steps are formed at once as prefix products (Hillis &
Steele), so the Python loop runs once per group, not per step.
Solutions crossing large angular-momentum barriers overflow float64 (growth
factors beyond e^700), so the state is renormalized whenever it reaches
1e150 and an exact per-sample logarithmic offset ledger is kept; fits are
done on log-amplitudes and never re-exponentiate.
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
    "Mesh",
    "select_mesh",
    "propagate",
    "fit_power_decay",
    "frobenius_init",
    "decaying_solution",
    "detect_embedded_eigenvalue",
    "scan_channels",
    "energy_grid",
    "reversibility_check",
    "synthetic_channel",
    "fired_detections",
]

_CAP_LOG = math.log(1e150)
# a group's bound on the growth of the state: below 1e75, so a state below
# 1e150 at the group's start stays far from overflow inside it
_GROUP_LOG = 0.5 * _CAP_LOG
# a group's bound on the growth of its dominant solution, the sum of the
# steps' sqrt(max(z, 0)): a group's product P rounds a state at |P| |y|, so
# where P first grows and then shrinks the state it carries (q - lam changing
# sign) the group must stay short for P y to be as accurate as the steps
_GROWTH_LOG = 2.0
# values per block (steps times their columns and q samples), the most steps
# in a group of prefix products, and a cap on the trial steps of one
# selection round
_BLOCK = 1 << 15
_GROUP = 512
_MAX_TRIAL_STEPS = 1 << 18
# the series exponential holds for |z| <= _Z_MAX.  It sums 14 terms, whose
# first omitted one is at most 4^14 / 28! = 8.8e-22; a tail near rounding
# would add up over the steps, since it has the same sign for every step
_Z_MAX = 4.0
_COSH_TAYLOR = [1.0 / math.factorial(2 * k) for k in range(14)]
_SINHC_TAYLOR = [1.0 / math.factorial(2 * k + 1) for k in range(14)]
# batched zoom refinement: points per probe call (odd, so the bracket's centre
# is probed), relative stopping tolerance, and a cap on the rounds, which
# only a bracket containing 0 reaches
_ZOOM_POINTS = 17
_ZOOM_XTOL = 1e-7
_ZOOM_MAX_ROUNDS = 20
# a grid point fires when its envelope exponent e falls below this: e < -0.55
# gives rho^2 = O(x^-1.1), so the solution is L^2 (e < -1/2) with a margin
_ENVELOPE_THRESHOLD = -0.55


@dataclass(frozen=True, eq=False)
class ShootingResult:
    """Solution samples on an ascending grid.

    When the integration was renormalized, w and w_prime hold rescaled values
    and log_offset the per-sample logarithm of the removed factor, so the true
    solution is w * exp(log_offset).  amplitude is the envelope
    rho = hypot(w, w'/kappa) with kappa = sqrt(lam - limit), in rescaled
    units too.
    """

    x: np.ndarray
    w: np.ndarray
    w_prime: np.ndarray
    lam: float
    amplitude: np.ndarray
    log_offset: np.ndarray | None = None
    meta: dict = field(default_factory=dict, compare=False, repr=False)


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
    """Verdict for one spectral grid point of one channel: envelope_exponent
    < -0.55, so the probed solution is L^2 (detect_embedded_eigenvalue).

    evidence holds the refinement counters of _zoom_minimum at the refined
    point and is empty elsewhere.
    """

    j: int
    lam: float
    verdict: bool
    envelope_exponent: float
    envelope_stderr: float
    refined_lam: float | None = None
    evidence: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class ChannelScanReport:
    j: int
    multiplicity: int
    detections: list[EigenDetection]
    wronskian_drift: float


def _loglog_fit(logx: np.ndarray, logy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slope, stderr of slope, intercept for logy ~ slope*logx + intercept, per column.

    logy holds one column (shape (M,), scalar results) or K columns (shape
    (M, K)) sampled at the M abscissas logx.  The least-squares line in
    closed form about the mean abscissa, with the residual variance over
    max(M - 2, 1) degrees of freedom.
    """
    n = len(logx)
    if n < 2:
        raise WarpspecError("a log-log fit needs at least two samples")
    # the abscissas take logy's shape: summing an (M, 1) column instead adds
    # in another order and moves the last digits of the slope
    x = np.broadcast_to(logx.reshape(-1, *[1] * (logy.ndim - 1)), logy.shape)
    x_mean = np.sum(x, axis=0) / n
    y_mean = np.sum(logy, axis=0) / n
    dx = x - x_mean
    sxx = np.sum(dx * dx, axis=0)
    slope = np.sum(dx * (logy - y_mean), axis=0) / sxx
    intercept = y_mean - slope * x_mean
    res = logy - slope * x - intercept
    sigma2 = np.sum(res * res, axis=0) / max(n - 2, 1)
    return slope, np.sqrt(sigma2 / sxx), intercept


def fit_power_decay(
    x: np.ndarray,
    values: np.ndarray,
    *,
    window: tuple[float, float],
) -> DecayFit:
    """Fit |values| ~ C x^e on a window spanning at least one decade and 50 samples."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = decade_window(x, window[0], window[1])
    xs = x[mask]
    ys = np.abs(values[mask])
    if np.any(ys <= 0):
        raise ConfigError("fit_power_decay needs nonzero values; fit log data directly instead")
    slope, stderr, intercept = _loglog_fit(np.log(xs), np.log(ys))
    return DecayFit(float(slope), float(stderr), float(intercept), (float(xs[0]), float(xs[-1])), int(len(xs)))


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


_ROOT15 = math.sqrt(15.0) / 10.0
_NODES = np.array([0.5 - _ROOT15, 0.5, 0.5 + _ROOT15])
# the nodes of a full step followed by those of its two halves
_TRIAL_NODES = np.concatenate([_NODES, 0.5 * _NODES, 0.5 + 0.5 * _NODES])


def _group_steps(columns: int) -> int:
    """Steps per group of prefix products: the largest power of 2 up to _GROUP / columns, at least 1."""
    return 1 << max((_GROUP // columns).bit_length() - 1, 0)


def _block_steps(columns: int, samples: int) -> int:
    """Steps per block: whole groups, at least one, of about _BLOCK values in all,
    a step holding one matrix entry per column and its samples of q."""
    group = _group_steps(columns)
    return group * max(_BLOCK // (group * (columns + samples)), 1)


def _sample_q(q_fn: Callable, x: np.ndarray, h: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """q at x + f h for every fraction f and step (x, h), in one q_fn call.

    Node-major, of shape (fractions, steps): _step_coefficients then reads
    each node's values as one contiguous row, and its arithmetic runs along
    the steps.
    """
    qv = np.asarray(q_fn((x + fractions[:, None] * h).ravel()), dtype=float).reshape(fractions.size, x.size)
    if not np.all(np.isfinite(qv)):
        raise WarpspecError(f"q is not finite on [{np.min(x)}, {np.max(x + h)}]")
    return qv


def _step_coefficients(qv: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, ...]:
    """Coefficients (p0, p1, u, l0, l1) of the sixth-order Magnus exponent of each step.

    For y' = A y, A = [[0, 1], [q - lam, 0]], over a step of length h, let
    A_i be A at the Gauss nodes _NODES, where q takes the values qv[i], one
    row per node (_sample_q).
    With alpha1 = h A2, alpha2 = sqrt(15) h (A3 - A1) / 3,
    alpha3 = 10 h (A3 - 2 A2 + A1) / 3, C1 = [alpha1, alpha2] and
    C2 = -[alpha1, 2 alpha3 + C1] / 60 (Blanes, Casas & Ros) the exponent is
    Omega = alpha1 + alpha3 / 12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.
    lam enters through alpha1 alone, so written out Omega = [[p, u], [l, -p]]
    with p = p0 + p1 lam, l = l0 + l1 lam and u free of lam.  The negated
    coefficients give -Omega, the step backward.
    """
    q1, q2, q3 = qv
    a2 = (math.sqrt(15.0) / 3.0) * h * (q3 - q1)
    a3 = (10.0 / 3.0) * h * (q3 - 2.0 * q2 + q1)
    hh = h * h
    m = 1.0 + h * a3 / 180.0 + hh * a2 * a2 / 3600.0
    p0 = h * a2 * (hh * q2 / 180.0 + h * a3 / 7200.0 - 1.0 / 12.0)
    p1 = -hh * h * a2 / 180.0
    u = h * (1.0 + hh * a2 * a2 / 3600.0 - h * a3 / 180.0)
    l0 = h * q2 * m + a3 / 12.0 + h * (a3 * a3 / 3600.0 - a2 * a2 / 120.0)
    return p0, p1, u, l0, -h * m


def _exponent(coef: Sequence[np.ndarray], lams: np.ndarray) -> tuple[np.ndarray, ...]:
    """p, u, l of the exponent of each step at each lam, and z = p^2 + u l.

    The layout is the broadcast of coef against lams.  The short batches, the
    two extreme energies of the step selection and of propagate's group
    bounds, pass coefficients of shape (steps,) and lams of shape (2, 1),
    and get p, l and z as (2, steps) rows: numpy's inner loop then runs over
    the steps, not over two energies (at 6 552 steps 44-58 us against
    217-234 us as (steps, 2) on a 2-core sandbox).  propagate's K-wide
    steps pass coefficients of shape (steps, 1) and lams of shape (K,), and
    get (steps, K).  u is free of lam and keeps the shape of the
    coefficients.
    """
    p0, p1, u, l0, l1 = coef
    p = p0 + p1 * lams
    l = l0 + l1 * lams
    return p, u, l, p * p + u * l


def _series_exp(p: np.ndarray, u: np.ndarray, l: np.ndarray, z: np.ndarray) -> np.ndarray:
    """exp Omega for Omega = [[p, u], [l, -p]] with z = p^2 + u l, of shape (2, 2, *z.shape).

    Omega^2 = z I, so exp Omega = C(z) I + S(z) Omega with C = cosh sqrt(z)
    and S = sinh sqrt(z) / sqrt(z), both summed as Taylor series in z: no
    branch, square root or division.  The step selection resolves |z| <= 1
    and then lengthens a step at most twofold, so mesh steps stay within
    |z| <= _Z_MAX (2.2 at most on the glued channels); a step beyond it
    raises WarpspecError, never a NaN.
    """
    size = float(np.max(np.abs(z)))
    if not size <= _Z_MAX:
        raise WarpspecError(f"a Magnus step has |z| = {size:.3g}, beyond the series exponential's {_Z_MAX}")
    cosh = np.full_like(z, _COSH_TAYLOR[-1])
    sinhc = np.full_like(z, _SINHC_TAYLOR[-1])
    for ck, sk in zip(reversed(_COSH_TAYLOR[:-1]), reversed(_SINHC_TAYLOR[:-1])):
        cosh *= z
        cosh += ck
        sinhc *= z
        sinhc += sk
    out = np.empty((2, 2, *z.shape))
    # S p waits in the slot of b until a and d are formed
    sp = np.multiply(sinhc, p, out=out[0, 1])
    np.subtract(cosh, sp, out=out[1, 1])
    np.add(cosh, sp, out=out[0, 0])
    np.multiply(sinhc, u, out=out[0, 1])
    np.multiply(sinhc, l, out=out[1, 0])
    return out


def _steps(coef: Sequence[np.ndarray], lams: np.ndarray) -> np.ndarray:
    """exp Omega for each step and lam, of shape (2, 2, *layout) for the
    layout of the exponent (_exponent): propagate's step builder."""
    return _series_exp(*_exponent(coef, lams))


def _halving_error(qv: np.ndarray, h: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Relative gap between each step and its two half steps, the worse of the extreme lams.

    qv holds q at the _TRIAL_NODES of each step, node-major (_sample_q) of
    shape (9, steps); inf marks a step not resolved (|z| > 1 for the step or
    a half step).  The full steps and both halves are stacked along one steps
    axis, their exponent formed once at the two extreme lams as (2, 3 steps)
    rows, and the rows of the unresolved steps are zeroed, so their matrices
    are the identity and stay within the series.  The trial matrices are
    (2, 2, 2, 3 steps), energy-major: every operation loops over the steps,
    and the two energies are reduced by an elementwise maximum of two rows.
    """
    n = h.size
    ends = np.array([[lams.min()], [lams.max()]])
    # columns: every full step, then every first half, then every second half
    stacked = qv.reshape(3, 3, n).transpose(1, 0, 2).reshape(3, 3 * n)
    p, u, l, z = _exponent(_step_coefficients(stacked, np.concatenate([h, 0.5 * h, 0.5 * h])), ends)
    resolved = np.all(np.abs(z).reshape(2, 3, n) <= 1.0, axis=(0, 1))
    kept = np.tile(resolved, 3)
    mats = _series_exp(*(np.where(kept, e, 0.0) for e in (p, u, l, z)))
    full, first, second = np.split(mats, 3, axis=3)
    two = np.einsum("ijem,jlem->ilem", second, first)
    rel = np.max(np.abs(full - two), axis=(0, 1)) / np.max(np.abs(two), axis=(0, 1))
    return np.where(resolved, np.maximum(rel[0], rel[1]), np.inf)


def _cell_steps(q_fn: Callable, edges: np.ndarray, lams: np.ndarray, rtol: float) -> np.ndarray:
    """Number of uniform steps for each cell between consecutive edges.

    A cell's steps are accepted once every one is resolved (|z| <= 1) and
    agrees with its two half steps to rtol at the lowest and the highest lam
    (_halving_error).  Every cell starts from one step.  A cell with an
    unresolved step doubles its count; a resolved cell that misses rtol jumps
    to max(2 n, ceil(1.2 n (err / rtol)^(1/7))), the h^7 law of the local
    error with a margin.  An accepted count then shrinks to what the h^7 law
    asks for, never below half.  Each round samples q once per block of
    trial steps.
    """
    lo, length = edges[:-1], np.diff(edges)
    n = np.ones(len(lo), dtype=np.int64)
    out = np.zeros(len(lo), dtype=np.int64)
    # a trial step is three matrices at two energies
    block = _BLOCK // (6 + _TRIAL_NODES.size)
    while np.any(out == 0):
        active = np.flatnonzero(out == 0)
        cnt = n[active]
        if cnt.sum() > _MAX_TRIAL_STEPS:
            raise WarpspecError(f"no resolving step found on [{edges[0]}, {edges[-1]}]")
        starts = np.cumsum(cnt) - cnt
        cell = np.repeat(active, cnt)
        h = (length / n)[cell]
        x = lo[cell] + (np.arange(cell.size) - np.repeat(starts, cnt)) * h
        err = np.concatenate([
            _halving_error(_sample_q(q_fn, x[i : i + block], h[i : i + block], _TRIAL_NODES), h[i : i + block], lams)
            for i in range(0, h.size, block)
        ])
        ratio = np.maximum.reduceat(err, starts) / rtol
        law = cnt * np.where(np.isfinite(ratio), ratio, 0.0) ** (1.0 / 7.0)
        ok = ratio <= 1.0
        out[active[ok]] = np.maximum(np.ceil(law[ok]).astype(np.int64), (cnt[ok] + 1) // 2)
        n[active[~ok]] = np.maximum(2 * cnt[~ok], np.ceil(1.2 * law[~ok]).astype(np.int64))
    return out


@dataclass(frozen=True, eq=False)
class Mesh:
    """A step selection: cell edges and one uniform step per cell.

    select_mesh chooses it for a potential (q_fn and kinks), the span from
    edges[0] to edges[-1], the energy window [lam_lo, lam_hi] and rtol;
    propagate places the nodes of any span inside it (_nodes) and refuses a
    call whose potential, span, energies or rtol the selection does not
    cover, so one selection can serve every call of a scan on one channel.
    """

    q_fn: Callable
    kinks: tuple[float, ...]
    lam_lo: float
    lam_hi: float
    rtol: float
    edges: np.ndarray
    steps: np.ndarray


def _energies(lams) -> np.ndarray:
    """lams as a 1-D float array; ConfigError unless it holds at least one energy, all finite."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not lams.size or not np.all(np.isfinite(lams)):
        raise ConfigError(f"energies must be finite, and at least one: got {lams}")
    return lams


def select_mesh(q, lo: float, hi: float, lams, *, rtol: float = 1e-10) -> Mesh:
    """The step selection of q on [lo, hi] for energies in the range of lams.

    The cells are the smooth pieces between kinks, cut further at lo * 2^i
    so that the mesh grades geometrically toward a start near the origin;
    each cell's step comes from _cell_steps, tested at the lowest and the
    highest energy.  A span other than a finite lo < hi, an empty or
    non-finite lams and an rtol other than a finite positive one raise
    ConfigError before any work.
    """
    q_fn, kinks = _q_parts(q)
    lams = _energies(lams)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"a step selection needs a finite span lo < hi, got [{lo}, {hi}]")
    if not (math.isfinite(rtol) and rtol > 0):
        raise ConfigError(f"rtol must be finite and positive, got {rtol}")
    cuts = lo * 2.0 ** np.arange(1, int(math.log2(hi / lo)) + 1) if lo > 0 else []
    edges = np.asarray(piece_edges(lo, hi, [*kinks, *cuts]))
    steps = np.diff(edges) / _cell_steps(q_fn, edges, lams, rtol)
    return Mesh(q_fn, tuple(kinks), float(lams.min()), float(lams.max()), rtol, edges, steps)


def _refuse_foreign_mesh(
    mesh: Mesh, q_fn: Callable, kinks, lo: float, hi: float, lams: np.ndarray, rtol: float
) -> None:
    """ConfigError unless mesh was selected for q_fn and kinks, a span holding [lo, hi],
    a window holding every lam, and rtol."""
    if q_fn is not mesh.q_fn or tuple(kinks) != mesh.kinks:
        raise ConfigError("the mesh was selected for another potential")
    if rtol != mesh.rtol:
        raise ConfigError(f"the mesh was selected for rtol {mesh.rtol}, not {rtol}")
    if lo < mesh.edges[0] or hi > mesh.edges[-1]:
        raise ConfigError(f"[{lo}, {hi}] leaves the mesh's span [{mesh.edges[0]}, {mesh.edges[-1]}]")
    if lams.min() < mesh.lam_lo or lams.max() > mesh.lam_hi:
        raise ConfigError(
            f"energies in [{lams.min()}, {lams.max()}] leave the mesh's window [{mesh.lam_lo}, {mesh.lam_hi}]"
        )


def _nodes(mesh: Mesh, lo: float, hi: float, samples: np.ndarray) -> np.ndarray:
    """Ascending nodes from lo to hi: every edge of mesh between them and every
    sample, each gap divided evenly with steps no longer than its cell's step."""
    edges = mesh.edges
    points = np.union1d(np.concatenate([[lo], edges[(edges > lo) & (edges < hi)], [hi]]), samples)
    gaps = np.diff(points)
    cell = np.searchsorted(edges, points[:-1], side="right") - 1
    cnt = np.maximum(np.ceil(gaps / mesh.steps[cell] * (1.0 - 1e-12)), 1).astype(np.int64)
    gap = np.repeat(np.arange(gaps.size), cnt)
    frac = (np.arange(gap.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)) / cnt[gap]
    return np.append(points[:-1][gap] + frac * gaps[gap], hi)


def _group_starts(bounds: Sequence[tuple[np.ndarray, float]], group: int) -> np.ndarray:
    """First step of every group: each group-th step, and each step that would
    carry its group's running sum of a weight past that weight's limit, for
    each (weight per step, limit) in bounds in turn."""
    size = bounds[0][0].size
    starts = np.arange(0, size, group)
    for weight, limit in bounds:
        over = np.add.reduceat(weight, starts) > limit
        if not over.any():
            continue
        cum = np.concatenate([[0.0], np.cumsum(weight)])
        ends = np.append(starts[1:], size)
        cuts = []
        for s, end in zip(starts[over].tolist(), ends[over].tolist()):
            while True:
                s = max(s + 1, int(np.searchsorted(cum, cum[s] + limit, side="right")) - 1)
                if s >= end:
                    break
                cuts.append(s)
        starts = np.union1d(starts, np.array(cuts, dtype=np.int64))
    return starts


def _prefix_products(mats: np.ndarray, starts: np.ndarray) -> None:
    """Replace each step's matrix by the product of its group's steps up to it, in place.

    mats has shape (2, 2, steps, columns), the steps in the order taken; step
    i becomes M_i ... M_s for the first step s of its group.  This is the
    Hillis-Steele scan: after the round of span d a step holds the product of
    up to 2 d steps, so log2 of the longest group rounds of whole-array
    operations suffice.
    """
    steps = mats.shape[2]
    sizes = np.diff(np.append(starts, steps))
    pos = np.arange(steps) - np.repeat(starts, sizes)
    span = 1
    while span < sizes.max():
        later, earlier = mats[:, :, span:], mats[:, :, :-span]
        prod = later[:, 0, None] * earlier[0] + later[:, 1, None] * earlier[1]
        np.copyto(later, prod, where=(pos[span:] >= span)[:, None])
        span *= 2


def propagate(
    q,
    lams: np.ndarray,
    y0: np.ndarray,
    x0: float,
    x1: float,
    t_eval: np.ndarray,
    *,
    rtol: float = 1e-10,
    mesh: Mesh | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate w_i'' = (q - lam_i) w_i for all lam_i at once with rescaling.

    This is the one linear propagator of the package: the scan, the decay
    recovery (its two anchors as two states of one energy), the round trip,
    the glued certificate's tail check, the growth trials (as states of one
    energy), the identity suite and the Riccati comparison curves (as the
    Jacobi equation) all integrate through it.  q is a
    ChannelPotential or a callable.  Each step is the sixth-order Magnus
    step on three Gauss nodes (_steps): a constant q is integrated exactly,
    every step matrix has determinant 1, and a step backward is the inverse
    of the step forward.  The nodes (_nodes) are placed on the ascending
    interval, so both directions use the same nodes; they hold every kink of
    a ChannelPotential (glue radii and spline knots, where q is only C^1)
    and every sample point.  They come from mesh, a step selection
    (select_mesh) that must cover q, the interval, every lam and rtol, or
    ConfigError is raised, as it is for an empty or non-finite lams; without
    one the call selects its own for the interval and the range of lams, so
    a lam's result depends on that range at the discretisation level.  Calls
    that share a mesh share those steps.

    The steps are taken in blocks of about _BLOCK values (matrix entries and
    q samples), q sampled once per block.  A block is cut into groups of up
    to 2^floor(log2(512 / K)) steps for K energies, and also wherever the
    product of the bounds e^|Omega| on the step norms would pass 1e75 or the
    product of the steps' larger eigenvalues e^sqrt(z) would pass e^2; the
    products of every group's steps are formed at once (_prefix_products),
    and one Python iteration per group carries the state across it.  States
    are formed only at the sampled nodes.

    Layouts: q is sampled node-major, (3, steps) (_sample_q); the norm and
    growth bounds are read from the exponent at the two extreme energies,
    two (2, steps) rows (_exponent), so their arithmetic runs along the
    steps.  The K-wide step matrices stay step-major, (2, 2, steps, K):
    each group's carry and each prefix round then read rows of K energies.
    Laid out energy-major, (2, 2, K, steps), the same values took 155-160 ms
    per call against 114-126 ms on the glued scan's shared span (K = 201,
    m = 3, [32.768, 1000]; 2-core sandbox), since the carry and the prefix
    rounds then work on short strided rows.

    y0 of shape (2, K) holds one state per energy; of shape (2, m, K), m
    states at each energy, which share its steps and prefix products, so the
    group length comes from K alone.  The carried states are measured once
    the step-norm bound since the last measurement could carry them to
    1e150, and divided by their maximum when that reaches 1e150 (a single
    common factor keeps the linear system exact), the log of the factor added
    to the call's one offset ledger; a sampled state that reaches 1e150 is
    rescaled the same way.  Samples are taken at the t_eval points strictly
    after x0 up to and including x1.  Returns (x ascending, (w, w') rescaled,
    of shape (2, K, M) for a (2, K) y0 and (2, m, K, M) for a (2, m, K) one,
    offsets of shape (M,)).
    """
    q_fn, kinks = _q_parts(q)
    lams = _energies(lams)
    forward = x1 > x0
    sign = 1.0 if forward else -1.0
    t_eval = np.asarray(t_eval, dtype=float)
    x_out = np.unique(t_eval[(sign * t_eval > sign * x0) & (sign * t_eval <= sign * x1)])
    if not x_out.size:
        raise WarpspecError("no requested sample points were reached")
    lo, hi = (float(x0), float(x1)) if forward else (float(x1), float(x0))
    if mesh is None:
        mesh = select_mesh(q, lo, hi, lams, rtol=rtol)
    else:
        _refuse_foreign_mesh(mesh, q_fn, kinks, lo, hi, lams, rtol)
    nodes = _nodes(mesh, lo, hi, x_out)
    h = np.diff(nodes)
    # the steps in the order taken, and whether the node each one ends on is sampled
    order = np.arange(h.size) if forward else np.arange(h.size)[::-1]
    sampled = np.isin(nodes, x_out)[order + 1 if forward else order]
    group, block = _group_steps(lams.size), _block_steps(lams.size, _NODES.size)

    y = np.array(y0, dtype=float)
    states = y.ndim == 3
    # (2, m, K): m states at each of the K energies
    y = y.reshape(2, -1, lams.size)
    out = np.empty((2, *y.shape[1:], x_out.size))
    offs = np.empty(x_out.size)
    k, offset = 0, 0.0
    grown, check_at = 0.0, -math.inf
    extremes = np.array([[lams.min()], [lams.max()]])
    for first in range(0, h.size, block):
        idx = order[first : first + block]
        coef = [sign * e for e in _step_coefficients(_sample_q(q_fn, nodes[idx], h[idx], _NODES), h[idx])]
        mats = _steps([e[:, None] for e in coef], lams)
        # log of the bound e^|Omega| on a step's norm, |Omega| the largest
        # row sum, and the log sqrt(max(z, 0)) of the modulus of the step's
        # larger eigenvalue: the row sum and z are convex in lam, so both are
        # largest at an extreme lam, and are read from the exponent's two rows
        p, u, l, z = _exponent(coef, extremes)
        lognorm = np.max(np.abs(p) + np.maximum(np.abs(u), np.abs(l)), axis=0)
        growth = np.sqrt(np.maximum(np.max(z, axis=0), 0.0))
        starts = _group_starts([(lognorm, _GROUP_LOG), (growth, _GROWTH_LOG)], group)
        _prefix_products(mats, starts)
        bound = (grown + np.cumsum(np.add.reduceat(lognorm, starts))).tolist()
        grown = bound[-1]
        ys, logs = [], []
        for e, g_e in zip((np.append(starts[1:], idx.size) - 1).tolist(), bound):
            ys.append(y)
            logs.append(offset)
            y = mats[:, 0, e, None] * y[0] + mats[:, 1, e, None] * y[1]
            if g_e > check_at:
                mx = float(np.max(np.abs(y)))
                if mx >= 1e150:
                    y, offset, mx = y / mx, offset + math.log(mx), 1.0
                check_at = g_e + _CAP_LOG - math.log(mx) if mx > 0 else math.inf
        # the sampled states, each from the first state of its group; one that
        # reaches 1e150 is rescaled on its own
        j = np.flatnonzero(sampled[first : first + block])
        g = np.searchsorted(starts, j, side="right") - 1
        y_g = np.array(ys)[g]
        at = mats[:, 0, j, None] * y_g[:, 0] + mats[:, 1, j, None] * y_g[:, 1]
        mx = np.max(np.abs(at), axis=(0, 2, 3))
        scale = np.where(mx >= 1e150, mx, 1.0)
        out[..., k : k + j.size] = (at / scale[:, None, None]).transpose(0, 2, 3, 1)
        offs[k : k + j.size] = np.array(logs)[g] + np.log(scale)
        k += j.size
    if not forward:
        out, offs = out[..., ::-1], offs[::-1]
    return x_out, out if states else out[:, 0], offs


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
    q_fn, _ = _q_parts(q)
    x0, x1 = float(span[0]), float(span[1])
    if min(x0, x1) <= 0:
        raise ConfigError("span must stay within x > 0")
    for x in (x0, x1):
        _refuse_singular_start(q_fn, x)
    lams, ends = np.array([float(lam)]), np.array([x0, x1])
    mesh = select_mesh(q, min(x0, x1), max(x0, x1), lams, rtol=rtol)
    _, y, off = propagate(q, lams, np.array(init, dtype=float).reshape(2, 1), x0, x1, ends, rtol=rtol, mesh=mesh)
    _, back, off_back = propagate(q, lams, y[:, :, -1], x1, x0, ends, rtol=rtol, mesh=mesh)
    # both runs may have rescaled; the true recovered state carries both factors
    rec = back[:, 0, 0] * math.exp(off[-1] + off_back[0])
    scale = max(abs(init[0]), abs(init[1]), 1e-300)
    return float(max(abs(rec[0] - init[0]), abs(rec[1] - init[1])) / scale)


def synthetic_channel(
    *,
    k_eff: float,
    limit: float = 0.0,
    phase: float = 0.0,
    remainder_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    j: int = 0,
) -> ChannelPotential:
    """Channel potential q = limit + k_eff sin(2x + phase)/x + remainder on [1, oo), labelled n = 3.

    For detector and decay studies independent of any warp profile.  The tail
    fit metadata comes from fit_tail_oscillation on [1, 600], the sampler
    channel_potential uses, so the detector preconditions are exercised
    honestly.
    """

    def q_fn(x):
        x = np.asarray(x, dtype=float)
        out = limit + k_eff * np.sin(2.0 * x + phase) / x
        if remainder_fn is not None:
            out = out + remainder_fn(x)
        return out

    # any amplitude is accepted: the caller chose the tail
    fit = fit_tail_oscillation(q_fn, limit, 1.0, 600.0)
    return ChannelPotential(
        n=3,
        j=j,
        lam_sphere=0.0,
        limit=float(limit),
        q_fn=q_fn,
        x_min=1.0,
        origin_exponent=None,
        k_eff=fit.k_eff,
        phase=fit.phase,
        remainder_slope=fit.remainder_slope,
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
    q: ChannelPotential, lam: float, *, r_anchor: float = 2000.0, rtol: float = 1e-11
) -> ShootingResult:
    """Recover the solution decaying at infinity by backward integration.

    Integrates from r_anchor down to x = 1, sampled at 1 + i pi/40.  lam must
    lie above the potential limit (NonOscillatoryError otherwise) and within
    0.05 of the resonance at limit + 1, and the tail must be a resonant
    oscillation with |k_eff| > 2 (otherwise no square-integrable solution
    exists and NoDecayingSolutionError is raised).  The expected envelope is
    x^(-k_eff/4); a power-law fit of the amplitude over
    [r_anchor/20, r_anchor/2] is stored in meta["decay_fit"].

    The run is repeated from anchor 2 * r_anchor: that run integrates
    [r_anchor, 2 r_anchor] on its own step selection, and its state at
    r_anchor, normalised, rides as a second state of the energy in the one
    propagate call on [1, r_anchor], which selects its steps for that span
    alone, so x, w and w' are those of a lone run from r_anchor.  A run from
    2 r_anchor on its own selection of [1, 2 r_anchor] would take the same
    steps on [1, 2^floor(log2 r_anchor)], the cells being cut at 2^i and
    selected independently, so the two solutions, compared on the grid after
    least-squares rescaling, differ by the seed's error plus that of the
    [r_anchor, 2 r_anchor] leg.  Disagreement beyond 1e-4 raises
    TwoRunMismatchError and the achieved agreement lands in
    meta["two_run_agreement"].
    """
    if not isinstance(q, ChannelPotential):
        raise ConfigError("decaying_solution needs a ChannelPotential")
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

    lams, step = np.array([lam]), math.pi / 40.0
    grid = 1.0 + step * np.arange(int((r_anchor - 1.0) / step + 1e-9) + 1)
    far = np.array(_decaying_seed(q.k_eff, q.phase, kappa, 2.0 * r_anchor)).reshape(2, 1)
    _, yb, _ = propagate(q, lams, far, 2.0 * r_anchor, r_anchor, [r_anchor], rtol=rtol)
    y0 = np.stack([_decaying_seed(q.k_eff, q.phase, kappa, r_anchor), yb[:, 0, 0] / np.max(np.abs(yb))], axis=1)
    x, y, off = propagate(q, lams, y0[:, :, None], r_anchor, 1.0, grid, rtol=rtol)
    # both states share the call's one offset ledger, so their raw values compare
    (w, wb), wp = y[0, :, 0], y[1, 0, 0]
    sc = float(np.dot(wb, w) / np.dot(wb, wb))
    agreement = float(np.max(np.abs(sc * wb - w)) / np.max(np.abs(w)))
    if agreement > 1e-4:
        raise TwoRunMismatchError(
            f"backward runs from {r_anchor} and {2 * r_anchor} disagree by {agreement:.3g}"
        )

    res = ShootingResult(
        x=x,
        w=w,
        w_prime=wp,
        lam=float(lam),
        amplitude=np.hypot(w, wp / kappa),
        log_offset=off if np.max(np.abs(off)) > 0 else None,
    )
    res.meta["two_run_agreement"] = agreement
    res.meta["decay_fit"] = fit_power_decay(res.x, res.amplitude, window=(r_anchor / 20.0, r_anchor / 2.0))
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


def _regular_start(q: ChannelPotential) -> float:
    """Start point of the regular solution at the origin: inside the Frobenius
    region of an x^-2 singular q, else x_min, where q must be regular."""
    if q.origin_exponent is not None:
        return 1e-3 if q.origin_exponent <= 1.2 else 0.3
    _refuse_singular_start(q.q_fn, q.x_min)
    return q.x_min


def _forward_start(q: ChannelPotential, lam: float | np.ndarray) -> tuple[float, np.ndarray]:
    """Start point and state column(s) for the regular solution at the origin."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    x0 = _regular_start(q)
    if q.origin_exponent is not None:
        s = q.origin_exponent
        q_reg = float(q.q_fn(x0)) - s * (s - 1.0) / (x0 * x0)
        cols = np.array([frobenius_init(s=s, q_reg=q_reg, lam=l, x0=x0) for l in lams]).T
        return x0, cols
    cols = np.tile(np.array([[0.0], [1.0]]), (1, len(lams)))
    return x0, cols


def _probe_start(q: ChannelPotential, origin_bc: str | None) -> float:
    """Near end of a probe's interval: the regular start, or max(1, x_min)
    for origin_bc None."""
    if origin_bc == "regular":
        return _regular_start(q)
    if origin_bc is None:
        return max(1.0, q.x_min)
    raise ConfigError(f"origin_bc must be 'regular' or None, got {origin_bc!r}")


def _grid_step(lambda_grid: np.ndarray) -> float:
    """Half-width h of the refinement bracket [lam - h, lam + h]: the grid step."""
    return abs(float(lambda_grid[1] - lambda_grid[0])) if len(lambda_grid) > 1 else 1e-3


def _detector_window(q: ChannelPotential, lambda_grid: np.ndarray) -> np.ndarray:
    """Ends of an energy window holding the grid and every refinement bracket:
    [max(lam_min - h, (limit + lam_min) / 2), lam_max + h], h the grid step."""
    h = _grid_step(lambda_grid)
    lo, hi = float(np.min(lambda_grid)), float(np.max(lambda_grid))
    return np.array([max(lo - h, 0.5 * (q.limit + lo)), hi + h])


def _probe_samples(r_max: float) -> np.ndarray:
    """A probe's samples: 100 geometric from r_max / 20 to r_max."""
    return np.geomspace(r_max / 20.0, r_max, 100)


def _backward_stop(channels: Sequence[ChannelPotential], t_eval: np.ndarray) -> float:
    """Where a backward probe of the channels stops: at its first sample t_eval[0],
    or at their common near end max(1, x_min) when that lies beyond it."""
    return max(float(t_eval[0]), *(_probe_start(q, None) for q in channels))


def _probe_channels(
    channels: Sequence[ChannelPotential],
    lams: np.ndarray,
    *,
    origin_bc: str | None,
    r_max: float,
    rtol: float,
    meshes: Sequence[Mesh | None],
    split: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Envelope exponents and their stderrs, of shape (m, K), of m channels at
    K energies: the log-log slope of rho = hypot(w, w'/kappa) over
    [r_max / 10, r_max].

    Channel i integrates on meshes[i].  Beyond split the channels share the
    potential and the mesh of channels[0], and one propagate call carries all
    their states, m per energy, each normalised at split with its own offset;
    below split each channel runs on its own.  A forward probe runs from each
    channel's regular start to split and then the shared span; a backward one
    seeds the decaying direction at r_max, runs the shared span first and
    stops at its last sample (_backward_stop).  With split at r_max nothing is
    shared; with split at every channel's near end, all is.  The samples from
    r_max / 20 fix mesh nodes, so they stay although the fit skips them.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    t_eval = _probe_samples(r_max)
    forward = origin_bc == "regular"
    if forward:
        states = [_forward_start(q, lams)[1] for q in channels]
        own = [(_regular_start(q), split) for q in channels]
        shared = (split, r_max)
    else:
        _probe_start(channels[0], origin_bc)  # refuses an unknown origin_bc
        states = [
            np.array([_decaying_seed(q.k_eff, q.phase, kap, r_max) for kap in np.sqrt(lams - q.limit)]).T
            for q in channels
        ]
        stop = _backward_stop(channels, t_eval)
        cut = max(split, stop)
        own = [(cut, stop)] * len(channels)
        shared = (r_max, cut)
    bases = [0.0] * len(channels)
    pieces: list[list] = [[] for _ in channels]

    def keep(i: int, x: np.ndarray, y: np.ndarray, off: np.ndarray) -> None:
        """Keep channel i's samples of a leg; its state at the leg's end,
        divided by its maximum, starts the next leg."""
        pieces[i].append((x, y, off + bases[i]))
        end = -1 if forward else 0
        mx = float(np.max(np.abs(y[:, :, end])))
        states[i] = y[:, :, end] / mx
        bases[i] += off[end] + math.log(mx)

    def own_legs() -> None:
        for i, (q, mesh, (x0, x1)) in enumerate(zip(channels, meshes, own)):
            if x0 != x1:
                keep(i, *propagate(q, lams, states[i], x0, x1, np.union1d(t_eval, [x1]), rtol=rtol, mesh=mesh))

    def shared_leg() -> None:
        x0, x1 = shared
        if x0 != x1:
            y0 = np.stack(states, axis=1)
            x, y, off = propagate(channels[0], lams, y0, x0, x1, np.union1d(t_eval, [x1]), rtol=rtol, mesh=meshes[0])
            for i in range(len(channels)):
                keep(i, x, y[:, i], off)

    for leg in (own_legs, shared_leg) if forward else (shared_leg, own_legs):
        leg()

    env = np.empty((len(channels), lams.size))
    env_se = np.empty_like(env)
    for i, q in enumerate(channels):
        x, y, off = (np.concatenate(parts, axis=-1) for parts in zip(*sorted(pieces[i], key=lambda p: p[0][0])))
        # log envelopes, one column per lam
        la = (np.log(np.hypot(y[0], y[1] / np.sqrt(lams - q.limit)[:, None])) + off).T
        fit = np.isin(x, t_eval) & (x >= r_max / 10.0)
        env[i], env_se[i], _ = _loglog_fit(np.log(x)[fit], la[fit])
    return env, env_se


def _probe_exponents(
    q: ChannelPotential,
    lams: np.ndarray,
    *,
    origin_bc: str | None,
    r_max: float,
    rtol: float,
    mesh: Mesh | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Envelope exponent and its stderr for each lam of one channel
    (_probe_channels, nothing shared): every lam is integrated in one
    propagate call, on mesh when given, and all of them are fitted at once."""
    env, env_se = _probe_channels([q], lams, origin_bc=origin_bc, r_max=r_max, rtol=rtol, meshes=[mesh], split=r_max)
    return env[0], env_se[0]


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
    refine: bool = True,
    rtol: float = 1e-10,
    mesh: Mesh | None = None,
    exponents: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[EigenDetection]:
    """Classify each lam on the grid as embedded eigenvalue or not.

    origin_bc = "regular" probes the solution selected by the regular boundary
    condition at the origin (an eigenvalue fires only when that solution is
    itself square integrable); origin_bc = None probes for the existence of a
    square-integrable solution by seeding the decaying direction at r_max and
    integrating backward.  A point fires when its envelope exponent is below
    -0.55: rho^2 = O(x^-1.1), so the probed solution is L^2.  With refine,
    the fired point of lowest envelope exponent is refined by minimising that
    exponent over [lam - h, lam + h] (h the grid step, the bracket kept above
    the essential-spectrum edge) with batched zooming, one probe call of 17
    energies per round down to a relative spacing of 1e-7; its evidence
    records refine_probe_calls, refine_lambdas and refine_bracket_width.  When
    a refinement probe fails, refined_lam falls back to the grid point.

    The grid probe and every zoom round integrate on one step selection:
    mesh when given (it must cover the probe's interval and the window
    below), else one selected here for the probe's interval and the window
    [max(lam_min - h, (limit + lam_min) / 2), lam_max + h], which holds every
    refinement bracket.  So a lam's exponents do not depend on the batch
    that probes it.  exponents is scan_channels' hand-over: the envelope
    exponents and stderrs of the grid, which the scan probed with the
    channels' common tail shared; given, the detector runs no grid probe.

    The detector refuses potentials without a verified x^-1 sinusoid tail
    (k_eff absent, or the fit remainder not provably O(x^-1-eps)).
    """
    lambda_grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    _detector_preflight(q, lambda_grid)
    if mesh is None:
        mesh = select_mesh(q, _probe_start(q, origin_bc), r_max, _detector_window(q, lambda_grid), rtol=rtol)
    if exponents is None:
        exponents = _probe_exponents(q, lambda_grid, origin_bc=origin_bc, r_max=r_max, rtol=rtol, mesh=mesh)
    env, env_se = exponents
    fired = env < _ENVELOPE_THRESHOLD

    detections: list[EigenDetection] = []
    refine_target = None
    if refine and np.any(fired):
        refine_target = int(np.argmin(np.where(fired, env, np.inf)))

    for i, lam in enumerate(lambda_grid):
        refined_lam, evidence = None, {}
        if i == refine_target:
            lam = float(lam)
            h = _grid_step(lambda_grid)
            try:
                refined_lam, _, evidence = _zoom_minimum(
                    lambda lams: _probe_exponents(q, lams, origin_bc=origin_bc, r_max=r_max, rtol=rtol, mesh=mesh)[0],
                    max(lam - h, 0.5 * (q.limit + lam)),
                    lam,
                    lam + h,
                )
            except WarpspecError:
                refined_lam = lam
        detections.append(
            EigenDetection(
                j=q.j,
                lam=float(lam),
                verdict=bool(fired[i]),
                envelope_exponent=float(env[i]),
                envelope_stderr=float(env_se[i]),
                refined_lam=refined_lam,
                evidence=evidence,
            )
        )
    return detections


def fired_detections(detections: Sequence[EigenDetection]) -> list[EigenDetection]:
    return [d for d in detections if d.verdict]


def _channel_wronskian_drift(
    q: ChannelPotential, lam: float, r_max: float, rtol: float, mesh: Mesh | None = None
) -> float:
    """Relative Wronskian drift of an independent pair across the whole range,
    integrated as two states of the one energy lam."""
    x0, col = _forward_start(q, np.array([lam]))
    y0, wr0 = _companion_columns(float(col[0, 0]), float(col[1, 0]))
    t_eval = np.geomspace(max(1.0, 2.0 * x0), r_max, 120)
    x, y, off = propagate(q, np.array([lam]), y0[:, :, None], x0, r_max, t_eval, rtol=rtol, mesh=mesh)
    return _wronskian_drift(y[:, :, 0], off, wr0)


def energy_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Energies lo, lo + step, ... spaced by step within the window [lo, hi].

    A window that is a whole multiple of step (to 1e-9 steps) ends exactly
    on hi; any other ends on the last point below hi.  A non-finite bound or
    step, a step <= 0 and an empty window (hi <= lo) raise ConfigError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)) or step <= 0:
        raise ConfigError(f"energy grid needs finite bounds and a positive finite step, got [{lo}, {hi}] by {step}")
    if not hi > lo:
        raise ConfigError(f"empty lambda window [{lo}, {hi}]")
    steps = (hi - lo) / step
    if abs(steps - round(steps)) <= 1e-9:
        # lo + m * step may overshoot hi by rounding: 2.2 + 10 * 0.01 > 2.3
        return np.linspace(lo, hi, round(steps) + 1)
    return lo + step * np.arange(math.floor(steps) + 1)


def _shared_radius(
    channels: Sequence[ChannelPotential], mesh: Mesh, starts: Sequence[float], samples: np.ndarray
) -> float:
    """The radius R from which the channels share the potential of channels[0]
    on the nodes of its mesh: the first edge of mesh at or above every start
    and the end of the last step where some channel's q differs from q_0.

    q is compared bit for bit at the Gauss nodes of the steps of a probe on
    mesh with these samples, found by the helpers propagate uses (_nodes,
    _sample_q), so they are the nodes the shared span's steps sample.
    """
    edges = mesh.edges
    reach = max(starts)
    if len(channels) > 1:
        nodes = _nodes(mesh, edges[0], edges[-1], samples[(samples > edges[0]) & (samples <= edges[-1])])
        x, h, ends = nodes[:-1], np.diff(nodes), nodes[1:]
        on = x >= reach
        q0 = _sample_q(channels[0].q_fn, x[on], h[on], _NODES)
        differs = np.zeros(q0.shape[1], dtype=bool)
        for ch in channels[1:]:
            differs |= np.any(_sample_q(ch.q_fn, x[on], h[on], _NODES) != q0, axis=0)
        if np.any(differs):
            reach = max(reach, float(ends[on][np.flatnonzero(differs)[-1]]))
    return float(edges[np.searchsorted(edges, reach)])


def _joined_mesh(q: ChannelPotential, head: Mesh | None, tail: Mesh, at: float) -> Mesh:
    """q's mesh: the cells of head (selected for q up to at; None when q
    starts there) and then the cells of tail from at on."""
    q_fn, kinks = _q_parts(q)
    cells = tail.edges[:-1] >= at
    edges, steps = tail.edges[tail.edges >= at], tail.steps[cells]
    if head is not None:
        edges, steps = np.concatenate([head.edges[:-1], edges]), np.concatenate([head.steps, steps])
    return Mesh(q_fn, tuple(kinks), tail.lam_lo, tail.lam_hi, tail.rtol, edges, steps)


def scan_channels(
    channels: Sequence[ChannelPotential],
    lambda_grid: np.ndarray,
    *,
    origin_bc: str | None = "regular",
    r_max: float = 2000.0,
    rtol: float = 1e-10,
) -> list[ChannelScanReport]:
    """Run the detector, with refinement, over several channels, in channel order.

    Each channel also records the relative Wronskian drift of an independent
    solution pair at the middle grid energy.  Far out the channels coincide:
    lam_j / f^2 falls below half an ulp of q, so q_j equals q_0 bit for bit,
    and the scan integrates that common tail once.  Channel 0
    (channels[0]) selects its steps from its regular start to r_max
    (select_mesh), for the union of the channels' detector windows.  R is the
    first edge of that mesh at or above every channel's start and the end of
    the last step where some channel's q differs from q_0, compared bit for
    bit at the Gauss nodes that the shared span's steps sample
    (_shared_radius).  Every other channel selects a head from its start to
    R, and its mesh is that head joined to channel 0's cells beyond R.  The
    grid probe integrates each channel's head on its own and carries every
    channel's state across [R, r_max] in one propagate call, m states per
    energy (_probe_channels); a backward probe runs that tail first.  With
    one channel, or channels that differ up to r_max, the head or the tail
    is empty and the probe is one call per channel.  The detector then
    refines on the channel's joined mesh, given the probe's exponents, and
    the pair integrates on it too.
    """
    lambda_grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    lam_mid = float(lambda_grid[len(lambda_grid) // 2])
    if not channels:
        return []
    for ch in channels:
        _detector_preflight(ch, lambda_grid)
    window = np.concatenate([_detector_window(ch, lambda_grid) for ch in channels])
    starts = [_regular_start(ch) for ch in channels]
    tail = select_mesh(channels[0], starts[0], r_max, window, rtol=rtol)
    samples = _probe_samples(r_max)
    if origin_bc is None:
        samples = np.union1d(samples, [_backward_stop(channels, samples)])
    split = _shared_radius(channels, tail, starts, samples)
    meshes = [tail] + [
        _joined_mesh(ch, select_mesh(ch, x0, split, window, rtol=rtol) if x0 < split else None, tail, split)
        for ch, x0 in zip(channels[1:], starts[1:])
    ]
    env, env_se = _probe_channels(
        channels, lambda_grid, origin_bc=origin_bc, r_max=r_max, rtol=rtol, meshes=meshes, split=split
    )
    return [
        ChannelScanReport(
            j=ch.j,
            multiplicity=sphere_multiplicity(ch.n, ch.j),
            detections=detect_embedded_eigenvalue(
                ch, lambda_grid, origin_bc=origin_bc, r_max=r_max, rtol=rtol, mesh=mesh, exponents=(e, se)
            ),
            wronskian_drift=_channel_wronskian_drift(ch, lam_mid, r_max, rtol, mesh),
        )
        for ch, mesh, e, se in zip(channels, meshes, env, env_se)
    ]
