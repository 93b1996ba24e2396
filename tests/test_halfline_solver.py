"""Half-line Schrodinger integration, decay recovery, embedded-point detector."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpspec import (
    ConfigError,
    DetectorRefusalError,
    NoDecayingSolutionError,
    NonOscillatoryError,
    SingularOriginError,
    detect_embedded_eigenvalue,
    fit_power_decay,
    frobenius_init,
    integrate_schrodinger,
    prufer_series,
    reversibility_check,
    scan_channels,
    synthetic_channel,
)
from warpspec import halfline_solver
from warpspec.channel_reduction import channel_potential
from warpspec.halfline_solver import _ZOOM_XTOL, _zoom_minimum


def test_free_oscillator_matches_sine():
    x0 = 1e-9
    res = integrate_schrodinger(
        lambda x: 0.0 * np.asarray(x), 1.0, span=(x0, 100.0), init=(math.sin(x0), math.cos(x0))
    )
    assert np.max(np.abs(res.w - np.sin(res.x))) < 1e-8


def test_exponential_growth_rate():
    res = integrate_schrodinger(lambda x: 2.0 + 0.0 * np.asarray(x), 1.0, span=(1.0, 40.0), init=(1.0, 1.0))
    slope = np.polyfit(res.x, np.log(np.abs(res.w)), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-4)


def test_renormalization_in_spectral_gap():
    # below the limit the backward recovery grows like e^{kappa (anchor - x)},
    # far past float64 range over 2000 units; offsets must fold back so the
    # fitted rate of the true log envelope equals -sqrt(limit - lam)
    q = synthetic_channel(k_eff=4.0, limit=2.0)
    from warpspec import decaying_solution

    res = decaying_solution(q, 1.0, r_anchor=2000.0, verify=False)
    assert res.log_offset is not None and float(np.max(res.log_offset)) > 100.0
    assert res.meta["gap_rate"] == pytest.approx(-1.0, abs=1e-3)


def test_companion_wronskian_drift_small():
    q = synthetic_channel(k_eff=2.5)
    res = integrate_schrodinger(q, 1.3, span=(1.0, 500.0), init=(0.0, 1.0), companion=True, q_limit=0.0)
    assert res.wronskian_drift is not None
    assert res.wronskian_drift < 1e-8


def test_reversibility():
    q = synthetic_channel(k_eff=2.5)
    err = reversibility_check(q, 1.3, span=(1.0, 500.0), init=(0.0, 1.0))
    assert err < 1e-6


def test_bridge_round_trip_with_legs_split_at_kinks(glued_k1):
    # q0 of the glued profile is only C^1 at both glue radii and the 12 bridge
    # spline knots, where the mesh puts nodes
    q0 = channel_potential(glued_k1.profile, 0)
    knots = glued_k1.profile.params["breakpoints"]
    assert len(knots) == 12
    assert q0.kinks == tuple(sorted([glued_k1.r1, glued_k1.r2, *knots]))
    err = reversibility_check(q0, 2.0, span=(1.0, glued_k1.r2), init=(0.0, 1.0), rtol=1e-12)
    assert err <= 1e-8


@settings(max_examples=25, deadline=None)
@given(
    kinks=st.lists(st.floats(1.5, 29.5), max_size=4, unique=True),
    shift=st.floats(-1.0, 1.0),
    backward=st.booleans(),
)
def test_mesh_stops_keep_closed_form(kinks, shift, backward):
    # q = 0.5 and lam = 1.5: w = sin(x - 1) exactly.  The mesh stops at
    # arbitrary kinks, the samples include them, and the Prufer data is taken
    # about a limit shifted away from q
    q = dataclasses.replace(synthetic_channel(k_eff=0.0, limit=0.5), kinks=tuple(sorted(kinks)))
    t_eval = np.unique(np.concatenate([np.linspace(1.0, 30.0, 59), kinks]))
    span, init = ((30.0, 1.0), (math.sin(29.0), math.cos(29.0))) if backward else ((1.0, 30.0), (0.0, 1.0))
    res = integrate_schrodinger(q, 1.5, span=span, init=init, t_eval=t_eval, q_limit=0.5 + shift)
    assert np.array_equal(res.x, t_eval)
    assert np.max(np.abs(res.w - np.sin(res.x - 1.0))) < 1e-8
    assert np.max(np.abs(res.w_prime - np.cos(res.x - 1.0))) < 1e-8


def test_bad_sample_points_refused():
    q = lambda x: 0.0 * np.asarray(x)
    for t_eval in ([0.5, 2.0], [2.0, 2.0, 3.0]):
        with pytest.raises(ConfigError):
            integrate_schrodinger(q, 1.0, span=(1.0, 10.0), init=(0.0, 1.0), t_eval=np.array(t_eval))


def test_singular_origin_refused():
    with pytest.raises(SingularOriginError):
        integrate_schrodinger(lambda x: 2.0 / np.asarray(x) ** 2, 1.0, span=(1e-3, 10.0), init=(0.0, 1.0))


def test_frobenius_start_matches_closed_form():
    # q = 2/x^2 (indicial root s = 2), lam = 1: the regular solution is
    # proportional to sin(x)/x - cos(x); seed the series at 0.3 and integrate
    # seed at 0.05 where the truncated series is accurate to ~x0^4/280
    w0, wp0 = frobenius_init(s=2.0, q_reg=0.0, lam=1.0, x0=0.05)
    res = integrate_schrodinger(lambda x: 2.0 / np.asarray(x) ** 2, 1.0, span=(0.05, 10.0), init=(w0, wp0))
    exact = 3.0 * (np.sin(res.x) / res.x - np.cos(res.x))
    assert np.max(np.abs(res.w - exact)) < 2e-6


def test_prufer_series_unit_circle():
    x0 = 1.0
    res = integrate_schrodinger(
        lambda x: 0.0 * np.asarray(x), 1.0, span=(x0, 60.0), init=(math.sin(x0), math.cos(x0))
    )
    ps = prufer_series(res, q_limit=0.0)
    assert np.max(np.abs(ps.amplitude - 1.0)) < 1e-8
    with pytest.raises(NonOscillatoryError):
        prufer_series(res, q_limit=1.0)


def test_fit_power_decay_exact_law():
    x = np.geomspace(10.0, 2000.0, 3000)
    fit = fit_power_decay(x, 3.7 * x**-0.75, window=(50.0, 1500.0))
    assert fit.exponent == pytest.approx(-0.75, abs=1e-12)
    assert fit.stderr < 1e-12
    assert math.exp(fit.intercept) == pytest.approx(3.7, rel=1e-10)


def test_synthetic_channel_metadata():
    q = synthetic_channel(k_eff=2.5, limit=1.0, phase=0.4)
    assert q.limit == 1.0
    assert q.k_eff == pytest.approx(2.5, rel=1e-3)
    assert q.phase == pytest.approx(0.4, abs=1e-2)
    assert q.remainder_slope == -math.inf
    # the slope is fitted on x (q - limit), so a q-remainder ~ x^-3 shows as -2
    with_rem = synthetic_channel(k_eff=2.5, remainder_fn=lambda x: 0.3 * np.asarray(x) ** -3.0)
    assert with_rem.remainder_slope is not None
    assert -2.2 < with_rem.remainder_slope < -1.7


def test_decaying_solution_exponents(decay_fit_k25, decay_fit_k40):
    fit25 = decay_fit_k25.meta["decay_fit"]
    fit40 = decay_fit_k40.meta["decay_fit"]
    assert fit25.exponent == pytest.approx(-2.5 / 4.0, abs=0.05)
    assert fit40.exponent == pytest.approx(-4.0 / 4.0, abs=0.05)
    assert decay_fit_k25.meta["two_run_agreement"] < 1e-4
    assert decay_fit_k40.meta["two_run_agreement"] < 1e-4


def test_no_decaying_solution_below_resonance_threshold():
    q = synthetic_channel(k_eff=1.0)
    with pytest.raises(NoDecayingSolutionError):
        decaying_solution_alias(q)


def decaying_solution_alias(q):
    from warpspec import decaying_solution

    return decaying_solution(q, 1.0)


@pytest.fixture(scope="module")
def resonant_detection():
    """The k_eff = 4 detector run over five energies, and the energy count of
    each of its _probe_exponents calls."""
    calls = []
    probe = halfline_solver._probe_exponents

    def counting(q, lams, **kw):
        calls.append(len(np.atleast_1d(lams)))
        return probe(q, lams, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfline_solver, "_probe_exponents", counting)
        dets = detect_embedded_eigenvalue(
            synthetic_channel(k_eff=4.0), np.array([0.9, 0.95, 1.0, 1.05, 1.1]), origin_bc=None
        )
    return dets, calls


def test_detector_fires_only_at_resonance(resonant_detection):
    dets, _ = resonant_detection
    verdicts = [d.verdict for d in dets]
    assert verdicts == [False, False, True, False, False]
    hit = dets[2]
    assert hit.refined_lam is not None
    assert abs(hit.refined_lam - 1.0) <= 2e-3
    assert hit.envelope_exponent < -0.55
    assert hit.integrand_exponent < -1.1


def test_refinement_probes_in_few_batched_calls(resonant_detection):
    # one grid probe plus a few zoom rounds; one golden-section step per
    # probe call took 33 calls here
    dets, calls = resonant_detection
    assert len(calls) <= 10
    assert abs(dets[2].refined_lam - 1.0) <= 2e-3


def test_refinement_counters_in_evidence(resonant_detection):
    dets, calls = resonant_detection
    ev = dets[2].evidence
    assert ev["refine_probe_calls"] == len(calls) - 1
    assert ev["refine_lambdas"] == sum(calls[1:])
    assert 0.0 < ev["refine_bracket_width"] <= 4.0 * _ZOOM_XTOL * dets[2].refined_lam
    assert not any("refine_probe_calls" in d.evidence for d in dets if d is not dets[2])


def test_refinement_bracket_stays_above_the_edge(monkeypatch):
    # a firing at the lowest grid energy, one grid step above the edge at 0:
    # the bracket [lam - h, lam + h] is cut at the midpoint between the edge
    # and lam, and the zoom ends on that cut when the minimum lies beyond it
    probed = []

    def fake_probe(q, lams, **kw):
        probed.append(lams)
        return -1.0 + np.abs(lams - 0.02), np.zeros_like(lams), np.full_like(lams, -2.0)

    monkeypatch.setattr(halfline_solver, "_probe_exponents", fake_probe)
    dets = detect_embedded_eigenvalue(synthetic_channel(k_eff=4.0), np.array([0.1, 0.2, 0.3]), origin_bc=None)
    assert dets[0].refined_lam == 0.05
    assert min(float(np.min(lams)) for lams in probed[1:]) == 0.05


_ZOOM_SHAPES = {
    "abs": lambda x, c: np.abs(x - c),
    "square": lambda x, c: (x - c) ** 2,
    "skewed_v": lambda x, c: np.where(x < c, 5.0 * (c - x), 0.2 * (x - c)),
}


@settings(max_examples=150, deadline=None)
@given(
    lo=st.floats(0.1, 10.0),
    width=st.floats(1e-4, 1.0),
    frac=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-6), st.floats(1.0 - 1e-6, 1.0)),
    shape=st.sampled_from(sorted(_ZOOM_SHAPES)),
)
def test_zoom_minimum_closed_forms(lo, width, frac, shape):
    hi = lo + width
    x_star = min(lo + frac * width, hi)
    probed = []

    def probe(xs):
        probed.append(xs.copy())
        return _ZOOM_SHAPES[shape](xs, x_star)

    x, fx, counters = _zoom_minimum(probe, lo, 0.5 * (lo + hi), hi)
    nearer_edge = lo if x_star - lo <= hi - x_star else hi
    assert abs(x - x_star) <= 2.0 * _ZOOM_XTOL * abs(x_star) or x == nearer_edge
    assert all(lo <= xs.min() and xs.max() <= hi for xs in probed)
    # the spacing starts at width / 16 <= 1/16 and shrinks 8x a round to 2e-7 * lo
    assert counters["refine_probe_calls"] == len(probed) <= 9
    assert counters["refine_lambdas"] == sum(len(xs) for xs in probed)
    assert fx == _ZOOM_SHAPES[shape](np.array([x]), x_star)[0]


def test_detector_silent_below_threshold():
    q = synthetic_channel(k_eff=1.9)
    grid = np.array([0.95, 1.0, 1.05])
    dets = detect_embedded_eigenvalue(q, grid, origin_bc=None)
    assert not any(d.verdict for d in dets)


def test_zero_start_component_raises_no_warning():
    # the (0, 1) start of the Wronskian pair has a zero component, which made
    # scipy's initial-step guess overflow at atol 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = scan_channels([synthetic_channel(k_eff=1.9)], [0.9, 1.0, 1.1], origin_bc=None, r_max=200.0)[0]
    assert rep.wronskian_drift < 1e-8
    assert not any(d.verdict for d in rep.detections)


def test_detector_refuses_unverified_tail():
    q = synthetic_channel(k_eff=4.0, remainder_fn=lambda x: 0.5 * np.asarray(x) ** -0.7)
    with pytest.raises(DetectorRefusalError):
        detect_embedded_eigenvalue(q, np.array([1.0]), origin_bc=None)


def test_detector_rejects_grid_below_limit():
    q = synthetic_channel(k_eff=4.0, limit=1.0)
    with pytest.raises(ConfigError):
        detect_embedded_eigenvalue(q, np.array([0.5, 2.0]), origin_bc=None)


def _constant_transfer(v: float, d: float) -> np.ndarray:
    """Exact transfer matrix of w'' = v w over a signed length d."""
    if v > 0:
        k = math.sqrt(v)
        return np.array([[math.cosh(k * d), math.sinh(k * d) / k], [k * math.sinh(k * d), math.cosh(k * d)]])
    if v < 0:
        k = math.sqrt(-v)
        return np.array([[math.cos(k * d), math.sin(k * d) / k], [-k * math.sin(k * d), math.cos(k * d)]])
    return np.array([[1.0, d], [0.0, 1.0]])


@settings(max_examples=40, deadline=None)
@given(
    kinks=st.lists(st.floats(1.5, 19.5), min_size=1, max_size=5, unique=True),
    levels=st.lists(st.floats(-2.0, 1.0), min_size=6, max_size=6),
    lam=st.floats(0.5, 2.0),
    backward=st.booleans(),
)
def test_propagate_piecewise_constant_closed_form(kinks, levels, lam, backward):
    # q - lam is constant on each piece between random kinks, above or below
    # lam; a Magnus step integrates a constant q exactly and the mesh stops
    # at every kink, so only rounding separates propagate from the closed form
    kinks = sorted(kinks)
    edges = np.array(kinks)
    offsets = np.asarray(levels[: len(kinks) + 1])
    q = dataclasses.replace(
        synthetic_channel(k_eff=0.0),
        q_fn=lambda x: lam + offsets[np.searchsorted(edges, np.asarray(x, dtype=float), side="right")],
        kinks=tuple(kinks),
    )
    x0, x1 = (20.0, 1.0) if backward else (1.0, 20.0)
    t_eval = np.unique(np.concatenate([np.linspace(1.0, 20.0, 39), kinks]))
    x, y, off = halfline_solver.propagate(q, np.array([lam]), np.array([[0.6], [0.8]]), x0, x1, t_eval)
    # walk the closed form through the same breakpoints, in the direction taken
    stops = x if not backward else x[::-1]
    state, at, exact = np.array([0.6, 0.8]), x0, []
    for stop in stops:
        path = [at, *sorted((k for k in kinks if min(at, stop) < k < max(at, stop)), reverse=backward), stop]
        for a, b in zip(path[:-1], path[1:]):
            state = _constant_transfer(float(offsets[np.searchsorted(edges, 0.5 * (a + b))]), b - a) @ state
        exact.append(state)
        at = stop
    exact = np.array(exact if not backward else exact[::-1]).T
    got = y[:, 0, :] * np.exp(off)
    assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.2, 0.5), b=st.floats(-0.15, 0.15), c=st.floats(0.5, 3.0), backward=st.booleans())
def test_propagate_wronskian_through_forced_rescale(a, b, c, backward):
    # the pair starts at 1e149 and grows by e^4 to e^7 over the span, so the
    # common 1e150 rescale happens mid-run; the columns stay independent, so
    # a wrong offset or a step with determinant != 1 would show at 1e-6
    q = lambda x: 1.0 + a + b * np.sin(c * np.asarray(x, dtype=float))
    y0 = 1e149 * np.array([[1.0, 0.3], [0.2, 1.0]])
    x0, x1 = (11.0, 1.0) if backward else (1.0, 11.0)
    x, y, off = halfline_solver.propagate(q, np.array([1.0, 1.0]), y0, x0, x1, np.linspace(1.0, 11.0, 201))
    assert np.max(off) > 300.0 and np.min(off) == 0.0
    assert halfline_solver._wronskian_drift(y, off, float(np.linalg.det(y0))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    k_eff=st.floats(0.0, 4.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    lam=st.floats(0.3, 2.0),
    x1=st.floats(5.0, 300.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    kinks=st.lists(st.floats(1.5, 299.0), max_size=3, unique=True),
)
def test_propagate_round_trip_on_shared_mesh(k_eff, phase, lam, x1, theta, kinks):
    # forward and backward runs build the same mesh on [1, x1], and a step
    # backward inverts the step forward, so the round trip is rounding only
    q = dataclasses.replace(synthetic_channel(k_eff=k_eff, phase=phase), kinks=tuple(sorted(kinks)))
    y0 = np.array([[math.cos(theta)], [math.sin(theta)]])
    _, y, off = halfline_solver.propagate(q, np.array([lam]), y0, 1.0, x1, np.array([x1]))
    _, yb, offb = halfline_solver.propagate(q, np.array([lam]), y[:, :, -1], x1, 1.0, np.array([1.0]))
    assert np.max(np.abs(yb[:, :, 0] * math.exp(off[-1] + offb[0]) - y0)) <= 1e-12


def _bessel_error(kappa: float, x0: float, rtol: float) -> float:
    """Max error of propagate against the regular q = 2/x^2 solution sin(kx)/(kx) - cos(kx)."""
    exact = lambda x: np.sin(kappa * x) / (kappa * x) - np.cos(kappa * x)
    exact_p = lambda x: kappa * (np.sin(kappa * x) + np.cos(kappa * x) / (kappa * x) - np.sin(kappa * x) / (kappa * x) ** 2)
    y0 = np.array([[exact(x0)], [exact_p(x0)]])
    t = np.linspace(x0, x0 + 60.0, 241)
    x, y, off = halfline_solver.propagate(lambda x: 2.0 / np.asarray(x) ** 2, np.array([kappa**2]), y0, x0, t[-1], t, rtol=rtol)
    return float(np.max(np.abs(y[0, 0] * np.exp(off) - exact(x))))


@settings(max_examples=25, deadline=None)
@given(rtol=st.floats(1e-10, 1e-8), kappa=st.floats(0.5, 3.0), x0=st.floats(0.2, 2.0))
def test_propagate_rtol_contract(rtol, kappa, x0):
    # over these 60 units the error against the closed form stays within
    # 20 rtol, so tightening rtol 100x shrinks it 100x; the error of a single
    # run is not monotone in rtol (a looser run can land far below its bound)
    loose, tight = _bessel_error(kappa, x0, rtol), _bessel_error(kappa, x0, rtol / 100.0)
    assert loose <= 20.0 * rtol
    assert tight <= 20.0 * rtol / 100.0
