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
from warpspec.channel_reduction import channel_potential


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
    # spline knots; legs stopping there keep the round trip across the bridge
    # near 2e-9, one leg straddling them leaves 3e-7 to 1e-6
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
def test_leg_stops_and_frame_keep_closed_form(kinks, shift, backward):
    # q = 0.5 and lam = 1.5: w = sin(x - 1) exactly.  Legs stop at arbitrary
    # kinks, the samples include them, and the amplitude frame runs about a
    # reference limit shifted away from q so that its V = q - limit is nonzero
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


def test_detector_fires_only_at_resonance():
    q = synthetic_channel(k_eff=4.0)
    grid = np.array([0.9, 0.95, 1.0, 1.05, 1.1])
    dets = detect_embedded_eigenvalue(q, grid, origin_bc=None)
    verdicts = [d.verdict for d in dets]
    assert verdicts == [False, False, True, False, False]
    hit = dets[2]
    assert hit.refined_lam is not None
    assert abs(hit.refined_lam - 1.0) <= 2e-3
    assert hit.envelope_exponent < -0.55
    assert hit.integrand_exponent < -1.1


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
