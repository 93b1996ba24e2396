"""Growth functional, seeded growth trials, and integration-by-parts identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpspec.channel_reduction import channel_potential, unfitted_channel_potential
from warpspec.errors import (
    ConfigError,
    HypothesisViolatedError,
    InsufficientDataError,
    OutsideRegimeError,
)
from warpspec.growth_and_identities import (
    GrowthSeries,
    check_growth_dichotomy,
    check_parts_identities,
    conjugation_energy_constant,
    conjugation_energy_margin,
    eigenfunction_growth_series,
    final_decade_report,
    gauge_potential,
    gaussian_fn,
    growth_series,
    growth_thresholds,
    poly_fn,
    power_decay_profile,
    radial_solution_from_w,
    sine_fn,
    slow_log_decay_profile,
    solve_radial,
    standard_identity_data,
    verify_growth_theorem,
)
from warpspec.halfline_solver import fit_power_decay, propagate
from warpspec.warp_geometry import cusp_profile, euclidean_profile, hyperbolic_profile

IDENTITY_NAMES = (
    "divergence_flux",
    "laplacian_parts",
    "dirichlet_energy",
    "weighted_square_flux",
    "weighted_energy_flux",
    "growth_flux_derivative",
)

OMEGA_2 = 4.0 * math.pi


# --------------------------------------------------------------------------
# radial solutions and the surface energy


def test_cusp_radial_solution_closed_form():
    # S = 1, n = 3: phi'' + 2 phi' + 2 phi = 0 with phi(1) = 1, phi'(1) = 0
    # has roots -1 +- i, so phi = e^{-tau} (cos tau + sin tau), tau = t - 1.
    prof = cusp_profile(3)
    sol = solve_radial(prof, alpha=2.0, span=(1.0, 30.0), phi0=1.0, phi_prime0=0.0)[0]
    tau = sol.t - 1.0
    exact = np.exp(-tau) * (np.cos(tau) + np.sin(tau))
    assert float(np.max(np.abs(sol.phi - exact))) < 1e-8
    # residual is a finite-difference defect on the solve grid, so it is
    # stencil-limited rather than solver-limited
    assert sol.residual < 1e-6
    # w = f phi stays O(1) even where phi underflows toward zero
    w_exact = np.cos(tau) + np.sin(tau)
    assert float(np.max(np.abs(sol.w / sol.w[0] - w_exact))) < 1e-8


def test_growth_series_cusp_closed_form():
    # I(t) = omega ((w' - S w)^2 + w^2) = omega (3 - 2 cos 2tau + sin 2tau)
    prof = cusp_profile(3)
    sol = solve_radial(prof, alpha=2.0, span=(1.0, 30.0), phi0=1.0, phi_prime0=0.0)[0]
    series = growth_series(prof, sol, gamma=1.0)
    tau = series.t - 1.0
    scale = sol.w[0] ** 2
    exact = OMEGA_2 * scale * (3.0 - 2.0 * np.cos(2.0 * tau) + np.sin(2.0 * tau))
    assert np.allclose(series.i_values, exact, rtol=1e-7, atol=1e-12 * scale)
    assert np.allclose(series.t_gamma_i, series.t * series.i_values, rtol=1e-14)
    # linear-in-t envelope: the final-decade block minima must ratchet upward
    rep = final_decade_report(series)
    assert rep["increasing"] and rep["grew"]


def test_growth_series_matches_direct_energy():
    prof = cusp_profile(3)
    sol = solve_radial(prof, alpha=1.7, span=(1.0, 25.0), phi0=1.0, phi_prime0=0.0)[0]
    series = growth_series(prof, sol)
    f_sq = np.exp(2.0 * prof.shape.log_f(sol.t))
    direct = OMEGA_2 * f_sq * (sol.phi_prime**2 + sol.phi**2)
    assert np.allclose(series.i_values, direct, rtol=1e-9)


def test_growth_series_outside_regime():
    prof = cusp_profile(3)
    sol = solve_radial(prof, alpha=0.9, span=(1.0, 20.0), phi0=1.0, phi_prime0=0.0)[0]
    # alpha at or below (n-1)^2/4 = 1: no oscillation, no growth statement
    with pytest.raises(OutsideRegimeError):
        growth_series(prof, sol)
    with pytest.raises(OutsideRegimeError):
        verify_growth_theorem(prof, alpha=1.0, trials=1, t_end=595.0)


def test_growth_series_rejects_non_solutions():
    prof = cusp_profile(3)
    sol = solve_radial(prof, alpha=2.0, span=(1.0, 20.0), phi0=1.0, phi_prime0=0.0)[0]
    rng = np.random.default_rng(3)
    noisy = radial_solution_from_w(
        prof,
        channel_potential(prof, 0),
        alpha=2.0,
        t=sol.t,
        w=sol.w * (1.0 + 1e-3 * rng.standard_normal(sol.w.size)),
        w_prime=sol.w_prime,
    )
    assert noisy.residual > 1e-6
    with pytest.raises(ConfigError):
        growth_series(prof, noisy)


@settings(deadline=None, max_examples=4)
@given(
    alpha=st.floats(min_value=1.2, max_value=4.0),
    eta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    model=st.sampled_from(["euclidean", "hyperbolic"]),
)
def test_solve_radial_matches_model_closed_forms(alpha, eta, model):
    # n = 3: w = f phi solves w'' = -k^2 w with f = r, k^2 = alpha (euclidean)
    # or f = sinh r, k^2 = alpha - 1 (hyperbolic)
    t0 = 1.0
    if model == "euclidean":
        prof, f, f1, k = euclidean_profile(3), (lambda r: r), (lambda r: 1.0), math.sqrt(alpha)
    else:
        prof, f, f1, k = hyperbolic_profile(3), np.sinh, np.cosh, math.sqrt(alpha - 1.0)
    phi0, phi1 = math.cos(eta), math.sin(eta)
    sol = solve_radial(prof, alpha=alpha, span=(t0, 30.0), phi0=phi0, phi_prime0=phi1)[0]
    w0, w1 = f(t0) * phi0, f1(t0) * phi0 + f(t0) * phi1
    exact = w0 * np.cos(k * (sol.t - t0)) + (w1 / k) * np.sin(k * (sol.t - t0))
    assert float(np.max(np.abs(f(sol.t) * sol.phi - exact))) <= 1e-8 * math.hypot(w0, w1 / k)


@settings(deadline=None, max_examples=3)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), alpha=st.floats(min_value=1.5, max_value=3.0))
def test_growth_trials_match_single_solutions(power_profile, seed, alpha):
    # the trials share one propagate call; each must agree with its own solve
    verdict = verify_growth_theorem(power_profile, alpha=alpha, trials=3, seed=seed, t0=20.0, t_end=300.0)
    for rep in verdict.trials:
        sol = solve_radial(
            power_profile, alpha=alpha, span=(20.0, 300.0), phi0=math.cos(rep["angle"]), phi_prime0=math.sin(rep["angle"])
        )[0]
        alone = final_decade_report(growth_series(power_profile, sol))
        assert rep["start_value"] == pytest.approx(alone["start_value"], rel=1e-9)
        assert rep["block_minima"] == pytest.approx(alone["block_minima"], rel=1e-9)
        assert rep["grew"] == alone["grew"]


@settings(deadline=None, max_examples=15)
@given(
    data=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1, max_size=5).filter(
        lambda d: all(math.hypot(*p) > 1e-3 for p in d)
    ),
    alpha=st.floats(min_value=1.1, max_value=4.0),
    t0=st.floats(min_value=1.0, max_value=100.0),
)
def test_solve_radial_states_match_their_column_layout(power_profile, data, alpha, t0):
    # the boundary data integrate as states of the one energy alpha; as
    # columns of repeated energies (shorter groups of prefix products) each
    # solution agrees within 1e-12 max |w|
    phi0, phi1 = np.array(data).T
    span = (t0, t0 + 200.0)
    sols = solve_radial(power_profile, alpha=alpha, span=span, phi0=phi0, phi_prime0=phi1)
    q0 = unfitted_channel_potential(power_profile, 0)
    y0 = np.array([[s.w[0] for s in sols], [s.w_prime[0] for s in sols]])
    t = sols[0].t
    _, y, off = propagate(q0, np.full(phi0.size, alpha), y0, t0, t[-1], t, rtol=1e-11)
    for sol, w in zip(sols, y[0] * np.exp(off)):
        assert np.max(np.abs(sol.w[1:] - w)) <= 1e-12 * np.max(np.abs(sol.w))


def test_solve_radial_span_validation():
    prof = cusp_profile(3)
    with pytest.raises(ConfigError):
        solve_radial(prof, alpha=2.0, span=(5.0, 2.0), phi0=1.0, phi_prime0=0.0)[0]
    with pytest.raises(ConfigError):
        solve_radial(prof, alpha=2.0, span=(1.0, prof.r_max + 10.0), phi0=1.0, phi_prime0=0.0)[0]


# --------------------------------------------------------------------------
# final-decade verdicts on synthetic series


def _series(t, i_values):
    t = np.asarray(t, dtype=float)
    i_values = np.asarray(i_values, dtype=float)
    return GrowthSeries(n=3, gamma=1.0, alpha=2.0, t=t, i_values=i_values, t_gamma_i=t * i_values)


def test_final_decade_report_growing():
    t = np.geomspace(10.0, 1000.0, 2000)
    rep = final_decade_report(_series(t, t**0.2))
    assert rep["increasing"] and rep["exceeds_start"] and rep["grew"]
    assert len(rep["block_minima"]) == 4
    assert rep["block_edges"][0] == pytest.approx(100.0)
    assert rep["block_edges"][-1] == pytest.approx(1000.0)


def test_final_decade_report_decaying():
    t = np.geomspace(10.0, 1000.0, 2000)
    rep = final_decade_report(_series(t, t**-2.0))
    assert not rep["increasing"]
    assert not rep["exceeds_start"]
    assert not rep["grew"]


def test_final_decade_report_needs_a_decade():
    t = np.geomspace(150.0, 1000.0, 500)
    with pytest.raises(InsufficientDataError):
        final_decade_report(_series(t, np.ones_like(t)))
    sparse = np.geomspace(10.0, 1000.0, 30)
    with pytest.raises(InsufficientDataError):
        final_decade_report(_series(sparse, np.ones_like(sparse)))


# --------------------------------------------------------------------------
# seeded growth trials on the benchmark ends


def test_power_decay_profile_growth(growth_power_verdict):
    verdict = growth_power_verdict
    assert verdict.passed
    assert len(verdict.trials) == 5
    assert all(rep["grew"] for rep in verdict.trials)
    margins = [rep["block_minima"][-1] / rep["start_value"] for rep in verdict.trials]
    assert min(margins) > 1.5
    assert verdict.hypothesis["ok"] and verdict.hypothesis["mode"] == "block_decay"
    assert verdict.hypothesis["block_slope"] <= -0.05


def test_log_decay_profile_growth():
    prof = slow_log_decay_profile(3)
    verdict = verify_growth_theorem(prof, alpha=2.0, trials=3, seed=1, t0=50.0, t_end=1000.0)
    assert verdict.passed
    assert verdict.hypothesis["mode"] == "block_decay"


def test_cusp_profile_growth_vanishing_hypothesis():
    prof = cusp_profile(3, r_max=600.0)
    verdict = verify_growth_theorem(prof, alpha=2.0, trials=3, seed=0, t0=50.0, t_end=595.0)
    assert verdict.passed
    # K_rad = -1 exactly, so r |K_rad + 1| vanishes identically
    assert verdict.hypothesis["mode"] == "vanishing"
    assert verdict.hypothesis["sup"] <= 1e-8


def test_resonant_tail_violates_growth_hypothesis(glued_k1):
    # r (K_rad + 1) oscillates with constant amplitude 2 sqrt(2) k: the
    # refusal is the sharpness phenomenon, not a numerical failure
    with pytest.raises(HypothesisViolatedError):
        verify_growth_theorem(glued_k1.profile, alpha=glued_k1.b_n, t0=50.0, t_end=1000.0)


def test_embedded_eigenfunction_energy_decays(glued_k25):
    series = eigenfunction_growth_series(glued_k25, gamma=1.0)
    ratio = float(series.t_gamma_i[-1] / series.t_gamma_i[0])
    assert ratio == pytest.approx(0.00034525882040538765, rel=1e-6)
    assert ratio < 0.01
    # t I(t) ~ t^{1 - k_eff/2} for the resonant tail
    fit = fit_power_decay(series.t, series.t_gamma_i, window=(60.0, 950.0))
    predicted = 1.0 - 0.5 * glued_k25.diagnostics["k_eff"]
    assert fit.exponent == pytest.approx(predicted, abs=0.1)


# --------------------------------------------------------------------------
# thresholds, conjugation constants, dichotomy quadrature


def test_growth_thresholds_reference_point():
    th = growth_thresholds(n=3, gamma=1.0, a1=0.1, b1_half=0.1)
    assert th.admissible
    assert th.a1_hat == pytest.approx(0.2)
    assert th.b1_hat == pytest.approx(0.2)
    assert th.ricci_b1 == pytest.approx(0.2)
    assert th.m1 == pytest.approx(0.625)
    assert th.gap_hessian_ricci == pytest.approx(1.0)
    assert th.gap_hessian_pinch == pytest.approx(1.0)


def test_growth_thresholds_inadmissible_window():
    th = growth_thresholds(n=3, gamma=1.0, a1=0.6, b1_half=0.1)
    assert not th.admissible
    assert th.m1 is None and th.gap_hessian_ricci is None and th.gap_hessian_pinch is None
    with pytest.raises(ConfigError):
        growth_thresholds(n=3, gamma=0.0, a1=0.1, b1_half=0.1)
    with pytest.raises(ConfigError):
        growth_thresholds(n=3, gamma=1.0, a1=-0.1, b1_half=0.1)


def test_conjugation_energy_constant_values():
    assert conjugation_energy_constant(3) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-15)
    for n in range(2, 8):
        eps = conjugation_energy_constant(n)
        c = 0.5 * (n - 1)
        assert 0.0 < eps < 1.0
        assert abs(eps * eps - (2.0 + c * c) * eps + 1.0) < 1e-12
    with pytest.raises(ConfigError):
        conjugation_energy_constant(1)


@settings(deadline=None, max_examples=60)
@given(
    pairs=st.lists(
        st.tuples(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e6, 1e6, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
    n=st.integers(min_value=2, max_value=8),
)
def test_conjugation_energy_margin_nonnegative(pairs, n):
    u = np.array([p[0] for p in pairs])
    up = np.array([p[1] for p in pairs])
    scale = 1.0 + float(np.max(u * u + up * up))
    assert conjugation_energy_margin(u, up, n=n) >= -1e-12 * scale


def test_check_growth_dichotomy_quadrature():
    t = np.geomspace(10.0, 1000.0, 5000)
    rep = check_growth_dichotomy(t, 2.0 / t, gamma=1.0, c1=2.0)
    assert rep["ok"]
    assert rep["lower_bound"] == pytest.approx(2.0 * math.log(100.0), rel=1e-15)
    assert rep["volume_integral"] == pytest.approx(2.0 * math.log(100.0), rel=1e-6)
    rep2 = check_growth_dichotomy(t, 3.0 / t**2, gamma=2.0, c1=3.0)
    assert rep2["ok"]
    assert rep2["lower_bound"] == pytest.approx(3.0 * (0.1 - 0.001), rel=1e-12)
    with pytest.raises(ConfigError):
        check_growth_dichotomy(t, 2.0 / t, gamma=1.0, c1=2.5)


# --------------------------------------------------------------------------
# gauge potential and the six integration-by-parts identities


# peaks of |d^k/dx^k exp(-x^2)| for k = 0..5 (Hermite functions, rounded up)
GAUSSIAN_PEAKS = (1.0, 0.858, 2.0, 3.91, 12.0, 32.72)
FD_STEP = 1e-3
FD_RADII = np.linspace(-4.0, 4.0, 81)


def _poly_peak(coeffs, m):
    # bound on |p^(m)| over |r| <= 4 + FD_STEP
    r = 4.0 + FD_STEP
    return sum(abs(c) * math.perm(k, m) * r ** (k - m) for k, c in enumerate(coeffs) if k >= m)


def _sine_case(amp, freq, shift):
    return sine_fn(amp, freq, shift), lambda m: abs(amp) * freq**m + (abs(shift) if m == 0 else 0.0)


def _gaussian_case(center, width, amp):
    return gaussian_fn(center, width, amp), lambda m: abs(amp) * GAUSSIAN_PEAKS[m] / width**m


def _poly_case(coeffs):
    return poly_fn(coeffs), lambda m: _poly_peak(coeffs, m)


def _floats(lo, hi):
    # subnormal parameters round in absolute, not relative, terms
    return st.floats(lo, hi, allow_subnormal=False)


SMOOTH_FNS = st.one_of(
    st.builds(_sine_case, _floats(-2.0, 2.0), _floats(0.1, 3.0), _floats(-2.0, 2.0)),
    st.builds(_gaussian_case, _floats(-5.0, 5.0), _floats(0.5, 5.0), _floats(-2.0, 2.0)),
    st.builds(_poly_case, st.lists(_floats(-1.0, 1.0), min_size=1, max_size=6)),
)


@settings(max_examples=80, deadline=None)
@given(SMOOTH_FNS)
def test_smooth_fn_derivatives_match_central_differences(case):
    # each of d1, d2, d3 is the central difference of the one below it, up to
    # the truncation h^2/6 max|f^(m+3)| and the rounding of the quotient
    fn, peak = case
    chain = (fn.value, fn.d1, fn.d2, fn.d3)
    eps = np.finfo(float).eps
    for m in range(3):
        cd = (chain[m](FD_RADII + FD_STEP) - chain[m](FD_RADII - FD_STEP)) / (2.0 * FD_STEP)
        bound = FD_STEP**2 / 6.0 * peak(m + 3) + 64.0 * eps / FD_STEP * (peak(m) + peak(m + 1))
        assert np.max(np.abs(cd - chain[m + 1](FD_RADII))) <= bound, m


def test_gauge_potential_constant_on_cusp():
    prof = cusp_profile(3)
    r = np.linspace(1.0, 30.0, 400)
    q, qp = gauge_potential(prof, poly_fn([0.0]), lam=2.0)
    assert np.allclose(q(r), 2.0, atol=1e-12)
    assert np.allclose(qp(r), 0.0, atol=1e-12)
    q_off, _ = gauge_potential(prof, poly_fn([0.0]), lam=2.0, c=0.7)
    assert np.allclose(q_off(r), 2.0 + 0.7 * (1.4 - 2.0), atol=1e-12)


def test_identity_suite_cusp_plain():
    plain = standard_identity_data()[0]
    checks = check_parts_identities(cusp_profile(3), plain, span=(1.0, 12.0))
    assert tuple(c.name for c in checks) == IDENTITY_NAMES
    assert all(c.passed for c in checks)
    assert max(c.residual for c in checks) < 1e-9


def test_identity_suite_all_bundles_euclidean():
    prof = euclidean_profile(3)
    for data in standard_identity_data():
        checks = check_parts_identities(prof, data, span=(1.0, 12.0), tol=1e-8)
        assert all(c.passed for c in checks), data.name
        assert all(c.tolerance == 1e-8 for c in checks)


def test_identity_suite_hyperbolic_gauged():
    gauged = standard_identity_data()[1]
    checks = check_parts_identities(hyperbolic_profile(3), gauged, span=(0.5, 10.0))
    assert all(c.passed for c in checks)


def test_identity_suite_glued_tail_span(glued_k1):
    prof = glued_k1.profile
    r2 = glued_k1.r2
    plain = standard_identity_data()[0]
    checks = check_parts_identities(prof, plain, span=(r2 + 1.0, r2 + 50.0))
    assert tuple(c.name for c in checks) == IDENTITY_NAMES
    assert max(c.residual for c in checks) < 1e-7


def test_identity_suite_glued_across_junctions(glued_k1):
    prof = glued_k1.profile
    plain = standard_identity_data()[0]
    checks = check_parts_identities(prof, plain, span=(1.5, 8.0))
    assert max(c.residual for c in checks) < 1e-8


def test_identity_span_validation():
    prof = cusp_profile(3)
    plain = standard_identity_data()[0]
    with pytest.raises(ConfigError):
        check_parts_identities(prof, plain, span=(1.0, prof.r_max + 5.0))

