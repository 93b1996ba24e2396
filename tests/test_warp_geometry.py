"""Warped-product geometry: model profiles, curvature, comparison bounds."""

import dataclasses
import math

import numpy as np
import numpy.polynomial.legendre as npleg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpspec import (
    ComparisonFailureError,
    ConfigError,
    InvalidProfileError,
    ResolutionError,
    curvature_of_profile,
    cusp_profile,
    euclidean_profile,
    fd_derivative,
    hessian_comparison_check,
    hyperbolic_profile,
    profile_from_shape,
    reference_profile,
    solve_riccati_bound,
    sphere_area,
    uniform_grid,
)
from warpspec.cli import profile_from_json, profile_to_json
from warpspec.warp_geometry import DEFAULT_STEP, GaussLegendrePanels

# frozen from scripts/oracle_riccati.py (independent fixed-step RK4)
ORACLE_F1_AT_100 = 0.9949619252164672


def test_sphere_area_closed_forms():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)
    assert sphere_area(5) == pytest.approx(8.0 * math.pi**2 / 3.0, rel=1e-14)


def test_uniform_grid_spacing():
    g = uniform_grid(1.0, 20.0)
    assert g[0] == 1.0
    assert g[-1] <= 20.0 + 1e-12
    steps = np.diff(g)
    assert np.allclose(steps, steps[0], rtol=1e-12)
    assert steps[0] <= DEFAULT_STEP * (1 + 1e-12)


def test_model_profile_curvatures():
    n = 3
    hyp = hyperbolic_profile(n)
    fld = curvature_of_profile(hyp)
    assert np.allclose(fld.k_rad, -1.0, atol=1e-10)
    assert np.allclose(fld.s, 1.0 / np.tanh(fld.grid), atol=1e-10)

    euc = euclidean_profile(n)
    fld_e = curvature_of_profile(euc)
    assert np.allclose(fld_e.k_rad, 0.0, atol=1e-10)
    assert np.allclose(np.exp(euc.shape.log_f(fld_e.grid)), fld_e.grid, rtol=1e-14)
    assert np.allclose(fld_e.s, 1.0 / fld_e.grid, rtol=1e-10)

    cus = cusp_profile(n)
    fld_c = curvature_of_profile(cus)
    assert np.allclose(fld_c.s, 1.0, atol=1e-14)
    assert np.allclose(fld_c.k_rad, -1.0, atol=1e-10)


@pytest.mark.parametrize(
    "make, bound",
    [
        (lambda: euclidean_profile(3), 1e-9),
        (lambda: hyperbolic_profile(3), 1e-8),
        (lambda: hyperbolic_profile(2), 1e-8),
        (lambda: cusp_profile(3), 1e-10),
        (lambda: reference_profile(3, 1.0, r_max=600.0), 1e-6),
    ],
)
def test_trace_identity_residual(make, bound):
    # d(Delta r)/dr + (n-1) S^2 + Ric_rr = 0 against finite differences
    fld = curvature_of_profile(make())
    assert fld.trace_residual <= bound


def test_fd_derivative_accuracy():
    x = uniform_grid(0.5, 30.0)
    d = fd_derivative(x, np.cos(x))
    err = np.abs(d + np.sin(x))
    assert np.max(err) < 1e-7  # one-sided stencils at the segment edges
    assert np.max(err[3:-3]) < 1e-8
    # too few samples, or uneven spacing, for the 7-point stencil
    with pytest.raises(ResolutionError):
        fd_derivative(x[:6], np.cos(x[:6]))
    with pytest.raises(ResolutionError):
        fd_derivative(x**1.5, np.cos(x))


@pytest.mark.parametrize("order", [16, 32])
def test_gauss_legendre_rule_integrates_monomials_exactly(order):
    # x^d on [-1, 1] for every degree the rule integrates exactly, 0 <= d <= 2 order - 1
    rule = GaussLegendrePanels(np.array([-1.0, 1.0]), order)
    degrees = np.arange(2 * order)
    got = np.array([rule.integrals(rule.x**d)[0] for d in degrees])
    exact = np.where(degrees % 2 == 0, 2.0 / (degrees + 1.0), 0.0)
    assert np.max(np.abs(got - exact)) < 1e-14
    # the rule is formed once per order and shared read-only
    assert GaussLegendrePanels(np.array([0.0, 1.0]), order).xg is rule.xg
    assert not rule.wg.flags.writeable


def _legfit_antiderivative(rule, vals):
    """Per-panel legfit/legint/legval loop: the reference for GaussLegendrePanels.antiderivative."""
    at_nodes, at_edges = np.empty_like(vals), [0.0]
    for i in range(vals.shape[0]):
        ic = npleg.legint(npleg.legfit(rule.xg, vals[i], rule.order - 1), lbnd=-1.0)
        at_nodes[i] = at_edges[-1] + npleg.legval(rule.xg, ic) * rule.half[i]
        at_edges.append(at_edges[-1] + float(npleg.legval(1.0, ic)) * rule.half[i])
    return at_nodes, np.array(at_edges)


@settings(deadline=None, max_examples=60)
@given(
    start=st.floats(min_value=-10.0, max_value=10.0),
    widths=st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=1, max_size=6),
    order=st.sampled_from([4, 8, 16, 32]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gauss_legendre_antiderivative(start, widths, order, seed):
    # a random polynomial of degree <= order-1 in the panel variable t in [-1, 1]
    # on each panel: its nodal interpolant is itself, so the antiderivative is exact
    rule = GaussLegendrePanels(start + np.concatenate([[0.0], np.cumsum(widths)]), order)
    polys = [np.polynomial.Polynomial(c) for c in np.random.default_rng(seed).normal(size=(len(widths), order))]
    vals = np.array([p(rule.xg) for p in polys])
    exact_edges = np.concatenate([[0.0], np.cumsum([h * p.integ(lbnd=-1.0)(1.0) for h, p in zip(rule.half, polys)])])
    exact_nodes = np.array([e + h * p.integ(lbnd=-1.0)(rule.xg) for e, h, p in zip(exact_edges, rule.half, polys)])
    scale = np.sum(2.0 * rule.half * np.max(np.abs(vals), axis=1))
    at_nodes, at_edges = rule.antiderivative(vals.ravel())
    assert at_nodes.shape == rule.x.shape and at_edges.shape == (len(widths) + 1,)
    assert np.max(np.abs(at_nodes - exact_nodes)) <= 1e-13 * scale
    assert np.max(np.abs(at_edges - exact_edges)) <= 1e-13 * scale
    assert at_edges[0] == 0.0
    assert abs(at_edges[-1] - np.sum(rule.integrals(vals))) <= 1e-15 * scale
    ref_nodes, ref_edges = _legfit_antiderivative(rule, vals)
    assert np.max(np.abs(at_nodes - ref_nodes)) <= 1e-13 * scale
    assert np.max(np.abs(at_edges - ref_edges)) <= 1e-13 * scale


def test_warp_profile_validation():
    with pytest.raises(InvalidProfileError):
        dataclasses.replace(euclidean_profile(3), kinks=(2.0, 1.0))
    for r_min, r_max in ((-0.1, 40.0), (5.0, 5.0), (5.0, 1.0), (0.05, math.inf), (math.nan, 40.0)):
        with pytest.raises(InvalidProfileError):
            dataclasses.replace(euclidean_profile(3), r_min=r_min, r_max=r_max)


def test_profile_json_refuses_unregistered_kinds():
    # a shape is code, not data: only kinds with a builder in the CLI's table persist
    prof = profile_from_shape(
        3,
        s=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        s_prime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        r_min=1.0,
        r_max=10.0,
        log_f=lambda r: np.asarray(r, dtype=float) - 1.0,
    )
    assert prof.kind == "tabulated"
    with pytest.raises(ConfigError, match="no builder"):
        profile_to_json(prof)
    doc = profile_to_json(euclidean_profile(3))
    with pytest.raises(ConfigError, match="no builder"):
        profile_from_json({**doc, "kind": "flat-torus"})


# ---------------------------------------------------------------- comparison


def riccati_grid(r0, r_hi=500.0):
    return uniform_grid(r0, r_hi, 0.05)


def test_riccati_constant_curvature_closed_forms():
    r0, u0 = 1.0, 2.0
    bound = solve_riccati_bound(a1=0.0, b1_half=0.0, r0=r0, upper_start=u0, grid=riccati_grid(r0, 40.0))
    t = bound.grid - r0
    f1_exact = np.tanh(t)
    c0 = 0.5 * math.log((u0 + 1.0) / (u0 - 1.0))
    f2_exact = 1.0 / np.tanh(t + c0)
    assert np.max(np.abs(bound.f1 - f1_exact)) < 1e-10
    assert np.max(np.abs(bound.f2 - f2_exact)) < 1e-10


def test_riccati_decaying_curvature_against_oracle():
    bound = solve_riccati_bound(a1=0.5, b1_half=0.5, r0=1.0, upper_start=2.0, grid=riccati_grid(1.0, 120.0))
    f1_100 = float(np.interp(100.0, bound.grid, bound.f1))
    assert f1_100 == pytest.approx(ORACLE_F1_AT_100, rel=1e-8)


def test_riccati_asymptotic_residuals():
    a1, b1h = 0.5, 0.5
    bound = solve_riccati_bound(a1=a1, b1_half=b1h, r0=1.0, upper_start=2.0, grid=riccati_grid(1.0))
    r = bound.grid
    win = (r >= 50.0) & (r <= 500.0)
    # raw r^3 |f - (1 -+ C/r)| grows linearly: each curve carries a nonzero
    # 1/r^2 term, so boundedness is certified against a linear envelope
    for key, coef in (("f1", 0.5 * a1 * (1.0 + a1)), ("f2", 0.5 * b1h * (1.0 - b1h))):
        raw = bound.asymptotic_residuals[key][win]
        assert np.all(raw <= coef * r[win] * 1.25 + 5.0)
    # subtracting the second-order coefficient leaves a genuinely bounded tail
    corr1 = r**3 * np.abs(bound.f1 - (1.0 - a1 / r - 0.5 * a1 * (1.0 + a1) / r**2))
    corr2 = r**3 * np.abs(bound.f2 - (1.0 + b1h / r + 0.5 * b1h * (1.0 - b1h) / r**2))
    assert np.max(corr1[win]) < 1.0
    assert np.max(corr2[win]) < 1.0


def test_riccati_blow_up_reported():
    with pytest.raises(ComparisonFailureError) as exc:
        solve_riccati_bound(a1=0.0, b1_half=0.0, r0=1.0, upper_start=-1.5, grid=riccati_grid(1.0, 60.0))
    assert exc.value.blow_up_radius is not None
    assert exc.value.blow_up_radius > 1.0


@settings(deadline=None, max_examples=40)
@given(
    s0=st.floats(min_value=-50.0, max_value=-1.02, exclude_max=True, exclude_min=True),
    r0=st.floats(min_value=0.5, max_value=5.0),
    step=st.floats(min_value=0.005, max_value=math.pi / 40.0),
)
def test_riccati_blow_up_radius_matches_closed_form(s0, r0, step):
    # K = -1 from S0 < -1: S = -coth(c - (r - r0)) reaches -infinity at
    # r0 + c, c = artanh(-1/S0), wherever the grid nodes fall
    with pytest.raises(ComparisonFailureError) as exc:
        solve_riccati_bound(a1=0.0, b1_half=0.0, r0=r0, upper_start=s0, grid=uniform_grid(r0, r0 + 4.0, step))
    exact = r0 + 0.5 * math.log((s0 - 1.0) / (s0 + 1.0))
    assert abs(exc.value.blow_up_radius - exact) < 1e-4


def test_riccati_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        solve_riccati_bound(a1=-0.1, b1_half=0.0, r0=1.0, upper_start=2.0, grid=riccati_grid(1.0, 10.0))
    with pytest.raises(ConfigError):
        # upper curvature bound positive at r0: need r0 >= 2 A1
        solve_riccati_bound(a1=2.0, b1_half=0.0, r0=1.0, upper_start=2.0, grid=riccati_grid(1.0, 10.0))


def test_hessian_comparison_hyperbolic_inside():
    # S = coth r lies strictly between the a1 = 0 lower curve and the
    # b1 > 0 upper curve started above S(r0)
    prof = hyperbolic_profile(3, r_min=0.5, r_max=40.0)
    u0 = float(prof.shape.s(prof.r_min))
    bound = solve_riccati_bound(a1=0.0, b1_half=0.2, r0=0.5, upper_start=u0 + 0.2, grid=riccati_grid(0.5, 40.0))
    rep = hessian_comparison_check(prof, bound, tol=1e-7)
    assert rep.ok
    assert rep.max_lower_gap <= 1e-7 and rep.max_upper_gap <= 1e-7


def test_hessian_comparison_flags_violation():
    prof = euclidean_profile(3, r_min=0.5, r_max=40.0)  # S = 1/r decays below tanh
    u0 = float(prof.shape.s(prof.r_min))
    bound = solve_riccati_bound(a1=0.0, b1_half=0.0, r0=0.5, upper_start=u0, grid=riccati_grid(0.5, 40.0))
    rep = hessian_comparison_check(prof, bound)
    assert not rep.ok
    assert rep.which == "lower"
    assert rep.first_violation_radius is not None and rep.first_violation_radius > 0.5
