"""Sphere spectrum, channel potentials, and the substitution machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpspec import (
    ConfigError,
    NonOscillatoryError,
    channel_potential,
    cusp_profile,
    decade_window,
    InsufficientDataError,
    inverse_liouville,
    predicted_k_eff,
    predicted_phase_constant,
    reference_profile,
    require_oscillatory,
    resonance_coupling_threshold,
    resonance_energy,
    sphere_multiplicity,
    synthetic_channel,
    uniform_grid,
)
from warpspec.channel_reduction import fit_tail_oscillation

# frozen from scripts/oracle_multiplicity.py (rank of the monomial Laplacian)
BRUTE_FORCE_DIMS = {
    2: [1, 2, 2, 2, 2, 2, 2],
    3: [1, 3, 5, 7, 9, 11, 13],
    4: [1, 4, 9, 16, 25, 36, 49],
    5: [1, 5, 14, 30, 55, 91, 140],
}

# frozen fitted tail amplitude of the n = 3, k = 1 reference channel at r_max 2000
K_EFF_FITTED = 2.82801995733793


@pytest.mark.parametrize("n", sorted(BRUTE_FORCE_DIMS))
def test_sphere_multiplicity_against_brute_force(n):
    assert [sphere_multiplicity(n, j) for j in range(7)] == BRUTE_FORCE_DIMS[n]


def test_sphere_spectrum_eigenvalues_and_order():
    # channel j carries the sphere eigenvalue j (j + n - 2); multiplicities are
    # checked against the brute-force oracle above
    prof = cusp_profile(3)
    chans = [channel_potential(prof, j) for j in range(6)]
    assert [c.j for c in chans] == list(range(6))
    assert [c.lam_sphere for c in chans] == [j * (j + 1) for j in range(6)]


def test_cusp_channel_potential_is_constant():
    # f = e^r, n = 3, j = 0: q = p^2 S^2 + p S' = 1 identically
    prof = cusp_profile(3)
    q0 = channel_potential(prof, 0)
    assert q0.limit == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(q0.q_fn(uniform_grid(prof.r_min, prof.r_max)) - 1.0)) < 1e-12
    x = np.linspace(prof.r_min, prof.r_max, 777)
    assert np.max(np.abs(q0.q_fn(x) - 1.0)) < 1e-12


def test_channel_differences_are_centrifugal():
    # q_j - q_0 = lam_j / f^2; compare in absolute terms since the barrier
    # term drops below the rounding floor of q ~ 1 once f^2 is huge
    prof = cusp_profile(3)
    q0 = channel_potential(prof, 0)
    for j in (1, 3):
        qj = channel_potential(prof, j)
        lam_j = j * (j + 1)
        r = uniform_grid(prof.r_min, prof.r_max)
        f = np.exp(prof.shape.log_f(r))
        assert np.allclose(qj.q_fn(r) - q0.q_fn(r), lam_j / f**2, rtol=1e-10, atol=1e-15)


def test_reference_channel_k_eff_fit():
    prof = reference_profile(3, 1.0, r_max=2000.0)
    q0 = channel_potential(prof, 0)
    assert q0.k_eff == pytest.approx(K_EFF_FITTED, rel=1e-9)
    assert q0.k_eff == pytest.approx(predicted_k_eff(3, 1.0), rel=0.01)
    # the fit window [1500, 2000] ends where the solver anchors: closer to the
    # closed form than a window stopped at r = 600 (1.36e-3 off)
    assert abs(q0.k_eff - predicted_k_eff(3, 1.0)) < 1e-3
    assert q0.limit == pytest.approx(1.0, abs=1e-12)
    assert q0.remainder_slope is not None and q0.remainder_slope <= -1.05
    assert q0.phase == pytest.approx(predicted_phase_constant(3), abs=0.01)


@settings(deadline=None, max_examples=40)
@given(
    k_eff=st.floats(min_value=0.1, max_value=6.0),
    phase=st.floats(min_value=-3.1, max_value=3.1),
    r_max=st.floats(min_value=200.0, max_value=4000.0),
)
def test_tail_fit_recovers_an_exact_sinusoid(k_eff, phase, r_max):
    # x (q - limit) = k_eff sin(2x + phase) exactly: the sampled fit returns
    # both constants to rounding and a remainder that vanishes
    q = synthetic_channel(k_eff=k_eff, phase=phase, limit=0.5)
    fit = fit_tail_oscillation(q.q_fn, q.limit, 1.0, r_max)
    assert fit.k_eff == pytest.approx(k_eff, abs=1e-10)
    assert fit.phase == pytest.approx(phase, abs=1e-10)
    assert fit.remainder_slope == -math.inf
    assert fit.window[1] <= r_max < fit.window[1] + math.pi / 40.0


def test_reference_shape_formula():
    # S = 1 + k sin(2r)/r and f(1) = 1; log f reproduces S under differentiation
    k = 1.3
    prof = reference_profile(3, k, r_max=120.0)
    sh = prof.shape
    assert float(sh.log_f(1.0)) == pytest.approx(0.0, abs=1e-14)
    r = np.linspace(1.5, 100.0, 4001)
    assert np.allclose(sh.s(r), 1.0 + k * np.sin(2.0 * r) / r, atol=1e-14)
    # 4-point stencil: truncation ~3e-13 and rounding ~2e-11 at h = 1e-3, so
    # the bound sits well above both and far below a change of k by 1e-8
    h = 1e-3
    fd = (sh.log_f(r - 2.0 * h) - 8.0 * sh.log_f(r - h) + 8.0 * sh.log_f(r + h) - sh.log_f(r + 2.0 * h)) / (12.0 * h)
    assert np.max(np.abs(fd - sh.s(r))) < 1e-10


def test_liouville_round_trip_and_isometry():
    prof = reference_profile(3, 0.9, r_max=60.0)
    rng = np.random.default_rng(5)
    r = uniform_grid(prof.r_min, prof.r_max)
    h = rng.normal(size=r.shape)
    hp = rng.normal(size=r.shape)
    # forward map w = f^p h, w' = f^p (h' + p S h), p = (n-1)/2, on the lattice
    f, s = np.exp(prof.shape.log_f(r)), prof.shape.s(r)
    fp = f ** (0.5 * (prof.n - 1))
    w, wp = fp * h, fp * (hp + 0.5 * (prof.n - 1) * s * h)
    h2, hp2 = inverse_liouville(prof, r, w, wp)
    assert np.max(np.abs(h2 - h)) < 1e-12
    assert np.max(np.abs(hp2 - hp)) < 1e-12
    # pointwise isometry of the measure change: w^2 = h^2 f^{n-1}
    assert np.allclose(w**2, h**2 * f ** (prof.n - 1), rtol=1e-12)


def test_resonance_thresholds_and_energy():
    assert resonance_coupling_threshold(3) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert resonance_coupling_threshold(2) == pytest.approx(4.0 / math.sqrt(5.0), rel=1e-15)
    assert resonance_energy(3) == pytest.approx(2.0, rel=1e-15)
    assert resonance_energy(2) == pytest.approx(1.25, rel=1e-15)
    # the threshold is exactly where the effective coupling crosses 2
    for n in (2, 3, 4, 7):
        k_star = resonance_coupling_threshold(n)
        assert predicted_k_eff(n, k_star) == pytest.approx(2.0, rel=1e-12)


def test_require_oscillatory():
    assert require_oscillatory(2.0, 1.0) == pytest.approx(1.0)
    assert require_oscillatory(5.0, 1.0) == pytest.approx(2.0)
    with pytest.raises(NonOscillatoryError):
        require_oscillatory(1.0, 1.0)
    with pytest.raises(NonOscillatoryError):
        require_oscillatory(0.5, 1.0)


def test_decade_window_guards():
    x = np.linspace(1.0, 1000.0, 5000)
    mask = decade_window(x, 50.0, 800.0)
    assert np.count_nonzero(mask) >= 50
    with pytest.raises(InsufficientDataError):
        decade_window(x, 100.0, 500.0)  # less than one decade
    with pytest.raises(InsufficientDataError):
        decade_window(x[:5], 50.0, 800.0)  # too few samples


def test_channel_rejects_out_of_range():
    prof = cusp_profile(3)
    with pytest.raises(ConfigError):
        channel_potential(prof, -1)
