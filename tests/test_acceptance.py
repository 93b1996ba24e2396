"""Acceptance gate: one test per headline claim, at the stated tolerances.

Each test is independent evidence; together they certify the embedded
eigenvalue example, the curvature sharpness, the coupling threshold, the
growth dichotomy, the comparison machinery, the identity suite, and solver
hygiene.  Heavy artifacts (glued constructions, channel scans, decay fits)
come from session fixtures in conftest.py.
"""

import json
import math

import numpy as np
import pytest

from warpspec.channel_reduction import channel_potential, resonance_energy
from warpspec.cli import main
from warpspec.embedded_construction import (
    disk_eigenfunction,
    reference_profile,
    scale_construction,
)
from warpspec.growth_and_identities import (
    check_parts_identities,
    eigenfunction_growth_series,
    power_decay_profile,
    slow_log_decay_profile,
    standard_identity_data,
)
from warpspec.halfline_solver import (
    fired_detections,
    reversibility_check,
    scan_channels,
    synthetic_channel,
)
from warpspec.warp_geometry import (
    curvature_of_profile,
    cusp_profile,
    euclidean_profile,
    hyperbolic_profile,
    profile_from_shape,
    solve_riccati_bound,
    uniform_grid,
)

# ball shooting oracle: first Dirichlet eigenvalue of B(0, r1) equals
# b_n = (n-1)^2/4 + 1 (bisection on a Bessel-recursion shooter, frozen)
ORACLE_R1 = {
    2: 2.1509413684144771,
    3: 2.2214414690790449,
    4: 2.1254480535513793,
    5: 2.0095137997249393,
}


def test_criterion_01_embedded_eigenvalue_scan(glued_k1_verified):
    report, _ = glued_k1_verified
    assert resonance_energy(3) == 2.0  # (n-1)^2/4 + 1
    scan = report["scan"]
    assert scan["j_max"] == 5
    assert scan["n_lambda"] == 1001  # [1.5, 2.5] at step 1e-3
    fired = scan["fired"]
    assert len(fired) == 1
    assert fired[0]["j"] == 0
    assert abs(fired[0]["lam"] - 2.0) <= 2e-3
    assert abs(fired[0]["refined_lam"] - 2.0) <= 2e-3


def test_criterion_02_curvature_decay_sharpness(glued_k1_verified):
    report, _ = glued_k1_verified
    predicted = 2.0 * math.sqrt(2.0)  # 2 sqrt(2) |k| with k = 1
    assert report["curvature_amplitude_predicted"] == pytest.approx(predicted, rel=1e-15)
    assert abs(report["curvature_amplitude"] - predicted) <= 0.10 * predicted
    # r |S - 1| = |k sin 2r| <= |k| exactly on the tail
    assert report["sup_r_s_minus_1"] <= 1.0 + 1e-12


def test_criterion_03_coupling_threshold(decay_fit_k25, decay_fit_k40):
    lams = 0.5 + 5e-3 * np.arange(201)  # [0.5, 1.5]
    for k_eff in (1.0, 1.9):
        ch = synthetic_channel(k_eff=k_eff)
        reps = scan_channels([ch], lams, origin_bc=None, r_max=2000.0)
        assert fired_detections(reps[0].detections) == [], f"k_eff={k_eff} fired"
        assert reps[0].wronskian_drift <= 1e-6
    for k_eff in (2.5, 4.0):
        ch = synthetic_channel(k_eff=k_eff)
        reps = scan_channels([ch], lams, origin_bc=None, r_max=2000.0)
        fired = fired_detections(reps[0].detections)
        assert len(fired) == 1, f"k_eff={k_eff} fired {len(fired)} times"
        assert abs(fired[0].lam - 1.0) <= 2e-3
        assert reps[0].wronskian_drift <= 1e-6
    # amplitude exponent of the resonant solution on [100, 1000]
    for shot, k_eff in ((decay_fit_k25, 2.5), (decay_fit_k40, 4.0)):
        fit = shot.meta["decay_fit"]
        # window endpoints snap to the actual sample grid
        assert 100.0 <= fit.window[0] <= 101.0
        assert 999.0 <= fit.window[1] <= 1000.0
        assert abs(fit.exponent - (-k_eff / 4.0)) <= 0.05


def test_criterion_04_disk_eigenvalue():
    for n, oracle in ORACLE_R1.items():
        disk = disk_eigenfunction(n)
        assert abs(disk.r1 - oracle) <= 1e-8 * oracle
        assert disk.b_n == 0.25 * (n - 1) ** 2 + 1.0
    assert abs(disk_eigenfunction(3).r1 - math.pi / math.sqrt(2.0)) <= 1e-9


def test_criterion_05_gluing_consistency(glued_k1, glued_k1_verified):
    report, _ = glued_k1_verified
    assert report["residual"]["global"] <= 1e-6
    assert report["continuity"]["f_prime_jump_r1"] <= 1e-6
    assert report["continuity"]["f_prime_jump_r2"] <= 1e-6
    assert report["ball_max_dev"] <= 1e-8
    # the warp factor is invariant under rescaling the eigenfunction
    scaled = scale_construction(glued_k1, 3.0)
    grid = uniform_grid(glued_k1.profile.r_min, glued_k1.profile.r_max)
    for name in ("s", "s_prime", "log_f"):
        assert getattr(scaled.profile.shape, name)(grid).tobytes() == getattr(glued_k1.profile.shape, name)(grid).tobytes()
    r = np.linspace(1.0, 30.0, 500)
    assert np.allclose(scaled.psi_fn(r), 3.0 * glued_k1.psi_fn(r), rtol=1e-12)


def test_criterion_06_growth_dichotomy(growth_power_verdict, glued_k25):
    # K + 1 = O(r^-1.5): every seeded radial solution grows
    assert growth_power_verdict.passed
    assert len(growth_power_verdict.trials) == 5
    for rep in growth_power_verdict.trials:
        assert rep["increasing"], rep
    # resonant tail: the built eigenfunction's t I(t) decays below 1%
    series = eigenfunction_growth_series(glued_k25, gamma=1.0, t_min=50.0, t_max=1000.0)
    ratio = float(series.t_gamma_i[-1] / series.t_gamma_i[0])
    assert ratio < 0.01


def test_criterion_07_comparison_machinery():
    # closed forms: K = -1 from a zero seed gives tanh, from coth(1) gives coth
    grid = uniform_grid(1.0, 40.0, 0.05)
    exact = solve_riccati_bound(
        a1=0.0, b1_half=0.0, r0=1.0, upper_start=1.0 / math.tanh(1.0), grid=grid
    )
    assert float(np.max(np.abs(exact.f1 - np.tanh(grid - 1.0)))) <= 1e-10
    assert float(np.max(np.abs(exact.f2 - 1.0 / np.tanh(grid)))) <= 1e-10

    # asymptotic residual r^3 |f1 - (1 - A1/r)| stays within the linear
    # envelope from the 1/r^2 coefficient A1(1+A1)/2 on [50, 500]
    a1, b1h = 0.5, 0.3
    long_grid = uniform_grid(1.0, 500.0, 0.05)
    bound = solve_riccati_bound(a1=a1, b1_half=b1h, r0=1.0, upper_start=2.0, grid=long_grid)
    mask = (long_grid >= 50.0) & (long_grid <= 500.0)
    coef = 0.5 * a1 * (1.0 + a1)
    envelope = 1.25 * coef * long_grid[mask] + 5.0
    assert np.all(bound.asymptotic_residuals["f1"][mask] <= envelope)

    # sandwich f1 <= S <= f2 on 10 randomized admissible profiles
    from scipy.integrate import solve_ivp
    from warpspec.warp_geometry import hessian_comparison_check

    rng = np.random.default_rng(7)
    grid10 = uniform_grid(1.0, 60.0, math.pi / 40.0)
    for trial in range(10):
        a1 = float(rng.uniform(0.05, 0.45))
        b1h = float(rng.uniform(0.05, 0.45))
        omega = float(rng.uniform(0.5, 3.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        upper = float(rng.uniform(1.5, 2.0))
        s0 = float(rng.uniform(0.2, 1.2))

        def curvature(r):
            u = 0.5 * (1.0 + np.sin(omega * r + phase))
            return -1.0 + 2.0 * (a1 * u - b1h * (1.0 - u)) / r

        sol = solve_ivp(
            lambda r, y: [-y[0] * y[0] - curvature(r)],
            (1.0, grid10[-1]),
            [s0],
            t_eval=grid10,
            rtol=1e-12,
            atol=1e-14,
            method="DOP853",
            dense_output=True,
        )
        assert sol.success
        s_fn = lambda r: sol.sol(np.asarray(r, dtype=float))[0]
        prof = profile_from_shape(
            3,
            pair=lambda r: (s_fn(r), -s_fn(r) ** 2 - curvature(np.asarray(r, dtype=float))),
            r_min=1.0,
            r_max=float(grid10[-1]),
        )
        bound = solve_riccati_bound(a1=a1, b1_half=b1h, r0=1.0, upper_start=upper, grid=grid10)
        rep = hessian_comparison_check(prof, bound)
        assert rep.ok, (trial, rep)


def test_criterion_08_identity_suite(glued_k1):
    cases = [
        (euclidean_profile(3), (1.0, 12.0)),
        (hyperbolic_profile(3), (0.5, 10.0)),
        (glued_k1.profile, (1.5, 8.0)),  # crosses both glue radii
    ]
    for prof, span in cases:
        for data in standard_identity_data():
            checks = check_parts_identities(prof, data, span=span, tol=1e-7)
            assert len(checks) == 6
            for ch in checks:
                assert ch.passed, (prof.kind, data.name, ch.name, ch.residual)
    profiles = [
        euclidean_profile(3),
        hyperbolic_profile(3),
        hyperbolic_profile(2),
        cusp_profile(3),
        reference_profile(3, 1.0, r_max=600.0),
        power_decay_profile(3),
        slow_log_decay_profile(3),
        glued_k1.profile,
    ]
    for prof in profiles:
        assert curvature_of_profile(prof).trace_residual <= 1e-5, prof.kind


def test_criterion_09_solver_hygiene(glued_k1, glued_k1_verified, capsys, tmp_path):
    report, scans = glued_k1_verified
    assert report["scan"]["max_wronskian_drift"] <= 1e-6
    assert max(rep.wronskian_drift for rep in scans) <= 1e-6

    q0 = channel_potential(glued_k1.profile, 0)
    err = reversibility_check(q0, 2.0, span=(1.0, 2000.0), init=(0.0, 1.0), rtol=1e-12)
    assert err <= 1e-6

    out = tmp_path / "art"
    argv = ["curvature-report", "--profile", "hyperbolic", "--n", "2", "--out", str(out)]
    blobs = []
    for _ in range(2):
        assert main(argv) == 0
        capsys.readouterr()
        blobs.append((out / "report.json").read_bytes() + (out / "curvature.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert json.loads((out / "report.json").read_text())["passed"] is True
