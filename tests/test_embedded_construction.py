"""Ball mode, junction machinery, and the glued eigenvalue construction."""

import math

import numpy as np
import pytest

from warpspec import (
    ConfigError,
    ConnectorFailureError,
    CouplingTooWeakError,
    build_construction,
    cusp_profile,
    disk_eigenfunction,
    euclidean_profile,
    hyperbolic_profile,
    junction_candidates,
    power_decay_profile,
    reference_profile,
    resonance_coupling_threshold,
    scale_construction,
    slow_log_decay_profile,
    uniform_grid,
    verify_construction,
)
from warpspec.embedded_construction import _SI_OCTAVES, _SI_ROWS, _sine_integral

# frozen from scripts/oracle_ball_shooting.py (series-seeded RK4, no Bessel)
ORACLE_R1 = {
    2: 2.1509413684144771,
    3: 2.2214414690790449,
    4: 2.1254480535513793,
    5: 2.0095137997249393,
}

# frozen outputs of the deterministic n = 3 builds; c2 is the bridge's exact
# (BVLS) least-squares solution, which moves by about 1e-8 when the tail
# solution at r2 moves by 1e-11, and so with the tail fit's window; at
# k = 2.5 a change of one unit of rounding in the junction data moves it by
# 1e-8 to 1e-7
K1 = {
    "r1": 2.221441469079183,
    "r2": 4.926990816987241,
    "c2": 0.0002626664239125925,
    "sigma": 1.3,
    "k_eff": 2.82801995733793,
    "two_run": 1.5857680998551258e-06,
}
K25 = {
    "r2": 5.005530633326986,
    "c2": 0.0005526501515028732,
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_first_zero_against_oracle(n):
    disk = disk_eigenfunction(n)
    assert disk.b_n == pytest.approx(0.25 * (n - 1) ** 2 + 1.0, rel=1e-15)
    assert disk.r1 == pytest.approx(ORACLE_R1[n], rel=1e-8)


def test_first_zero_n3_closed_form():
    # for n = 3 the mode is sin(sqrt(2) r)/r, so r1 = pi / sqrt(2) exactly
    disk = disk_eigenfunction(3)
    assert abs(disk.r1 - math.pi / math.sqrt(2.0)) < 1e-9


def test_disk_mode_normalization():
    disk = disk_eigenfunction(3)
    assert float(disk.h_fn(np.array([0.0]))[0]) == pytest.approx(1.0, abs=1e-12)
    assert float(disk.h_prime_fn(np.array([0.0]))[0]) == pytest.approx(0.0, abs=1e-12)
    assert abs(float(disk.h_fn(np.array([disk.r1]))[0])) < 1e-12


@pytest.mark.parametrize("n, k", [(3, 0.5), (3, 1.0 / math.sqrt(2.0)), (2, 1.5)])
def test_coupling_too_weak(n, k):
    with pytest.raises(CouplingTooWeakError) as exc:
        build_construction(n, k, r_max=200.0)
    assert exc.value.threshold == pytest.approx(resonance_coupling_threshold(n), rel=1e-12)


def test_junction_candidates_quarter_periods():
    x = np.linspace(0.0, 8.0 * math.pi, 4001)
    h, hp = np.sin(x), np.cos(x)
    idx = junction_candidates(x, h, hp, r1=1.0)
    assert len(idx) > 0
    assert np.all(x[idx] > 1.1)
    # interiors of quarter periods: h and h' share a sign with 10% margin
    assert np.all(h[idx] * hp[idx] > 0)
    assert np.all(np.abs(h[idx]) > 0.1) and np.all(np.abs(hp[idx]) > 0.1)
    # strictness: both neighbors qualify too, so no verdict rests on one node
    assert np.all(h[idx - 1] * hp[idx - 1] > 0)
    assert np.all(h[idx + 1] * hp[idx + 1] > 0)


def test_build_frozen_invariants(glued_k1):
    g = glued_k1
    assert g.r1 == pytest.approx(K1["r1"], rel=1e-12)
    assert g.r2 == pytest.approx(K1["r2"], rel=1e-9)
    assert g.c2 == pytest.approx(K1["c2"], rel=1e-9)
    assert g.sigma == K1["sigma"]
    assert g.diagnostics["k_eff"] == pytest.approx(K1["k_eff"], rel=1e-9)
    assert g.tail.meta["two_run_agreement"] < 1e-4
    # the tail is fitted on [1500, 2000], where it is anchored (a fit on
    # [450, 600] puts the two runs 2.59e-6 apart)
    assert g.tail.meta["two_run_agreement"] < 2e-6
    assert g.tail.meta["two_run_agreement"] == pytest.approx(K1["two_run"], rel=1e-3)
    assert g.profile.kind == "glued"
    kinks = g.profile.kinks
    assert len(kinks) == 14 and (kinks[0], kinks[-1]) == (g.r1, g.r2)
    assert all(g.r1 < b < g.r2 for b in kinks[1:-1])


def test_junction_smoothness_diagnostics(glued_k1):
    d = glued_k1.diagnostics
    assert d["s_jump_r1"] < 1e-12
    assert d["s_jump_r2"] < 1e-12
    assert glued_k1.connector.constraint_err < 1e-8


def test_ball_region_is_flat(glued_k1):
    r = uniform_grid(glued_k1.profile.r_min, glued_k1.r1)
    assert np.max(np.abs(np.exp(glued_k1.profile.shape.log_f(r)) - r)) < 1e-8


def test_psi_continuous_at_junctions(glued_k1):
    # psi vanishes at r1, so a one-sided jump test degenerates there; the
    # symmetric second difference is O(eps^2) across a C^1 junction and O(1)
    # across a genuine jump
    g = glued_k1
    eps = 1e-5
    for rj in (g.r1, g.r2):
        v = g.psi_fn(np.array([rj - eps, rj, rj + eps]))
        assert abs(float(v[0] + v[2] - 2.0 * v[1])) < 1e-8 * (1.0 + float(np.max(np.abs(v))))


def test_scale_construction_leaves_metric_alone(glued_k25):
    g = glued_k25
    g3 = scale_construction(g, 3.0)
    assert (g3.profile.r_min, g3.profile.r_max) == (g.profile.r_min, g.profile.r_max)
    r = uniform_grid(g.profile.r_min, g.profile.r_max)
    for name in ("s", "s_prime", "log_f"):
        assert getattr(g3.profile.shape, name)(r).tobytes() == getattr(g.profile.shape, name)(r).tobytes()
    assert g3.c2 == g.c2 and g3.r2 == g.r2
    assert g3.connector.amplitude == pytest.approx(3.0 * g.connector.amplitude, rel=1e-15)
    x = np.linspace(0.5, 20.0, 101)
    assert np.allclose(g3.psi_fn(x), 3.0 * g.psi_fn(x), rtol=1e-13)


def test_connector_failure_counts_every_trial():
    # n = 4 finds no admissible bridge: all 20 junction candidates are tried,
    # each over the four bridge scales sigma, and the error counts those trials
    # in the unit of Connector.attempts
    with pytest.raises(ConnectorFailureError) as exc:
        build_construction(4, 1.0, r_max=1000.0)
    assert exc.value.attempts == 4 * 20


def test_verify_refuses_negative_j_max(glued_k25):
    with pytest.raises(ConfigError):
        verify_construction(glued_k25, j_max=-1)
    # a zero step is refused by energy_grid, before any work
    with pytest.raises(ConfigError, match="positive finite step"):
        verify_construction(glued_k25, lambda_step=0.0)


def test_k25_frozen_invariants(glued_k25):
    g = glued_k25
    assert g.b_n == pytest.approx(2.0, rel=1e-15)
    assert g.r2 == pytest.approx(K25["r2"], rel=1e-9)
    assert g.c2 == pytest.approx(K25["c2"], rel=1e-9)


def test_sine_integral_matches_scipy_across_its_rows():
    # scipy's sici stays the reference the package no longer calls
    from scipy.special import sici

    rng = np.random.default_rng(11)
    # every seam between rows, the octave edges among them, and 1e-9 to either
    # side: within 2e-15 of the continuous sici on both sides, so continuous to rounding
    j = np.arange(_SI_ROWS, 2 * _SI_ROWS + 1)
    seams = np.unique(np.ldexp(j[None, :] / (2.0 * _SI_ROWS), np.arange(2, 2 + _SI_OCTAVES)[:, None]).ravel())
    x = np.concatenate([
        np.exp(rng.uniform(math.log(2.0), math.log(1e6), 200_000)),
        np.concatenate([seams + d for d in (-1e-9, 0.0, 1e-9)]),
        [2.0, 1e6],
    ])
    x = x[(x >= 2.0) & (x <= 1e6)]
    assert np.max(np.abs(_sine_integral(x, np.sin(x), np.cos(x)) - sici(x)[0])) < 2e-15
    # shaped like its argument, scalars included
    assert _sine_integral(np.float64(2.0), np.sin(2.0), np.cos(2.0)).shape == ()
    assert _sine_integral(x[:6].reshape(2, 3), np.sin(x[:6]).reshape(2, 3), np.cos(x[:6]).reshape(2, 3)).shape == (2, 3)


SHAPE_KINDS = {
    "euclidean": lambda: euclidean_profile(3),
    "hyperbolic": lambda: hyperbolic_profile(3),
    "cusp": lambda: cusp_profile(3),
    "reference": lambda: reference_profile(3, 1.3, r_max=300.0),
    "power": lambda: power_decay_profile(3),
    "log": lambda: slow_log_decay_profile(3),
}


@pytest.mark.parametrize("which", ["reference", "glued", "euclidean", "hyperbolic", "cusp", "power", "log"])
def test_joint_shape_values_are_the_separate_ones_bit_for_bit(which, glued_k1):
    # every profile kind the CLI builds: triple's S and S' are pair's, and
    # the one-value projections are theirs
    prof = glued_k1.profile if which == "glued" else SHAPE_KINDS[which]()
    sh = prof.shape
    rng = np.random.default_rng(3)
    # every piece of the glued profile in one array, its kinks included
    r = np.concatenate([rng.uniform(prof.r_min, 40.0, 500), rng.uniform(prof.r_min, prof.r_max, 200), prof.kinks])
    for x in (r, r[r > 40.0], np.float64(r[0])):
        s, sp = sh.pair(x)
        s3, sp3, lf3 = sh.triple(x)
        assert all(np.array_equal(a, b) for a, b in zip((s, sp, s3, sp3, lf3), (s3, sp3, sh.s(x), sh.s_prime(x), sh.log_f(x))))
