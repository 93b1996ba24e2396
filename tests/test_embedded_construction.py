"""Ball mode, junction machinery, and the glued eigenvalue construction."""

import math

import numpy as np
import pytest

from warpspec import (
    CouplingTooWeakError,
    build_construction,
    disk_eigenfunction,
    junction_candidates,
    profile_from_json,
    profile_to_json,
    resonance_coupling_threshold,
    scale_construction,
)

# frozen from scripts/oracle_ball_shooting.py (series-seeded RK4, no Bessel)
ORACLE_R1 = {
    2: 2.1509413684144771,
    3: 2.2214414690790449,
    4: 2.1254480535513793,
    5: 2.0095137997249393,
}

# frozen outputs of the deterministic n = 3 builds; c2 is the bridge's exact
# (BVLS) least-squares solution, which moves by about 1e-8 when the tail
# solution at r2 moves by 1e-11
K1 = {
    "r1": 2.221441469079183,
    "r2": 4.926990816987241,
    "c2": 0.0002626664791427988,
    "sigma": 1.3,
    "k_eff": 2.8270638654219566,
    "two_run": 2.5898833436240628e-06,
}
K25 = {
    "r2": 5.005530633326986,
    "c2": 0.0005526501025134909,
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
    assert g.diagnostics["two_run_agreement"] < 1e-4
    assert g.diagnostics["two_run_agreement"] == pytest.approx(K1["two_run"], rel=1e-3)
    assert g.profile.junctions == (g.r1, g.r2)
    assert g.profile.kind == "glued"
    bk = g.profile.params["breakpoints"]
    assert len(bk) == 12
    assert all(g.r1 < b < g.r2 for b in bk)


def test_junction_smoothness_diagnostics(glued_k1):
    d = glued_k1.diagnostics
    assert d["s_jump_r1"] < 1e-12
    assert d["s_jump_r2"] < 1e-12
    assert d["constraint_err"] < 1e-8


def test_ball_region_is_flat(glued_k1):
    prof = glued_k1.profile
    mask = prof.grid < glued_k1.r1
    assert np.max(np.abs(prof.f[mask] - prof.grid[mask])) < 1e-8


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
    assert g3.profile.f.tobytes() == g.profile.f.tobytes()
    assert g3.profile.grid.tobytes() == g.profile.grid.tobytes()
    assert g3.c2 == g.c2 and g3.r2 == g.r2
    assert g3.connector.amplitude == pytest.approx(3.0 * g.connector.amplitude, rel=1e-15)
    x = np.linspace(0.5, 20.0, 101)
    assert np.allclose(g3.psi_fn(x), 3.0 * g.psi_fn(x), rtol=1e-13)


def test_k25_frozen_invariants(glued_k25):
    g = glued_k25
    assert g.b_n == pytest.approx(2.0, rel=1e-15)
    assert g.r2 == pytest.approx(K25["r2"], rel=1e-9)
    assert g.c2 == pytest.approx(K25["c2"], rel=1e-9)


def test_glued_profile_json_rebuilds_identically(glued_k25):
    prof = glued_k25.profile
    doc = profile_to_json(prof)
    assert "grid" not in doc  # registered kind: parameters only
    back = profile_from_json(doc)
    assert back.f.tobytes() == prof.f.tobytes()
    assert back.junctions == prof.junctions
