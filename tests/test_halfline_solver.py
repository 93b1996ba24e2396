"""Half-line Schrodinger integration, decay recovery, embedded-point detector."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from warpspec import (
    ConfigError,
    DetectorRefusalError,
    NoDecayingSolutionError,
    NonOscillatoryError,
    SingularOriginError,
    WarpspecError,
    decaying_solution,
    detect_embedded_eigenvalue,
    energy_grid,
    fit_power_decay,
    frobenius_init,
    reversibility_check,
    scan_channels,
    synthetic_channel,
)
from warpspec import halfline_solver
from warpspec.channel_reduction import channel_potential
from warpspec.halfline_solver import _ZOOM_XTOL, _zoom_minimum


def test_free_oscillator_matches_sine():
    x0 = 1e-9
    q = lambda x: 0.0 * np.asarray(x)
    y0 = [[math.sin(x0)], [math.cos(x0)]]
    x, y, off = halfline_solver.propagate(q, [1.0], y0, x0, 100.0, np.linspace(x0, 100.0, 1274))
    assert not np.any(off)
    assert np.max(np.abs(y[0, 0] - np.sin(x))) < 1e-8


def test_exponential_growth_rate():
    q = lambda x: 2.0 + 0.0 * np.asarray(x)
    x, y, off = halfline_solver.propagate(q, [1.0], [[1.0], [1.0]], 1.0, 40.0, np.linspace(1.0, 40.0, 500))
    slope = np.polyfit(x, np.log(np.abs(y[0, 0])) + off, 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-4)


def test_renormalization_in_spectral_gap():
    # lam = 1 below q = 2: w = e^(x - 1) grows past float64 range over
    # [1, 2000], so the state is rescaled many times, and the offset ledger
    # must fold the removed factors back into a true log envelope of slope 1
    q = lambda x: 2.0 + 0.0 * np.asarray(x)
    x, y, off = halfline_solver.propagate(q, [1.0], [[1.0], [1.0]], 1.0, 2000.0, np.linspace(1.0, 2000.0, 2000))
    assert float(np.max(off)) > 100.0
    log_w = np.log(np.abs(y[0, 0])) + off
    assert np.polyfit(x, log_w, 1)[0] == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(log_w - (x - 1.0))) <= 1e-9 * x[-1]


def test_reversibility():
    q = synthetic_channel(k_eff=2.5)
    err = reversibility_check(q, 1.3, span=(1.0, 500.0), init=(0.0, 1.0))
    assert err < 1e-6


def test_bridge_round_trip_with_legs_split_at_kinks(glued_k1):
    # q0 of the glued profile is only C^1 at both glue radii and the 12 bridge
    # spline knots, where the mesh puts nodes
    q0 = channel_potential(glued_k1.profile, 0)
    kinks = glued_k1.profile.kinks
    assert len(kinks) == 14 and (kinks[0], kinks[-1]) == (glued_k1.r1, glued_k1.r2)
    assert q0.kinks == kinks
    err = reversibility_check(q0, 2.0, span=(1.0, glued_k1.r2), init=(0.0, 1.0), rtol=1e-12)
    assert err <= 1e-8


@settings(max_examples=25, deadline=None)
@given(kinks=st.lists(st.floats(1.5, 29.5), max_size=4, unique=True), backward=st.booleans())
def test_mesh_stops_keep_closed_form(kinks, backward):
    # q = 0.5 and lam = 1.5: w = sin(x - 1) exactly.  The mesh stops at
    # arbitrary kinks, the samples include them, and the start is not sampled
    q = dataclasses.replace(synthetic_channel(k_eff=0.0, limit=0.5), kinks=tuple(sorted(kinks)))
    t_eval = np.unique(np.concatenate([np.linspace(1.0, 30.0, 59), kinks]))
    (x0, x1), y0 = ((30.0, 1.0), [[math.sin(29.0)], [math.cos(29.0)]]) if backward else ((1.0, 30.0), [[0.0], [1.0]])
    x, y, _ = halfline_solver.propagate(q, [1.5], y0, x0, x1, t_eval)
    assert np.array_equal(x, t_eval[t_eval != x0])
    assert np.max(np.abs(y[0, 0] - np.sin(x - 1.0))) < 1e-8
    assert np.max(np.abs(y[1, 0] - np.cos(x - 1.0))) < 1e-8


def test_singular_origin_refused():
    with pytest.raises(SingularOriginError):
        reversibility_check(lambda x: 2.0 / np.asarray(x) ** 2, 1.0, span=(1e-3, 10.0), init=(0.0, 1.0))


def test_frobenius_start_matches_closed_form():
    # q = 2/x^2 (indicial root s = 2), lam = 1: the regular solution is
    # proportional to sin(x)/x - cos(x); seed at 0.05 where the truncated
    # series is accurate to ~x0^4/280
    w0, wp0 = frobenius_init(s=2.0, q_reg=0.0, lam=1.0, x0=0.05)
    q = lambda x: 2.0 / np.asarray(x) ** 2
    x, y, _ = halfline_solver.propagate(q, [1.0], [[w0], [wp0]], 0.05, 10.0, np.linspace(0.05, 10.0, 400))
    exact = 3.0 * (np.sin(x) / x - np.cos(x))
    assert np.max(np.abs(y[0, 0] - exact)) < 2e-6


def test_fit_power_decay_exact_law():
    x = np.geomspace(10.0, 2000.0, 3000)
    fit = fit_power_decay(x, 3.7 * x**-0.75, window=(50.0, 1500.0))
    assert fit.exponent == pytest.approx(-0.75, abs=1e-12)
    assert fit.stderr < 1e-12
    assert math.exp(fit.intercept) == pytest.approx(3.7, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 40),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=3, cols=1, seed=604)
@example(rows=3, cols=5, seed=445607305)
@example(rows=3, cols=4, seed=45559614)
def test_loglog_fit_matches_lstsq_per_column(rows, cols, seed):
    # every column fitted at once in closed form against lstsq on that
    # column alone.  A line through two samples fits them exactly, so their
    # stderr is 0 and both fits return rounding noise: each residual is at
    # most 4 eps times the column's scale |y| + |slope x| + |intercept|, and
    # the stderr sqrt(r1^2 + r2^2) / (dx / sqrt(2)) is then at most
    # 8 eps scale / dx (1.1 eps scale / dx measured at most over 40 000 draws)
    rng = np.random.default_rng(seed)
    logx = np.sort(rng.uniform(-2.0, 8.0, rows))
    logy = rng.normal(size=(rows, cols)) + rng.uniform(-2.0, 2.0, cols) * logx[:, None]
    slope, stderr, intercept = halfline_solver._loglog_fit(logx, logy)
    for k in range(cols):
        xs, ys = logx, logy[:, k]
        design = np.column_stack([xs, np.ones_like(xs)])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        assert abs(slope[k] - coef[0]) <= 1e-12 * max(1.0, abs(coef[0]))
        assert abs(intercept[k] - coef[1]) <= 1e-12 * max(1.0, abs(coef[1]))
        if xs.size == 2:
            scale = np.max(np.abs(ys)) + abs(coef[0]) * np.max(np.abs(xs)) + abs(coef[1])
            assert stderr[k] <= 8.0 * np.finfo(float).eps * scale / (xs[1] - xs[0])
            continue
        # inv(D^T D)[0, 0] is |row 0 of R^-1|^2 for D = QR; inverting D^T D
        # itself squares the condition number of clustered abscissas
        res = ys - design @ coef
        r_inv = np.linalg.inv(np.linalg.qr(design, mode="r"))
        se = math.sqrt(float(res @ res) / (xs.size - 2) * float(r_inv[0] @ r_inv[0]))
        assert abs(stderr[k] - se) <= 1e-12 * max(1.0, se)
    one = halfline_solver._loglog_fit(logx, logy[:, 0])
    assert all(np.ndim(v) == 0 for v in one)


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
        decaying_solution(q, 1.0)


def test_decaying_solution_refuses_below_edge():
    # a decaying solution is recovered only above the essential-spectrum edge
    with pytest.raises(NonOscillatoryError):
        decaying_solution(synthetic_channel(k_eff=4.0, limit=2.0), 1.0)


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
        return -1.0 + np.abs(lams - 0.02), np.zeros_like(lams)

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


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(0.5, 5.0), width=st.floats(1e-3, 2.0), step=st.floats(1e-3, 0.1))
def test_energy_grid_stays_in_the_window_at_the_step(lo, width, step):
    hi = lo + width
    lams = energy_grid(lo, hi, step)
    assert lams[0] == lo and lams[-1] <= hi
    assert hi - lams[-1] < step * (1.0 + 1e-9)
    assert np.allclose(np.diff(lams), step, rtol=1e-9, atol=0.0)


def test_energy_grid_whole_windows_end_on_hi():
    assert np.array_equal(energy_grid(1.9, 2.1, 0.001), np.linspace(1.9, 2.1, 201))
    # 2.2 + 10 * 0.01 overshoots 2.3 in floating point
    lams = energy_grid(2.2, 2.3, 0.01)
    assert len(lams) == 11 and lams[-1] == 2.3
    with pytest.raises(ConfigError, match="empty lambda window"):
        energy_grid(2.3, 2.2, 0.01)
    for lo, hi, step in [(1.9, 2.1, 0.0), (1.9, 2.1, -0.01), (1.9, 2.1, math.nan), (1.9, math.inf, 0.01), (math.nan, 2.1, 0.01)]:
        with pytest.raises(ConfigError, match="positive finite step"):
            energy_grid(lo, hi, step)


def test_detector_silent_below_threshold():
    q = synthetic_channel(k_eff=1.9)
    grid = np.array([0.95, 1.0, 1.05])
    dets = detect_embedded_eigenvalue(q, grid, origin_bc=None)
    assert not any(d.verdict for d in dets)


@settings(max_examples=40, deadline=None)
@given(
    k_eff=st.floats(0.0, 1.99),
    phase=st.floats(0.0, 2.0 * math.pi),
    origin_bc=st.sampled_from([None, "regular"]),
)
def test_detector_silent_below_k_eff_2(k_eff, phase, origin_bc):
    # below the resonance threshold k_eff = 2 no solution at the resonance
    # energy limit + 1 is square integrable, whatever the phase of the tail
    q = synthetic_channel(k_eff=k_eff, phase=phase)
    dets = detect_embedded_eigenvalue(q, [0.99, 1.0, 1.01], origin_bc=origin_bc, r_max=500.0)
    assert not any(d.verdict for d in dets)


@settings(max_examples=100, deadline=None)
@given(
    k_eff=st.floats(0.0, 6.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    origin_bc=st.sampled_from([None, "regular"]),
)
def test_detector_fires_only_on_an_l2_decay_law(k_eff, phase, origin_bc):
    # at the resonance energy limit + 1 the decaying solution's envelope is
    # x^(-k_eff/4), square integrable only for k_eff > 2; off resonance no
    # solution decays.  So nothing fires for k_eff <= 2, and the decaying
    # solution fires at lam = 1 with its predicted exponent once k_eff / 4
    # clears the threshold 0.55 by a margin
    q = synthetic_channel(k_eff=k_eff, phase=phase)
    dets = detect_embedded_eigenvalue(q, [0.99, 1.0, 1.01], origin_bc=origin_bc, r_max=500.0, refine=False)
    assert all(k_eff > 2.0 for d in dets if d.verdict)
    if origin_bc is None and k_eff >= 2.6:
        assert dets[1].verdict
        assert abs(dets[1].envelope_exponent + k_eff / 4.0) <= 0.05


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


def test_scan_selects_one_mesh_per_channel(monkeypatch):
    # the grid probe, every zoom round of the firing channel and the
    # Wronskian pair share one step selection per channel
    selections = []
    select = halfline_solver.select_mesh

    def counting(q, *args, **kw):
        selections.append(q.j)
        return select(q, *args, **kw)

    monkeypatch.setattr(halfline_solver, "select_mesh", counting)
    channels = [synthetic_channel(k_eff=4.0, j=0), synthetic_channel(k_eff=4.0, phase=1.0, j=1)]
    reps = scan_channels(channels, [0.95, 1.0, 1.05], origin_bc=None, r_max=500.0)
    assert [d.verdict for d in reps[0].detections] == [False, True, False]
    assert reps[0].detections[1].evidence["refine_probe_calls"] >= 2
    assert selections == [0, 1]


def test_propagate_refuses_a_mismatched_mesh():
    q = synthetic_channel(k_eff=4.0)
    mesh = halfline_solver.select_mesh(q, 1.0, 100.0, [0.9, 1.1])
    y0, t = np.array([[0.0], [1.0]]), np.array([50.0])
    halfline_solver.propagate(q, [1.1], y0, 1.0, 50.0, t, mesh=mesh)
    cases = [
        dict(q=q, lams=[1.2], x1=50.0, rtol=1e-10),
        dict(q=q, lams=[1.0], x1=150.0, rtol=1e-10),
        dict(q=q, lams=[1.0], x1=50.0, rtol=1e-12),
        dict(q=synthetic_channel(k_eff=4.0), lams=[1.0], x1=50.0, rtol=1e-10),
    ]
    for c in cases:
        with pytest.raises(ConfigError, match="mesh"):
            halfline_solver.propagate(c["q"], c["lams"], y0, 1.0, c["x1"], t, rtol=c["rtol"], mesh=mesh)


def test_shared_mesh_makes_a_probe_independent_of_its_batch():
    # without a shared mesh each call selects its steps for the range of its
    # energies; on one mesh lam = 1 alone and inside a 201-energy batch
    # differ only by rounding
    q = synthetic_channel(k_eff=4.0)
    grid = np.linspace(0.5, 1.5, 201)
    grid[100] = 1.0
    mesh = halfline_solver.select_mesh(q, 1.0, 500.0, halfline_solver._detector_window(q, grid))
    kw = dict(origin_bc=None, r_max=500.0, rtol=1e-10, mesh=mesh)
    batch = halfline_solver._probe_exponents(q, grid, **kw)
    alone = halfline_solver._probe_exponents(q, np.array([1.0]), **kw)
    for b, a in zip(batch, alone):
        assert abs(b[100] - a[0]) <= 1e-12


def test_scan_window_mesh_matches_a_bracket_mesh(glued_k1):
    # channel j = 0 of the glued k = 1 profile, probed to r_max 1000 as in
    # the glued-certify benchmark: energies of the zoom bracket about
    # lam = 2 on the mesh of the scan's window [1.899, 2.101] and on a mesh
    # selected for the bracket [1.999, 2.001] alone.  They agree within
    # 1.4e-8 (measured), inside either mesh's own error of 3e-8 to 1e-7
    # against an rtol 1e-13 mesh, so the wide window costs no accuracy
    q = channel_potential(glued_k1.profile, 0)
    grid = energy_grid(1.9, 2.1, 1e-3)
    lams = np.array([1.999, 1.9995, 2.0, 2.0007, 2.001])
    x0 = halfline_solver._regular_start(q)
    found = []
    for window in (halfline_solver._detector_window(q, grid), [1.999, 2.001]):
        mesh = halfline_solver.select_mesh(q, x0, 1000.0, window)
        probe = halfline_solver._probe_exponents(q, lams, origin_bc="regular", r_max=1000.0, rtol=1e-10, mesh=mesh)
        found.append(probe)
    (env_w, _), (env_b, _) = found
    assert np.max(np.abs(env_w - env_b)) <= 3e-8


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
@example(k_eff=4.0, phase=0.0, lam=1.0, x1=51.0, theta=0.0, kinks=[])
def test_propagate_round_trip_on_shared_mesh(k_eff, phase, lam, x1, theta, kinks):
    # forward and backward runs build the same mesh on [1, x1], and a step
    # backward inverts the step forward, so the round trip is rounding only,
    # amplified by the conditioning of the span's transfer matrix T (cond
    # 1611 in the example).  A varying q rounds its steps differently, and the
    # error stays within 1e-14 cond(T) (at most 6e-15 cond(T) measured).  The
    # steps of a q within 1e-4 of a constant are nearly the same matrix, so
    # their rounding adds up instead of averaging out (up to 3.6e-14 cond(T)
    # measured); there cond(T) <= 3.3, and the bound is an absolute 1e-12
    q = dataclasses.replace(synthetic_channel(k_eff=k_eff, phase=phase), kinks=tuple(sorted(kinks)))
    y0 = np.array([[math.cos(theta)], [math.sin(theta)]])
    _, y, off = halfline_solver.propagate(q, np.array([lam]), y0, 1.0, x1, np.array([x1]))
    _, yb, offb = halfline_solver.propagate(q, np.array([lam]), y[:, :, -1], x1, 1.0, np.array([1.0]))
    _, t, offt = halfline_solver.propagate(q, np.array([lam, lam]), np.eye(2), 1.0, x1, np.array([x1]))
    cond = np.linalg.cond(t[:, :, -1] * math.exp(offt[-1]))
    bound = 1e-12 if k_eff < 1e-4 else 1e-14 * cond
    assert np.max(np.abs(yb[:, :, 0] * math.exp(off[-1] + offb[0]) - y0)) <= bound


def _commutator_exponent(qv, h, lam):
    """The sixth-order Magnus exponent from 2x2 commutators (Blanes, Casas & Ros),
    and the largest entry of the terms alpha1, alpha2, alpha3 it sums."""
    a = [np.array([[0.0, 1.0], [q - lam, 0.0]]) for q in qv]
    a1 = h * a[1]
    a2 = math.sqrt(15.0) * h * (a[2] - a[0]) / 3.0
    a3 = 10.0 * h * (a[2] - 2.0 * a[1] + a[0]) / 3.0
    br = lambda x, y: x @ y - y @ x
    c1 = br(a1, a2)
    c2 = -br(a1, 2.0 * a3 + c1) / 60.0
    omega = a1 + a3 / 12.0 + br(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    return omega, max(np.max(np.abs(t)) for t in (a1, a2, a3))


@settings(max_examples=200, deadline=None)
@given(
    h=st.floats(1e-3, 2.0),
    lam=st.floats(-5.0, 5.0),
    levels=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    backward=st.booleans(),
)
def test_step_builder_matches_commutators_and_expm(h, lam, levels, backward):
    # q at the three Gauss nodes puts h^2 (q - lam) within +-3.5, so |z| <= 4
    # holds for most draws.  The lam-affine exponent must match the
    # commutator formula to rounding of the terms it sums, which may cancel,
    # and its series exponential must match scipy's expm of it
    qv = lam + 3.5 * np.array(levels) / (h * h)
    omega, terms = _commutator_exponent(qv, h, lam)
    assume(abs(omega[0, 0] ** 2 + omega[0, 1] * omega[1, 0]) <= 4.0)
    sign = -1.0 if backward else 1.0
    coef = [sign * e for e in halfline_solver._step_coefficients(qv[None, :], np.array([h]))]
    p, u, l, _ = (np.ravel(e)[0] for e in halfline_solver._exponent(coef, np.array([lam])))
    got = np.array([[p, u], [l, -p]])
    assert np.max(np.abs(got - sign * omega)) <= 1e-14 * terms
    step = halfline_solver._steps(coef, np.array([lam]))[:, :, 0, 0]
    exact = scipy.linalg.expm(got)
    assert np.max(np.abs(step - exact)) <= 1e-14 * np.max(np.abs(exact))


def test_step_beyond_the_series_raises():
    # z = p^2 + u l = 4.5 and a NaN both lie beyond the series exponential
    for l0 in (4.5, math.nan):
        coef = [np.zeros(2), np.zeros(2), np.ones(2), np.array([0.5, l0]), np.zeros(2)]
        with pytest.raises(WarpspecError, match="series exponential"):
            halfline_solver._steps(coef, np.array([0.0]))
    q_fn = lambda x: np.where(np.asarray(x) > 5.0, np.nan, 1.0)
    with pytest.raises(WarpspecError, match="not finite"):
        halfline_solver.propagate(q_fn, [0.5], [[1.0], [0.0]], 1.0, 10.0, [10.0])


def _stepwise(q_fn, lams, y0, x0, x1, t_eval):
    """propagate's contract by one matrix-vector product per step, on propagate's
    own mesh and steps, the state rescaled whenever it reaches 1e150."""
    sign = 1.0 if x1 > x0 else -1.0
    x_out = np.unique(t_eval[(sign * t_eval > sign * x0) & (sign * t_eval <= sign * x1)])
    lo, hi = min(x0, x1), max(x0, x1)
    nodes = halfline_solver._nodes(halfline_solver.select_mesh(q_fn, lo, hi, lams), lo, hi, x_out)
    h = np.diff(nodes)
    qv = halfline_solver._sample_q(q_fn, nodes[:-1], h, halfline_solver._NODES)
    mats = halfline_solver._steps([sign * e for e in halfline_solver._step_coefficients(qv, h)], lams)
    y, off, samples = np.array(y0, dtype=float), 0.0, {}
    for i in range(h.size) if sign > 0 else range(h.size - 1, -1, -1):
        y = mats[:, 0, i] * y[0] + mats[:, 1, i] * y[1]
        mx = np.max(np.abs(y))
        if mx >= 1e150:
            y, off = y / mx, off + math.log(mx)
        samples[nodes[i + 1] if sign > 0 else nodes[i]] = (y, off)
    return x_out, np.stack([samples[x][0] for x in x_out], axis=2), np.array([samples[x][1] for x in x_out])


@settings(max_examples=20, deadline=None)
@given(
    columns=st.sampled_from([1, 2, 17, 201]),
    level=st.floats(-2.0, 12.0),
    amp=st.floats(0.0, 1.0),
    freq=st.floats(0.5, 3.0),
    backward=st.booleans(),
)
@example(columns=201, level=9.0, amp=1.0, freq=1.0, backward=False)
@example(columns=1, level=9.0, amp=1.0, freq=1.0, backward=True)
@example(columns=17, level=12.0, amp=0.0, freq=1.0, backward=False)
@example(columns=201, level=1.0, amp=0.0, freq=1.0, backward=True)
def test_grouped_recurrence_matches_stepwise_product(columns, level, amp, freq, backward):
    # q - lam >= 7 grows the state past e^400 over the span, so both runs
    # rescale at 1e150 and the groups are also cut by the step-norm bound.
    # The step-by-step product also carries the transfer matrix T of every
    # lam, and rounding scales with |T|, its largest entry, not with the
    # solution: at lam = 0.91 in the last example (1, 0.3) is the solution
    # that decays while T grows.  Each state must agree within 1e-11 |T|
    # (up to 5.6e-13 |T| measured, where q - lam changes sign); a wrong
    # product order, group start or ledger entry is off by order |T|
    q_fn = lambda x: level + amp * np.sin(freq * np.asarray(x, dtype=float))
    lams = np.linspace(0.0, 1.0, columns)
    y0 = np.tile([[1.0], [0.3]], (1, columns))
    x0, x1 = (160.0, 1.0) if backward else (1.0, 160.0)
    t_eval = np.linspace(1.0, 160.0, 60)
    x, y, off = halfline_solver.propagate(q_fn, lams, y0, x0, x1, t_eval)
    starts = np.concatenate([y0, np.repeat(np.eye(2), columns, axis=1)], axis=1)
    xr, yr, offr = _stepwise(q_fn, np.tile(lams, 3), starts, x0, x1, t_eval)
    assert np.array_equal(x, xr)
    assert level < 9.0 or np.max(off) > 300.0
    transfer = np.max(np.abs(yr[:, columns:]).reshape(4, columns, -1), axis=0)
    assert np.max(np.abs(y * np.exp(off - offr) - yr[:, :columns]) / transfer) <= 1e-11


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
