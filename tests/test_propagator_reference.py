"""The Magnus propagator against a DOP853 reference on the glued k = 1 channels.

The reference integrates the same problem with scipy's DOP853 at rtol 1e-12,
leg by leg between the kinks, all energies in one state vector; it lives here
only, so the package itself needs no solve_ivp.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from warpspec import halfline_solver
from warpspec.channel_reduction import channel_potential
from warpspec.warp_geometry import piece_edges


def _dop853_propagate(q, lams, y0, x0, x1, t_eval, *, rtol=1e-10, mesh=None):
    """propagate's contract, by DOP853 at rtol 1e-12 (the rtol and mesh asked for are ignored)."""
    lams = np.atleast_1d(lams)
    m = len(lams)
    sign = 1.0 if x1 > x0 else -1.0
    t_eval = np.unique(t_eval[(sign * t_eval > sign * x0) & (sign * t_eval <= sign * x1)])
    edges = piece_edges(min(x0, x1), max(x0, x1), q.kinks)
    y, at, xs, ys = np.asarray(y0, dtype=float).reshape(-1), x0, [], []
    for stop in edges[1:] if sign > 0 else edges[-2::-1]:
        pts = t_eval[(sign * t_eval > sign * at) & (sign * t_eval <= sign * stop)][:: int(sign)]
        sol = solve_ivp(
            lambda x, y: np.concatenate([y[m:], (q.q_fn(x) - lams) * y[:m]]),
            (at, stop),
            y,
            method="DOP853",
            rtol=1e-12,
            atol=1e-300,
            t_eval=np.append(pts, stop) if not len(pts) or pts[-1] != stop else pts,
            first_step=1e-6,
        )
        assert sol.status == 0 and np.all(np.isfinite(sol.y))
        xs.append(sol.t[: len(pts)])
        ys.append(sol.y[:, : len(pts)])
        y, at = sol.y[:, -1], stop
    x, y = np.concatenate(xs), np.concatenate(ys, axis=1).reshape(2, m, -1)
    if sign < 0:
        x, y = x[::-1], y[:, :, ::-1]
    return x, y, np.zeros(len(x))


@pytest.mark.parametrize("j", [0, 1, 2])
def test_probe_matches_dop853_reference(glued_k1, monkeypatch, j):
    # the detector's probe at the default rtol 1e-10 against the reference:
    # the same energies fire and the envelope exponents agree within 1% of
    # their stderr (measured: 4e-4 on j = 0, 1e-3 on j = 1, 2)
    q = channel_potential(glued_k1.profile, j)
    lams = np.linspace(1.995, 2.005, 11)
    probe = lambda: halfline_solver._probe_exponents(q, lams, origin_bc="regular", r_max=1000.0, rtol=1e-10)
    env, env_se = probe()
    monkeypatch.setattr(halfline_solver, "propagate", _dop853_propagate)
    ref_env, ref_se = probe()
    fired = env < -0.55
    assert np.array_equal(fired, ref_env < -0.55)
    assert fired.any() == (j == 0)
    assert np.max(np.abs(env - ref_env) / ref_se) <= 0.01
