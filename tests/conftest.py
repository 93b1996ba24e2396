"""Shared fixtures.

The glued constructions and the full channel scan are expensive (the k = 1
scan alone integrates 6 channels over 1001 energies), so they are built once
per session and shared by the unit tests and the acceptance suite.
"""

import pytest

from warpspec import (
    build_construction,
    decaying_solution,
    power_decay_profile,
    synthetic_channel,
    verify_construction,
    verify_growth_theorem,
)


@pytest.fixture(scope="session")
def glued_k1():
    return build_construction(3, 1.0, r_max=2000.0)


@pytest.fixture(scope="session")
def glued_k1_verified(glued_k1):
    """(report, scan_reports) of the full certificate, scan included."""
    return verify_construction(glued_k1, j_max=5, lambda_window=(1.5, 2.5), lambda_step=1e-3)


@pytest.fixture(scope="session")
def glued_k25():
    return build_construction(3, 2.5, r_max=1100.0)


@pytest.fixture(scope="session")
def power_profile():
    return power_decay_profile(3)


@pytest.fixture(scope="session")
def growth_power_verdict(power_profile):
    return verify_growth_theorem(
        power_profile, alpha=2.0, gamma=1.0, trials=5, seed=0, t0=50.0, t_end=1000.0
    )


@pytest.fixture(scope="session")
def decay_fit_k25():
    q = synthetic_channel(k_eff=2.5)
    return decaying_solution(q, 1.0, r_anchor=2000.0)


@pytest.fixture(scope="session")
def decay_fit_k40():
    q = synthetic_channel(k_eff=4.0)
    return decaying_solution(q, 1.0, r_anchor=2000.0)
