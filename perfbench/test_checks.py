"""Each benchmark check accepts a good result and rejects a perturbed one;
the speed meter scales an operation by the samples taken while it ran.

Run: python3 -m pytest -q perfbench/test_checks.py   (a few seconds)
"""

import copy
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402


def glued_doc():
    """A report.json body of build-example that passes every check."""
    return {
        "passed": True,
        "report": {
            "scan": {"fired": [{"j": 0, "lam": 2.0, "refined_lam": 2.0000004}], "max_wronskian_drift": 4e-10},
            "curvature_amplitude": 2.0 * math.sqrt(2.0),
            "sup_r_s_minus_1": 0.99,
            "residual": {"global": 3e-9},
            "continuity": {"f_prime_jump_r1": 1e-12, "f_prime_jump_r2": 2e-12},
            "ball_max_dev": 0.0,
        },
    }


def test_glued_report_accepts_the_good_report():
    assert checks.glued_report(glued_doc(), n=3, k=1.0) == []


@pytest.mark.parametrize("key", ["lam", "refined_lam"])
def test_firing_moved_by_a_hundredth_is_rejected(key):
    doc = glued_doc()
    doc["report"]["scan"]["fired"][0][key] += 0.01
    assert checks.glued_report(doc, n=3, k=1.0)


def test_firing_on_another_channel_or_twice_is_rejected():
    doc = glued_doc()
    doc["report"]["scan"]["fired"][0]["j"] = 1
    assert checks.glued_report(doc, n=3, k=1.0)
    doc = glued_doc()
    doc["report"]["scan"]["fired"].append({"j": 0, "lam": 2.001, "refined_lam": 2.0})
    assert checks.glued_report(doc, n=3, k=1.0)


@pytest.mark.parametrize(
    "path, value",
    [
        (("curvature_amplitude",), 1.11 * 2.0 * math.sqrt(2.0)),
        (("sup_r_s_minus_1",), 1.0 + 1e-9),
        (("residual", "global"), 2e-6),
        (("continuity", "f_prime_jump_r2"), 2e-6),
        (("scan", "max_wronskian_drift"), 2e-6),
        (("ball_max_dev",), 2e-8),
    ],
)
def test_glued_bounds_reject_values_beyond_them(path, value):
    doc = glued_doc()
    node = doc["report"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert checks.glued_report(doc, n=3, k=1.0)


def test_a_failed_cli_run_is_rejected():
    doc = copy.deepcopy(glued_doc())
    doc["passed"] = False
    assert checks.glued_report(doc, n=3, k=1.0)


def test_first_node_of_psi_must_bracket_the_dirichlet_radius():
    r1 = math.pi / math.sqrt(2.0)
    r = [0.5 * i * 0.1 for i in range(100)]
    good = [r1 - x for x in r]
    assert checks.first_sign_change(r, good, n=3) == []
    moved = [r1 + 0.2 - x for x in r]
    assert checks.first_sign_change(r, moved, n=3)
    assert checks.first_sign_change(r, [1.0] * len(r), n=3)


def test_two_different_artifact_digests_are_rejected():
    first = {"report.json": "aa", "scan.csv": "bb"}
    assert checks.same_digests(first, dict(first)) == []
    assert checks.same_digests(first, {"report.json": "aa", "scan.csv": "bc"})
    assert checks.same_digests(first, {"report.json": "aa"})


def test_a_new_source_hash_starts_a_new_reference(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text("x = 1\n")
    first = {"report.json": "aa", "scan.csv": "bb"}
    moved = {"report.json": "aa", "scan.csv": "bc"}
    before = tmp_path / f"glued.{checks.source_hash(src)}.json"
    assert checks.reference_digests(before, first, record=True) == first
    assert checks.same_digests(checks.reference_digests(before, moved, record=True), moved)
    (src / "mod.py").write_text("x = 2\n")
    after = tmp_path / f"glued.{checks.source_hash(src)}.json"
    assert after != before
    assert checks.same_digests(checks.reference_digests(after, moved, record=True), moved) == []


def test_a_run_that_failed_its_other_checks_records_no_reference(tmp_path):
    path = tmp_path / "glued.json"
    checks.reference_digests(path, {"report.json": "aa"}, record=False)
    assert not path.exists()


def test_exponent_off_by_a_tenth_is_rejected():
    assert checks.decay_exponent(-0.625 + 0.01, 2.5) == []
    assert checks.decay_exponent(-0.625 + 0.1, 2.5)
    assert checks.decay_exponent(-1.0 - 0.1, 4.0)
    assert checks.decay_exponent(math.nan, 2.5)


def test_solver_bounds():
    assert checks.two_run(1e-5) == [] and checks.two_run(2e-4)
    assert checks.round_trip(1e-7) == [] and checks.round_trip(2e-6)
    assert checks.wronskian_drift(1e-9) == [] and checks.wronskian_drift(2e-6)
    assert checks.wronskian_drift(math.nan)
    assert checks.silent_below_threshold(0, 1.9) == [] and checks.silent_below_threshold(1, 1.9)


def test_identity_residual_above_tolerance_is_rejected():
    good = [(f"id{i}", 1.0, 1.0 + 1e-9) for i in range(18)]
    assert checks.identities(good) == []
    bad = list(good)
    bad[5] = ("id5", 1.0, 1.0 + 1e-6)
    assert checks.identities(bad)
    assert checks.identities(good[:17])


def test_growth_must_grow_and_curvature_must_be_constant():
    grew = {"trial": 0, "angle": 1.0, "block_minima": [1.0, 2.0, 3.0], "start_value": 0.5}
    assert checks.trials_grew([grew]) == []
    assert checks.trials_grew([dict(grew, block_minima=[1.0, 3.0, 2.0])])
    assert checks.trials_grew([dict(grew, start_value=4.0)])
    assert checks.constant_curvature([-1.0, -1.0 + 1e-13], -1.0, name="hyperbolic") == []
    assert checks.constant_curvature([-1.0, -1.0 + 1e-11], -1.0, name="hyperbolic")
    assert checks.trace_residual(1e-6) == [] and checks.trace_residual(2e-5)


def test_speed_meter_scales_an_operation_by_the_samples_inside_it():
    ref = run.KERNEL_REF_S
    meter = run.SpeedMeter()
    meter.samples = [(0.5, 2 * ref), (1.0, 2 * ref), (1.5, 4 * ref), (5.0, ref)]
    # from 0.9 s for 2 s: the samples at 1.0 and 1.5 s, the machine at half and a quarter of its reference speed
    assert meter.at_reference_speed(0.9, 2.0) == pytest.approx((2.0 - 6 * ref) * (1 / 2 + 1 / 4) / 2)
    # no sample inside: the last one before the operation gives the speed
    assert meter.at_reference_speed(2.0, 0.1) == pytest.approx(0.1 / 4)
    assert meter.at_reference_speed(0.0, 0.1) == pytest.approx(0.1)
