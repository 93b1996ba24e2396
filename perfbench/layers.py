"""Per-layer metrics from the spans and counters of one traced round.

A metric is measured only from spans or counters that the round produced,
so a layer that stopped running leaves its metric missing rather than 0.
`APPLIES` lists the metrics each workload must produce; run.py raises when
one is missing and reports 0 for the metrics of layers a workload does not
run.  The process metrics (cpu_s, tracing_overhead_s, runtime_warnings) are
added by run.py for every workload.
"""

from __future__ import annotations

import numpy as np
import warpspec as ws

HS = "halfline_solver"
EC = "embedded_construction"
GI = "growth_and_identities"

DETECT = f"{HS}.detect_embedded_eigenvalue"
SCAN = f"{HS}.scan_channels"
BUILD = f"{EC}.build_construction"
VERIFY = f"{EC}.verify_construction"
MAIN = "cli.main"

Q = ("channel_reduction.q_calls", "channel_reduction.q_points_per_call", "channel_reduction.q_self_s")
APPLIES = {
    "glued-certify": Q + (
        f"{HS}.probe_s", f"{HS}.refine_s", f"{HS}.refine_q_calls", f"{HS}.drift_s", f"{HS}.decaying_solution_s",
        f"{EC}.build_s", f"{EC}.verify_s", f"{EC}.connector_attempts", f"{EC}.connector_yield",
        "cli.overhead_s", "cli.artifact_bytes",
        f"{HS}.max_wronskian_drift", f"{HS}.two_run_agreement", f"{HS}.refined_lam_err",
        f"{HS}.decay_exponent_err", f"{EC}.constraint_err", f"{EC}.residual_global",
    ),
    "resonance-tail": Q + (
        f"{HS}.probe_s", f"{HS}.drift_s", f"{HS}.decaying_solution_s", f"{HS}.reversibility_s",
        f"{HS}.max_wronskian_drift", f"{HS}.reversibility_err", f"{HS}.two_run_agreement",
        f"{HS}.decay_exponent_err",
    ),
    "growth-absence": (
        f"{GI}.growth_s", f"{GI}.identities_s", f"{GI}.shape_calls", "warp_geometry.curvature_s",
        f"{GI}.identity_max_residual", f"{GI}.worst_growth_margin", "warp_geometry.trace_residual_max",
    ),
}


def _less_children(tr, name: str, *child_names: str) -> float:
    """Summed duration of the spans called name, less their named children."""
    total = 0.0
    for s in tr.named(name):
        total += s.duration - sum(c.duration for c in tr.children(s) if c.name in child_names)
    return total


def measure(wl, tr, outcome) -> dict:
    """Metrics of the traced round; glued-certify then probes its channels."""
    c = tr.counters
    v = {}
    if c.get("q_calls"):
        v["channel_reduction.q_calls"] = c["q_calls"]
        v["channel_reduction.q_points_per_call"] = c["q_points"] / c["q_calls"]
        v["channel_reduction.q_self_s"] = c["q_self_s"]
    if c.get("shape_calls"):
        v[f"{GI}.shape_calls"] = c["shape_calls"]
    for key, span in (
        (f"{HS}.decaying_solution_s", f"{HS}.decaying_solution"),
        (f"{HS}.reversibility_s", f"{HS}.reversibility_check"),
        (f"{EC}.build_s", BUILD),
        (f"{GI}.growth_s", f"{GI}.verify_growth_theorem"),
        (f"{GI}.identities_s", f"{GI}.check_parts_identities"),
        ("warp_geometry.curvature_s", "warp_geometry.curvature_of_profile"),
    ):
        if tr.named(span):
            v[key] = tr.total(span)
    for key, span, children in (
        (f"{HS}.drift_s", SCAN, (DETECT,)),
        (f"{EC}.verify_s", VERIFY, (SCAN,)),
        ("cli.overhead_s", MAIN, (BUILD, VERIFY)),
    ):
        if tr.named(span):
            v[key] = _less_children(tr, span, *children)
    v.update(outcome.budget)
    for res in tr.results[f"{HS}.decaying_solution"]:
        if "two_run_agreement" in res.meta:
            v[f"{HS}.two_run_agreement"] = max(v.get(f"{HS}.two_run_agreement", 0.0), res.meta["two_run_agreement"])
    for g in tr.results[BUILD]:
        attempts = g.connector.attempts
        v[f"{EC}.connector_attempts"] = float(attempts)
        v[f"{EC}.connector_yield"] = 1.0 / attempts
        v[f"{EC}.constraint_err"] = g.connector.constraint_err
        fit = g.tail.meta["decay_fit"]
        v[f"{HS}.decay_exponent_err"] = abs(fit.exponent + 0.25 * g.diagnostics["k_eff"])

    detects = tr.named(DETECT)
    if wl.name == "glued-certify":
        if tr.results[BUILD]:
            v.update(_probe_glued(wl, tr, detects, outcome.fired_channels))
    elif detects:
        # no channel fires here, so the detector never refines
        v[f"{HS}.probe_s"] = sum(s.duration for s in detects)
    return v


def _probe_glued(wl, tr, refined, fired: list[int]) -> dict:
    """Detector time without refinement on each channel of the built profile.

    refined holds the detector spans of the certificate's scan, one per
    channel in channel order; the difference on the firing channel is the
    cost of refinement.
    """
    g = tr.results[BUILD][-1]
    hw = 0.5 * (wl.lambda_hi - wl.lambda_lo)
    lams = np.linspace(g.b_n - hw, g.b_n + hw, int(round(2 * hw / wl.lambda_step)) + 1)
    probes = []
    for j in range(wl.j_max + 1):
        ch = ws.channel_reduction.channel_potential(g.profile, j)
        ws.halfline_solver.detect_embedded_eigenvalue(
            ch, lams, origin_bc="regular", r_max=g.profile.r_max, refine=False
        )
        probes.append(tr.named(DETECT)[-1])
    if len(refined) != len(probes):
        raise RuntimeError(f"the certificate ran {len(refined)} detector calls for {len(probes)} channels")
    if not fired:
        raise RuntimeError("no channel fired, so the refinement cost cannot be measured")
    j = fired[0]
    return {
        f"{HS}.probe_s": sum(s.duration for s in probes),
        f"{HS}.refine_s": refined[j].duration - probes[j].duration,
        f"{HS}.refine_q_calls": float(
            (refined[j].q_end - refined[j].q_start) - (probes[j].q_end - probes[j].q_start)
        ),
    }
