"""The benchmark's three workloads.

A workload builds its inputs from the seed (`setup`) and then runs rounds of
the same operations (`run_round`).  Every call into warpspec goes through the
module attribute at call time, so the tracer's wrappers see it.  An operation
counts as failed when it raises or when its output fails a check; a failed
check also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import warpspec as ws

import checks

OUT_DIR = Path(".bench_out")


@dataclasses.dataclass
class Outcome:
    """Tally of one or more rounds."""

    attempted: int = 0
    failed: int = 0
    wrong: list = dataclasses.field(default_factory=list)
    budget: dict = dataclasses.field(default_factory=dict)
    fired_channels: list = dataclasses.field(default_factory=list)
    # by operation name, (start, wall seconds) of each time it ran, checks included
    times: dict = dataclasses.field(default_factory=dict)

    def run(self, name: str, op) -> None:
        """Run one operation; op returns its check failures."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            errs = op()
        except Exception:
            self.failed += 1
            print(f"operation {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        finally:
            self.times.setdefault(name, []).append((t0, time.perf_counter() - t0))
        if errs:
            self.failed += 1
            self.wrong.extend(f"{name}: {e}" for e in errs)

    def worst(self, key: str, value: float, higher_is_worse: bool = True) -> None:
        old = self.budget.get(key)
        if old is None or (value > old if higher_is_worse else value < old):
            self.budget[key] = float(value)


# ---------------------------------------------------------------- glued-certify


class GluedCertify:
    """`warpspec build-example` in-process, artifacts checked and digested."""

    name = "glued-certify"
    n, k, r_max, j_max = 3, 1.0, 1000.0, 2
    lambda_lo, lambda_hi, lambda_step = 1.9, 2.1, 1e-3

    def setup(self, seed: int, tracer=None) -> dict:
        # the configuration is fixed: the glued manifold and its certificate
        # do not depend on random data, and the artifacts must repeat bytewise
        out = OUT_DIR / self.name / "artifacts"
        argv = [
            "build-example",
            "--n", str(self.n),
            "--k", repr(self.k),
            "--r-max", repr(self.r_max),
            "--j-max", str(self.j_max),
            "--lambda-lo", repr(self.lambda_lo),
            "--lambda-hi", repr(self.lambda_hi),
            "--lambda-step", repr(self.lambda_step),
            "--out", out.as_posix(),
        ]
        # digests are compared between runs of the same sources only
        src_hash = checks.source_hash(Path(ws.__file__).parent)
        return {"argv": argv, "out": out, "digests": OUT_DIR / f"{self.name}.{src_hash}.digests.json"}

    def run_round(self, inp: dict, outcome: Outcome) -> None:
        outcome.run("build-example", lambda: self._certify(inp, outcome))

    def _certify(self, inp: dict, outcome: Outcome) -> list[str]:
        out: Path = inp["out"]
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = ws.cli.main(inp["argv"])
        errs = [] if rc == 0 else [f"build-example exited with {rc}: {sink.getvalue()[-2000:]}"]
        doc = json.loads((out / "report.json").read_text())
        errs += checks.glued_report(doc, n=self.n, k=self.k)
        with open(out / "psi.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        errs += checks.first_sign_change([float(r) for r, _ in rows], [float(p) for _, p in rows], n=self.n)
        digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("report.json", "scan.csv")}
        errs += checks.same_digests(checks.reference_digests(inp["digests"], digests, record=not errs), digests)

        body = doc["report"]
        outcome.budget["cli.artifact_bytes"] = float(sum(p.stat().st_size for p in out.iterdir()))
        outcome.worst("halfline_solver.max_wronskian_drift", body["scan"]["max_wronskian_drift"])
        outcome.worst("embedded_construction.residual_global", body["residual"]["global"])
        b_n = checks.resonance_energy(self.n)
        for d in body["scan"]["fired"]:
            outcome.worst("halfline_solver.refined_lam_err", abs(d["refined_lam"] - b_n))
        outcome.fired_channels = sorted({d["j"] for d in body["scan"]["fired"]})
        return errs


# ---------------------------------------------------------------- resonance-tail


class ResonanceTail:
    """Long-range shooting on synthetic channels k_eff sin(2x + phase)/x."""

    name = "resonance-tail"
    # decaying_solution anchors at r_far and repeats from 2 r_far (two-run check);
    # the round trip and the scan reach r_far too
    r_far = 500.0

    def setup(self, seed: int, tracer=None) -> dict:
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        hs = ws.halfline_solver
        return {
            "decay": [(k, hs.synthetic_channel(k_eff=k, phase=float(ph))) for k, ph in zip((2.5, 4.0), phases)],
            "silent": (1.9, hs.synthetic_channel(k_eff=1.9, phase=float(phases[2]))),
            "init": (math.cos(theta), math.sin(theta)),
            "lams": 0.5 + 5e-3 * np.arange(201),
        }

    def run_round(self, inp: dict, outcome: Outcome) -> None:
        hs = ws.halfline_solver

        def decay(k_eff, q):
            res = hs.decaying_solution(q, 1.0, r_anchor=self.r_far)
            exp, agree = res.meta["decay_fit"].exponent, res.meta["two_run_agreement"]
            outcome.worst("halfline_solver.decay_exponent_err", abs(exp + 0.25 * k_eff))
            outcome.worst("halfline_solver.two_run_agreement", agree)
            return checks.decay_exponent(exp, k_eff) + checks.two_run(agree)

        def reversibility():
            q = inp["decay"][0][1]
            err = hs.reversibility_check(q, 1.0, span=(1.0, self.r_far), init=inp["init"], rtol=1e-12)
            outcome.worst("halfline_solver.reversibility_err", err)
            return checks.round_trip(err)

        def silent_scan():
            k_eff, q = inp["silent"]
            rep = hs.scan_channels([q], inp["lams"], origin_bc=None, r_max=self.r_far)[0]
            outcome.worst("halfline_solver.max_wronskian_drift", rep.wronskian_drift)
            fired = len(hs.fired_detections(rep.detections))
            return checks.silent_below_threshold(fired, k_eff) + checks.wronskian_drift(rep.wronskian_drift)

        for k_eff, q in inp["decay"]:
            outcome.run(f"decaying_solution k_eff={k_eff}", lambda: decay(k_eff, q))
        outcome.run("reversibility_check", reversibility)
        outcome.run("scan_channels k_eff=1.9", silent_scan)


# ---------------------------------------------------------------- growth-absence


class GrowthAbsence:
    """The absence side: growth functional, refusal, identities, curvature."""

    name = "growth-absence"
    alpha, gamma, t0, t_end = 2.0, 1.0, 20.0, 300.0

    def setup(self, seed: int, tracer=None) -> dict:
        gi, wg = ws.growth_and_identities, ws.warp_geometry
        profiles = {
            "power": gi.power_decay_profile(3),
            "log": gi.slow_log_decay_profile(3),
            "reference": ws.embedded_construction.reference_profile(3, 1.0, r_max=600.0),
            "euclidean": wg.euclidean_profile(3),
            "hyperbolic": wg.hyperbolic_profile(3),
        }
        if tracer is not None:
            profiles = {k: dataclasses.replace(p, shape=tracer.count_shape(p.shape)) for k, p in profiles.items()}
        return {"profiles": profiles, "data": gi.standard_identity_data(), "seed": seed}

    def run_round(self, inp: dict, outcome: Outcome) -> None:
        gi, wg = ws.growth_and_identities, ws.warp_geometry
        prof = inp["profiles"]

        def growth(p):
            v = gi.verify_growth_theorem(
                p, alpha=self.alpha, gamma=self.gamma, t0=self.t0, t_end=self.t_end, seed=inp["seed"]
            )
            for tr in v.trials:
                outcome.worst("growth_and_identities.worst_growth_margin",
                              tr["block_minima"][-1] / tr["start_value"], higher_is_worse=False)
            return checks.trials_grew(list(v.trials))

        def refusal():
            try:
                gi.verify_growth_theorem(
                    prof["reference"], alpha=self.alpha, gamma=self.gamma, t0=self.t0, t_end=self.t_end, seed=inp["seed"]
                )
            except ws.HypothesisViolatedError:
                return []
            return ["reference profile (r|K_rad + 1| ~ const) was not refused"]

        def identities(p):
            out = [(f"{d.name}.{c.name}", c.lhs, c.rhs)
                   for d in inp["data"] for c in gi.check_parts_identities(p, d, span=(1.0, 20.0), tol=1e-7)]
            for _, lhs, rhs in out:
                outcome.worst("growth_and_identities.identity_max_residual", abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0))
            return checks.identities(out)

        def curvature(name, p):
            fld = wg.curvature_of_profile(p)
            outcome.worst("warp_geometry.trace_residual_max", fld.trace_residual)
            errs = checks.trace_residual(fld.trace_residual)
            if name in ("euclidean", "hyperbolic"):
                errs += checks.constant_curvature(fld.k_rad, 0.0 if name == "euclidean" else -1.0, name=name)
            return errs

        for name in ("power", "log"):
            outcome.run(f"verify_growth_theorem {name}", lambda: growth(prof[name]))
        outcome.run("verify_growth_theorem reference (refusal)", refusal)
        for name in ("euclidean", "hyperbolic", "reference"):
            outcome.run(f"check_parts_identities {name}", lambda: identities(prof[name]))
        for name in ("euclidean", "hyperbolic", "reference"):
            outcome.run(f"curvature_of_profile {name}", lambda: curvature(name, prof[name]))


WORKLOADS = {w.name: w for w in (GluedCertify(), ResonanceTail(), GrowthAbsence())}
