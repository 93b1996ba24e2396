"""Correctness checks of the benchmark's workloads.

Each check takes plain numbers or dicts and returns a list of failure
messages, empty when the output passes.  The reference values are closed
forms or properties the method must have, never a stored copy of an earlier
program's output: the artifact digests are compared only between runs of
the same sources, which the CLI documents as byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def resonance_energy(n: int) -> float:
    """b_n = (n-1)^2/4 + 1, the energy of the glued eigenvalue."""
    return 0.25 * (n - 1) ** 2 + 1.0


def dirichlet_radius(n: int) -> float:
    """First zero of the ball mode at b_n; for n = 3 it is sin(sqrt(2) r)/r."""
    if n != 3:
        raise ValueError("closed form known for n = 3 only")
    return math.pi / math.sqrt(2.0)


def _at_most(errs: list[str], name: str, value: float, bound: float) -> None:
    if not value <= bound:
        errs.append(f"{name} = {value!r} exceeds {bound!r}")


# ------------------------------------------------------------ glued-certify


def glued_report(doc: dict, *, n: int, k: float) -> list[str]:
    """The CLI's report.json of build-example against the paper's sharpness claim."""
    errs: list[str] = []
    if doc.get("passed") is not True:
        errs.append("build-example did not report passed: true")
    body = doc["report"]
    b_n = resonance_energy(n)
    fired = body["scan"]["fired"]
    if len(fired) != 1 or fired[0]["j"] != 0:
        errs.append(f"expected exactly one firing, on j = 0; got {fired}")
    for d in fired:
        for key in ("lam", "refined_lam"):
            if d[key] is None or not abs(d[key] - b_n) <= 2e-3:
                errs.append(f"{key} = {d[key]!r} is not within 2e-3 of b_n = {b_n}")
    amp_pred = 2.0 * math.sqrt(2.0) * abs(k)
    if not abs(body["curvature_amplitude"] - amp_pred) <= 0.1 * amp_pred:
        errs.append(f"curvature amplitude {body['curvature_amplitude']!r} is not within 10% of {amp_pred!r}")
    _at_most(errs, "sup r|S - 1|", body["sup_r_s_minus_1"], abs(k) * (1.0 + 1e-12))
    _at_most(errs, "eigen-residual", body["residual"]["global"], 1e-6)
    for side in ("f_prime_jump_r1", "f_prime_jump_r2"):
        _at_most(errs, side, body["continuity"][side], 1e-6)
    _at_most(errs, "max Wronskian drift", body["scan"]["max_wronskian_drift"], 1e-6)
    _at_most(errs, "ball deviation", body["ball_max_dev"], 1e-8)
    return errs


def first_sign_change(r: list[float], psi: list[float], *, n: int) -> list[str]:
    """psi's first node must bracket the closed-form Dirichlet radius."""
    r1 = dirichlet_radius(n)
    for i in range(len(psi) - 1):
        if psi[i] == 0.0 or (psi[i] > 0.0) != (psi[i + 1] > 0.0):
            if r[i] <= r1 <= r[i + 1]:
                return []
            return [f"first sign change of psi in [{r[i]!r}, {r[i + 1]!r}] misses r1 = {r1!r}"]
    return ["psi never changes sign"]


def same_digests(first: dict[str, str], now: dict[str, str]) -> list[str]:
    """Artifacts of identical runs must be byte-identical."""
    return [f"{name} digest {now.get(name)} differs from {first[name]}" for name in first if now.get(name) != first[name]]


def source_hash(src: Path) -> str:
    """sha256 over the relative paths and bytes of the .py files under src."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def reference_digests(path: Path, digests: dict[str, str], *, record: bool) -> dict[str, str]:
    """Digests that earlier runs of the same sources recorded at path.

    path names the source hash, so only runs of one program are compared.
    When none is recorded yet, digests become the reference if record is
    true (the run passed its other checks) and are returned unchanged.
    """
    if path.exists():
        return json.loads(path.read_text())
    if record:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests))
        tmp.replace(path)
    return digests


# ------------------------------------------------------------ resonance-tail


def decay_exponent(exponent: float, k_eff: float) -> list[str]:
    """Envelope of the decaying solution at resonance is x^(-k_eff/4)."""
    if not abs(exponent + 0.25 * k_eff) <= 0.05:
        return [f"envelope exponent {exponent!r} is not within 0.05 of {-0.25 * k_eff!r} (k_eff = {k_eff})"]
    return []


def two_run(agreement: float) -> list[str]:
    errs: list[str] = []
    _at_most(errs, "two-run agreement", agreement, 1e-4)
    return errs


def round_trip(err: float) -> list[str]:
    errs: list[str] = []
    _at_most(errs, "reversibility round trip", err, 1e-6)
    return errs


def silent_below_threshold(fired: int, k_eff: float) -> list[str]:
    """No square-integrable solution exists for k_eff <= 2, so nothing may fire."""
    if k_eff <= 2.0 and fired:
        return [f"{fired} firing(s) at k_eff = {k_eff} <= 2"]
    return []


def wronskian_drift(drift: float) -> list[str]:
    errs: list[str] = []
    _at_most(errs, "Wronskian drift", drift, 1e-6)
    return errs


# ------------------------------------------------------------ growth-absence


def trials_grew(trials: list[dict]) -> list[str]:
    """t^gamma I(t) must grow: block minima increase and end above the start."""
    errs: list[str] = []
    for tr in trials:
        m = tr["block_minima"]
        if not (all(b > a for a, b in zip(m[:-1], m[1:])) and m[-1] > tr["start_value"]):
            errs.append(f"trial {tr['trial']} (angle {tr['angle']!r}) did not grow: minima {m}, start {tr['start_value']!r}")
    return errs


def identities(results: list[tuple[str, float, float]], *, tol: float = 1e-7, expected: int = 18) -> list[str]:
    """(name, lhs, rhs) triples; residual |lhs - rhs| / (|lhs| + |rhs| + 1) within tol."""
    errs: list[str] = []
    if len(results) != expected:
        errs.append(f"expected {expected} identity checks, got {len(results)}")
    for name, lhs, rhs in results:
        res = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1.0)
        if not res <= tol:
            errs.append(f"identity {name}: residual {res!r} exceeds {tol!r}")
    return errs


def trace_residual(value: float) -> list[str]:
    errs: list[str] = []
    _at_most(errs, "trace residual", value, 1e-5)
    return errs


def constant_curvature(k_rad, value: float, *, name: str) -> list[str]:
    """Model spaces: K_rad is -1 (hyperbolic) or 0 (euclidean) everywhere."""
    worst = max(abs(float(x) - value) for x in k_rad)
    if not worst <= 1e-12:
        return [f"K_rad on {name} departs from {value} by {worst!r}"]
    return []
