"""Benchmark of warpspec: three workloads, timed end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload glued-certify --seed 1 --seconds 25 --trace 0

The workload runs whole rounds of its operations in a closed loop (one
process, one caller) until --seconds have passed, at least one round, and
reports the round's time at a reference speed (SpeedMeter), each operation
at its fastest.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones, from one untraced and one traced round, and the spans
go to .bench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import os

# one thread in every process the benchmark starts: BLAS pools would spin on
# the second core of a small machine and be timed along with the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
# the speed meter's kernel and its wall time on the reference machine (README)
# in its fast state: ref_wall_s is in seconds of that machine at that speed
KERNEL_STEPS = 20000
KERNEL_REF_S = 0.0015
SAMPLE_EVERY_S = 0.2


def _use_checkout_source() -> None:
    """Import warpspec from this checkout's src/, never from elsewhere."""
    if not (SRC / "warpspec" / "__init__.py").is_file():
        raise SystemExit(f"no warpspec sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports warpspec and builds the inputs.

    The process meters its own imports and build (`_setup_only`); that part
    counts at the reference speed, the interpreter's start and exit as measured.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120).stdout
    total = time.perf_counter() - t0
    wall, ref = map(float, out.split())
    return total - wall + ref


def _setup_only(workload: str, seed: int) -> int:
    """Import warpspec and build the inputs under the speed meter; print wall and reference seconds."""
    with SpeedMeter() as meter:
        t0 = time.perf_counter()
        from workloads import WORKLOADS

        WORKLOADS[workload].setup(seed)
        wall = time.perf_counter() - t0
    print(wall, meter.at_reference_speed(t0, wall))
    return 0


def _kernel() -> None:
    """A fixed piece of pure-Python float work, about 1.5 ms on the reference machine."""
    x = 0.0
    for i in range(KERNEL_STEPS):
        x += math.sin(x + i)


class SpeedMeter:
    """Reads the machine's speed while the rounds run.

    Every SAMPLE_EVERY_S a SIGALRM runs `_kernel` in the main thread, between
    two bytecodes of whatever warpspec is doing, and records its (start,
    seconds).  The samples land inside the operations, on the core they run
    on, so a burst of load from another tenant of the host slows the samples
    taken during it as it slows the operation.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def at_reference_speed(self, start: float, seconds: float) -> float:
        """An operation's wall time less the samples in it, at KERNEL_REF_S per kernel.

        Each sampling period counts for its length times the speed its sample
        read, KERNEL_REF_S / kernel seconds.
        """
        inside = [dt for t, dt in self.samples if start <= t < start + seconds]
        # an operation shorter than the sampling period takes the speed of the last sample before it
        kernels = inside or [dt for t, dt in self.samples if t < start][-1:] or [KERNEL_REF_S]
        return (seconds - sum(inside)) * statistics.fmean(KERNEL_REF_S / dt for dt in kernels)


def _rounds(wl, inp, seconds: float):
    """Closed loop of whole rounds, at least one, under the speed meter.

    Returns the outcome, which times each operation, and the meter.
    """
    from workloads import Outcome

    outcome = Outcome()
    with SpeedMeter() as meter:
        start = time.perf_counter()
        while True:
            wl.run_round(inp, outcome)
            if time.perf_counter() - start >= seconds:
                return outcome, meter


def end_to_end(wl, seed: int, seconds: float) -> tuple[object, dict]:
    inp = wl.setup(seed)
    setup = statistics.median(_setup_probe_seconds(wl.name, seed) for _ in range(SETUP_PROBES))
    outcome, meter = _rounds(wl, inp, seconds)
    # a round with every operation at its fastest, each run of it scaled to the
    # reference speed: other tenants of the host slow the machine by up to 2x,
    # in bursts of a second to minutes (README)
    ref_round = sum(min(meter.at_reference_speed(*run) for run in runs) for runs in outcome.times.values())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return outcome, {
        "setup_s": {"value": setup, "unit": "s"},
        "ref_wall_s": {"value": ref_round, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def per_layer(wl, seed: int, metric_units: dict) -> tuple[object, dict]:
    import layers
    from spans import Tracer
    from workloads import OUT_DIR, Outcome

    plain = Outcome()
    inp = wl.setup(seed)
    cpu0, t0 = time.process_time(), time.perf_counter()
    wl.run_round(inp, plain)
    untraced_s, cpu_s = time.perf_counter() - t0, time.process_time() - cpu0

    tracer = Tracer()
    tracer.install()
    try:
        traced = Outcome()
        inp = wl.setup(seed, tracer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            t0 = time.perf_counter()
            wl.run_round(inp, traced)
            traced_s = time.perf_counter() - t0
        values = layers.measure(wl, tracer, traced)
    finally:
        tracer.uninstall()
    values["halfline_solver.runtime_warnings"] = float(sum(issubclass(w.category, RuntimeWarning) for w in caught))
    values["process.cpu_s"] = cpu_s
    values["process.round_wall_s"] = untraced_s
    values["process.tracing_overhead_s"] = traced_s - untraced_s
    tracer.write(OUT_DIR / f"trace-{wl.name}-{seed}.json")

    unknown = set(values) - set(metric_units)
    if unknown:
        raise RuntimeError(f"measured metrics missing from BENCHMARK.json: {sorted(unknown)}")
    missing = set(layers.APPLIES[wl.name]) - set(values)
    if missing:
        raise RuntimeError(f"{wl.name} did not produce the metrics of layers it runs: {sorted(missing)}")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.wrong += traced.wrong
    # a layer the workload does not run reads 0
    for name in metric_units:
        values.setdefault(name, 0.0)
    return plain, {name: {"value": values[name], "unit": unit} for name, unit in metric_units.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="import and build the inputs, then exit")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    _use_checkout_source()
    if args.setup_only:
        return _setup_only(args.workload, args.seed)
    from workloads import OUT_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        outcome, metrics = per_layer(wl, args.seed, {m["name"]: m["unit"] for m in spec["per_layer"]})
    else:
        outcome, metrics = end_to_end(wl, args.seed, args.seconds)
    for msg in outcome.wrong:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
