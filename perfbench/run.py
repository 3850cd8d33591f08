"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_cached --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats set-up + measured loop until ``--seconds`` are used
and reports the end-to-end metrics as medians over the reps.  Host times are
scaled to a reference host speed sampled during every phase (``hostspeed``).
``--trace 1`` alternates untraced reps with traced ones, prints the
per-layer table and reports the per-layer metrics; the span arrays of the
last traced rep are written to ``.perfbench_out/``.  Every rep's simulated
digest must equal the first untraced rep's, traced or not.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.

The simulator is imported from ``src/`` of the current directory; without it
the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# One BLAS thread, set before anything imports numpy: the simulator's
# matrices are small, and a second OpenBLAS thread mostly spin-waits on the
# other core (1.5x the process CPU time of the wall time on fig8).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import Sampler  # noqa: E402
from spans import LAYERS, LOOP, SETUP, SpanRecorder, layer_metrics, traced  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_REPS = 3
IMPORT_SAMPLES = 5
# Times the simulator's import in a fresh interpreter and scales it there,
# by chunks timed right after it in the same process (see ``hostspeed``).
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import repro
elapsed = time.perf_counter() - start
import hostspeed
print(elapsed * hostspeed.NOMINAL_CHUNK_S / hostspeed.chunk_seconds())
"""


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_simulator():
    """Import ``repro`` from ``./src`` and nowhere else; return the workloads."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail_setup(f"no simulator sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail_setup(f"imported repro from {repro.__file__}, not from {SRC}")
    import workloads

    return workloads


def import_seconds() -> float:
    """Median scaled time to import the simulator in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, os.path.dirname(os.path.abspath(__file__))],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.strip()))
    return statistics.median(samples)


class Rep:
    """Timings and outcome of one set-up + loop.

    ``setup_s`` and ``loop_s`` are net of host-speed sampling and scaled to
    the reference host speed (see ``hostspeed``); ``wall_loop_s`` is the
    loop as the clock read it and ``scale`` its factor.
    """

    def __init__(self, workload, sampler: Sampler, recorder=None) -> None:
        def root(name):
            return recorder.root(name) if recorder is not None else contextlib.nullcontext()

        gc.collect()
        with sampler.phase() as setup, root(SETUP):
            state = workload.setup()
        with sampler.phase() as loop, root(LOOP):
            result = workload.loop(state)
        self.setup_s = setup.seconds
        self.loop_s = loop.seconds
        self.wall_loop_s = loop.wall_s
        self.scale = loop.scale
        self.outcome = workload.check(state, result)

    def describe(self) -> str:
        return (f"setup {self.setup_s:.4f} s  loop {self.loop_s:.4f} s "
                f"(wall {self.wall_loop_s:.4f} s, host speed scale {self.scale:.3f})")


def traced_rep(workload, sampler: Sampler):
    """One traced rep; its span times get the rep's own net-and-scale factor."""
    recorder = SpanRecorder(workload.name)
    with traced(recorder):
        rep = Rep(workload, sampler, recorder)
    factor = rep.loop_s / rep.wall_loop_s
    layers = {
        name: value * factor if name.endswith("_s") else value
        for name, value in layer_metrics(recorder).items()
    }
    return rep, recorder, layers


def enough(started: float, durations, seconds: float, done: int, minimum: int) -> bool:
    """Stop before the next rep would run past ``seconds`` (after ``minimum``)."""
    if done < minimum:
        return False
    return time.perf_counter() - started + statistics.median(durations) > seconds


def measure(workload, seconds: float, reps):
    """Untraced reps until ``seconds`` are used; end-to-end metrics."""
    import_s = import_seconds()
    sampler = Sampler()
    started = time.perf_counter()
    durations = []
    while not enough(started, durations, seconds, len(reps), MIN_REPS):
        began = time.perf_counter()
        rep = Rep(workload, sampler)
        durations.append(time.perf_counter() - began)
        rep.outcome.require_same((reps or [rep])[0].outcome, "an untraced rep's")
        reps.append(rep)
        print(f"rep {len(reps)}: {rep.describe()}", flush=True)
    return {
        "setup_s": import_s + statistics.median(r.setup_s for r in reps),
        "loop_s": statistics.median(r.loop_s for r in reps),
        "sim_events_per_s": statistics.median(r.outcome.events / r.loop_s for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(workload, seconds: float, reps):
    """Untraced and traced reps alternately; per-layer metrics."""
    sampler = Sampler()
    started = time.perf_counter()
    layer_runs, durations = [], []
    while not enough(started, durations, seconds, len(layer_runs), 1):
        began = time.perf_counter()
        rep = Rep(workload, sampler)
        rep.outcome.require_same((reps or [rep])[0].outcome, "an untraced rep's")
        reps.append(rep)
        traced_one, recorder, layers = traced_rep(workload, sampler)
        traced_one.outcome.require_same(reps[0].outcome, "a traced rep's")
        reps.append(traced_one)
        layer_runs.append(layers)
        durations.append(time.perf_counter() - began)
        print(
            f"pair {len(layer_runs)}: loop {rep.loop_s:.4f} s untraced, "
            f"{traced_one.loop_s:.4f} s traced ({layers['trace.loop_s']:.4f} s in spans)",
            flush=True,
        )
    plain, traced_reps = reps[0::2], reps[1::2]
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.save(os.path.join(OUT_DIR, f"spans-{workload.name}.npz"))

    if hasattr(workload, "check_twin"):
        workload.check_twin(reps[0].outcome)
        print("numeric backend: digest identical", flush=True)

    metrics = {
        name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
    }
    metrics.update(plain[0].outcome.layers)
    metrics["trace.overhead_frac"] = (
        statistics.median(r.loop_s for r in traced_reps)
        / statistics.median(r.loop_s for r in plain) - 1.0
    )
    attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    share = attributed / metrics["trace.loop_s"]
    print(f"layer table (median of {len(layer_runs)} traced reps, loop {metrics['trace.loop_s']:.4f} s):")
    print(f"  {'layer':<12}{'self_s':>10}{'share':>9}")
    for layer in LAYERS:
        self_s = metrics[f"{layer}.self_s"]
        print(f"  {layer:<12}{self_s:>10.4f}{self_s / metrics['trace.loop_s']:>9.1%}")
    print(f"  {'sum':<12}{attributed:>10.4f}{share:>9.1%}")
    if abs(share - 1.0) > 0.10:
        raise RuntimeError(f"layer self times cover {share:.1%} of the traced loop")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run's result as one JSON line to RECORD")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as error:
        fail_setup(f"cannot read BENCHMARK.json: {error}")
    workloads = load_simulator()
    if args.workload not in workloads.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; "
                   f"choose from {', '.join(workloads.WORKLOADS)}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    reps, metrics, correct, workload = [], {}, True, None
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
        metrics = (measure_traced if args.trace else measure)(workload, args.seconds, reps)
        print(f"digest {workload.name} {workloads.digest_text(reps[0].outcome.digest)}")
    except Exception:  # a failed check or a crash: every operation failed
        traceback.print_exc()
        print(f"perfbench: {args.workload} failed; its outputs are not trusted", file=sys.stderr)
        correct = False

    # A rep that raised before its outcome existed still attempted its ops.
    attempted = sum(r.outcome.ops for r in reps) + (0 if correct else getattr(workload, "ops", 1))
    failed = sum(r.outcome.failed for r in reps) if correct else attempted
    metrics["ops_ok_frac"] = 1.0 - failed / attempted
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
            if m["name"] in metrics
        },
    }
    for name, entry in result["metrics"].items():
        print(f"{name:<28} {entry['value']:>16.6g} {entry['unit']}")
    if correct:
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
            result["correct"] = correct = False
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
            handle.write(json.dumps({**record, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
