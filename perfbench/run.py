"""Time-to-verdict benchmark for preoperad.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, single-threaded (BLAS/OpenMP pinned to one thread). Workloads:
suite-endo, suite-free, braces-d4, canary-shrink (see workloads.py).

The run repeats the workload's unit of work, closed loop with one caller,
until --seconds have passed (at least once), checking every verdict. The
last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics; times are in reference-speed
seconds (refclock.py) and raw times are printed on the line above. The
run, its set-up children and the speed sampler are pinned to one CPU.
--trace 1 runs the same untraced loop, then one traced repetition, and
reports the per-layer metrics; spans go to perfbench/_out/spans-NAME.npz.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_SAMPLES = 5
WORKLOADS = ("suite-endo", "suite-free", "braces-d4", "canary-shrink")

# spans reported as NAME.calls and NAME.self_s
SPAN_LAYERS = (
    "rings.prime_field",
    "domains.scope_regions", "domains.ground_tetrahedron",
    "domains.envelope_domains", "domains.boundary_faces",
    "endo.partial_compose", "endo.linear_combine",
    "free.free_partial_compose", "free.free_linear_combine",
    "backends.compose", "backends.combine",
    "calculus.cup", "calculus.bullet", "calculus.bracket", "calculus.delta",
    "calculus.tribraces", "calculus.tetrabraces", "calculus.dev_tribraces",
    "calculus.dev_tetrabraces",
    "gamma.aux_gamma", "gamma.aux_gamma_shifted", "gamma.gamma_domain",
    "laws.run_law", "laws.check", "script.eval_script", "cli.main",
)

# the remaining per-layer metrics: name -> unit
EXTRA_LAYER_METRICS = {
    "rings.reduce.calls": "count",
    "domains.points": "count",
    "endo.madds": "count",
    "endo.bytes_out": "bytes",
    "endo.table_max_entries": "count",
    "free.grafts": "count",
    "free.terms_max": "count",
    "backends.compose.repeat_ratio": "ratio",
    "laws.vacuous": "count",
    "laws.replay.s": "s",
    "laws.shrink.s": "s",
    "laws.shrink.degree_drop": "count",
    "script.parse_script.s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "checks_per_s": "1/s",
    "slowest_unit_s": "s", "peak_rss_mb": "MB", "correct_share": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_LAYER_METRICS)
    return units


def _import_workloads():
    if not (SRC / "preoperad" / "__init__.py").is_file():
        raise SystemExit(f"error: no preoperad sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import preoperad
    if Path(preoperad.__file__).resolve().parent != SRC / "preoperad":
        raise SystemExit("error: imported preoperad from outside ./src")
    return workloads


def _setup_child(workload: str, seed: int) -> int:
    """Import the package and build the workload's inputs in this fresh
    interpreter; print when that started and ended on perf_counter."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    OUT.mkdir(exist_ok=True)
    workloads.build(workload, seed, OUT)
    print(json.dumps({"t0": t0, "t1": time.perf_counter()}))
    return 0


def _measure_setup(workload: str, seed: int):
    """Median reference-speed and raw seconds of the set-up children."""
    from refclock import SpeedSampler
    spans = []
    with SpeedSampler("interpreter") as sampler:
        for _ in range(SETUP_SAMPLES):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-child",
                 "--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True, timeout=120, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"error: set-up of {workload} failed")
            sample = json.loads(done.stdout.strip().splitlines()[-1])
            spans.append((sample["t0"], sample["t1"]))
        speed = sampler.stop()
    return (statistics.median(speed.ref_s(*span) for span in spans),
            statistics.median(speed.raw_s(*span) for span in spans))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _trace_metrics(tracer, rep, traced_ref_s, untraced_ref_s) -> dict:
    summary = tracer.summary()
    speed = traced_ref_s / (rep.t1 - rep.t0)
    metrics = {}
    for name in SPAN_LAYERS:
        calls, _, self_s = summary.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s * speed
    compose_calls = summary.get("backends.compose", (0, 0.0, 0.0))[0]
    counts = {**tracer.counts, **tracer.maxes, **rep.counts}
    metrics.update({
        "rings.reduce.calls": counts["rings.reduce.calls"],
        "domains.points": counts["domains.points"],
        "endo.madds": counts["endo.madds"],
        "endo.bytes_out": counts["endo.bytes_out"],
        "endo.table_max_entries": counts["endo.table_max_entries"],
        "free.grafts": counts["free.grafts"],
        "free.terms_max": counts["free.terms_max"],
        "backends.compose.repeat_ratio": (
            counts["backends.compose.repeats"] / compose_calls if compose_calls else 0.0),
        "laws.vacuous": counts.get("laws.vacuous", 0),
        "laws.replay.s": summary.get("laws.replay", (0, 0.0, 0.0))[1] * speed,
        "laws.shrink.s": summary.get("laws.shrink", (0, 0.0, 0.0))[1] * speed,
        "laws.shrink.degree_drop": counts.get("laws.shrink.degree_drop", 0),
        "script.parse_script.s": summary.get("script.parse_script", (0, 0.0, 0.0))[1] * speed,
        "trace.overhead_ratio": traced_ref_s / untraced_ref_s,
        "trace.spans": len(tracer.start),
    })
    units = per_layer_units()
    return {name: _metric(metrics[name], units[name]) for name in units}


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_ref, setup_raw = _measure_setup(workload, seed)
    workloads = _import_workloads()
    import numpy
    from refclock import SpeedSampler
    print(f"env python={sys.version.split()[0]} numpy={numpy.__version__} "
          f"cpus={os.cpu_count()}")
    OUT.mkdir(exist_ok=True)
    wl = workloads.build(workload, seed, OUT)
    reps = []
    traced = None
    with SpeedSampler(wl.calibration) as sampler:
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            reps.append(wl.rep())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = wl.rep()
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"spans-{workload}.npz")
        speed = sampler.stop()

    all_reps = reps + ([traced] if traced else [])
    attempted = sum(r.attempted for r in all_reps)
    failed = sum(r.failed for r in all_reps)
    digests = {r.digest for r in all_reps}
    correct = failed == 0 and len(digests) == 1
    print(f"digest {workload} seed={seed} {reps[0].digest}"
          + ("" if len(digests) == 1 else f" MISMATCH {sorted(digests)}"))

    ref = [speed.ref_s(r.t0, r.t1) for r in reps]
    wall_ref = statistics.median(ref)
    print(f"raw reps={len(reps)} "
          f"wall_s={statistics.median(speed.raw_s(r.t0, r.t1) for r in reps):.6f} "
          f"setup_s={setup_raw:.6f} speed={statistics.median(speed.speeds()):.4f}")
    if trace:
        metrics = _trace_metrics(tracer, traced, speed.ref_s(traced.t0, traced.t1),
                                 wall_ref)
    else:
        values = {
            "setup_s": setup_ref,
            "wall_s": wall_ref,
            "checks_per_s": statistics.median(r.checked / x for r, x in zip(reps, ref)),
            # each unit's median over the repetitions, then the slowest
            "slowest_unit_s": max((statistics.median(times) for times in zip(
                *([speed.ref_s(*u) for u in r.units] for r in reps))), default=0.0),
            "peak_rss_mb": peak_rss_mb,
            "correct_share": 1.0 - failed / attempted,
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_child:
        return _setup_child(args.workload, args.seed)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
