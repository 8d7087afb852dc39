"""Runs the benchmark over several seeds and reports each metric's median
and spread (distance between first and third quartile over the median).

    python3 perfbench/spread.py [--workload NAME]... [--seeds 1-10] [--out FILE]

Each run is `run.py --trace 0 --seconds S` with S the run_seconds of
BENCHMARK.json. Runs are sequential, one process at a time. The raw
(uncorrected) wall and set-up medians of each run are summarized next to
the reference-speed metrics. With --out, the per-run results and the
summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["digest"] = next(line.split()[-1] for line in lines
                            if line.startswith("digest "))
    result["info"] = lines[:-1]
    return result


def _raw(run: dict) -> dict:
    """The raw medians from the run's "raw ..." information line."""
    line = next(line for line in run["info"] if line.startswith("raw "))
    fields = dict(item.split("=") for item in line.split()[1:])
    return {f"raw.{k}": {"value": float(fields[k]), "unit": "s"}
            for k in ("wall_s", "setup_s")}


def summarize(runs: list) -> dict:
    out = {}
    columns = [{**r["metrics"], **_raw(r)} for r in runs]
    for name in columns[0]:
        values = [c[name]["value"] for c in columns]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "unit": columns[0][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    report = {}
    for workload in args.workload or WORKLOADS:
        runs = [one_run(workload, s, seconds, 0)
                for s in _seeds(args.seeds)]
        summary = summarize(runs)
        report[workload] = {"runs": runs, "summary": summary,
                            "correct": all(r["correct"] for r in runs)}
        print(f"{workload}: {len(runs)} runs, correct={report[workload]['correct']}")
        for name, s in summary.items():
            print(f"  {name:32s} median={s['median']:<12.6g} "
                  f"spread={s['spread']:.4f} {s['unit']}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["correct"] for r in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
