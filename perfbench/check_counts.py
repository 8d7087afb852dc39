"""Checks that the benchmark's counts repeat exactly and match BENCHMARK.json.

    python3 perfbench/check_counts.py [--workload NAME]... [--seed N]

For each workload (all four by default) the traced run is made twice;
every per-layer count (units count and bytes, plus the compose repeat
ratio) and the verdict digest must be identical between the two. The
metric names and units that run.py prints must be the ones BENCHMARK.json
declares. Exit 0 when everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spread import one_run  # noqa: E402

EXACT_UNITS = ("count", "bytes")
EXACT_NAMES = ("backends.compose.repeat_ratio",)


def declared_matches_printed() -> list:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for key, printed in (("end_to_end", run.END_TO_END_UNITS),
                         ("per_layer", run.per_layer_units())):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != printed:
            problems.append(f"{key}: BENCHMARK.json and run.py disagree: "
                            f"{sorted(set(declared.items()) ^ set(printed.items()))}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problems = declared_matches_printed()
    for workload in args.workload or run.WORKLOADS:
        a, b = (one_run(workload, args.seed, 1, 1) for _ in range(2))
        if not (a["correct"] and b["correct"]):
            problems.append(f"{workload}: a traced run reported correct=false")
        if a["digest"] != b["digest"]:
            problems.append(f"{workload}: digests differ {a['digest']} {b['digest']}")
        exact = [name for name, m in a["metrics"].items()
                 if m["unit"] in EXACT_UNITS or name in EXACT_NAMES]
        differ = [name for name in exact
                  if a["metrics"][name]["value"] != b["metrics"][name]["value"]]
        for name in differ:
            problems.append(f"{workload}: {name} "
                            f"{a['metrics'][name]['value']} != "
                            f"{b['metrics'][name]['value']}")
        print(f"{workload}: {len(exact) - len(differ)}/{len(exact)} counts "
              f"identical, digest {a['digest']}")
    for line in problems:
        print("FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
