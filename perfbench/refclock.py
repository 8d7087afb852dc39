"""Timing in reference-speed seconds, from a sampler in its own process.

The machines this benchmark runs on are shared: the same pure-Python loop
can take 20 ms for a few seconds and 32 ms for the next twenty. A raw wall
time therefore mixes the program's cost with the neighbours' load. A
sampler process runs a short calibration loop that does not touch the
package, every interval, and prints

    perf_counter at start and end, CPU seconds used, speed

where speed = nominal loop time / the loop's CPU time. run.py pins itself
and the sampler to one CPU, so the sampler measures the CPU the program
runs on, while sharing none of its heap, garbage collector or resident
set; CPU time, not wall time, because the two processes take turns on
that CPU. perf_counter is CLOCK_MONOTONIC, one clock for every process.
Afterwards `SpeedTrace.ref_s(t0, t1)` turns an interval of the program
into reference seconds: elapsed time times the speed interpolated between
samples, less the CPU time the sampler took from the program in that
interval. `raw_s(t0, t1)` is the same interval without the speed factor.
A change to the package cannot change the loop, so the ratio between two
commits is kept while the machine's drift is divided out.

Two loops, because load slows interpreter-bound and memory-bound code by
different amounts: "interpreter" (integer arithmetic in a Python loop, then
rendering and sorting tree s-expressions) for workloads made of many small
calls, and "memory" (multiply and reduce an 8 MB int64 array in place) for
workloads whose time goes to large tables.

    python3 perfbench/refclock.py KIND     # the sampler; stops at stdin EOF
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np


def _tree(depth: int):
    return "_" if depth == 0 else ("n", (_tree(depth - 1), _tree(depth - 1)))


_TREE = _tree(5)


def _sexpr(tree) -> str:
    if tree == "_":
        return tree
    return "(" + " ".join([tree[0]] + [_sexpr(c) for c in tree[1]]) + ")"


def _interpreter_loop():
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    keyed = {_sexpr(_TREE) + str(k): k for k in range(48)}
    sorted(keyed)


class Calibration:
    """A fixed loop, its nominal time and how often to sample it."""

    def __init__(self, kind: str):
        if kind == "interpreter":
            self._loop, self.nominal_s, self.interval_s = _interpreter_loop, 0.004, 0.25
        elif kind == "memory":
            table = np.arange(1 << 20, dtype=np.int64)
            out = np.empty_like(table)

            def memory_loop():
                np.multiply(table, 3, out=out)
                np.remainder(out, 97, out=out)

            self._loop, self.nominal_s, self.interval_s = memory_loop, 0.0045, 0.5
        else:
            raise ValueError(f"unknown calibration {kind!r}")

    def speed(self) -> float:
        """Nominal time over the median of three runs of the loop."""
        samples = []
        for _ in range(3):
            t0 = time.thread_time()
            self._loop()
            samples.append(time.thread_time() - t0)
        return self.nominal_s / statistics.median(samples)


def sample_until_eof(kind: str):
    """The sampler process: one line per sample until stdin is closed."""
    calibration = Calibration(kind)
    stdin = sys.stdin.fileno()
    while True:
        t0, cpu0 = time.perf_counter(), time.thread_time()
        speed = calibration.speed()
        cpu = time.thread_time() - cpu0
        print(f"{t0!r} {time.perf_counter()!r} {cpu!r} {speed!r}", flush=True)
        ready, _, _ = select.select([stdin], [], [], calibration.interval_s)
        if ready and not os.read(stdin, 1):
            return


class SpeedTrace:
    """Speed samples (start, end, CPU seconds, speed), sorted by time."""

    def __init__(self, samples):
        if not samples:
            raise ValueError("the speed sampler recorded no sample")
        self.samples = np.array(sorted(samples), dtype=float)

    def speeds(self) -> np.ndarray:
        return self.samples[:, 3]

    def _busy(self, t0: float, t1: float) -> np.ndarray:
        """CPU time each sample took inside [t0, t1], in proportion to the
        overlap of its wall interval with [t0, t1]."""
        start, end, cpu = self.samples[:, 0], self.samples[:, 1], self.samples[:, 2]
        overlap = np.clip(np.minimum(end, t1) - np.maximum(start, t0), 0.0, None)
        return cpu * overlap / np.maximum(end - start, 1e-9)

    def raw_s(self, t0: float, t1: float) -> float:
        return (t1 - t0) - float(self._busy(t0, t1).sum())

    def ref_s(self, t0: float, t1: float) -> float:
        mids = self.samples[:, :2].mean(axis=1)
        speeds = self.samples[:, 3]
        inner = mids[(mids > t0) & (mids < t1)]
        grid = np.concatenate(([t0], inner, [t1]))
        at = np.interp(grid, mids, speeds)
        total = float(np.sum((at[1:] + at[:-1]) / 2 * np.diff(grid)))
        return total - float(np.dot(self._busy(t0, t1), speeds))


class SpeedSampler:
    """Runs the sampler process of one calibration kind while open."""

    def __init__(self, kind: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), kind],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        # the first sample is taken before the measurement starts
        self.lines = [self.proc.stdout.readline()]

    def stop(self) -> SpeedTrace:
        self.proc.stdin.close()
        self.lines += self.proc.stdout.readlines()
        self.proc.wait(timeout=30)
        if self.proc.returncode != 0:
            raise RuntimeError(f"speed sampler exited {self.proc.returncode}")
        return SpeedTrace([tuple(map(float, line.split()))
                           for line in self.lines if line.strip()])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


if __name__ == "__main__":
    sample_until_eof(sys.argv[1])
