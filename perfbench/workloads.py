"""The four workloads. Each one builds its inputs from the seed in
`__init__` (the set-up that `setup_s` times) and runs one repetition of
its unit of work in `rep`, checking every verdict against a known answer.

A repetition returns a `Rep`: its start and end on perf_counter, the
same for each sub-unit (a law, a braces instance, a mutation/backend
pair), the checks attempted and failed, the number of non-vacuous trials or
instances checked, and a digest of the verdicts that excludes timings and
element payloads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from preoperad import cli, laws, script
from preoperad.backends import EndoBackend
from preoperad.endo import ksign
from preoperad.errors import PreOperadError
from preoperad.rings import CoefficientRing

PRIME = 97

# target law of each canary mutation
CANARY_TARGETS = {
    "cup-sign-flip": "L06-cup-product",
    "b-relation-sign-drop": "L02-relation-left",
    "g-range-off-by-one": "L13-getzler",
}
# per mutation and backend: the target law fails; the shrunk witness
# still fails on replay
CANARY_CHECKS = 2

# (deg h, deg f, deg g, deg b); each sums to 11, so the closed form has
# degree 9 and dim-4 results hold 4^10 (about 10^6) entries
BRACES_DEGREES = ((5, 2, 2, 2), (4, 3, 2, 2), (4, 2, 3, 2), (4, 2, 2, 3))
BRACES_DIM = 4


@dataclass
class Rep:
    t0: float
    t1: float
    units: list  # (start, end) of each sub-unit on perf_counter
    attempted: int
    failed: int
    checked: int
    digest: str
    counts: dict = field(default_factory=dict)


def verdict_digest(obj) -> str:
    """Hash of a report with timings and element payloads left out, so
    neither the clock nor free-term ordering can change it."""
    def strip(x):
        if isinstance(x, dict):
            out = {k: strip(v) for k, v in x.items()
                   if k not in ("millis", "lhs", "rhs", "elements")}
            if "elements" in x:
                out["element_names"] = sorted(x["elements"])
            return out
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x
    text = json.dumps(strip(obj), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Suite:
    """`preoperad verify --law all --report FILE` on one backend, CLI
    defaults otherwise (p = 97, dim 2, 200 trials, degrees 1..4)."""

    calibration = "interpreter"

    def __init__(self, backend: str, seed: int, outdir: Path):
        self.report_path = outdir / f"suite-{backend}.json"
        self.argv = ["verify", "--law", "all", "--backend", backend,
                     "--prime", str(PRIME), "--dim", "2", "--seed", str(seed),
                     "--report", str(self.report_path)]
        cfg = laws.TrialConfig(backend=backend, prime=PRIME, dim=2, seed=seed)
        cfg.validate()
        self.law_count = len(laws.laws_for_backend(backend))

    def rep(self) -> Rep:
        t0 = time.perf_counter()
        code = _quiet_cli(self.argv)
        t1 = time.perf_counter()
        report = json.loads(self.report_path.read_text()) if code in (0, 1) else None
        if report is None:
            return Rep(t0, t1, [], self.law_count, self.law_count, 0, "error")
        bad = sum(1 for r in report["laws"]
                  if r["status"] != "pass" or r["underpowered"])
        if code != 0 and bad == 0:
            bad = 1
        checked = sum(r["trials"] - r["vacuous"] for r in report["laws"])
        # laws run one after another; their millis place them in the run
        ends = t0 + np.cumsum([r["millis"] / 1000 for r in report["laws"]])
        units = list(zip(np.concatenate(([t0], ends[:-1])), ends))
        return Rep(t0, t1, units,
                   len(report["laws"]), bad, checked, verdict_digest(report),
                   {"laws.vacuous": sum(r["vacuous"] for r in report["laws"])})


def closed_form_script(degrees) -> str:
    """Main theorem closed form minus (-1)^|b| dev_tetrabraces, written
    out with delta and tetra; the identity makes it the zero table."""
    dh, df, dg, db = degrees
    sh, sf, sg, sb = dh - 1, df - 1, dg - 1, db - 1
    rhs = [
        (1, "cup(tri(h, f, g), b)"),
        (-1, "tri(h, f, cup(g, b))"),
        (-ksign(sg), "tri(h, cup(f, g), b)"),
        (ksign(sh * df + sg), "cup(f, tri(h, g, b))"),
    ]
    dev = [
        (1, "delta(tetra(h, f, g, b))"),
        (-1, "tetra(h, f, g, delta(b))"),
        (-ksign(sb), "tetra(h, f, delta(g), b)"),
        (-ksign(sb + sg), "tetra(h, delta(f), g, b)"),
        (-ksign(sb + sg + sf), "tetra(delta(h), f, g, b)"),
    ]
    terms = rhs + [(-ksign(sb) * c, text) for c, text in dev]
    decls = "".join(f"let {n}: deg {d};\n" for n, d in zip("hfgb", degrees))
    body = terms[0][1] + "".join(
        f"\n  {'+' if c > 0 else '-'} {text}" for c, text in terms[1:])
    return decls + body + "\n"


class Braces:
    """The quadruple brace closed form as a script on endo, dim 4, one
    instance per degree pattern, random tables and mu drawn from the seed."""

    calibration = "memory"

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng(seed)
        backend = EndoBackend(CoefficientRing.prime_field(PRIME), BRACES_DIM)
        self.instances = []
        # a fixed order: peak RSS depends on the order large tables are freed
        for degrees in BRACES_DEGREES:
            bindings = {n: backend.random(d, rng) for n, d in zip("hfgb", degrees)}
            bindings["mu"] = backend.random(2, rng)
            self.instances.append((degrees, closed_form_script(degrees), bindings))
        self.backend = backend

    def _one(self, text, bindings):
        parsed = script.parse_script(text)
        return script.eval_script(parsed, self.backend, bindings=bindings)

    def rep(self) -> Rep:
        units, failed, verdicts = [], 0, []
        t0 = time.perf_counter()
        for degrees, text, bindings in self.instances:
            u0 = time.perf_counter()
            try:
                value = self._one(text, bindings)
                ok = value.degree == sum(degrees) - 2 and value.is_zero()
                verdicts.append([list(degrees), value.degree, ok])
            except PreOperadError as exc:
                ok = False
                verdicts.append([list(degrees), type(exc).__name__])
            units.append((u0, time.perf_counter()))
            failed += not ok
        n = len(self.instances)
        return Rep(t0, time.perf_counter(), units, n, failed, n,
                   verdict_digest(verdicts))


class Canary:
    """Each known mutation on both backends: the target law must fail; the
    first witness is replayed, shrunk, replayed again and written out."""

    calibration = "interpreter"

    def __init__(self, seed: int, outdir: Path):
        self.outdir = outdir
        self.tasks = []
        for mutation, law_id in CANARY_TARGETS.items():
            for backend in ("endo", "free"):
                report = outdir / f"canary-{mutation}-{backend}.json"
                argv = ["verify", "--law", law_id, "--backend", backend,
                        "--prime", str(PRIME), "--dim", "2", "--seed", str(seed),
                        "--mutate", mutation, "--report", str(report)]
                self.tasks.append((mutation, law_id, backend, argv, report))

    def _one(self, mutation, law_id, backend, argv, report_path):
        """Returns (failed checks, degree drop, vacuous trials, verdict)."""
        code = _quiet_cli(argv)
        if code != 1:
            return CANARY_CHECKS, 0, 0, f"exit {code}"
        report = json.loads(report_path.read_text())
        law = report["laws"][0]
        if law["law_id"] != law_id or not law["failures"]:
            return CANARY_CHECKS, 0, law["vacuous"], report
        witness = law["failures"][0]
        replayed = laws.replay(witness)
        shrunk = laws.shrink(witness)
        again = laws.replay(shrunk)
        shrunk_path = self.outdir / f"canary-{mutation}-{backend}-shrunk.json"
        with open(shrunk_path, "w", encoding="utf-8") as fh:
            json.dump(shrunk, fh, indent=2, sort_keys=True)
        drop = sum(witness["degrees"].values()) - sum(shrunk["degrees"].values())
        failed = int(replayed is None or again is None)
        return failed, drop, law["vacuous"], [report, shrunk]

    def rep(self) -> Rep:
        units, failed, verdicts = [], 0, []
        counts = {"laws.shrink.degree_drop": 0, "laws.vacuous": 0}
        t0 = time.perf_counter()
        for task in self.tasks:
            u0 = time.perf_counter()
            try:
                bad, drop, vacuous, verdict = self._one(*task)
                counts["laws.shrink.degree_drop"] += drop
                counts["laws.vacuous"] += vacuous
            except PreOperadError as exc:
                bad, verdict = CANARY_CHECKS, type(exc).__name__
            units.append((u0, time.perf_counter()))
            verdicts.append([task[0], task[2], verdict])
            failed += bad
        attempted = CANARY_CHECKS * len(self.tasks)
        return Rep(t0, time.perf_counter(), units, attempted, failed, attempted,
                   verdict_digest(verdicts), counts)


def build(name: str, seed: int, outdir: Path):
    if name == "suite-endo":
        return Suite("endo", seed, outdir)
    if name == "suite-free":
        return Suite("free", seed, outdir)
    if name == "braces-d4":
        return Braces(seed, outdir)
    if name == "canary-shrink":
        return Canary(seed, outdir)
    raise ValueError(f"unknown workload {name!r}")
