"""Span tracing around the package's public functions, from outside it.

`Tracer.install()` wraps each traced function and rebinds the wrapper under
every name that refers to the original in any `preoperad` module, since
`laws`, `gamma` and `script` import calculus names directly. Backend methods
and law checkers are patched on their owners. `uninstall()` puts every
original back.

A span is (name, start, end, parent, check id), kept in flat arrays while
the run lasts and written to an .npz file at the end. A check is one law
checker call or one script evaluation.
Self time is a span's duration minus the durations of its direct children.

Counters are taken at the same boundaries; all of them are exact counts
that repeat from run to run on the same inputs.
"""

from __future__ import annotations

import hashlib
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

from preoperad import backends, calculus, cli, domains, endo, free, gamma, laws, rings, script

# (span name, owning module, attribute) for plain functions
FUNCTIONS = (
    ("domains.scope_regions", domains, "scope_regions"),
    ("domains.ground_tetrahedron", domains, "ground_tetrahedron"),
    ("domains.envelope_domains", domains, "envelope_domains"),
    ("domains.boundary_faces", domains, "boundary_faces"),
    ("endo.partial_compose", endo, "partial_compose"),
    ("endo.linear_combine", endo, "linear_combine"),
    ("free.free_partial_compose", free, "free_partial_compose"),
    ("free.free_linear_combine", free, "free_linear_combine"),
    *((f"calculus.{n}", calculus, n) for n in (
        "cup", "bullet", "bracket", "delta", "tribraces", "tetrabraces",
        "dev_tribraces", "dev_tetrabraces")),
    *((f"gamma.{n}", gamma, n) for n in (
        "aux_gamma", "aux_gamma_shifted", "gamma_domain")),
    ("laws.run_suite", laws, "run_suite"),
    ("laws.run_law", laws, "run_law"),
    ("laws.replay", laws, "replay"),
    ("laws.shrink", laws, "shrink"),
    ("script.parse_script", script, "parse_script"),
    ("script.eval_script", script, "eval_script"),
    ("cli.main", cli, "main"),
)

# (span name, class, method)
METHODS = (
    ("backends.compose", backends.EndoBackend, "compose_payload"),
    ("backends.compose", backends.FreeBackend, "compose_payload"),
    ("backends.combine", backends.EndoBackend, "combine_payload"),
    ("backends.combine", backends.FreeBackend, "combine_payload"),
)

COUNT_KEYS = (
    "rings.reduce.calls", "domains.points", "endo.madds", "endo.bytes_out",
    "free.grafts", "backends.compose.repeats",
)
MAX_KEYS = ("endo.table_max_entries", "free.terms_max")


def _domain_points(out) -> int:
    if isinstance(out, domains.LatticeDomain):
        return len(out)
    if isinstance(out, dict):
        return sum(len(v) for v in out.values())
    return sum(len(d) for d in out)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.check = array("i")
        self._stack: list[int] = []
        self.check_id = 0
        self.counts = Counter({k: 0 for k in COUNT_KEYS})
        self.maxes = {k: 0 for k in MAX_KEYS}
        self._seen_compositions: set = set()
        self._digests: dict = {}
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_col.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.check.append(self.check_id)
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn, after=None, before=None):
        """fn inside a span; after(args, result) runs once the span closed,
        so its cost lands in the caller's self time, not fn's."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(args, return_value)
            return return_value

        traced.__wrapped__ = fn
        return traced

    def _begin_check_hook(self, args):
        self.check_id += 1
        self._seen_compositions.clear()
        self._digests.clear()

    # -- counters ----------------------------------------------------------

    def _payload_digest(self, payload) -> bytes:
        hit = self._digests.get(id(payload))
        if hit is not None and hit[0]() is payload:
            return hit[1]
        if isinstance(payload, endo.MultilinearMap):
            body = np.ascontiguousarray(payload.table).tobytes()
        else:
            body = repr(payload.terms).encode()
        digest = hashlib.blake2b(body, digest_size=16,
                                 person=str(payload.degree).encode()).digest()
        self._digests[id(payload)] = (weakref.ref(payload), digest)
        return digest

    def _note_composition(self, args):
        # a span of its own, so digesting large tables is not charged to
        # the caller's self time
        idx = self._open(self._name_id("trace.digest"))
        t0 = time.perf_counter()
        _, left, right, slot = args
        key = (self._payload_digest(left), self._payload_digest(right), slot)
        if key in self._seen_compositions:
            self.counts["backends.compose.repeats"] += 1
        else:
            self._seen_compositions.add(key)
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = time.perf_counter()

    def _after_endo_compose(self, args, out):
        f, g = args[0], args[1]
        self.counts["endo.madds"] += f.dim ** (f.degree + g.degree + 1)
        self._after_endo_table(out)

    def _after_endo_combine(self, args, out):
        self.counts["endo.madds"] += len(args[1]) * out.table.size
        self._after_endo_table(out)

    def _after_endo_table(self, out):
        self.counts["endo.bytes_out"] += out.table.nbytes
        if out.table.size > self.maxes["endo.table_max_entries"]:
            self.maxes["endo.table_max_entries"] = out.table.size

    def _after_free_compose(self, args, out):
        self.counts["free.grafts"] += len(args[0].terms) * len(args[1].terms)
        self._after_free_element(out)

    def _after_free_element(self, out):
        if len(out.terms) > self.maxes["free.terms_max"]:
            self.maxes["free.terms_max"] = len(out.terms)

    def _after_domain(self, args, out):
        self.counts["domains.points"] += _domain_points(out)

    def _counted_reduce(self, fn):
        counts = self.counts

        def reduce(ring, v):
            counts["rings.reduce.calls"] += 1
            return fn(ring, v)

        return reduce

    # -- install / uninstall ----------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "preoperad"
                                   or mod_name.startswith("preoperad.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        after = {name: self._after_domain for name, _, _ in FUNCTIONS
                 if name.startswith("domains.")}
        after.update({
            "endo.partial_compose": self._after_endo_compose,
            "endo.linear_combine": self._after_endo_combine,
            "free.free_partial_compose": self._after_free_compose,
            "free.free_linear_combine": lambda a, out: self._after_free_element(out),
        })
        for name, mod, attr in FUNCTIONS:
            original = getattr(mod, attr)
            # a script evaluation is one check, as a law trial is
            before = self._begin_check_hook if name == "script.eval_script" else None
            self._rebind_everywhere(
                original, self.wrap(name, original, after.get(name), before))
        for name, cls, attr in METHODS:
            before = self._note_composition if name == "backends.compose" else None
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], before=before))
        ring_cls = rings.CoefficientRing
        prime_field = ring_cls.__dict__["prime_field"].__func__
        self._patch(ring_cls, "prime_field",
                    classmethod(self.wrap("rings.prime_field", prime_field)))
        self._patch(ring_cls, "reduce",
                    self._counted_reduce(ring_cls.__dict__["reduce"]))
        for law in laws.list_laws():
            checker = law.checker
            self._undo.append((law, "checker", checker))
            object.__setattr__(law, "checker", self.wrap(
                "laws.check", checker, before=self._begin_check_hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, laws.Law):
                object.__setattr__(owner, attr, original)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "check": np.frombuffer(self.check, dtype=np.int32).copy(),
        }

    def summary(self) -> dict:
        """{name: (calls, inclusive seconds, self seconds)} over all spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        own = dur - children
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        inclusive = np.bincount(a["name"], weights=dur, minlength=n)
        self_time = np.bincount(a["name"], weights=own, minlength=n)
        return {name: (int(calls[i]), float(inclusive[i]), float(self_time[i]))
                for i, name in enumerate(self.names)}

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
