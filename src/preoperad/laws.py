"""Registry of verifiable identities plus a deterministic trial engine.

Every law is a named, seeded, replayable check: the engine draws degrees and
elements from per-trial RNG streams, runs the law's checker, and collects
serialized failure witnesses. Identical (law, config) pairs produce identical
reports apart from the timing field. A witness can be replayed and shrunk.

Batches: the trials of a law that drew the same degrees (and the same extra
data) are stacked into one sample, whose tables carry a leading row axis and
whose tree sums carry one coefficient per row, and the checker runs once on
it; every row gets its own verdict, and each failure is written from its own
trial's sample. A replay and a shrink step are batches of one.

Vacuity: a trial whose index domains are empty on both sides of the identity
proves nothing; such draws are retried a few times and then counted in the
report. A law with fewer than half of its trials non-vacuous is flagged
underpowered, and so is every law over F_2, where -1 = 1 hides every sign.

Canary mutations (documented harness hooks, see calculus.KNOWN_MUTATIONS):
"cup-sign-flip" negates the cup product, "g-range-off-by-one" shifts the
tribrace summation range, "b-relation-sign-drop" removes the exchange sign
from the left-relation checker. Each one must make at least one law fail;
the test suite relies on that to prove the laws are sensitive to every sign
family.
"""

from __future__ import annotations

import hashlib
import numbers
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import endo, free
from .backends import EndoBackend, FreeBackend, GradedElement, signed_sum
from .calculus import (
    KNOWN_MUTATIONS,
    MUTATION_LEFT_RELATION_SIGN,
    PreOperadContext,
    associator,
    bracket,
    bullet,
    cup,
    delta,
    dev_bullet,
    dev_tetrabraces,
    dev_tribraces,
    tetrabraces,
    tribraces,
)
from .domains import (
    boundary_faces,
    envelope_domains,
    full_scope,
    ground_tetrahedron,
    removed_edges,
    scope_regions,
    shifted_tetrahedron,
)
from .endo import ksign
from .errors import BadConfig, PreOperadError, UnknownLaw
from .gamma import GAMMA_KINDS, aux_gamma, aux_gamma_shifted
from .rings import CoefficientRing

_RETRIES = 5
_SHRINK_ZERO_CAP = 2048


@dataclass(frozen=True)
class TrialConfig:
    """Everything a reproducible law run depends on."""

    backend: str = "endo"
    prime: int = 97
    dim: int = 1
    trials: int = 200
    seed: int = 0
    degree_min: int = 1
    degree_max: int = 4
    mutations: tuple = ()

    @property
    def degree_budget(self) -> int:
        # total degree cap keeps dense tables below ~10^5 entries
        return 12 if self.dim <= 2 else 9

    def validate(self):
        if self.backend not in ("endo", "free"):
            raise BadConfig(f"unknown backend {self.backend!r}")
        for name in ("prime", "dim", "trials", "seed", "degree_min", "degree_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise BadConfig(f"{name} must be an integer, got {value!r}")
        for name, least in (("dim", 1), ("trials", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise BadConfig(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.degree_min < 1 or self.degree_max < self.degree_min:
            raise BadConfig("need 1 <= degree_min <= degree_max")
        if not isinstance(self.mutations, (list, tuple)):
            raise BadConfig(f"mutations must be a list of names, got {self.mutations!r}")
        for m in self.mutations:
            if m not in KNOWN_MUTATIONS:
                raise BadConfig(f"unknown mutation {m!r}")
        try:
            ring = CoefficientRing.prime_field(self.prime)
        except PreOperadError as exc:
            raise BadConfig(str(exc)) from exc
        if self.backend == "endo":
            endo.check_int64(ring, self.dim)
        # L27 builds dense tables on either backend
        endo.check_entries(self.dim, self.degree_budget)

    def describe(self) -> dict:
        return {
            "backend": self.backend, "prime": self.prime, "dim": self.dim,
            "trials": self.trials, "seed": self.seed,
            "degree_min": self.degree_min, "degree_max": self.degree_max,
            "mutations": sorted(self.mutations),
        }


@dataclass
class TrialSample:
    """Inputs of one trial, or of rows trials stacked row by row."""

    ctx: PreOperadContext | None
    elements: dict
    degrees: dict
    extra: dict
    rows: int = 1


@dataclass
class FailDetail:
    identity: str
    point: tuple | None
    lhs: GradedElement | None
    rhs: GradedElement | None


def _first_failure(claims, sample: TrialSample) -> list:
    """For each row of sample, the first claim (identity, point, lhs, rhs)
    drawn from claims(sample) whose sides differ in that row, or None.
    Claims are drawn until every row has failed or none is left. rhs None
    claims that lhs is zero. A side that is not an element (a point set, a
    degree) is the same in every row; it is compared but not kept in the
    witness. Element sides are kept as the failing row."""
    details = [None] * sample.rows
    waiting = sample.rows
    for identity, point, lhs, rhs in claims(sample):
        bad = lhs.differs(rhs) if isinstance(lhs, GradedElement) else lhs != rhs
        if not np.any(bad):
            continue
        for r in np.flatnonzero(np.broadcast_to(bad, sample.rows)):
            if details[r] is None:
                details[r] = FailDetail(identity, point, *(
                    x.row(r) if isinstance(x, GradedElement) else None
                    for x in (lhs, rhs)))
                waiting -= 1
        if not waiting:
            break
    return details


@dataclass(frozen=True)
class Law:
    """A named identity: checker(sample) lists, per row of sample, the first
    of claims(sample) that fails there, or None."""

    law_id: str
    description: str
    slots: tuple
    claims: object
    backends: tuple = ("endo", "free")
    force_first: int | None = None
    vacuous_when: object = None
    element_free: bool = False
    fixture_mu: bool = False
    fixed_backend: str | None = None
    extra_sampler: object = None
    checker: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "checker", partial(_first_failure, self.claims))


@dataclass
class Report:
    law_id: str
    status: str
    trials: int
    vacuous: int
    underpowered: bool
    failures: list
    millis: int

    def to_dict(self) -> dict:
        return {
            "law_id": self.law_id, "status": self.status,
            "trials": self.trials, "vacuous": self.vacuous,
            "underpowered": self.underpowered,
            "failures": self.failures, "millis": self.millis,
        }


REPORT_SCHEMA = {
    "type": "object",
    "required": ["law_id", "status", "trials", "vacuous", "underpowered",
                 "failures", "millis"],
    "properties": {
        "law_id": {"type": "string"},
        "status": {"enum": ["pass", "fail"]},
        "trials": {"type": "integer", "minimum": 0},
        "vacuous": {"type": "integer", "minimum": 0},
        "underpowered": {"type": "boolean"},
        "millis": {"type": "integer", "minimum": 0},
        "failures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["law_id", "seed", "backend", "degrees",
                             "elements", "identity", "lhs", "rhs"],
                "properties": {
                    "law_id": {"type": "string"},
                    "seed": {"type": "array", "items": {"type": "integer"}},
                    "backend": {"enum": ["endo", "free"]},
                    "prime": {"type": "integer"},
                    "dim": {"type": "integer"},
                    "mutations": {"type": "array", "items": {"type": "string"}},
                    "degrees": {"type": "object"},
                    "elements": {"type": "object"},
                    "extra": {"type": "object"},
                    "identity": {"type": "string"},
                    "domain_point": {"type": ["array", "null"]},
                    "lhs": {}, "rhs": {},
                },
            },
        },
    },
}

SUITE_SCHEMA = {
    "type": "object",
    "required": ["config", "laws", "status"],
    "properties": {
        "config": {"type": "object"},
        "laws": {"type": "array", "items": REPORT_SCHEMA},
        "status": {"enum": ["pass", "fail"]},
    },
}


# ---------------------------------------------------------------------------
# sampling

def _law_salt(law_id: str) -> int:
    return int.from_bytes(hashlib.sha256(law_id.encode()).digest()[:8], "big")


def _trial_rng(law_id: str, seed: int, trial: int, attempt: int):
    return np.random.default_rng((_law_salt(law_id), seed, trial, attempt))


def _sample_degrees(rng, slots, cfg: TrialConfig, force_first: int | None) -> dict:
    degrees = {}
    remaining = cfg.degree_budget
    for idx, name in enumerate(slots):
        after = len(slots) - idx - 1
        lo = cfg.degree_min
        hi = min(cfg.degree_max, remaining - after * cfg.degree_min)
        if idx == 0 and force_first is not None:
            lo = max(lo, force_first)
        hi = max(hi, lo)
        degrees[name] = int(rng.integers(lo, hi + 1))
        remaining -= degrees[name]
    return degrees


def _fixture_mu(ring: CoefficientRing, dim: int) -> endo.MultilinearMap:
    if dim == 4:
        return endo.matrix_algebra_product(ring)
    return endo.componentwise_product(ring, dim)


def _sampler(law: Law, cfg: TrialConfig):
    """draw(rng, force_first), which draws one trial's TrialSample. The
    ring, the dense backend and a fixture product are built once, here, and
    shared by every sample drawn; a symbolic backend is built once per
    degree tuple, so that the rows of a batch share it."""
    ring = CoefficientRing.prime_field(cfg.prime)
    muts = frozenset(cfg.mutations)
    dense = EndoBackend(ring, cfg.dim, muts)
    fixture = GradedElement(dense, _fixture_mu(ring, cfg.dim)) if law.fixture_mu else None
    symbolic = {}  # generators -> FreeBackend

    def draw(rng, force_first) -> TrialSample:
        degrees = _sample_degrees(rng, law.slots, cfg, force_first)
        if law.element_free:
            extra = law.extra_sampler(rng, degrees, cfg) if law.extra_sampler else {}
            return TrialSample(None, {}, degrees, extra)
        if (law.fixed_backend or cfg.backend) == "endo":
            be = dense
            elements = {name: be.random(degrees[name], rng) for name in law.slots}
            mu = fixture if fixture is not None else be.random(2, rng)
        else:
            gens = tuple((name, degrees[name]) for name in law.slots) + (("mu", 2),)
            be = symbolic.get(gens)
            if be is None:
                be = symbolic[gens] = FreeBackend(ring, free.Signature(gens), muts)
            elements = {name: ring.sample_nonzero(rng) * be.generator(name)
                        for name in law.slots}
            mu = be.generator("mu")
        elements["mu"] = mu
        ctx = PreOperadContext(be, mu)
        extra = law.extra_sampler(rng, degrees, cfg) if law.extra_sampler else {}
        return TrialSample(ctx, elements, degrees, extra)

    return draw


# ---------------------------------------------------------------------------
# checkers: each yields its claims (identity, point, lhs, rhs), see _first_failure

def _check_scope_partition(s: TrialSample):
    dh, df, dg = s.degrees["h"], s.degrees["f"], s.degrees["g"]
    left, nested, right = scope_regions(dh, df)
    ls, ns, rs = set(left.points), set(nested.points), set(right.points)
    yield "scope regions overlap", None, ls & ns | ls & rs | ns & rs, set()
    yield ("scope regions miss the full scope", None,
           ls | ns | rs, set(full_scope(dh, df)))
    # (i, j) -> (j, i + |g|) is injective, so equal sets make it a bijection
    mirror = {(j, i + dg - 1) for (i, j) in ls}
    right_g = set(scope_regions(dh, dg)[2].points)
    yield "left and right regions fail to mirror", None, mirror, right_g


def _relation(region, identity, rhs):
    """(h comp_i f) comp_j g against rhs(h, f, g, i, j) over one scope region."""
    def check(s: TrialSample):
        h, f, g = s.elements["h"], s.elements["f"], s.elements["g"]
        for (i, j) in scope_regions(h.degree, f.degree)[region].points:
            yield identity, (i, j), h.compose(f, i).compose(g, j), rhs(h, f, g, i, j)
    return check


def _left_rhs(h, f, g, i, j):
    sign = ksign(f.shifted_degree * g.shifted_degree)
    if MUTATION_LEFT_RELATION_SIGN in h.backend.mutations:
        sign = 1
    return sign * h.compose(g, j).compose(f, i + g.shifted_degree)


def _nested_rhs(h, f, g, i, j):
    return h.compose(f.compose(g, j - i), i)


def _right_rhs(h, f, g, i, j):
    sign = ksign(f.shifted_degree * g.shifted_degree)
    return sign * h.compose(g, j - f.shifted_degree).compose(f, i)


def _check_units(s: TrialSample):
    f = s.elements["f"]
    unit = s.ctx.unit
    yield "unit absorbed from the left", None, unit.compose(f, 0), f
    for i in range(f.degree):
        yield "unit absorbed from the right", (i,), f.compose(unit, i), f
    yield "total composition with the unit", None, bullet(f, unit), f.degree * f


def _check_cup_props(s: TrialSample):
    ctx = s.ctx
    f, g = s.elements["f"], s.elements["g"]
    mu, unit = ctx.mu, ctx.unit
    yield ("cup against the first product slot", None,
           mu.compose(f, 0), ksign(f.degree) * cup(ctx, f, unit))
    yield ("cup against the second product slot", None,
           mu.compose(f, 1), -1 * cup(ctx, unit, f))
    rhs = -1 * ksign(f.shifted_degree * g.degree) * mu.compose(g, 1).compose(f, 0)
    yield "cup as a double composition", None, cup(ctx, f, g), rhs


def _check_cup_compose(s: TrialSample):
    ctx = s.ctx
    f, g, h = s.elements["f"], s.elements["g"], s.elements["h"]
    for j in range(f.degree + g.degree - 1):
        lhs = cup(ctx, f, g).compose(h, j)
        if j <= f.degree - 1:
            rhs = ksign(g.degree * h.shifted_degree) * cup(ctx, f.compose(h, j), g)
        else:
            rhs = cup(ctx, f, g.compose(h, j - f.degree))
        yield "composing into a cup product", (j,), lhs, rhs


def _check_main_theorem(s: TrialSample):
    ctx = s.ctx
    h, f, g, b = (s.elements[n] for n in ("h", "f", "g", "b"))
    sh, sg, sb = h.shifted_degree, g.shifted_degree, b.shifted_degree
    lhs = ksign(sb) * dev_tetrabraces(ctx, h, f, g, b)
    rhs = (cup(ctx, tribraces(h, f, g), b)
           - tribraces(h, f, cup(ctx, g, b))
           - ksign(sg) * tribraces(h, cup(ctx, f, g), b)
           + ksign(sh * f.degree + sg) * cup(ctx, f, tribraces(h, g, b)))
    yield "quadruple brace deviation closed form", None, lhs, rhs


def _check_right_derivation(s: TrialSample):
    ctx = s.ctx
    f, g, h = s.elements["f"], s.elements["g"], s.elements["h"]
    lhs = bullet(cup(ctx, f, g), h)
    rhs = (cup(ctx, f, bullet(g, h))
           + ksign(h.shifted_degree * g.degree) * cup(ctx, bullet(f, h), g))
    yield "total composition is a two-sided cup derivation", None, lhs, rhs


def _check_delta_expansion(s: TrialSample):
    ctx = s.ctx
    f = s.elements["f"]
    lhs = -1 * delta(ctx, f)
    rhs = (cup(ctx, f, ctx.unit) + bullet(f, ctx.mu)
           + ksign(f.shifted_degree) * cup(ctx, ctx.unit, f))
    yield "coboundary as cup and total composition", None, lhs, rhs


def _check_bullet_deviation(s: TrialSample):
    ctx = s.ctx
    f, g = s.elements["f"], s.elements["g"]
    lhs = ksign(g.shifted_degree) * dev_bullet(ctx, f, g)
    rhs = cup(ctx, f, g) - ksign(f.degree * g.degree) * cup(ctx, g, f)
    yield ("total composition deviation measures commutativity", None,
           lhs, rhs)


def _check_delta_squared(s: TrialSample):
    ctx = s.ctx
    f = s.elements["f"]
    yield "fixture product is associative", None, bullet(ctx.mu, ctx.mu), None
    yield "coboundary squares to zero", None, delta(ctx, delta(ctx, f)), None


def _check_getzler(s: TrialSample):
    h, f, g = s.elements["h"], s.elements["f"], s.elements["g"]
    lhs = associator(h, f, g)
    rhs = (tribraces(h, f, g)
           + ksign(f.shifted_degree * g.shifted_degree) * tribraces(h, g, f))
    yield "associator splits into brace sums", None, lhs, rhs


def _check_gerstenhaber(s: TrialSample):
    h, f, g = s.elements["h"], s.elements["f"], s.elements["g"]
    lhs = associator(h, f, g)
    rhs = ksign(f.shifted_degree * g.shifted_degree) * associator(h, g, f)
    yield "associator symmetry in the last two slots", None, lhs, rhs


def _tri_deviation(product: str, identity: str):
    """L15 and L16: the triple brace deviation as three cup terms whose
    inner products are total compositions (product "bullet") or brackets
    ("bracket"), looked up by module-level name when the check runs."""
    def check(s: TrialSample):
        ctx = s.ctx
        op = bullet if product == "bullet" else bracket
        h, f, g = s.elements["h"], s.elements["f"], s.elements["g"]
        lhs = ksign(g.shifted_degree) * dev_tribraces(ctx, h, f, g)
        rhs = (cup(ctx, op(h, f), g)
               + ksign(h.shifted_degree * f.degree) * cup(ctx, f, op(h, g))
               - op(h, cup(ctx, f, g)))
        yield identity, None, lhs, rhs
    return check


def _check_bracket(s: TrialSample):
    ctx = s.ctx
    f, g = s.elements["f"], s.elements["g"]
    anti = (bracket(f, g)
            + ksign(f.shifted_degree * g.shifted_degree) * bracket(g, f))
    yield "bracket antisymmetry", None, anti, None
    yield ("bracket with the product gives the coboundary", None,
           bracket(f, ctx.mu), -1 * delta(ctx, f))


def _check_lemma_first(s: TrialSample):
    ctx = s.ctx
    h, f, g, b = (s.elements[n] for n in ("h", "f", "g", "b"))
    sg, sb = g.shifted_degree, b.shifted_degree
    db, dg, df = (delta(ctx, x) for x in (b, g, f))
    for (i, j, k) in ground_tetrahedron(h.degree, f.degree, g.degree).points:
        hf = h.compose(f, i)
        hfg = hf.compose(g, j)
        lhs = signed_sum(ctx.backend, hfg.degree + b.degree, (
            (1, delta(ctx, hfg.compose(b, k))),
            (-1, hfg.compose(db, k)),
            (-ksign(sb), hf.compose(dg, j).compose(b, k + 1)),
            (-ksign(sb + sg), h.compose(df, i).compose(g, j + 1).compose(b, k + 1))))
        rhs = signed_sum(ctx.backend, lhs.degree, (
            (1, aux_gamma(ctx, kind, h, f, g, b, i + 1, j + 1, k + 1))
            for kind in GAMMA_KINDS))
        yield "pointwise coboundary telescoping", (i, j, k), lhs, rhs


def _check_lemma_second(s: TrialSample):
    ctx = s.ctx
    h, f, g, b = (s.elements[n] for n in ("h", "f", "g", "b"))
    sf, sg, sb = f.shifted_degree, g.shifted_degree, b.shifted_degree
    dh = delta(ctx, h)
    for (i, j, k) in ground_tetrahedron(dh.degree, f.degree, g.degree).points:
        lhs = ksign(sf + sg + sb) * dh.compose(f, i).compose(g, j).compose(b, k)
        # the four families at staggered points
        points = ((i, j, k), (i + 1, j, k), (i + 1, j + 1, k), (i + 1, j + 1, k + 1))
        rhs = signed_sum(ctx.backend, lhs.degree, (
            (1, aux_gamma(ctx, kind, h, f, g, b, *point))
            for kind, point in zip(GAMMA_KINDS, points)))
        yield "coboundary of the outer slot telescopes", (i, j, k), lhs, rhs


def _face_rhs(ctx, kind, h, f, g, b, i, j, k):
    """The cup-product closed form of one auxiliary family on its face."""
    sh, sg, sb = h.shifted_degree, g.shifted_degree, b.shifted_degree
    db, df = b.degree, f.degree
    if kind == "gamma":
        return ksign(sg + db + sh * df) * cup(
            ctx, f, h.compose(g, j - df).compose(b, k - df))
    if kind == "gamma1":
        return ksign(sb + sg) * h.compose(cup(ctx, f, g), i - 1).compose(b, k)
    if kind == "gamma2":
        return ksign(sb) * h.compose(f, i - 1).compose(cup(ctx, g, b), j - 1)
    return ksign(db) * cup(ctx, h.compose(f, i - 1).compose(g, j - 1), b)


def _face_checker(kind):
    def check(s: TrialSample):
        ctx = s.ctx
        h, f, g, b = (s.elements[n] for n in ("h", "f", "g", "b"))
        for (i, j, k) in boundary_faces(h.degree, f.degree, g.degree)[kind]:
            yield (f"{kind} face collapses to a cup product", (i, j, k),
                   aux_gamma(ctx, kind, h, f, g, b, i, j, k),
                   _face_rhs(ctx, kind, h, f, g, b, i, j, k))
    return check


def _check_recap_vs_shifted(s: TrialSample):
    ctx = s.ctx
    h, f, g, b = (s.elements[n] for n in ("h", "f", "g", "b"))
    for (i, j, k) in ground_tetrahedron(h.degree, f.degree, g.degree).points:
        for kind in GAMMA_KINDS:
            yield (f"total {kind} matches its raw shifted form", (i, j, k),
                   aux_gamma_shifted(ctx, kind, h, f, g, b, i, j, k),
                   aux_gamma(ctx, kind, h, f, g, b, i + 1, j + 1, k + 1))


def _check_envelope_partition(s: TrialSample):
    dh, df, dg, db = (s.degrees[n] for n in ("h", "f", "g", "b"))
    interior, env, trunc, bound = envelope_domains(dh, df, dg, db)
    faces = boundary_faces(dh, df, dg)
    face_sets = [set(faces[k]) for k in GAMMA_KINDS]
    union = set().union(*face_sets)
    inner, bset = set(interior.points), set(bound.points)
    # disjoint exactly when no point is counted twice
    yield "boundary faces overlap", None, sum(map(len, face_sets)), len(union)
    yield "boundary differs from the face union", None, bset, union
    yield ("truncated envelope fails to split", None,
           set(trunc.points), inner | bset)
    yield "interior meets the boundary", None, inner & bset, set()
    yield ("removed edges differ from the wall count", None,
           set(env.points) - set(trunc.points), set(removed_edges(dh, df, dg)))
    yield ("interior differs from the shifted tetrahedron", None,
           set(shifted_tetrahedron(dh, df, dg).points), inner)


def _check_degree_bookkeeping(s: TrialSample):
    ctx = s.ctx
    h, f, g, b = (s.elements[n] for n in ("h", "f", "g", "b"))
    dh, df, dg, db = h.degree, f.degree, g.degree, b.degree
    attempts = (
        ("cup", cup(ctx, f, g).degree, df + dg),
        ("bullet", bullet(f, g).degree, df + dg - 1),
        ("bracket", bracket(f, g).degree, df + dg - 1),
        ("delta", delta(ctx, f).degree, df + 1),
        ("tribraces", tribraces(h, f, g).degree, dh + df + dg - 2),
        ("tetrabraces", tetrabraces(h, f, g, b).degree, dh + df + dg + db - 3),
        ("dev_bullet", dev_bullet(ctx, f, g).degree, df + dg),
        ("dev_tribraces", dev_tribraces(ctx, h, f, g).degree, dh + df + dg - 1),
        ("dev_tetrabraces", dev_tetrabraces(ctx, h, f, g, b).degree,
         dh + df + dg + db - 2),
    )
    for name, got, want in attempts:
        yield f"{name} lands in the wrong degree", None, got, want


def _word_sampler(rng, degrees, cfg):
    word = []
    current = degrees["a"]
    for name in ("b", "c", "d")[: int(rng.integers(0, 4))]:
        slot = int(rng.integers(0, current))
        word.append([name, slot])
        current += degrees[name] - 1
    return {"word": word}


def _check_cross_backend(s: TrialSample):
    degrees = s.degrees
    ring = s.ctx.backend.ring
    dim = s.ctx.backend.dim
    gens = tuple((name, degrees[name]) for name in ("a", "b", "c", "d"))
    fb = FreeBackend(ring, free.Signature(gens))
    symbolic = fb.generator("a")
    concrete = s.elements["a"]
    for name, slot in s.extra["word"]:
        symbolic = symbolic.compose(fb.generator(name), slot)
        concrete = concrete.compose(s.elements[name], slot)
    assignment = {name: s.elements[name].payload for name, _ in gens}
    image = free.evaluate_hom(symbolic.payload, assignment, ring, dim)
    yield ("table substitution commutes with the word",
           tuple(tuple(w) for w in s.extra["word"]),
           GradedElement(s.ctx.backend, image), concrete)


def _vac_h_below(n):
    return lambda degrees: degrees["h"] < n


_LAWS = [
    Law("L01-scope-partition",
        "The scope of a double composition splits into the left, nested and "
        "right regions, and left mirrors right.",
        ("h", "f", "g"), _check_scope_partition, element_free=True),
    Law("L02-relation-left",
        "Exchanging two compositions when the second factor lands strictly "
        "left of the first costs the product of shifted degrees.",
        ("h", "f", "g"),
        _relation(0, "exchange with the second factor left", _left_rhs),
        vacuous_when=_vac_h_below(2)),
    Law("L03-relation-nested",
        "A composition landing inside the inner factor is the same as "
        "composing the inner factors first.",
        ("h", "f", "g"),
        _relation(1, "sequential nesting", _nested_rhs)),
    Law("L04-relation-right",
        "Exchanging two compositions when the second factor lands strictly "
        "right of the first costs the product of shifted degrees.",
        ("h", "f", "g"),
        _relation(2, "exchange with the second factor right", _right_rhs),
        vacuous_when=_vac_h_below(2)),
    Law("L05-unit-laws",
        "The unit is absorbed from either side and totals to deg(f) copies.",
        ("f",), _check_units),
    Law("L06-cup-product",
        "Cup against either slot of the product, and cup as a double "
        "composition.",
        ("f", "g"), _check_cup_props),
    Law("L07-cup-compose",
        "Composing into a cup product acts on exactly one factor, with a "
        "sign when it acts on the first.",
        ("f", "g", "h"), _check_cup_compose),
    Law("L08-main-theorem",
        "The coboundary deviation of the quadruple brace sum collapses to "
        "four cup and brace terms.",
        ("h", "f", "g", "b"), _check_main_theorem, force_first=3,
        vacuous_when=_vac_h_below(2)),
    Law("L09-right-derivation",
        "Total composition by a fixed element is a derivation of the cup "
        "product up to one sign.",
        ("f", "g", "h"), _check_right_derivation),
    Law("L10-delta-expansion",
        "Minus the coboundary equals the two unit cups plus the total "
        "composition with the product.",
        ("f",), _check_delta_expansion),
    Law("L11-bullet-deviation",
        "The coboundary deviation of the total composition measures cup "
        "commutativity.",
        ("f", "g"), _check_bullet_deviation),
    Law("L12-delta-squared",
        "Over an associative fixture product the coboundary squares to zero.",
        ("f",), _check_delta_squared, backends=("endo",), fixture_mu=True),
    Law("L13-getzler",
        "The associator of the total composition is the symmetrized triple "
        "brace sum.",
        ("h", "f", "g"), _check_getzler),
    Law("L14-gerstenhaber-symmetry",
        "The associator is symmetric in its last two slots up to the product "
        "of shifted degrees.",
        ("h", "f", "g"), _check_gerstenhaber),
    Law("L15-tri-deviation",
        "The coboundary deviation of the triple brace sum collapses to three "
        "cup terms.",
        ("h", "f", "g"),
        _tri_deviation("bullet", "triple brace deviation closed form")),
    Law("L16-tri-deviation-bracket",
        "The triple brace deviation rewrites with brackets in place of total "
        "compositions.",
        ("h", "f", "g"),
        _tri_deviation("bracket", "triple brace deviation via brackets")),
    Law("L17-bracket-laws",
        "The bracket is graded antisymmetric and bracketing with the product "
        "gives minus the coboundary.",
        ("f", "g"), _check_bracket),
    Law("L18-lemma-first",
        "Pointwise over the ground tetrahedron, the coboundary of a triple "
        "composite telescopes into the four auxiliary families.",
        ("h", "f", "g", "b"), _check_lemma_first, force_first=3,
        vacuous_when=_vac_h_below(3)),
    Law("L19-lemma-second",
        "The coboundary applied to the outer slot equals a staggered sum of "
        "the four auxiliary families.",
        ("h", "f", "g", "b"), _check_lemma_second, force_first=3,
        vacuous_when=_vac_h_below(2)),
    Law("L20-boundary-gamma",
        "On the wall i = 0 the first auxiliary family is a left cup factor.",
        ("h", "f", "g", "b"), _face_checker("gamma"), force_first=3,
        vacuous_when=_vac_h_below(2)),
    Law("L21-boundary-gamma1",
        "On its wall the second auxiliary family composes a cup of the two "
        "middle inputs.",
        ("h", "f", "g", "b"), _face_checker("gamma1"), force_first=3,
        vacuous_when=_vac_h_below(2)),
    Law("L22-boundary-gamma2",
        "On its wall the third auxiliary family composes a cup of the two "
        "last inputs.",
        ("h", "f", "g", "b"), _face_checker("gamma2"), force_first=3,
        vacuous_when=_vac_h_below(2)),
    Law("L23-boundary-gamma3",
        "On the far wall the fourth auxiliary family is a right cup factor.",
        ("h", "f", "g", "b"), _face_checker("gamma3"), force_first=3,
        vacuous_when=_vac_h_below(2)),
    Law("L24-gamma-recap",
        "The unit-absorbed auxiliary definitions match the raw shifted-index "
        "expressions on the shifted interior.",
        ("h", "f", "g", "b"), _check_recap_vs_shifted, force_first=3,
        vacuous_when=_vac_h_below(3)),
    Law("L25-envelope-partition",
        "Truncated envelope = shifted interior + four disjoint faces, and "
        "the removed points are exactly the six wall-pair edges.",
        ("h", "f", "g", "b"), _check_envelope_partition, element_free=True),
    Law("L26-degree-bookkeeping",
        "Every derived operation lands in its stated degree.",
        ("h", "f", "g", "b"), _check_degree_bookkeeping),
    Law("L27-cross-backend",
        "Random symbolic composition words map to the same dense table as "
        "the word evaluated directly.",
        ("a", "b", "c", "d"), _check_cross_backend, fixed_backend="endo",
        extra_sampler=_word_sampler),
]

_REGISTRY = {law.law_id: law for law in _LAWS}


def list_laws():
    return list(_LAWS)


def get_law(law_id: str) -> Law:
    try:
        return _REGISTRY[law_id]
    except KeyError:
        raise UnknownLaw(f"no law with id {law_id!r}") from None


def laws_for_backend(backend: str):
    return [law for law in _LAWS if backend in law.backends]


# ---------------------------------------------------------------------------
# engine

def _witness(head: dict, sample: TrialSample, detail: FailDetail) -> dict:
    """A failure witness: head's fields (law, seed, run settings), with the
    failing sample and check written over any it already holds."""
    return {
        **head,
        "degrees": dict(sorted(sample.degrees.items())),
        "elements": {name: el.serialize()
                     for name, el in sorted(sample.elements.items())},
        "extra": sample.extra,
        "identity": detail.identity,
        "domain_point": list(detail.point) if detail.point is not None else None,
        "lhs": detail.lhs.serialize() if detail.lhs is not None else None,
        "rhs": detail.rhs.serialize() if detail.rhs is not None else None,
    }


def _batch_key(sample: TrialSample):
    """Samples with equal keys, their degrees and extra data, run as one
    batch."""
    return repr((sample.degrees, sample.extra))


def _stack(samples) -> TrialSample:
    """One sample whose rows are samples, in order; they share degrees and
    extra data. A lone sample is its own batch of one."""
    first = samples[0]
    if len(samples) == 1:
        return first
    if first.ctx is None:
        return replace(first, rows=len(samples))
    backend = first.ctx.backend
    elements = {name: GradedElement(backend, backend.stack_payloads(
                    [s.elements[name].payload for s in samples]))
                for name in first.elements}
    return TrialSample(PreOperadContext(backend, elements["mu"]), elements,
                       first.degrees, first.extra, len(samples))


def run_law(law_id: str, cfg: TrialConfig) -> Report:
    """Run one law over cfg.trials seeded trials.

    Every trial is drawn first, in order; the non-vacuous ones are then
    checked in batches of equal batch key. A law that builds tables splits
    each batch so that its rows of the largest table the degree budget
    allows stay under the entry cap; a symbolic batch is never split.
    Failures are reported in trial order.

    Over F_2 the report is always underpowered: -1 = 1 there, so no check
    can tell a sign from its flip (the cup-sign-flip canary passes).
    """
    law = get_law(law_id)
    cfg.validate()
    if cfg.backend not in law.backends:
        raise BadConfig(f"{law.law_id} does not run on the {cfg.backend} backend")
    if len(law.slots) * cfg.degree_min > cfg.degree_budget:
        raise BadConfig(f"degree_min {cfg.degree_min} cannot fit "
                        f"{len(law.slots)} inputs under the degree budget "
                        f"{cfg.degree_budget}")
    start = time.perf_counter()
    draw = _sampler(law, cfg)
    batches = {}
    vacuous = 0
    for trial in range(cfg.trials):
        force = law.force_first if (law.force_first and trial % 2 == 0) else None
        for attempt in range(_RETRIES):
            rng = _trial_rng(law_id, cfg.seed, trial, attempt)
            sample = draw(rng, force)
            if not (law.vacuous_when and law.vacuous_when(sample.degrees)):
                break
        else:
            vacuous += 1
            continue
        batches.setdefault(_batch_key(sample), []).append(
            (trial, attempt, sample))
    most = max(1, cfg.trials)  # symbolic trials build no table
    if (law.fixed_backend or cfg.backend) == "endo":
        most = max(1, endo.MAX_ENTRIES // cfg.dim ** (cfg.degree_budget + 1))
    failed = {}  # trial -> witness
    for group in batches.values():
        for lo in range(0, len(group), most):
            batch = group[lo:lo + most]
            details = law.checker(_stack([sample for _, _, sample in batch]))
            for (trial, attempt, sample), detail in zip(batch, details):
                if detail is not None:
                    head = {"law_id": law.law_id,
                            "seed": [cfg.seed, trial, attempt],
                            "backend": law.fixed_backend or cfg.backend,
                            "prime": cfg.prime, "dim": cfg.dim,
                            "mutations": sorted(cfg.mutations)}
                    failed[trial] = _witness(head, sample, detail)
    failures = [failed[trial] for trial in sorted(failed)]
    millis = int(round((time.perf_counter() - start) * 1000))
    non_vacuous = cfg.trials - vacuous
    return Report(
        law_id=law_id,
        status="fail" if failures else "pass",
        trials=cfg.trials,
        vacuous=vacuous,
        underpowered=non_vacuous * 2 < cfg.trials or cfg.prime == 2,
        failures=failures,
        millis=millis,
    )


def run_suite(cfg: TrialConfig, law_ids=None) -> dict:
    cfg.validate()
    if law_ids is None:
        chosen = laws_for_backend(cfg.backend)
    else:
        chosen = [get_law(i) for i in law_ids]
        for law in chosen:
            if cfg.backend not in law.backends:
                raise BadConfig(f"{law.law_id} does not run on the "
                                f"{cfg.backend} backend")
    reports = [run_law(law.law_id, cfg) for law in chosen]
    ok = all(r.status == "pass" and not r.underpowered for r in reports)
    return {
        "config": cfg.describe(),
        "laws": [r.to_dict() for r in reports],
        "status": "pass" if ok else "fail",
    }


# ---------------------------------------------------------------------------
# replay and shrink

def _rebuild_sample(witness: dict) -> TrialSample:
    law = get_law(witness["law_id"])
    muts = frozenset(witness.get("mutations", ()))
    unknown = sorted(muts - set(KNOWN_MUTATIONS))
    if unknown:
        raise BadConfig(f"unknown mutations {unknown}")
    if law.element_free:
        return TrialSample(None, {}, dict(witness["degrees"]),
                           dict(witness.get("extra", {})))
    if witness["backend"] not in ("endo", "free"):
        raise BadConfig(f"unknown backend {witness['backend']!r}")
    ring = CoefficientRing.prime_field(witness["prime"])
    if witness["backend"] == "endo":
        backend = EndoBackend(ring, witness["dim"], muts)
    else:
        sig = free.Signature(tuple(
            (str(n), int(d))
            for n, d in witness["elements"]["mu"]["signature"]))
        backend = FreeBackend(ring, sig, muts)
    elements = {name: backend.deserialize(data)
                for name, data in witness["elements"].items()}
    ctx = PreOperadContext(backend, elements["mu"])
    degrees = {name: el.degree for name, el in elements.items() if name != "mu"}
    return TrialSample(ctx, elements, degrees, dict(witness.get("extra", {})))


def replay(witness: dict) -> FailDetail | None:
    """Re-run the failed check on the stored elements."""
    law = get_law(witness["law_id"])
    sample = _rebuild_sample(witness)
    return law.checker(sample)[0]


def _lowered(sample: TrialSample, name: str, steps: int) -> TrialSample | None:
    """sample with input name lowered by steps degrees, or None.

    A table keeps its entries whose last steps inputs are 0. A tree sum is
    lowered when it is c times the bare generator of name and no other
    element's trees hold that generator: the generator's degree drops in a
    new signature, and every element is re-signed over it.
    """
    el = sample.elements[name]
    payload = el.payload
    if payload.degree - steps < 1:
        return None
    if isinstance(payload, endo.MultilinearMap):
        table = np.asarray(payload.table)
        for _ in range(steps):
            table = table[..., 0]
        lowered = endo.make_map(payload.ring, payload.dim,
                                payload.degree - steps, table.reshape(-1))
        return _replace_element(sample, name, GradedElement(el.backend, lowered))
    sig = payload.signature
    if (not sig.has(name) or len(payload.terms) != 1
            or payload.terms[0][0] != free.generator_tree(sig, name)):
        return None
    node = "(" + name
    if any(node in tree for other, x in sample.elements.items()
           if other != name for tree, _ in x.payload.terms):
        return None
    sig = free.Signature(tuple((n, d - steps if n == name else d)
                               for n, d in sig.generators))
    backend = FreeBackend(payload.ring, sig, el.backend.mutations)
    elements = {n: GradedElement(backend, replace(x.payload, signature=sig))
                for n, x in sample.elements.items()}
    elements[name] = payload.terms[0][1] * backend.generator(name)
    return TrialSample(PreOperadContext(backend, elements["mu"]), elements,
                       {**sample.degrees, name: payload.degree - steps},
                       dict(sample.extra))


def _zeroed(el: GradedElement, flat_index: int) -> GradedElement | None:
    payload = el.payload
    if isinstance(payload, endo.MultilinearMap):
        flat = np.asarray(payload.table).reshape(-1).copy()
        if flat_index >= flat.size or flat[flat_index] == 0:
            return None
        flat[flat_index] = 0
        return GradedElement(el.backend,
                             endo.make_map(payload.ring, payload.dim,
                                           payload.degree, flat))
    if flat_index >= len(payload.terms):
        return None
    terms = payload.terms[:flat_index] + payload.terms[flat_index + 1:]
    return GradedElement(el.backend, replace(payload, terms=terms))


def _still_fails(law: Law, sample: TrialSample) -> FailDetail | None:
    try:
        return law.checker(sample)[0]
    except PreOperadError:
        return None


def _replace_element(sample: TrialSample, name: str,
                     el: GradedElement) -> TrialSample:
    elements = {**sample.elements, name: el}
    degrees = dict(sample.degrees)
    ctx = sample.ctx
    if name == "mu":
        ctx = PreOperadContext(ctx.backend, el)
    else:
        degrees[name] = el.degree
    return TrialSample(ctx, elements, degrees, dict(sample.extra))


def _candidates(sample: TrialSample):
    """Smaller samples, in the order shrink tries them: each input but mu
    lowered by one degree or else by two, then each entry (or term) of each
    element zeroed."""
    names = sorted(sample.elements)
    for name in names:
        if name == "mu":
            continue
        # lowering by two preserves shifted-degree parity, so a sign
        # sensitive failure can still step down past a parity barrier
        for steps in (1, 2):
            lowered = _lowered(sample, name, steps)
            if lowered is not None:
                yield lowered
    for name in names:
        el = sample.elements[name]
        size = (np.asarray(el.payload.table).size
                if isinstance(el.payload, endo.MultilinearMap)
                else len(el.payload.terms))
        for idx in range(min(size, _SHRINK_ZERO_CAP)):
            zeroed = _zeroed(el, idx)
            if zeroed is not None:
                yield _replace_element(sample, name, zeroed)


def shrink(witness: dict) -> dict:
    """Greedy witness reduction: take the first smaller sample that still
    fails, and start over from it until none does.

    The result still fails and running shrink on it again is a no-op.
    """
    law = get_law(witness["law_id"])
    if law.element_free:
        return dict(witness)
    sample = _rebuild_sample(witness)
    detail = _still_fails(law, sample)
    if detail is None:
        return dict(witness)
    current = _witness(witness, sample, detail)
    while True:
        for cand in _candidates(sample):
            detail = _still_fails(law, cand)
            if detail is not None:
                sample, current = cand, _witness(current, cand, detail)
                break
        else:
            return current
