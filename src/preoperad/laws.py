"""Registry of verifiable identities plus a deterministic trial engine.

Every law is a named, seeded, replayable check: the engine draws degrees
from the law's seeded stream, builds the inputs the check reads, runs the
law's checker, counts the failing trials and keeps one serialized witness,
that of the first failing trial. Identical (law, config) pairs produce
identical reports apart from the timing field. A witness can be replayed
and shrunk.

Protocol: a law's claims(ctx, *inputs) yields (identity, point, lhs, rhs)
claims. Its inputs come in the order of Law.slots: elements, or degrees
with ctx None for an element-free law. No checker looks an input up by name.

Stream: a law draws all its trials, in trial order, from one Generator,
np.random.default_rng((salt, seed)) with the law's salt (_draws). A trial
is its degree tuple and nothing else: no table is drawn from this stream,
so the endo and free backends draw the same trials at every seed. A trial
runs its vacuous retries inline, so a run of n trials draws exactly the
first n trials of any longer run with the same settings.

Batches: the trials of a law that drew the same degrees share a batch key,
their degree tuple, and run as one check on one sample with a row per
trial (_builder). An element-free sample holds no element. A free sample
holds the bare generators, a bare mu and a context built once per degree
tuple: sending each generator x to c_x * x, c_x nonzero, is an injective
morphism of the free pre-operad, so the bare generators stand for every
trial of their degrees, and a single tree sum is every row. An endo key
draws its tables from its own Generator, seeded from (law salt, seed,
*degrees), one endo._random_maps call per batch, row r for the r-th trial
of the key; a batch of one holds single tables. Each batch is checked
once, and the witness is cut from the failing row of the batch that holds
the first failing trial: its inputs and the sides of its first failing
claim. A replay and a shrink step are batches of one.

Vacuity: a trial whose index domains are empty on both sides of the identity
proves nothing. Such an attempt stops after its degrees and is retried
from where the stream stands a few times; then the trial is counted
vacuous in the report. A law with fewer than half of its trials
non-vacuous is flagged underpowered, and so is every law over F_2, where
-1 = 1 hides every sign.

Canary mutations (documented harness hooks, see calculus.KNOWN_MUTATIONS):
"cup-sign-flip" negates the cup product, "g-range-off-by-one" shifts the
tribrace summation range, "b-relation-sign-drop" removes the exchange sign
from the left-relation checker. Each one must make at least one law fail;
the test suite relies on that to prove the laws are sensitive to every sign
family.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from . import endo, free
from .backends import (
    EndoBackend,
    FreeBackend,
    GradedElement,
    _element,
    compose_sum,
    joint_sum,
    prefix_chains,
    signed_sum,
)
from .calculus import (
    KNOWN_MUTATIONS,
    MUTATION_LEFT_RELATION_SIGN,
    PreOperadContext,
    _brace_regions,
    _bracket_regions,
    _cup_regions,
    _delta_regions,
    associator,
    braces,
    bracket,
    bullet,
    cup,
    delta,
    dev_braces,
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
from .errors import (
    BackendMismatch,
    BadConfig,
    DegreeMismatch,
    InvalidDegree,
    PreOperadError,
    UnknownLaw,
)
from .gamma import GAMMA_KINDS, GammaFamilies
from .rings import CoefficientRing, require_field, require_integer

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
        # total degree cap of one trial; endo.MAX_ENTRIES bounds its tables
        return 12 if self.dim <= 2 else 9

    def validate(self):
        if self.backend not in ("endo", "free"):
            raise BadConfig(f"unknown backend {self.backend!r}")
        for name in ("prime", "dim", "trials", "seed", "degree_min", "degree_max"):
            require_integer(getattr(self, name), name, BadConfig)
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
        # refused on either backend, so that a dim means the same on both
        endo.check_entries(self.dim, self.degree_budget)

    def describe(self) -> dict:
        return {**asdict(self), "mutations": sorted(self.mutations)}


@dataclass
class TrialSample:
    """Inputs of one trial, or of rows trials stacked row by row."""

    ctx: PreOperadContext | None
    elements: dict
    degrees: dict
    rows: int = 1


@dataclass
class FailDetail:
    identity: str
    point: tuple | None
    lhs: GradedElement | None
    rhs: GradedElement | None


def _first_failure(claims, slots, sample: TrialSample) -> list:
    """For each row of sample, the first claim (identity, point, lhs, rhs)
    of claims(sample.ctx, *inputs) whose sides differ in that row, or None;
    the inputs are the sample's elements named by slots, in slot order, or
    their degrees if it holds none. Claims are drawn until every row has
    failed or none is left. rhs None claims that lhs is zero. A failing
    claim makes one FailDetail, shared by the rows that fail first there,
    whose element sides are kept as the check built them (_witness cuts a
    row). A side that is not an element (a point set, a degree) is compared
    but not kept in the witness. A PreOperadError raised while claims are
    drawn or compared is a fault of the check on valid inputs: every row
    fails, its text the identity."""
    details, waiting = [None] * sample.rows, sample.rows
    inputs = sample.elements or sample.degrees
    try:
        for identity, point, lhs, rhs in claims(
                sample.ctx, *(inputs[name] for name in slots)):
            bad = lhs.differs(rhs) if isinstance(lhs, GradedElement) else lhs != rhs
            if type(bad) is bool:  # one verdict for every row
                if not bad:
                    continue
                failing = range(sample.rows)
            elif np.any(bad):
                failing = np.flatnonzero(np.broadcast_to(bad, sample.rows))
            else:
                continue
            detail = FailDetail(identity, point, *(
                x if isinstance(x, GradedElement) else None for x in (lhs, rhs)))
            for r in failing:
                if details[r] is None:
                    details[r] = detail
                    waiting -= 1
            if not waiting:
                break
    except PreOperadError as exc:
        return [FailDetail(f"check raised {type(exc).__name__}: {exc}",
                           None, None, None)] * sample.rows
    return details


@dataclass(frozen=True)
class Law:
    """A named identity of the inputs slots: claims(ctx, *inputs) yields its
    claims (the module's protocol), and checker(sample) lists, per row of
    sample, the first that fails there, or None (see _first_failure)."""

    law_id: str
    description: str
    slots: tuple
    claims: object
    backends: tuple = ("endo", "free")
    force_first: int | None = None
    vacuous_when: object = None
    element_free: bool = False
    fixture_mu: bool = False
    checker: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "checker",
                           partial(_first_failure, self.claims, self.slots))


@dataclass
class Report:
    law_id: str
    status: str
    trials: int
    vacuous: int
    underpowered: bool
    failed: int
    failures: list
    millis: int

    def to_dict(self) -> dict:
        return asdict(self)


REPORT_SCHEMA = {
    "type": "object",
    "required": ["law_id", "status", "trials", "vacuous", "underpowered",
                 "failed", "failures", "millis"],
    "properties": {
        "law_id": {"type": "string"},
        "status": {"enum": ["pass", "fail"]},
        "trials": {"type": "integer", "minimum": 0},
        "vacuous": {"type": "integer", "minimum": 0},
        "underpowered": {"type": "boolean"},
        "failed": {"type": "integer", "minimum": 0},
        "millis": {"type": "integer", "minimum": 0},
        "failures": {
            "type": "array",
            "maxItems": 1,
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

def _salt(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _sample_degrees(rng, slots, cfg: TrialConfig, force_first: int | None) -> dict:
    degrees = {}
    remaining = cfg.degree_budget
    for idx, name in enumerate(slots):
        after = len(slots) - idx - 1
        lo = cfg.degree_min
        hi = min(cfg.degree_max, remaining - after * cfg.degree_min)
        if idx == 0 and force_first is not None:
            lo = max(lo, min(force_first, cfg.degree_max))
        hi = max(hi, lo)
        degrees[name] = int(rng.integers(lo, hi + 1))
        remaining -= degrees[name]
    return degrees


@lru_cache(maxsize=4096)
def _bare_generators(prime: int, mutations: tuple, gens: tuple) -> tuple:
    """(context, bare generators by name) of the free pre-operad on gens,
    (name, degree) pairs, over F_prime with mutations; the context is None
    unless gens hold a product mu. Built once per key and shared by every
    law and trial that asks for it."""
    be = FreeBackend(CoefficientRing.prime_field(prime), free.Signature(gens),
                     frozenset(mutations))
    bare = {name: be.generator(name) for name, _ in gens}
    return (PreOperadContext(be, bare["mu"]) if "mu" in bare else None), bare


def _builder(law: Law, cfg: TrialConfig):
    """build(key, group), which yields (batch, sample) for group, the drawn
    (trial, attempt, degrees) of batch key key, the degree tuple, in trial
    order: sample is the checked sample whose rows are batch's trials.
    Without tables (element-free or free) the group is one batch. An endo
    group draws from its own Generator, seeded from (law salt, seed, *key)
    as plain ints, in batches whose rows of the largest table the degree
    budget allows stay under the entry cap: each batch its inputs' tables
    in slot order, then mu's unless mu is the fixture, in one
    endo._random_maps call. So the r-th trial of a key gets row r of the
    key's stream whatever the trial count, and a split just continues the
    stream. The law salt, the ring, the dense backend and a fixture
    product are built once, here."""
    salt = _salt(law.law_id)
    ring = CoefficientRing.prime_field(cfg.prime)
    muts = frozenset(cfg.mutations)
    dense = EndoBackend(ring, cfg.dim, muts)
    fixture = None
    if law.fixture_mu:  # associative: componentwise, or 2x2 matrices at dim 4
        fixture = _element(dense, endo.matrix_algebra_product(ring) if cfg.dim == 4
                           else endo.componentwise_product(ring, cfg.dim))
    drawn = law.slots if fixture is not None else (*law.slots, "mu")
    most = max(1, endo.MAX_ENTRIES // cfg.dim ** (cfg.degree_budget + 1))

    def build(key, group):
        degrees = group[0][2]
        if law.element_free:
            yield group, TrialSample(None, {}, degrees, len(group))
        elif cfg.backend == "free":
            ctx, bare = _bare_generators(cfg.prime, tuple(sorted(muts)), tuple(
                (name, degrees[name]) for name in law.slots) + (("mu", 2),))
            yield group, TrialSample(ctx, bare, degrees, len(group))
        else:
            rng = np.random.default_rng((salt, cfg.seed, *key))
            for lo in range(0, len(group), most):
                batch = group[lo:lo + most]
                maps = endo._random_maps(ring, cfg.dim, [  # mu has degree 2
                    degrees.get(name, 2) for name in drawn], rng, len(batch))
                elements = dict(zip(drawn, (_element(dense, m) for m in maps)))
                elements.setdefault("mu", fixture)
                yield batch, TrialSample(PreOperadContext(dense, elements["mu"]),
                                         elements, degrees, len(batch))

    return build


# ---------------------------------------------------------------------------
# checkers: claims(ctx, *inputs) of each law, yielding (identity, point, lhs, rhs)

def _check_scope_partition(_, dh, df, dg):
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
    def check(_, h, f, g):
        points = scope_regions(h.degree, f.degree)[region].points
        for (i, j), (_, hfg) in zip(points, prefix_chains(h, (f, g), points)):
            yield identity, (i, j), hfg, rhs(h, f, g, i, j)
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


def _check_units(ctx, f):
    yield "unit absorbed from the left", None, ctx.unit.compose(f, 0), f
    for i in range(f.degree):
        yield "unit absorbed from the right", (i,), f.compose(ctx.unit, i), f
    yield "total composition with the unit", None, bullet(f, ctx.unit), f.degree * f


def _check_cup_props(ctx, f, g):
    mu, unit = ctx.mu, ctx.unit
    yield ("cup against the first product slot", None,
           mu.compose(f, 0), ksign(f.degree) * cup(ctx, f, unit))
    yield ("cup against the second product slot", None,
           mu.compose(f, 1), -1 * cup(ctx, unit, f))
    rhs = -1 * ksign(f.shifted_degree * g.degree) * mu.compose(g, 1).compose(f, 0)
    yield "cup as a double composition", None, cup(ctx, f, g), rhs


def _check_cup_compose(ctx, f, g, h):
    fg = cup(ctx, f, g)
    for j in range(f.degree + g.degree - 1):
        lhs = fg.compose(h, j)
        if j <= f.degree - 1:
            rhs = ksign(g.degree * h.shifted_degree) * cup(ctx, f.compose(h, j), g)
        else:
            rhs = cup(ctx, f, g.compose(h, j - f.degree))
        yield "composing into a cup product", (j,), lhs, rhs


def _deviation(identity, inner):
    """L08, L15 and L16, on the inputs h, f_1, ..., f_n:
    (-1)^|f_n| dev_braces(h; f_1..f_n) = h{f_1..f_(n-1)} cup f_n
      + (-1)^(|h| deg f_1 + |f_2| + ... + |f_(n-1)|) f_1 cup h{f_2..f_n}
      - sum over k of (-1)^(|f_(k+1)| + ... + |f_(n-1)|) h{.., f_k cup f_(k+1), ..},
    the braces on the right being inner ("braces", or "bracket" at n = 2).
    The right side is one joint sum of the regions of its n + 1
    operations, each regions function looked up by module-level name when
    the check runs."""
    def check(ctx, h, *fs):
        if inner == "bracket":
            op, op_regions = bracket, lambda c, h, *fs: _bracket_regions(c, h, *fs)
        else:
            op, op_regions = braces, lambda c, h, *fs: _brace_regions(c, h, fs)
        lhs = ksign(fs[-1].shifted_degree) * dev_braces(ctx, h, *fs)

        def regions():
            yield from _cup_regions(ctx, 1, op(h, *fs[:-1]), fs[-1])
            sign = ksign(h.shifted_degree * fs[0].degree
                         + sum(f.shifted_degree for f in fs[1:-1]))
            yield from _cup_regions(ctx, sign, fs[0], op(h, *fs[1:]))
            sign = -1
            for k in range(len(fs) - 1, 0, -1):
                yield from op_regions(sign, h, *fs[:k - 1],
                                      cup(ctx, fs[k - 1], fs[k]), *fs[k + 1:])
                sign *= ksign(fs[k - 1].shifted_degree)

        yield identity, None, lhs, joint_sum(ctx.backend, lhs.degree, regions())
    return check


def _check_right_derivation(ctx, f, g, h):
    lhs = bullet(cup(ctx, f, g), h)
    rhs = (cup(ctx, f, bullet(g, h))
           + ksign(h.shifted_degree * g.degree) * cup(ctx, bullet(f, h), g))
    yield "total composition is a two-sided cup derivation", None, lhs, rhs


def _check_delta_expansion(ctx, f):
    lhs = -1 * delta(ctx, f)
    rhs = (cup(ctx, f, ctx.unit) + bullet(f, ctx.mu)
           + ksign(f.shifted_degree) * cup(ctx, ctx.unit, f))
    yield "coboundary as cup and total composition", None, lhs, rhs


def _check_bullet_deviation(ctx, f, g):
    lhs = ksign(g.shifted_degree) * dev_braces(ctx, f, g)
    rhs = cup(ctx, f, g) - ksign(f.degree * g.degree) * cup(ctx, g, f)
    yield ("total composition deviation measures commutativity", None,
           lhs, rhs)


def _check_delta_squared(ctx, f):
    yield "fixture product is associative", None, bullet(ctx.mu, ctx.mu), None
    yield "coboundary squares to zero", None, delta(ctx, delta(ctx, f)), None


def _check_getzler(_, h, f, g):
    lhs = associator(h, f, g)
    rhs = (braces(h, f, g)
           + ksign(f.shifted_degree * g.shifted_degree) * braces(h, g, f))
    yield "associator splits into brace sums", None, lhs, rhs


def _check_gerstenhaber(_, h, f, g):
    lhs = associator(h, f, g)
    rhs = ksign(f.shifted_degree * g.shifted_degree) * associator(h, g, f)
    yield "associator symmetry in the last two slots", None, lhs, rhs


def _check_bracket(ctx, f, g):
    anti = (bracket(f, g)
            + ksign(f.shifted_degree * g.shifted_degree) * bracket(g, f))
    yield "bracket antisymmetry", None, anti, None
    yield ("bracket with the product gives the coboundary", None,
           bracket(f, ctx.mu), -1 * delta(ctx, f))


def _check_lemma_first(ctx, h, f, g, b):
    sg, sb = g.shifted_degree, b.shifted_degree
    db, dg, df = (delta(ctx, x) for x in (b, g, f))
    points = ground_tetrahedron(h.degree, f.degree, g.degree).points
    families = GammaFamilies(ctx, h, f, g, b)
    totals = [families.totals(kind, [(i + 1, j + 1, k + 1)
                                     for (i, j, k) in points])
              for kind in GAMMA_KINDS]
    chains = zip(prefix_chains(h, (f, g), [(i, j) for i, j, _ in points]),
                 prefix_chains(h, (df,), [(i,) for i, _, _ in points]))
    for (i, j, k), ((hf, hfg), (h_df,)) in zip(points, chains):
        lhs = joint_sum(ctx.backend, hfg.degree + b.degree, (
            *_delta_regions(ctx, 1, hfg.compose(b, k)),
            (-1, hfg, (db,), ((k,),)),
            # hf comp dg and h_df comp g both end in comp_{k+1} b: summed
            # first, fused, and not kept past this point
            (-1, compose_sum(ctx.backend, hfg.degree + 1, (
                (ksign(sb), hf, dg, j),
                (ksign(sb + sg), h_df, g, j + 1))), (b,), ((k + 1,),))))
        rhs = signed_sum(ctx.backend, lhs.degree,
                         ((1, next(values)) for values in totals))
        yield "pointwise coboundary telescoping", (i, j, k), lhs, rhs


def _check_lemma_second(ctx, h, f, g, b):
    sf, sg, sb = f.shifted_degree, g.shifted_degree, b.shifted_degree
    dh = delta(ctx, h)
    points = ground_tetrahedron(dh.degree, f.degree, g.degree).points
    # the four families at staggered points
    families = GammaFamilies(ctx, h, f, g, b)
    totals = [families.totals(kind, [(i + di, j + dj, k + dk)
                                     for (i, j, k) in points])
              for kind, (di, dj, dk) in zip(GAMMA_KINDS, (
                  (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)))]
    chains = prefix_chains(dh, (f, g), [(i, j) for i, j, _ in points])
    for (i, j, k), (_, dhfg) in zip(points, chains):
        lhs = compose_sum(ctx.backend, dhfg.degree + b.degree - 1,
                          ((ksign(sf + sg + sb), dhfg, b, k),))
        rhs = signed_sum(ctx.backend, lhs.degree,
                         ((1, next(values)) for values in totals))
        yield "coboundary of the outer slot telescopes", (i, j, k), lhs, rhs


def _face_values(ctx, kind, h, f, g, b, points):
    """The cup-product closed form of one auxiliary family at each point of
    its face in turn; a cup of two inputs is built once."""
    sh, sg, sb = h.shifted_degree, g.shifted_degree, b.shifted_degree
    db, df = b.degree, f.degree
    if kind == "gamma":
        operands, slots = (g, b), [(j - df, k - df) for _, j, k in points]
        close = lambda x: ksign(sg + db + sh * df) * cup(ctx, f, x)
    elif kind == "gamma1":
        operands = cup(ctx, f, g), b
        slots = [(i - 1, k) for i, _, k in points]
        close = lambda x: ksign(sb + sg) * x
    elif kind == "gamma2":
        operands = f, cup(ctx, g, b)
        slots = [(i - 1, j - 1) for i, j, _ in points]
        close = lambda x: ksign(sb) * x
    else:
        operands, slots = (f, g), [(i - 1, j - 1) for i, j, _ in points]
        close = lambda x: ksign(db) * cup(ctx, x, b)
    for chain in prefix_chains(h, operands, slots):
        # popped: the last link is not kept while the next value is built
        yield close(chain.pop())


def _face_checker(kind):
    def check(ctx, h, f, g, b):
        points = boundary_faces(h.degree, f.degree, g.degree)[kind]
        values = GammaFamilies(ctx, h, f, g, b).totals(kind, points)
        closed = _face_values(ctx, kind, h, f, g, b, points)
        for point, value, rhs in zip(points, values, closed):
            yield f"{kind} face collapses to a cup product", point, value, rhs
    return check


def _check_recap_vs_shifted(ctx, h, f, g, b):
    points = ground_tetrahedron(h.degree, f.degree, g.degree).points
    families = GammaFamilies(ctx, h, f, g, b)
    raw = families.shifted(points)
    totals = {kind: families.totals(kind, [(i + 1, j + 1, k + 1)
                                           for (i, j, k) in points])
              for kind in GAMMA_KINDS}
    for point in points:
        for kind in GAMMA_KINDS:
            yield (f"total {kind} matches its raw shifted form", point,
                   next(raw), next(totals[kind]))


def _check_envelope_partition(_, dh, df, dg, db):
    interior, env, trunc, bound = envelope_domains(dh, df, dg, db)
    faces = boundary_faces(dh, df, dg)
    face_sets = [set(faces[k]) for k in GAMMA_KINDS]
    union = set().union(*face_sets)
    inner, bset = set(interior.points), set(bound.points)
    # 0 <= i <= j - |f| <= k - |f| - |g| <= deg h + 1: the weakly increasing
    # triples of deg h + 2 values; the edge claim below is cut to the
    # envelope, so it cannot see a point the envelope lost
    yield ("envelope differs from C(deg h + 4, 3) points", None,
           len(set(env.points)), math.comb(dh + 4, 3))
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


class _Degree(NamedTuple):
    """A payload of the degree-only backend: a degree and nothing else."""

    degree: int


class _DegreeBackend:
    """Elements that are only their degrees. A composition refuses a slot
    outside 0 <= i < deg f and lands in m + n - 1; a sum refuses a term
    whose degree is not the sum's stated degree. Nothing else is built.
    There are no mutations: each known one flips a sign or drops points,
    and none changes a degree."""

    mutations = frozenset()

    def compose_payload(self, f, g, i):
        return self.compose_sum_payload(f.degree + g.degree - 1, ((1, f, g, i),))

    def combine_payload(self, degree, terms):
        for _, x in terms:
            _require_degree(x.degree, degree)
        return _Degree(degree)

    def compose_sum_payload(self, degree, terms):
        for _, f, g, i in terms:
            fd = f.degree
            if not 0 <= i < fd:
                raise InvalidDegree(f"slot {i} outside 0..{fd - 1} "
                                    f"for degree {fd}")
            _require_degree(fd + g.degree - 1, degree)
        return _Degree(degree)


def _require_degree(term: int, degree: int):
    if term != degree:
        raise DegreeMismatch(f"degree {term} vs {degree}")


_DEGREES = _DegreeBackend()


def _pair_operations(ctx, f, g):
    """(operation, value, stated degree) for each derived operation on the
    two inputs f, g over ctx, each value built when it is drawn."""
    df, dg = f.degree, g.degree
    yield "cup", cup(ctx, f, g), df + dg
    yield "bullet", bullet(f, g), df + dg - 1
    yield "bracket", bracket(f, g), df + dg - 1
    yield "delta", delta(ctx, f), df + 1
    yield "dev_braces", dev_braces(ctx, f, g), df + dg


def _bookkeeping(ctx, h, f, g, b) -> tuple:
    """(operation, degree it lands in, stated degree) for each derived
    operation on h, f, g, b over ctx."""
    dh, df, dg, db = h.degree, f.degree, g.degree, b.degree
    return (
        *((name, value.degree, stated)
          for name, value, stated in _pair_operations(ctx, f, g)),
        ("tribraces", braces(h, f, g).degree, dh + df + dg - 2),
        ("tetrabraces", braces(h, f, g, b).degree, dh + df + dg + db - 3),
        ("dev_tribraces", dev_braces(ctx, h, f, g).degree, dh + df + dg - 1),
        ("dev_tetrabraces", dev_braces(ctx, h, f, g, b).degree,
         dh + df + dg + db - 2),
    )


def _check_degree_bookkeeping(_, dh, df, dg, db):
    """L26 on the degree-only backend. Each operation still runs its own
    code path (its region shapes, slot ranges and stated sum degrees) but
    builds no table or tree. What this no longer covers is the backends'
    own degree arithmetic; every element law covers that, since differs
    is true between elements of different degrees on both backends."""
    h, f, g, b, mu = (GradedElement(_DEGREES, _Degree(d)) for d in (dh, df, dg, db, 2))
    for name, got, want in _bookkeeping(PreOperadContext(_DEGREES, mu), h, f, g, b):
        yield f"{name} lands in the wrong degree", None, got, want


def _check_conformance(ctx, f, g):
    """L27: each operation of _pair_operations on the batch's tables equals
    free.evaluate_hom of the same operation on bare generators, the tables
    assigned to them. Both sides carry the backend's mutations, so a fault
    of the calculus cancels and only the tables' own arithmetic is
    checked."""
    dense = ctx.backend
    inputs = {"f": f, "g": g, "mu": ctx.mu}
    words, bare = _bare_generators(dense.ring.modulus, tuple(sorted(
        dense.mutations)), tuple((name, x.degree) for name, x in inputs.items()))
    assignment = {name: x.payload for name, x in inputs.items()}
    for (name, value, _), (_, word, _) in zip(
            _pair_operations(ctx, f, g),
            _pair_operations(words, bare["f"], bare["g"])):
        image = free.evaluate_hom(word.payload, assignment, dense.ring, dense.dim)
        yield (f"{name} commutes with table evaluation", None,
               value, _element(dense, image))


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
        ("h", "f", "g", "b"),
        _deviation("quadruple brace deviation closed form", "braces"),
        force_first=3,
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
        _deviation("triple brace deviation closed form", "braces")),
    Law("L16-tri-deviation-bracket",
        "The triple brace deviation rewrites with brackets in place of total "
        "compositions.",
        ("h", "f", "g"),
        _deviation("triple brace deviation via brackets", "bracket")),
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
        ("h", "f", "g", "b"), _check_degree_bookkeeping, element_free=True),
    Law("L27-cross-backend",
        "Each operation of two inputs on dense tables equals the same "
        "operation on free generators, evaluated on those tables.",
        ("f", "g"), _check_conformance, backends=("endo",)),
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

def _witness(head: dict, sample: TrialSample, detail: FailDetail, row=0) -> dict:
    """A failure witness: head's fields (law, seed, run settings), with row
    row of the checked sample and of detail's sides written over any it
    already holds."""
    lhs, rhs = (x.row(row).serialize() if x is not None else None
                for x in (detail.lhs, detail.rhs))
    return {
        **head,
        "degrees": dict(sorted(sample.degrees.items())),
        "elements": {name: el.row(row).serialize()
                     for name, el in sorted(sample.elements.items())},
        "identity": detail.identity,
        "domain_point": list(detail.point) if detail.point is not None else None,
        "lhs": lhs,
        "rhs": rhs,
    }


def _check_runnable(law: Law, cfg: TrialConfig):
    """Refuse a law that cannot run under cfg: another backend, or inputs
    that do not fit the degree budget."""
    if cfg.backend not in law.backends:
        raise BadConfig(f"{law.law_id} does not run on the {cfg.backend} backend")
    if len(law.slots) * cfg.degree_min > cfg.degree_budget:
        raise BadConfig(f"degree_min {cfg.degree_min} cannot fit "
                        f"{len(law.slots)} inputs under the degree budget "
                        f"{cfg.degree_budget}")


def _draws(law: Law, cfg: TrialConfig):
    """(trial, attempt, degrees) of each non-vacuous trial of law under
    cfg, in trial order, the degrees all drawn from one Generator seeded
    once from (law salt, seed). Nothing else is drawn here, so every
    backend draws the same trials. A trial tries up to _RETRIES attempts,
    each from where the stream stands, and is vacuous when none is kept;
    an even trial draws its first degree at least law.force_first."""
    rng = np.random.default_rng((_salt(law.law_id), cfg.seed))
    for trial in range(cfg.trials):
        forced = law.force_first if trial % 2 == 0 else None
        for attempt in range(_RETRIES):
            degrees = _sample_degrees(rng, law.slots, cfg, forced)
            if law.vacuous_when and law.vacuous_when(degrees):
                continue
            yield trial, attempt, degrees
            break


def run_law(law_id: str, cfg: TrialConfig) -> Report:
    """Run one law over cfg.trials seeded trials.

    The trials are drawn in trial order from the law's one stream
    (_draws), as degree tuples only, and grouped by degree tuple, the
    batch key. Each group becomes checked samples, in trial order
    (_builder): one for a group without tables, and for an endo one
    batches under the entry cap, their tables drawn from the key's own
    stream. Each batch is checked once (a check that raises fails every
    row, see _first_failure). The report counts the failing trials and
    holds one witness, cut from the failing row of the batch that holds
    the first failing trial: on free, the bare generators of its degree
    tuple. Only that batch and its failing claim are kept past their
    check.

    Over F_2 the report is always underpowered: -1 = 1 there, so no check
    can tell a sign from its flip (the cup-sign-flip canary passes).
    """
    law = get_law(law_id)
    cfg.validate()
    _check_runnable(law, cfg)
    start = time.perf_counter()
    groups, vacuous = {}, cfg.trials
    for drawn in _draws(law, cfg):
        groups.setdefault(tuple(drawn[2].values()), []).append(drawn)
        vacuous -= 1
    build = _builder(law, cfg)
    failed, first = 0, None  # first: (trial, attempt, checked, detail, row)
    for key, group in groups.items():
        for batch, checked in build(key, group):
            details = law.checker(checked)
            rows = [r for r, detail in enumerate(details) if detail is not None]
            failed += len(rows)
            # a batch is in trial order: its first failing row is its first failure
            if rows and (first is None or batch[rows[0]][0] < first[0]):
                first = (*batch[rows[0]][:2], checked, details[rows[0]], rows[0])
    failures = []
    if first is not None:
        trial, attempt, checked, detail, row = first
        head = {"law_id": law.law_id, "seed": [cfg.seed, trial, attempt],
                "backend": cfg.backend, "prime": cfg.prime, "dim": cfg.dim,
                "mutations": sorted(cfg.mutations)}
        failures.append(_witness(head, checked, detail, row))
    millis = int(round((time.perf_counter() - start) * 1000))
    non_vacuous = cfg.trials - vacuous
    return Report(
        law_id=law_id,
        status="fail" if failed else "pass",
        trials=cfg.trials,
        vacuous=vacuous,
        underpowered=non_vacuous * 2 < cfg.trials or cfg.prime == 2,
        failed=failed,
        failures=failures,
        millis=millis,
    )


def _runnable_laws(cfg: TrialConfig, law_ids=None) -> list:
    """The laws law_ids (every law of cfg.backend when None), after
    refusing cfg, an unknown id or any law that cannot run under cfg."""
    cfg.validate()
    if law_ids is None:
        chosen = laws_for_backend(cfg.backend)
    else:
        chosen = [get_law(i) for i in law_ids]
    for law in chosen:
        _check_runnable(law, cfg)
    return chosen


def run_suite(cfg: TrialConfig, law_ids=None) -> dict:
    """Run the laws law_ids (every law of cfg.backend when None), after
    refusing the run if any one of them cannot run under cfg."""
    reports = [run_law(law.law_id, cfg) for law in _runnable_laws(cfg, law_ids)]
    ok = all(r.status == "pass" and not r.underpowered for r in reports)
    return {
        "config": cfg.describe(),
        "laws": [r.to_dict() for r in reports],
        "status": "pass" if ok else "fail",
    }


# ---------------------------------------------------------------------------
# replay and shrink

def _rebuild_sample(witness: dict) -> TrialSample:
    """The checked sample of witness, a batch of one, once its settings pass
    TrialConfig.validate, its law runs on its backend, its inputs are the
    law's slots (and mu, unless the law takes no elements), each a payload
    of its backend over its ring and dim (on free, over mu's signature),
    and its input degrees are ints >= 1 that fit the degree budget of its
    dim, as a drawn trial's do. A field it reads that the witness, or one
    of its payloads, lacks, and a degrees or elements field that is not a
    JSON object, is refused with BadConfig naming the field and the
    input."""
    law = _law_of(witness)
    backend, prime, dim = (require_field(witness, key, "malformed witness")
                           for key in ("backend", "prime", "dim"))
    cfg = TrialConfig(backend, prime, dim,
                      mutations=witness.get("mutations", []))
    cfg.validate()
    _check_runnable(law, cfg)
    key = "degrees" if law.element_free else "elements"
    names = require_field(witness, key, "malformed witness")
    if not isinstance(names, dict):
        raise BadConfig(f'malformed witness: field "{key}" must be a JSON '
                        f"object, got {type(names).__name__}")
    want = law.slots if law.element_free else (*law.slots, "mu")
    if set(names) != set(want):
        raise BadConfig(f"{law.law_id} takes the inputs {', '.join(want)}; "
                        f"the witness has {', '.join(names) or 'none'}")
    if law.element_free:
        ctx, elements, degrees = None, {}, dict(names)
    else:
        ring, muts = CoefficientRing.prime_field(cfg.prime), frozenset(cfg.mutations)
        if cfg.backend == "endo":
            backend = EndoBackend(ring, cfg.dim, muts)
        else:  # mu's signature; mu is refused first if it has none
            mu = names["mu"]
            sig = free.Signature(tuple((n, d) for n, d in (
                mu.get("signature", ()) if isinstance(mu, dict) else ())))
            backend = FreeBackend(ring, sig, muts)
        elements = {}
        for name in ("mu", *law.slots):
            try:
                elements[name] = backend.deserialize(names[name])
            except (BackendMismatch, BadConfig) as exc:
                raise BadConfig(f"witness input {name}: {exc}") from None
        ctx = PreOperadContext(backend, elements["mu"])
        degrees = {name: el.degree for name, el in elements.items() if name != "mu"}
    for name in law.slots:
        what = f"witness input {name}: its degree"
        if require_integer(degrees[name], what, BadConfig) < 1:
            raise BadConfig(f"{what} must be >= 1, got {degrees[name]}")
    total = sum(degrees.values())
    if total > cfg.degree_budget:
        raise BadConfig(f"input degrees add up to {total}, past the degree "
                        f"budget {cfg.degree_budget} of dim {cfg.dim}")
    return TrialSample(ctx, elements, degrees)


def _law_of(witness: dict) -> Law:
    return get_law(require_field(witness, "law_id", "malformed witness"))


def replay(witness: dict) -> FailDetail | None:
    """Re-run the failed check on the stored elements: row 0 of a batch of one."""
    law = _law_of(witness)
    sample = _rebuild_sample(witness)
    return law.checker(sample)[0]


def _lowered(sample: TrialSample, name: str, steps: int) -> TrialSample | None:
    """sample with input name lowered by steps degrees, or None.

    A table keeps its entries whose last steps inputs are 0. Tree sums are
    lowered when every element is its own bare generator: the lowered
    sample is the bare generators of the lowered degrees.
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
    if not all(sig.has(n) and x.payload.terms == ((free.generator_tree(sig, n), 1),)
               for n, x in sample.elements.items()):
        return None
    ctx, bare = _bare_generators(
        payload.ring.modulus, tuple(sorted(el.backend.mutations)),
        tuple((n, d - steps if n == name else d) for n, d in sig.generators))
    return TrialSample(ctx, {n: bare[n] for n in sample.elements},
                       {**sample.degrees, name: payload.degree - steps})


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


def _replace_element(sample: TrialSample, name: str,
                     el: GradedElement) -> TrialSample:
    elements = {**sample.elements, name: el}
    degrees = dict(sample.degrees)
    ctx = sample.ctx
    if name == "mu":
        ctx = PreOperadContext(ctx.backend, el)
    else:
        degrees[name] = el.degree
    return TrialSample(ctx, elements, degrees)


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
    law = _law_of(witness)
    sample = _rebuild_sample(witness)
    if law.element_free:
        return dict(witness)
    detail = law.checker(sample)[0]
    if detail is None:
        return dict(witness)
    while True:
        for cand in _candidates(sample):
            found = law.checker(cand)[0]
            if found is not None:
                sample, detail = cand, found
                break
        else:
            return _witness(witness, sample, detail)
