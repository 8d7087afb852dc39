"""Uniform element wrapper over the dense and symbolic backends.

A GradedElement is a backend-tagged payload; the calculus layer only ever
talks to this interface, so every derived operation runs unchanged over
tables on R^d and over tree sums. Every sum of elements goes into the
backend's combine_payload: element +, - and scalar * hand it their one or
two terms as they are, and any other sum streams its terms through
signed_sum. Every sum of compositions, c * (f comp_i g) over some (c, f,
g, i), goes through compose_sum into the backend's compose_sum_payload,
which adds the composites unreduced into one accumulator and reduces
once; compose_payload serves single compositions. Over a lattice region there
are two loop shapes: region_sum sums a composite over the region,
composing each operand into the partial sum of the points that share its
slot, and prefix_chains walks the region point by point, composing a
chain prefix once for the consecutive points that share it. The top level
of a region sum is a stream of terms of its own, _region_terms, so a
caller can add a brace into a larger compose_sum without building it.
Backends also carry the opt-in mutation switches used by the law suite's
canary checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import endo, free
from .errors import BackendMismatch, UnsupportedRing
from .rings import CoefficientRing


@dataclass(frozen=True)
class EndoBackend:
    """Multilinear maps on R^dim over a fixed ring."""

    ring: CoefficientRing
    dim: int
    mutations: frozenset = field(default_factory=frozenset)

    kind = "endo"

    def unit(self) -> "GradedElement":
        return GradedElement(self, endo.unit_map(self.ring, self.dim))

    def zero(self, degree: int) -> "GradedElement":
        return GradedElement(self, endo.zero_map(self.ring, self.dim, degree))

    def compose_payload(self, f, g, i):
        return endo.partial_compose(f, g, i)

    def combine_payload(self, degree, terms):
        return endo.signed_sum(self.ring, self.dim, degree, terms)

    def compose_sum_payload(self, degree, terms):
        return endo.compose_sum(self.ring, self.dim, degree, terms)

    def random(self, degree: int, rng) -> "GradedElement":
        return GradedElement(self, endo.random_map(self.ring, self.dim, degree, rng))

    def serialize(self, payload) -> dict:
        return endo.map_to_payload(payload)

    def deserialize(self, data) -> "GradedElement":
        return _deserialized(self, data, "entries", endo.map_from_payload, "dim")


@dataclass(frozen=True)
class FreeBackend:
    """Tree sums over a fixed generator signature."""

    ring: CoefficientRing
    signature: free.Signature
    mutations: frozenset = field(default_factory=frozenset)

    kind = "free"

    def unit(self) -> "GradedElement":
        return GradedElement(self, free.unit_element(self.signature, self.ring))

    def zero(self, degree: int) -> "GradedElement":
        return GradedElement(self, free.zero_element(self.signature, self.ring, degree))

    def compose_payload(self, f, g, i):
        return free.free_partial_compose(f, g, i)

    def combine_payload(self, degree, terms):
        return free.free_signed_sum(self.ring, self.signature, degree, terms)

    def compose_sum_payload(self, degree, terms):
        return free.free_compose_sum(self.ring, self.signature, degree, terms)

    def generator(self, name: str) -> "GradedElement":
        return GradedElement(self, free.generator_element(self.signature, self.ring, name))

    def random(self, degree, rng) -> "GradedElement":
        raise UnsupportedRing("the symbolic backend has no random elements; "
                              "use generators")

    def serialize(self, payload) -> dict:
        return free.element_to_payload(payload)

    def deserialize(self, data) -> "GradedElement":
        return _deserialized(self, data, "terms", free.element_from_payload,
                             "signature")


def _deserialized(backend, data, key, parse, setting) -> "GradedElement":
    """parse(data) as an element of backend, refused with BackendMismatch
    unless data is one of backend's payloads (they all hold key) over
    backend's ring and setting (its dim, or its signature)."""
    if not isinstance(data, dict) or key not in data:
        raise BackendMismatch(f"not a payload of the {backend.kind} backend")
    payload = parse(data)
    if payload.ring != backend.ring:
        raise BackendMismatch(f"over {payload.ring.label()}, "
                              f"not {backend.ring.label()}")
    have, want = getattr(payload, setting), getattr(backend, setting)
    if have != want:
        raise BackendMismatch(f"with {setting} {have}, not {want}")
    return GradedElement(backend, payload)


@dataclass(frozen=True)
class GradedElement:
    """A payload (table or tree sum) tagged with the backend it lives in."""

    backend: object
    payload: object

    @property
    def degree(self) -> int:
        return self.payload.degree

    @property
    def shifted_degree(self) -> int:
        return self.payload.degree - 1

    def compose(self, other: "GradedElement", i: int) -> "GradedElement":
        backend = self.backend
        if backend is not other.backend and backend != other.backend:
            raise BackendMismatch("elements from different backends")
        return _element(backend,
                        backend.compose_payload(self.payload, other.payload, i))

    def __add__(self, other: "GradedElement") -> "GradedElement":
        return self._plus(1, other)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self._plus(-1, other)

    def __neg__(self) -> "GradedElement":
        return self.__rmul__(-1)

    def __rmul__(self, c: int) -> "GradedElement":
        backend, payload = self.backend, self.payload
        return _element(backend, backend.combine_payload(
            payload.degree, ((c, payload),)))

    def _plus(self, c: int, other: "GradedElement") -> "GradedElement":
        """self + c * other: a signed sum of two terms, handed to the
        backend as they are, with no generator between."""
        backend, payload = self.backend, self.payload
        if other.backend is not backend and other.backend != backend:
            raise BackendMismatch("elements from different backends")
        return _element(backend, backend.combine_payload(
            payload.degree, ((1, payload), (c, other.payload))))

    def is_zero(self) -> bool:
        return self.payload.is_zero()

    def differs(self, other: "GradedElement | None" = None):
        """Whether each row differs from other (from zero when other is
        None): a bool array over the rows of a stacked table, one bool
        otherwise."""
        if other is None:
            return self.payload.differs()
        if self.backend is not other.backend and self.backend != other.backend:
            return True
        return self.payload.differs(other.payload)

    def row(self, r: int) -> "GradedElement":
        """Row r of a stacked element; a single element is every row."""
        payload = self.payload.row(r)
        return self if payload is self.payload else _element(self.backend, payload)

    def serialize(self) -> dict:
        return self.backend.serialize(self.payload)


def _element(backend, payload) -> GradedElement:
    """An element from a payload the package built itself, without the
    frozen dataclass __init__, which sets every field through
    object.__setattr__; the result is the same read-only element."""
    x = object.__new__(GradedElement)
    fields = x.__dict__
    fields["backend"] = backend
    fields["payload"] = payload
    return x


def signed_sum(backend, degree: int, terms) -> GradedElement:
    """Sum of c * x over (c, x) pairs drawn one at a time from terms.

    The backend accumulates the payloads in one pass and reduces once, so
    no term outlives its addition; an empty sum is the zero of degree.
    """
    return _element(backend, backend.combine_payload(
        degree, _payloads(backend, terms)))


def _payloads(backend, terms):
    """The (c, payload) of each (c, x) of terms, in turn, x checked to be
    in backend."""
    for c, x in terms:
        if x.backend is not backend and x.backend != backend:
            raise BackendMismatch("elements from different backends")
        yield c, x.payload
        del x  # not kept while the next term is built


def compose_sum(backend, degree: int, terms) -> GradedElement:
    """Sum of c * (f comp_i g) over (c, f, g, i) drawn one at a time from
    terms.

    The backend adds every composite into one accumulator, unreduced, and
    makes it canonical once, so no composite becomes an element of its own;
    an empty sum is the zero of degree.
    """
    return _element(backend, backend.compose_sum_payload(
        degree, _composite_payloads(backend, terms)))


def _composite_payloads(backend, terms):
    """The (c, f payload, g payload, i) of each (c, f, g, i) of terms, in
    turn, f and g checked to be in backend."""
    for c, f, g, i in terms:
        if ((f.backend is not backend and f.backend != backend)
                or (g.backend is not backend and g.backend != backend)):
            raise BackendMismatch("elements from different backends")
        yield c, f.payload, g.payload, i
        del f, g  # not kept while the next term is built


def region_sum(base: GradedElement, operands, points) -> GradedElement:
    """Sum of base comp_i operands[0] comp_j operands[1] ... over the points
    (i, j, ...) of a region: one compose_sum of _region_terms."""
    degree = base.degree + sum(x.degree - 1 for x in operands)
    return compose_sum(base.backend, degree,
                       _region_terms(1, base, operands, points))


def _region_terms(c, base: GradedElement, operands, points):
    """The compose_sum terms of c times region_sum(base, operands, points).

    Composition is bilinear, so the points that share their last slot k are
    summed before the last operand goes in, and that inner sum is factored
    the same way by its own last slot, down to the composites
    base comp_i operands[0]. The terms are the top level of that
    factoring: (c, inner sum of the points ending in k, last operand, k)
    for each distinct k, or (c, base, operands[0], i) for each point (i,)
    of a one-operand region. operands[t], for t >= 1, is composed once per
    distinct tail (p_t, ..., p_n) of the points: the last operand once per
    distinct k rather than once per point. Each inner level above the
    first is one compose_sum over its slots. The composites
    base comp_i operands[0] are built once per i and reused across tails.
    Any point set works; an empty one has no terms.
    """
    head, *tail = operands
    if not tail:
        return ((c, base, head, i) for (i,) in points)
    degree = base.degree + sum(x.degree - 1 for x in operands)
    firsts = {}

    def first(i):
        if i not in firsts:
            firsts[i] = base.compose(head, i)
        return firsts[i]

    return _factored_terms(c, base.backend, first, degree, tail, points)


def prefix_chains(base: GradedElement, operands, points):
    """For each point (p_0, p_1, ...) of points in turn, the list
    [base comp_p0 operands[0], that comp_p1 operands[1], ...].

    A prefix is composed once for each run of consecutive points that
    share its slots (p_0, ..., p_t), so over lexicographic points
    operands[t] is composed once per distinct (p_0, ..., p_t). Before a
    list is handed out, the walk keeps only the prefixes the next point
    shares, and it empties the list when it resumes, so at most one prefix
    per level is alive; a caller that keeps no prefix of its own holds
    nothing past its point. Any point order works.
    """
    points = iter(points)
    point = next(points, None)
    kept = []
    while point is not None:
        upcoming = next(points, None)
        chain = kept
        for y, slot in zip(operands[len(chain):], point[len(chain):]):
            chain.append((chain[-1] if chain else base).compose(y, slot))
        shared = 0
        if upcoming is not None:
            while shared < len(chain) and point[shared] == upcoming[shared]:
                shared += 1
        kept = chain[:shared]
        yield chain
        chain.clear()
        point = upcoming


def _factored_sum(backend, first, degree, tail, points):
    # module level: a recursive closure would be a reference cycle that
    # keeps the first composites alive until the garbage collector runs
    if not tail:
        if len(points) == 1:  # a sum of one composite is that composite
            return first(points[0][0])
        return signed_sum(backend, degree, ((1, first(i)) for (i,) in points))
    return compose_sum(backend, degree,
                       _factored_terms(1, backend, first, degree, tail, points))


def _factored_terms(c, backend, first, degree, tail, points):
    """The terms c * (inner sum comp_k last) of a factored sum of degree,
    one per distinct last slot k of points."""
    *heads, last = tail
    by_last = {}
    for point in points:
        by_last.setdefault(point[-1], []).append(point[:-1])
    inner = degree - last.degree + 1
    return ((c, _factored_sum(backend, first, inner, heads, group), last, k)
            for k, group in by_last.items())
