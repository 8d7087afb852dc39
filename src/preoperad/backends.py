"""Uniform element wrapper over the dense and symbolic backends.

A GradedElement is a backend-tagged payload; the calculus layer only ever
talks to this interface, so every derived operation runs unchanged over
tables on R^d and over tree sums. Every sum of elements goes into the
backend's combine_payload: element +, - and scalar * hand it their one or
two terms as they are, and any other sum streams its terms through
signed_sum. Every sum of compositions, c * (f comp_i g) over some (c, f,
g, i), goes through compose_sum into the backend's compose_sum_payload,
which adds the composites unreduced into one accumulator and reduces
once; compose_payload serves single compositions. Over lattice regions
there are two loop shapes. joint_sum sums the composites of a list of
regions (c, base, operands, points): composition is bilinear, so the
points of two or more operands, across all of them, are grouped by last
operand and slot, and each operand is composed once into the sum of the
points that share its slot, across every region of the sum; a one-link
chain base comp_p0 operands[0] is a term as it comes, a chain alone in
its group is composed link by link, and a one-operand region's points
are terms as they are. region_sum is the joint_sum of one region.
prefix_chains walks one region point by point, composing a chain prefix
once for the consecutive points that share it. Backends also carry the
opt-in mutation switches used by the law suite's canary checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import endo, free
from .errors import BackendMismatch, ShapeMismatch, UnsupportedRing
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
    (i, j, ...) of a region: the joint_sum of that one region."""
    degree = base.degree + sum(x.degree - 1 for x in operands)
    return joint_sum(base.backend, degree, ((1, base, operands, points),))


def joint_sum(backend, degree: int, regions) -> GradedElement:
    """Sum of c * region_sum(base, operands, points) over the regions
    (c, base, operands, points) drawn from regions, each of degree degree.

    Composition is bilinear. So the points of two or more operands, across
    all the regions, are grouped by their last operand (compared by
    identity) and slot, and each group's inner sum is composed with that
    operand once; the points of a one-operand region are terms as they
    are, composed as the region is drawn. The top level is one
    compose_sum. A chain alone in its group is composed link by link; a
    larger group's inner sum is one compose_sum of its one-link chains as
    they come and one term per subgroup of the others, grouped the same
    way by their next operand and slot. So a sum of one region composes
    operands[0] once per point and each later operand once per distinct
    suffix of slots that starts at it. Inner sums are built one at a time,
    as compose_sum draws them. Every point has one slot per operand
    (ShapeMismatch otherwise); any point set works, and an empty one adds
    nothing.
    """
    return compose_sum(backend, degree, _terms(backend, degree, regions))


def _terms(backend, degree: int, regions):
    """The compose_sum terms of a joint sum of regions: the points of each
    one-operand region as it is drawn, then one for each group of the
    other points."""
    groups = {}
    for c, base, operands, points in regions:
        r = len(operands)
        if r == 1:
            y = operands[0]
            try:
                for point in points:
                    k, = point
                    yield c, base, y, k
            except ValueError:
                _refuse(point, 1)
            continue
        if not r:
            raise ShapeMismatch("a region needs at least one operand")
        last = id(operands[-1])
        for point in points:
            if len(point) != r:
                _refuse(point, r)
            groups.setdefault((last, point[-1]), []).append(
                (c, base, operands, point, r - 1))
    if groups:
        base = operands = y = None  # kept no longer than needed
        yield from _group_terms(backend, degree, groups)


def _refuse(point, n: int):
    """Refuse a point that has not one slot for each of n operands."""
    def count(k, noun):
        return f"{k} {noun}{'' if k == 1 else 's'}"
    raise ShapeMismatch(f"point {tuple(point)} has {count(len(point), 'slot')} "
                        f"for {count(n, 'operand')}")


def _group_terms(backend, degree: int, groups: dict):
    """The compose_sum terms (m, inner sum, y, k) of a sum of degree over
    groups of chains (c, base, operands, point, r) keyed by the identity
    of y = operands[r] and k = point[r], the inner sum that of
    c * base comp_p0 operands[0] ... comp_p(r-1) operands[r-1]. Each group
    is let go as it is composed."""
    for key in list(groups):
        group = groups.pop(key)
        c, base, operands, point, r = group[0]
        y, k = operands[r], point[r]
        if len(group) == 1:  # a chain alone: its links composed in turn
            for t in range(r):
                base = base.compose(operands[t], point[t])
            yield c, base, y, k
        else:
            inner = degree - y.degree + 1
            yield 1, compose_sum(backend, inner,
                                 _inner_terms(backend, inner, group)), y, k


def _inner_terms(backend, degree: int, group: list):
    """The compose_sum terms of the inner sum of degree of a group of
    chains (c, base, operands, point, r), each without its group's
    operand: its one-link chains as they come, then one per subgroup of
    the others, keyed by their next operand and slot."""
    groups = {}
    for c, base, operands, point, r in group:
        if r == 1:
            yield c, base, operands[0], point[0]
        else:
            groups.setdefault((id(operands[r - 1]), point[r - 1]), []).append(
                (c, base, operands, point, r - 1))
    yield from _group_terms(backend, degree, groups)


def prefix_chains(base: GradedElement, operands, points):
    """For each point (p_0, p_1, ...) of points in turn, the list
    [base comp_p0 operands[0], that comp_p1 operands[1], ...].

    A prefix is composed once for each run of consecutive points that
    share its slots (p_0, ..., p_t), so over lexicographic points
    operands[t] is composed once per distinct (p_0, ..., p_t). Before a
    list is handed out, the walk keeps only the prefixes the next point
    shares, and it empties the list when it resumes, so at most one prefix
    per level is alive; a caller that keeps no prefix of its own holds
    nothing past its point. Any point order works; every point has one
    slot per operand (ShapeMismatch otherwise).
    """
    n = len(operands)
    points = iter(points)
    point = next(points, None)
    if point is not None and len(point) != n:
        _refuse(point, n)
    kept = []
    while point is not None:
        upcoming = next(points, None)
        if upcoming is not None and len(upcoming) != n:
            _refuse(upcoming, n)
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
