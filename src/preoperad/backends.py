"""Uniform element wrapper over the dense and symbolic backends.

A GradedElement is a backend-tagged payload; the calculus layer only ever
talks to this interface, so every derived operation runs unchanged over
tables on R^d and over tree sums. Every sum, element +, - and scalar *
included, goes through one streamed primitive, signed_sum, into the
backend's one sum method, combine_payload; region_sum sums a composite
over a lattice region, composing each operand into the partial sum of the
points that share its slot.
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

    def stack_payloads(self, payloads):
        return endo.stack_rows(payloads)

    def random(self, degree: int, rng) -> "GradedElement":
        return GradedElement(self, endo.random_map(self.ring, self.dim, degree, rng))

    def serialize(self, payload) -> dict:
        return endo.map_to_payload(payload)

    def deserialize(self, data) -> "GradedElement":
        return GradedElement(self, endo.map_from_payload(data))


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

    def stack_payloads(self, payloads):
        return free.stack_rows(payloads)

    def generator(self, name: str) -> "GradedElement":
        return GradedElement(self, free.generator_element(self.signature, self.ring, name))

    def random(self, degree, rng) -> "GradedElement":
        raise UnsupportedRing("the symbolic backend has no random elements; "
                              "use generators")

    def serialize(self, payload) -> dict:
        return free.element_to_payload(payload)

    def deserialize(self, data) -> "GradedElement":
        return GradedElement(self, free.element_from_payload(data))


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
        if self.backend is not other.backend and self.backend != other.backend:
            raise BackendMismatch("elements from different backends")
        return GradedElement(self.backend,
                             self.backend.compose_payload(self.payload, other.payload, i))

    def __add__(self, other: "GradedElement") -> "GradedElement":
        return signed_sum(self.backend, self.degree, ((1, self), (1, other)))

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return signed_sum(self.backend, self.degree, ((1, self), (-1, other)))

    def __neg__(self) -> "GradedElement":
        return signed_sum(self.backend, self.degree, ((-1, self),))

    def __rmul__(self, c: int) -> "GradedElement":
        return signed_sum(self.backend, self.degree, ((c, self),))

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
        return GradedElement(self.backend, self.payload.row(r))

    def serialize(self) -> dict:
        return self.backend.serialize(self.payload)


def signed_sum(backend, degree: int, terms) -> GradedElement:
    """Sum of c * x over (c, x) pairs drawn one at a time from terms.

    The backend accumulates the payloads in one pass and reduces once, so
    no term outlives its addition; an empty sum is the zero of degree.
    """
    def payloads():
        for c, x in terms:
            if x.backend is not backend and x.backend != backend:
                raise BackendMismatch("elements from different backends")
            yield c, x.payload
            del x  # not kept while the next term is built

    return GradedElement(backend, backend.combine_payload(degree, payloads()))


def region_sum(base: GradedElement, operands, points) -> GradedElement:
    """Sum of base comp_i operands[0] comp_j operands[1] ... over the points
    (i, j, ...) of a region.

    Composition is bilinear, so the points that share their last slot k are
    summed before the last operand goes in, and that inner sum is factored
    the same way by its own last slot, down to the composites
    base comp_i operands[0], which are built once per i. operands[t], for
    t >= 1, is composed once per distinct tail (p_t, ..., p_n) of the
    points: the last operand once per distinct k rather than once per
    point. Every sum is streamed. Any point set works; an empty one sums
    to zero.
    """
    head, *tail = operands
    firsts = {}

    def first(i):
        if i not in firsts:
            firsts[i] = base.compose(head, i)
        return firsts[i]

    degree = base.degree + sum(x.degree - 1 for x in operands)
    return _factored_sum(base.backend, first, degree, tail, points)


def _factored_sum(backend, first, degree, tail, points):
    # module level: a recursive closure would be a reference cycle that
    # keeps the first composites alive until the garbage collector runs
    if not tail:
        return signed_sum(backend, degree, ((1, first(i)) for (i,) in points))
    *heads, last = tail
    by_last = {}
    for point in points:
        by_last.setdefault(point[-1], []).append(point[:-1])
    inner = degree - last.degree + 1
    return signed_sum(backend, degree, (
        (1, _factored_sum(backend, first, inner, heads, group).compose(last, k))
        for k, group in by_last.items()))
