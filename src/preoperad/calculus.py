"""Derived operations over any backend: cup, total composition, bracket,
coboundary, brace sums and their derivation deviations.

Sign conventions, with |x| = deg(x) - 1:

    cup(f, g)        = (-1)^deg(f) * (mu comp_0 f) comp_deg(f) g
    bullet(f, g)     = sum of f comp_i g over 0 <= i <= |f|
    bracket(f, g)    = bullet(f, g) - (-1)^(|f||g|) bullet(g, f)
    delta(f)         = (-1)^|f| bullet(mu, f) - bullet(f, mu)

so that -delta(f) = bracket(f, mu). Brace sums run over the lattice regions
from the domains module: tribraces over the scope-right region of (h, f),
tetrabraces over the ground tetrahedron of (h, f, g).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .backends import GradedElement, compose_sum, region_sum, signed_sum
from .domains import ground_tetrahedron, scope_regions
from .endo import ksign
from .errors import BackendMismatch, DegreeMismatch, InvalidDegree

MUTATION_CUP_SIGN = "cup-sign-flip"
MUTATION_LEFT_RELATION_SIGN = "b-relation-sign-drop"
MUTATION_RIGHT_RANGE = "g-range-off-by-one"

KNOWN_MUTATIONS = (MUTATION_CUP_SIGN, MUTATION_LEFT_RELATION_SIGN,
                   MUTATION_RIGHT_RANGE)


@dataclass(frozen=True)
class PreOperadContext:
    """A backend together with a chosen degree-2 product mu."""

    backend: object
    mu: GradedElement

    def __post_init__(self):
        if self.mu.backend != self.backend:
            raise BackendMismatch("mu must live in the context backend")
        if self.mu.degree != 2:
            raise DegreeMismatch(f"mu needs degree 2, got {self.mu.degree}")

    @cached_property
    def unit(self) -> GradedElement:
        return self.backend.unit()


def cup(ctx: PreOperadContext, f: GradedElement, g: GradedElement) -> GradedElement:
    """Product of degree deg(f) + deg(g) induced by mu."""
    sign = ksign(f.degree)
    if MUTATION_CUP_SIGN in ctx.backend.mutations:
        sign = -sign
    # the sign rides on the small operand, not on the full-size result
    signed_f = f if sign > 0 else -f
    return ctx.mu.compose(signed_f, 0).compose(g, f.degree)


def _slots(c, f: GradedElement, g: GradedElement):
    """The terms c * (f comp_i g) of a compose_sum, one per slot i of f."""
    return ((c, f, g, i) for i in range(f.degree))


def bullet(f: GradedElement, g: GradedElement) -> GradedElement:
    """Total composition: g inserted into every slot of f, signs included."""
    if f.degree < 1:
        raise InvalidDegree("bullet needs a left operand of degree >= 1")
    return compose_sum(f.backend, f.degree + g.degree - 1, _slots(1, f, g))


def bracket(f: GradedElement, g: GradedElement) -> GradedElement:
    if f.degree < 1 or g.degree < 1:
        raise InvalidDegree("bracket needs operands of degree >= 1")
    sign = ksign(f.shifted_degree * g.shifted_degree)
    return compose_sum(f.backend, f.degree + g.degree - 1,
                       chain(_slots(1, f, g), _slots(-sign, g, f)))


def delta(ctx: PreOperadContext, f: GradedElement) -> GradedElement:
    """Coboundary induced by mu; squares to zero exactly when mu is associative."""
    if f.degree < 1:
        raise InvalidDegree("delta needs degree >= 1")
    return compose_sum(f.backend, f.degree + 1,
                       chain(_slots(ksign(f.shifted_degree), ctx.mu, f),
                             _slots(-1, f, ctx.mu)))


def associator(h: GradedElement, f: GradedElement, g: GradedElement) -> GradedElement:
    """bullet(bullet(h, f), g) - bullet(h, bullet(f, g))."""
    return bullet(bullet(h, f), g) - bullet(h, bullet(f, g))


def _right_region(h: GradedElement, f: GradedElement):
    points = scope_regions(h.degree, f.degree)[2].points
    if MUTATION_RIGHT_RANGE in h.backend.mutations:
        # canary: shift the row start by one slot
        points = tuple((i, j) for (i, j) in points if j > i + f.degree)
    return points


def tribraces(h: GradedElement, f: GradedElement, g: GradedElement) -> GradedElement:
    """Sum of (h comp_i f) comp_j g over the scope-right region of (h, f)."""
    for x in (h, f, g):
        if x.degree < 1:
            raise InvalidDegree("tribraces need degrees >= 1")
    return region_sum(h, (f, g), _right_region(h, f))


def tetrabraces(h: GradedElement, f: GradedElement, g: GradedElement,
                b: GradedElement) -> GradedElement:
    """Sum of ((h comp_i f) comp_j g) comp_k b over the ground tetrahedron."""
    for x in (h, f, g, b):
        if x.degree < 1:
            raise InvalidDegree("tetrabraces need degrees >= 1")
    return region_sum(h, (f, g, b),
                      ground_tetrahedron(h.degree, f.degree, g.degree).points)


def dev_bullet(ctx: PreOperadContext, f: GradedElement,
               g: GradedElement) -> GradedElement:
    """How far delta is from a derivation of the total composition."""
    def terms():
        yield 1, delta(ctx, bullet(f, g))
        yield -1, bullet(f, delta(ctx, g))
        yield -ksign(g.shifted_degree), bullet(delta(ctx, f), g)

    return signed_sum(f.backend, f.degree + g.degree, terms())


def dev_tribraces(ctx: PreOperadContext, h: GradedElement, f: GradedElement,
                  g: GradedElement) -> GradedElement:
    """Deviation of delta from a derivation of the triple brace sum."""
    sg, sf = g.shifted_degree, f.shifted_degree

    def terms():
        yield 1, delta(ctx, tribraces(h, f, g))
        yield -1, tribraces(h, f, delta(ctx, g))
        yield -ksign(sg), tribraces(h, delta(ctx, f), g)
        yield -ksign(sg + sf), tribraces(delta(ctx, h), f, g)

    return signed_sum(h.backend, h.degree + f.degree + g.degree - 1, terms())


def dev_tetrabraces(ctx: PreOperadContext, h: GradedElement, f: GradedElement,
                    g: GradedElement, b: GradedElement) -> GradedElement:
    """Deviation of delta from a derivation of the quadruple brace sum."""
    sb, sg, sf = b.shifted_degree, g.shifted_degree, f.shifted_degree

    def terms():
        yield 1, delta(ctx, tetrabraces(h, f, g, b))
        yield -1, tetrabraces(h, f, g, delta(ctx, b))
        yield -ksign(sb), tetrabraces(h, f, delta(ctx, g), b)
        yield -ksign(sb + sg), tetrabraces(h, delta(ctx, f), g, b)
        yield -ksign(sb + sg + sf), tetrabraces(delta(ctx, h), f, g, b)

    return signed_sum(h.backend, h.degree + f.degree + g.degree + b.degree - 2,
                      terms())
