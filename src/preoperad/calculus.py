"""Derived operations over any backend: cup, total composition, bracket,
coboundary, braces of any arity and their derivation deviations.

Sign conventions, with |x| = deg(x) - 1:

    cup(f, g)        = (-1)^deg(f) * (mu comp_0 f) comp_deg(f) g
    bullet(f, g)     = sum of f comp_i g over 0 <= i <= |f|
    bracket(f, g)    = bullet(f, g) - (-1)^(|f||g|) bullet(g, f)
    delta(f)         = (-1)^|f| bullet(mu, f) - bullet(f, mu)

so that -delta(f) = bracket(f, mu). The brace h{f_1, ..., f_n} sums
(h comp_p1 f_1) ... comp_pn f_n over the ground simplex from the domains
module, at any arity n: h{f} = bullet(h, f), and tribraces and tetrabraces
are h{f, g} and h{f, g, b}. Its deviation from a derivation is

    dev_braces(h; f_1..f_n) = delta(h{f_1..f_n})
        - sum over t of (-1)^(|f_(t+1)| + ... + |f_n|) h{.., delta(f_t), ..}
        - (-1)^(|f_1| + ... + |f_n|) delta(h){f_1..f_n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .backends import GradedElement, compose_sum, region_sum, signed_sum
from .domains import ground_simplex
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


def braces(h: GradedElement, *fs: GradedElement) -> GradedElement:
    """The brace h{f_1, ..., f_n}: (h comp_p1 f_1) ... comp_pn f_n summed
    over the ground simplex; bullet(h, f_1) when n = 1."""
    if not fs:
        raise InvalidDegree("braces need at least one input")
    if min(x.degree for x in (h, *fs)) < 1:
        raise InvalidDegree("braces need degrees >= 1")
    if len(fs) == 1:
        return bullet(h, fs[0])
    points = ground_simplex(h.degree, [f.degree for f in fs])
    if len(fs) == 2 and MUTATION_RIGHT_RANGE in h.backend.mutations:
        # canary: shift the row start by one slot
        points = tuple((i, j) for (i, j) in points if j > i + fs[0].degree)
    return region_sum(h, fs, points)


def dev_braces(ctx: PreOperadContext, h: GradedElement,
               *fs: GradedElement) -> GradedElement:
    """How far delta is from a derivation of the brace h{f_1, ..., f_n}."""
    def terms():
        yield 1, delta(ctx, braces(h, *fs))
        sign = -1
        for t, f in reversed(tuple(enumerate(fs))):
            yield sign, braces(h, *fs[:t], delta(ctx, f), *fs[t + 1:])
            sign *= ksign(f.shifted_degree)
        yield sign, braces(delta(ctx, h), *fs)

    return signed_sum(h.backend, h.degree + sum(f.degree - 1 for f in fs) + 1,
                      terms())


def tribraces(h: GradedElement, f: GradedElement, g: GradedElement) -> GradedElement:
    return braces(h, f, g)


def tetrabraces(h: GradedElement, f: GradedElement, g: GradedElement,
                b: GradedElement) -> GradedElement:
    return braces(h, f, g, b)


def dev_bullet(ctx: PreOperadContext, f: GradedElement,
               g: GradedElement) -> GradedElement:
    return dev_braces(ctx, f, g)


def dev_tribraces(ctx: PreOperadContext, h: GradedElement, f: GradedElement,
                  g: GradedElement) -> GradedElement:
    return dev_braces(ctx, h, f, g)


def dev_tetrabraces(ctx: PreOperadContext, h: GradedElement, f: GradedElement,
                    g: GradedElement, b: GradedElement) -> GradedElement:
    return dev_braces(ctx, h, f, g, b)
