"""Derived operations over any backend: cup, total composition, bracket,
coboundary, braces of any arity and their derivation deviations.

Sign conventions, with |x| = deg(x) - 1:

    cup(f, g)        = (-1)^deg(f) * (mu comp_0 f) comp_deg(f) g
    bullet(f, g)     = sum of f comp_i g over 0 <= i <= |f|
    bracket(f, g)    = bullet(f, g) - (-1)^(|f||g|) bullet(g, f)
    delta(f)         = (-1)^|f| bullet(mu, f) - bullet(f, mu)

so that -delta(f) = bracket(f, mu). The brace h{f_1, ..., f_n} sums
(h comp_p1 f_1) ... comp_pn f_n over the ground simplex from the domains
module, at any arity n. At n = 1 the simplex is the slots of h, so
h{f} = bullet(h, f). tribraces and tetrabraces name h{f, g} and
h{f, g, b}. The deviation of a brace from a derivation is

    dev_braces(h; f_1..f_n) = delta(h{f_1..f_n})
        - sum over t of (-1)^(|f_(t+1)| + ... + |f_n|) h{.., delta(f_t), ..}
        - (-1)^(|f_1| + ... + |f_n|) delta(h){f_1..f_n},

and dev_tribraces and dev_tetrabraces name it at n = 2 and 3.

Every operation but cup is one joint sum (backends.joint_sum) of its
regions (c, base, operands, points), c * base comp_p0 operands[0] comp_p1
... summed over the points. Each has a private regions function, its
regions scaled by a coefficient c. A sum of operations (dev_braces and the
associator here, the deviation closed forms in the law suite, a sum or a
call in a script) is then one joint sum of all their regions: one
accumulator, and each (last operand, slot) that several of their points
of two or more operands share composed once. bullet, bracket and delta
give one-operand regions over
their slots; a brace its ground simplex; cup the one point (0, deg f) of
mu, +-f and g, which cup itself composes as two single compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .backends import GradedElement, joint_sum, region_sum
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


def _cup_regions(ctx: PreOperadContext, c, f: GradedElement, g: GradedElement):
    """The one region of c * cup(f, g): mu, then +-f in slot 0 and g in
    slot deg f."""
    sign = ksign(f.degree)
    if MUTATION_CUP_SIGN in ctx.backend.mutations:
        sign = -sign
    # the sign rides on the small operand, not on the full-size result
    signed_f = f if sign > 0 else -f
    return ((c, ctx.mu, (signed_f, g), ((0, f.degree),)),)


def cup(ctx: PreOperadContext, f: GradedElement, g: GradedElement) -> GradedElement:
    """Product of degree deg(f) + deg(g) induced by mu: the one point of
    its region, composed as two single compositions."""
    (_, mu, (f, g), ((i, k),)), = _cup_regions(ctx, 1, f, g)
    return mu.compose(f, i).compose(g, k)


def _slots(c, f: GradedElement, g: GradedElement):
    """The region c * (f comp_i g) over every slot i of f."""
    return c, f, (g,), tuple(zip(range(f.degree)))


def _bullet_regions(c, f: GradedElement, g: GradedElement):
    if f.degree < 1:
        raise InvalidDegree("bullet needs a left operand of degree >= 1")
    return (_slots(c, f, g),)


def bullet(f: GradedElement, g: GradedElement) -> GradedElement:
    """Total composition: g inserted into every slot of f, signs included."""
    return joint_sum(f.backend, f.degree + g.degree - 1,
                     _bullet_regions(1, f, g))


def _bracket_regions(c, f: GradedElement, g: GradedElement):
    if f.degree < 1 or g.degree < 1:
        raise InvalidDegree("bracket needs operands of degree >= 1")
    sign = ksign(f.shifted_degree * g.shifted_degree)
    return _slots(c, f, g), _slots(-sign * c, g, f)


def bracket(f: GradedElement, g: GradedElement) -> GradedElement:
    return joint_sum(f.backend, f.degree + g.degree - 1,
                     _bracket_regions(1, f, g))


def _delta_regions(ctx: PreOperadContext, c, f: GradedElement):
    if f.degree < 1:
        raise InvalidDegree("delta needs degree >= 1")
    return (_slots(ksign(f.shifted_degree) * c, ctx.mu, f),
            _slots(-c, f, ctx.mu))


def delta(ctx: PreOperadContext, f: GradedElement) -> GradedElement:
    """Coboundary induced by mu; squares to zero exactly when mu is associative."""
    return joint_sum(f.backend, f.degree + 1, _delta_regions(ctx, 1, f))


def associator(h: GradedElement, f: GradedElement, g: GradedElement) -> GradedElement:
    """bullet(bullet(h, f), g) - bullet(h, bullet(f, g)): one joint sum
    over the slots of both outer bullets."""
    return joint_sum(h.backend, h.degree + f.degree + g.degree - 2, (
        _slots(1, bullet(h, f), g), _slots(-1, h, bullet(f, g))))


def _brace_points(h: GradedElement, fs):
    """The ground simplex points of h{f_1, ..., f_n}; at n = 1 they are
    the slots of h, so h{f} = bullet(h, f)."""
    if not fs:
        raise InvalidDegree("braces need at least one input")
    if min(x.degree for x in (h, *fs)) < 1:
        raise InvalidDegree("braces need degrees >= 1")
    points = ground_simplex(h.degree, [f.degree for f in fs])
    if len(fs) == 2 and MUTATION_RIGHT_RANGE in h.backend.mutations:
        # canary: shift the row start by one slot
        points = tuple((i, j) for (i, j) in points if j > i + fs[0].degree)
    return points


def _brace_regions(c, h: GradedElement, fs):
    """The one region of c * h{f_1, ..., f_n}: its ground simplex."""
    return ((c, h, fs, _brace_points(h, fs)),)


def braces(h: GradedElement, *fs: GradedElement) -> GradedElement:
    """The brace h{f_1, ..., f_n}: (h comp_p1 f_1) ... comp_pn f_n summed
    over the ground simplex."""
    return region_sum(h, fs, _brace_points(h, fs))


def dev_braces(ctx: PreOperadContext, h: GradedElement,
               *fs: GradedElement) -> GradedElement:
    """How far delta is from a derivation of the brace h{f_1, ..., f_n}:
    one joint sum of the regions of its n + 2 terms."""
    def regions():
        yield from _delta_regions(ctx, 1, braces(h, *fs))
        sign = -1
        for t, f in reversed(tuple(enumerate(fs))):
            yield from _brace_regions(
                sign, h, (*fs[:t], delta(ctx, f), *fs[t + 1:]))
            sign *= ksign(f.shifted_degree)
        yield from _brace_regions(sign, delta(ctx, h), fs)

    return joint_sum(h.backend, h.degree + sum(f.degree - 1 for f in fs) + 1,
                     regions())


def tribraces(h: GradedElement, f: GradedElement, g: GradedElement) -> GradedElement:
    return braces(h, f, g)


def tetrabraces(h: GradedElement, f: GradedElement, g: GradedElement,
                b: GradedElement) -> GradedElement:
    return braces(h, f, g, b)


def dev_tribraces(ctx: PreOperadContext, h: GradedElement, f: GradedElement,
                  g: GradedElement) -> GradedElement:
    return dev_braces(ctx, h, f, g)


def dev_tetrabraces(ctx: PreOperadContext, h: GradedElement, f: GradedElement,
                    g: GradedElement, b: GradedElement) -> GradedElement:
    return dev_braces(ctx, h, f, g, b)
