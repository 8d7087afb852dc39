"""Auxiliary telescoping variables for the quadruple-brace deviation.

Four families of lattice-indexed elements, built from four inputs h, f, g, b
and the context product mu. Each family is a short alternating sum of
compositions (h comp_s mu) comp f comp g comp b plus at most one cup term,
arranged so that adjacent families share their boundary summand; summing the
four families telescopes almost everything away.

The total definitions used here are the unit-absorbed forms, defined on one
extended tetrahedron per family (gamma_domain). On the shifted interior they
agree with the raw shifted-index expressions (aux_gamma_shifted, checked by
law), and on the four boundary faces they collapse to cup-product closed
forms (also checked by law).

GammaFamilies evaluates the families of one input tuple over a run of
points; a law check builds one and draws every value it needs from it.
Composition is linear in its left operand, so in a total form the
mu-terms h comp_s mu and the cup term share one head, and the family value
is one f, g, b chain on that head. Each h comp_s mu, each cup of an input
with the unit and each head is built once per evaluator. The chains run
through backends.prefix_chains, which composes a prefix once for the
consecutive points that share it and keeps no other: a total form walks
head comp f over each run of points with the same head, and the shifted
forms walk h comp f comp g, on which the point's h comp f comp g comp b is
built once. aux_gamma and aux_gamma_shifted evaluate one point.
"""

from __future__ import annotations

from itertools import groupby

from .backends import GradedElement, prefix_chains, signed_sum
from .calculus import PreOperadContext, cup
from .domains import LatticeDomain, _staircase, ground_tetrahedron
from .endo import ksign
from .errors import IndexOutOfDomain, InvalidDegree
from .rings import require_integer

GAMMA_KINDS = ("gamma", "gamma1", "gamma2", "gamma3")


def gamma_domain(kind: str, deg_h: int, deg_f: int, deg_g: int,
                 deg_b: int) -> LatticeDomain:
    """The lattice tetrahedron on which one auxiliary family is defined: the
    staircase first <= i, i + gaps[0] <= j, j + gaps[1] <= k and
    (i, j, k) <= tops, with first, gaps and tops by kind below."""
    if kind not in GAMMA_KINDS:
        raise IndexOutOfDomain(f"unknown auxiliary family {kind!r}")
    for d in (deg_h, deg_f, deg_g, deg_b):
        if require_integer(d, "a degree", InvalidDegree) < 1:
            raise InvalidDegree("all four degrees must be >= 1")
    sh, sf, sg = deg_h - 1, deg_f - 1, deg_g - 1
    first, gaps, tops = {
        "gamma": (0, (deg_f, deg_g), (sh - 1, sh + sf, deg_h + sf + sg)),
        "gamma1": (1, (sf, deg_g), (sh, sh + sf, deg_h + sf + sg)),
        "gamma2": (1, (deg_f, sg), (sh, deg_h + sf, deg_h + sf + sg)),
        "gamma3": (1, (deg_f, deg_g), (sh, deg_h + sf, deg_h + deg_f + sg)),
    }[kind]
    return LatticeDomain(f"aux-{kind}", (deg_h, deg_f, deg_g, deg_b),
                         _staircase(first, gaps, tops))


class GammaFamilies:
    """The four auxiliary families of one input tuple (h, f, g, b).

    totals(kind, points) yields the unit-absorbed form on gamma_domain(kind)
    and shifted(points) the raw shifted-index forms on the ground
    tetrahedron, one point at a time. Points may come in any order; a
    prefix that consecutive points share is composed once.
    """

    def __init__(self, ctx: PreOperadContext, h: GradedElement,
                 f: GradedElement, g: GradedElement, b: GradedElement):
        self.ctx = ctx
        self.h, self.f, self.g, self.b = h, f, g, b
        self.degree = h.degree + f.degree + g.degree + b.degree - 2
        self._tail = ksign(f.shifted_degree + g.shifted_degree
                           + b.shifted_degree)
        self._outer = ksign(h.shifted_degree) * self._tail
        self._domains = {}  # kind -> (domain, its points as a set)
        self._ground = None
        self._built = {}  # h comp_s mu, cups with the unit and heads, by key

    def _check_total(self, kind, point):
        if kind not in self._domains:
            dom = gamma_domain(kind, self.h.degree, self.f.degree,
                               self.g.degree, self.b.degree)
            self._domains[kind] = dom, frozenset(dom.points)
        dom, points = self._domains[kind]
        if point not in points:
            raise IndexOutOfDomain(f"({point[0]}, {point[1]}, {point[2]}) "
                                   f"outside {dom.kind} for degrees "
                                   f"{dom.params}")

    def _check_shifted(self, point):
        if self._ground is None:
            self._ground = frozenset(ground_tetrahedron(
                self.h.degree, self.f.degree, self.g.degree).points)
        if point not in self._ground:
            raise IndexOutOfDomain(f"({point[0]}, {point[1]}, {point[2]}) "
                                   f"outside the ground tetrahedron")

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def _cup(self, x: str, y: str) -> GradedElement:
        """cup of two named inputs, "unit" among them, built once."""
        def build():
            ctx = self.ctx
            pick = {"unit": ctx.unit, "h": self.h, "f": self.f,
                    "g": self.g, "b": self.b}
            return cup(ctx, pick[x], pick[y])
        return self._once(("cup", x, y), build)

    def _head(self, lo: int, hi: int, side: str | None = None):
        """-tail * sum of h comp_s mu over lo <= s <= hi, plus the total
        form's cup term: outer * cup(unit, h) for side "left", -tail *
        cup(h, unit) for side "right"; None for an empty sum, which no
        total form meets (gamma1 and gamma2 domains keep lo <= hi)."""
        if lo > hi:
            lo, hi = 0, -1
            if side is None:
                return None

        def build():
            h, mu, tail = self.h, self.ctx.mu, self._tail
            terms = [(-tail, self._once(("hmu", s), lambda s=s: h.compose(mu, s)))
                     for s in range(lo, hi + 1)]
            if side == "left":
                terms.append((-self._outer, self._cup("unit", "h")))
            elif side == "right":
                terms.append((-tail, self._cup("h", "unit")))
            return signed_sum(h.backend, h.degree + 1, terms)
        return self._once(("head", side, lo, hi), build)

    def totals(self, kind: str, points):
        """The unit-absorbed total form of one family at each of points in
        turn: head comp f comp g comp b, one chain per point.

        Each run of consecutive points with the same head is one prefix
        walk over f, so head comp f is composed once per run of equal
        slots. head comp f comp g is not kept: only points that differ in
        k alone share it, and holding it across them raised a check's peak
        memory by a full result table.
        """
        df, sg, sh = self.f.degree, self.g.shifted_degree, self.h.shifted_degree
        plans = []
        for point in points:
            point = tuple(point)
            self._check_total(kind, point)
            i, j, k = point
            if kind == "gamma":
                head, slots = self._head(0, i - 1, "left"), (i, j, k)
            elif kind == "gamma1":
                head, slots = self._head(i - 1, j - df), (i - 1, j, k)
            elif kind == "gamma2":
                head, slots = self._head(j - df, k - df - sg), (i - 1, j - 1, k)
            else:
                head, slots = (self._head(k - df - sg, sh, "right"),
                               (i - 1, j - 1, k - 1))
            plans.append((head, slots))
        for _, run in groupby(plans, key=lambda plan: id(plan[0])):
            run = list(run)
            walk = prefix_chains(run[0][0], (self.f,), [slots[:1] for _, slots in run])
            for chain, (_, (_, c, e)) in zip(walk, run):
                # popped: a suspended run names no head comp f that the walk
                # has not kept for the next point
                yield chain.pop().compose(self.g, c).compose(self.b, e)

    def shifted(self, points, kinds=GAMMA_KINDS):
        """The raw shifted-index forms at each of points in turn: at each
        point, one value per family of kinds, in that order. The points
        range over the ground tetrahedron, and the value at (i, j, k) sits
        at lattice point (i + 1, j + 1, k + 1).

        One prefix walk over f and g: h comp_i f and h comp_i f comp_j g
        are kept while the next point shares them, and h comp_i f comp_j g
        comp_k b is built once per point into the walk's list, which the
        walk empties when it moves on.
        """
        for kind in kinds:
            if kind not in GAMMA_KINDS:
                raise IndexOutOfDomain(f"unknown auxiliary family {kind!r}")
        points = [tuple(point) for point in points]
        for point in points:
            self._check_shifted(point)
        walk = prefix_chains(self.h, (self.f, self.g),
                             [point[:2] for point in points])
        for parts, (i, j, k) in zip(walk, points):
            for kind in kinds:
                yield self._shifted_at(kind, i, j, k, parts)

    def _shifted_at(self, kind, i, j, k, parts: list) -> GradedElement:
        """One raw shifted-index form; parts holds h comp_i f and its
        comp_j g, and takes their comp_k b once it is built."""
        ctx, h, f, g, b = self.ctx, self.h, self.f, self.g, self.b
        sg, sb = g.shifted_degree, b.shifted_degree
        sf, df, dg = f.shifted_degree, f.degree, g.degree
        tail = self._tail

        def core():
            if len(parts) == 2:
                parts.append(parts[1].compose(b, k))
            return parts[2]

        def mu_terms(lo, hi, a, c, e):
            # -tail * sum over lo <= s <= hi of (h comp_s mu) comp_a f
            # comp_c g comp_e b, as one chain on their summed head
            head = self._head(lo, hi)
            if head is not None:
                yield 1, head.compose(f, a).compose(g, c).compose(b, e)

        def terms():
            if kind == "gamma":
                yield -self._outer, cup(ctx, ctx.unit, core())
                yield from mu_terms(0, i - 1, i + 1, j + 1, k + 1)
                yield tail, (h.compose(self._cup("unit", "f"), i)
                             .compose(g, j + 1).compose(b, k + 1))
            elif kind == "gamma1":
                yield ksign(sg + sb), (h.compose(self._cup("f", "unit"), i)
                                       .compose(g, j + 1).compose(b, k + 1))
                yield from mu_terms(i + 1, j - df, i, j + 1, k + 1)
                yield ksign(sg + sb), (parts[0].compose(self._cup("unit", "g"), j)
                                       .compose(b, k + 1))
            elif kind == "gamma2":
                yield ksign(sb), (parts[0].compose(self._cup("g", "unit"), j)
                                  .compose(b, k + 1))
                yield from mu_terms(j - sf + 1, k - sf - dg, i, j, k + 1)
                yield ksign(sb), parts[1].compose(self._cup("unit", "b"), k)
            else:
                # the cup term first, while the sum holds no buffer yet:
                # the cup composes twice at full size
                yield -1, cup(ctx, core(), ctx.unit)
                yield 1, parts[1].compose(self._cup("b", "unit"), k)
                yield from mu_terms(k - sf - sg + 1, h.shifted_degree, i, j, k)

        return signed_sum(h.backend, self.degree, terms())


def aux_gamma(ctx: PreOperadContext, kind: str, h: GradedElement,
              f: GradedElement, g: GradedElement, b: GradedElement,
              i: int, j: int, k: int) -> GradedElement:
    """Unit-absorbed total form of one auxiliary family at (i, j, k)."""
    return next(GammaFamilies(ctx, h, f, g, b).totals(kind, [(i, j, k)]))


def aux_gamma_shifted(ctx: PreOperadContext, kind: str, h: GradedElement,
                      f: GradedElement, g: GradedElement, b: GradedElement,
                      i: int, j: int, k: int) -> GradedElement:
    """Raw shifted-index form; (i, j, k) ranges over the ground tetrahedron
    and the value sits at lattice point (i + 1, j + 1, k + 1)."""
    return next(GammaFamilies(ctx, h, f, g, b).shifted([(i, j, k)], (kind,)))
