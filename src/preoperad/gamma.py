"""Auxiliary telescoping variables for the quadruple-brace deviation.

Four families of lattice-indexed elements, built from four inputs h, f, g, b
and the context product mu. Each family is a short alternating sum of
compositions (h comp_s mu) comp f comp g comp b plus at most one cup term,
arranged so that adjacent families share their boundary summand; summing the
four families telescopes almost everything away. Within a family the f, g, b
chain of every mu-term is the same, so the h comp_s mu are summed over s
first and the chain is composed once per family, not once per s.

The total definitions used here are the unit-absorbed forms, defined on one
extended tetrahedron per family (gamma_domain). On the shifted interior they
agree with the raw shifted-index expressions (aux_gamma_shifted, checked by
law), and on the four boundary faces they collapse to cup-product closed
forms (also checked by law).
"""

from __future__ import annotations

from .backends import GradedElement, region_sum, signed_sum
from .calculus import PreOperadContext, cup
from .domains import LatticeDomain, ground_tetrahedron
from .endo import ksign
from .errors import IndexOutOfDomain, InvalidDegree

GAMMA_KINDS = ("gamma", "gamma1", "gamma2", "gamma3")


def gamma_domain(kind: str, deg_h: int, deg_f: int, deg_g: int,
                 deg_b: int) -> LatticeDomain:
    """The lattice tetrahedron on which one auxiliary family is defined."""
    if kind not in GAMMA_KINDS:
        raise IndexOutOfDomain(f"unknown auxiliary family {kind!r}")
    for d in (deg_h, deg_f, deg_g, deg_b):
        if d < 1:
            raise InvalidDegree("all four degrees must be >= 1")
    sh, sf, sg = deg_h - 1, deg_f - 1, deg_g - 1
    if kind == "gamma":
        lo_i, hi_i = 0, sh - 1
    else:
        lo_i, hi_i = 1, sh
    pts = []
    for i in range(lo_i, hi_i + 1):
        j_lo = i + (sf if kind == "gamma1" else deg_f)
        j_hi = sh + sf if kind in ("gamma", "gamma1") else deg_h + sf
        for j in range(j_lo, j_hi + 1):
            k_lo = j + (sg if kind == "gamma2" else deg_g)
            k_hi = deg_h + deg_f + sg if kind == "gamma3" else deg_h + sf + sg
            for k in range(k_lo, k_hi + 1):
                pts.append((i, j, k))
    return LatticeDomain(f"aux-{kind}", (deg_h, deg_f, deg_g, deg_b), tuple(pts))


def _chain(h: GradedElement, f: GradedElement, i: int, g: GradedElement,
           j: int, b: GradedElement, k: int) -> GradedElement:
    return h.compose(f, i).compose(g, j).compose(b, k)


def _mu_terms(c: int, ctx: PreOperadContext, h: GradedElement, s_range,
              f: GradedElement, i: int, g: GradedElement, j: int,
              b: GradedElement, k: int):
    """The term c * sum over s of (h comp_s mu) comp_i f comp_j g comp_k b.

    Composition is linear in its left operand, so the h comp_s mu are
    summed over s first and the f, g, b chain runs once for the whole
    range: r + 3 compositions for r values of s, not 4r. An empty range
    yields no term.
    """
    if s_range:
        hm = region_sum(h, (ctx.mu,), [(s,) for s in s_range])
        yield c, _chain(hm, f, i, g, j, b, k)


def aux_gamma(ctx: PreOperadContext, kind: str, h: GradedElement,
              f: GradedElement, g: GradedElement, b: GradedElement,
              i: int, j: int, k: int) -> GradedElement:
    """Unit-absorbed total form of one auxiliary family at (i, j, k)."""
    dom = gamma_domain(kind, h.degree, f.degree, g.degree, b.degree)
    if (i, j, k) not in dom:
        raise IndexOutOfDomain(f"({i}, {j}, {k}) outside {dom.kind} "
                               f"for degrees {dom.params}")
    sh, sf, sg, sb = (h.shifted_degree, f.shifted_degree,
                      g.shifted_degree, b.shifted_degree)
    df, dg = f.degree, g.degree
    tail = ksign(sf + sg + sb)

    def terms():
        if kind == "gamma":
            yield -ksign(sh + sf + sg + sb), _chain(cup(ctx, ctx.unit, h),
                                                    f, i, g, j, b, k)
            yield from _mu_terms(-tail, ctx, h, range(0, i), f, i, g, j, b, k)
        elif kind == "gamma1":
            yield from _mu_terms(-tail, ctx, h, range(i - 1, j - df + 1),
                                 f, i - 1, g, j, b, k)
        elif kind == "gamma2":
            yield from _mu_terms(-tail, ctx, h, range(j - df, k - df - sg + 1),
                                 f, i - 1, g, j - 1, b, k)
        else:
            yield from _mu_terms(-tail, ctx, h, range(k - df - sg, sh + 1),
                                 f, i - 1, g, j - 1, b, k - 1)
            yield -tail, _chain(cup(ctx, h, ctx.unit), f, i - 1, g, j - 1,
                               b, k - 1)

    return signed_sum(h.backend, h.degree + df + dg + b.degree - 2, terms())


def aux_gamma_shifted(ctx: PreOperadContext, kind: str, h: GradedElement,
                      f: GradedElement, g: GradedElement, b: GradedElement,
                      i: int, j: int, k: int) -> GradedElement:
    """Raw shifted-index form; (i, j, k) ranges over the ground tetrahedron
    and the value sits at lattice point (i + 1, j + 1, k + 1)."""
    if kind not in GAMMA_KINDS:
        raise IndexOutOfDomain(f"unknown auxiliary family {kind!r}")
    if (i, j, k) not in ground_tetrahedron(h.degree, f.degree, g.degree):
        raise IndexOutOfDomain(f"({i}, {j}, {k}) outside the ground tetrahedron")
    sh, sf, sg, sb = (h.shifted_degree, f.shifted_degree,
                      g.shifted_degree, b.shifted_degree)
    df, dg = f.degree, g.degree
    tail = ksign(sf + sg + sb)
    unit = ctx.unit

    def terms():
        if kind == "gamma":
            yield -ksign(sh + sf + sg + sb), cup(ctx, unit,
                                                 _chain(h, f, i, g, j, b, k))
            yield from _mu_terms(-tail, ctx, h, range(0, i),
                                 f, i + 1, g, j + 1, b, k + 1)
            yield tail, _chain(h, cup(ctx, unit, f), i, g, j + 1, b, k + 1)
        elif kind == "gamma1":
            yield ksign(sg + sb), _chain(h, cup(ctx, f, unit), i, g, j + 1,
                                         b, k + 1)
            yield from _mu_terms(-tail, ctx, h, range(i + 1, j - df + 1),
                                 f, i, g, j + 1, b, k + 1)
            yield ksign(sg + sb), _chain(h, f, i, cup(ctx, unit, g), j,
                                         b, k + 1)
        elif kind == "gamma2":
            yield ksign(sb), _chain(h, f, i, cup(ctx, g, unit), j, b, k + 1)
            yield from _mu_terms(-tail, ctx, h, range(j - sf + 1, k - sf - dg + 1),
                                 f, i, g, j, b, k + 1)
            yield ksign(sb), _chain(h, f, i, g, j, cup(ctx, unit, b), k)
        else:
            yield 1, _chain(h, f, i, g, j, cup(ctx, b, unit), k)
            yield from _mu_terms(-tail, ctx, h, range(k - sf - sg + 1, sh + 1),
                                 f, i, g, j, b, k)
            yield -1, cup(ctx, _chain(h, f, i, g, j, b, k), unit)

    return signed_sum(h.backend, h.degree + df + dg + b.degree - 2, terms())
