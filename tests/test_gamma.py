import tracemalloc

import numpy as np
import pytest

from preoperad import backends, laws
from preoperad.backends import EndoBackend, FreeBackend, GradedElement
from preoperad.calculus import PreOperadContext, cup, delta
from preoperad.domains import (
    boundary_faces,
    ground_tetrahedron,
    scope_regions,
    shifted_tetrahedron,
)
from preoperad.endo import ksign
from preoperad.free import Signature
from preoperad.errors import IndexOutOfDomain, InvalidDegree
from preoperad.gamma import (
    GAMMA_KINDS,
    GammaFamilies,
    aux_gamma,
    aux_gamma_shifted,
    gamma_domain,
)
from preoperad.rings import CoefficientRing
from stacking import stack_rows

F97 = CoefficientRing.prime_field(97)


def make_ctx(seed):
    backend = EndoBackend(F97, 2)
    rng = np.random.default_rng(seed)
    return PreOperadContext(backend, backend.random(2, rng)), rng


def sample(ctx, rng, degrees):
    return tuple(ctx.backend.random(d, rng) for d in degrees)


def test_gamma_domain_shapes():
    # all four families live on translated copies of the same tetrahedron
    for kind in GAMMA_KINDS:
        dom = gamma_domain(kind, 4, 1, 1, 1)
        assert len(dom) > 0
        for (i, j, k) in dom.points:
            assert i <= j <= k


def test_gamma_domain_rejects_bad_input():
    with pytest.raises(IndexOutOfDomain):
        gamma_domain("gamma9", 3, 1, 1, 1)
    with pytest.raises(InvalidDegree):
        gamma_domain("gamma", 0, 1, 1, 1)


def test_aux_gamma_outside_domain_raises():
    ctx, rng = make_ctx(1)
    h, f, g, b = sample(ctx, rng, (3, 1, 1, 1))
    with pytest.raises(IndexOutOfDomain):
        aux_gamma(ctx, "gamma", h, f, g, b, 99, 100, 101)


def test_shifted_interior_lies_in_every_family_domain():
    for degs in ((3, 1, 1, 1), (4, 2, 1, 1), (4, 1, 2, 2)):
        interior = shifted_tetrahedron(*degs[:3]).points
        for kind in GAMMA_KINDS:
            dom = gamma_domain(kind, *degs)
            assert set(interior) <= set(dom.points)


@pytest.mark.parametrize("degs", [(3, 1, 1, 1), (4, 1, 1, 1), (4, 2, 1, 1)])
def test_recapitulation_matches_shifted_forms(degs):
    ctx, rng = make_ctx(sum(degs))
    h, f, g, b = sample(ctx, rng, degs)
    for (i, j, k) in ground_tetrahedron(*degs[:3]).points:
        for kind in GAMMA_KINDS:
            assert aux_gamma_shifted(ctx, kind, h, f, g, b, i, j, k) == \
                aux_gamma(ctx, kind, h, f, g, b, i + 1, j + 1, k + 1)


@pytest.mark.parametrize("degs", [(3, 1, 1, 1), (4, 1, 2, 1)])
def test_pointwise_telescoping_of_inner_coboundaries(degs):
    ctx, rng = make_ctx(17 + sum(degs))
    h, f, g, b = sample(ctx, rng, degs)
    sg, sb = g.degree - 1, b.degree - 1
    for (i, j, k) in ground_tetrahedron(*degs[:3]).points:
        core = h.compose(f, i).compose(g, j).compose(b, k)
        lhs = (delta(ctx, core)
               - h.compose(f, i).compose(g, j).compose(delta(ctx, b), k)
               - ksign(sb) * h.compose(f, i).compose(delta(ctx, g), j)
                              .compose(b, k + 1)
               - ksign(sb + sg) * h.compose(delta(ctx, f), i)
                                   .compose(g, j + 1).compose(b, k + 1))
        rhs = ctx.backend.zero(lhs.degree)
        for kind in GAMMA_KINDS:
            rhs = rhs + aux_gamma(ctx, kind, h, f, g, b, i + 1, j + 1, k + 1)
        assert lhs == rhs


@pytest.mark.parametrize("degs", [(2, 1, 1, 1), (3, 1, 1, 1), (3, 2, 1, 1)])
def test_outer_coboundary_telescopes(degs):
    ctx, rng = make_ctx(23 + sum(degs))
    h, f, g, b = sample(ctx, rng, degs)
    dh, df, dg = h.degree, f.degree, g.degree
    sf, sg, sb = df - 1, dg - 1, b.degree - 1
    pts = [(i, j, k)
           for i in range(0, dh - 1)
           for j in range(i + df, dh + df - 1)
           for k in range(j + dg, dh + df + dg - 1)]
    assert pts
    for (i, j, k) in pts:
        lhs = ksign(sf + sg + sb) * (delta(ctx, h).compose(f, i)
                                     .compose(g, j).compose(b, k))
        rhs = (aux_gamma(ctx, "gamma", h, f, g, b, i, j, k)
               + aux_gamma(ctx, "gamma1", h, f, g, b, i + 1, j, k)
               + aux_gamma(ctx, "gamma2", h, f, g, b, i + 1, j + 1, k)
               + aux_gamma(ctx, "gamma3", h, f, g, b, i + 1, j + 1, k + 1))
        assert lhs == rhs


@pytest.mark.parametrize("degs", [(2, 1, 1, 1), (3, 1, 1, 1), (3, 2, 1, 2)])
def test_boundary_faces_collapse_to_cup_forms(degs):
    ctx, rng = make_ctx(31 + sum(degs))
    h, f, g, b = sample(ctx, rng, degs)
    sh, sg, sb = h.degree - 1, g.degree - 1, b.degree - 1
    df, db = f.degree, b.degree
    faces = boundary_faces(*degs[:3])
    for (i, j, k) in faces["gamma"]:
        assert aux_gamma(ctx, "gamma", h, f, g, b, i, j, k) == \
            ksign(sg + db + sh * df) * cup(
                ctx, f, h.compose(g, j - df).compose(b, k - df))
    for (i, j, k) in faces["gamma1"]:
        assert aux_gamma(ctx, "gamma1", h, f, g, b, i, j, k) == \
            ksign(sb + sg) * h.compose(cup(ctx, f, g), i - 1).compose(b, k)
    for (i, j, k) in faces["gamma2"]:
        assert aux_gamma(ctx, "gamma2", h, f, g, b, i, j, k) == \
            ksign(sb) * h.compose(f, i - 1).compose(cup(ctx, g, b), j - 1)
    for (i, j, k) in faces["gamma3"]:
        assert aux_gamma(ctx, "gamma3", h, f, g, b, i, j, k) == \
            ksign(db) * cup(ctx, h.compose(f, i - 1).compose(g, j - 1), b)


def test_aux_degree_bookkeeping():
    ctx, rng = make_ctx(41)
    h, f, g, b = sample(ctx, rng, (3, 1, 1, 1))
    want = 3 + 1 + 1 + 1 - 2
    for kind in GAMMA_KINDS:
        dom = gamma_domain(kind, 3, 1, 1, 1)
        i, j, k = dom.points[0]
        assert aux_gamma(ctx, kind, h, f, g, b, i, j, k).degree == want


def _inputs(kind, degrees, mutations, seed):
    """A context and h, f, g, b of the given degrees on one backend; free
    inputs, mu included, are sums of two generators, so that terms can
    merge and cancel."""
    rng = np.random.default_rng(seed)
    if kind == "endo":
        backend = EndoBackend(F97, 2, mutations)
        h, f, g, b, mu = (backend.random(d, rng) for d in degrees + (2,))
    else:
        sig = Signature(tuple((n + t, d) for n, d in zip("hfgbm", degrees + (2,))
                              for t in ("", "2")))
        backend = FreeBackend(F97, sig, mutations)
        h, f, g, b, mu = (int(rng.integers(1, 97)) * backend.generator(n)
                          - int(rng.integers(1, 97)) * backend.generator(n + "2")
                          for n in "hfgbm")
    return PreOperadContext(backend, mu), h, f, g, b


def _chain(x, f, i, g, j, b, k):
    return x.compose(f, i).compose(g, j).compose(b, k)


def _aux_gamma_per_s(ctx, kind, h, f, g, b, i, j, k):
    """aux_gamma at (i, j, k) with one full chain
    (h comp_s mu) comp f comp g comp b per s, and the number of s."""
    mu, unit = ctx.mu, ctx.unit
    sh, sf, sg, sb = (x.degree - 1 for x in (h, f, g, b))
    df = f.degree
    tail = ksign(sf + sg + sb)
    total = ctx.backend.zero(h.degree + f.degree + g.degree + b.degree - 2)
    if kind == "gamma":
        total = total - ksign(sh + sf + sg + sb) * _chain(
            cup(ctx, unit, h), f, i, g, j, b, k)
        s_range, slots = range(0, i), (i, j, k)
    elif kind == "gamma1":
        s_range, slots = range(i - 1, j - df + 1), (i - 1, j, k)
    elif kind == "gamma2":
        s_range, slots = range(j - df, k - df - sg + 1), (i - 1, j - 1, k)
    else:
        total = total - tail * _chain(cup(ctx, h, unit), f, i - 1, g, j - 1,
                                      b, k - 1)
        s_range, slots = range(k - df - sg, sh + 1), (i - 1, j - 1, k - 1)
    fi, gj, bk = slots
    for s in s_range:
        total = total - tail * _chain(h.compose(mu, s), f, fi, g, gj, b, bk)
    return total, len(s_range)


def _aux_gamma_shifted_per_s(ctx, kind, h, f, g, b, i, j, k):
    """aux_gamma_shifted at (i, j, k) with one full chain per s, and the
    number of s."""
    mu, unit = ctx.mu, ctx.unit
    sh, sf, sg, sb = (x.degree - 1 for x in (h, f, g, b))
    df, dg = f.degree, g.degree
    tail = ksign(sf + sg + sb)
    if kind == "gamma":
        total = (tail * _chain(h, cup(ctx, unit, f), i, g, j + 1, b, k + 1)
                 - ksign(sh + sf + sg + sb) * cup(ctx, unit,
                                                  _chain(h, f, i, g, j, b, k)))
        s_range, slots = range(0, i), (i + 1, j + 1, k + 1)
    elif kind == "gamma1":
        total = ksign(sg + sb) * (
            _chain(h, cup(ctx, f, unit), i, g, j + 1, b, k + 1)
            + _chain(h, f, i, cup(ctx, unit, g), j, b, k + 1))
        s_range, slots = range(i + 1, j - df + 1), (i, j + 1, k + 1)
    elif kind == "gamma2":
        total = ksign(sb) * (
            _chain(h, f, i, cup(ctx, g, unit), j, b, k + 1)
            + _chain(h, f, i, g, j, cup(ctx, unit, b), k))
        s_range, slots = range(j - sf + 1, k - sf - dg + 1), (i, j, k + 1)
    else:
        total = (_chain(h, f, i, g, j, cup(ctx, b, unit), k)
                 - cup(ctx, _chain(h, f, i, g, j, b, k), unit))
        s_range, slots = range(k - sf - sg + 1, sh + 1), (i, j, k)
    fi, gj, bk = slots
    for s in s_range:
        total = total - tail * _chain(h.compose(mu, s), f, fi, g, gj, b, bk)
    return total, len(s_range)


@pytest.mark.parametrize("kind", ["endo", "free"])
@pytest.mark.parametrize("mutations", [frozenset(), frozenset({"cup-sign-flip"})],
                         ids=["clean", "cup-sign-flip"])
@pytest.mark.parametrize("degrees", [(3, 1, 1, 1), (4, 2, 1, 2)])
def test_families_equal_their_per_s_expansion(kind, mutations, degrees):
    ctx, h, f, g, b = _inputs(kind, degrees, mutations, 3 + sum(degrees))
    counts = set()
    for family in GAMMA_KINDS:
        for (i, j, k) in gamma_domain(family, *degrees).points:
            want, r = _aux_gamma_per_s(ctx, family, h, f, g, b, i, j, k)
            assert aux_gamma(ctx, family, h, f, g, b, i, j, k) == want
            counts.add(r)
        for (i, j, k) in ground_tetrahedron(*degrees[:3]).points:
            want, r = _aux_gamma_shifted_per_s(ctx, family, h, f, g, b, i, j, k)
            assert aux_gamma_shifted(ctx, family, h, f, g, b, i, j, k) == want
            counts.add(r)
    # empty s-ranges, single ones and longer ones all occur
    assert {0, 1, 2} <= counts


def test_a_family_with_r_values_of_s_composes_r_plus_3_times(monkeypatch):
    ctx, h, f, g, b = _inputs("endo", (5, 1, 1, 1), frozenset(), 29)
    # every composition term, single or inside a compose_sum
    calls = []
    compose = GradedElement.compose
    fused = backends.compose_sum

    def counted(self, other, i):
        calls.append(i)
        return compose(self, other, i)

    def counted_sum(backend, degree, terms):
        def seen():
            for c, x, other, i in terms:
                calls.append(i)
                yield c, x, other, i
        return fused(backend, degree, seen())

    monkeypatch.setattr(GradedElement, "compose", counted)
    monkeypatch.setattr(backends, "compose_sum", counted_sum)
    # gamma and gamma3 also hold one cup term: 2 compositions, then 3 for
    # its chain in the per-s expansion; aux_gamma folds the cup term into
    # the head of the mu-terms, so those two families compose one chain,
    # even for r = 0
    cups = {"gamma": 2, "gamma1": 0, "gamma2": 0, "gamma3": 2}
    seen = set()
    for family in GAMMA_KINDS:
        for (i, j, k) in gamma_domain(family, 5, 1, 1, 1).points:
            calls.clear()
            _, r = _aux_gamma_per_s(ctx, family, h, f, g, b, i, j, k)
            assert len(calls) == (cups[family] + 3 if cups[family] else 0) + 4 * r
            calls.clear()
            aux_gamma(ctx, family, h, f, g, b, i, j, k)
            assert len(calls) == cups[family] + (r + 3 if r or cups[family] else 0)
            seen.add(r)
    assert max(seen) >= 3


def _orders(points, seed):
    """points in lexicographic order, then shuffled with a few repeated."""
    rng = np.random.default_rng(seed)
    mixed = list(points) + list(points[:2])
    return [list(points), [mixed[n] for n in rng.permutation(len(mixed))]]


@pytest.mark.parametrize("kind", ["endo", "free"])
@pytest.mark.parametrize("mutations", [frozenset(), frozenset({"cup-sign-flip"})],
                         ids=["clean", "cup-sign-flip"])
@pytest.mark.parametrize("degrees", [(3, 1, 1, 1), (4, 2, 1, 2), (4, 1, 2, 1)])
def test_evaluator_runs_equal_their_per_s_expansion(kind, mutations, degrees):
    # one evaluator serves every run, in any order: kept prefixes and heads
    # must never leak from one point, family or form into another
    ctx, h, f, g, b = _inputs(kind, degrees, mutations, 5 + sum(degrees))
    families = GammaFamilies(ctx, h, f, g, b)
    for family in GAMMA_KINDS:
        for n, points in enumerate(_orders(gamma_domain(family, *degrees).points,
                                           sum(degrees))):
            values = list(families.totals(family, points))
            assert len(values) == len(points)
            for (i, j, k), got in zip(points, values):
                want, _ = _aux_gamma_per_s(ctx, family, h, f, g, b, i, j, k)
                assert got == want, (family, n, (i, j, k))
    ground = ground_tetrahedron(*degrees[:3]).points
    for n, points in enumerate(_orders(ground, 7 * sum(degrees))):
        values = iter(families.shifted(points))
        for (i, j, k) in points:
            for family in GAMMA_KINDS:
                want, _ = _aux_gamma_shifted_per_s(ctx, family, h, f, g, b,
                                                   i, j, k)
                assert next(values) == want, (family, n, (i, j, k))
        assert next(values, None) is None
    # a run of one family's shifted forms
    points = _orders(ground, 11)[1]
    for family in GAMMA_KINDS:
        for (i, j, k), got in zip(points, families.shifted(points, (family,))):
            want, _ = _aux_gamma_shifted_per_s(ctx, family, h, f, g, b, i, j, k)
            assert got == want


def test_evaluator_runs_check_every_point_before_the_first_value():
    ctx, rng = make_ctx(3)
    h, f, g, b = sample(ctx, rng, (3, 1, 1, 1))
    families = GammaFamilies(ctx, h, f, g, b)
    good = gamma_domain("gamma1", 3, 1, 1, 1).points[0]
    with pytest.raises(IndexOutOfDomain, match=r"\(9, 9, 9\) outside aux-gamma1"):
        next(families.totals("gamma1", [good, (9, 9, 9)]))
    with pytest.raises(IndexOutOfDomain, match="unknown auxiliary family"):
        next(families.totals("gamma7", [good]))
    with pytest.raises(IndexOutOfDomain, match="ground tetrahedron"):
        next(families.shifted([(0, 1, 2), (5, 5, 5)]))
    with pytest.raises(IndexOutOfDomain, match="unknown auxiliary family"):
        next(families.shifted([(0, 1, 2)], ("gamma", "gamma7")))
    assert list(families.totals("gamma", [])) == []


def _stacked_sample(degrees, rows, seed):
    """A law sample of rows stacked endo trials at dim 2 over F_97."""
    rng = np.random.default_rng(seed)
    backend = EndoBackend(F97, 2)
    ctx = PreOperadContext(backend, backend.random(2, rng))
    elements = {
        name: GradedElement(backend, stack_rows(
            [backend.random(d, rng).payload for _ in range(rows)]))
        for name, d in zip("hfgb", degrees)}
    return laws.TrialSample(ctx, elements, dict(zip("hfgb", degrees)), rows)


@pytest.mark.parametrize("law_id", ["L18-lemma-first", "L24-gamma-recap"])
def test_a_gamma_law_check_peaks_below_a_few_result_tables(law_id):
    # the largest degree tuple the default budget draws (total degree 12 at
    # dim 2), 16 stacked rows: a family value has 16 * 2^11 entries. Kept
    # prefixes must be released once their points are done; a check that
    # evaluated one point at a time peaked at 8.8 (L18) and 8.0 (L24) such
    # tables here
    sample = _stacked_sample((4, 4, 3, 1), 16, 41)
    law = laws.get_law(law_id)
    law.checker(sample)  # warm the per-(ring, dim) caches
    value_bytes = 16 * 2**11 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        details = law.checker(sample)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert details == [None] * 16
    assert peak < 9.5 * value_bytes


def test_an_l24_check_composes_each_shared_composite_once(monkeypatch):
    # every composition, single or a term of a compose_sum, counted where
    # the backend builds it; evaluating each family one point at a time
    # made 292 for this check
    counts = []
    compose, fused = EndoBackend.compose_payload, EndoBackend.compose_sum_payload

    def counted(self, f, g, i):
        counts.append(i)
        return compose(self, f, g, i)

    def counted_sum(self, degree, terms):
        def seen():
            for term in terms:
                counts.append(term[-1])
                yield term
        return fused(self, degree, seen())

    monkeypatch.setattr(EndoBackend, "compose_payload", counted)
    monkeypatch.setattr(EndoBackend, "compose_sum_payload", counted_sum)
    sample = _stacked_sample((4, 2, 1, 2), 1, 43)
    assert laws.get_law("L24-gamma-recap").checker(sample) == [None]
    assert len(counts) == 149


def _record_compositions(monkeypatch):
    """The (left, right, slot) payloads of every composition the endo
    backend builds from now on, single or a term of a compose_sum."""
    made = []
    compose, fused = EndoBackend.compose_payload, EndoBackend.compose_sum_payload

    def counted(self, f, g, i):
        made.append((f, g, i))
        return compose(self, f, g, i)

    def counted_sum(self, degree, terms):
        def seen():
            for term in terms:
                made.append(term[1:])
                yield term
        return fused(self, degree, seen())

    monkeypatch.setattr(EndoBackend, "compose_payload", counted)
    monkeypatch.setattr(EndoBackend, "compose_sum_payload", counted_sum)
    return made


@pytest.mark.parametrize("law_id, region", [
    ("L02-relation-left", 0), ("L03-relation-nested", 1),
    ("L04-relation-right", 2)])
def test_an_exchange_check_composes_h_comp_i_f_once_per_i(
        monkeypatch, law_id, region):
    # composing h comp_i f at every point (i, j) made it again for each j
    s = _stacked_sample((4, 2, 1, 1), 1, 44)
    h, f = s.elements["h"].payload, s.elements["f"].payload
    made = _record_compositions(monkeypatch)
    assert laws.get_law(law_id).checker(s) == [None]
    slots = [i for left, right, i in made if left is h and right is f]
    points = scope_regions(4, 2)[region].points
    assert sorted(slots) == sorted({i for i, _ in points})
    assert len(slots) < len(points)


@pytest.mark.parametrize("law_id", ["L20-boundary-gamma", "L21-boundary-gamma1",
                                    "L22-boundary-gamma2", "L23-boundary-gamma3"])
def test_a_face_check_builds_each_cup_of_two_inputs_and_each_h_composite_once(
        monkeypatch, law_id):
    # built point by point, the closed form rebuilt cup(f, g) or cup(g, b)
    # and h's first composite at every face point. Every face shares that
    # first slot across points, and the degrees (4, 3, 1, 2), mu's 2 and
    # the cups' 4 and 3 tell h's right operands apart within each face
    s = _stacked_sample((4, 3, 1, 2), 1, 45)
    names = {id(s.elements[n]): n for n in "hfgb"}
    cups = []

    def counted_cup(ctx, x, y):
        if id(x) in names and id(y) in names:
            cups.append((names[id(x)], names[id(y)]))
        return cup(ctx, x, y)

    monkeypatch.setattr(laws, "cup", counted_cup)
    made = _record_compositions(monkeypatch)
    assert laws.get_law(law_id).checker(s) == [None]
    h = s.elements["h"].payload
    into_h = [(i, right.degree) for left, right, i in made if left is h]
    assert into_h and len(into_h) == len(set(into_h))
    assert len(cups) == len(set(cups)) <= 1
