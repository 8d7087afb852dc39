import tracemalloc

import numpy as np
import pytest

from preoperad import backends
from preoperad.backends import (
    EndoBackend,
    FreeBackend,
    GradedElement,
    compose_sum,
    joint_sum,
    region_sum,
    signed_sum,
)
from preoperad.calculus import (
    PreOperadContext,
    _brace_regions,
    _bracket_regions,
    _bullet_regions,
    _cup_regions,
    _delta_regions,
    associator,
    braces,
    bracket,
    bullet,
    cup,
    delta,
    dev_braces,
    dev_tetrabraces,
    dev_tribraces,
    tetrabraces,
    tribraces,
)
from preoperad.domains import ground_simplex, ground_tetrahedron, scope_regions
from preoperad.free import Signature
from preoperad.gamma import aux_gamma
from preoperad.endo import ksign, make_map
from preoperad.errors import BackendMismatch, DegreeMismatch, InvalidDegree
from preoperad.rings import CoefficientRing

F97 = CoefficientRing.prime_field(97)
ZZ = CoefficientRing.integers()


def scalar_ctx(ring, mu_value):
    backend = EndoBackend(ring, 1)
    mu = GradedElement(backend, make_map(ring, 1, 2, [mu_value]))
    return PreOperadContext(backend, mu)


def scalar(ctx, degree, value):
    backend = ctx.backend
    return GradedElement(backend, make_map(backend.ring, 1, degree, [value]))


def value_of(el):
    table = np.asarray(el.payload.table).reshape(-1)
    assert table.size == 1
    return int(table[0])


def random_ctx(dim=2, seed=0):
    backend = EndoBackend(F97, dim)
    rng = np.random.default_rng(seed)
    return PreOperadContext(backend, backend.random(2, rng)), rng


# frozen worked examples, dim 1


def test_compose_oracle_values():
    ctx = scalar_ctx(F97, 1)
    f = scalar(ctx, 3, 2)
    g = scalar(ctx, 2, 3)
    assert value_of(f.compose(g, 2)) == 6
    f = scalar(ctx, 2, 3)
    g = scalar(ctx, 2, 5)
    assert value_of(f.compose(g, 1)) == 82


def test_cup_oracle_values():
    ctx = scalar_ctx(F97, 1)
    assert value_of(cup(ctx, scalar(ctx, 1, 2), scalar(ctx, 1, 3))) == 91
    assert value_of(cup(ctx, scalar(ctx, 2, 3), scalar(ctx, 2, 5))) == 15


def test_bullet_oracle_values():
    ctx = scalar_ctx(F97, 1)
    assert value_of(bullet(scalar(ctx, 3, 2), scalar(ctx, 2, 3))) == 6
    assert value_of(bullet(scalar(ctx, 2, 5), scalar(ctx, 2, 7))) == 0


def test_delta_oracle_values():
    ctx = scalar_ctx(F97, 2)
    even = delta(ctx, scalar(ctx, 2, 7))
    assert even.degree == 3 and even.is_zero()
    odd = delta(ctx, scalar(ctx, 3, 7))
    assert odd.degree == 4 and value_of(odd) == 14


def test_tribraces_oracle_value():
    ctx = scalar_ctx(F97, 1)
    h = scalar(ctx, 2, 2)
    assert value_of(tribraces(h, scalar(ctx, 1, 3), scalar(ctx, 1, 5))) == 30


def test_tetrabraces_oracle_value():
    # over the integers the single lattice point gives exactly 2*3*5*7
    ctx = scalar_ctx(ZZ, 1)
    h = scalar(ctx, 3, 2)
    f, g, b = scalar(ctx, 1, 3), scalar(ctx, 1, 5), scalar(ctx, 1, 7)
    assert value_of(tetrabraces(h, f, g, b)) == 210
    ctx97 = scalar_ctx(F97, 1)
    h97 = scalar(ctx97, 3, 2)
    args = [scalar(ctx97, 1, v) for v in (3, 5, 7)]
    assert value_of(tetrabraces(h97, *args)) == 210 % 97


def test_tribraces_empty_region_is_zero():
    ctx, rng = random_ctx()
    h = ctx.backend.random(1, rng)
    f = ctx.backend.random(2, rng)
    out = tribraces(h, f, f)
    assert out.is_zero() and out.degree == 1 + 2 + 2 - 2


def test_tetrabraces_empty_region_is_zero():
    ctx, rng = random_ctx()
    h = ctx.backend.random(2, rng)
    f = ctx.backend.random(1, rng)
    out = tetrabraces(h, f, f, f)
    assert out.is_zero() and out.degree == 2


def _brace_inputs(kind, degrees, mutations, seed):
    """Elements of the given degrees on one backend (h, f, g, b, ..., or
    mu for a fifth degree); free inputs are sums of two generators so that
    terms can merge and cancel."""
    rng = np.random.default_rng(seed)
    if kind == "endo":
        backend = EndoBackend(F97, 2, mutations)
        return backend, [backend.random(d, rng) for d in degrees]
    names = "hfgbmc"[:len(degrees)]
    sig = Signature(tuple((n + t, d) for n, d in zip(names, degrees)
                          for t in ("", "2")))
    backend = FreeBackend(F97, sig, mutations)
    return backend, [int(rng.integers(1, 97)) * backend.generator(n)
                     - int(rng.integers(1, 97)) * backend.generator(n + "2")
                     for n in names]


@pytest.mark.parametrize("kind", ["endo", "free"])
@pytest.mark.parametrize("mutations", [frozenset(),
                                       frozenset({"g-range-off-by-one"})],
                         ids=["clean", "g-range-off-by-one"])
@pytest.mark.parametrize("degrees", [
    (4, 2, 3, 1), (3, 1, 2, 2), (5, 2, 1, 2),  # h{f, g, b}
    (3, 2), (4, 2, 3), (3, 1, 2),  # arities 1 and 2
    (5, 1, 2, 1, 2), (3, 1, 1, 1, 1), (6, 2, 1, 1, 2, 1)])  # 4 (one empty), 5
def test_brace_sums_equal_a_naive_per_point_loop(kind, mutations, degrees):
    backend, (h, *fs) = _brace_inputs(kind, degrees, mutations, sum(degrees))
    points = ground_simplex(h.degree, degrees[1:])
    if mutations and len(fs) == 2:
        points = [(i, j) for i, j in points if j > i + fs[0].degree]
    want = backend.zero(h.degree + sum(f.degree - 1 for f in fs))
    for point in points:
        term = h
        for f, p in zip(fs, point):
            term = term.compose(f, p)
        want = want + term
    assert braces(h, *fs) == want
    named = {1: bullet, 2: tribraces, 3: tetrabraces}.get(len(fs))
    if named is not None:
        assert named(h, *fs) == want


def test_region_sum_counts_repeated_points():
    ctx, rng = random_ctx(seed=22)
    h, f, g = (ctx.backend.random(d, rng) for d in (3, 2, 2))
    assert (region_sum(h, (f,), [(0,), (2,), (0,)])
            == 2 * h.compose(f, 0) + h.compose(f, 2))
    assert (region_sum(h, (f, g), [(0, 2), (1, 2), (0, 2), (0, 3)])
            == 2 * h.compose(f, 0).compose(g, 2) + h.compose(f, 1).compose(g, 2)
            + h.compose(f, 0).compose(g, 3))
    assert region_sum(h, (f, g), []) == ctx.backend.zero(5)


def test_brace_sums_compose_their_last_operand_once_per_slot(monkeypatch):
    ctx, rng = random_ctx(seed=23)
    h, f, g, b = (ctx.backend.random(d, rng) for d in (5, 2, 2, 2))
    want_tetra = tetrabraces(h, f, g, b)
    want_tri = tribraces(h, f, g)
    # every composition term, single or inside a compose_sum
    slots = []
    compose = GradedElement.compose
    fused = backends.compose_sum

    def counted(self, other, i):
        slots.append((other, i))
        return compose(self, other, i)

    def counted_sum(backend, degree, terms):
        def seen():
            for c, x, other, i in terms:
                slots.append((other, i))
                yield c, x, other, i
        return fused(backend, degree, seen())

    monkeypatch.setattr(GradedElement, "compose", counted)
    monkeypatch.setattr(backends, "compose_sum", counted_sum)
    points = ground_tetrahedron(5, 2, 2).points
    ks = sorted({k for _, _, k in points})
    assert len(points) > len(ks)
    assert tetrabraces(h, f, g, b) == want_tetra
    assert sorted(i for x, i in slots if x is b) == ks
    assert sorted(i for x, i in slots if x is g) == sorted(
        j for j, _ in {(j, k) for _, j, k in points})
    # f, the first operand, once per point: a one-link chain is a term
    assert sorted(i for x, i in slots if x is f) == sorted(i for i, _, _ in points)
    slots.clear()
    right = scope_regions(5, 2)[2].points
    js = sorted({j for _, j in right})
    assert len(right) > len(js)
    assert tribraces(h, f, g) == want_tri
    assert sorted(i for x, i in slots if x is g) == js
    assert sorted(i for x, i in slots if x is f) == sorted(i for i, _ in right)


@pytest.mark.parametrize("kind", ["endo", "free"])
@pytest.mark.parametrize("mutations", [frozenset(), frozenset({"cup-sign-flip"})],
                         ids=["clean", "cup-sign-flip"])
@pytest.mark.parametrize("degrees", [(4, 2, 1, 2), (3, 1, 2, 2)])
def test_streamed_derived_operations_equal_their_operator_expansions(
        kind, mutations, degrees):
    _, (h, f, g, b, mu) = _brace_inputs(kind, degrees + (2,), mutations,
                                        7 + sum(degrees))
    ctx = PreOperadContext(mu.backend, mu)
    sh, sf, sg, sb = (x.shifted_degree for x in (h, f, g, b))

    def d(x):
        return ksign(x.shifted_degree) * bullet(mu, x) - bullet(x, mu)

    cup_sign = -ksign(f.degree) if mutations else ksign(f.degree)
    assert delta(ctx, h) == d(h)
    assert delta(ctx, b) == d(b)
    assert bracket(h, f) == bullet(h, f) - ksign(sh * sf) * bullet(f, h)
    assert bracket(g, b) == bullet(g, b) - ksign(sg * sb) * bullet(b, g)
    assert cup(ctx, f, g) == cup_sign * mu.compose(f, 0).compose(g, f.degree)
    assert dev_braces(ctx, f, g) == (d(bullet(f, g))
                                     - bullet(f, d(g))
                                     - ksign(sg) * bullet(d(f), g))
    assert dev_tribraces(ctx, h, f, g) == (
        d(tribraces(h, f, g))
        - tribraces(h, f, d(g))
        - ksign(sg) * tribraces(h, d(f), g)
        - ksign(sg + sf) * tribraces(d(h), f, g))
    assert dev_tetrabraces(ctx, h, f, g, b) == (
        d(tetrabraces(h, f, g, b))
        - tetrabraces(h, f, g, d(b))
        - ksign(sb) * tetrabraces(h, f, d(g), b)
        - ksign(sb + sg) * tetrabraces(h, d(f), g, b)
        - ksign(sb + sg + sf) * tetrabraces(d(h), f, g, b))


def _old_bullet(f, g):
    return signed_sum(f.backend, f.degree + g.degree - 1,
                      [(1, f.compose(g, i)) for i in range(f.degree)])


def _old_braces(h, *fs):
    """h{f_1..f_n} summed point by point, each point's chain composed in
    full."""
    want = h.backend.zero(h.degree + sum(f.degree - 1 for f in fs))
    for point in ground_simplex(h.degree, [f.degree for f in fs]):
        term = h
        for f, p in zip(fs, point):
            term = term.compose(f, p)
        want = want + term
    return want


def _old_delta(ctx, f):
    return (ksign(f.shifted_degree) * _old_bullet(ctx.mu, f)
            - _old_bullet(f, ctx.mu))


# (kind, ring, dim): endo tables at dims 2 and 3, and tree sums over F_97
# and over Z, where their coefficients pass 2^64
TERM_CASES = [("endo", F97, 2), ("endo", F97, 3), ("free", F97, None),
              ("free", ZZ, None)]
TERM_IDS = ["endo-d2", "endo-d3", "free-F97", "free-ZZ"]


def _term_inputs(kind, ring, dim):
    """A context and h, f, g, b of degrees 3, 2, 1, 2 on one backend."""
    rng = np.random.default_rng(41)
    degrees = {"h": 3, "f": 2, "g": 1, "b": 2, "mu": 2}
    if kind == "endo":
        backend = EndoBackend(ring, dim)
        h, f, g, b, mu = (backend.random(d, rng) for d in degrees.values())
    else:
        backend = FreeBackend(ring, Signature(tuple(
            (n + t, d) for n, d in degrees.items() for t in ("", "2"))))
        big = 2**70 if ring.modulus is None else 1
        h, f, g, b, mu = (
            big * int(rng.integers(1, 97)) * backend.generator(n)
            - int(rng.integers(1, 97)) * backend.generator(n + "2")
            for n in degrees)
    return PreOperadContext(backend, mu), h, f, g, b


@pytest.mark.parametrize("case", TERM_CASES, ids=TERM_IDS)
def test_each_operations_terms_sum_to_it_built_the_old_way(case):
    ctx, h, f, g, b = _term_inputs(*case)
    operations = [
        (lambda c: _cup_regions(ctx, c, f, g), cup(ctx, f, g),
         ksign(f.degree) * ctx.mu.compose(f, 0).compose(g, f.degree)),
        (lambda c: _bullet_regions(c, f, g), bullet(f, g), _old_bullet(f, g)),
        (lambda c: _bracket_regions(c, f, b), bracket(f, b),
         _old_bullet(f, b)
         - ksign(f.shifted_degree * b.shifted_degree) * _old_bullet(b, f)),
        (lambda c: _delta_regions(ctx, c, h), delta(ctx, h), _old_delta(ctx, h)),
        (lambda c: _brace_regions(c, h, (g,)), braces(h, g), _old_braces(h, g)),
        (lambda c: _brace_regions(c, h, (f, g)), tribraces(h, f, g),
         _old_braces(h, f, g)),
        (lambda c: _brace_regions(c, h, (f, g, b)), tetrabraces(h, f, g, b),
         _old_braces(h, f, g, b))]
    for regions, value, old in operations:
        assert value == old and not old.is_zero()
        for c in (1, -3, 2**65):
            assert joint_sum(ctx.backend, old.degree, regions(c)) == c * old
    # one joint sum of every operation's regions, over the degree 2 inputs,
    # is the sum of the operations
    x = ctx.mu
    assert joint_sum(ctx.backend, 3, [
        *_cup_regions(ctx, 2, g, x), *_bullet_regions(-1, x, f),
        *_bracket_regions(5, x, f), *_delta_regions(ctx, 1, f),
        *_brace_regions(-2, x, (g, f)), *_brace_regions(7, f, (x,))]) == (
            2 * cup(ctx, g, x) - bullet(x, f) + 5 * bracket(x, f)
            + delta(ctx, f) - 2 * tribraces(x, g, f) + 7 * bullet(f, x))


def _old_dev_braces(ctx, h, *fs):
    """dev_braces as a signed sum of its n + 2 operations, each built as an
    element of its own."""
    def terms():
        yield 1, delta(ctx, braces(h, *fs))
        sign = -1
        for t, f in reversed(tuple(enumerate(fs))):
            yield sign, braces(h, *fs[:t], delta(ctx, f), *fs[t + 1:])
            sign *= ksign(f.shifted_degree)
        yield sign, braces(delta(ctx, h), *fs)

    return signed_sum(h.backend, h.degree + sum(f.degree - 1 for f in fs) + 1,
                      terms())


@pytest.mark.parametrize("kind", ["endo", "free"])
@pytest.mark.parametrize("mutations", [
    frozenset(), frozenset({"cup-sign-flip"}), frozenset({"g-range-off-by-one"})],
    ids=["clean", "cup-sign-flip", "g-range-off-by-one"])
@pytest.mark.parametrize("degrees", [(3, 2, 1, 2), (4, 1, 2, 2)])
def test_dev_braces_is_the_signed_sum_of_its_operations(kind, mutations,
                                                        degrees):
    _, (h, f, g, b, mu) = _brace_inputs(kind, degrees + (2,), mutations,
                                        11 + sum(degrees))
    ctx = PreOperadContext(mu.backend, mu)
    for fs in ((f,), (f, g), (f, g, b)):
        want = _old_dev_braces(ctx, h, *fs)
        assert dev_braces(ctx, h, *fs) == want and not want.is_zero()


def test_fused_sums_leave_every_table_read_only():
    ctx, rng = random_ctx(seed=21)
    h, f, g, b = (ctx.backend.random(d, rng) for d in (4, 2, 2, 1))
    inputs = [x.payload.table.copy() for x in (h, f, g, b, ctx.mu)]
    outputs = [bullet(h, f), tetrabraces(h, f, g, b),
               aux_gamma(ctx, "gamma", h, f, g, b, 1, 3, 5),
               aux_gamma(ctx, "gamma3", h, f, g, b, 1, 4, 6)]
    for x in outputs + [h, f, g, b, ctx.mu]:
        assert not x.payload.table.flags.writeable
    for x, before in zip((h, f, g, b, ctx.mu), inputs):
        assert np.array_equal(x.payload.table, before)
    assert not any(x.is_zero() for x in outputs)


# structural identities on random elements


def test_cup_characterizations():
    ctx, rng = random_ctx(seed=5)
    unit = ctx.unit
    for _ in range(10):
        f = ctx.backend.random(int(rng.integers(1, 4)), rng)
        g = ctx.backend.random(int(rng.integers(1, 4)), rng)
        assert ctx.mu.compose(f, 0) == ksign(f.degree) * cup(ctx, f, unit)
        assert ctx.mu.compose(f, 1) == -1 * cup(ctx, unit, f)
        rhs = (-1 * ksign((f.degree - 1) * g.degree)
               * ctx.mu.compose(g, 1).compose(f, 0))
        assert cup(ctx, f, g) == rhs


def test_cup_compose_distribution():
    ctx, rng = random_ctx(seed=6)
    for _ in range(6):
        f = ctx.backend.random(int(rng.integers(1, 3)), rng)
        g = ctx.backend.random(int(rng.integers(1, 3)), rng)
        h = ctx.backend.random(int(rng.integers(1, 3)), rng)
        for j in range(f.degree + g.degree - 1):
            lhs = cup(ctx, f, g).compose(h, j)
            if j <= f.degree - 1:
                rhs = (ksign(g.degree * (h.degree - 1))
                       * cup(ctx, f.compose(h, j), g))
            else:
                rhs = cup(ctx, f, g.compose(h, j - f.degree))
            assert lhs == rhs


def test_delta_expansion():
    ctx, rng = random_ctx(seed=7)
    for _ in range(10):
        f = ctx.backend.random(int(rng.integers(1, 5)), rng)
        lhs = -1 * delta(ctx, f)
        rhs = (cup(ctx, f, ctx.unit) + bullet(f, ctx.mu)
               + ksign(f.degree - 1) * cup(ctx, ctx.unit, f))
        assert lhs == rhs


def test_bracket_antisymmetry_and_delta_link():
    ctx, rng = random_ctx(seed=8)
    for _ in range(10):
        f = ctx.backend.random(int(rng.integers(1, 4)), rng)
        g = ctx.backend.random(int(rng.integers(1, 4)), rng)
        sf, sg = f.degree - 1, g.degree - 1
        assert (bracket(f, g) + ksign(sf * sg) * bracket(g, f)).is_zero()
        assert bracket(f, ctx.mu) == -1 * delta(ctx, f)


def test_getzler_and_symmetry():
    ctx, rng = random_ctx(seed=9)
    for _ in range(8):
        h = ctx.backend.random(int(rng.integers(1, 4)), rng)
        f = ctx.backend.random(int(rng.integers(1, 3)), rng)
        g = ctx.backend.random(int(rng.integers(1, 3)), rng)
        sf, sg = f.degree - 1, g.degree - 1
        assoc = associator(h, f, g)
        assert assoc == tribraces(h, f, g) + ksign(sf * sg) * tribraces(h, g, f)
        assert assoc == ksign(sf * sg) * associator(h, g, f)


def test_bullet_deviation_closed_form():
    ctx, rng = random_ctx(seed=10)
    for _ in range(10):
        f = ctx.backend.random(int(rng.integers(1, 4)), rng)
        g = ctx.backend.random(int(rng.integers(1, 4)), rng)
        lhs = ksign(g.degree - 1) * dev_braces(ctx, f, g)
        rhs = (cup(ctx, f, g)
               - ksign(f.degree * g.degree) * cup(ctx, g, f))
        assert lhs == rhs


def test_tribrace_deviation_closed_form():
    ctx, rng = random_ctx(seed=11)
    for _ in range(6):
        h = ctx.backend.random(int(rng.integers(2, 4)), rng)
        f = ctx.backend.random(int(rng.integers(1, 3)), rng)
        g = ctx.backend.random(int(rng.integers(1, 3)), rng)
        sh, sg = h.degree - 1, g.degree - 1
        lhs = ksign(sg) * dev_tribraces(ctx, h, f, g)
        rhs = (cup(ctx, bullet(h, f), g)
               + ksign(sh * f.degree) * cup(ctx, f, bullet(h, g))
               - bullet(h, cup(ctx, f, g)))
        assert lhs == rhs


def test_main_deviation_theorem():
    ctx, rng = random_ctx(seed=12)
    for trial in range(6):
        h = ctx.backend.random(3 if trial % 2 == 0 else int(rng.integers(1, 5)), rng)
        f = ctx.backend.random(int(rng.integers(1, 3)), rng)
        g = ctx.backend.random(int(rng.integers(1, 3)), rng)
        b = ctx.backend.random(int(rng.integers(1, 3)), rng)
        sh, sg, sb = h.degree - 1, g.degree - 1, b.degree - 1
        lhs = ksign(sb) * dev_tetrabraces(ctx, h, f, g, b)
        rhs = (cup(ctx, tribraces(h, f, g), b)
               - tribraces(h, f, cup(ctx, g, b))
               - ksign(sg) * tribraces(h, cup(ctx, f, g), b)
               + ksign(sh * f.degree + sg) * cup(ctx, f, tribraces(h, g, b)))
        assert lhs == rhs


# degree bookkeeping and input validation


def test_result_degrees():
    ctx, rng = random_ctx(seed=13)
    h = ctx.backend.random(3, rng)
    f = ctx.backend.random(2, rng)
    g = ctx.backend.random(2, rng)
    b = ctx.backend.random(1, rng)
    assert cup(ctx, f, g).degree == 4
    assert bullet(f, g).degree == 3
    assert bracket(f, g).degree == 3
    assert delta(ctx, f).degree == 3
    assert associator(h, f, g).degree == 5
    assert tribraces(h, f, g).degree == 5
    assert tetrabraces(h, f, g, b).degree == 5
    assert dev_braces(ctx, f, g).degree == 4
    assert dev_tribraces(ctx, h, f, g).degree == 6
    assert dev_tetrabraces(ctx, h, f, g, b).degree == 6


def test_degree_zero_inputs_rejected():
    ctx, rng = random_ctx(seed=14)
    zero_deg = GradedElement(ctx.backend, make_map(F97, 2, 0, [1, 2]))
    f = ctx.backend.random(2, rng)
    with pytest.raises(InvalidDegree):
        bullet(zero_deg, f)
    with pytest.raises(InvalidDegree):
        bracket(zero_deg, f)
    with pytest.raises(InvalidDegree):
        delta(ctx, zero_deg)
    with pytest.raises(InvalidDegree):
        tribraces(zero_deg, f, f)
    with pytest.raises(InvalidDegree):
        tetrabraces(f, zero_deg, f, f)


def test_context_validation():
    backend = EndoBackend(F97, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(DegreeMismatch):
        PreOperadContext(backend, backend.random(3, rng))
    other = EndoBackend(F97, 3)
    with pytest.raises(BackendMismatch):
        PreOperadContext(backend, other.random(2, rng))


def test_cup_mutation_hook_flips_sign():
    clean = EndoBackend(F97, 2)
    bent = EndoBackend(F97, 2, frozenset({"cup-sign-flip"}))
    rng = np.random.default_rng(3)
    entries = np.asarray(clean.random(2, rng).payload.table).reshape(-1)
    mu_c = GradedElement(clean, make_map(F97, 2, 2, entries))
    mu_b = GradedElement(bent, make_map(F97, 2, 2, entries))
    f_entries = np.asarray(clean.random(1, rng).payload.table).reshape(-1)
    g_entries = np.asarray(clean.random(1, rng).payload.table).reshape(-1)
    ctx_c = PreOperadContext(clean, mu_c)
    ctx_b = PreOperadContext(bent, mu_b)
    f_c = GradedElement(clean, make_map(F97, 2, 1, f_entries))
    g_c = GradedElement(clean, make_map(F97, 2, 1, g_entries))
    f_b = GradedElement(bent, make_map(F97, 2, 1, f_entries))
    g_b = GradedElement(bent, make_map(F97, 2, 1, g_entries))
    assert cup(ctx_b, f_b, g_b).payload == (-1 * cup(ctx_c, f_c, g_c)).payload


def test_scalar_multiplication_convention():
    ctx, rng = random_ctx(seed=15)
    f = ctx.backend.random(2, rng)
    assert 2 * f == f + f
    assert (0 * f).is_zero()
    assert -f == -1 * f
    with pytest.raises(TypeError):
        f * 2  # scalars go on the left


def test_delta_of_a_large_map_holds_little_beyond_its_result():
    # delta's ten composites of 4^10 entries are added into one buffer, the
    # float64 products block by block; building each as a table of its own
    # and adding it peaked at 2.19 result tables
    backend = EndoBackend(F97, 4)
    rng = np.random.default_rng(8)
    f = backend.random(8, rng)
    ctx = PreOperadContext(backend, backend.random(2, rng))
    table_bytes = 4**10 * f.payload.table.itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = delta(ctx, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.payload.table.nbytes == table_bytes
    assert peak - base < 1.4 * table_bytes
