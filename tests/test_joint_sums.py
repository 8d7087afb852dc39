"""A joint sum of regions, backends.joint_sum, equals the same regions
composed one composite at a time and summed, on both backends: for the
quadruple brace closed forms, the brace deviations, the right sides of the
deviation laws, empty and repeated point sets and stacked tables. It
composes each shared (last operand, slot) once per sum, and it holds one
inner sum at a time beside its buffer."""

import tracemalloc

import numpy as np
import pytest

from preoperad import calculus, endo, laws, script
from preoperad.backends import (
    EndoBackend,
    FreeBackend,
    GradedElement,
    joint_sum,
    region_sum,
    signed_sum,
)
from preoperad.calculus import PreOperadContext, dev_braces
from preoperad.endo import ksign
from preoperad.free import Signature
from preoperad.rings import CoefficientRing
from stacking import stack_rows

F97 = CoefficientRing.prime_field(97)
KINDS = ["endo", "free"]

# (deg h, deg f, deg g, deg b) of the quadruple brace closed forms
CLOSED_FORM_DEGREES = [(5, 2, 2, 2), (4, 3, 2, 2), (4, 2, 3, 2), (4, 2, 2, 3)]


def _term_by_term(backend, degree, regions):
    """The joint sum of regions built one composite at a time: each point's
    chain composed with GradedElement.compose, and all of them summed."""
    terms = []
    for c, base, operands, points in regions:
        for point in points:
            x = base
            for y, slot in zip(operands, point):
                x = x.compose(y, slot)
            terms.append((c, x))
    return signed_sum(backend, degree, terms)


def _closed_form_items(degrees):
    """The items (coefficient, call) of the main theorem closed form minus
    (-1)^|b| dev_tetrabraces, with delta and tetra written out: their sum
    is zero for any h, f, g, b and mu of the given degrees."""
    sh, sf, sg, sb = (d - 1 for d in degrees)
    rhs = [(1, "cup(tri(h, f, g), b)"),
           (-1, "tri(h, f, cup(g, b))"),
           (-ksign(sg), "tri(h, cup(f, g), b)"),
           (ksign(sh * degrees[1] + sg), "cup(f, tri(h, g, b))")]
    dev = [(1, "delta(tetra(h, f, g, b))"),
           (-1, "tetra(h, f, g, delta(b))"),
           (-ksign(sb), "tetra(h, f, delta(g), b)"),
           (-ksign(sb + sg), "tetra(h, delta(f), g, b)"),
           (-ksign(sb + sg + sf), "tetra(delta(h), f, g, b)")]
    return rhs + [(-ksign(sb) * c, call) for c, call in dev]


def _closed_form(degrees, doubled=None):
    """The closed form as a script, the item at index doubled (if any)
    counted twice."""
    decls = "".join(f"let {n}: deg {d};\n" for n, d in zip("hfgb", degrees))
    (c, call), *rest = _closed_form_items(degrees)
    assert c == 1  # a script cannot open with a sign
    body = f"{2 if doubled == 0 else 1} * {call}" + "".join(
        f" {'+' if c > 0 else '-'} {2 if t == doubled else 1} * {call}"
        for t, (c, call) in enumerate(rest, 1))
    return decls + body + "\n"


def _closed_form_backend(kind, degrees, seed):
    """A backend and bindings for h, f, g, b and mu: random dim-2 tables,
    or the generators of the same names (no bindings)."""
    if kind == "endo":
        backend = EndoBackend(F97, 2)
        rng = np.random.default_rng(seed)
        return backend, {n: backend.random(d, rng)
                         for n, d in zip(("h", "f", "g", "b", "mu"), (*degrees, 2))}
    return FreeBackend(F97, Signature(tuple(
        zip(("h", "f", "g", "b", "mu"), (*degrees, 2))))), None


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("degrees", CLOSED_FORM_DEGREES,
                         ids=["-".join(map(str, d)) for d in CLOSED_FORM_DEGREES])
def test_closed_forms_equal_their_composites_summed_one_at_a_time(
        kind, degrees, monkeypatch):
    backend, bindings = _closed_form_backend(kind, degrees, sum(degrees))
    assert script.eval_script(_closed_form(degrees), backend, bindings).is_zero()
    for doubled in range(len(_closed_form_items(degrees))):
        text = _closed_form(degrees, doubled)
        got = script.eval_script(text, backend, bindings)
        with monkeypatch.context() as m:
            m.setattr(script, "joint_sum", _term_by_term)
            want = script.eval_script(text, backend, bindings)
        assert got.degree == want.degree == sum(degrees) - 2
        assert not got.is_zero() and not got.differs(want)


def _inputs(kind, degrees, seed, stacked=False):
    """A context and elements of the given degrees on one backend: random
    tables (stacked over three rows when stacked), or sums of two
    generators each, so that terms can merge and cancel."""
    rng = np.random.default_rng(seed)
    if kind == "endo":
        backend = EndoBackend(F97, 2)

        def draw(d):
            if not stacked:
                return backend.random(d, rng)
            return GradedElement(backend, stack_rows(
                [backend.random(d, rng).payload for _ in range(3)]))

        mu, *xs = (draw(d) for d in (2, *degrees))
        return PreOperadContext(backend, mu), xs
    names = "hfgbm"[:len(degrees)]
    sig = Signature((("mu", 2), *((n + t, d) for n, d in zip(names, degrees)
                                  for t in ("", "2"))))
    backend = FreeBackend(F97, sig)
    xs = [int(rng.integers(1, 97)) * backend.generator(n)
          - int(rng.integers(1, 97)) * backend.generator(n + "2")
          for n in names]
    return PreOperadContext(backend, backend.generator("mu")), xs


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("degrees", [(3, 2), (4, 2, 3), (3, 1, 2, 2),
                                     (4, 2, 2, 3)])
def test_brace_deviations_equal_their_composites_summed_one_at_a_time(
        kind, degrees, monkeypatch):
    ctx, (h, *fs) = _inputs(kind, degrees, 7 * sum(degrees))
    got = dev_braces(ctx, h, *fs)
    with monkeypatch.context() as m:
        m.setattr(calculus, "joint_sum", _term_by_term)
        want = dev_braces(ctx, h, *fs)
    assert not got.is_zero() and not got.differs(want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("law, inner, degrees", [
    ("L08", "braces", (3, 2, 2, 3)), ("L08", "braces", (4, 1, 2, 2)),
    ("L15", "braces", (3, 2, 3)), ("L16", "bracket", (3, 2, 3))])
def test_deviation_right_sides_equal_their_composites_summed_one_at_a_time(
        kind, law, inner, degrees, monkeypatch):
    ctx, inputs = _inputs(kind, degrees, 11 * sum(degrees))

    def sides():
        (_, _, lhs, rhs), = laws._deviation(law, inner)(ctx, *inputs)
        return lhs, rhs

    lhs, got = sides()
    with monkeypatch.context() as m:
        for module in (calculus, laws):
            m.setattr(module, "joint_sum", _term_by_term)
        _, want = sides()
    assert not got.is_zero() and not got.differs(want)
    assert not got.differs(lhs)


@pytest.mark.parametrize("kind", KINDS)
def test_empty_and_repeated_point_sets_count_each_point(kind):
    ctx, (h, f, g, k) = _inputs(kind, (3, 2, 2, 4), 5)
    mu = ctx.mu
    regions = [  # each of degree 5
        (1, h, (f, g), [(0, 2), (0, 2), (1, 2)]),  # a repeated point
        (-2, g, (h, g), [(1, 2), (0, 3)]),  # shares (g, 2) with the above
        (3, h, (f, g), []),  # no point
        (5, k, (f,), [(1,), (1,), (3,)]),
        (-1, k, (g,), [(2,)]),  # one operand: a term of the top level
        (2, mu, (h, f), [(0, 2)]),  # one point
    ]
    got = joint_sum(ctx.backend, 5, regions)
    assert not got.is_zero()
    assert not got.differs(_term_by_term(ctx.backend, 5, regions))
    # a sum of no region, or of regions with no point, is the zero
    for empty in ([], [(1, h, (f, g), [])], [(4, k, (f,), ())]):
        assert joint_sum(ctx.backend, 5, empty).is_zero()
    assert region_sum(h, (f, g), []).is_zero()


def test_stacked_rows_sum_as_each_row_does():
    ctx, (h, f, g, b) = _inputs("endo", (3, 2, 2, 2), 9, stacked=True)
    degree = 6
    regions = [(1, h, (f, g, b), [(0, 2, 4), (1, 2, 4), (0, 3, 4)]),
               (-1, h, (g, f, b), [(0, 2, 4), (2, 3, 4)]),
               (2, ctx.mu, (h, f, b), [(1, 3, 4)])]
    got = joint_sum(ctx.backend, degree, regions)
    assert got.payload.batch == 3
    assert not got.differs(_term_by_term(ctx.backend, degree, regions)).any()
    for r in range(3):
        row = [(c, base.row(r), tuple(x.row(r) for x in xs), points)
               for c, base, xs, points in regions]
        assert not got.row(r).differs(joint_sum(ctx.backend, degree, row))


def test_a_shared_last_operand_and_slot_is_composed_once_per_sum(monkeypatch):
    # each closed form composes its degree-9 results once per distinct
    # (last operand, slot) of the whole sum: 22, 19, 19 and 19 products,
    # against 33, 27, 27 and 27 when each item composes its own
    counts = []
    product = endo._product

    def counted(acc, c, f, g, plan):
        counts[-1] += f.degree + g.degree - 1 == 9
        return product(acc, c, f, g, plan)

    monkeypatch.setattr(endo, "_product", counted)
    for degrees in CLOSED_FORM_DEGREES:
        backend, bindings = _closed_form_backend("endo", degrees, 1)
        counts.append(0)
        assert script.eval_script(_closed_form(degrees), backend,
                                  bindings).is_zero()
    assert counts == [22, 19, 19, 19]


def _peak(build):
    """The peak traced memory while build runs, and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = build()
        return tracemalloc.get_traced_memory()[1] - base, value
    finally:
        tracemalloc.stop()


def test_a_joint_sum_holds_one_inner_sum_beside_its_buffer():
    # three dim-4 braces end in the same b: each of its slots takes one
    # inner sum of all three, built as compose_sum draws it and let go
    # before the next. One composition of the full size (its result and
    # the product's scratch) is the yardstick: the sum holds one inner sum
    # of a quarter of its size beyond it, and the smaller sums inside that.
    # Summing the three braces' own terms held about 5.6 inner sums beyond.
    backend = EndoBackend(F97, 4)
    rng = np.random.default_rng(4)
    h, h2, f, g, b = (backend.random(d, rng) for d in (4, 4, 2, 2, 2))
    regions = [(1, h, (f, g, b), calculus._brace_points(h, (f, g, b))),
               (-1, h2, (f, g, b), calculus._brace_points(h2, (f, g, b))),
               (2, h, (g, f, b), calculus._brace_points(h, (g, f, b)))]
    inner_bytes = 4**7 * h.payload.table.itemsize
    one, _ = _peak(lambda: h.compose(f, 0).compose(g, 1).compose(b, 2))
    peak, got = _peak(lambda: joint_sum(backend, 7, regions))
    assert got.payload.table.nbytes == 4 * inner_bytes and not got.is_zero()
    assert peak < one + inner_bytes
