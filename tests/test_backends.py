"""Element +, -, unary - and scalar * are streamed signed sums: each is one
call into its backend's sum method, combine_payload, and equals the list
helpers linear_combine / free_linear_combine of the same terms. Sums of
compositions are one compose_sum, equal to composing term by term and
summing, and a region sum adds no composite it has no other to add to. A
prefix walk hands out each point's chain of compositions, composes a prefix
once per run of points that share it, and keeps no other prefix alive."""

import weakref
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from preoperad.backends import (
    EndoBackend,
    FreeBackend,
    GradedElement,
    compose_sum,
    prefix_chains,
    region_sum,
    signed_sum,
)
from preoperad.endo import linear_combine
from preoperad.errors import BackendMismatch, DegreeMismatch, ShapeMismatch
from preoperad.free import Signature, free_linear_combine
from preoperad.rings import CoefficientRing
from stacking import stack_rows

F97 = CoefficientRing.prime_field(97)
KINDS = ["endo", "free"]


def _pair(kind, stacked, seed=31):
    """A backend and two of its degree-2 elements, x and y: single, or each
    a table stacked over three rows. Tree sums hold two generators so that
    their terms can cancel."""
    rng = np.random.default_rng(seed)
    if kind == "endo":
        backend = EndoBackend(F97, 2)

        def draw():
            return backend.random(2, rng)
    else:
        backend = FreeBackend(F97, Signature((("f", 2), ("g", 2))))

        def draw():
            return (int(rng.integers(1, 97)) * backend.generator("f")
                    - int(rng.integers(1, 97)) * backend.generator("g"))
    if not stacked:
        return backend, draw(), draw()
    return backend, *(GradedElement(backend, stack_rows(
        [draw().payload for _ in range(3)])) for _ in range(2))


# only tables stack; a free batch is one check on bare generators
PAIRS = pytest.mark.parametrize("kind, stacked", [
    ("endo", False), ("endo", True), ("free", False)],
    ids=["endo-single", "endo-stacked", "free-single"])


@PAIRS
def test_operators_equal_the_list_helpers(kind, stacked):
    backend, x, y = _pair(kind, stacked)
    if kind == "endo":
        assert (x.payload.batch is not None) == stacked
    combine = linear_combine if kind == "endo" else free_linear_combine
    for got, coeffs, terms in ((x + y, [1, 1], [x, y]),
                               (x - y, [1, -1], [x, y]),
                               (-x, [-1], [x]),
                               (5 * x, [5], [x]),
                               (0 * x, [0], [x])):
        assert got.backend is backend
        assert got.payload == combine(coeffs, [t.payload for t in terms])
    assert (0 * x).is_zero() and (x - x).is_zero()
    assert not np.any(((x + y) - (y + x)).differs())


@PAIRS
def test_a_single_element_is_every_row_and_a_stacked_one_has_its_rows(
        kind, stacked):
    # a single table or tree sum is returned as it is, so a failing batch
    # wraps no new element per row
    backend, x, y = _pair(kind, stacked)
    for r in range(3):
        got = x.row(r)
        if not stacked:
            assert got is x
            continue
        assert got is not x and got.backend is backend
        assert got.payload.batch is None
        assert got.payload == x.payload.row(r)
        assert not (x - y).row(r).differs(got - y.row(r))


@pytest.mark.parametrize("kind", KINDS)
def test_operators_reject_other_backends_and_degrees(kind):
    backend, x, _ = _pair(kind, False)
    if kind == "endo":
        other = EndoBackend(F97, 3).random(2, np.random.default_rng(0))
    else:
        other = FreeBackend(F97, Signature((("h", 2),))).generator("h")
    wrong_degree = backend.zero(3)
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(BackendMismatch):
            op(x, other)
        with pytest.raises(BackendMismatch):
            op(other, x)
        with pytest.raises(DegreeMismatch):
            op(x, wrong_degree)
    with pytest.raises(BackendMismatch):
        x.compose(other, 0)
    with pytest.raises(BackendMismatch):
        signed_sum(backend, 2, ((1, x), (1, other)))


@pytest.mark.parametrize("kind", KINDS)
def test_every_sum_calls_combine_payload_once(kind, monkeypatch):
    backend, x, y = _pair(kind, False)
    cls = type(backend)
    combine = cls.combine_payload
    calls = []

    def counted(self, degree, terms):
        calls.append(degree)
        return combine(self, degree, terms)

    monkeypatch.setattr(cls, "combine_payload", counted)
    for build in (lambda: x + y, lambda: x - y, lambda: -x, lambda: 3 * x,
                  lambda: 0 * x,
                  lambda: signed_sum(backend, 2, ((1, x), (2, y), (-1, x))),
                  lambda: signed_sum(backend, 2, ())):
        calls.clear()
        build()
        assert calls == [2]


@pytest.mark.parametrize("kind", KINDS)
def test_a_region_sum_of_one_point_per_last_slot_sums_no_composite(
        kind, monkeypatch):
    # each last slot k holds one point, so its inner sum is the composite
    # base comp_i x itself: one compose_sum over k and no signed sum
    backend, x, y = _pair(kind, False)
    base = 2 * y - x
    points = [(0, 2), (1, 0), (0, 1)]
    want = signed_sum(backend, 4, [(1, base.compose(x, i).compose(y, k))
                                   for i, k in points])
    cls = type(backend)
    combine = cls.combine_payload
    calls = []

    def counted(self, degree, terms):
        calls.append(degree)
        return combine(self, degree, terms)

    monkeypatch.setattr(cls, "combine_payload", counted)
    got = region_sum(base, [x, y], points)
    assert calls == []
    assert got.degree == 4 and not got.differs(want)


@PAIRS
def test_compose_sums_equal_composing_then_summing(kind, stacked):
    backend, x, y = _pair(kind, stacked)
    _, u, _ = _pair(kind, False, seed=32)
    terms = [(1, x, y, 0), (-3, x, u, 1), (0, u, y, 1), (2, u, x, 0),
             (1, y, y, 1)]
    got = compose_sum(backend, 3, terms)
    want = signed_sum(backend, 3, [(c, f.compose(g, i)) for c, f, g, i in terms])
    assert got.backend is backend and got.degree == 3
    assert not np.any(got.differs(want))
    assert compose_sum(backend, 3, ()).is_zero()


@pytest.mark.parametrize("kind", KINDS)
def test_compose_sums_reject_other_backends(kind):
    backend, x, _ = _pair(kind, False)
    if kind == "endo":
        other = EndoBackend(F97, 3).random(2, np.random.default_rng(0))
    else:
        other = FreeBackend(F97, Signature((("h", 2),))).generator("h")
    for c in (1, 0):
        for f, g in ((x, other), (other, x), (other, other)):
            with pytest.raises(BackendMismatch,
                               match="elements from different backends"):
                compose_sum(backend, 3, [(1, x, x, 0), (c, f, g, 0)])


@pytest.mark.parametrize("kind", KINDS)
def test_a_coefficient_that_is_not_an_integer_is_refused(kind):
    backend, x, y = _pair(kind, False)
    for build in (lambda: 2.5 * x, lambda: Fraction(1, 2) * x,
                  lambda: True * x,
                  lambda: signed_sum(backend, 2, [(1, x), (Fraction(4, 2), y)]),
                  lambda: compose_sum(backend, 3, [(0.5, x, x, 0)]),
                  lambda: compose_sum(backend, 3, [(1, x, y, 1), (False, x, x, 0)])):
        with pytest.raises(ShapeMismatch, match="a coefficient must be an integer"):
            build()
    # a numpy integer is the Python int it equals, also past int64 products
    for c in (3, -2, 96, 2**62 + 1):
        got = signed_sum(backend, 2, [(np.int64(c), x), (1, y)])
        assert not got.differs(signed_sum(backend, 2, [(c, x), (1, y)]))
        for i in (0, 1):
            got = compose_sum(backend, 3, [(np.int64(c), x, y, i), (1, y, x, i)])
            assert not got.differs(compose_sum(
                backend, 3, [(c, x, y, i), (1, y, x, i)]))


def _walk_inputs(kind):
    """A degree-2 base and three operands, x, y, x, for chains whose points
    (i, j, k) range over 2 x 3 x 4 slots."""
    backend, x, y = _pair(kind, False)
    return backend, 2 * y - x, (x, y, x)


_LEX = list(product(range(2), range(3), range(4)))
_ORDERS = {
    "lexicographic": _LEX,
    "shuffled": [_LEX[n] for n in np.random.default_rng(5).permutation(24)],
    "repeated": [(1, 2, 3), (1, 2, 3), (1, 0, 3), (0, 0, 0), (1, 0, 3),
                 (1, 0, 2), (1, 0, 2)],
}


@pytest.mark.parametrize("order", sorted(_ORDERS))
@pytest.mark.parametrize("kind", KINDS)
def test_prefix_chains_equal_plain_composition_chains(kind, order):
    _, base, operands = _walk_inputs(kind)
    points = _ORDERS[order]
    got = [list(chain) for chain in prefix_chains(base, operands, points)]
    assert len(got) == len(points)
    for point, chain in zip(points, got):
        want, x = [], base
        for y, slot in zip(operands, point):
            x = x.compose(y, slot)
            want.append(x)
        assert len(chain) == 3
        assert not any(a.differs(b) for a, b in zip(chain, want))
    assert list(prefix_chains(base, operands, [])) == []


@pytest.mark.parametrize("order", sorted(_ORDERS))
@pytest.mark.parametrize("kind", KINDS)
def test_prefix_chains_compose_a_prefix_once_per_run_of_equal_slots(
        kind, order, monkeypatch):
    backend, base, operands = _walk_inputs(kind)
    points = _ORDERS[order]
    cls = type(backend)
    compose = cls.compose_payload
    levels = []

    def counted(self, f, g, i):
        levels.append(f.degree - base.degree)  # 0 for base comp x
        return compose(self, f, g, i)

    monkeypatch.setattr(cls, "compose_payload", counted)
    for _ in prefix_chains(base, operands, points):
        pass
    for level in range(3):
        runs = sum(1 for n, point in enumerate(points)
                   if n == 0 or points[n - 1][:level + 1] != point[:level + 1])
        assert levels.count(level) == runs


@pytest.mark.parametrize("order", sorted(_ORDERS))
@pytest.mark.parametrize("kind", KINDS)
def test_prefix_chains_keep_no_prefix_the_current_point_does_not_share(
        kind, order):
    _, base, operands = _walk_inputs(kind)
    points = _ORDERS[order]
    seen = []  # (slots, weak reference) of every prefix handed out so far
    handed = []  # every list handed out, held as a caller's loop name is
    for point, chain in zip(points, prefix_chains(base, operands, points)):
        for slots, ref in seen:
            if point[:len(slots)] != slots:
                assert ref() is None
        seen.extend((point[:level + 1], weakref.ref(x))
                    for level, x in enumerate(chain))
        handed.append(chain)
    assert len(seen) == 3 * len(points)
