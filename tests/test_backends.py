"""Element +, -, unary - and scalar * are streamed signed sums: each is one
call into its backend's sum method, combine_payload, and equals the list
helpers linear_combine / free_linear_combine of the same terms."""

import numpy as np
import pytest

from preoperad.backends import EndoBackend, FreeBackend, GradedElement, signed_sum
from preoperad.endo import linear_combine
from preoperad.errors import BackendMismatch, DegreeMismatch
from preoperad.free import Signature, free_linear_combine
from preoperad.rings import CoefficientRing

F97 = CoefficientRing.prime_field(97)
KINDS = ["endo", "free"]


def _pair(kind, stacked, seed=31):
    """A backend and two of its degree-2 elements, x and y: single, or each
    stacked over three rows. Tree sums hold two generators so that their
    terms can cancel."""
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
    return backend, *(GradedElement(backend, backend.stack_payloads(
        [draw().payload for _ in range(3)])) for _ in range(2))


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("kind", KINDS)
def test_operators_equal_the_list_helpers(kind, stacked):
    backend, x, y = _pair(kind, stacked)
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
