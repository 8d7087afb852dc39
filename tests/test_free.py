import numpy as np
import pytest

from preoperad.backends import FreeBackend, GradedElement
from preoperad.calculus import bullet
from preoperad.endo import ksign, random_map, unit_map
from preoperad.errors import (
    BackendMismatch,
    DegreeMismatch,
    IndexOutOfScope,
    InvalidDegree,
    MissingAssignment,
    ShapeMismatch,
    UnknownGenerator,
)
from preoperad.free import (
    LEAF,
    FreeElement,
    Signature,
    _Rows,
    _tree_from_sexpr,
    element_from_payload,
    element_to_payload,
    evaluate_hom,
    free_compose_sum,
    free_linear_combine,
    free_partial_compose,
    free_signed_sum,
    generator_element,
    graft,
    stack_rows,
    tree_degree,
    tree_to_sexpr,
    unit_element,
    zero_element,
)
from preoperad.rings import CoefficientRing

F97 = CoefficientRing.prime_field(97)
F101 = CoefficientRing.prime_field(101)
SIG = Signature((("h", 3), ("f", 2), ("g", 1), ("b", 1)))


def gen(name):
    return generator_element(SIG, F97, name)


def tree(sexpr, sig=SIG):
    """A basis tree stated as its s-expression."""
    return _tree_from_sexpr(sexpr, sig)


def test_tree_degree_counts_leaves():
    assert tree_degree(tree(LEAF)) == 1
    assert tree_degree(tree("(f _ _)")) == 2
    assert tree_degree(tree("(h _ (f _ _) _)")) == 4


def test_graft_replaces_one_leaf():
    sub = tree("(g _)")
    assert graft(tree("(f _ _)"), 0, sub) == tree("(f (g _) _)")
    assert graft(tree("(f _ _)"), 1, sub) == tree("(f _ (g _))")


def test_sexpr_format():
    assert tree("(h _ (f _ _) _)") == ("(h", "_", "(f", "_", "_", ")", "_", ")")
    assert tree_to_sexpr(tree("(h _ (f _ _) _)")) == "(h _ (f _ _) _)"


def test_signature_validation():
    with pytest.raises(Exception):
        Signature((("f", 2), ("f", 1)))
    with pytest.raises(InvalidDegree):
        Signature((("f", 0),))
    with pytest.raises(Exception):
        Signature(((LEAF, 2),))
    assert SIG.degree_of("h") == 3
    assert SIG.has("f") and not SIG.has("zz")
    with pytest.raises(UnknownGenerator):
        SIG.degree_of("zz")


def test_generator_and_unit_elements():
    h = gen("h")
    assert h.degree == 3
    assert len(h.terms) == 1
    u = unit_element(SIG, F97)
    assert u.degree == 1
    assert u.terms[0][0] == tree(LEAF)
    z = zero_element(SIG, F97, 4)
    assert z.terms == () and z.degree == 4


def test_compose_single_graft_with_twist():
    # f comp_1 g carries (-1)^(1 * |g|) with |g| = 0, so no sign
    f, g = gen("f"), gen("g")
    out = free_partial_compose(f, g, 1)
    assert out.degree == 2
    assert out.terms == ((tree("(f _ (g _))"), 1),)
    # mu-style degree-2 inner: sign (-1)^(i * 1)
    h = gen("h")
    signed = free_partial_compose(h, f, 1)
    assert signed.terms[0][1] == F97.reduce(ksign(1 * (f.degree - 1)))


def test_cancellation_to_zero():
    f = gen("f")
    out = free_linear_combine([1, 96], [f, f])
    assert out.terms == ()
    assert out.degree == 2
    cancelled = free_linear_combine([1, -1], [f, f])
    assert cancelled == out


def test_canonicalize_idempotent():
    f, g = gen("f"), gen("g")
    x = free_linear_combine([3, 5], [free_partial_compose(f, g, 0),
                                     free_partial_compose(f, g, 1)])
    # re-normalizing a canonical sum, by summation or by a payload round
    # trip, leaves its terms untouched
    once = free_linear_combine([1], [x])
    assert once.terms == x.terms
    assert free_linear_combine([1], [once]).terms == once.terms
    assert element_from_payload(element_to_payload(x)).terms == x.terms


def test_terms_sorted_deterministically():
    f, g = gen("f"), gen("g")
    a = free_linear_combine([1, 1], [free_partial_compose(f, g, 0),
                                     free_partial_compose(f, g, 1)])
    b = free_linear_combine([1, 1], [free_partial_compose(f, g, 1),
                                     free_partial_compose(f, g, 0)])
    assert a == b
    keys = [tree_to_sexpr(t) for t, _ in a.terms]
    assert keys == sorted(keys)


def test_unit_laws_symbolic():
    u = unit_element(SIG, F97)
    for name in ("h", "f", "g"):
        x = gen(name)
        assert free_partial_compose(u, x, 0) == x
        for i in range(x.degree):
            assert free_partial_compose(x, u, i) == x


def test_compose_relations_symbolic():
    # left exchange on h with the two small generators
    h, g, b = gen("h"), gen("g"), gen("b")
    lhs = free_partial_compose(free_partial_compose(h, g, 1), b, 0)
    rhs = free_partial_compose(free_partial_compose(h, b, 0), g, 1)
    assert lhs == free_linear_combine([ksign(0 * 0)], [rhs])
    # nested case
    f = gen("f")
    lhs = free_partial_compose(free_partial_compose(h, f, 1), g, 2)
    rhs = free_partial_compose(h, free_partial_compose(f, g, 1), 1)
    assert lhs == rhs


def test_compose_index_bounds():
    f, g = gen("f"), gen("g")
    with pytest.raises(IndexOutOfScope):
        free_partial_compose(f, g, 2)


def test_bilinearity_of_compose():
    f, g, b = gen("f"), gen("g"), gen("b")
    two_g = free_linear_combine([2], [g])
    left = free_partial_compose(f, free_linear_combine([1, 1], [g, b]), 0)
    split = free_linear_combine(
        [1, 1], [free_partial_compose(f, g, 0), free_partial_compose(f, b, 0)])
    assert left == split
    assert free_partial_compose(f, two_g, 0) == free_linear_combine(
        [2], [free_partial_compose(f, g, 0)])


def test_payload_round_trip():
    f, g = gen("f"), gen("g")
    x = free_linear_combine([5, 92], [free_partial_compose(f, g, 0),
                                      free_partial_compose(f, g, 1)])
    assert element_from_payload(element_to_payload(x)) == x
    u = unit_element(SIG, F97)
    assert element_from_payload(element_to_payload(u)) == u


def test_evaluate_hom_unit_and_generators():
    rng = np.random.default_rng(4)
    assignment = {name: random_map(F97, 2, SIG.degree_of(name), rng)
                  for name, _ in SIG.generators}
    u = unit_element(SIG, F97)
    assert evaluate_hom(u, assignment, F97, 2) == unit_map(F97, 2)
    for name, _ in SIG.generators:
        got = evaluate_hom(gen(name), assignment, F97, 2)
        assert got == assignment[name]


def test_evaluate_hom_is_a_morphism():
    from preoperad.endo import partial_compose
    rng = np.random.default_rng(12)
    assignment = {name: random_map(F97, 2, SIG.degree_of(name), rng)
                  for name, _ in SIG.generators}
    for _ in range(50):
        names = list(SIG.generators)
        a = gen("h")
        conc = assignment["h"]
        for _ in range(int(rng.integers(1, 4))):
            pick = names[int(rng.integers(0, len(names)))][0]
            slot = int(rng.integers(0, a.degree))
            a = free_partial_compose(a, gen(pick), slot)
            conc = partial_compose(conc, assignment[pick], slot)
        assert evaluate_hom(a, assignment, F97, 2) == conc


def test_evaluate_hom_is_linear():
    rng = np.random.default_rng(13)
    assignment = {name: random_map(F97, 2, SIG.degree_of(name), rng)
                  for name, _ in SIG.generators}
    f, g = gen("f"), gen("g")
    x = free_partial_compose(f, g, 0)
    y = free_partial_compose(f, g, 1)
    combo = free_linear_combine([3, 7], [x, y])
    from preoperad.endo import linear_combine
    want = linear_combine([3, 7], [evaluate_hom(x, assignment, F97, 2),
                                   evaluate_hom(y, assignment, F97, 2)])
    assert evaluate_hom(combo, assignment, F97, 2) == want


def test_evaluate_hom_checks_assignment():
    rng = np.random.default_rng(5)
    wrong = {name: random_map(F97, 2, 1, rng) for name, _ in SIG.generators}
    with pytest.raises(DegreeMismatch):
        evaluate_hom(gen("h"), wrong, F97, 2)
    with pytest.raises(MissingAssignment):
        evaluate_hom(gen("h"), {}, F97, 2)


def test_terms_follow_sexpr_order_for_prefix_and_mixed_case_names():
    # "a" is a prefix of "ab", and "B" sorts before "_" and lowercase
    sig = Signature((("a", 2), ("ab", 2), ("B", 2)))
    a, ab, big_b = (generator_element(sig, F97, n) for n in ("a", "ab", "B"))
    parts = [free_partial_compose(x, y, i)
             for x in (a, ab) for y in (a, ab, big_b) for i in range(2)]
    total = free_linear_combine(list(range(1, len(parts) + 1)), parts)
    keys = [tree_to_sexpr(t) for t, _ in total.terms]
    assert keys == sorted(keys)
    assert element_to_payload(total)["terms"] == [
        ["(a (B _ _) _)", 5], ["(a (a _ _) _)", 1], ["(a (ab _ _) _)", 3],
        ["(a _ (B _ _))", 91], ["(a _ (a _ _))", 95], ["(a _ (ab _ _))", 93],
        ["(ab (B _ _) _)", 11], ["(ab (a _ _) _)", 7], ["(ab (ab _ _) _)", 9],
        ["(ab _ (B _ _))", 85], ["(ab _ (a _ _))", 89], ["(ab _ (ab _ _))", 87]]
    assert element_from_payload(element_to_payload(total)) == total


@pytest.mark.parametrize("text", ["", "(f _", "(f _ _", "(f _ _))", "(f _ _) _",
                                  "_ _", ")", "(f _)", "(f _ _ _)", "(f x _)"])
def test_malformed_tree_text_is_rejected(text):
    payload = element_to_payload(gen("f"))
    payload["terms"] = [[text, 1]]
    with pytest.raises(ShapeMismatch):
        element_from_payload(payload)


def test_unknown_generator_in_tree_text():
    payload = element_to_payload(gen("f"))
    payload["terms"] = [["(zz _ _)", 1]]
    with pytest.raises(UnknownGenerator):
        element_from_payload(payload)


@pytest.mark.parametrize("name", ["", "f g", "f(", "g)", "\tf"])
def test_signature_rejects_names_outside_one_sexpr_token(name):
    with pytest.raises(UnknownGenerator):
        Signature(((name, 2),))


def _words(degree):
    """A few distinct tree sums of one degree over SIG."""
    f, g, h, b = gen("f"), gen("g"), gen("h"), gen("b")
    if degree == 2:
        return [f, free_partial_compose(f, g, 0), free_partial_compose(f, b, 1),
                free_partial_compose(g, f, 0)]
    return [h, free_partial_compose(f, f, 0), free_partial_compose(f, f, 1),
            free_partial_compose(h, g, 2)]


def _stacked(degree, rows, rng):
    """rows random tree sums of degree, some trees absent from some rows,
    and the stacked sum of them."""
    words = _words(degree)
    singles = [free_linear_combine([int(c) * int(c > 40) for c in
                                    rng.integers(0, 97, len(words))], words)
               for _ in range(rows)]
    return singles, stack_rows(singles)


def test_stacked_tree_sums_compose_and_sum_row_by_row():
    rng = np.random.default_rng(21)
    backend = FreeBackend(F97, SIG)
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        xs, x = _stacked(m, 3, rng)
        ys, y = _stacked(n, 3, rng)
        one = _stacked(n, 1, rng)[1]
        assert x.batch == 3 and xs[0].batch is None and one.batch is None
        for r in range(3):
            assert x.row(r) == xs[r] and x.row(r).batch is None
        for i in range(m):
            got = free_partial_compose(x, y, i)
            assert got.batch == 3
            for r in range(3):
                assert got.row(r) == free_partial_compose(xs[r], ys[r], i)
            # a single tree sum serves every row, on either side
            assert (free_partial_compose(x, one, i).row(2)
                    == free_partial_compose(xs[2], one, i))
        for j in range(n):
            assert (free_partial_compose(one, x, j).row(0)
                    == free_partial_compose(one, xs[0], j))
        total = free_signed_sum(F97, SIG, m, [(2, xs[1]), (-1, x), (5, x)])
        for r in range(3):
            assert total.row(r) == free_linear_combine([2, 4], [xs[1], xs[r]])
        stacked = bullet(GradedElement(backend, x), GradedElement(backend, y))
        for r in range(3):
            assert stacked.row(r).payload == bullet(
                GradedElement(backend, xs[r]), GradedElement(backend, ys[r])).payload


def test_stacked_tree_sums_stay_exact_over_the_integers():
    zz = CoefficientRing.integers()
    big = [2**70, -3, 2**64 + 1]
    xs = [FreeElement(zz, SIG, 2, ((tree("(f _ _)"), c),)) for c in big]
    x = stack_rows(xs)
    square = free_partial_compose(x, x, 1)
    for r, c in enumerate(big):
        assert square.row(r).terms == ((tree("(f _ (f _ _))"), -c * c),)
        assert square.row(r) == free_partial_compose(xs[r], xs[r], 1)


def test_stacked_tree_sums_compare_row_by_row():
    rng = np.random.default_rng(22)
    xs, x = _stacked(2, 3, rng)
    zero = zero_element(SIG, F97, 2)
    y = stack_rows([xs[0], xs[1], zero])
    assert x.differs(y).tolist() == [False, False, xs[2] != zero]
    assert y.differs().tolist() == [xs[0] != zero, xs[1] != zero, False]
    assert x.differs(xs[1]).tolist() == [xs[0] != xs[1], False, xs[2] != xs[1]]
    assert xs[0].differs(xs[0]) is False and xs[0].differs() is True
    assert x.differs(_stacked(3, 3, rng)[1]) is True
    # a row keeps only its own trees
    g, b = gen("g"), gen("b")
    assert stack_rows([g, b]).row(1).terms == b.terms
    # equal tree sums stay single and serve every row
    f = gen("f")
    assert stack_rows([f, gen("f"), gen("f")]) is f


def test_equality_of_stacked_tree_sums_agrees_with_differs():
    rng = np.random.default_rng(24)
    xs, x = _stacked(2, 3, rng)
    a = gen("f")
    # one tree held with coefficient 1 in every row, as _Rows((1, 1, 1))
    rows = FreeElement(F97, SIG, 2, ((a.terms[0][0], _Rows((1, 1, 1))),))
    assert rows.batch == 3 and a.batch is None
    assert not np.any(rows.differs(a))
    assert rows == a and a == rows and not rows != a
    # the same terms summed in another grouping
    same = free_signed_sum(F97, SIG, 2, [(1, x), (-1, x), (1, a)])
    assert same == a and same == rows
    assert x != a and x == x
    # stacks of other lengths are never equal
    assert stack_rows(xs[:2]) != x


def test_stacked_tree_sums_have_no_payload():
    rng = np.random.default_rng(23)
    xs, x = _stacked(3, 2, rng)
    with pytest.raises(ShapeMismatch):
        element_to_payload(x)
    assignment = {name: random_map(F97, 2, deg, rng) for name, deg in SIG.generators}
    with pytest.raises(ShapeMismatch):
        evaluate_hom(x, assignment, F97, 2)
    assert element_from_payload(element_to_payload(x.row(1))) == xs[1]


def test_stacked_tree_sums_must_agree_on_their_rows():
    rng = np.random.default_rng(24)
    _, x = _stacked(2, 3, rng)
    _, y = _stacked(2, 2, rng)
    with pytest.raises(ShapeMismatch):
        free_partial_compose(x, y, 0)
    with pytest.raises(ShapeMismatch):
        free_signed_sum(F97, SIG, 2, [(1, x), (1, y)])
    with pytest.raises(ShapeMismatch):
        stack_rows([x.row(0), x])
    with pytest.raises(DegreeMismatch):
        stack_rows([x.row(0), gen("h")])
    other = Signature((("h", 3), ("f", 2), ("g", 1), ("c", 1)))
    with pytest.raises(BackendMismatch):
        stack_rows([gen("g"), generator_element(other, F97, "c")])


def _composed_then_summed(ring, degree, terms):
    """The sum of c * (x comp_i y) as it was built before free_compose_sum:
    each composite a tree sum of its own, then one free_signed_sum."""
    return free_signed_sum(ring, SIG, degree, [
        (c, free_partial_compose(x, y, i)) for c, x, y, i in terms])


@pytest.mark.parametrize("ring", [F97, CoefficientRing.integers()],
                         ids=["F97", "ZZ"])
def test_compose_sums_equal_compose_then_signed_sum(ring):
    rng = np.random.default_rng(25)
    f, h, b = (generator_element(SIG, ring, n) for n in "fhb")
    xs, x = _stacked(2, 3, rng)
    ys, y = _stacked(2, 3, rng)
    if ring.is_field:
        f2 = free_linear_combine([3, -1], [f, free_partial_compose(f, b, 1)])
    else:  # exact coefficients far past int64
        fb = FreeElement(ring, SIG, 2, ((tree("(f _ (b _))"), 5),))
        f2 = free_signed_sum(ring, SIG, 2, [(2**70, f), (-1, fb)])
    terms = [(1, f2, f2, 0), (-2, h, b, 1), (0, f2, f2, 1), (96, f2, f2, 1),
             (5, h, b, 2), (2**65, f2, f2, 0)]
    got = free_compose_sum(ring, SIG, 3, terms)
    assert got == _composed_then_summed(ring, 3, terms)
    assert not got.is_zero()
    assert free_compose_sum(ring, SIG, 3, []) == zero_element(SIG, ring, 3)
    if not ring.is_field:
        return
    # stacked operands: one exact coefficient per row (free._Rows)
    stacked = [(1, x, y, 1), (-1, f2, y, 0), (4, x, f, 0), (1, f2, f2, 1),
               (2, x, x, 0)]
    got = free_compose_sum(F97, SIG, 3, stacked)
    assert got.batch == 3
    # a tree may keep one coefficient per row where the old order of sums
    # kept an int for every row, so compare row by row
    want = _composed_then_summed(F97, 3, stacked)
    assert not np.any(got.differs(want))
    for r in range(3):
        rows = [(c, a.row(r), b_.row(r), i) for c, a, b_, i in stacked]
        assert got.row(r) == want.row(r)
        assert got.row(r) == free_compose_sum(F97, SIG, 3, rows)


def _raised(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


def test_compose_sums_raise_what_compose_then_signed_sum_raised():
    rng = np.random.default_rng(26)
    f, g, h = gen("f"), gen("g"), gen("h")
    other = Signature((("f", 2), ("z", 1)))
    bad_terms = {
        "slot past the end": (f, f, 2),
        "negative slot": (f, f, -1),
        "vector on the left": (zero_element(SIG, F97, 0), f, 0),
        "rings differ": (f, generator_element(SIG, F101, "f"), 0),
        "signatures differ": (f, generator_element(other, F97, "f"), 0),
        "rows differ": (_stacked(2, 3, rng)[1], _stacked(2, 2, rng)[1], 0),
        "another ring than the sum": (generator_element(SIG, F101, "f"),
                                      generator_element(SIG, F101, "f"), 0),
        "another signature than the sum": (
            generator_element(other, F97, "f"),
            generator_element(other, F97, "f"), 0),
        "another degree than the sum": (h, f, 0),
    }
    for what, (a, b, i) in bad_terms.items():
        for c in (1, 0, 97):
            for before in ([], [(1, f, f, 1)]):
                terms = before + [(c, a, b, i)]
                want = _raised(lambda: _composed_then_summed(F97, 3, terms))
                got = _raised(lambda: free_compose_sum(F97, SIG, 3, terms))
                assert got == want, (what, c)


def test_one_term_sums_are_canonical():
    # an element built directly keeps its terms as given; a sum of it, even
    # of one term with coefficient 1, sorts and reduces them
    t, u = tree("(f _ _)"), tree("(f (g _) _)")
    raw = FreeElement(F97, SIG, 2, ((u, 100), (t, 97), (t, 5)))
    for terms in ([(1, raw)], [(98, raw)], [(0, gen("f")), (1, raw)]):
        assert free_signed_sum(F97, SIG, 2, terms).terms == ((u, 3), (t, 5))
    with pytest.raises(DegreeMismatch):
        free_signed_sum(F97, SIG, 2, [(1, raw), (0, gen("h"))])
