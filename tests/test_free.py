import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preoperad.backends import FreeBackend
from preoperad.calculus import (
    PreOperadContext,
    bullet,
    cup,
    delta,
    dev_tetrabraces,
    tetrabraces,
)
from preoperad.endo import ksign, random_map, unit_map
from preoperad.errors import (
    DegreeMismatch,
    IndexOutOfScope,
    InvalidDegree,
    MissingAssignment,
    ShapeMismatch,
    TableTooLarge,
    UnknownGenerator,
)
from preoperad import free
from preoperad.free import (
    LEAF,
    FreeElement,
    Signature,
    _canonical_terms,
    _new_element,
    _tree_from_sexpr,
    element_from_payload,
    element_to_payload,
    evaluate_hom,
    free_compose_sum,
    free_linear_combine,
    free_partial_compose,
    free_signed_sum,
    generator_element,
    generator_tree,
    tree_degree,
    tree_to_sexpr,
    unit_element,
    zero_element,
)
from preoperad.gamma import GAMMA_KINDS, GammaFamilies, gamma_domain
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
    # a degree or name of another type used to be cast by the payload reader
    with pytest.raises(InvalidDegree):
        Signature((("f", 2.9),))
    with pytest.raises(InvalidDegree):
        Signature((("f", True),))
    with pytest.raises(UnknownGenerator):
        Signature(((7, 2),))
    for entry in (["g", 2.9], [7, 1]):
        payload = element_to_payload(gen("f"))
        payload["signature"] = [entry if n == "g" else [n, d]
                                for n, d in payload["signature"]]
        with pytest.raises((InvalidDegree, UnknownGenerator)):
            element_from_payload(payload)
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


def test_a_tree_sum_is_every_row_of_a_batch():
    x = free_linear_combine(
        [3, -2], [gen("f"), free_partial_compose(gen("g"), gen("f"), 0)])
    assert len(x.terms) == 2
    for r in (0, 1, 5):
        assert x.row(r) is x
    assert zero_element(SIG, F97, 4).row(2).terms == ()


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


def _composed_then_summed(ring, degree, terms):
    """The sum of c * (x comp_i y) as it was built before free_compose_sum:
    each composite a tree sum of its own, then one free_signed_sum."""
    return free_signed_sum(ring, SIG, degree, [
        (c, free_partial_compose(x, y, i)) for c, x, y, i in terms])


@pytest.mark.parametrize("ring", [F97, CoefficientRing.integers()],
                         ids=["F97", "ZZ"])
def test_compose_sums_equal_compose_then_signed_sum(ring):
    f, h, b = (generator_element(SIG, ring, n) for n in "fhb")
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


def _raised(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


def test_compose_sums_raise_what_compose_then_signed_sum_raised():
    f, g, h = gen("f"), gen("g"), gen("h")
    other = Signature((("f", 2), ("z", 1)))
    bad_terms = {
        "slot past the end": (f, f, 2),
        "negative slot": (f, f, -1),
        "vector on the left": (zero_element(SIG, F97, 0), f, 0),
        "rings differ": (f, generator_element(SIG, F101, "f"), 0),
        "signatures differ": (f, generator_element(other, F97, "f"), 0),
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


# six trees of degree 3 over SIG and one-tree right operands of degree
# 1 to 3, so that the Koszul sign takes both values
SPLICE_LEFT = ["(h _ _ _)", "(f (f _ _) _)", "(f _ (f _ _))", "(b (h _ _ _))",
               "(h (g _) _ _)", "(f (g (f _ _)) (b _))"]
SPLICE_RIGHT = ["(g _)", "(f _ _)", "(f (b _) _)", "(h _ _ _)"]


@pytest.mark.parametrize("ring, coeffs, right_coeff", [
    (F97, [1, 96, 5, 50, 2, 33], 95),
    (CoefficientRing.integers(), [1, -1, 2**70, -3, 7, -2**65], -2**66)],
    ids=["F97", "ZZ"])
def test_a_single_tree_right_operand_composes_as_a_sum_of_one_term(
        ring, coeffs, right_coeff):
    for k in range(1, 7):
        x = free_linear_combine(coeffs[:k], [
            FreeElement(ring, SIG, 3, ((tree(t), 1),)) for t in SPLICE_LEFT[:k]])
        assert len(x.terms) == k
        for sexpr in SPLICE_RIGHT:
            y = free_linear_combine([right_coeff], [FreeElement(
                ring, SIG, tree_degree(tree(sexpr)), ((tree(sexpr), 1),))])
            degree = 3 + y.degree - 1
            for i in range(3):
                got = free_partial_compose(x, y, i)
                want = free_compose_sum(ring, SIG, degree, ((1, x, y, i),))
                assert got.degree == degree
                assert got.terms == want.terms, (k, sexpr, i)


def test_a_splice_can_reorder_trees():
    sig = Signature((("h", 2), ("z", 1), ("b", 1)))
    x = free_linear_combine([1, 1], [
        FreeElement(F97, sig, 2, ((tree(t, sig), 1),))
        for t in ("(h (z _) _)", "(h _ _)")])
    assert [tree_to_sexpr(t) for t, _ in x.terms] == ["(h (z _) _)", "(h _ _)"]
    got = free_partial_compose(x, generator_element(sig, F97, "b"), 0)
    assert got.terms == ((tree("(h (b _) _)", sig), 1),
                         (tree("(h (z (b _)) _)", sig), 1))


def test_single_compositions_raise_what_a_sum_of_one_term_raises():
    x = free_linear_combine([2, 3], [gen("f"), free_partial_compose(
        gen("f"), gen("g"), 1)])
    other = Signature((("f", 2), ("g", 1), ("z", 1)))
    bad = {
        "slot past the end": (x, gen("g"), 2),
        "negative slot": (x, gen("g"), -1),
        "y over another ring": (x, generator_element(SIG, F101, "g"), 0),
        "y over another signature": (x, generator_element(other, F97, "g"), 0),
    }
    for what, (a, b, i) in bad.items():
        want = _raised(lambda: free_compose_sum(
            F97, SIG, a.degree + b.degree - 1, ((1, a, b, i),)))
        assert _raised(lambda: free_partial_compose(a, b, i)) == want, what
    # y over a ring and signature equal to x's, but other objects
    y = FreeElement(CoefficientRing.prime_field(97), Signature(SIG.generators),
                    1, gen("g").terms)
    assert y.ring is not x.ring and y.signature is not x.signature
    for i in range(2):
        got = free_partial_compose(x, y, i)
        assert got == free_compose_sum(F97, SIG, 2, ((1, x, gen("g"), i),))
        assert not got.is_zero()


def test_one_term_sums_are_canonical():
    # an element built directly is made canonical, as one read from a
    # payload: reduced, its zero terms dropped, sorted; a sum of it, even
    # of one term with coefficient 1, keeps it so
    t, u, v = tree("(f _ _)"), tree("(f (g _) _)"), tree("(f _ (b _))")
    raw = FreeElement(F97, SIG, 2, ((t, 5), (u, 100), (v, 97)))
    assert raw.terms == ((u, 3), (t, 5))
    for terms in ([(1, raw)], [(98, raw)], [(0, gen("f")), (1, raw)]):
        assert free_signed_sum(F97, SIG, 2, terms).terms == ((u, 3), (t, 5))
    with pytest.raises(DegreeMismatch):
        free_signed_sum(F97, SIG, 2, [(1, raw), (0, gen("h"))])


def test_a_directly_built_element_refuses_what_a_payload_would():
    # a repeated tree is refused, not merged, and a coefficient 0 or past p
    # is made canonical, so the splice of a single composition, which takes
    # its left operand's terms as they are, never sees either
    t, u, v = tree("(f _ _)"), tree("(f (g _) _)"), tree("(f _ (b _))")
    with pytest.raises(ShapeMismatch):
        FreeElement(F97, SIG, 2, ((u, 100), (t, 97), (t, 5)))
    x = FreeElement(F97, SIG, 2, ((u, 100), (t, 97), (v, 5)))
    spliced = free_partial_compose(x, gen("g"), 1)
    assert spliced.terms == ((tree("(f (g _) (g _))"), 3),
                             (tree("(f _ (b (g _)))"), 5))
    assert spliced == free_compose_sum(F97, SIG, 2, [(1, x, gen("g"), 1)])
    with pytest.raises(DegreeMismatch):
        FreeElement(F97, SIG, 3, ((t, 1),))
    for c in (1.5, True, "7"):
        with pytest.raises(ShapeMismatch):
            FreeElement(F97, SIG, 2, ((t, c),))


RINGS = [F97, CoefficientRing.integers()]
# nonzero mod 97, so nonzero over Z too
SCALES = st.integers(-2**70, 2**70).filter(lambda c: c % 97)


def test_new_elements_behave_as_dataclass_built_ones():
    t, u = tree("(f _ _)"), tree("(f (g _) _)")
    terms = ((u, 3), (t, 5))  # canonical, so the constructor keeps them
    built = FreeElement(F97, SIG, 2, terms)
    new = _new_element(F97, SIG, 2, terms)
    assert type(new) is FreeElement
    assert dataclasses.asdict(new) == dataclasses.asdict(built)
    for x in (new, free_partial_compose(gen("f"), gen("g"), 1),
              free_signed_sum(F97, SIG, 2, [(1, new)]), zero_element(SIG, F97, 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.terms = ()
        with pytest.raises(TypeError):
            hash(x)
    assert new == built and not new.differs(built) and not built.differs(new)
    other = _new_element(F97, SIG, 2, ((t, 5),))
    assert other != built and other.differs(built) and built.differs(other)
    assert new.differs() and not _new_element(F97, SIG, 2, ()).differs()


def _fresh(ring):
    """A ring equal to ring that is another object."""
    fresh = (CoefficientRing.prime_field(ring.modulus) if ring.is_field
             else CoefficientRing.integers())
    assert fresh == ring and fresh is not ring
    return fresh


def _respelled(x, ring):
    """x over a fresh ring equal to ring and, as a payload round trip
    builds it, a fresh signature equal to x's."""
    y = element_from_payload(element_to_payload(x))
    assert y.signature == x.signature and y.signature is not x.signature
    return FreeElement(_fresh(ring), y.signature, y.degree, y.terms)


@pytest.mark.parametrize("ring", RINGS, ids=["F97", "ZZ"])
def test_equal_rings_and_signatures_that_are_other_objects_still_compose(ring):
    f, g, h, b = (generator_element(SIG, ring, n) for n in "fghb")
    f2 = free_linear_combine([3, -1], [f, free_partial_compose(f, b, 1)])
    shared = [(1, f2, f2, 0), (-2, h, g, 1), (0, f2, f2, 1), (5, h, b, 2)]
    # each operand over its own ring and signature objects, and the sum
    # over a third pair
    apart = [(c, _respelled(x, ring), _respelled(y, ring), i)
             for c, x, y, i in shared]
    sig = Signature(SIG.generators)
    want = free_compose_sum(ring, SIG, 3, shared)
    assert not want.is_zero()
    assert free_compose_sum(_fresh(ring), sig, 3, apart) == want
    assert free_compose_sum(ring, SIG, 3, apart) == want
    for (_, x, y, i), (_, u, v, _) in zip(shared, apart):
        assert free_partial_compose(u, v, i) == free_partial_compose(x, y, i)
    sums = [(2, f2), (-1, free_partial_compose(f, g, 0)), (0, f2)]
    want = free_signed_sum(ring, SIG, 2, sums)
    assert not want.is_zero()
    respelled = [(c, _respelled(x, ring)) for c, x in sums]
    assert free_signed_sum(_fresh(ring), sig, 2, respelled) == want
    assert free_signed_sum(ring, SIG, 2, respelled) == want
    assert free_linear_combine(*zip(*respelled)) == want


# coefficients that vanish mod 97 or cancel, small ones and ones past int64
COEFFS = st.one_of(st.integers(-3, 3), st.sampled_from([97, -97, 194, 2**70]),
                   st.integers(-2**70, 2**70))


def graft(tree, i: int, sub):
    """tree with its i-th leaf (left to right, from 0) replaced by sub,
    found by counting leaves: the oracle the composition kernels, which
    find that leaf inline, are checked against."""
    leaves = [pos for pos, tok in enumerate(tree) if tok == LEAF]
    pos = leaves[i]
    return tree[:pos] + sub + tree[pos + 1:]


@st.composite
def _tree_sums(draw, ring, degree):
    """A sum of one to three trees of the given degree over SIG: the unit
    grown by grafting f (one more leaf) or h (two more), then decorated
    with the degree-1 generators g and b."""
    trees = []
    for _ in range(draw(st.integers(1, 3))):
        t = (LEAF,)
        while tree_degree(t) < degree:
            name = draw(st.sampled_from(
                "fh" if degree - tree_degree(t) >= 2 else "f"))
            t = graft(t, draw(st.integers(0, tree_degree(t) - 1)),
                      generator_tree(SIG, name))
        for _ in range(draw(st.integers(0, 2))):
            t = graft(t, draw(st.integers(0, degree - 1)),
                      generator_tree(SIG, draw(st.sampled_from("gb"))))
        trees.append(t)
    coeffs = draw(st.lists(COEFFS, min_size=len(trees), max_size=len(trees)))
    return free_linear_combine(coeffs, [
        FreeElement(ring, SIG, degree, ((t, 1),)) for t in trees])


def _grafted_then_summed(ring, degree, terms):
    """The sum of c * (x comp_i y), grafted tree by tree with graft and
    summed with free_linear_combine."""
    coeffs, grafts = [], []
    for c, x, y, i in terms:
        for t, a in x.terms:
            for u, b in y.terms:
                coeffs.append(c * ksign(i * (y.degree - 1)) * a * b)
                grafts.append(FreeElement(ring, SIG, degree,
                                          ((graft(t, i, u), 1),)))
    if not grafts:
        return zero_element(SIG, ring, degree)
    return free_linear_combine(coeffs, grafts)


@pytest.mark.parametrize("ring", RINGS, ids=["F97", "ZZ"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compose_sums_equal_grafting_term_by_term(ring, data):
    terms = []
    for _ in range(data.draw(st.integers(1, 4))):
        x_degree = data.draw(st.integers(1, 3))
        x = data.draw(_tree_sums(ring, x_degree))
        y = data.draw(_tree_sums(ring, 4 - x_degree))
        term = (data.draw(COEFFS), x, y, data.draw(st.integers(0, x_degree - 1)))
        terms.append(term)
        if data.draw(st.booleans()):  # the same composite, cancelled
            terms.append((-term[0], *term[1:]))
    assert (free_compose_sum(ring, SIG, 3, terms)
            == _grafted_then_summed(ring, 3, terms))
    # one tree by one tree gives one raw entry; its coefficient cancels,
    # and over F97 a multiple of 97 vanishes too
    c, x, y, i = terms[0]
    if x.terms and y.terms:
        x1, y1 = (_new_element(ring, SIG, z.degree, z.terms[:1]) for z in (x, y))
        one = [(c, x1, y1, i)]
        assert (free_compose_sum(ring, SIG, 3, one)
                == _grafted_then_summed(ring, 3, one))
        for cancelled in ([(c, x1, y1, i), (-c, x1, y1, i)],
                          [(97 * c, x1, y1, i)] if ring.is_field else []):
            assert free_compose_sum(ring, SIG, 3, cancelled).is_zero()


def scaled(x: FreeElement, scales) -> FreeElement:
    """x with each tree's coefficient multiplied by scales[n] for every node
    "(n" the tree holds: the image of x under the pre-operad morphism that
    sends each generator n to scales[n] * n."""
    raw = {}
    for t, c in x.terms:
        for tok in t:
            if tok[0] == "(":
                c *= scales[tok[1:]]
        raw[t] = c
    return FreeElement(x.ring, x.signature, x.degree,
                       _canonical_terms(x.ring, raw))


def _words(sig, ring, degree):
    """Distinct tree sums of degree 2 or 3 over sig, which holds h of degree
    3, f and mu of degree 2, and g and b of degree 1."""
    f, g, h, b, mu = (generator_element(sig, ring, n)
                      for n in ("f", "g", "h", "b", "mu"))
    if degree == 2:
        return [f, mu, free_partial_compose(f, g, 0),
                free_partial_compose(mu, b, 1)]
    return [h, free_partial_compose(f, mu, 0), free_partial_compose(mu, f, 1),
            free_partial_compose(h, g, 2)]


@pytest.mark.parametrize("ring", RINGS, ids=["F97", "ZZ"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scaling_generators_commutes_with_compositions_and_sums(ring, data):
    sig = Signature(SIG.generators + (("mu", 2),))
    scales = {name: data.draw(SCALES) for name, _ in sig.generators}

    def phi(x):
        return scaled(x, scales)

    def element(degree):
        coeffs = data.draw(st.lists(st.integers(-2**66, 2**66),
                                    min_size=4, max_size=4))
        return free_linear_combine(coeffs, _words(sig, ring, degree))

    x, y, z = element(3), element(2), element(3)
    for i in range(x.degree):
        assert (phi(free_partial_compose(x, y, i))
                == free_partial_compose(phi(x), phi(y), i))
    c = data.draw(st.integers(-2**66, 2**66))
    terms = [(c, x, y, 0), (-3, z, y, 2), (1, y, x, 1)]
    assert (phi(free_compose_sum(ring, sig, 4, terms))
            == free_compose_sum(ring, sig, 4, [(a, phi(u), phi(v), i)
                                               for a, u, v, i in terms]))
    assert (phi(free_signed_sum(ring, sig, 3, [(c, x), (-2, z)]))
            == free_signed_sum(ring, sig, 3, [(c, phi(x)), (-2, phi(z))]))
    unit = unit_element(sig, ring)
    mu = generator_element(sig, ring, "mu")
    assert phi(unit) == unit
    assert scaled(mu, {**scales, "mu": 1}) == mu
    for name, _ in sig.generators:
        bare = generator_element(sig, ring, name)
        assert phi(bare) == free_linear_combine([scales[name]], [bare])


@pytest.mark.parametrize("ring", RINGS, ids=["F97", "ZZ"])
@settings(max_examples=20, deadline=None)
@given(degrees=st.tuples(*[st.integers(1, 3)] * 4), data=st.data())
def test_calculus_on_scaled_generators_is_the_scaled_bare_value(
        ring, degrees, data):
    # the inputs of a free trial: c_x times each generator x, and a bare mu
    names = ("h", "f", "g", "b")
    sig = Signature(tuple(zip(names, degrees)) + (("mu", 2),))
    backend = FreeBackend(ring, sig)
    scales = {name: data.draw(SCALES) for name in names}
    scales["mu"] = 1
    ctx = PreOperadContext(backend, backend.generator("mu"))
    bare = [backend.generator(name) for name in names]
    drawn = [scales[name] * x for name, x in zip(names, bare)]
    kind = data.draw(st.sampled_from(GAMMA_KINDS))
    points = gamma_domain(kind, *degrees).points

    def values(h, f, g, b):
        yield cup(ctx, f, g)
        yield bullet(h, f)
        yield delta(ctx, f)
        yield tetrabraces(h, f, g, b)
        yield dev_tetrabraces(ctx, h, f, g, b)
        yield from GammaFamilies(ctx, h, f, g, b).totals(kind, points[:1])

    for got, want in zip(values(*drawn), values(*bare), strict=True):
        assert got.payload == scaled(want.payload, scales)


def test_tree_sums_past_the_leaf_cap_are_refused(monkeypatch):
    # h comp_i f is one tree of degree 4: two of them hold 8 leaves
    monkeypatch.setattr(free, "MAX_LEAVES", 8)
    h, f = gen("h"), gen("f")
    terms = [(1, h, f, i) for i in range(3)]
    assert len(free_compose_sum(F97, SIG, 4, terms[:2]).terms) == 2
    with pytest.raises(TableTooLarge, match="3 trees of degree 4 passes the cap of 8"):
        free_compose_sum(F97, SIG, 4, terms)
    parts = [(1, free_partial_compose(h, f, i)) for i in range(3)]
    two = free_signed_sum(F97, SIG, 4, parts[:2])
    assert len(two.terms) == 2
    with pytest.raises(TableTooLarge, match="3 trees of degree 4"):
        free_signed_sum(F97, SIG, 4, parts)
    # one tree spliced into each of two: 2 trees of degree 5
    with pytest.raises(TableTooLarge, match="2 trees of degree 5"):
        free_partial_compose(two, f, 0)
    # a generator is one tree of its degree
    assert Signature((("k", 8),)).degree_of("k") == 8
    with pytest.raises(TableTooLarge, match="generator 'k' has 9 leaves"):
        Signature((("k", 9),))
