"""Symbolic backend: signed sums of generator-labelled planar trees.

A basis tree is the tuple of its own s-expression tokens: "(name" opens a
node, LEAF ("_") is a leaf and ")" closes a node, so "(h _ (f _ _) _)" is
("(h", "_", "(f", "_", "_", ")", "_", ")") and the unit is (LEAF,). Every
node has as many children as its generator's degree; a tree's degree is its
leaf count. Since arities are fixed and "(" sorts before "_", plain tuple
order on trees is the string order of their s-expressions.
Elements are finite sums coeff * tree with coefficients in a ring, kept
canonical (zero terms dropped, coefficients reduced, terms sorted). Sending
each generator n to c_n * n, for constants c_n, is a morphism of this free
pre-operad, since grafting keeps every node: the trials of a law that share
their degrees differ only in their c_n, so they run as one check on the
bare generators.

Composition grafts the right operand onto the i-th leaf of the left one and
multiplies by the global sign (-1)^(i * |y|), the same twist the dense
backend carries, so both backends satisfy the identical relation laws and
table substitution is a morphism between them. A sum of compositions
(free_compose_sum) gathers the grafts of all its terms into one dict and
sorts once. A single composition whose right operand is one tree splices
that tree into each tree of the left one, with no dict; any other single
composition is a sum of one term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BackendMismatch,
    DegreeMismatch,
    IndexOutOfScope,
    InvalidDegree,
    MissingAssignment,
    RingMismatch,
    ShapeMismatch,
    TableTooLarge,
    UnknownGenerator,
)
from . import endo
from .endo import MultilinearMap
from .rings import CoefficientRing, require_field, require_integer

LEAF = "_"
# the most leaves (trees times degree) of one tree sum: some 270 MB of tokens
MAX_LEAVES = 2**25


def tree_degree(tree) -> int:
    """Leaf count."""
    return tree.count(LEAF)


def tree_to_sexpr(tree) -> str:
    return " ".join(tree).replace(" )", ")")


@dataclass(frozen=True)
class Signature:
    """Named generators with fixed degrees >= 1."""

    generators: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, deg in self.generators:
            if not isinstance(name, str):
                raise UnknownGenerator(f"a generator name must be a string, "
                                       f"got {name!r}")
            if name in seen:
                raise UnknownGenerator(f"duplicate generator {name!r}")
            # a name must stay one token of a tree's s-expression
            if name in ("", LEAF) or any(ch in "()" or ch.isspace() for ch in name):
                raise UnknownGenerator(f"{name!r} cannot name a generator")
            if require_integer(deg, f"the degree of {name!r}", InvalidDegree) < 1:
                raise InvalidDegree(f"generator {name!r} needs degree >= 1, got {deg}")
            if deg > MAX_LEAVES:
                raise TableTooLarge(f"generator {name!r} has {deg} leaves, past {MAX_LEAVES}")
            seen.add(name)

    def degree_of(self, name: str) -> int:
        for n, d in self.generators:
            if n == name:
                return d
        raise UnknownGenerator(f"no generator named {name!r}")

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.generators)


def generator_tree(sig: Signature, name: str):
    return ("(" + name,) + (LEAF,) * sig.degree_of(name) + (")",)


# eq=False keeps the __eq__ below and leaves elements unhashable
@dataclass(frozen=True, eq=False)
class FreeElement:
    """Canonical signed tree sum of a single degree."""

    ring: CoefficientRing
    signature: Signature
    degree: int
    terms: tuple  # sorted tuple of (tree, coeff), coeff nonzero canonical

    def __post_init__(self):
        # built from outside, as from a payload: checked and made canonical
        # (package paths build through _new_element, unchecked)
        raw = {}
        for tree, c in self.terms:
            if tree in raw:  # refused rather than merged
                raise ShapeMismatch(f"tree {tree_to_sexpr(tree)!r} appears "
                                    f"twice in one tree sum")
            raw[tree] = int(require_integer(c, "a coefficient", ShapeMismatch))
        object.__setattr__(self, "terms", _element(
            self.ring, self.signature, self.degree, raw).terms)

    def is_zero(self) -> bool:
        return not self.terms

    def row(self, r: int) -> FreeElement:
        """A tree sum is every row of a batch."""
        return self

    def differs(self, other: FreeElement | None = None) -> bool:
        """Whether self differs from other (from zero when other is None).
        Elements of another ring or degree differ."""
        if other is None:
            return bool(self.terms)
        return self != other

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        return (self.ring == other.ring and self.degree == other.degree
                and self.terms == other.terms)


def _canonical_terms(ring: CoefficientRing, raw: dict) -> tuple:
    p = ring.modulus
    if len(raw) <= 1:  # most sums hold one tree: no list, no sort
        for tree, c in raw.items():
            if p is not None:
                c %= p
            return ((tree, c),) if c else ()
        return ()
    cleaned = []
    for tree, c in raw.items():
        if p is not None:
            c %= p
        if c:
            cleaned.append((tree, c))
    cleaned.sort()
    return tuple(cleaned)


def _new_element(ring: CoefficientRing, sig: Signature, degree: int,
                 terms: tuple) -> FreeElement:
    """An element from parts the package built and checked itself, without
    the frozen dataclass __init__, which sets every field through
    object.__setattr__; the result is the same frozen element."""
    x = object.__new__(FreeElement)
    fields = x.__dict__
    fields["ring"] = ring
    fields["signature"] = sig
    fields["degree"] = degree
    fields["terms"] = terms
    return x


def _element(ring, sig, degree, raw_terms) -> FreeElement:
    for tree in raw_terms:
        d = tree_degree(tree)
        if d != degree:
            raise DegreeMismatch(f"term of degree {d} in an element of degree {degree}")
    return _new_element(ring, sig, degree, _canonical_terms(ring, raw_terms))


def generator_element(sig: Signature, ring: CoefficientRing, name: str) -> FreeElement:
    tree = generator_tree(sig, name)
    return _element(ring, sig, sig.degree_of(name), {tree: 1})


def unit_element(sig: Signature, ring: CoefficientRing) -> FreeElement:
    return _element(ring, sig, 1, {(LEAF,): 1})


def zero_element(sig: Signature, ring: CoefficientRing, degree: int) -> FreeElement:
    if degree < 0:
        raise InvalidDegree(f"degree must be >= 0, got {degree}")
    return _new_element(ring, sig, degree, ())


def _check_pair(x: FreeElement, y: FreeElement):
    if x.ring is not y.ring and x.ring != y.ring:
        raise RingMismatch(f"{x.ring.label()} vs {y.ring.label()}")
    if x.signature is not y.signature and x.signature != y.signature:
        raise BackendMismatch("elements over different signatures")


def free_partial_compose(x: FreeElement, y: FreeElement, i: int) -> FreeElement:
    """x comp_i y: leaf grafting times (-1)^(i * |y|), bilinear in both.

    When y is one tree over x's own ring and signature objects, x is not
    zero and deg x >= 1, the tree is spliced into the i-th leaf of each
    tree of x and the products of coefficients are the result's, sorted.
    For canonical operands, as the package builds them, no dict and no
    zero test are needed: splicing one fixed tree at the i-th leaf is
    injective, so no two trees of x land on the same tree, and two
    coefficients nonzero mod a prime (or in Z) have a nonzero product.
    The sort is needed because a splice can reorder trees. Any other
    composition, and every refusal, is free_compose_sum's of one term."""
    ring, sig, xd = x.ring, x.signature, x.degree
    x_terms, y_terms = x.terms, y.terms
    if (len(y_terms) != 1 or not x_terms or y.ring is not ring
            or y.signature is not sig or xd < 1
            or len(x_terms) * (xd + y.degree - 1) > MAX_LEAVES):
        return free_compose_sum(ring, sig, xd + y.degree - 1, ((1, x, y, i),))
    if not 0 <= i <= xd - 1:
        raise IndexOutOfScope(f"slot {i} outside 0..{xd - 1} for degree {xd}")
    (u, b), = y_terms
    yd = y.degree
    if i * (yd - 1) % 2:
        b = -b
    p = ring.modulus
    spliced = []
    for t, a in x_terms:
        pos = t.index(LEAF)
        for _ in range(i):
            pos = t.index(LEAF, pos + 1)
        spliced.append((t[:pos] + u + t[pos + 1:],
                        a * b if p is None else a * b % p))
    if len(spliced) > 1:
        spliced.sort()
    return _new_element(ring, sig, xd + yd - 1, tuple(spliced))


def free_compose_sum(ring: CoefficientRing, sig: Signature, degree: int,
                     terms) -> FreeElement:
    """Sum of c * (x comp_i y) over (c, x, y, i) taken one at a time from
    terms: every graft of every term gathered into one raw dict and made
    canonical once. Each term is checked as a composition, then against
    the sum's ring, signature and degree, also when c is 0; operands that
    share the sum's ring and signature objects skip the equality checks.
    A term that could take the sum past MAX_LEAVES is refused ungrafted."""
    p = ring.modulus
    raw: dict = {}
    get = raw.get
    for c, x, y, i in terms:
        same = (x.ring is ring and y.ring is ring
                and x.signature is sig and y.signature is sig)
        if not same:
            _check_pair(x, y)
        xd, yd = x.degree, y.degree
        if xd < 1:
            raise InvalidDegree("left operand of a composition needs degree >= 1")
        if not 0 <= i <= xd - 1:
            raise IndexOutOfScope(f"slot {i} outside 0..{xd - 1} for degree {xd}")
        if not same or xd + yd - 1 != degree:
            _check_term(ring, sig, degree, x, xd + yd - 1)
        if type(c) is not int:
            c = int(require_integer(c, "a coefficient", ShapeMismatch))
        if i * (yd - 1) % 2:
            c = -c
        if p is not None:
            c %= p
        x_terms, y_terms = x.terms, y.terms
        if (len(raw) + len(x_terms) * len(y_terms)) * degree > MAX_LEAVES:
            _refuse_sum(len(raw) + len(x_terms) * len(y_terms), degree)
        for t, a in x_terms:
            pos = t.index(LEAF)  # the i-th leaf, once for every tree of y
            for _ in range(i):
                pos = t.index(LEAF, pos + 1)
            head, rest, ca = t[:pos], t[pos + 1:], c * a
            for u, b in y_terms:
                z = head + u + rest
                raw[z] = get(z, 0) + ca * b
    return _new_element(ring, sig, degree, _canonical_terms(ring, raw))


def free_signed_sum(ring: CoefficientRing, sig: Signature, degree: int,
                    terms) -> FreeElement:
    """Sum of c * x over (c, x) pairs taken one at a time from terms, all
    gathered into one raw dict and made canonical once; a term that could
    take the sum past MAX_LEAVES is refused."""
    raw: dict = {}
    get = raw.get
    for c, x in terms:
        if x.ring is not ring or x.signature is not sig or x.degree != degree:
            _check_term(ring, sig, degree, x, x.degree)
        if (len(raw) + len(x.terms)) * degree > MAX_LEAVES:
            _refuse_sum(len(raw) + len(x.terms), degree)
        if type(c) is not int:
            c = int(require_integer(c, "a coefficient", ShapeMismatch))
        for tree, a in x.terms:
            raw[tree] = get(tree, 0) + c * a
    return _new_element(ring, sig, degree, _canonical_terms(ring, raw))


def _refuse_sum(trees: int, degree: int):
    raise TableTooLarge(f"a tree sum of {trees} trees of degree {degree} "
                        f"passes the cap of {MAX_LEAVES} leaves")


def _check_term(ring: CoefficientRing, sig: Signature, degree: int,
                x: FreeElement, x_degree: int):
    """Refuse a term of another ring, signature or degree than its sum."""
    if x.ring is not ring and x.ring != ring:
        raise RingMismatch(f"{x.ring.label()} vs {ring.label()}")
    if x.signature is not sig and x.signature != sig:
        raise BackendMismatch("elements over different signatures")
    if x_degree != degree:
        raise DegreeMismatch(f"degree {x_degree} vs {degree}")


def free_linear_combine(coeffs, elems) -> FreeElement:
    elems = list(elems)
    coeffs = list(coeffs)
    if not elems:
        raise DegreeMismatch("free_linear_combine needs at least one element")
    if len(coeffs) != len(elems):
        raise ShapeMismatch(f"{len(coeffs)} coefficients for {len(elems)} elements")
    first = elems[0]
    return free_signed_sum(first.ring, first.signature, first.degree,
                           zip(coeffs, elems))


def element_to_payload(x: FreeElement) -> dict:
    return {
        "ring": x.ring.to_payload(),
        "signature": [[n, d] for n, d in x.signature.generators],
        "degree": x.degree,
        "terms": [[tree_to_sexpr(t), int(c)] for t, c in x.terms],
    }


def _tree_from_sexpr(text: str, sig: Signature):
    """Parse the output of tree_to_sexpr back into a tree.

    Anything but one complete tree whose nodes have their generators'
    arities raises ShapeMismatch (UnknownGenerator for a name outside sig).
    """
    tree = tuple(text.replace("(", " (").replace(")", " ) ").split())
    open_nodes = []  # children each open node still expects
    for pos, tok in enumerate(tree):
        if pos and not open_nodes:
            raise ShapeMismatch(f"trailing tokens in tree {text!r}")
        if tok == ")":
            if not open_nodes or open_nodes.pop():
                raise ShapeMismatch(f"unbalanced tree {text!r}")
            continue
        if open_nodes:
            open_nodes[-1] -= 1
        if tok.startswith("("):
            open_nodes.append(sig.degree_of(tok[1:]))
        elif tok != LEAF:
            raise ShapeMismatch(f"bad tree token {tok!r}")
    if not tree or open_nodes:
        raise ShapeMismatch(f"unbalanced tree {text!r}")
    return tree


def element_from_payload(payload: dict) -> FreeElement:
    """The tree sum of a payload; a missing field is refused with
    BadConfig."""
    ring, signature, degree, terms = (
        require_field(payload, key, "malformed tree sum payload")
        for key in ("ring", "signature", "degree", "terms"))
    sig = Signature(tuple((n, d) for n, d in signature))
    return FreeElement(
        CoefficientRing.from_payload(ring), sig,
        require_integer(degree, "degree", ShapeMismatch),
        tuple((_tree_from_sexpr(sexpr, sig), c) for sexpr, c in terms))


def _eval_tree(tree, assignment: dict, ring: CoefficientRing, dim: int) -> MultilinearMap:
    if tree == (LEAF,):
        return endo.unit_map(ring, dim)
    stack = []  # [table so far, next input slot] per open node
    for tok in tree:
        if tok == LEAF:
            stack[-1][1] += 1
        elif tok == ")":
            sub, _ = stack.pop()
            if not stack:
                return sub
            # earlier children are already substituted, so slot counts
            # the inputs they left behind
            acc, slot = stack[-1]
            stack[-1] = [endo.substitute(acc, sub, slot), slot + sub.degree]
        else:
            name = tok[1:]
            if name not in assignment:
                raise MissingAssignment(f"no table assigned to generator {name!r}")
            base = assignment[name]
            if base.ring != ring or base.dim != dim:
                raise BackendMismatch("assigned table over a different ring or dimension")
            stack.append([base, 0])


def evaluate_hom(x: FreeElement, assignment: dict, ring: CoefficientRing,
                 dim: int) -> MultilinearMap:
    """Substitute tables for generators; a pre-operad morphism to the dense side.

    assignment maps generator names to MultilinearMap values of matching
    degree. Substitution itself is unsigned; the composition twist on both
    sides is what makes the map commute with comp_i, unit and sums.
    """
    for name, deg in x.signature.generators:
        if name in assignment and assignment[name].degree != deg:
            raise DegreeMismatch(
                f"generator {name!r} has degree {deg}, "
                f"table has degree {assignment[name].degree}"
            )
    return endo.signed_sum(ring, dim, x.degree, (
        (c, _eval_tree(tree, assignment, ring, dim)) for tree, c in x.terms))
