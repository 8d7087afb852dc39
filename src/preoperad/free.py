"""Symbolic backend: signed sums of generator-labelled planar trees.

A basis tree is the tuple of its own s-expression tokens: "(name" opens a
node, LEAF ("_") is a leaf and ")" closes a node, so "(h _ (f _ _) _)" is
("(h", "_", "(f", "_", "_", ")", "_", ")") and the unit is (LEAF,). Every
node has as many children as its generator's degree; a tree's degree is its
leaf count. Since arities are fixed and "(" sorts before "_", plain tuple
order on trees is the string order of their s-expressions.
Elements are finite sums coeff * tree with coefficients in a ring, kept
canonical (zero terms dropped, coefficients reduced, terms sorted). A stacked
element carries one exact coefficient per row on each tree, so that the
trials of a law that share their degrees run through the calculus as one
batch: its coefficients add, multiply and reduce row by row, a plain int
coefficient acts on every row, and a term is kept while any row is nonzero.

Composition grafts the right operand onto the i-th leaf of the left one and
multiplies by the global sign (-1)^(i * |y|), the same twist the dense
backend carries, so both backends satisfy the identical relation laws and
table substitution is a morphism between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .errors import (
    BackendMismatch,
    DegreeMismatch,
    IndexOutOfScope,
    InvalidDegree,
    MissingAssignment,
    RingMismatch,
    ShapeMismatch,
    UnknownGenerator,
)
from . import endo
from .endo import MultilinearMap, ksign
from .rings import CoefficientRing

LEAF = "_"


def tree_degree(tree) -> int:
    """Leaf count."""
    return tree.count(LEAF)


def graft(tree, i: int, sub):
    """Replace the i-th leaf (left to right, 0-based) of tree by sub."""
    degree = tree_degree(tree)
    if not 0 <= i < degree:
        raise IndexOutOfScope(f"leaf index {i} outside tree of degree {degree}")
    pos = -1
    for _ in range(i + 1):
        pos = tree.index(LEAF, pos + 1)
    return tree[:pos] + sub + tree[pos + 1:]


def tree_to_sexpr(tree) -> str:
    return " ".join(tree).replace(" )", ")")


@dataclass(frozen=True)
class Signature:
    """Named generators with fixed degrees >= 1."""

    generators: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, deg in self.generators:
            if name in seen:
                raise UnknownGenerator(f"duplicate generator {name!r}")
            # a name must stay one token of a tree's s-expression
            if name in ("", LEAF) or any(ch in "()" or ch.isspace() for ch in name):
                raise UnknownGenerator(f"{name!r} cannot name a generator")
            if deg < 1:
                raise InvalidDegree(f"generator {name!r} needs degree >= 1, got {deg}")
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


class _Rows(tuple):
    """The coefficients of one tree in the rows of a stacked element, as
    exact ints. Sums and products act row by row, and an int acts on every
    row; the value is true when any row is nonzero."""

    __slots__ = ()

    def __add__(self, other):
        if type(other) is not _Rows:
            return _Rows([a + other for a in self])
        if len(other) != len(self):
            raise ShapeMismatch(f"stacked tree sums of {len(self)} and "
                                f"{len(other)} rows")
        return _Rows(map(add, self, other))

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is not _Rows:
            return _Rows([a * other for a in self])
        if len(other) != len(self):
            raise ShapeMismatch(f"stacked tree sums of {len(self)} and "
                                f"{len(other)} rows")
        return _Rows(map(mul, self, other))

    __rmul__ = __mul__

    def __mod__(self, p):
        return _Rows([a % p for a in self])

    def __bool__(self):
        return any(self)


# eq=False keeps the __eq__ below and leaves elements unhashable
@dataclass(frozen=True, eq=False)
class FreeElement:
    """Canonical signed tree sum of a single degree, or stacked tree sums
    with one coefficient per row."""

    ring: CoefficientRing
    signature: Signature
    degree: int
    terms: tuple  # sorted tuple of (tree, coeff), coeff nonzero canonical

    @property
    def shifted_degree(self) -> int:
        return self.degree - 1

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def batch(self) -> int | None:
        """The number of rows of a stacked element, None for a single one."""
        for _, c in self.terms:
            if type(c) is _Rows:
                return len(c)
        return None

    def row(self, r: int) -> FreeElement:
        """Row r of a stacked element as a single one, without the trees
        that vanish there; a single element is every row."""
        if self.batch is None:
            return self
        terms = ((t, c[r] if type(c) is _Rows else c) for t, c in self.terms)
        return FreeElement(self.ring, self.signature, self.degree,
                           tuple((t, c) for t, c in terms if c))

    def differs(self, other: FreeElement | None = None):
        """Whether each row differs from other (from zero when other is None):
        a bool array over the rows when either element is stacked, one bool
        otherwise. Elements of another ring or degree differ."""
        diff = self
        if other is not None:
            if self.batch is None and other.batch is None:
                return self != other
            if (self.degree != other.degree or self.ring != other.ring
                    or self.signature != other.signature):
                return True
            diff = free_signed_sum(self.ring, self.signature, self.degree,
                                   ((1, self), (-1, other)))
        if diff.batch is None:
            return bool(diff.terms)
        coeffs = [c for _, c in diff.terms]
        if any(type(c) is not _Rows for c in coeffs):
            return True  # a kept int coefficient is nonzero in every row
        return np.array([any(column) for column in zip(*coeffs)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeElement):
            return NotImplemented
        return (self.ring == other.ring and self.degree == other.degree
                and self.terms == other.terms)


def _canonical_terms(ring: CoefficientRing, raw: dict) -> tuple:
    # c % p, not ring.reduce: that calls int(), and a stacked c is one int per row
    p = ring.modulus
    cleaned = []
    for tree, c in raw.items():
        if p is not None:
            c %= p
        if c:
            cleaned.append((tree, c))
    cleaned.sort()
    return tuple(cleaned)


def _element(ring, sig, degree, raw_terms) -> FreeElement:
    for tree in raw_terms:
        d = tree_degree(tree)
        if d != degree:
            raise DegreeMismatch(f"term of degree {d} in an element of degree {degree}")
    return FreeElement(ring, sig, degree, _canonical_terms(ring, raw_terms))


def generator_element(sig: Signature, ring: CoefficientRing, name: str) -> FreeElement:
    tree = generator_tree(sig, name)
    return _element(ring, sig, sig.degree_of(name), {tree: 1})


def unit_element(sig: Signature, ring: CoefficientRing) -> FreeElement:
    return _element(ring, sig, 1, {(LEAF,): 1})


def zero_element(sig: Signature, ring: CoefficientRing, degree: int) -> FreeElement:
    if degree < 0:
        raise InvalidDegree(f"degree must be >= 0, got {degree}")
    return FreeElement(ring, sig, degree, ())


def stack_rows(elements) -> FreeElement:
    """Single elements of one ring, signature and degree as the rows of one
    stacked element, in order. Equal elements stay single: one serves every
    row."""
    first, *rest = elements
    if all(x == first for x in rest):
        return first
    raw: dict = {}
    for r, x in enumerate(elements):
        _check_pair(first, x)
        if x.degree != first.degree:
            raise DegreeMismatch(f"degree {x.degree} vs {first.degree}")
        if x.batch is not None:
            raise ShapeMismatch("only single tree sums can be stacked")
        for tree, c in x.terms:
            raw.setdefault(tree, [0] * len(elements))[r] = c
    return FreeElement(first.ring, first.signature, first.degree,
                       tuple(sorted((t, _Rows(cs)) for t, cs in raw.items())))


def _check_pair(x: FreeElement, y: FreeElement):
    if x.ring is not y.ring and x.ring != y.ring:
        raise RingMismatch(f"{x.ring.label()} vs {y.ring.label()}")
    if x.signature is not y.signature and x.signature != y.signature:
        raise BackendMismatch("elements over different signatures")


def free_partial_compose(x: FreeElement, y: FreeElement, i: int) -> FreeElement:
    """x comp_i y: leaf grafting times (-1)^(i * |y|), bilinear in both."""
    _check_pair(x, y)
    if x.degree < 1:
        raise InvalidDegree("left operand of a composition needs degree >= 1")
    if not 0 <= i <= x.shifted_degree:
        raise IndexOutOfScope(
            f"slot {i} outside 0..{x.shifted_degree} for degree {x.degree}"
        )
    sign = ksign(i * y.shifted_degree)
    raw: dict = {}
    for t, a in x.terms:
        for u, b in y.terms:
            z = graft(t, i, u)
            raw[z] = raw.get(z, 0) + sign * a * b
    return _element(x.ring, x.signature, x.degree + y.degree - 1, raw)


def free_signed_sum(ring: CoefficientRing, sig: Signature, degree: int,
                    terms) -> FreeElement:
    """Sum of c * x over (c, x) pairs taken one at a time from terms, all
    gathered into one raw dict and made canonical once."""
    raw: dict = {}
    for c, x in terms:
        if x.ring is not ring and x.ring != ring:
            raise RingMismatch(f"{x.ring.label()} vs {ring.label()}")
        if x.signature is not sig and x.signature != sig:
            raise BackendMismatch("elements over different signatures")
        if x.degree != degree:
            raise DegreeMismatch(f"degree {x.degree} vs {degree}")
        c = int(c)
        for tree, a in x.terms:
            raw[tree] = raw.get(tree, 0) + c * a
    return FreeElement(ring, sig, degree, _canonical_terms(ring, raw))


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
    if x.batch is not None:
        raise ShapeMismatch("a stacked tree sum has no payload; serialize its rows")
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
    ring = CoefficientRing.from_payload(payload["ring"])
    sig = Signature(tuple((str(n), int(d)) for n, d in payload["signature"]))
    raw = {}
    for sexpr, c in payload["terms"]:
        raw[_tree_from_sexpr(sexpr, sig)] = int(c)
    return _element(ring, sig, int(payload["degree"]), raw)


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
    if x.batch is not None:
        raise ShapeMismatch("a stacked tree sum has no table; evaluate its rows")
    for name, deg in x.signature.generators:
        if name in assignment and assignment[name].degree != deg:
            raise DegreeMismatch(
                f"generator {name!r} has degree {deg}, "
                f"table has degree {assignment[name].degree}"
            )
    return endo.signed_sum(ring, dim, x.degree, (
        (c, _eval_tree(tree, assignment, ring, dim)) for tree, c in x.terms))
