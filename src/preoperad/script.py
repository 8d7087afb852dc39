"""A tiny expression language for graded elements.

Grammar (indices are 0-based, `#` starts a comment that runs to end of line):

    script  := decl* expr
    decl    := "let" IDENT ":" "deg" INT ["=" literal] ";"
    literal := "[" entry ("," entry)* "]"      entry := ["-"] INT
    expr    := term (("+" | "-") term)*
    term    := [INT "*"] atom
    atom    := IDENT | "I" | "mu" | call | "(" expr ")"
    call    := "comp" "(" expr "," expr "," INT ")"
             | "cup" "(" expr "," expr ")"   | "bul" "(" expr "," expr ")"
             | "bracket" "(" expr "," expr ")" | "delta" "(" expr ")"
             | "tri" "(" expr "," expr "," expr ")"
             | "tetra" "(" expr "," expr "," expr "," expr ")"

`I` is the composition unit, `mu` the structure product (degree 2, declarable
like any other name). Literals spell out a dense table row-major and only make
sense on the table backend. Parsing reports line:col plus the expected token;
checking reports degree clashes and out-of-range composition indices.
Nesting too deep for the interpreter's stack is a syntax error, whether it
is found while parsing, checking or evaluating. Each call is evaluated
from its operation's private regions function in the calculus module,
never through a public operation: the comp and call items of a sum, or a
standalone comp or call, are one joint sum of their regions, which
composes each (last operand, slot) that their points of two or more
operands share once (see eval_script).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain

from . import endo
from .backends import EndoBackend, GradedElement, joint_sum, signed_sum
from .calculus import (
    PreOperadContext,
    _brace_regions,
    _bracket_regions,
    _bullet_regions,
    _cup_regions,
    _delta_regions,
)
from .errors import (
    MissingAssignment,
    ScriptSyntaxError,
    ScriptTypeError,
    UnsupportedRing,
)

# head -> (arity, result degree from the argument degrees, and the
# operation's regions scaled by c, from the context, c and the arguments,
# which a call adds to the one joint sum of the sum it is an item of);
# comp takes an index too and has its own node
_CALLS = {
    "comp": (2, None, None),
    "cup": (2, lambda d: d[0] + d[1], _cup_regions),
    "bul": (2, lambda d: d[0] + d[1] - 1,
            lambda ctx, c, *a: _bullet_regions(c, *a)),
    "bracket": (2, lambda d: d[0] + d[1] - 1,
                lambda ctx, c, *a: _bracket_regions(c, *a)),
    "delta": (1, lambda d: d[0] + 1, _delta_regions),
    "tri": (3, lambda d: sum(d) - 2,
            lambda ctx, c, h, *fs: _brace_regions(c, h, fs)),
    "tetra": (4, lambda d: sum(d) - 3,
              lambda ctx, c, h, *fs: _brace_regions(c, h, fs)),
}
_RESERVED = (*_CALLS, "let", "deg", "I")

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r\n]+|\#[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\],;:*+\-=])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ScriptSyntaxError(f"stray character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup == "int":
            tokens.append(Token("int", chunk, line, col))
        elif m.lastgroup == "ident":
            tokens.append(Token("ident", chunk, line, col))
        elif m.lastgroup == "punct":
            tokens.append(Token(chunk, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree

@dataclass(frozen=True)
class Node:
    span: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Name(Node):
    name: str = ""


@dataclass(frozen=True)
class Unit(Node):
    pass


@dataclass(frozen=True)
class Scale(Node):
    coeff: int = 1
    item: Node = None


@dataclass(frozen=True)
class Sum(Node):
    # (sign, node) pairs; the first sign is always +1 in parsed scripts
    items: tuple = ()


@dataclass(frozen=True)
class Comp(Node):
    inner: Node = None
    outer: Node = None
    index: int = 0


@dataclass(frozen=True)
class Call(Node):
    head: str = ""
    args: tuple = ()


@dataclass(frozen=True)
class Decl(Node):
    name: str = ""
    degree: int = 0
    literal: tuple | None = None


@dataclass(frozen=True)
class Script(Node):
    decls: tuple = ()
    body: Node = None


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        raise ScriptSyntaxError(f"expected {expected}, found {found!r}",
                                tok.line, tok.col, expected=expected)

    def expect(self, kind: str, expected: str | None = None) -> Token:
        if self.peek().kind != kind:
            self.fail(expected or kind)
        return self.advance()

    def parse_script(self) -> Script:
        first = self.peek()
        decls = []
        while self.peek().kind == "ident" and self.peek().text == "let":
            decls.append(self.parse_decl())
        body = self.parse_expr()
        self.expect("eof", "end of input after the final expression")
        return Script(span=(first.line, first.col), decls=tuple(decls), body=body)

    def parse_decl(self) -> Decl:
        start = self.expect("ident")
        name_tok = self.expect("ident", "a name to declare")
        if name_tok.text in _RESERVED:
            raise ScriptSyntaxError(f"{name_tok.text!r} is reserved",
                                    name_tok.line, name_tok.col)
        self.expect(":", "':'")
        deg_kw = self.expect("ident", "'deg'")
        if deg_kw.text != "deg":
            raise ScriptSyntaxError(f"expected 'deg', found {deg_kw.text!r}",
                                    deg_kw.line, deg_kw.col, expected="deg")
        deg_tok = self.expect("int", "a degree")
        degree = int(deg_tok.text)
        if degree < 1:
            raise ScriptSyntaxError("declared degrees must be >= 1",
                                    deg_tok.line, deg_tok.col)
        literal = None
        if self.peek().kind == "=":
            self.advance()
            literal = self.parse_literal()
        self.expect(";", "';'")
        return Decl(span=(start.line, start.col), name=name_tok.text,
                    degree=degree, literal=literal)

    def parse_literal(self) -> tuple:
        self.expect("[", "'['")
        entries = [self.parse_entry()]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.parse_entry())
        self.expect("]", "']'")
        return tuple(entries)

    def parse_entry(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.expect("int", "an integer entry")
        return sign * int(tok.text)

    def parse_expr(self) -> Node:
        first = self.parse_term()
        items = [(1, first)]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            items.append((1 if op.kind == "+" else -1, self.parse_term()))
        if len(items) == 1:
            return first
        return Sum(span=first.span, items=tuple(items))

    def parse_term(self) -> Node:
        if self.peek().kind == "int":
            coeff_tok = self.advance()
            self.expect("*", "'*' after a coefficient")
            item = self.parse_atom()
            return Scale(span=(coeff_tok.line, coeff_tok.col),
                         coeff=int(coeff_tok.text), item=item)
        return self.parse_atom()

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")", "')'")
            return inner
        if tok.kind != "ident":
            self.fail("a name, a call, or '('")
        if tok.text in _CALLS and self.tokens[self.pos + 1].kind == "(":
            return self.parse_call()
        self.advance()
        if tok.text == "I":
            return Unit(span=(tok.line, tok.col))
        if tok.text in ("let", "deg"):
            raise ScriptSyntaxError(f"{tok.text!r} is reserved",
                                    tok.line, tok.col)
        return Name(span=(tok.line, tok.col), name=tok.text)

    def parse_call(self) -> Node:
        head = self.advance()
        self.expect("(", "'('")
        args = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            if head.text == "comp" and len(args) == 2:
                idx_tok = self.expect("int", "a composition index")
                self.expect(")", "')'")
                return Comp(span=(head.line, head.col), inner=args[0],
                            outer=args[1], index=int(idx_tok.text))
            args.append(self.parse_expr())
        self.expect(")", "')'")
        if head.text == "comp":
            self.fail("a composition index as the third argument")
        arity = _CALLS[head.text][0]
        if len(args) != arity:
            raise ScriptSyntaxError(
                f"{head.text} takes {arity} arguments, "
                f"got {len(args)}", head.line, head.col)
        return Call(span=(head.line, head.col), head=head.text,
                    args=tuple(args))


_TOO_DEEP = "expression nested too deeply"


def parse_script(text: str) -> Script:
    parser = _Parser(tokenize(text))
    try:
        return parser.parse_script()
    except RecursionError:
        tok = parser.peek()
        raise ScriptSyntaxError(_TOO_DEEP, tok.line, tok.col) from None


# ---------------------------------------------------------------------------
# degree checking

def _check_node(node: Node, env: dict, degrees: dict) -> int:
    """Degree of node; degrees maps the id of each compound node (Scale,
    Sum, Comp, Call) to its degree."""
    if isinstance(node, Name):
        if node.name not in env:
            raise ScriptTypeError(f"undeclared name {node.name!r}",
                                  *node.span)
        return env[node.name]
    if isinstance(node, Unit):
        return 1
    if isinstance(node, Scale):
        degree = _check_node(node.item, env, degrees)
    elif isinstance(node, Sum):
        degree, *rest = [_check_node(item, env, degrees)
                         for _, item in node.items]
        for deg in rest:
            if deg != degree:
                raise ScriptTypeError(
                    f"cannot add degree {degree} and degree {deg} terms",
                    *node.span)
    elif isinstance(node, Comp):
        inner = _check_node(node.inner, env, degrees)
        outer = _check_node(node.outer, env, degrees)
        if not 0 <= node.index <= inner - 1:
            raise ScriptTypeError(
                f"composition index {node.index} outside 0..{inner - 1} "
                f"for a degree {inner} element", *node.span)
        degree = inner + outer - 1
    elif isinstance(node, Call):
        degree = _CALLS[node.head][1](
            [_check_node(a, env, degrees) for a in node.args])
    else:
        raise ScriptTypeError(f"unknown node {type(node).__name__}")
    degrees[id(node)] = degree
    return degree


def _check(script: Script) -> tuple:
    """The final expression's degree and the degree of each compound
    node, by id."""
    env = {"mu": 2}
    seen = set()
    for decl in script.decls:
        if decl.name == "mu" and decl.degree != 2:
            raise ScriptTypeError("mu must have degree 2", *decl.span)
        if decl.name in seen:
            raise ScriptTypeError(f"{decl.name!r} declared twice", *decl.span)
        seen.add(decl.name)
        env[decl.name] = decl.degree
    degrees = {}
    try:
        return _check_node(script.body, env, degrees), degrees
    except RecursionError:
        raise ScriptSyntaxError(_TOO_DEEP, *script.span) from None


# ---------------------------------------------------------------------------
# evaluation

def _resolve(name: str, degree: int, decl: Decl | None, backend, bindings, rng):
    if bindings and name in bindings:
        el = bindings[name]
        if el.degree != degree:
            raise ScriptTypeError(
                f"binding for {name!r} has degree {el.degree}, "
                f"declared {degree}")
        return el
    if decl is not None and decl.literal is not None:
        if not isinstance(backend, EndoBackend):
            raise UnsupportedRing(
                "table literals only make sense on the endo backend")
        table = endo.make_map(backend.ring, backend.dim, degree, decl.literal)
        return GradedElement(backend, table)
    if backend.kind == "free" and backend.signature.has(name):
        el = backend.generator(name)
        if el.degree != degree:
            raise ScriptTypeError(
                f"generator {name!r} has degree {el.degree}, "
                f"declared {degree}")
        return el
    if rng is not None and backend.kind == "endo":
        return backend.random(degree, rng)
    raise MissingAssignment(f"no value for {name!r} of degree {degree}")


def _folded(c, node: Node):
    """(c * k, item) for node = k * item, every scale of node folded into
    c; (c, node) for any other node."""
    while isinstance(node, Scale):
        c *= node.coeff
        node = node.item
    return c, node


def eval_script(script: Script | str, backend, bindings=None, rng=None):
    """Evaluate a script against a backend.

    Names resolve in order: explicit binding, table literal from the
    declaration, generator of the same name (free backend), random draw
    when an rng is supplied (endo backend). mu is implicitly declared
    with degree 2 and resolves the same way.

    Every node but a name and I is evaluated as a sum; a node that is not
    a Sum is a sum of one item. Its comp and call items are one joint sum
    of regions (backends.joint_sum): a comp is a region of one point and a
    call gives its operation's regions, each scaled by the item's sign and
    any coefficient k of a k * item, so no such item is built as an
    element of its own, and the points of two or more operands (those of
    cup, tri and tetra calls) that end in the same operand (a name, mu or
    I) and slot share its composition. The sum's other items, names,
    I and nested sums, are added to that result in one streamed
    signed_sum, a scaled item folded into its coefficient; a sum of them
    alone is that signed_sum.
    """
    if isinstance(script, str):
        script = parse_script(script)
    _, degrees = _check(script)
    decls = {d.name: d for d in script.decls}
    env = {}
    for decl in script.decls:
        env[decl.name] = _resolve(decl.name, decl.degree, decl, backend,
                                  bindings, rng)
    mu = env.get("mu")
    if mu is None:
        mu = _resolve("mu", 2, decls.get("mu"), backend, bindings, rng)
        env["mu"] = mu
    ctx = PreOperadContext(backend, mu)

    def regions(c, node: Node):
        """The regions of c * node, a comp or a call, its arguments built
        as they are drawn."""
        if isinstance(node, Comp):
            return ((c, walk(node.inner), (walk(node.outer),),
                     ((node.index,),)),)
        return _CALLS[node.head][2](ctx, c, *[walk(a) for a in node.args])

    def walk(node: Node):
        if isinstance(node, Name):
            if node.name not in env:
                raise MissingAssignment(f"no value for {node.name!r}")
            return env[node.name]
        if isinstance(node, Unit):
            return ctx.unit
        degree = degrees[id(node)]
        items = [_folded(sign, item) for sign, item in
                 (node.items if isinstance(node, Sum) else ((1, node),))]
        fused = [(c, x) for c, x in items if isinstance(x, (Comp, Call))]
        # a name, I or a nested sum (not flattened) is a whole element
        rest = ((c, walk(x)) for c, x in items
                if not isinstance(x, (Comp, Call)))
        if fused:
            total = joint_sum(backend, degree, chain.from_iterable(
                regions(c, x) for c, x in fused))
            if len(fused) == len(items):
                return total
            rest = chain([(1, total)], rest)
        return signed_sum(backend, degree, rest)

    try:
        return walk(script.body)
    except RecursionError:
        raise ScriptSyntaxError(_TOO_DEEP, *script.span) from None
