import tracemalloc

import numpy as np
import pytest

from preoperad.backends import EndoBackend, FreeBackend
from preoperad.calculus import (
    PreOperadContext,
    braces,
    bracket,
    bullet,
    cup,
    delta,
)
from preoperad.errors import (
    MissingAssignment,
    ScriptSyntaxError,
    ScriptTypeError,
    UnsupportedRing,
)
from preoperad.free import Signature, tree_to_sexpr
from preoperad.rings import CoefficientRing
from preoperad.script import (
    Call,
    Decl,
    Name,
    Script,
    Sum,
    _check,
    eval_script,
    parse_script,
)

F97 = CoefficientRing.prime_field(97)

CUP_SCRIPT = """\
# dim-1 tables: cup(f, g) = -mu(f, g)
let mu: deg 2 = [1];
let f: deg 1 = [2];
let g: deg 1 = [3];
cup(f, g)
"""

# scripts of every node kind, one statement a line
ROUND_TRIP_CORPUS = [
    "let f : deg 1;\ncup(f, f)",
    "let f : deg 1;\nlet g : deg 2;\ncomp(g, f, 1)",
    "let f : deg 1;\ncup(f, f) + delta(f)",
    "let f : deg 1;\n2 * cup(f, f) - delta(f)",
    "let h : deg 3;\ntetra(h, h, h, h)",
    "let f : deg 2;\nbracket(f, mu) + bul(f, mu) - bul(mu, f)",
    "let f : deg 1;\ncup(I, f) + cup(f, I)",
    "let h : deg 2;\nlet f : deg 1;\ntri(h, f, f) + comp(comp(h, f, 0), f, 1)",
    "let f : deg 1;\ncup(f, 3 * I) - 2 * cup(I, f)",
    "let h : deg 2;\nlet f : deg 1;\nh - 4 * comp(h, f, 1)",
    "let f : deg 2;\n3 * (f + bul(f, I)) - (2 * f)",
    "let f : deg 1;\n2 * (3 * (5 * delta(f))) + 0 * cup(I, f)",
]


def endo1():
    return EndoBackend(F97, 1)


def check_script(script):
    """The degree of script's final expression; raises on clashes or bad
    indices."""
    return _check(script)[0]


def test_parse_basic_script():
    script = parse_script("let f: deg 1; let g: deg 1; cup(f, g)")
    assert [d.name for d in script.decls] == ["f", "g"]
    assert isinstance(script.body, Call) and script.body.head == "cup"
    assert check_script(script) == 2


def test_parse_trailing_comma_is_error():
    with pytest.raises(ScriptSyntaxError) as info:
        parse_script("let f: deg 1; let g: deg 1; comp(f, g,)")
    assert info.value.line == 1
    assert "index" in str(info.value)


def test_parse_tetra_call():
    script = parse_script("let h: deg 3; tetra(h, h, h, h)")
    assert check_script(script) == 4 * 3 - 3


def test_comments_and_whitespace_ignored():
    script = parse_script("# title\nlet f: deg 1;  # inline\n\n cup(f, f)\n")
    assert check_script(script) == 2


def test_unknown_character_reports_position():
    with pytest.raises(ScriptSyntaxError) as info:
        parse_script("let f: deg 1;\nf @ f")
    assert info.value.line == 2
    assert info.value.col == 3


@pytest.mark.parametrize("text,fragment", [
    ("let let: deg 1; let", "reserved"),
    ("let cup: deg 1; cup", "reserved"),
    ("let I: deg 1; I", "reserved"),
    ("let f: deg 0; f", "degrees must be >= 1"),
    ("let f deg 1; f", "':'"),
    ("let f: deg 1 f", "';'"),
    ("let f: deg 1; comp(f, f, -1)", "index"),
    ("let f: deg 1; cup(f f)", None),
    ("let f: deg 1; cup(f,", None),
    ("let f: deg 1; f +", None),
    ("let f: deg 1; f f", None),
    ("let f: deg 1; 2 f", "'*'"),
])
def test_syntax_errors(text, fragment):
    with pytest.raises(ScriptSyntaxError) as info:
        parse_script(text)
    if fragment:
        assert fragment in str(info.value)


@pytest.mark.parametrize("text,fragment", [
    ("let f: deg 1; let g: deg 2; f + g", "degree"),
    ("let f: deg 2; comp(f, f, 2)", "index 2 outside 0..1"),
    ("cup(f, g)", "undeclared"),
    ("let f: deg 1; let f: deg 2; f", "twice"),
    ("let mu: deg 3; mu", "mu must have degree 2"),
    ("let f: deg 1; delta(f) + f", "degree"),
])
def test_type_errors(text, fragment):
    script = parse_script(text)
    with pytest.raises(ScriptTypeError) as info:
        check_script(script)
    assert fragment in str(info.value)


def test_arity_mismatch_is_syntax_error():
    with pytest.raises(ScriptSyntaxError):
        parse_script("let f: deg 1; delta(f, f)")
    with pytest.raises(ScriptSyntaxError):
        parse_script("let f: deg 1; cup(f)")


def test_degree_rules():
    assert check_script(parse_script("let f: deg 1; delta(f)")) == 2
    assert check_script(parse_script("let f: deg 2; let g: deg 3; bul(f, g)")) == 4
    assert check_script(parse_script("let f: deg 2; bracket(f, f)")) == 3
    assert check_script(parse_script(
        "let h: deg 3; let f: deg 1; tri(h, f, f)")) == 3
    assert check_script(parse_script("cup(I, I)")) == 2
    assert check_script(parse_script(
        "let f: deg 2; let g: deg 1; comp(f, g, 1)")) == 2


def test_mu_usable_without_declaration():
    assert check_script(parse_script("let f: deg 1; bul(mu, f)")) == 2


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_format_parse_round_trip(text):
    # the script reformatted onto one line parses to the same tree, and
    # evaluates on random dim-2 tables to an element of its checked degree
    script = parse_script(text)
    assert parse_script(" ".join(text.split())) == script
    value = eval_script(script, EndoBackend(F97, 2),
                        rng=np.random.default_rng(3))
    assert value.degree == check_script(script)


@pytest.mark.parametrize("backend", [
    EndoBackend(F97, 2),
    FreeBackend(F97, Signature((("h", 3), ("f", 1), ("g", 1), ("mu", 2)))),
], ids=["endo", "free"])
def test_five_node_kinds(backend):
    decls = "let h: deg 3; let f: deg 1; let g: deg 1; "
    nested = parse_script(decls + "2 * (3 * tri(h, f, g))")
    flat = parse_script(decls + "6 * tri(h, f, g)")
    assert nested == flat
    assert flat.body == Sum(items=((6, Call(head="tri", args=(
        Name(name="h"), Name(name="f"), Name(name="g")))),))
    assert (eval_script(nested, backend, rng=np.random.default_rng(4))
            == eval_script(flat, backend, rng=np.random.default_rng(4)))
    zero = eval_script("3 * I - I - I - I", backend,
                       rng=np.random.default_rng(4))
    assert zero.degree == 1 and zero.is_zero()
    assert parse_script("I").body == Name(name="I")
    assert parse_script("let f: deg 2; comp(f, mu, 1)").body == Call(
        head="comp", args=(Name(name="f"), Name(name="mu"), 1))


def test_eval_cup_table_oracle():
    value = eval_script(CUP_SCRIPT, endo1())
    assert value.degree == 2
    assert value.serialize()["entries"] == [91]


def test_eval_even_degree_coboundary_vanishes():
    text = "let mu: deg 2 = [1]; let f: deg 2 = [5]; delta(f)"
    value = eval_script(text, endo1())
    assert value.degree == 3
    assert value.serialize()["entries"] == [0]


def test_eval_sum_scale_and_unit():
    # comp(f, I, 0) absorbs the unit, so the whole sum is 2 * f
    text = "let f: deg 1 = [4]; 2 * f + f - comp(f, I, 0)"
    value = eval_script("let mu: deg 2 = [1]; " + text, endo1())
    direct = eval_script("let mu: deg 2 = [1]; let f: deg 1 = [4]; 2 * f",
                         endo1())
    assert value == direct
    assert value.serialize()["entries"] == [8]


def test_eval_free_composition_word():
    sig = Signature((("h", 2), ("f", 1), ("mu", 2)))
    backend = FreeBackend(F97, sig)
    value = eval_script("let h: deg 2; let f: deg 1; comp(h, f, 0)", backend)
    terms = value.serialize()["terms"]
    assert len(terms) == 1
    assert terms[0][0] == "(h (f _) _)"
    assert terms[0][1] == 1


def test_eval_literal_on_free_backend_rejected():
    sig = Signature((("f", 1), ("mu", 2)))
    backend = FreeBackend(F97, sig)
    with pytest.raises(UnsupportedRing):
        eval_script("let f: deg 1 = [3]; f", backend)


def test_eval_bindings_override_and_degree_check():
    backend = endo1()
    rng = np.random.default_rng(5)
    f = backend.random(1, rng)
    value = eval_script("let f: deg 1; cup(f, f)", backend,
                        bindings={"f": f, "mu": backend.random(2, rng)})
    assert value.degree == 2
    wrong = backend.random(3, rng)
    with pytest.raises(ScriptTypeError):
        eval_script("let f: deg 1; cup(f, f)", backend,
                    bindings={"f": wrong, "mu": backend.random(2, rng)})


def test_eval_random_draws_are_seeded():
    backend = endo1()
    text = "let f: deg 1; let g: deg 2; bul(g, f)"
    one = eval_script(text, backend, rng=np.random.default_rng(11))
    two = eval_script(text, backend, rng=np.random.default_rng(11))
    other = eval_script(text, backend, rng=np.random.default_rng(12))
    assert one == two
    assert one != other


def test_eval_without_rng_or_binding_raises():
    with pytest.raises(MissingAssignment):
        eval_script("let f: deg 1; f", endo1())


def test_eval_resolves_only_the_names_the_body_reads():
    backend = EndoBackend(F97, 2)
    rng = np.random.default_rng(7)
    f, g = backend.random(2, rng), backend.random(2, rng)
    # no mu and no value for the unused h: comp reads neither
    value = eval_script("let h: deg 3; let f: deg 2; let g: deg 2; "
                        "comp(f, g, 1)", backend, bindings={"f": f, "g": g})
    assert value == f.compose(g, 1)
    # a binding of another degree for an unused name is not looked at
    assert eval_script("let h: deg 3; let f: deg 2; f", backend,
                       bindings={"f": f, "h": g}) == f
    # mu is read when it is named or a cup or delta is called
    for body in ("mu", "cup(f, f)", "delta(g)", "bul(f, mu)",
                 "g + 0 * delta(f)"):
        with pytest.raises(MissingAssignment, match="'mu'"):
            eval_script(f"let f: deg 1; let g: deg 2; {body}", backend,
                        bindings={"f": backend.random(1, rng), "g": g})
    # I is the backend's unit, with or without mu
    assert eval_script("let f: deg 2; comp(f, I, 0) - f", backend,
                       bindings={"f": f}).is_zero()


def test_unused_names_draw_nothing_and_shift_no_draw():
    # drawn in the order of declaration, each name the body reads; an
    # unused g before or between them would be a draw
    backend = EndoBackend(F97, 2)
    bare = eval_script("let f: deg 2; let b: deg 1; cup(f, b)", backend,
                       rng=np.random.default_rng(3))
    for decls in ("let g: deg 3; let f: deg 2; let b: deg 1;",
                  "let f: deg 2; let g: deg 7; let b: deg 1;"):
        got = eval_script(decls + " cup(f, b)", backend,
                          rng=np.random.default_rng(3))
        assert got == bare, decls
    # a declared mu that cup reads is drawn where it is declared
    first = eval_script("let mu: deg 2; let f: deg 2; let b: deg 1; "
                        "cup(f, b)", backend, rng=np.random.default_rng(3))
    assert first != bare
    # the unused degree-25 name would be 2^26 entries, 512 MB as drawn
    tracemalloc.start()
    try:
        got = eval_script("let g: deg 25; let f: deg 1; f", backend,
                          rng=np.random.default_rng(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got == eval_script("let f: deg 1; f", backend,
                              rng=np.random.default_rng(3))


def test_eval_checks_types_first():
    with pytest.raises(ScriptTypeError):
        eval_script("let f: deg 1; let g: deg 2; f + g", endo1(),
                    rng=np.random.default_rng(0))


def test_comp_maps_to_partial_composition():
    backend = endo1()
    rng = np.random.default_rng(9)
    f = backend.random(2, rng)
    g = backend.random(2, rng)
    mu = backend.random(2, rng)
    value = eval_script("let f: deg 2; let g: deg 2; comp(f, g, 1)", backend,
                        bindings={"f": f, "g": g, "mu": mu})
    assert value == f.compose(g, 1)


# every kind of item a sum takes: a name, k * x, a nested sum, comp and
# every call head, so the sum is a compose_sum of the comp and call items
# added to the others; I, of degree 1, enters in the sums in the arguments,
# one of which has no comp or call item. Each item comes with its value
# built from the public operations, f, g and mu, the context and its unit.
SUM_TERMS = [
    (1, "comp(f, g, 0)", lambda ctx, f, g, mu, I: f.compose(g, 0)),
    (-1, "comp(f, g, 1)", lambda ctx, f, g, mu, I: f.compose(g, 1)),
    (1, "cup(g, g)", lambda ctx, f, g, mu, I: cup(ctx, g, g)),
    (-1, "3 * bul(f, g)", lambda ctx, f, g, mu, I: 3 * bullet(f, g)),
    (1, "bracket(f, g)", lambda ctx, f, g, mu, I: bracket(f, g)),
    (-1, "delta(g)", lambda ctx, f, g, mu, I: delta(ctx, g)),
    (1, "f", lambda ctx, f, g, mu, I: f),
    (-1, "2 * comp(mu, g, 1)", lambda ctx, f, g, mu, I: 2 * mu.compose(g, 1)),
    (1, "comp(g, f, 0)", lambda ctx, f, g, mu, I: g.compose(f, 0)),
    (1, "tri(f, g, g)", lambda ctx, f, g, mu, I: braces(f, g, g)),
    (-1, "tetra(f, g, g, g)", lambda ctx, f, g, mu, I: braces(f, g, g, g)),
    (1, "2 * (f - cup(g, I) + comp(f, I, 1))",
     lambda ctx, f, g, mu, I: 2 * (f - cup(ctx, g, I) + f.compose(I, 1))),
    (-1, "cup(g - 2 * I + 3 * (I + g), g)",
     lambda ctx, f, g, mu, I: cup(ctx, g - 2 * I + 3 * (I + g), g)),
    (-1, "4 * f", lambda ctx, f, g, mu, I: 4 * f)]


def _backends():
    sig = Signature((("f", 2), ("g", 1), ("mu", 2)))
    return [EndoBackend(F97, 2), FreeBackend(F97, sig)]


@pytest.mark.parametrize("backend", _backends(), ids=["endo", "free"])
def test_a_streamed_sum_equals_its_pairwise_expansion(backend):
    rng = np.random.default_rng(21)
    if backend.kind == "endo":
        bindings = {"f": backend.random(2, rng), "g": backend.random(1, rng),
                    "mu": backend.random(2, rng)}
        f, g, mu = bindings["f"], bindings["g"], bindings["mu"]
    else:
        bindings = None
        f, g, mu = (backend.generator(n) for n in ("f", "g", "mu"))
    decls = "let f: deg 2; let g: deg 1;\n"
    body = SUM_TERMS[0][1] + "".join(
        f" {'+' if c > 0 else '-'} {text}" for c, text, _ in SUM_TERMS[1:])
    value = eval_script(decls + body, backend, bindings=bindings)
    ctx = PreOperadContext(backend, mu)
    total = None
    for c, _, build in SUM_TERMS:
        term = build(ctx, f, g, mu, ctx.unit)
        total = term if total is None else (total + term if c > 0 else total - term)
    assert value.degree == 2 and not value.is_zero()
    assert value == total


@pytest.mark.parametrize("backend", _backends(), ids=["endo", "free"])
def test_a_degree_clash_late_in_a_sum_is_a_type_error(backend):
    text = "let f: deg 2; let g: deg 1; f - comp(f, g, 0) + f - cup(f, g)"
    with pytest.raises(ScriptTypeError):
        eval_script(text, backend, rng=np.random.default_rng(0))


def test_a_streamed_sum_holds_one_term_beside_its_buffer():
    # five full-size terms of 4^9 entries from small inputs: the sum holds
    # its buffer and the term being built (a composition and its reduction
    # scratch); adding pairwise would also hold the old total and a negated
    # copy, about four tables
    backend = EndoBackend(F97, 4)
    rng = np.random.default_rng(3)
    bindings = {"f": backend.random(5, rng), "g": backend.random(4, rng),
                "mu": backend.random(2, rng)}
    script = parse_script("let f: deg 5; let g: deg 4;\n"
                          "comp(f, g, 0) - comp(f, g, 1) + comp(f, g, 2) "
                          "- comp(f, g, 3) + comp(f, g, 4)")
    table_bytes = 4**9 * bindings["f"].payload.table.itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = eval_script(script, backend, bindings=bindings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.degree == 8
    assert peak - base < 2.5 * table_bytes


def test_a_sum_of_compositions_adds_each_into_its_buffer():
    # the same five terms are composites of one compose_sum: each product
    # is added into the one buffer as it is made (block by block in
    # float64), and no term is a table of its own; as signed_sum terms they
    # peaked at 2.26 tables
    backend = EndoBackend(F97, 4)
    rng = np.random.default_rng(3)
    bindings = {"f": backend.random(5, rng), "g": backend.random(4, rng),
                "mu": backend.random(2, rng)}
    script = parse_script("let f: deg 5; let g: deg 4;\n"
                          "comp(f, g, 0) - comp(f, g, 1) + comp(f, g, 2) "
                          "- comp(f, g, 3) + comp(f, g, 4)")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = eval_script(script, backend, bindings=bindings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.degree == 8
    assert peak - base < 1.5 * 4**9 * 8


def _nested_scales(depth):
    node = Name(name="f")
    for _ in range(depth):
        node = Sum(items=((1, node),))
    return node


def _nested_sums(depth):
    node = Name(name="f")
    for _ in range(depth):
        node = Sum(items=((1, node), (-1, Name(name="f"))))
    return node


@pytest.mark.parametrize("body", [_nested_scales(5000), _nested_sums(5000),
                                  _nested_sums(300)],
                         ids=["check-scales", "check-sums", "eval-sums"])
def test_nesting_too_deep_is_a_syntax_error(body):
    # 300 nested sums pass the degree check but not the evaluator, whose
    # streamed sums take more stack per level
    script = Script(decls=(Decl(name="f", degree=1, literal=None),), body=body)
    with pytest.raises(ScriptSyntaxError, match="nested too deeply"):
        eval_script(script, endo1(), rng=np.random.default_rng(0))

