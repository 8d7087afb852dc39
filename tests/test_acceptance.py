"""Full-scale acceptance runs, one test per claim.

Each test exercises the library at its published trial counts and asserts
exact equality throughout: there are no tolerances anywhere in this file.
Run with -v to get one pass/fail line per claim.
"""
import json
import time

import jsonschema
import numpy as np

from preoperad import cli, laws
from preoperad.backends import EndoBackend, GradedElement
from preoperad.calculus import KNOWN_MUTATIONS, PreOperadContext, bullet, delta
from preoperad.domains import full_scope, scope_regions
from preoperad.endo import componentwise_product, matrix_algebra_product
from preoperad.laws import SUITE_SCHEMA, TrialConfig
from preoperad.rings import CoefficientRing

RELATION_LAW_IDS = ("L02-relation-left", "L03-relation-nested",
                    "L04-relation-right")
CORE_LAW_IDS = ("L06-cup-product", "L07-cup-compose", "L09-right-derivation",
                "L10-delta-expansion", "L11-bullet-deviation", "L13-getzler",
                "L14-gerstenhaber-symmetry", "L15-tri-deviation",
                "L16-tri-deviation-bracket")
TELESCOPE_LAW_IDS = ("L18-lemma-first", "L19-lemma-second",
                     "L20-boundary-gamma", "L21-boundary-gamma1",
                     "L22-boundary-gamma2", "L23-boundary-gamma3",
                     "L24-gamma-recap", "L25-envelope-partition")


def run_clean(law_id, **kwargs):
    report = laws.run_law(law_id, TrialConfig(**kwargs))
    assert report.status == "pass", (law_id, kwargs, report.failures[:1])
    assert not report.failures
    assert not report.underpowered, (law_id, kwargs)
    return report


def test_composition_relations_across_fields_and_dims():
    """Both exchange relations and the nesting relation hold at every scope
    index, over two prime fields and two module dimensions, and the scope
    splits exactly into the left, nested and right regions."""
    start = time.perf_counter()
    for prime in (97, 101):
        for dim in (1, 2):
            for law_id in RELATION_LAW_IDS:
                run_clean(law_id, backend="endo", prime=prime, dim=dim,
                          trials=200, seed=101)
    for deg_h in range(1, 7):
        for deg_f in range(1, 7):
            whole = set(full_scope(deg_h, deg_f))
            regions = [set(r.points) for r in scope_regions(deg_h, deg_f)]
            assert set().union(*regions) == whole
            assert sum(len(r) for r in regions) == len(whole)
    assert time.perf_counter() - start < 60.0


def test_product_and_brace_laws_zero_failures():
    """Cup, coboundary, bullet and triple-brace laws: 200 dense-table trials
    per law per dimension with zero failures and at least half the trials
    non-vacuous."""
    start = time.perf_counter()
    for dim in (1, 2):
        for law_id in CORE_LAW_IDS:
            run_clean(law_id, backend="endo", prime=97, dim=dim,
                      trials=200, seed=202)
    assert time.perf_counter() - start < 120.0


def test_quadruple_brace_deviation_theorem():
    """The coboundary deviation of the quadruple brace collapses to its four
    cup and brace terms in every one of 200 trials per field and dimension,
    with outer degree >= 3 enforced in at least half of the trials."""
    start = time.perf_counter()
    law = laws.get_law("L08-main-theorem")
    for prime in (97, 101):
        for dim in (1, 2):
            cfg = TrialConfig(backend="endo", prime=prime, dim=dim,
                              trials=200, seed=303)
            run_clean("L08-main-theorem", backend="endo", prime=prime,
                      dim=dim, trials=200, seed=303)
            # redraw the engine's trials to count the forced quota
            big = sum(degrees["h"] >= 3
                      for _, _, degrees in laws._draws(law, cfg))
            assert big >= 100, (prime, dim, big)
    assert time.perf_counter() - start < 120.0


def test_telescoping_and_boundary_machinery():
    """The auxiliary telescoping variables: both pointwise telescoping sums,
    all four boundary-face closed forms, the recapitulation against the raw
    shifted forms, and the envelope partition, 100 trials each."""
    start = time.perf_counter()
    for law_id in TELESCOPE_LAW_IDS:
        run_clean(law_id, backend="endo", prime=97, dim=2,
                  trials=100, seed=404)
    assert time.perf_counter() - start < 180.0


def test_associative_fixture_products():
    """For componentwise products in dimensions 1..3 and the 2x2 matrix
    algebra in dimension 4: mu bullet mu vanishes and the coboundary squares
    to zero on 100 random inputs of degree <= 4 each, while a random product
    is observed not to be associative."""
    start = time.perf_counter()
    ring = CoefficientRing.prime_field(97)
    rng = np.random.default_rng(505)
    fixtures = [(d, componentwise_product(ring, d)) for d in (1, 2, 3)]
    fixtures.append((4, matrix_algebra_product(ring)))
    for dim, mu_map in fixtures:
        backend = EndoBackend(ring, dim)
        mu = GradedElement(backend, mu_map)
        ctx = PreOperadContext(backend, mu)
        assert bullet(mu, mu) == backend.zero(3)
        for _ in range(25):
            for degree in (1, 2, 3, 4):
                f = backend.random(degree, rng)
                assert delta(ctx, delta(ctx, f)) == backend.zero(degree + 2)
    random_mu = EndoBackend(ring, 2).random(2, np.random.default_rng(55))
    assert bullet(random_mu, random_mu) != EndoBackend(ring, 2).zero(3)
    for dim in (1, 2, 3, 4):
        run_clean("L12-delta-squared", backend="endo", prime=97, dim=dim,
                  trials=100, seed=505)
    assert time.perf_counter() - start < 60.0


def test_symbolic_words_map_to_tables():
    """On 200 random pairs of tables f, g and a random product mu, each
    operation of two inputs (cup, bullet, bracket, delta, dev_braces)
    built on symbolic generators evaluates through the generator
    assignment to exactly the dense table computed directly."""
    start = time.perf_counter()
    run_clean("L27-cross-backend", backend="endo", prime=97, dim=2,
              trials=200, seed=606)
    assert time.perf_counter() - start < 60.0


def test_canary_mutations_each_break_at_least_one_law():
    """Every documented mutation hook (cup sign flip, dropped exchange sign,
    off-by-one brace range) makes at least one law fail within 50 trials."""
    for mutation in KNOWN_MUTATIONS:
        cfg = TrialConfig(backend="endo", prime=97, dim=1, trials=50,
                          seed=707, mutations=(mutation,))
        suite = laws.run_suite(cfg)
        failed = [r["law_id"] for r in suite["laws"] if r["status"] == "fail"]
        assert failed, mutation
        assert suite["status"] == "fail"


def test_cli_end_to_end(tmp_path, capsys):
    """verify over every law exits 0 with a schema-valid report; a seeded
    canary run exits 1, reproduces byte-for-byte modulo timing, and its
    witness replays and shrinks while still failing."""
    report_path = tmp_path / "clean.json"
    code = cli.main(["verify", "--law", "all", "--dim", "1", "--trials", "50",
                     "--seed", "8", "--report", str(report_path)])
    capsys.readouterr()
    assert code == 0
    suite = json.loads(report_path.read_text())
    jsonschema.validate(suite, SUITE_SCHEMA)
    assert suite["status"] == "pass"
    assert len(suite["laws"]) >= 18

    out_a = tmp_path / "canary-a.json"
    out_b = tmp_path / "canary-b.json"
    for path in (out_a, out_b):
        # 23 trials are the fewest that catch the canary at every seed 0-19
        code = cli.main(["verify", "--law", "L02-relation-left", "--dim", "2",
                         "--trials", "24", "--seed", "2",
                         "--mutate", "b-relation-sign-drop",
                         "--report", str(path)])
        capsys.readouterr()
        assert code == 1
    first = json.loads(out_a.read_text())
    second = json.loads(out_b.read_text())
    for doc in (first, second):
        for rep in doc["laws"]:
            rep.pop("millis")
    assert first == second
    witness = first["laws"][0]["failures"][0]
    assert laws.replay(witness) is not None
    small = laws.shrink(witness)
    assert sum(small["degrees"].values()) < sum(witness["degrees"].values())
    assert laws.replay(small) is not None
