import copy
import json
from pathlib import Path

import jsonschema
import pytest

from preoperad import laws
from preoperad.backends import EndoBackend, GradedElement
from preoperad.calculus import KNOWN_MUTATIONS
from preoperad.endo import make_map, stack_rows
from preoperad.errors import (
    BadConfig,
    IndexOutOfScope,
    ShapeMismatch,
    TableTooLarge,
    UnknownLaw,
)
from preoperad.laws import REPORT_SCHEMA, SUITE_SCHEMA, TrialConfig
from preoperad.rings import CoefficientRing

_F97_LINE = EndoBackend(CoefficientRing.prime_field(97), 1)
ONE, TWO = (GradedElement(_F97_LINE, make_map(_F97_LINE.ring, 1, 1, [c]))
            for c in (1, 2))
ZERO = _F97_LINE.zero(1)


def rows(*values):
    """A 3-row stacked degree-1 element over the F_97 line."""
    return GradedElement(_F97_LINE, stack_rows(
        [make_map(_F97_LINE.ring, 1, 1, [c]) for c in values]))


def line(c):
    return GradedElement(_F97_LINE, make_map(_F97_LINE.ring, 1, 1, [c]))


# stands for a claim that must never be drawn
UNREACHED = object()

QUICK = TrialConfig(backend="endo", prime=97, dim=1, trials=10, seed=0)

# frozen canary run: known to fail with degrees f=4, g=4, h=2
SHRINK_CFG = TrialConfig(backend="endo", prime=97, dim=2, trials=8, seed=2,
                         mutations=("b-relation-sign-drop",))


def test_registry_size_and_ids():
    all_laws = laws.list_laws()
    ids = [law.law_id for law in all_laws]
    assert len(all_laws) >= 18
    assert len(set(ids)) == len(ids)
    assert "L08-main-theorem" in ids
    assert "L12-delta-squared" in ids


def test_registry_metadata_nonempty():
    for law in laws.list_laws():
        assert law.description.strip()
        assert law.slots
        assert set(law.backends) <= {"endo", "free"}
        assert callable(law.checker)


def test_get_law_unknown():
    with pytest.raises(UnknownLaw):
        laws.get_law("L99-perpetual-motion")
    with pytest.raises(UnknownLaw):
        laws.run_law("L99-perpetual-motion", QUICK)


def test_laws_for_backend_respects_declared_backends():
    free_ids = {law.law_id for law in laws.laws_for_backend("free")}
    endo_ids = {law.law_id for law in laws.laws_for_backend("endo")}
    assert "L12-delta-squared" in endo_ids
    assert "L12-delta-squared" not in free_ids
    assert "L08-main-theorem" in free_ids


@pytest.mark.parametrize("kwargs", [
    {"prime": 6},
    {"prime": 0},
    {"trials": 0},
    {"seed": -1},
    {"dim": 0},
    {"backend": "quantum"},
    {"degree_min": 3, "degree_max": 2},
    {"degree_min": 0},
    {"mutations": ("definitely-not-a-hook",)},
])
def test_bad_configs_rejected(kwargs):
    base = {"trials": 2}
    base.update(kwargs)
    with pytest.raises(BadConfig):
        laws.run_law("L05-unit-laws", TrialConfig(**base))


@pytest.mark.parametrize("backend", ["endo", "free"])
def test_dimensions_past_the_entry_cap_are_refused(backend):
    # the degree budget is unchanged; dim 6 keeps 6^10 entries under 2^26
    assert TrialConfig(dim=2).degree_budget == 12
    assert TrialConfig(dim=3).degree_budget == 9
    TrialConfig(backend=backend, dim=6).validate()
    for dim in (7, 9000):
        with pytest.raises(TableTooLarge):
            TrialConfig(backend=backend, dim=dim).validate()


def test_backend_restriction_is_bad_config():
    with pytest.raises(BadConfig):
        laws.run_law("L12-delta-squared", TrialConfig(backend="free", trials=2))


def test_degree_floor_exceeding_budget_is_bad_config():
    # four slots at forced degree 3 need 12 but dim 3 only budgets 9
    cfg = TrialConfig(dim=3, degree_min=3, degree_max=3, trials=2)
    with pytest.raises(BadConfig):
        laws.run_law("L25-envelope-partition", cfg)


def test_run_law_deterministic_modulo_millis():
    cfg = TrialConfig(dim=2, trials=12, seed=7)
    first = laws.run_law("L02-relation-left", cfg).to_dict()
    second = laws.run_law("L02-relation-left", cfg).to_dict()
    first.pop("millis")
    second.pop("millis")
    assert first == second


def test_trial_rng_deterministic():
    a = laws._trial_rng("L08-main-theorem", 0, 4, 1)
    b = laws._trial_rng("L08-main-theorem", 0, 4, 1)
    assert list(a.integers(0, 97, 16)) == list(b.integers(0, 97, 16))


def test_trial_rng_salted_by_law():
    a = laws._trial_rng("L02-relation-left", 0, 0, 0)
    b = laws._trial_rng("L03-relation-nested", 0, 0, 0)
    assert list(a.integers(0, 97, 16)) != list(b.integers(0, 97, 16))


def test_clean_quick_suite_passes():
    suite = laws.run_suite(QUICK, ["L02-relation-left", "L05-unit-laws",
                                   "L06-cup-product", "L08-main-theorem"])
    assert suite["status"] == "pass"
    assert [r["law_id"] for r in suite["laws"]] == [
        "L02-relation-left", "L05-unit-laws", "L06-cup-product",
        "L08-main-theorem"]
    jsonschema.validate(suite, SUITE_SCHEMA)


def test_report_schema_on_pass_and_fail():
    clean = laws.run_law("L05-unit-laws", QUICK).to_dict()
    jsonschema.validate(clean, REPORT_SCHEMA)
    bad = laws.run_law("L02-relation-left", SHRINK_CFG).to_dict()
    assert bad["status"] == "fail"
    jsonschema.validate(bad, REPORT_SCHEMA)


def test_all_vacuous_run_is_underpowered_but_passing():
    cfg = TrialConfig(trials=6, degree_max=1)
    report = laws.run_law("L02-relation-left", cfg)
    assert report.status == "pass"
    assert report.vacuous == 6
    assert report.underpowered
    assert not report.failures


def test_underpowered_law_fails_the_suite():
    cfg = TrialConfig(trials=6, degree_max=1)
    suite = laws.run_suite(cfg, ["L02-relation-left"])
    assert suite["laws"][0]["status"] == "pass"
    assert suite["status"] == "fail"


def test_mutation_names_are_exported():
    assert set(SHRINK_CFG.mutations) <= set(KNOWN_MUTATIONS)
    assert len(KNOWN_MUTATIONS) == 3


@pytest.mark.parametrize("mutation,broken,intact", [
    ("cup-sign-flip", "L06-cup-product", "L02-relation-left"),
    ("b-relation-sign-drop", "L02-relation-left", "L03-relation-nested"),
    ("g-range-off-by-one", "L13-getzler", "L05-unit-laws"),
])
def test_canary_mutations_break_their_targets(mutation, broken, intact):
    cfg = TrialConfig(dim=1, trials=10, seed=0, mutations=(mutation,))
    assert laws.run_law(broken, cfg).status == "fail"
    assert laws.run_law(intact, cfg).status == "pass"


def test_witness_payload_shape():
    report = laws.run_law("L02-relation-left", SHRINK_CFG)
    witness = report.failures[0]
    assert witness["law_id"] == "L02-relation-left"
    assert len(witness["seed"]) == 3 and witness["seed"][0] == 2
    assert witness["backend"] == "endo"
    assert witness["prime"] == 97 and witness["dim"] == 2
    assert witness["mutations"] == ["b-relation-sign-drop"]
    assert set(witness["degrees"]) == {"h", "f", "g"}
    assert set(witness["elements"]) == {"h", "f", "g", "mu"}
    assert witness["identity"]
    assert witness["lhs"] != witness["rhs"]


def test_replay_reproduces_failure_and_honors_mutations():
    witness = laws.run_law("L02-relation-left", SHRINK_CFG).failures[0]
    detail = laws.replay(witness)
    assert detail is not None
    assert detail.identity == witness["identity"]
    healed = dict(witness)
    healed["mutations"] = []
    assert laws.replay(healed) is None


def test_shrink_frozen_case():
    witness = laws.run_law("L02-relation-left", SHRINK_CFG).failures[0]
    assert witness["degrees"] == {"f": 4, "g": 2, "h": 3}
    small = laws.shrink(witness)
    before = sum(witness["degrees"].values())
    after = sum(small["degrees"].values())
    assert after < before
    assert small["degrees"] == {"f": 2, "g": 2, "h": 2}
    assert laws.replay(small) is not None


def test_shrink_is_idempotent():
    witness = laws.run_law("L02-relation-left", SHRINK_CFG).failures[0]
    small = laws.shrink(witness)
    again = laws.shrink(small)
    assert again["degrees"] == small["degrees"]
    assert again["elements"] == small["elements"]
    assert again["lhs"] == small["lhs"] and again["rhs"] == small["rhs"]


def _golden_witnesses(name):
    path = Path(__file__).resolve().parent / "golden" / name
    return [w for rep in json.loads(path.read_text())["laws"]
            for w in rep["failures"]]


@pytest.mark.parametrize("backend", ["endo", "free"])
def test_shrink_lowers_degrees_on_both_backends(backend):
    golden = {"endo": "l06_endo_cup_sign_flip_seed7.json",
              "free": "l06_free_cup_sign_flip_seed7_trials12.json"}[backend]
    for witness in _golden_witnesses(golden)[:4]:
        small = laws.shrink(witness)
        assert small["degrees"] == {"f": 1, "g": 1}
        assert laws.replay(small) is not None
        assert laws.shrink(small) == small
        if backend == "free":
            assert ["f", 1] in small["elements"]["mu"]["signature"]


def test_a_multi_term_free_witness_keeps_its_degrees():
    witness = copy.deepcopy(
        _golden_witnesses("l06_free_cup_sign_flip_seed7_trials12.json")[0])
    assert witness["degrees"] == {"f": 3, "g": 2}
    # two trees that are not f's generator, both holding g's
    witness["elements"]["f"]["terms"] = [["(mu (g _ _) _)", 1],
                                         ["(mu _ (g _ _))", 96]]
    assert laws.replay(witness) is not None
    small = laws.shrink(witness)
    assert small["degrees"] == {"f": 3, "g": 2}
    assert laws.replay(small) is not None
    assert laws.shrink(small) == small


def test_shrink_leaves_passing_witness_alone():
    witness = laws.run_law("L02-relation-left", SHRINK_CFG).failures[0]
    healed = dict(witness)
    healed["mutations"] = []
    assert laws.shrink(healed) == healed



@pytest.mark.parametrize("text", ["", "(f _"])
def test_replay_of_hand_edited_free_witness_is_a_clean_error(text):
    cfg = TrialConfig(backend="free", trials=2, seed=7,
                      mutations=("cup-sign-flip",))
    witness = laws.run_law("L06-cup-product", cfg).failures[0]
    witness["elements"]["f"]["terms"][0][0] = text
    with pytest.raises(ShapeMismatch):
        laws.replay(witness)


def test_forced_degree_quota_on_even_trials():
    law = laws.get_law("L08-main-theorem")
    assert law.force_first == 3
    cfg = TrialConfig(dim=1, trials=1)
    forced, unforced = [], []
    for trial in range(20):
        rng = laws._trial_rng(law.law_id, 0, trial, 0)
        force = law.force_first if trial % 2 == 0 else None
        sample = laws._sampler(law, cfg)(rng, force)
        (forced if trial % 2 == 0 else unforced).append(sample.degrees["h"])
    assert all(d >= 3 for d in forced)
    assert any(d < 3 for d in unforced)


def test_free_backend_quick_run():
    cfg = TrialConfig(backend="free", trials=4, seed=3)
    report = laws.run_law("L06-cup-product", cfg)
    assert report.status == "pass"
    assert not report.underpowered


def test_suite_rejects_backend_mismatched_subset():
    with pytest.raises(BadConfig):
        laws.run_suite(TrialConfig(backend="free", trials=2),
                       ["L12-delta-squared"])


@pytest.mark.parametrize("claims,want", [
    # the first failing claim wins and nothing after it is drawn
    ([("holds", None, ONE, ONE), ("fails", (0,), ONE, TWO),
      ("fails later", (1,), TWO, ONE), UNREACHED],
     ("fails", [0], ONE, TWO)),
    # rhs None claims that lhs is zero; the witness keeps rhs null
    ([("zero", None, ZERO, None), ("not zero", (2, 3), TWO, None), UNREACHED],
     ("not zero", [2, 3], TWO, None)),
    # sides that are not elements are compared, then stored as null
    ([("same sets", None, {(0, 1)}, {(0, 1)}), ("degrees", None, 3, 4),
      UNREACHED],
     ("degrees", None, None, None)),
    ([("point sets", None, {(0, 1)}, {(1, 0)}), UNREACHED],
     ("point sets", None, None, None)),
    ([("holds", None, ONE, ONE), ("zero", None, ZERO, None)], None),
    # batches of three list a witness per row: row 1 fails at the first
    # claim, row 0 at the second, row 2 never; each row keeps its own first
    # failure, sliced
    ([("first", (0,), rows(1, 2, 1), rows(1, 1, 1)),
      ("second", (1,), rows(2, 3, 1), ONE),
      ("third", None, rows(0, 5, 0), None)],
     [("second", [1], line(2), ONE), ("first", [0], line(2), ONE), None]),
    # once every row has failed no further claim is drawn; a single side
    # serves every row, and a side that is not an element fails them all
    ([("first", None, rows(2, 1, 1), ONE), ("second", (4,), ONE, rows(1, 3, 4)),
      UNREACHED],
     [("first", None, TWO, ONE), ("second", [4], ONE, line(3)),
      ("second", [4], ONE, line(4))]),
    ([("holds", None, rows(1, 1, 1), ONE), ("degrees", (2,), 3, 4), UNREACHED],
     [("degrees", [2], None, None)] * 3),
])
def test_first_failing_claim_is_the_witness(claims, want):
    def stream(sample):
        for claim in claims:
            if claim is UNREACHED:
                raise AssertionError("a claim after the failure was drawn")
            yield claim

    law = laws.Law("L00-hand-made", "hand-made claims", ("f",), stream)
    wants = want if isinstance(want, list) else [want]
    sample = laws.TrialSample(None, {}, {"f": 1}, {}, len(wants))
    details = law.checker(sample)
    assert len(details) == len(wants)
    for detail, row_want in zip(details, wants):
        if row_want is None:
            assert detail is None
            continue
        witness = laws._witness({"law_id": law.law_id}, sample, detail)
        identity, point, lhs, rhs = row_want
        assert witness["identity"] == identity
        assert witness["domain_point"] == point
        assert witness["lhs"] == (lhs.serialize() if lhs is not None else None)
        assert witness["rhs"] == (rhs.serialize() if rhs is not None else None)


@pytest.mark.parametrize("backend", ["endo", "free"])
def test_trials_that_share_degrees_run_as_one_batch(backend):
    # L05 draws one degree in 1..4, so 12 trials fall into at most four
    # batches at dim 2; at dim 6 a batch of the degree budget's largest
    # table would pass the entry cap, so every endo trial runs alone, while
    # symbolic trials build no table and batch as at dim 2
    calls = []
    law = laws.get_law("L05-unit-laws")
    checker = law.checker

    def counted(sample):
        calls.append(sample.rows)
        return checker(sample)

    object.__setattr__(law, "checker", counted)
    try:
        laws.run_law(law.law_id, TrialConfig(backend, dim=2, trials=12, seed=3))
        assert len(calls) <= 4 and sum(calls) == 12
        calls.clear()
        laws.run_law(law.law_id, TrialConfig(backend, dim=2, trials=3, seed=3))
        at_dim_2 = list(calls)
        calls.clear()
        laws.run_law(law.law_id, TrialConfig(backend, dim=6, trials=3, seed=3))
        if backend == "endo":
            assert calls == [1, 1, 1]
        else:
            assert calls == at_dim_2 and len(calls) < 3
    finally:
        object.__setattr__(law, "checker", checker)


@pytest.mark.parametrize("backend, prime", [
    ("endo", 97), ("free", 97), ("free", 2**61 - 1)])
def test_batched_failures_are_those_of_single_trials_in_trial_order(backend, prime):
    # past 2^61 a product of two coefficients no longer fits 64 bits
    cfg = TrialConfig(backend, prime, dim=2, trials=16, seed=5,
                      mutations=("cup-sign-flip",))
    report = laws.run_law("L06-cup-product", cfg)
    trials = [w["seed"][1] for w in report.failures]
    assert len(trials) > 4 and trials == sorted(trials)
    assert len({tuple(w["degrees"].values()) for w in report.failures}) < len(trials)
    for witness in report.failures:
        detail = laws.replay(witness)
        assert detail.identity == witness["identity"]
        assert detail.lhs.serialize() == witness["lhs"]
        assert detail.rhs.serialize() == witness["rhs"]


def _edited_word_witness(word):
    law = laws.get_law("L27-cross-backend")
    cfg = TrialConfig(dim=2, trials=1, seed=606)
    sample = laws._sampler(law, cfg)(laws._trial_rng(law.law_id, 606, 0, 0), None)
    head = {"law_id": law.law_id, "seed": [606, 0, 0], "backend": "endo",
            "prime": 97, "dim": 2, "mutations": []}
    witness = laws._witness(head, sample,
                            laws.FailDetail("hand-edited", None, None, None))
    witness["extra"] = {"word": word}
    return witness


@pytest.mark.parametrize("slot", [99, -1])
def test_replay_of_an_out_of_range_word_slot_is_an_error(slot):
    # the sampler never draws such a slot; an edited witness used to replay
    # as "no failure" because the check returned early
    assert laws.replay(_edited_word_witness([["b", 0]])) is None
    witness = _edited_word_witness([["b", slot]])
    with pytest.raises(IndexOutOfScope):
        laws.replay(witness)
    assert laws.shrink(witness) == witness


@pytest.mark.parametrize("entry", [1.5, "7", True])
def test_replay_of_a_non_integer_table_entry_is_an_error(entry):
    cfg = TrialConfig(dim=2, trials=2, seed=7, mutations=("cup-sign-flip",))
    witness = laws.run_law("L06-cup-product", cfg).failures[0]
    witness["elements"]["f"]["entries"][0] = entry
    with pytest.raises(ShapeMismatch):
        laws.replay(witness)
