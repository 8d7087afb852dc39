import copy
import inspect
import itertools
import json
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from preoperad import calculus, domains, endo, free, laws
from preoperad.backends import (
    EndoBackend,
    FreeBackend,
    GradedElement,
    compose_sum,
    joint_sum,
    signed_sum,
)
from preoperad.calculus import KNOWN_MUTATIONS, PreOperadContext
from preoperad.endo import ksign, make_map
from preoperad.errors import (
    BadConfig,
    DegreeMismatch,
    InvalidDegree,
    ShapeMismatch,
    TableTooLarge,
    UnknownLaw,
)
from preoperad.laws import REPORT_SCHEMA, SUITE_SCHEMA, TrialConfig
from preoperad.rings import CoefficientRing
from stacking import stack_rows

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

# frozen canary run: 23 trials are the fewest that catch the canary at
# every seed 0-19; its first failing trial, trial 8, has degrees f=4, g=2,
# h=2
SHRINK_CFG = TrialConfig(backend="endo", prime=97, dim=2, trials=24, seed=2,
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


def test_every_checker_takes_its_laws_slots():
    # a law's claims get (ctx, *inputs) in slot order, so a checker whose
    # parameters disagree with its slots fails here, not at its first run
    for law in laws.list_laws():
        inspect.signature(law.claims).bind(None, *law.slots)


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


def _envelope_one_short(axis):
    """domains._envelope_points with the range of axis one short, so the
    envelope loses its far face along that axis."""
    def points(deg_h, deg_f, deg_g):
        sf, sg = deg_f - 1, deg_g - 1
        short = {a: int(a == axis) for a in "ijk"}
        return tuple(
            (i, j, k)
            for i in range(0, deg_h + 2 - short["i"])
            for j in range(i + sf, deg_h + 1 + sf + 1 - short["j"])
            for k in range(j + sg, deg_h + 1 + sf + sg + 1 - short["k"]))
    return points


def test_the_envelope_mutant_helper_is_the_envelope_unmutated():
    full = _envelope_one_short(None)
    for degs in itertools.product(range(1, 5), repeat=3):
        assert full(*degs) == domains._envelope_points(*degs)


@pytest.mark.parametrize("axis", ["i", "j", "k"])
def test_a_one_short_envelope_range_fails_l25(axis, monkeypatch):
    # the removed-edge claim is cut to the envelope, so only the point
    # count sees the envelope's lost far face
    monkeypatch.setattr(domains, "_envelope_points", _envelope_one_short(axis))
    rep = laws.run_law("L25-envelope-partition", TrialConfig(trials=50, seed=1))
    assert rep.status == "fail"
    assert rep.failed == 50
    assert rep.failures[0]["identity"] == (
        "envelope differs from C(deg h + 4, 3) points")


def test_run_law_deterministic_modulo_millis():
    cfg = TrialConfig(dim=2, trials=12, seed=7)
    first = laws.run_law("L02-relation-left", cfg).to_dict()
    second = laws.run_law("L02-relation-left", cfg).to_dict()
    first.pop("millis")
    second.pop("millis")
    assert first == second


@pytest.mark.parametrize("backend", ["endo", "free"])
def test_draws_are_deterministic_and_prefix_stable(backend):
    # L18 retries many vacuous attempts: a run of n trials draws the first
    # n trials of a run of 3n
    for law_id in ("L06-cup-product", "L18-lemma-first",
                   "L25-envelope-partition", "L27-cross-backend"):
        law = laws.get_law(law_id)
        if backend not in law.backends:
            continue
        cfg = TrialConfig(backend, dim=2, trials=12, seed=4)
        short = list(laws._draws(law, cfg))
        assert short == list(laws._draws(law, cfg))
        longer = list(laws._draws(law, replace(cfg, trials=36)))
        assert longer[:len(short)] == short
        assert all(trial >= 12 for trial, *_ in longer[len(short):])


def test_a_drawn_trial_is_its_degrees():
    # no table or other data is drawn with the trials: each is its trial
    # and attempt numbers and its degrees by slot
    for law in laws.list_laws():
        cfg = TrialConfig(law.backends[0], dim=2, trials=8, seed=1)
        for drawn in laws._draws(law, cfg):
            trial, attempt, degrees = drawn
            assert type(trial) is int and type(attempt) is int
            assert list(degrees) == list(law.slots)
            assert all(type(d) is int for d in degrees.values())


def test_endo_and_free_draw_the_same_trials():
    # a trial is its degree tuple on both backends, so at each seed they
    # draw the same trials and count the same vacuous ones
    for law in laws.laws_for_backend("free"):
        if "endo" not in law.backends:
            continue
        for seed in range(5):
            cfg = TrialConfig("endo", dim=2, trials=24, seed=seed)
            free_cfg = replace(cfg, backend="free")
            assert list(laws._draws(law, cfg)) == list(laws._draws(law, free_cfg))
            assert (laws.run_law(law.law_id, cfg).vacuous
                    == laws.run_law(law.law_id, free_cfg).vacuous), law.law_id


def _groups(law, cfg) -> dict:
    """The drawn trials of law under cfg by batch key, as run_law groups
    them."""
    groups = {}
    for drawn in laws._draws(law, cfg):
        groups.setdefault(tuple(drawn[2].values()), []).append(drawn)
    return groups


def _endo_batches(law, cfg, count):
    """The (batch, sample) pairs built from the first count trials of the
    largest batch key of law under cfg."""
    key, group = max(_groups(law, cfg).items(), key=lambda item: len(item[1]))
    assert len(group) >= count
    return list(laws._builder(law, cfg)(key, group[:count]))


def _tables(sample):
    """Each element's table of sample by name, with a leading row axis."""
    return {name: el.payload.table.reshape(sample.rows, -1)
            for name, el in sample.elements.items()}


def test_a_key_gives_its_trials_the_same_rows_whatever_the_trial_count():
    # row r of a key's stream is its r-th trial's tables: batches of n and
    # of m < n rows share their first m rows
    law = laws.get_law("L09-right-derivation")
    cfg = TrialConfig(dim=2, trials=200, seed=3)
    (_, wide), = _endo_batches(law, cfg, 6)
    for count in (1, 2, 5):
        (batch, narrow), = _endo_batches(law, cfg, count)
        assert narrow.rows == len(batch) == count
        for name, table in _tables(narrow).items():
            assert np.array_equal(table, _tables(wide)[name][:count])


def test_a_split_batch_draws_the_rows_of_the_unsplit_one(monkeypatch):
    # the entry cap splits a key's trials into batches that continue the
    # key's stream, and the report does not change
    law = laws.get_law("L06-cup-product")
    cfg = TrialConfig(dim=2, trials=60, seed=2, mutations=("cup-sign-flip",))
    (batch, whole), = _endo_batches(law, cfg, 5)
    report = laws.run_law(law.law_id, cfg).to_dict()
    # two rows of the largest table the degree budget allows
    monkeypatch.setattr(endo, "MAX_ENTRIES", 2 * 2 ** 13)
    parts = _endo_batches(law, cfg, 5)
    assert [len(b) for b, _ in parts] == [2, 2, 1]
    assert [d for b, _ in parts for d in b] == batch
    for name, table in _tables(whole).items():
        assert np.array_equal(
            np.concatenate([_tables(s)[name] for _, s in parts]), table)
    split = laws.run_law(law.law_id, cfg).to_dict()
    split.pop("millis")
    report.pop("millis")
    assert split == report


def test_batched_tables_are_read_only_and_contiguous():
    # a batch of one holds single maps; the fixture mu of L12 is single in
    # every batch
    for law_id in ("L06-cup-product", "L12-delta-squared"):
        law = laws.get_law(law_id)
        cfg = TrialConfig(dim=2, trials=200, seed=5)
        for count in (1, 4):
            (_, sample), = _endo_batches(law, cfg, count)
            assert sample.rows == count
            for name, el in sample.elements.items():
                table = el.payload.table
                assert table.flags.c_contiguous and not table.flags.writeable
                single = count == 1 or (name == "mu" and law.fixture_mu)
                assert el.payload.batch == (None if single else count)
                assert table.ndim == el.degree + (1 if single else 2)
            assert sample.ctx.mu is sample.elements["mu"]


@pytest.mark.parametrize("backend", ["endo", "free"])
def test_a_canary_witness_does_not_depend_on_the_trial_count(backend):
    later = 0  # witnesses whose first failing trial is not trial 0
    for seed in range(1, 7):
        cfg = TrialConfig(backend, dim=2, trials=12, seed=seed,
                          mutations=("b-relation-sign-drop",))
        short = laws.run_law("L02-relation-left", cfg)
        longer = laws.run_law("L02-relation-left", replace(cfg, trials=36))
        assert longer.failed >= short.failed
        if short.failures:
            assert longer.failures == short.failures
            later += short.failures[0]["seed"][1] > 0
    assert later


@pytest.mark.parametrize("degree_max", [1, 2])
def test_drawn_degrees_stay_in_the_configured_range(degree_max, monkeypatch):
    # a law's forced first degree is clamped to degree_max, not raised past it
    drawn = []
    sample_degrees = laws._sample_degrees

    def recorded(*args):
        drawn.append(sample_degrees(*args))
        return drawn[-1]

    monkeypatch.setattr(laws, "_sample_degrees", recorded)
    for law in laws.list_laws():
        laws.run_law(law.law_id, TrialConfig(dim=1, trials=6, seed=1,
                                             degree_max=degree_max))
    assert len(drawn) >= 6 * len(laws.list_laws())
    assert all(1 <= d <= degree_max for degrees in drawn
               for d in degrees.values())


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
    # 19 trials are the fewest that catch each canary at every seed 0-19
    cfg = TrialConfig(dim=1, trials=20, seed=0, mutations=(mutation,))
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
    assert witness["seed"] == [2, 8, 0]
    assert witness["degrees"] == {"f": 4, "g": 2, "h": 2}
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
        _golden_witnesses("l06_free_cup_sign_flip_seed7_trials12.json")[1])
    assert witness["degrees"] == {"f": 3, "g": 2}
    # two trees that are not f's generator, both holding g's
    witness["elements"]["f"]["terms"] = [["(mu (g _ _) _)", 1],
                                         ["(mu _ (g _ _))", 96]]
    assert laws.replay(witness) is not None
    small = laws.shrink(witness)
    assert small["degrees"] == {"f": 3, "g": 2}
    assert laws.replay(small) is not None
    assert laws.shrink(small) == small


@pytest.mark.parametrize("name", ["l06_endo_cup_sign_flip_seed7.json",
                                  "l06_free_cup_sign_flip_seed7_trials12.json"])
def test_a_stored_witness_with_extra_data_replays_and_shrinks_as_before(name):
    # witnesses once carried an "extra" object, {} but for L27's word; it
    # is read by nothing now, and shrink passes it through
    witness = _golden_witnesses(name)[0]
    stored = {**witness, "extra": {}}
    detail, again = laws.replay(witness), laws.replay(stored)
    assert (again.identity, again.point) == (detail.identity, detail.point)
    assert again.lhs.serialize() == detail.lhs.serialize()
    assert again.rhs.serialize() == detail.rhs.serialize()
    assert laws.shrink(stored) == {**laws.shrink(witness), "extra": {}}


def test_shrink_leaves_passing_witness_alone():
    witness = laws.run_law("L02-relation-left", SHRINK_CFG).failures[0]
    healed = dict(witness)
    healed["mutations"] = []
    assert laws.shrink(healed) == healed


def _raising_cup(ctx, f, g):
    raise DegreeMismatch("cup refused")


@pytest.mark.parametrize("backend", ["endo", "free"])
def test_a_witness_whose_check_raised_replays_and_shrinks_as_a_failure(
        backend, monkeypatch):
    # replay used to raise on such a witness, and shrink took each raising
    # candidate for a pass, so the witness came back unshrunk
    monkeypatch.setattr(laws, "cup", _raising_cup)
    report = laws.run_law("L06-cup-product",
                          TrialConfig(backend, dim=2, trials=4, seed=1))
    witness, = report.failures
    assert report.failed == 4
    assert witness["identity"] == "check raised DegreeMismatch: cup refused"
    assert max(witness["degrees"].values()) > 1
    detail = laws.replay(witness)
    assert (detail.identity, detail.lhs, detail.rhs) == (
        witness["identity"], None, None)
    shrunk = laws.shrink(witness)
    assert shrunk["identity"] == witness["identity"]
    assert set(shrunk["degrees"].values()) == {1}
    assert laws.replay(shrunk).identity == witness["identity"]
    assert laws.shrink(shrunk) == shrunk



@pytest.mark.parametrize("text", ["", "(f _"])
def test_replay_of_hand_edited_free_witness_is_a_clean_error(text):
    cfg = TrialConfig(backend="free", trials=2, seed=7,
                      mutations=("cup-sign-flip",))
    witness = laws.run_law("L06-cup-product", cfg).failures[0]
    witness["elements"]["f"]["terms"][0][0] = text
    with pytest.raises(ShapeMismatch):
        laws.replay(witness)


def _renamed(witness, field, old, new):
    return {**witness, field: {(new if n == old else n): x
                               for n, x in witness[field].items()}}


def test_a_witness_whose_inputs_are_not_its_laws_is_refused_by_name():
    endo_w = _golden_witnesses("l06_endo_cup_sign_flip_seed7.json")[0]
    free_w = _golden_witnesses("l06_free_cup_sign_flip_seed7_trials12.json")[0]
    l01 = {"law_id": "L01-scope-partition", "seed": [1, 0, 0],
           "backend": "endo", "prime": 97, "dim": 2, "mutations": [],
           "degrees": {"h": 2, "f": 1, "g": 1}, "elements": {},
           "identity": "hand-made", "domain_point": None, "lhs": None,
           "rhs": None}
    assert laws.replay(l01) is None
    extra = copy.deepcopy(endo_w)
    extra["elements"]["b"] = extra["elements"]["g"]
    for witness in (_renamed(endo_w, "elements", "f", "a"),
                    _renamed(free_w, "elements", "mu", "nu"), extra):
        for run in (laws.replay, laws.shrink):
            with pytest.raises(BadConfig, match="takes the inputs f, g, mu;"):
                run(witness)
    # shrink hands an element-free witness back as it is
    with pytest.raises(BadConfig, match="takes the inputs h, f, g;"):
        laws.replay(_renamed(l01, "degrees", "g", "x"))


def test_forced_degree_quota_on_even_trials():
    law = laws.get_law("L08-main-theorem")
    assert law.force_first == 3
    cfg = TrialConfig(dim=1, trials=20)
    forced, unforced = [], []
    for trial, _, degrees in laws._draws(law, cfg):
        (forced if trial % 2 == 0 else unforced).append(degrees["h"])
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
    # claim, row 0 at the second, row 2 never; each row's witness is its
    # own first failure, cut from the claim's stacked sides
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
    def stream(ctx, f):
        # an element-free sample: no context, and its slot's degree
        assert (ctx, f) == (None, 1)
        for claim in claims:
            if claim is UNREACHED:
                raise AssertionError("a claim after the failure was drawn")
            yield claim

    law = laws.Law("L00-hand-made", "hand-made claims", ("f",), stream)
    wants = want if isinstance(want, list) else [want]
    sample = laws.TrialSample(None, {}, {"f": 1}, len(wants))
    details = law.checker(sample)
    assert len(details) == len(wants)
    # rows that fail at the same claim share its detail
    failing = [(d, w[0]) for d, w in zip(details, wants) if w is not None]
    for detail, identity in failing:
        for other, other_identity in failing:
            assert (detail is other) == (identity == other_identity)
    for row, (detail, row_want) in enumerate(zip(details, wants)):
        if row_want is None:
            assert detail is None
            continue
        witness = laws._witness({"law_id": law.law_id}, sample, detail, row)
        identity, point, lhs, rhs = row_want
        assert witness["identity"] == identity
        assert witness["domain_point"] == point
        assert witness["lhs"] == (lhs.serialize() if lhs is not None else None)
        assert witness["rhs"] == (rhs.serialize() if rhs is not None else None)


@pytest.mark.parametrize("backend", ["endo", "free"])
def test_trials_that_share_degrees_run_as_one_batch(backend):
    # L05 draws one degree in 1..4, so 12 trials fall into at most four
    # batches at dim 2; at dim 6 a batch of the degree budget's largest
    # table would pass the entry cap, so every endo trial runs alone. A
    # free batch is one check of one shared sample of bare generators with
    # a row per trial, whatever the dim
    calls = []
    law = laws.get_law("L05-unit-laws")
    checker = law.checker

    def counted(sample):
        calls.append(sample)
        return checker(sample)

    object.__setattr__(law, "checker", counted)
    try:
        laws.run_law(law.law_id, TrialConfig(backend, dim=2, trials=12, seed=3))
        assert len(calls) <= 4
        assert sum(s.rows for s in calls) == 12
        if backend == "free":
            assert len({s.degrees["f"] for s in calls}) == len(calls)
            assert max(s.rows for s in calls) > 1
            for s in calls:
                for name, el in s.elements.items():
                    assert el.payload == el.backend.generator(name).payload
        calls.clear()
        laws.run_law(law.law_id, TrialConfig(backend, dim=2, trials=3, seed=3))
        at_dim_2 = [(s.rows, s.degrees) for s in calls]
        calls.clear()
        laws.run_law(law.law_id, TrialConfig(backend, dim=6, trials=3, seed=3))
        if backend == "endo":
            assert [s.rows for s in calls] == [1, 1, 1]
        else:
            assert [(s.rows, s.degrees) for s in calls] == at_dim_2
            assert len(calls) < 3
    finally:
        object.__setattr__(law, "checker", checker)


@pytest.mark.parametrize("backend", ["endo", "free"])
def test_a_failing_run_checks_each_batch_once(backend):
    # the witness is cut from the checked batch, so no trial is checked a
    # second time on its own; at dim 2 no batch is split, so the batches
    # are the batch keys of the non-vacuous trials
    calls = []
    law = laws.get_law("L06-cup-product")
    checker = law.checker

    def counted(sample):
        calls.append(sample.rows)
        return checker(sample)

    cfg = TrialConfig(backend, dim=2, trials=16, seed=5,
                      mutations=("cup-sign-flip",))
    object.__setattr__(law, "checker", counted)
    try:
        report = laws.run_law(law.law_id, cfg)
    finally:
        object.__setattr__(law, "checker", checker)
    assert report.failed > 0
    keys = _groups(law, cfg)
    assert len(calls) == len(keys) < cfg.trials - report.vacuous
    assert sum(calls) == cfg.trials - report.vacuous


def _row(sample, r):
    """Row r of a checked sample as a sample of one row."""
    elements = {name: el.row(r) for name, el in sample.elements.items()}
    ctx = sample.ctx and PreOperadContext(sample.ctx.backend, elements["mu"])
    return laws.TrialSample(ctx, elements, sample.degrees)


def _single_trial_verdicts(law, cfg):
    """(trial, attempt, degrees, detail) of each non-vacuous trial of law
    under cfg, in trial order, its detail from checking its own row of
    its batch on its own."""
    build = laws._builder(law, cfg)
    return sorted((*drawn[:3], law.checker(_row(sample, r))[0])
                  for key, group in _groups(law, cfg).items()
                  for batch, sample in build(key, group)
                  for r, drawn in enumerate(batch))


@pytest.mark.parametrize("backend, prime", [
    ("endo", 97), ("free", 97), ("free", 2**61 - 1)])
def test_batched_failures_are_those_of_single_trials_in_trial_order(backend, prime):
    # past 2^61 a product of two coefficients no longer fits 64 bits
    cfg = TrialConfig(backend, prime, dim=2, trials=16, seed=5,
                      mutations=("cup-sign-flip",))
    law = laws.get_law("L06-cup-product")
    report = laws.run_law(law.law_id, cfg)
    failing = [v for v in _single_trial_verdicts(law, cfg) if v[3] is not None]
    assert report.failed == len(failing) > 4
    # some failing trials share their degrees, so they ran as one batch
    assert len({tuple(degrees.values()) for *_, degrees, _ in failing}) < len(failing)
    trial, attempt, _, first = failing[0]
    witness, = report.failures
    assert witness["seed"] == [cfg.seed, trial, attempt]
    assert witness["identity"] == first.identity
    assert witness["lhs"] == first.lhs.serialize()
    assert witness["rhs"] == first.rhs.serialize()
    detail = laws.replay(witness)
    assert detail.identity == witness["identity"]
    assert detail.lhs.serialize() == witness["lhs"]
    assert detail.rhs.serialize() == witness["rhs"]


@pytest.mark.parametrize("entry", [1.5, "7", True])
def test_replay_of_a_non_integer_table_entry_is_an_error(entry):
    cfg = TrialConfig(dim=2, trials=2, seed=7, mutations=("cup-sign-flip",))
    witness = laws.run_law("L06-cup-product", cfg).failures[0]
    witness["elements"]["f"]["entries"][0] = entry
    with pytest.raises(ShapeMismatch):
        laws.replay(witness)


@pytest.mark.parametrize("law_id", ["L01-scope-partition",
                                    "L25-envelope-partition",
                                    "L26-degree-bookkeeping"])
def test_element_free_batches_are_not_split_by_the_entry_cap(law_id):
    # at dim 6 a batch of tables holds one trial; an element-free law
    # builds none, so it checks each distinct degree tuple once
    calls = []
    law = laws.get_law(law_id)
    checker = law.checker

    def counted(sample):
        calls.append(sample)
        return checker(sample)

    object.__setattr__(law, "checker", counted)
    try:
        report = laws.run_law(law_id, TrialConfig("endo", dim=6, trials=30,
                                                  seed=1))
    finally:
        object.__setattr__(law, "checker", checker)
    assert report.status == "pass" and report.vacuous == 0
    tuples = {tuple(s.degrees.items()) for s in calls}
    assert len(calls) == len(tuples) < 30
    assert sum(s.rows for s in calls) == 30


def _degree(d):
    """An element of the degree-only backend L26 runs on."""
    return GradedElement(laws._DEGREES, laws._Degree(d))


def test_degree_backend_matches_free_bare_generators_up_to_degree_4():
    # every (h, f, g, b) with degrees in 1..4 and total at most 12: the
    # free pre-operad over Z gives each operation's degree in every
    # pre-operad, and the degree-only backend must give the same
    ring = CoefficientRing.integers()
    tuples = [d for d in itertools.product(range(1, 5), repeat=4)
              if sum(d) <= 12]
    assert len(tuples) == 221
    on_degrees = PreOperadContext(laws._DEGREES, _degree(2))
    for degrees in tuples:
        gens = tuple(zip(("h", "f", "g", "b"), degrees)) + (("mu", 2),)
        fb = FreeBackend(ring, free.Signature(gens))
        on_free = PreOperadContext(fb, fb.generator("mu"))
        want = laws._bookkeeping(
            on_free, *(fb.generator(name) for name, _ in gens[:4]))
        got = laws._bookkeeping(on_degrees, *map(_degree, degrees))
        assert got == want, degrees
        assert all(lands == stated for _, lands, stated in got)


def test_the_degree_backend_refuses_bad_slots_and_term_degrees():
    f, g = _degree(2), _degree(3)
    assert f.compose(g, 1).degree == 4
    for slot in (-1, 2):
        with pytest.raises(InvalidDegree):
            f.compose(g, slot)
    for slot in (-1, 2):
        with pytest.raises(InvalidDegree) as info:
            compose_sum(laws._DEGREES, 4, [(1, f, g, 0), (1, f, g, slot)])
        assert str(info.value) == f"slot {slot} outside 0..1 for degree 2"
    with pytest.raises(DegreeMismatch) as info:
        compose_sum(laws._DEGREES, 5, [(1, f, g, 0)])
    assert str(info.value) == "degree 4 vs 5"
    # a term's slot is checked before its degree
    with pytest.raises(InvalidDegree):
        compose_sum(laws._DEGREES, 5, [(1, f, g, 2)])
    assert compose_sum(laws._DEGREES, 4, [(1, f, g, 0), (0, g, f, 2)]).degree == 4
    with pytest.raises(DegreeMismatch):
        signed_sum(laws._DEGREES, 2, [(1, f), (-1, g)])


def test_a_stated_sum_degree_off_by_one_raises_on_degrees_as_on_endo(monkeypatch):
    def delta(ctx, f):  # the coboundary, stated one degree too high
        return joint_sum(f.backend, f.degree + 2, (
            calculus._slots(ksign(f.shifted_degree), ctx.mu, f),
            calculus._slots(-1, f, ctx.mu)))

    monkeypatch.setattr(calculus, "delta", delta)
    # a check that raises fails its trials
    report = laws.run_law("L26-degree-bookkeeping",
                          TrialConfig("endo", dim=2, trials=5, seed=1))
    assert report.status == "fail" and report.failed == 5
    assert report.failures[0]["identity"].startswith(
        "check raised DegreeMismatch: ")
    be = EndoBackend(CoefficientRing.prime_field(97), 2)
    rng = np.random.default_rng(0)
    ctx = PreOperadContext(be, be.random(2, rng))
    with pytest.raises(DegreeMismatch):
        calculus.dev_braces(ctx, be.random(1, rng), be.random(2, rng))


def _degree_witness(**fields):
    return {"law_id": "L26-degree-bookkeeping", "seed": [1, 0, 0],
            "backend": "endo", "prime": 97, "dim": 2, "mutations": [],
            "degrees": {"b": 1, "f": 2, "g": 3, "h": 4},
            "identity": "cup lands in the wrong degree", "domain_point": None,
            "lhs": None, "rhs": None, **fields}


def test_l26_witnesses_with_or_without_elements_replay_clean():
    # a witness may hold tables, as L26's did before it was element-free;
    # replay and shrink read its degrees alone
    be = EndoBackend(CoefficientRing.prime_field(97), 2)
    rng = np.random.default_rng(0)
    tables = {name: be.random(d, rng).serialize() for name, d in
              {"b": 1, "f": 2, "g": 3, "h": 4, "mu": 2}.items()}
    for witness in (_degree_witness(elements=tables), _degree_witness()):
        assert laws.replay(witness) is None
        assert laws.shrink(witness) == witness


def _mutant(module, name, old, new):
    """module.name compiled from its own source with old replaced by new."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), scope)
    return scope[name]


# kernel faults the endo suite cannot pin on the kernel; L27 must see each
_KERNEL_FAULTS = {
    # the fused sum keeps the Koszul twist on its first term only
    "fused-twist-drop": (endo, "compose_sum", "if i * (n - 1) % 2:",
                         "if i * (n - 1) % 2 and acc is None:"),
    # substitution, unsigned by definition, keeps the twist
    "substitute-keeps-twist": (
        endo, "substitute", "c = -1 if i * (g.degree - 1) % 2 else 1",
        "c = 1"),
    # evaluation advances the slot past one input of a child, not its degree
    "eval-slot-by-one": (free, "_eval_tree", "slot + sub.degree", "slot + 1"),
}


@pytest.mark.parametrize("fault", sorted(_KERNEL_FAULTS))
def test_l27_fails_under_each_kernel_fault(fault, monkeypatch):
    module, name, old, new = _KERNEL_FAULTS[fault]
    cfg = TrialConfig(dim=2, seed=1)
    assert laws.run_law("L27-cross-backend", cfg).status == "pass"
    monkeypatch.setattr(module, name, _mutant(module, name, old, new))
    report = laws.run_law("L27-cross-backend", cfg)
    assert report.failed > cfg.trials // 2
    assert report.failures[0]["identity"].endswith(
        " commutes with table evaluation")


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mutation", KNOWN_MUTATIONS)
def test_l27_passes_under_every_canary(dim, mutation):
    # both sides carry the canary, so a fault of the calculus cancels
    report = laws.run_law("L27-cross-backend", TrialConfig(
        dim=dim, trials=100, seed=1, mutations=(mutation,)))
    assert report.status == "pass" and not report.underpowered


def test_l27_and_l26_name_the_same_pair_operations():
    law = laws.get_law("L27-cross-backend")
    assert law.slots == ("f", "g") and law.backends == ("endo",)
    cfg = TrialConfig(dim=2, trials=1, seed=1)
    drawn, = laws._draws(law, cfg)
    (_, sample), = laws._builder(law, cfg)(tuple(drawn[2].values()), [drawn])
    identities = [identity for identity, *_ in laws._check_conformance(
        sample.ctx, sample.elements["f"], sample.elements["g"])]
    degrees = GradedElement(laws._DEGREES, laws._Degree(2))
    ctx = PreOperadContext(laws._DEGREES, degrees)
    names = [name for name, *_ in laws._bookkeeping(ctx, *[degrees] * 4)]
    assert identities == [f"{name} commutes with table evaluation"
                          for name in names[:5]]
    assert names[:5] == ["cup", "bullet", "bracket", "delta", "dev_braces"]


def test_free_generators_are_built_once_per_degree_tuple(monkeypatch):
    # a free trial draws its degrees only; the bare generators of its
    # generator tuple are built once and shared by every trial and every
    # law that drew it
    built = []
    generator = FreeBackend.generator

    def counted(self, name):
        built.append((self.signature.generators, name))
        return generator(self, name)

    monkeypatch.setattr(FreeBackend, "generator", counted)
    laws._bare_generators.cache_clear()
    cfg = TrialConfig("free", trials=30, seed=1)
    used = 0  # distinct generator tuples of each law, summed over laws
    for law in laws.laws_for_backend("free"):
        if law.element_free:
            continue
        report = laws.run_law(law.law_id, cfg)
        sigs = {tuple(degrees.values())
                for _, _, degrees in laws._draws(law, cfg)}
        assert len(sigs) < report.trials - report.vacuous, law.law_id
        used += len(sigs)
    tuples = {sig for sig, _ in built}
    assert sorted(built) == sorted((sig, name) for sig in tuples
                                   for name, _ in sig)
    assert len(tuples) < used


def test_a_vacuous_attempt_draws_no_table(monkeypatch):
    # a vacuous attempt stops at its degrees; a kept trial's four inputs
    # and mu are drawn as one row of its batch's single draw
    law = laws.get_law("L18-lemma-first")
    cfg = TrialConfig("endo", dim=2, trials=40, seed=1)
    attempts = []  # the degrees of each attempt, in draw order
    draws = []  # (degrees, rows) of each table draw
    sample_degrees = laws._sample_degrees
    random_maps = endo._random_maps

    def recorded(*args):
        attempts.append(sample_degrees(*args))
        return attempts[-1]

    def counted(ring, dim, degrees, rng, rows):
        draws.append((list(degrees), rows))
        return random_maps(ring, dim, degrees, rng, rows)

    monkeypatch.setattr(laws, "_sample_degrees", recorded)
    monkeypatch.setattr(endo, "_random_maps", counted)
    report = laws.run_law(law.law_id, cfg)
    monkeypatch.undo()
    kept = [d for d in attempts if not law.vacuous_when(d)]
    assert len(attempts) - len(kept) > 5
    assert len(kept) == cfg.trials - report.vacuous
    assert sum(rows for _, rows in draws) == len(kept)
    assert len(draws) == len({tuple(d.values()) for d in kept}) < len(kept)
    assert sorted(degrees for degrees, rows in draws for _ in range(rows)) == \
        sorted([*d.values(), 2] for d in kept)


@pytest.mark.parametrize("law_id, mutation", [
    ("L06-cup-product", "cup-sign-flip"),
    ("L13-getzler", "g-range-off-by-one"),
    ("L02-relation-left", "b-relation-sign-drop")])
def test_a_free_witness_is_the_bare_generators_of_the_first_failing_trial(
        law_id, mutation):
    law = laws.get_law(law_id)
    later = 0  # witnesses whose first failing trial is not trial 0
    for seed in range(1, 7):
        cfg = TrialConfig("free", trials=16, seed=seed, mutations=(mutation,))
        witness, = laws.run_law(law.law_id, cfg).failures
        failing = [v for v in _single_trial_verdicts(law, cfg)
                   if v[3] is not None]
        trial, attempt, degrees, _ = failing[0]
        assert witness["seed"] == [seed, trial, attempt]
        assert witness["degrees"] == degrees
        for name, degree in (*degrees.items(), ("mu", 2)):
            sexpr = "(" + name + " _" * degree + ")"
            assert witness["elements"][name]["terms"] == [[sexpr, 1]]
        detail = laws.replay(witness)
        assert detail.identity == witness["identity"]
        assert detail.lhs.serialize() == witness["lhs"]
        assert detail.rhs.serialize() == witness["rhs"]
        later += trial > 0
    if law_id != "L06-cup-product":  # where every trial fails
        assert later


def _bare_sample(degrees):
    """Names and the sample of bare free generators over Z of degrees (h's
    first), with a bare mu: if a claim holds on them, it holds for all
    elements of those degrees in every pre-operad."""
    names = ("h", "f1", "f2", "f3", "f4")[:len(degrees)]
    sig = free.Signature(tuple(zip(names, degrees)) + (("mu", 2),))
    be = FreeBackend(CoefficientRing.integers(), sig)
    elements = {name: be.generator(name) for name, _ in sig.generators}
    return names, laws.TrialSample(PreOperadContext(be, elements["mu"]),
                                   elements, dict(zip(names, degrees)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_brace_deviation_closed_form_holds_on_bare_generators(n):
    # deg h in [1, 4], inputs in [1, 3]: 36, 108 and 324 degree tuples
    for degrees in itertools.product(range(1, 5), *[range(1, 4)] * n):
        names, sample = _bare_sample(degrees)
        check = laws._deviation("closed form", "braces")
        assert laws._first_failure(check, names, sample) == [None], degrees


@pytest.mark.parametrize("term", range(5))
def test_each_term_of_the_arity_4_closed_form_is_seen(term, monkeypatch):
    # flipping the sign of any one of the five operations of the right-hand
    # side (two cups, then three braces) fails every degree tuple with
    # deg h = 3, the first at (3, 1, 1, 1, 1)
    calls = []

    def flipped(regions_of):
        def regions(*args):
            calls.append(regions_of)
            if len(calls) - 1 == term:
                return [(-c, *rest) for c, *rest in regions_of(*args)]
            return regions_of(*args)
        return regions

    for name in ("_cup_regions", "_brace_regions"):
        monkeypatch.setattr(laws, name, flipped(getattr(laws, name)))
    failing = []
    for degrees in itertools.product((3,), *[range(1, 4)] * 4):
        names, sample = _bare_sample(degrees)
        check = laws._deviation("closed form", "braces")
        calls.clear()
        if laws._first_failure(check, names, sample) != [None]:
            failing.append(degrees)
        assert len(calls) == 5
    assert len(failing) == 81 and failing[0] == (3, 1, 1, 1, 1)
