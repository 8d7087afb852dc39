import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from preoperad import cli, endo, free, laws
from preoperad.backends import FreeBackend
from preoperad.calculus import KNOWN_MUTATIONS
from preoperad.errors import BadConfig, IndexOutOfScope, PreOperadError
from preoperad.free import Signature
from preoperad.laws import SUITE_SCHEMA
from preoperad.rings import CoefficientRing

CUP_SCRIPT = """\
let mu: deg 2 = [1];
let f: deg 1 = [2];
let g: deg 1 = [3];
cup(f, g)
"""

FREE_SCRIPT = "let h: deg 2;\nlet f: deg 1;\ncomp(h, f, 0)\n"

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
ADDRESS_SPACE_CAP = 4 << 30


def child_env():
    """The environment of a child process that imports the package from
    this checkout, single-threaded."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(path))


def run_capped(argv):
    """The CLI in a child process whose address space is capped at 4 GB, so
    a table that slipped past the size checks fails there instead of being
    allocated."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS,
                           (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    return subprocess.run([sys.executable, "-m", "preoperad.cli", *argv],
                          capture_output=True, text=True, env=child_env(),
                          preexec_fn=cap, timeout=120)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_laws_listing(capsys):
    code, out, err = run(capsys, ["laws"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) >= 18
    assert any(ln.startswith("L08-main-theorem") for ln in lines)
    assert any(ln.startswith("L12-delta-squared") for ln in lines)


@pytest.mark.parametrize("argv, code", [(["laws"], 0),
                                        (["verify", "--prime", "4"], 2)])
def test_python_dash_m_preoperad_runs_the_cli(argv, code):
    proc = subprocess.run([sys.executable, "-m", "preoperad", *argv],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert "L08-main-theorem" in proc.stdout
    else:
        assert proc.stderr.startswith("error:")


def test_laws_listing_backend_filter(capsys):
    code, out, _ = run(capsys, ["laws", "--backend", "free"])
    assert code == 0
    assert "L12-delta-squared" not in out
    assert "L08-main-theorem" in out


def test_verify_single_law_passes(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "verify", "--law", "L05-unit-laws", "--trials", "10", "--dim", "1",
        "--report", str(report_path)])
    assert code == 0
    assert "PASS L05-unit-laws" in out
    assert out.strip().endswith("suite: pass")
    suite = json.loads(report_path.read_text())
    jsonschema.validate(suite, SUITE_SCHEMA)
    assert suite["status"] == "pass"
    assert suite["config"]["trials"] == 10
    assert suite["config"]["dim"] == 1


def test_verify_canary_fails(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "verify", "--law", "L02-relation-left", "--trials", "10",
        "--dim", "1", "--mutate", "b-relation-sign-drop",
        "--report", str(report_path)])
    assert code == 1
    assert "FAIL L02-relation-left" in out
    assert out.strip().endswith("suite: fail")
    suite = json.loads(report_path.read_text())
    jsonschema.validate(suite, SUITE_SCHEMA)
    failures = suite["laws"][0]["failures"]
    assert failures
    assert failures[0]["mutations"] == ["b-relation-sign-drop"]



def _without_millis(suite):
    for rep in suite["laws"]:
        rep.pop("millis", None)
    return suite


def _sides(witness):
    return {key: witness[key] for key in ("identity", "domain_point", "lhs", "rhs")}


def _replayed_sides(witness):
    detail = laws.replay(witness)
    return {"identity": detail.identity,
            "domain_point": None if detail.point is None else list(detail.point),
            "lhs": None if detail.lhs is None else detail.lhs.serialize(),
            "rhs": None if detail.rhs is None else detail.rhs.serialize()}


def _assert_matches_golden(report_path, golden):
    """The report of one law against golden, recorded when every failing
    trial kept its witness: the same report with the first witness only and
    the count of them all. Every golden witness must still replay to the
    sides it recorded, so the golden pins each trial's sides."""
    rep, = golden["laws"]
    witnesses = rep["failures"]
    want = {**golden, "laws": [{**rep, "failed": len(witnesses),
                                "failures": witnesses[:1]}]}
    assert (_without_millis(json.loads(report_path.read_text()))
            == _without_millis(want))
    for witness in witnesses:
        assert _replayed_sides(witness) == _sides(witness)


def test_free_canary_report_matches_golden(capsys, tmp_path):
    # recorded with nested-tuple trees; the flat token encoding must not
    # change terms, their order or the witnesses
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, [
        "verify", "--law", "L06-cup-product", "--backend", "free",
        "--mutate", "cup-sign-flip", "--trials", "2", "--seed", "7",
        "--report", str(report_path)])
    assert code == 1
    golden = json.loads((GOLDEN / "l06_free_cup_sign_flip_seed7.json").read_text())
    assert len(golden["laws"][0]["failures"]) == 2
    _assert_matches_golden(report_path, golden)


def test_free_canary_report_across_batches_matches_golden(capsys, tmp_path):
    # recorded one symbolic trial at a time: 12 failing trials in 9 degree
    # tuples, so batched tree sums must keep the count, the first witness
    # and its lhs and rhs terms
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, [
        "verify", "--law", "L06-cup-product", "--backend", "free",
        "--mutate", "cup-sign-flip", "--seed", "7", "--trials", "12",
        "--report", str(report_path)])
    assert code == 1
    golden = json.loads(
        (GOLDEN / "l06_free_cup_sign_flip_seed7_trials12.json").read_text())
    assert len(golden["laws"][0]["failures"]) == 12
    _assert_matches_golden(report_path, golden)


def test_endo_canary_report_matches_golden(capsys, tmp_path):
    # recorded one trial at a time: 12 failing trials that fall into 9
    # degree tuples, so batched trials must keep the count, the first
    # witness and its lhs and rhs tables
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, [
        "verify", "--law", "L06-cup-product", "--backend", "endo",
        "--mutate", "cup-sign-flip", "--seed", "7", "--trials", "12",
        "--dim", "2", "--report", str(report_path)])
    assert code == 1
    golden = json.loads((GOLDEN / "l06_endo_cup_sign_flip_seed7.json").read_text())
    assert len(golden["laws"][0]["failures"]) == 12
    _assert_matches_golden(report_path, golden)


def test_free_suite_report_matches_golden(capsys, tmp_path):
    # every free law's status and its trial, vacuous and failure counts
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, [
        "verify", "--law", "all", "--backend", "free", "--trials", "20",
        "--seed", "3", "--report", str(report_path)])
    assert code == 0
    golden = json.loads((GOLDEN / "suite_free_seed3_trials20.json").read_text())
    assert _without_millis(json.loads(report_path.read_text())) == golden


def test_endo_canary_suite_report_matches_golden(capsys, tmp_path):
    # every endo law under one canary: the failing laws keep one witness
    # each, with its input tables and both sides, so the golden pins table
    # values of cup, delta, bullet, bracket, both brace sums, their
    # deviations and the gamma families
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, [
        "verify", "--law", "all", "--backend", "endo",
        "--mutate", "cup-sign-flip", "--trials", "20", "--seed", "3",
        "--max-degree", "3", "--report", str(report_path)])
    assert code == 1
    golden = json.loads((GOLDEN / "suite_endo_cup_sign_flip_seed3_trials20_"
                                  "maxdeg3.json").read_text())
    assert _without_millis(json.loads(report_path.read_text())) == golden
    failing = [rep for rep in golden["laws"] if rep["status"] == "fail"]
    assert [rep["law_id"][:3] for rep in failing] == [
        "L06", "L08", "L10", "L11", "L15", "L16", "L18", "L19", "L21", "L22",
        "L24"]
    for rep in failing:
        witness, = rep["failures"]
        assert _replayed_sides(witness) == _sides(witness)


_GAMMA_LAWS = ("L18-lemma-first", "L19-lemma-second", "L21-boundary-gamma1",
               "L24-gamma-recap")


@pytest.mark.parametrize("backend", ["endo", "free"])
@pytest.mark.parametrize("law", _GAMMA_LAWS)
def test_gamma_law_canary_reports_match_golden(capsys, tmp_path, backend, law):
    # recorded before the families were evaluated per check: every
    # non-vacuous trial fails, so each witness, replayed, pins lhs and rhs
    # exactly
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, [
        "verify", "--law", law, "--backend", backend,
        "--mutate", "cup-sign-flip", "--seed", "7", "--trials", "12",
        "--report", str(report_path)])
    assert code == 1
    golden = json.loads((GOLDEN / f"gamma_laws_{backend}_cup_sign_flip_seed7_"
                                  "trials12.json").read_text())[law]
    rep, = golden["laws"]
    assert len(rep["failures"]) == 12 - rep["vacuous"] >= 11
    _assert_matches_golden(report_path, golden)


def _indented(x) -> str:
    # the reference text that --report files and replay's stdout must match
    return json.dumps(x, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("backend", ["endo", "free"])
@pytest.mark.parametrize("mutation, law", [
    ("cup-sign-flip", "L06-cup-product"),
    ("b-relation-sign-drop", "L02-relation-left"),
    ("g-range-off-by-one", "L13-getzler"),
])
def test_canary_report_text_is_the_json_dumps_text(capsys, tmp_path, backend,
                                                   mutation, law):
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, [
        "verify", "--law", law, "--backend", backend,
        # 23 trials are the fewest that catch each canary, on both
        # backends, at every seed 0-19
        "--mutate", mutation, "--seed", "1", "--trials", "24",
        "--report", str(report_path)])
    assert code == 1
    text = report_path.read_text()
    assert json.loads(text)["laws"][0]["failures"]
    assert text == _indented(json.loads(text))


def test_passing_suite_report_text_is_the_json_dumps_text(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, [
        "verify", "--law", "all", "--backend", "free", "--trials", "2",
        "--report", str(report_path)])
    assert code == 0
    text = report_path.read_text()
    assert text == _indented(json.loads(text))


def test_verify_report_path_that_cannot_be_written_fails_before_any_law(
        capsys, tmp_path):
    # a report that cannot be written must cost no run
    code, out, err = run(capsys, [
        "verify", "--law", "all", "--trials", "200",
        "--report", str(tmp_path / "missing" / "r.json")])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["--law", "L99-nope"],
    ["--law", "L12-delta-squared", "--backend", "free"],
])
def test_a_refused_verify_leaves_an_existing_report_as_it_was(capsys, tmp_path,
                                                              argv):
    report_path = tmp_path / "r.json"
    old = b'{"kept": true}\n'
    report_path.write_bytes(old)
    code, out, err = run(capsys, ["verify", *argv, "--trials", "2",
                                  "--report", str(report_path)])
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert report_path.read_bytes() == old


@pytest.mark.parametrize("argv", [
    ["--law", "L99-nope"],
    ["--law", "L12-delta-squared", "--backend", "free"],
    ["--law", "all", "--backend", "free", "--dim", "7"],
])
def test_a_refused_verify_leaves_a_new_report_path_absent(capsys, tmp_path,
                                                          argv):
    report_path = tmp_path / "new.json"
    code, out, err = run(capsys, ["verify", *argv, "--trials", "2",
                                  "--report", str(report_path)])
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert not report_path.exists()


@pytest.mark.parametrize("existing", [None, b'{"kept": true}\n'],
                         ids=["new", "existing"])
def test_a_verify_that_raises_mid_run_leaves_the_report_path_as_it_was(
        capsys, monkeypatch, tmp_path, existing):
    # the engine raising outside a check (here while it builds a batch)
    # ends the run with exit 2 after the report was opened: a file the run
    # created is removed, an existing one is kept
    def raising(law, cfg):
        def build(key, group):
            raise IndexOutOfScope("slot 2 outside 0..1 for degree 2")
            yield
        return build

    report_path = tmp_path / "r.json"
    if existing is not None:
        report_path.write_bytes(existing)
    monkeypatch.setattr(laws, "_builder", raising)
    code, out, err = run(capsys, [
        "verify", "--law", "L05-unit-laws", "--trials", "3",
        "--report", str(report_path)])
    assert code == 2
    assert out == "" and err.startswith("error: slot 2 outside")
    if existing is None:
        assert not report_path.exists()
    else:
        assert report_path.read_bytes() == existing


def test_a_check_that_raises_on_valid_input_fails_its_trials(
        capsys, monkeypatch, tmp_path):
    # a ground tetrahedron one point past its last asks a family for a value
    # outside its domain: the check raises, every trial fails, and the
    # report is written
    ground_tetrahedron = laws.ground_tetrahedron

    def one_past(*degrees):
        dom = ground_tetrahedron(*degrees)
        i, j, k = dom.points[-1]
        return dataclasses.replace(dom, points=dom.points + ((i, j, k + 1),))

    monkeypatch.setattr(laws, "ground_tetrahedron", one_past)
    report_path = tmp_path / "r.json"
    code, out, err = run(capsys, ["verify", "--law", "L18-lemma-first",
                                  "--trials", "6", "--report", str(report_path)])
    assert code == 1 and not err
    law = json.loads(report_path.read_text())["laws"][0]
    assert law["status"] == "fail"
    assert law["failed"] == law["trials"] - law["vacuous"] > 0
    witness = law["failures"][0]
    assert witness["identity"].startswith("check raised IndexOutOfDomain: ")
    assert witness["lhs"] is witness["rhs"] is None


def test_verify_overwrites_an_existing_longer_report(capsys, tmp_path):
    report_path = tmp_path / "r.json"
    report_path.write_text("x" * 100_000)
    code, _, _ = run(capsys, ["verify", "--law", "L05-unit-laws", "--trials",
                              "2", "--report", str(report_path)])
    assert code == 0
    text = report_path.read_text()
    assert text == _indented(json.loads(text))


def test_verify_writes_a_report_into_a_pipe():
    # a pipe cannot be emptied; the report is written into it as it is
    proc = subprocess.run([sys.executable, "-m", "preoperad.cli", "verify",
                           "--law", "L05-unit-laws", "--trials", "2",
                           "--report", "/dev/stdout"],
                          capture_output=True, text=True, env=child_env(),
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    out = proc.stdout
    report = json.loads(out[out.index("{"):out.rindex("}") + 1])
    assert report["status"] == "pass"


def test_verify_lines_show_the_failed_count_of_failing_laws(capsys):
    code, out, _ = run(capsys, [
        "verify", "--law", "L06-cup-product", "--backend", "free",
        "--mutate", "cup-sign-flip", "--seed", "7", "--trials", "12"])
    assert code == 1
    line = out.splitlines()[0]
    assert line.startswith("FAIL L06-cup-product")
    assert line.split()[-1] == "failed=12"
    code, out, _ = run(capsys, ["verify", "--law", "L05-unit-laws",
                                "--trials", "3"])
    assert code == 0
    line = out.splitlines()[0]
    assert "failed=" not in line
    assert line.split()[-1].startswith("millis=")


@pytest.mark.parametrize("prime, dim", [("2147483647", "3"), ("4294967311", "2")])
def test_verify_refuses_primes_that_overflow_int64(capsys, prime, dim):
    code, out, err = run(capsys, [
        "verify", "--law", "L03-relation-nested", "--prime", prime,
        "--dim", dim, "--trials", "3"])
    assert code == 2
    assert "error:" in err and "int64" in err
    assert "FAIL" not in out


@pytest.mark.parametrize("law", ["L01", "L01-scope-partition", "all"])
def test_verify_refuses_a_61_bit_prime_at_once(capsys, law):
    # a Mersenne prime far past the int64 bound: primality takes
    # microseconds and the run is refused before any trial
    start = time.perf_counter()
    code, out, err = run(capsys, [
        "verify", "--law", law, "--prime", str(2**61 - 1), "--trials", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "int64" in err
    assert out == ""


def test_the_free_suite_runs_every_law_at_a_prime_the_endo_suite_refuses(
        capsys, tmp_path):
    # tree sums hold Python ints, so the 25 free laws run at 2^61 - 1; int64
    # endo tables cannot hold it, so the endo suite is refused before any
    # law is checked
    report_path = tmp_path / "free.json"
    code, out, err = run(capsys, [
        "verify", "--law", "all", "--backend", "free",
        "--prime", str(2**61 - 1), "--trials", "20",
        "--report", str(report_path)])
    assert code == 0 and err == ""
    report = json.loads(report_path.read_text())
    assert len(report["laws"]) == 25
    assert {r["status"] for r in report["laws"]} == {"pass"}
    called = []
    checkers = {law: law.checker for law in laws.list_laws()}

    def refused(sample):
        called.append(sample)
        raise AssertionError("a law ran")

    for law in checkers:
        object.__setattr__(law, "checker", refused)
    try:
        code, out, err = run(capsys, [
            "verify", "--law", "all", "--backend", "endo",
            "--prime", str(2**61 - 1), "--trials", "20"])
    finally:
        for law, checker in checkers.items():
            object.__setattr__(law, "checker", checker)
    assert code == 2 and out == "" and called == []
    assert err.startswith("error:") and "int64" in err


def test_a_free_canary_past_int64_fails_with_a_bare_generator_witness(
        capsys, tmp_path):
    # a free witness draws no scalar, so a prime past 2^63 reports the
    # failure and its witness replays failing
    report_path = tmp_path / "r.json"
    code, _, err = run(capsys, [
        "verify", "--law", "L06-cup-product", "--backend", "free",
        "--prime", str(2**89 - 1), "--mutate", "cup-sign-flip",
        "--trials", "4", "--report", str(report_path)])
    assert (code, err) == (1, "")
    witness, = json.loads(report_path.read_text())["laws"][0]["failures"]
    assert witness["prime"] == 2**89 - 1
    for element in witness["elements"].values():
        assert [c for _, c in element["terms"]] == [1]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code, out, err = run(capsys, ["replay", str(path)])
    assert (code, err) == (1, "")
    assert json.loads(out) == witness


@pytest.mark.parametrize("backend", ["endo", "free"])
def test_verify_over_f2_is_underpowered(capsys, backend):
    # -1 = 1 in F_2, so a flipped cup sign cannot show; the run must not pass
    code, out, _ = run(capsys, [
        "verify", "--law", "L06-cup-product", "--prime", "2", "--dim", "2",
        "--backend", backend, "--mutate", "cup-sign-flip", "--trials", "20"])
    assert code == 1
    assert "underpowered" in out
    code, out, _ = run(capsys, [
        "verify", "--law", "L02-relation-left", "--prime", "2",
        "--backend", backend, "--trials", "5"])
    assert code == 1
    assert "underpowered" in out


@pytest.mark.parametrize("prime", ["97", "65537"])
def test_verify_moderate_primes_unaffected(capsys, prime):
    code, out, _ = run(capsys, [
        "verify", "--law", "L03-relation-nested", "--prime", prime,
        "--dim", "3", "--trials", "5"])
    assert code == 0
    assert "PASS L03-relation-nested" in out


def test_verify_refuses_a_dimension_whose_tables_exceed_the_cap():
    proc = run_capped(["verify", "--law", "L05-unit-laws", "--dim", "9000",
                       "--trials", "1"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "2^26" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_refuses_a_declared_table_above_the_cap(tmp_path):
    path = tmp_path / "big.pre"
    path.write_text("let f: deg 62;\nf\n")
    proc = run_capped(["eval", "--script", str(path), "--seed", "1",
                       "--dim", "2"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "2^63 entries" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", [
    "let f: deg 64;\nf\n", "let f: deg 40;\nlet g: deg 30;\ncomp(f, g, 0)\n"])
def test_eval_refuses_a_table_past_numpy_axes_at_dim_1(capsys, tmp_path, text):
    path = tmp_path / "axes.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["eval", "--script", str(path), "--dim", "1",
                                  "--seed", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "axes" in err


def test_eval_of_a_degree_63_table_at_dim_1(capsys, tmp_path):
    path = tmp_path / "deg63.txt"
    path.write_text("let f: deg 63;\nf\n")
    code, out, err = run(capsys, ["eval", "--script", str(path), "--dim", "1",
                                  "--seed", "1"])
    assert code == 0, err
    data = json.loads(out)
    assert data["degree"] == 63 and len(data["payload"]) == 1


BRACE_SCRIPT = "let h: deg {};\nlet f: deg 1;\nlet g: deg 1;\ntri(h, f, g)\n"


def test_eval_free_refuses_a_brace_past_the_leaf_cap(capsys, tmp_path,
                                                     monkeypatch):
    # h{f, g} at deg h 30 is 435 trees of degree 30, at deg h 5 10 of
    # degree 5
    monkeypatch.setattr(free, "MAX_LEAVES", 1000)
    path = tmp_path / "brace.txt"
    path.write_text(BRACE_SCRIPT.format(5))
    code, out, err = run(capsys, ["eval", "--script", str(path),
                                  "--backend", "free"])
    assert code == 0, err
    assert len(json.loads(out)["payload"]) == 10
    path.write_text(BRACE_SCRIPT.format(30))
    code, out, err = run(capsys, ["eval", "--script", str(path),
                                  "--backend", "free"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap of 1000 leaves" in err
    # a generator past the cap is refused where it is declared
    path.write_text("let h: deg 1001;\nh\n")
    code, out, err = run(capsys, ["eval", "--script", str(path),
                                  "--backend", "free"])
    assert code == 2 and err.startswith("error:") and "past 1000" in err


@pytest.mark.parametrize("deg_h", [3000, 30000])
def test_eval_free_refuses_a_brace_whose_region_passes_the_cap(tmp_path, deg_h):
    # both ran out of memory once: at 3000 in the tree sum, at 30000 in
    # the region; now the region, of 4,498,500 or 449,985,000 points, is
    # refused before it is built
    path = tmp_path / "brace.txt"
    path.write_text(BRACE_SCRIPT.format(deg_h))
    start = time.perf_counter()
    proc = run_capped(["eval", "--script", str(path), "--backend", "free"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "points" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert time.perf_counter() - start < 30


def test_verify_unknown_law_is_usage_error(capsys):
    code, out, err = run(capsys, ["verify", "--law", "L99-nope"])
    assert code == 2
    assert "error:" in err


def test_verify_bad_prime_is_usage_error(capsys):
    code, _, err = run(capsys, [
        "verify", "--law", "L05-unit-laws", "--prime", "91", "--trials", "2"])
    assert code == 2
    assert "error:" in err


def test_verify_unknown_mutation_rejected_by_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--mutate", "not-a-hook"])
    assert info.value.code == 2


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--warp-speed"])
    assert info.value.code == 2


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_verify_config_file_with_flag_override(capsys, tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(
        {"trials": 5, "dim": 1, "seed": 9, "degree_max": 3}))
    report_path = tmp_path / "report.json"
    code, _, _ = run(capsys, [
        "verify", "--law", "L06-cup-product", "--config", str(config_path),
        "--trials", "7", "--report", str(report_path)])
    assert code == 0
    suite = json.loads(report_path.read_text())
    assert suite["config"]["trials"] == 7      # flag wins
    assert suite["config"]["dim"] == 1         # from the file
    assert suite["config"]["seed"] == 9
    assert suite["config"]["degree_max"] == 3


def test_verify_config_unknown_key_is_error(capsys, tmp_path):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"shoe_size": 11}))
    code, _, err = run(capsys, [
        "verify", "--law", "L05-unit-laws", "--config", str(config_path)])
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize("settings", [
    {"dim": "2"},
    {"trials": 1.5},
    {"seed": True},
    {"prime": None},
    {"mutations": "cup-sign-flip"},
    {"mutations": None},
])
def test_verify_config_value_of_the_wrong_type_is_error(capsys, tmp_path,
                                                       settings):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(settings))
    code, out, err = run(capsys, [
        "verify", "--law", "L05-unit-laws", "--config", str(config_path)])
    assert code == 2
    assert not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert next(iter(settings)) in lines[0]


def test_verify_missing_config_file(capsys, tmp_path):
    code, _, err = run(capsys, [
        "verify", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content", [b"{bad", b'{"dim": "\xff"}', b"[" * 100_000],
                         ids=["not-json", "not-utf8", "too-deep"])
def test_verify_malformed_config_file_is_error(capsys, tmp_path, content):
    # exit 1 with a traceback would read as a failed law
    config_path = tmp_path / "cfg.json"
    config_path.write_bytes(content)
    code, out, err = run(capsys, [
        "verify", "--law", "L05-unit-laws", "--config", str(config_path)])
    assert code == 2
    assert not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "cfg.json" in lines[0]


def test_verify_deterministic_reports(capsys, tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(capsys, [
            "verify", "--law", "L02-relation-left", "--trials", "8",
            "--dim", "1", "--seed", "4", "--report", str(path)])
        assert code == 0
        paths.append(path)
    first, second = (json.loads(p.read_text()) for p in paths)
    for suite in (first, second):
        for rep in suite["laws"]:
            rep.pop("millis")
    assert first == second


@pytest.mark.parametrize("flags, word", [
    (["--prime", "0"], "not prime"),
    (["--prime", "91"], "not prime"),
    (["--prime", str(2**61 - 1)], "int64"),
    (["--dim", "0"], "dim"),
    (["--dim", "9000"], "2^26"),
    (["--seed", "-1"], "seed"),
    (["--backend", "free", "--dim", "0"], "dim"),
])
def test_eval_refuses_the_settings_verify_refuses(capsys, tmp_path, flags,
                                                   word):
    # 0 used to fall back to the default, and a negative seed ended in a
    # traceback with exit 1
    path = tmp_path / "f.txt"
    path.write_text("let f: deg 1;\nf\n")
    code, out, err = run(capsys, ["eval", "--script", str(path), "--seed", "1",
                                  *flags])
    assert code == 2
    assert not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert word in lines[0]
    code, out, err = run(capsys, ["verify", "--law", "L05-unit-laws",
                                  "--trials", "1", *flags])
    assert code == 2 and word in err


def _golden_witnesses(name):
    return json.loads((GOLDEN / name).read_text())["laws"][0]["failures"]


_REPLAY_GOLDENS = ["l06_endo_cup_sign_flip_seed7.json",
                   "l06_free_cup_sign_flip_seed7_trials12.json"]


@pytest.mark.parametrize("golden", _REPLAY_GOLDENS)
def test_replay_of_a_golden_witness_still_fails(capsys, tmp_path, golden):
    witnesses = _golden_witnesses(golden)
    assert len(witnesses) == 12
    path = tmp_path / "witness.json"
    for witness in witnesses:
        path.write_text(json.dumps(witness))
        code, out, err = run(capsys, ["replay", str(path)])
        assert (code, err) == (1, "")
        assert out == _indented(witness)
    # without the mutation that made it fail the check passes
    path.write_text(json.dumps({**witnesses[0], "mutations": []}))
    code, out, _ = run(capsys, ["replay", str(path)])
    assert code == 0
    assert json.loads(out)["mutations"] == []


@pytest.mark.parametrize("golden", _REPLAY_GOLDENS)
def test_replay_shrink_prints_a_smaller_witness_that_still_fails(
        capsys, tmp_path, golden):
    witness = _golden_witnesses(golden)[0]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code, out, err = run(capsys, ["replay", str(path), "--shrink"])
    assert (code, err) == (1, "")
    shrunk = json.loads(out)
    assert shrunk == laws.shrink(witness)
    assert out == _indented(shrunk)
    assert sum(shrunk["degrees"].values()) <= sum(witness["degrees"].values())
    path.write_text(out)
    code, again, _ = run(capsys, ["replay", str(path), "--shrink"])
    assert code == 1 and json.loads(again) == shrunk


def test_replay_of_a_witness_whose_check_raised_exits_1(capsys, tmp_path,
                                                       monkeypatch):
    def cup(ctx, f, g):
        raise IndexOutOfScope("cup refused")

    monkeypatch.setattr(laws, "cup", cup)
    witness = laws.run_law("L06-cup-product", laws.TrialConfig(
        "endo", dim=2, trials=2, seed=1)).failures[0]
    assert witness["identity"] == "check raised IndexOutOfScope: cup refused"
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code, out, err = run(capsys, ["replay", str(path)])
    assert (code, err) == (1, "")
    assert out == _indented(witness)
    code, out, err = run(capsys, ["replay", str(path), "--shrink"])
    assert (code, err) == (1, "")
    assert json.loads(out) == laws.shrink(witness)


@pytest.mark.parametrize("content, word", [
    (None, "No such file"),
    ("{bad", "witness.json"),
    ("[]", "a JSON object"),
    ('{"law_id": "L06-cup-product", "degrees": {}}', "malformed witness"),
    ('{"law_id": "L99-nope"}', "no law"),
])
def test_replay_of_a_bad_witness_file_is_a_usage_error(capsys, tmp_path,
                                                       content, word):
    path = tmp_path / "witness.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run(capsys, ["replay", str(path)])
    assert code == 2
    assert not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert word in lines[0]


@pytest.mark.parametrize("coeffs", [[3, 4], [3.7], ["12"], [True]],
                         ids=["repeated-tree", "float", "string", "bool"])
def test_replay_of_an_edited_free_witness_is_a_usage_error(capsys, tmp_path,
                                                          coeffs):
    # a repeated tree used to keep its last coefficient, and a coefficient
    # that is not an integer was cast to one: both read another element
    witness = _golden_witnesses(_REPLAY_GOLDENS[1])[0]
    tree = witness["elements"]["g"]["terms"][0][0]
    witness["elements"]["g"]["terms"] = [[tree, c] for c in coeffs]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code, out, err = run(capsys, ["replay", str(path)])
    assert code == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1


def _set_signature(witness, name, new_name, degree):
    for el in witness["elements"].values():
        el["signature"] = [[new_name, degree] if n == name else [n, d]
                           for n, d in el["signature"]]


# each edit used to be cast to an integer and replayed as another witness
_NON_INTEGER_EDITS = {
    "endo-degree": (0, lambda w: w["elements"]["f"].update(degree=3.9)),
    "endo-bool-degree": (0, lambda w: w["elements"]["f"].update(degree=True)),
    "endo-dim": (0, lambda w: w["elements"]["f"].update(dim=2.5)),
    "endo-prime": (0, lambda w: w["elements"]["f"]["ring"].update(p=97.4)),
    "free-degree": (1, lambda w: (w["elements"]["g"].update(degree=2.9),
                                  _set_signature(w, "g", "g", 2.9))),
    "free-element-degree": (1, lambda w: w["elements"]["g"].update(degree=2.9)),
    "free-signature-degree": (1, lambda w: _set_signature(w, "g", "g", 2.9)),
    "free-signature-name": (1, lambda w: _set_signature(w, "g", 7, 2)),
    "free-prime": (1, lambda w: w["elements"]["g"]["ring"].update(p=97.4)),
}


@pytest.mark.parametrize("edit", sorted(_NON_INTEGER_EDITS))
def test_replay_of_a_witness_with_a_non_integer_field_is_a_usage_error(
        capsys, tmp_path, edit):
    golden, change = _NON_INTEGER_EDITS[edit]
    witness = _golden_witnesses(_REPLAY_GOLDENS[golden])[0]
    change(witness)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code, out, err = run(capsys, ["replay", str(path)])
    assert code == 2
    assert not out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be" in err


@pytest.mark.parametrize("change, word", [
    ({"prime": "x"}, "prime must be an integer"),
    ({"elements": [1]}, "malformed witness"),
    ({"mutations": ["not-a-hook"]}, "unknown mutation"),
    ({"backend": "nope"}, "unknown backend"),
])
def test_replay_of_a_malformed_golden_witness_is_a_usage_error(
        capsys, tmp_path, change, word):
    witness = _golden_witnesses(_REPLAY_GOLDENS[0])[0]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({**witness, **change}))
    code, out, err = run(capsys, ["replay", str(path), "--shrink"])
    assert code == 2
    assert not out
    assert err.startswith("error:") and word in err and err.count("\n") == 1


def _free_l06_witness(**degrees):
    """A cup-sign-flip L06 witness of bare free generators of degrees."""
    sig = Signature(tuple(degrees.items()) + (("mu", 2),))
    be = FreeBackend(CoefficientRing.prime_field(97), sig)
    return {"law_id": "L06-cup-product", "seed": [1, 0, 0], "backend": "free",
            "prime": 97, "dim": 2, "mutations": ["cup-sign-flip"],
            "degrees": degrees, "identity": "hand-made",
            "domain_point": None, "lhs": None, "rhs": None,
            "elements": {n: be.generator(n).serialize() for n, _ in sig.generators}}


def _relabelled(witness, old, new=None):
    """witness with its element old renamed new, or dropped when new is
    None."""
    return {**witness, "elements": {
        (new if n == old else n): x for n, x in witness["elements"].items()
        if n != old or new is not None}}


def _with_input(witness, name, **changes):
    """witness with changes written over the payload of its element name."""
    return {**witness, "elements": {
        **witness["elements"], name: {**witness["elements"][name], **changes}}}


_ENDO_W = _golden_witnesses(_REPLAY_GOLDENS[0])[0]
_FREE_W = _free_l06_witness(f=1, g=2)

# elements that disagree with their witness's own settings used to replay
# as a failing check ("check raised RingMismatch ..."), or, as a payload of
# the other backend, into a KeyError
_RELABELLED_WITNESSES = {
    "endo-prime": ({**_ENDO_W, "prime": 101}, "F_101"),
    "endo-dim": ({**_ENDO_W, "dim": 3}, "witness input mu: with dim 2, not 3"),
    "endo-table-over-z": (_with_input(_ENDO_W, "f", ring={"kind": "integers"}),
                          "witness input f: over Z, not F_97"),
    "free-prime": ({**_FREE_W, "prime": 101}, "F_101"),
    "free-signature": (
        _with_input(_FREE_W, "f", signature=[["f", 1], ["g", 2], ["mu", 2], ["x", 1]]),
        "witness input f: with signature"),
    "endo-payload-on-free": (
        {**_FREE_W, "elements": {**_FREE_W["elements"],
                                 "mu": _ENDO_W["elements"]["mu"]}},
        "witness input mu: not a payload of the free backend"),
    "free-payload-on-endo": (
        {**_ENDO_W, "elements": {**_ENDO_W["elements"],
                                 "g": _FREE_W["elements"]["g"]}},
        "witness input g: not a payload of the endo backend"),
}


@pytest.mark.parametrize("case", sorted(_RELABELLED_WITNESSES))
def test_the_library_refuses_a_witness_its_settings_disagree_with(case):
    witness, word = _RELABELLED_WITNESSES[case]
    for run in (laws.replay, laws.shrink):
        with pytest.raises(PreOperadError, match=word):
            run(witness)


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


def _element_free_witness(law_id, **degrees):
    return {"law_id": law_id, "seed": [1, 0, 0], "backend": "endo",
            "prime": 97, "dim": 2, "mutations": [], "degrees": degrees,
            "elements": {}, "identity": "hand-made", "domain_point": None,
            "lhs": None, "rhs": None}


# a witness lacking one of its own fields used to raise a bare KeyError
# from the library, turned into exit 2 only by the CLI's catch-all
_INCOMPLETE_WITNESSES = {
    "endo-without-prime": (_without(_ENDO_W, "prime"),
                           'malformed witness: no field "prime"'),
    "endo-f-without-degree": (
        {**_ENDO_W, "elements": {**_ENDO_W["elements"],
                                 "f": _without(_ENDO_W["elements"]["f"],
                                               "degree")}},
        'witness input f: malformed table payload: no field "degree"'),
}


@pytest.mark.parametrize("case", sorted(_INCOMPLETE_WITNESSES))
def test_the_library_refuses_a_witness_that_lacks_a_field(case):
    witness, word = _INCOMPLETE_WITNESSES[case]
    for run in (laws.replay, laws.shrink):
        with pytest.raises(BadConfig, match=word):
            run(witness)


_REFUSED_WITNESSES = {
    **_RELABELLED_WITNESSES,
    **_INCOMPLETE_WITNESSES,
    # scope regions of these degrees used to exhaust memory
    "l01-degrees": (_element_free_witness("L01-scope-partition",
                                          h=3000, f=3000, g=2),
                    "degree budget"),
    "free-degrees": (_free_l06_witness(f=11, g=2), "degree budget"),
    # laws that do not run on free used to replay into an AttributeError
    "l27-on-free": ({**_free_l06_witness(f=1, g=2), "law_id": "L27-cross-backend"},
                    "does not run on the free backend"),
    "l12-on-free": ({**_free_l06_witness(f=1, g=2), "law_id": "L12-delta-squared"},
                    "does not run on the free backend"),
    # inputs that are not the law's slots and mu used to replay into a
    # KeyError, reported only as a malformed witness
    "renamed-input": (_relabelled(_golden_witnesses(_REPLAY_GOLDENS[0])[0],
                                  "f", "a"), "takes the inputs f, g, mu"),
    "free-without-mu": (_relabelled(_free_l06_witness(f=1, g=2), "mu"),
                        "takes the inputs f, g, mu"),
    # a string of mutations used to be read as a list of its letters
    "mutations-string": ({**_golden_witnesses(_REPLAY_GOLDENS[0])[0],
                          "mutations": "cup-sign-flip"},
                         "mutations must be a list of names"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_WITNESSES))
def test_replay_refuses_a_witness_no_run_could_write(tmp_path, case):
    witness, word = _REFUSED_WITNESSES[case]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    for argv in (["replay", str(path)], ["replay", "--shrink", str(path)]):
        start = time.perf_counter()
        proc = run_capped(argv)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2, proc.stderr
        assert not proc.stdout
        assert proc.stderr.startswith("error:") and word in proc.stderr
        assert proc.stderr.count("\n") == 1


def _l05_witness(f_degree):
    """An endo L05 witness whose f is the zero table of degree f_degree."""
    return {**_element_free_witness("L05-unit-laws", f=f_degree), "elements": {
        "f": {"degree": f_degree, "dim": 2, "entries": [0] * 2 ** (f_degree + 1),
              "ring": {"kind": "prime_field", "p": 97}},
        "mu": _ENDO_W["elements"]["mu"]}}


# input degrees verify never draws used to replay as a failing law (exit 1),
# as a passing one (exit 0, a bool read as 1), or into a TypeError that only
# the CLI's catch-all turned into exit 2
_OUT_OF_RANGE_DEGREES = {
    "l01-h-0": (_element_free_witness("L01-scope-partition", h=0, f=2, g=2),
                "witness input h: its degree must be >= 1, got 0"),
    "l01-h-negative": (_element_free_witness("L01-scope-partition",
                                             h=-3, f=2, g=2),
                       "witness input h: its degree must be >= 1, got -3"),
    "l01-f-0": (_element_free_witness("L01-scope-partition", h=3, f=0, g=2),
                "witness input f: its degree must be >= 1, got 0"),
    "l01-h-bool": (_element_free_witness("L01-scope-partition",
                                         h=True, f=2, g=2),
                   "witness input h: its degree must be an integer, got True"),
    "l01-h-float": (_element_free_witness("L01-scope-partition",
                                          h=2.5, f=2, g=2),
                    "witness input h: its degree must be an integer, got 2.5"),
    "l25-h-0": (_element_free_witness("L25-envelope-partition",
                                      h=0, f=1, g=1, b=1),
                "witness input h: its degree must be >= 1, got 0"),
    "l26-h-negative": (_element_free_witness("L26-degree-bookkeeping",
                                             h=-3, f=1, g=1, b=1),
                       "witness input h: its degree must be >= 1, got -3"),
    "l05-f-0": (_l05_witness(0),
                "witness input f: its degree must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE_DEGREES))
def test_replay_refuses_an_input_degree_below_1(capsys, tmp_path, case):
    witness, message = _OUT_OF_RANGE_DEGREES[case]
    for run_library in (laws.replay, laws.shrink):
        with pytest.raises(BadConfig) as info:
            run_library(witness)
        assert str(info.value) == message
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    for argv in (["replay", str(path)], ["replay", "--shrink", str(path)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


_DEGREES_NOT_AN_OBJECT = 'malformed witness: field "degrees" must be a JSON object'
_ELEMENTS_NOT_AN_OBJECT = 'malformed witness: field "elements" must be a JSON object'
# inputs that are not a JSON object used to replay into a bare TypeError or
# ValueError, or to be read as the letters of a string
_NOT_AN_OBJECT = {
    "l01-degrees-list": (
        {**_element_free_witness("L01-scope-partition"), "degrees": [1, 2, 3]},
        f"{_DEGREES_NOT_AN_OBJECT}, got list"),
    "l01-degrees-string": (
        {**_element_free_witness("L01-scope-partition"), "degrees": "hfg"},
        f"{_DEGREES_NOT_AN_OBJECT}, got str"),
    "l05-elements-list": ({**_l05_witness(1), "elements": [1]},
                          f"{_ELEMENTS_NOT_AN_OBJECT}, got list"),
    "l05-elements-string": ({**_l05_witness(1), "elements": "f"},
                            f"{_ELEMENTS_NOT_AN_OBJECT}, got str"),
}


@pytest.mark.parametrize("case", sorted(_NOT_AN_OBJECT))
def test_replay_refuses_inputs_that_are_not_a_json_object(capsys, tmp_path,
                                                          case):
    witness, message = _NOT_AN_OBJECT[case]
    for run_library in (laws.replay, laws.shrink):
        with pytest.raises(BadConfig) as info:
            run_library(witness)
        assert str(info.value) == message
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    for argv in (["replay", str(path)], ["replay", "--shrink", str(path)]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


def test_eval_of_the_quadruple_brace_closed_form_is_zero(capsys, monkeypatch):
    # degree 9 at dim 3: 3^10 entries, so the compositions run in float32
    # on int32 tables, in both block layouts
    layouts = set()
    product = endo._float_product

    def recorded(f3, g2, c, out=None):
        layouts.add(f3.shape[2] > 1)
        return product(f3, g2, c, out)

    monkeypatch.setattr(endo, "_float_product", recorded)
    code, out, err = run(capsys, [
        "eval", "--script", str(GOLDEN / "closed_form_h4_f2_g2_b3.txt"),
        "--dim", "3", "--seed", "1"])
    assert (code, err) == (0, "")
    value = json.loads(out)
    assert value["degree"] == 9
    assert value["payload"] == [0] * 3 ** 10
    assert layouts == {False, True}


def test_eval_endo_script(capsys, tmp_path):
    path = tmp_path / "cup.txt"
    path.write_text(CUP_SCRIPT)
    code, out, _ = run(capsys, [
        "eval", "--script", str(path), "--dim", "1"])
    assert code == 0
    data = json.loads(out)
    assert data == {"backend": "endo", "degree": 2, "payload": [91]}


@pytest.mark.parametrize("entry,reduced", [
    ("100000000000000000000000000000", 57),
    ("-9223372036854775809", 17),
    ("9223372036854775808", 79),
])
def test_eval_literal_outside_int64_is_reduced_exactly(capsys, tmp_path,
                                                       entry, reduced):
    path = tmp_path / "big.txt"
    path.write_text(f"let mu: deg 2 = [1, 0, 0, 0, 0, 0, 0, 1];\n"
                    f"let f: deg 1 = [{entry}, 1, 2, 3];\nf\n")
    code, out, err = run(capsys, ["eval", "--script", str(path), "--dim", "2"])
    assert code == 0, err
    assert json.loads(out)["payload"] == [reduced, 1, 2, 3]


def test_eval_free_script(capsys, tmp_path):
    path = tmp_path / "word.txt"
    path.write_text(FREE_SCRIPT)
    code, out, _ = run(capsys, [
        "eval", "--script", str(path), "--backend", "free"])
    assert code == 0
    data = json.loads(out)
    assert data["backend"] == "free"
    assert data["degree"] == 2
    assert data["payload"] == [["(h (f _) _)", 1]]


def test_eval_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(CUP_SCRIPT))
    code, out, _ = run(capsys, ["eval", "--script", "-", "--dim", "1"])
    assert code == 0
    assert json.loads(out)["payload"] == [91]


def test_eval_reads_only_the_names_its_expression_uses(capsys,
                                                       monkeypatch):
    # a literal and no seed: mu is never read, so it needs no value
    monkeypatch.setattr("sys.stdin", io.StringIO("let f: deg 1 = [2];\nf\n"))
    code, out, err = run(capsys, ["eval", "--script", "-", "--dim", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"] == [2]
    # an unused degree-25 name at dim 2 would be a 2^26-entry draw; it
    # draws nothing, so f is what the seed gives it without g
    outs = []
    for text in ("let g: deg 25;\nlet f: deg 1;\nf\n", "let f: deg 1;\nf\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, ["eval", "--script", "-", "--dim", "2",
                                      "--seed", "1"])
        assert (code, err) == (0, "")
        outs.append(json.loads(out))
    assert outs[0] == outs[1]


def test_eval_missing_script_file(capsys, tmp_path):
    code, _, err = run(capsys, [
        "eval", "--script", str(tmp_path / "nope.txt")])
    assert code == 2
    assert "error:" in err


def test_eval_script_that_is_not_utf8_is_error(capsys, tmp_path):
    path = tmp_path / "not_utf8.txt"
    path.write_bytes(b"let f: deg 1 = [\xff];\nf\n")
    code, out, err = run(capsys, ["eval", "--script", str(path)])
    assert code == 2
    assert not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "UTF-8" in lines[0]


def test_eval_syntax_error_reports_position(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("let f: deg 1; comp(f, f,)")
    code, _, err = run(capsys, ["eval", "--script", str(path)])
    assert code == 2
    assert "error:" in err and "1:" in err


def test_eval_of_a_script_nested_too_deeply_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text("let f: deg 1;\n" + "(" * 5000 + "f" + ")" * 5000 + "\n")
    code, out, err = run(capsys, ["eval", "--script", str(path), "--seed", "1"])
    assert code == 2
    assert not out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: 2:")
    assert "nested too deeply" in lines[0]


def test_eval_of_fifty_nesting_levels(capsys, tmp_path):
    # each level adds f to the previous one composed with the unit
    expr = "f"
    for _ in range(50):
        expr = f"(comp({expr}, I, 0) + f)"
    path = tmp_path / "nested.txt"
    path.write_text("let mu: deg 2 = [1];\nlet f: deg 1 = [1];\n" + expr)
    code, out, err = run(capsys, ["eval", "--script", str(path), "--dim", "1"])
    assert code == 0, err
    assert json.loads(out)["payload"] == [51]


def test_eval_undeclared_without_seed(capsys, tmp_path):
    path = tmp_path / "missing.txt"
    path.write_text("let f: deg 1; cup(f, f)")
    code, _, err = run(capsys, ["eval", "--script", str(path)])
    assert code == 2
    assert "error:" in err


def test_eval_seeded_random_draws_deterministic(capsys, tmp_path):
    path = tmp_path / "rand.txt"
    path.write_text("let f: deg 1; let g: deg 2; bul(g, f)")
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, [
            "eval", "--script", str(path), "--seed", "3", "--dim", "1"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    code, other, _ = run(capsys, [
        "eval", "--script", str(path), "--seed", "4", "--dim", "1"])
    assert code == 0
    assert other != outs[0]


@pytest.mark.parametrize("backend", ["endo", "free"])
@pytest.mark.parametrize("mutation", KNOWN_MUTATIONS)
def test_degree_bookkeeping_passes_under_every_canary(capsys, tmp_path,
                                                      backend, mutation):
    # every known mutation flips a sign or drops points; none moves a degree
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "verify", "--law", "L26-degree-bookkeeping", "--backend", backend,
        "--mutate", mutation, "--seed", "1", "--trials", "40",
        "--report", str(path)])
    assert code == 0
    report, = json.loads(path.read_text())["laws"]
    assert report["status"] == "pass"
    assert (report["trials"], report["vacuous"]) == (40, 0)
