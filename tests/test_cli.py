import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from linkforms import (
    FinAbGroup,
    LinkingForm,
    QZValue,
    direct_sum,
    first_w_morphism,
    standard_w,
    w_power,
)
from linkforms import complexes, lcomplex
import linkforms.errors as errors
from linkforms.cli import _ERROR_CODES, braced, main
from linkforms.corpus import scramble_form
from linkforms.documents import form_to_document
from linkforms.forms import normal_form
from linkforms.reporting import REPORT_SCHEMA
import linkforms.verify as verify_mod
from linkforms.verify import CriterionResult


@pytest.fixture
def files(tmp_path):
    def dump(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    rng = random.Random(9)
    mixed, _ = scramble_form(direct_sum(standard_w(3), standard_w(9)), rng)
    zero = QZValue(0, 1)
    return {
        "w3": dump("w3.json", form_to_document(standard_w(3))),
        "w3sq": dump(
            "w3sq.json", form_to_document(direct_sum(standard_w(3), standard_w(3)))
        ),
        "mixed": dump("mixed.json", form_to_document(mixed)),
        "singular": dump(
            "singular.json",
            form_to_document(LinkingForm(FinAbGroup.of(3), [[zero]])),
        ),
        "badfrac": dump(
            "badfrac.json",
            {"orders": [3, 3], "gram": [["0/1", "1/0"], ["2/3", "0/1"]]},
        ),
        "manifold": dump(
            "manifold.json", {"k": 3, "plus": 2, "minus": 1, "circles": 1}
        ),
        "badmanifold": dump("badmanifold.json", {"k": 1, "plus": 0, "minus": 0}),
        "dir": tmp_path,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    report = json.loads(out or err)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_text(files, capsys):
    code, out, err = run(capsys, "classify", files["w3"])
    assert code == 0
    assert out.splitlines()[0] == "classify: OK"
    assert "W_{3}^{1}" in out
    assert err == ""


def test_classify_json_mixed(files, capsys):
    code, report = run_json(capsys, "classify", files["mixed"])
    assert code == 0
    assert report["status"] == "ok"
    assert report["data"]["normal_form"] == "W_{3}^{1} ⊕ W_{9}^{1}"
    assert report["data"]["cardinality"] == 729
    assert report["data"]["nonsingular"] is True


def test_classify_singular_exits_3(files, capsys):
    code, report = run_json(capsys, "classify", files["singular"])
    assert code == 3
    assert report["status"] == "error"
    assert report["data"]["kind"] == "SingularFormError"
    assert "radical" in report["data"]["error"]


def test_classify_malformed_fraction_exits_2(files, capsys):
    code, out, err = run(capsys, "classify", files["badfrac"])
    assert code == 2
    assert out == ""
    assert "gram[0][1]" in err and "zero denominator" in err


def test_classify_missing_file_exits_2(files, capsys):
    code, _, err = run(capsys, "classify", str(files["dir"] / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_braced_rendering():
    assert braced(normal_form(standard_w(3))) == "W_{3}^{1}"
    nf = normal_form(direct_sum(standard_w(3), standard_w(3)))
    assert braced(nf) == "W_{3}^{2}"


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def test_rank_certified(files, capsys):
    code, report = run_json(capsys, "rank", files["w3sq"], "3")
    assert code == 0
    assert report["data"]["rank"] == 2
    assert report["data"]["certified"] is True
    assert report["data"]["upper_bound"] == 2


def test_rank_stable(files, capsys):
    code, report = run_json(capsys, "rank", files["w3"], "3", "--stable", "--gmax", "2")
    assert code == 0
    assert report["data"]["stable_rank"] == 1
    assert report["data"]["certified"] is True
    ranks = [e["rank"] for e in report["data"]["per_g"]]
    assert ranks == [1, 2, 3]


def test_rank_stable_past_padded_rank_cap_exits_5(files, capsys):
    """--gmax 2^70 would pad W_3 to rank 2 + 2^71: refused (exit 5) before
    the first search, as the refusal's needed rank shows."""
    code, report = run_json(capsys, "rank", files["w3"], "3", "--stable", "--gmax", str(2**70))
    assert code == 5
    assert report["data"]["kind"] == "CapExceeded"
    assert (report["data"]["needed"], report["data"]["cap"]) == (2 + 2**71, 64)


def test_rank_require_certified_exits_4(files, capsys):
    code, report = run_json(
        capsys, "rank", files["mixed"], "3", "--budget", "1", "--require-certified"
    )
    assert code == 4
    assert report["data"]["kind"] == "BudgetExhausted"


def test_rank_uncertified_without_flag_is_ok(files, capsys):
    code, report = run_json(capsys, "rank", files["mixed"], "3", "--budget", "1")
    assert code == 0
    assert report["data"]["certified"] is False


@pytest.mark.parametrize("extra", [[], ["--stable"]])
def test_rank_negative_budget_exits_2(files, capsys, extra):
    code, report = run_json(capsys, "rank", files["mixed"], "3", "--budget", "-5", *extra)
    assert code == 2
    assert report["data"]["kind"] == "InputError"


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------


def test_complex_summary(files, capsys):
    code, report = run_json(capsys, "complex", files["w3sq"], "3")
    assert code == 0
    d = report["data"]
    assert (d["vertices"], d["edges"], d["components"]) == (2160, 25920, 45)
    assert d["materialized"] is True


def test_complex_verify_links_and_seed(files, capsys):
    code, report = run_json(
        capsys, "complex", files["w3sq"], "3", "--verify-links", "3", "--seed", "5"
    )
    assert code == 0
    assert report["data"]["links_verified"] == "3/3"
    assert report["seed"] == 5


def test_complex_dot_export(files, capsys):
    dot = str(files["dir"] / "out.dot")
    code, report = run_json(capsys, "complex", files["w3"], "3", "--export-dot", dot)
    assert code == 0
    text = open(dot).read()
    assert text.startswith("graph")
    assert "|" in text  # morphism-coefficient labels
    assert report["data"]["dot_file"] == dot


def test_complex_dot_export_to_unwritable_path_exits_2(files, capsys):
    """A DOT path in a missing directory, or one that is a directory, is
    refused as input (exit 2) with the path named, not a traceback."""
    for path in (files["dir"] / "missing" / "out.dot", files["dir"]):
        code, report = run_json(capsys, "complex", files["w3"], "3", "--export-dot", str(path))
        assert code == 2
        assert report["data"]["kind"] == "InputError"
        assert report["data"]["error"].startswith(f"cannot write {path}: ")


def test_complex_homology_of_discrete_level(files, capsys):
    code, report = run_json(
        capsys, "complex", files["w3"], "3", "--homology-max-dim", "0"
    )
    assert code == 0
    assert report["data"]["homology"]["H_0"] == "Z^24"
    assert report["data"]["euler"] == 24


def test_complex_euler_needs_the_top_dimension(tmp_path, capsys):
    """W_2^2's complex at k = 2 has edges, so homology cut at degree 0
    leaves its top dimension unknown and a face-count Euler characteristic
    would be a partial sum; the report leaves it out."""
    p = tmp_path / "w2sq.json"
    p.write_text(json.dumps(form_to_document(w_power(2, 2))))
    code, report = run_json(capsys, "complex", str(p), "2", "--homology-max-dim", "0")
    assert code == 0
    assert report["data"]["homology"] == {"H_0": "Z^10"}
    assert "euler" not in report["data"]


def test_complex_homology_cut_short_exits_5(files, capsys, monkeypatch):
    """Each of W_3^2's 45 components has 48 vertices and 576 edges, so a
    budget of 600 cuts every walk before H_0 is finished; the report is
    refused (exit 5), not given as status ok with partial groups."""
    monkeypatch.setattr(complexes, "DEFAULT_SIMPLEX_BUDGET", 600)
    code, report = run_json(
        capsys, "complex", files["w3sq"], "3", "--homology-max-dim", "1"
    )
    assert code == 5
    assert report["data"]["kind"] == "CapExceeded"
    assert report["data"]["cap"] == 600


@pytest.mark.parametrize("flag", ["--verify-links", "--homology-max-dim", "--materialize-cap"])
def test_complex_negative_count_exits_2(files, capsys, flag):
    code, report = run_json(capsys, "complex", files["w3"], "3", flag, "-1")
    assert code == 2
    assert report["data"]["kind"] == "InputError"
    assert flag in report["data"]["error"]


def test_complex_force_materialize_exits_5(files, capsys):
    code, report = run_json(
        capsys,
        "complex", files["w3sq"], "3", "--materialize-cap", "100", "--materialize",
    )
    assert code == 5
    assert report["data"]["kind"] == "CapExceeded"
    assert report["data"]["needed"] == 2160
    assert report["data"]["cap"] == 100


def test_complex_past_adjacency_cap_exits_5(files, capsys, monkeypatch):
    """A --materialize-cap above the vertex count lets W_3^2 through, but
    its 2160 x 2160 adjacency is past an adjacency cap patched down to
    2160^2 - 1 bytes: refused (exit 5) with the bytes it would need."""
    monkeypatch.setattr(lcomplex, "ADJACENCY_BYTE_CAP", 2160**2 - 1)
    code, report = run_json(capsys, "complex", files["w3sq"], "3", "--materialize-cap", "1000000")
    assert code == 5
    assert report["data"]["kind"] == "CapExceeded"
    assert (report["data"]["needed"], report["data"]["cap"]) == (2160**2, 2160**2 - 1)


def test_complex_past_enumeration_cap_exits_5(tmp_path, capsys):
    """W_3^9 has 3^18 torsion rows at k = 3, past the enumeration cap: the
    lazy complex is refused (exit 5) before any row table is built."""
    path = tmp_path / "w3_9.json"
    path.write_text(json.dumps(form_to_document(w_power(3, 9))))
    code, report = run_json(capsys, "complex", str(path), "3")
    assert code == 5
    assert report["data"]["kind"] == "CapExceeded"
    assert report["data"]["needed"] == 3**18


def test_complex_lazy_refuses_homology(files, capsys):
    code, report = run_json(
        capsys,
        "complex", files["w3sq"], "3",
        "--materialize-cap", "100", "--homology-max-dim", "1",
    )
    assert code == 5
    assert "materialized" in report["data"]["error"]


def test_complex_path_no_hub_fails(files, capsys):
    code, report = run_json(capsys, "complex", files["w3sq"], "3", "--path", "0", "777")
    assert code == 1
    assert report["status"] == "fail"
    assert report["data"]["path"]["status"] == "no-f0"


# ---------------------------------------------------------------------------
# bordism
# ---------------------------------------------------------------------------


def test_bordism_two_sided(files, capsys):
    code, report = run_json(capsys, "bordism", "1", "3", "3")
    assert code == 0
    assert report["data"]["group"] == "Z/3"


def test_bordism_one_sided(files, capsys):
    code, out, _ = run(capsys, "bordism", "0", "6")
    assert code == 0
    assert "group: Z/6" in out


def test_bordism_degree_two_exits_6(files, capsys):
    code, report = run_json(capsys, "bordism", "2", "5")
    assert code == 6
    assert report["data"]["kind"] == "UnsupportedDegree"


def test_bordism_inconsistent_sequences_exit_7(files, capsys, monkeypatch):
    """A wrong kernel is a library fault (exit 7), not malformed input."""
    import linkforms.bordism as bordism

    monkeypatch.setattr(bordism, "multiplication_kernel", lambda G, k: bordism.AbGroupDescriptor.cyclic(7))
    code, report = run_json(capsys, "bordism", "0", "6", "4")
    assert code == 7
    assert report["data"]["kind"] == "InvariantError"


def test_bordism_manifold_report(files, capsys):
    code, out, _ = run(capsys, "bordism", "--manifold", files["manifold"])
    assert code == 0
    assert "class: 1" in out
    assert "generator: yes" in out
    assert "T_3: 1/3" in out
    assert "admits_swapping_involution: no" in out


def test_bordism_bad_manifold_exits_2(files, capsys):
    code, _, err = run(capsys, "bordism", "--manifold", files["badmanifold"])
    assert code == 2
    assert "k must be >= 2" in err


def test_bordism_without_args_exits_2(files, capsys):
    code, _, err = run(capsys, "bordism")
    assert code == 2
    assert "DEGREE and K" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite(files, capsys):
    code, report = run_json(capsys, "verify", "bordism-tables")
    assert code == 0
    (entry,) = report["data"]["criteria"]
    assert entry["name"] == "bordism-tables"
    assert entry["passed"] is True


def test_verify_times_suites_with_perf_counter(monkeypatch):
    """Suite times come from the monotonic clock, read around the suite."""
    ticks = iter([10.0, 12.5])
    monkeypatch.setattr(verify_mod, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    assert verify_mod.run_suite("bordism-tables").seconds == 2.5


def test_verify_unknown_suite_exits_2(files, capsys):
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == 2
    assert "unknown suite" in err
    assert "bordism-tables" in err  # the known names are listed


def test_verify_budget_zero_is_honoured(files, capsys, monkeypatch):
    """--budget 0 means bounds only, as for ``rank``; it is not replaced by
    the default budget."""
    code, report = run_json(capsys, "verify", "rank-reduction", "--budget", "0")
    assert code == 1
    assert report["data"]["first_failure"]["detail"] == "base rank uncertified"

    budgets = []
    real = verify_mod.stable_k_rank

    def spy(*args, budget, **kwargs):
        budgets.append(budget)
        return real(*args, budget=budget, **kwargs)

    monkeypatch.setattr(verify_mod, "stable_k_rank", spy)
    run_json(capsys, "verify", "stable-rank-reduction", "--budget", "0")
    assert budgets and set(budgets) == {0}


@pytest.mark.parametrize("suite", ["link-iso", "bordism-tables", "all"])
def test_verify_negative_budget_exits_2(files, capsys, monkeypatch, suite):
    """Every suite refuses a negative budget, also those that never read
    it, and before any suite runs."""
    ran = []
    monkeypatch.setattr(verify_mod, "run_suite", lambda *a, **kw: ran.append(a))
    monkeypatch.setattr(verify_mod, "run_all", lambda *a, **kw: ran.append(a))
    code, report = run_json(capsys, "verify", suite, "--budget", "-5")
    assert code == 2
    assert report["data"]["kind"] == "InputError"
    assert "--budget" in report["data"]["error"]
    assert ran == []


def test_verify_failure_exits_1(files, capsys, monkeypatch):
    def fake(seed, budget):
        return CriterionResult(
            99, "bordism-tables", False, "synthetic failure", {"witness": 1}, 0.0
        )

    monkeypatch.setitem(verify_mod.SUITES, "bordism-tables", fake)
    code, report = run_json(capsys, "verify", "bordism-tables")
    assert code == 1
    assert report["status"] == "fail"
    assert report["data"]["first_failure"]["name"] == "bordism-tables"
    assert report["data"]["first_failure"]["witness"] == {"witness": 1}


# ---------------------------------------------------------------------------
# argparse-level behaviour
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_non_integer_level_is_usage_error(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", files["w3"], "three"])
    assert exc.value.code == 2


def test_console_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "linkforms.cli", "classify", files["w3"], "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["data"]["normal_form"] == "W_{3}^{1}"


@pytest.mark.parametrize(
    "argv", [("1",), ("0",), ("3", "--stable", "--gmax", "-1"), ("1", "--stable")]
)
def test_rank_rejects_bad_level_and_gmax(files, argv):
    """k < 2 and a negative --gmax are input errors (exit 2).  The CLI runs
    in a subprocess with a timeout, so that a hang fails the test instead of
    stalling the suite."""
    proc = subprocess.run(
        [sys.executable, "-m", "linkforms.cli", "rank", files["w3sq"], *argv, "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr)["data"]["kind"] == "InputError"


def test_text_and_json_verdicts_agree(files, capsys):
    code_t, out_t, _ = run(capsys, "classify", files["mixed"])
    code_j, report = run_json(capsys, "classify", files["mixed"])
    assert code_t == code_j == 0
    assert out_t.splitlines()[0].endswith(report["status"].upper())
    assert report["data"]["normal_form"] in out_t


# ---------------------------------------------------------------------------
# invariant violations
# ---------------------------------------------------------------------------

NO_EDGES = """
import sys
import linkforms.lcomplex as lcomplex
from linkforms.cli import main
if not sys.flags.optimize:
    sys.exit("expected python -O")
lcomplex.images_orthogonal = lambda f, g: False
sys.exit(main(sys.argv[1:]))
"""


@pytest.fixture
def w3_fourth(tmp_path):
    """W_3^4: its complex has a hub, so a path is built and then checked."""
    p = tmp_path / "w3x4.json"
    p.write_text(json.dumps(form_to_document(w_power(3, 4))))
    return str(p)


def test_invariant_violation_exits_7(w3_fourth, capsys, monkeypatch):
    import linkforms.lcomplex as lcomplex

    monkeypatch.setattr(lcomplex, "images_orthogonal", lambda f, g: False)
    code, report = run_json(capsys, "complex", w3_fourth, "3", "--path", "1", "2")
    assert code == 7
    assert report["status"] == "error"
    assert report["data"]["kind"] == "InvariantError"
    assert "non-edge" in report["data"]["error"]


def test_foreign_vertex_exits_2(w3_fourth, capsys, monkeypatch):
    """A path query whose endpoint is a morphism into another form on the
    same group reports bad input (exit 2), not a broken invariant."""
    import linkforms.cli as cli

    real = cli.find_short_path

    def with_foreign_start(L, i, j):
        twice = LinkingForm._from_numerators(
            L.form.group, L.form.denominator, [[2 * n for n in row] for row in L.form.numerators]
        )
        return real(L, first_w_morphism(twice, L.k), j)

    monkeypatch.setattr(cli, "find_short_path", with_foreign_start)
    code, report = run_json(capsys, "complex", w3_fourth, "3", "--path", "1", "2")
    assert code == 2
    assert report["status"] == "error"
    assert report["data"]["kind"] == "InputError"


def test_invariant_violation_fires_under_python_O(w3_fourth):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", NO_EDGES, "complex", w3_fourth, "3",
         "--path", "1", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 7, proc.stderr
    assert json.loads(proc.stderr)["data"]["kind"] == "InvariantError"


# ---------------------------------------------------------------------------
# frozen reports
# ---------------------------------------------------------------------------

# sha256 of the --json report of each invocation on the fixture documents,
# with verify's wall-time "seconds" fields removed.  A change that promises
# unchanged answers must leave every digest as it is.
FROZEN_REPORTS = {
    ("classify", "mixed"): "b5976f53b55ba896",
    ("rank", "w3sq", "3"): "516059666a801cd4",
    ("rank", "w3", "3", "--stable", "--gmax", "2"): "a9c7abc37909e772",
    ("complex", "w3sq", "3", "--verify-links", "3", "--seed", "5", "--path", "0", "777"): "a0213d5a7b66bae7",
    ("complex", "w3", "3", "--homology-max-dim", "0"): "4fae151d731b0ffa",
    ("complex", "w3_fourth", "3", "--path", "1", "2"): "70757f5ffa35207e",
    ("bordism", "1", "3", "3"): "cd51642837ea9623",
    ("bordism", "0", "6"): "08bd8ed30bdef478",
    ("bordism", "--manifold", "manifold"): "285a6ff29d620906",
    ("verify", "bordism-tables"): "a0d966388d477f18",
    ("verify", "ak-calculus"): "532794d909ba9af7",
}


@pytest.mark.parametrize("argv", list(FROZEN_REPORTS), ids=" ".join)
def test_frozen_report(files, w3_fourth, capsys, argv):
    paths = {**files, "w3_fourth": w3_fourth}
    _, report = run_json(capsys, *(paths.get(a, a) for a in argv))
    for entry in report["data"].get("criteria", []):
        del entry["seconds"]
    blob = json.dumps(report, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
    assert digest == FROZEN_REPORTS[argv], f"report {digest} changed: {blob}"


# ---------------------------------------------------------------------------
# the argument contract
# ---------------------------------------------------------------------------

W3_DOC = form_to_document(standard_w(3))
ZERO_3SQ = LinkingForm(FinAbGroup.of(3, 3), [[QZValue(0, 1)] * 2] * 2)
CONTRACT_DOCS = {
    "w3": W3_DOC,
    "w3sq": form_to_document(w_power(3, 2)),
    "singular": form_to_document(LinkingForm(FinAbGroup.of(3), [[QZValue(0, 1)]])),
    # 1,162,084,320 morphisms at k = 3: rank's branch enumeration is
    # refused at its cap whatever the budget, and the complex stays lazy.
    "w3-fourth-zero": form_to_document(direct_sum(w_power(3, 4), ZERO_3SQ)),
    "string-orders": {**W3_DOC, "orders": ["3", "3"]},
    "zero-order": {**W3_DOC, "orders": [0, 3]},
    "negative-order": {**W3_DOC, "orders": [-3, 3]},
    "huge-order": {**W3_DOC, "orders": [2**70, 3]},
    "ragged-gram": {**W3_DOC, "gram": [["0/1"], ["2/3", "0/1"]]},
    "float-numerator": {**W3_DOC, "gram": [[0.0, "1/3"], ["2/3", "0/1"]]},
    "nested-gram": {**W3_DOC, "gram": [[["0/1"], "1/3"], ["2/3", "0/1"]]},
    "not-skew": {**W3_DOC, "gram": [["0/1", "1/3"], ["1/3", "0/1"]]},
    "not-strict": {**W3_DOC, "gram": [["1/3", "1/3"], ["2/3", "0/1"]]},
    "zero-denominator": {**W3_DOC, "gram": [["0/1", "1/0"], ["2/3", "0/1"]]},
    "list-document": [W3_DOC],
    "manifold": {"k": 3, "plus": 2, "minus": 1, "circles": 1},
    "bad-manifold": {"k": 1, "plus": 0, "minus": 0},
}
# Documents written as raw bytes: one that is not UTF-8, and one nested
# past the JSON decoder's recursion limit.
RAW_CONTRACT_DOCS = {
    "not-utf8": b'{"orders": [3, 3], "name": "\xff"}',
    "deep-nesting": b"[" * 100_000,
}

SMALL = ("-2", "-1", "0", "1", "2", "3")
INTS = st.sampled_from(SMALL + (str(2**70),))
# Levels k also take 2^40 and the prime 2^61 - 1: no bound factors k and no
# first-morphism walk holds a torsion axis, so both stay cheap.
LEVELS = st.sampled_from(SMALL + (str(2**70), str(2**40), str(2**61 - 1)))
# Counts of link checks stay small: each unit is a link check.  Padded
# blocks (--gmax) take INTS, 2^70 among them: past the padded-rank cap the
# stable rank is refused before its first search.
COUNTS = st.sampled_from(SMALL)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def switch(flag):
    return st.sampled_from([[], [flag]])


@st.composite
def contract_argv(draw):
    """One argument vector for a cheap subcommand, the document given by
    name; the documents are the fixtures and mutations of them, the three
    valid forms drawn about as often as all the rest."""
    valid = st.sampled_from(["w3", "w3sq", "singular"])
    pool = sorted(CONTRACT_DOCS) + sorted(RAW_CONTRACT_DOCS) + ["absent"]
    doc = draw(st.one_of(valid, st.sampled_from(pool)))
    command = draw(st.sampled_from(["classify", "rank", "complex", "bordism", "verify"]))
    if command == "classify":
        return ["classify", doc]
    if command == "rank":
        return (["rank", doc, draw(LEVELS), "--budget", draw(INTS)] + draw(switch("--stable"))
                + draw(optional("--gmax", INTS)) + draw(switch("--require-certified")))
    if command == "complex":
        # The 2160-vertex complex of W_3^2 at k = 3 takes 0.4 s to
        # materialize, so that document keeps a cap that leaves it lazy.
        cap = draw(optional("--materialize-cap", INTS))
        if doc == "w3sq":
            cap = ["--materialize-cap", draw(COUNTS)]
        path = draw(st.one_of(st.just([]), st.tuples(INTS, INTS).map(lambda ij: ["--path", *ij])))
        return (["complex", doc, draw(LEVELS)] + cap + draw(switch("--materialize"))
                + draw(optional("--homology-max-dim", INTS))
                + draw(optional("--verify-links", COUNTS))
                + path + draw(optional("--seed", INTS)))
    if command == "bordism":
        if draw(st.booleans()):
            return ["bordism", "--manifold", doc]
        l_arg = draw(st.one_of(st.just([]), LEVELS.map(lambda l: [l])))
        return ["bordism", draw(INTS), draw(LEVELS)] + l_arg
    suite = draw(st.sampled_from(["bordism-tables", "ak-calculus"]))
    return ["verify", suite] + draw(optional("--budget", INTS)) + draw(optional("--seed", INTS))


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths = {"absent": str(root / "absent.json")}
    for name, doc in CONTRACT_DOCS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    for name, raw in RAW_CONTRACT_DOCS.items():
        path = root / f"{name}.json"
        path.write_bytes(raw)
        paths[name] = str(path)
    return paths


@settings(max_examples=150, deadline=None)
@given(contract_argv())
@example(["rank", "w3", str(2**61 - 1), "--budget", "3"])
@example(["rank", "w3", str(2**40), "--stable", "--gmax", "1", "--budget", "3"])
@example(["complex", "w3", "3", "--homology-max-dim", str(2**70)])
@example(["rank", "w3sq", "3", "--stable", "--gmax", str(2**70)])
@example(["rank", "w3-fourth-zero", "3", "--budget", str(2**70)])
@example(["rank", "w3-fourth-zero", "3", "--budget", str(2**70), "--require-certified"])
@example(["classify", "not-utf8"])
@example(["bordism", "--manifold", "not-utf8"])
@example(["classify", "deep-nesting"])
@example(["bordism", "--manifold", "deep-nesting"])
def test_argument_contract(contract_files, argv):
    """Every drawn argument vector gets a report and one of README's exit
    codes 0-7 from ``main``, which never raises; an error report's kind
    maps to its code through ``_ERROR_CODES``; the JSON validates against
    ``REPORT_SCHEMA``.  The explicit examples are the large levels: W_3
    padded with W_{2^40} at k = 2^40, and W_3 at the prime k = 2^61 - 1;
    and --homology-max-dim 2^70, past the simplex budget, which homology
    refuses (exit 5) rather than list 2^70 trivial degrees; --gmax 2^70,
    past the padded-rank cap, refused (exit 5) before any search;
    --budget 2^70 on W_3^4 (+) (Z/3)^2 with the zero form, whose branch
    enumeration past ``forms.DEFAULT_VERTEX_CAP`` is refused, leaving the
    greedy chain uncertified (exit 0, or 4 under --require-certified);
    and a document that is not UTF-8 or is nested too deeply, which is
    input (exit 2)."""
    argv = [contract_files.get(a, a) for a in argv] + ["--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(8)
    report = json.loads(err.getvalue() if code >= 2 else out.getvalue())
    jsonschema.validate(report, REPORT_SCHEMA)
    if report["status"] == "error":
        kind = getattr(errors, report["data"]["kind"])
        assert code == next(c for t, c in _ERROR_CODES if issubclass(kind, t))
    else:
        assert code in (0, 1)
