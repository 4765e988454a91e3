import argparse
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from monoidkit import cli, constructions, special
from monoidkit.cayley import cayley_complex_chain
from monoidkit.cli import main
from monoidkit.homology import SparseIntMatrix, exactness_check
from monoidkit.words import Columns

BICYCLIC = "letters: a b\nrel: a b = 1\n"
GRID = "letters: a b\nrel: b a = a b\n"
AMALGAM_SPEC = {
    "kind": "amalgam",
    "m1": {"letters": ["x"]},
    "m2": {"letters": ["y"]},
    "w": {"letters": ["w"]},
    "f1": {"w": "x x"},
    "f2": {"w": "y y y"},
}
OP_SPEC = {
    "kind": "otto-pride",
    "m": {"letters": ["a"]},
    "a_gens": ["a a"],
    "phi": {"a a": "a"},
    "free_basis": ["1", "a"],
    "stable_letter": "t",
}


@pytest.fixture
def bicyclic_file(tmp_path):
    f = tmp_path / "bicyclic.txt"
    f.write_text(BICYCLIC)
    return str(f)


@pytest.fixture
def grid_file(tmp_path):
    f = tmp_path / "grid.txt"
    f.write_text(GRID)
    return str(f)


@pytest.fixture
def amalgam_spec_file(tmp_path):
    f = tmp_path / "amalgam.json"
    f.write_text(json.dumps(AMALGAM_SPEC))
    return str(f)


@pytest.fixture
def op_spec_file(tmp_path):
    f = tmp_path / "op.json"
    f.write_text(json.dumps(OP_SPEC))
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_parse(capsys, bicyclic_file):
    code, data = run_json(capsys, "parse", "--presentation", bicyclic_file)
    assert code == 0
    assert data["special"] and data["relators"] == ["a b"]
    assert data["presentation"]["letters"] == ["a", "b"]


def test_missing_file_is_input_error(capsys):
    code, out = run(capsys, "parse", "--presentation", "/no/such/file")
    assert code == 2


def test_syntax_error_is_input_error(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("nonsense\n")
    code, _ = run(capsys, "parse", "--presentation", str(f))
    assert code == 2


def test_format_text_is_rejected(capsys, bicyclic_file):
    with pytest.raises(SystemExit) as exc:
        main(["cayley", "--presentation", bicyclic_file, "--radius", "2",
              "--format", "text"])
    assert exc.value.code == 2
    assert "invalid choice: 'text'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cayley", "--radius", "2", "--format", "matrix"],
    ["check-tree", "--radius", "2", "--format", "matrix"],
    ["condense", "--radius", "2", "--format", "dot"],
    ["homology", "--radius", "2", "--format", "json"],
    ["parse", "--format", "json"],
    ["parse", "--seed", "1"],
    ["cayley", "--radius", "2", "--seed", "1"],
    ["complete", "--seed", "1"],
    ["parse", "--budget", "5"],
    ["parse", "--order", "b,a"],
])
def test_flags_only_where_they_work(capsys, bicyclic_file, argv):
    # --format exists only on cayley (json|dot) and bass-serre
    # (json|dot|matrix), --seed only on verify-derivations; parse reads
    # neither --budget nor --order
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--presentation", bicyclic_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize("argv", [
    ["construct", "--kind", "amalgam", "--order", "b,a"],
    ["bass-serre", "--kind", "amalgam", "--radius", "2", "--order", "b,a"],
    ["verify-derivations", "--kind", "amalgam", "--radius", "2",
     "--order", "b,a"],
    ["bass-serre", "--kind", "hnn", "--radius", "2"],
])
def test_spec_commands_reject_flags(capsys, amalgam_spec_file, argv):
    # the spec fixes the alphabet, and only amalgams and Otto-Pride
    # extensions have Bass-Serre graphs
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--spec", amalgam_spec_file])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


def test_complete(capsys, bicyclic_file):
    code, data = run_json(capsys, "complete", "--presentation", bicyclic_file)
    assert code == 0
    assert data["completed"]
    assert data["rules"] == [{"lhs": "a b", "rhs": "1"}]


def test_complete_budget_exhaustion(capsys, tmp_path):
    f = tmp_path / "hard.txt"
    f.write_text("letters: x y\nrel: x x = y y y\n")
    code, data = run_json(capsys, "complete", "--presentation", str(f),
                          "--budget", "1")
    assert code == 3
    assert not data["completed"]


def test_rewrite(capsys, bicyclic_file):
    code, data = run_json(capsys, "rewrite", "--system", bicyclic_file,
                          "--word", "a a b b")
    assert code == 0
    assert data["normal_form"] == "1"
    assert data["trace"] == ["a a b b", "a b", "1"]


def test_rewrite_budget_exhaustion(capsys, bicyclic_file):
    code, data = run_json(capsys, "rewrite", "--system", bicyclic_file,
                          "--word", "a a b b", "--budget", "1")
    assert code == 3
    assert "partial" in data


def test_equal_verdicts(capsys, bicyclic_file):
    code, data = run_json(capsys, "equal", "--presentation", bicyclic_file,
                          "--u", "a a b b", "--v", "1")
    assert code == 0 and data["verdict"] == "proven"
    code, data = run_json(capsys, "equal", "--presentation", bicyclic_file,
                          "--u", "a", "--v", "b")
    assert code == 1 and data["verdict"] == "refuted"


def test_equal_unknown_surfaced(capsys, tmp_path):
    f = tmp_path / "hard.txt"
    f.write_text("letters: x y\nrel: x x = y y y\n")
    code, data = run_json(capsys, "equal", "--presentation", str(f),
                          "--u", "x y x", "--v", "y x y", "--budget", "5")
    assert code == 3
    assert data["verdict"] == "unknown"
    assert data["unknowns"][0]["verdict"] == "unknown"


def test_analyze_special(capsys, bicyclic_file):
    code, data = run_json(capsys, "analyze-special",
                          "--presentation", bicyclic_file)
    assert code == 0
    assert data["delta"] == ["a b"]
    assert data["units"]["relations"] == [{"lhs": ["b1"], "rhs": []}]
    assert data["right_units"]["zmap"] == {"z1": "a"}
    assert data["certified"]
    assert data["torsion"] == {"k": 1, "torsion": False}


def test_analyze_special_emit_filter(capsys, bicyclic_file):
    code, data = run_json(capsys, "analyze-special",
                          "--presentation", bicyclic_file, "--emit", "delta")
    assert code == 0
    assert set(data) == {"delta", "partition", "diagnostics", "certified"}


def test_analyze_special_rejects_non_special(capsys, grid_file):
    code, _ = run(capsys, "analyze-special", "--presentation", grid_file)
    assert code == 2


def test_cayley_json_and_dot(capsys, bicyclic_file):
    code, data = run_json(capsys, "cayley", "--presentation", bicyclic_file,
                          "--radius", "2")
    assert code == 0
    assert len(data["vertices"]) == 6
    code, out = run(capsys, "cayley", "--presentation", bicyclic_file,
                    "--radius", "2", "--format", "dot")
    assert code == 0 and out.startswith("digraph")


def dot_strings(dot):
    """Every quoted string of a DOT text, read back: \\" and \\\\ are
    escapes."""
    return [re.sub(r"\\(.)", r"\1", q)
            for q in re.findall(r'"((?:[^"\\]|\\.)*)"', dot)]


def test_dot_labels_are_quoted(capsys, tmp_path):
    # letters with a double quote and a backslash, which a DOT quoted
    # string must escape
    pres = tmp_path / "quotes.txt"
    pres.write_text('letters: a"b c\\ \\"\n')
    argv = ["cayley", "--presentation", str(pres), "--radius", "1"]
    _, data = run_json(capsys, *argv)
    code, dot = run(capsys, *argv, "--format", "dot")
    assert code == 0
    assert dot_strings(dot) == [v["label"] for v in data["vertices"]] + [
        a["letter"] for a in data["arcs"]]
    assert 'a"b' in dot_strings(dot) and '\\"' in dot_strings(dot)
    spec = tmp_path / "quotes.json"
    spec.write_text(json.dumps({
        "kind": "amalgam", "m1": {"letters": ['x"']},
        "m2": {"letters": ["y\\"]}, "w": {"letters": ["w"]},
        "f1": {"w": 'x" x"'}, "f2": {"w": "y\\ y\\ y\\"}}))
    argv = ["bass-serre", "--kind", "amalgam", "--spec", str(spec),
            "--radius", "3"]
    _, data = run_json(capsys, *argv)
    code, dot = run(capsys, *argv, "--format", "dot")
    assert code == 0
    assert dot_strings(dot) == [v["label"] for v in data["vertices"]]
    assert '[x" y\\]M1' in dot_strings(dot)


def test_condense(capsys, bicyclic_file):
    code, data = run_json(capsys, "condense", "--presentation", bicyclic_file,
                          "--radius", "6")
    assert code == 0
    assert data["is_tree"] == "proven"


def test_check_tree_pass(capsys, bicyclic_file):
    code, data = run_json(capsys, "check-tree",
                          "--presentation", bicyclic_file, "--radius", "8")
    assert code == 0
    assert data["is_tree"]["verdict"] == "proven"
    assert data["entrance_violations"] == []
    assert data["condensation_matches_hasse"]


@pytest.mark.parametrize("relator", ["a b", "a b a b"])
def test_check_tree_at_radius_0(capsys, tmp_path, relator):
    # the root is the only vertex and lies at depth == radius, so no
    # component is interior and the condensation has nothing to compare
    f = tmp_path / "p.txt"
    f.write_text(f"letters: a b\nrel: {relator} = 1\n")
    code, data = run_json(capsys, "check-tree", "--presentation", str(f),
                          "--radius", "0")
    assert code == 0
    assert data["is_tree"] == {"edges": [], "verdict": "unknown"}
    assert data["condensation_matches_hasse"] is None


@pytest.mark.parametrize("radius", [2, 4])
def test_verdicts_do_not_depend_on_the_order(capsys, tmp_path, radius):
    # shortlex order picks the normal forms and so the vertex numbering,
    # never the monoid: every a-initial relator over a, b of length 1 to 5
    # (abba, aabba, abbaa and abbba do not complete within the budget and
    # exit 3)
    def answers(order):
        got = {}
        for command in ("check-tree", "condense", "homology"):
            code, out = run(capsys, command, "--presentation", str(f),
                            "--radius", str(radius), "--budget", "3000",
                            "--order", order)
            got[command] = code, out and json.loads(out)
        if got["check-tree"][0] == 3:
            return got
        tree, cond = got["check-tree"][1], got["condense"][1]
        return (tree["is_tree"]["verdict"], len(tree["is_tree"]["edges"]),
                sorted(map(len, cond["sccs"])), len(cond["dag_arcs"]),
                got["homology"])

    f = tmp_path / "p.txt"
    for n in range(1, 6):
        for tail in itertools.product("ab", repeat=n - 1):
            f.write_text(f"letters: a b\nrel: {' '.join('a' + ''.join(tail))}"
                         " = 1\n")
            assert answers("a,b") == answers("b,a"), (tail, radius)


def test_condense_claims_no_entrance_check(capsys, grid_file):
    # condense does not run the unique-entrance check, so its artifact has
    # no entrance_violations; check-tree runs it and finds the grid's
    # square a b = b a entered twice
    code, data = run_json(capsys, "condense", "--presentation", grid_file,
                          "--radius", "3")
    assert code == 0
    assert "entrance_violations" not in data
    assert data["is_tree"] == "refuted"
    code, data = run_json(capsys, "check-tree", "--presentation", grid_file,
                          "--radius", "3")
    assert code == 1
    assert data == {
        "entrance_violations": [{"arcs": [[1, 4, "b"], [2, 4, "a"]],
                                 "count": 2, "kind": "entrance_count",
                                 "scc": 4}],
        "is_tree": {"edges": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 4], [2, 5]],
                    "verdict": "refuted"},
        "unknowns": [],
    }


def test_check_tree_grid_fails(capsys, grid_file):
    code, data = run_json(capsys, "check-tree", "--presentation", grid_file,
                          "--radius", "4")
    assert code == 1
    assert data["is_tree"]["verdict"] == "refuted"
    assert data["entrance_violations"]


def test_construct_amalgam(capsys, amalgam_spec_file):
    code, data = run_json(capsys, "construct", "--kind", "amalgam",
                          "--spec", amalgam_spec_file)
    assert code == 0
    assert data["presentation"]["letters"] == ["x", "y"]
    assert data["presentation"]["relations"] == [
        {"lhs": ["x", "x"], "rhs": ["y", "y", "y"]}]


@pytest.mark.parametrize("command", ["bass-serre", "verify-derivations"])
@pytest.mark.parametrize("kind, spec", [("amalgam", OP_SPEC),
                                         ("otto-pride", AMALGAM_SPEC)])
def test_spec_kind_mismatch(capsys, tmp_path, command, kind, spec):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    assert main([command, "--kind", kind, "--spec", str(f),
                 "--radius", "3"]) == 2
    diag = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert diag["error"] == "ConstructionError"
    assert "does not match --kind" in diag["detail"]


@pytest.mark.parametrize("command", ["construct", "bass-serre"])
@pytest.mark.parametrize("kind, spec", [
    ("amalgam", dict(AMALGAM_SPEC, m1={"letters": 5})),
    ("amalgam", dict(AMALGAM_SPEC, m1={"letters": ["x", 5]})),
    ("otto-pride", [1, 2]),
    ("otto-pride", dict(OP_SPEC, m={"letters": ["a"], "relations": [
        {"lhs": 5, "rhs": "1"}]})),
    ("otto-pride", dict(OP_SPEC, m={"letters": ["a"], "relations": [
        {"lhs": ["a", ["a"]], "rhs": "1"}]})),
    ("otto-pride", dict(OP_SPEC, m={"letters": ["a"], "relations": [5]})),
    ("otto-pride", dict(OP_SPEC, a_gens=[["a", "a"]])),
    ("otto-pride", dict(OP_SPEC, phi=[["a a", "a"]])),
    ("otto-pride", dict(OP_SPEC, stable_letter=5)),
    ("otto-pride", dict(OP_SPEC, m={"letters": ["a"], "relations": [
        {"lhs": "a a"}]})),
    ("amalgam", {k: v for k, v in AMALGAM_SPEC.items() if k != "m2"}),
    ("amalgam", dict(AMALGAM_SPEC, f1={})),            # w has no image
    ("amalgam", dict(AMALGAM_SPEC, f1={"w": "q"})),    # q is not in m1
    # letters that no word could be written with
    ("amalgam", dict(AMALGAM_SPEC, m1={"letters": ["x y"]})),
    ("amalgam", dict(AMALGAM_SPEC, w={"letters": [""]})),
    ("otto-pride", dict(OP_SPEC, m={"letters": ["a", "1"]})),
    ("otto-pride", dict(OP_SPEC, stable_letter="1")),
    ("otto-pride", dict(OP_SPEC, stable_letter="t u")),
])
def test_malformed_spec_is_input_error(capsys, tmp_path, command, kind,
                                       spec):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    argv = [command, "--kind", kind, "--spec", str(f)]
    assert main(argv + (["--radius", "3"] if command == "bass-serre"
                        else [])) == 2
    diag = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert diag["kind"] == "input_error"
    assert diag["error"] in ("WordError", "UnknownLetterError",
                             "ConstructionError")


def test_construct_otto_pride(capsys, op_spec_file):
    code, data = run_json(capsys, "construct", "--kind", "otto-pride",
                          "--spec", op_spec_file)
    assert code == 0
    assert data["presentation"]["letters"] == ["a", "t"]


def test_construct_kind_mismatch(capsys, amalgam_spec_file):
    code, _ = run(capsys, "construct", "--kind", "hnn",
                  "--spec", amalgam_spec_file)
    assert code == 2


@pytest.mark.parametrize("data, detail", [
    ({"a_gens": ["a a"], "b_gens": ["a"], "phi": {"a": "a"}},
     "has no phi image"),
    ({"a_gens": ["a a"], "b_gens": ["a a"], "phi": {"a a": "a"}},
     "are not the phi images"),
])
def test_construct_hnn_checks_maps(capsys, tmp_path, data, detail):
    f = tmp_path / "hnn.json"
    f.write_text(json.dumps({"kind": "hnn", "m": {"letters": ["a"]},
                             **data}))
    assert main(["construct", "--kind", "hnn", "--spec", str(f)]) == 2
    diag = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert diag["error"] == "ConstructionError"
    assert detail in diag["detail"]


def test_construct_hnn(capsys, tmp_path):
    f = tmp_path / "hnn.json"
    f.write_text(json.dumps({"kind": "hnn", "m": {"letters": ["a"]},
                             "a_gens": ["a a"], "b_gens": ["a"],
                             "phi": {"a a": "a"}}))
    code, data = run_json(capsys, "construct", "--kind", "hnn",
                          "--spec", str(f))
    assert code == 0
    assert data["presentation"]["letters"] == ["a", "t", "t-"]


def test_bass_serre_json(capsys, amalgam_spec_file):
    code, data = run_json(capsys, "bass-serre", "--kind", "amalgam",
                          "--spec", amalgam_spec_file, "--radius", "4")
    assert code == 0
    assert data["forest_by_search"] and data["forest_by_rank"]


def test_bass_serre_matrix(capsys, op_spec_file):
    code, out = run(capsys, "bass-serre", "--kind", "otto-pride",
                    "--spec", op_spec_file, "--radius", "4",
                    "--format", "matrix")
    assert code == 0
    header = out.splitlines()[0].split()
    assert len(header) == 3


@pytest.mark.parametrize("argv, vertices, edges", [
    (["--kind", "otto-pride", "--radius", "0"], 1, 0),
    (["--kind", "otto-pride", "--radius", "0", "--forest"], 1, 0),
    (["--kind", "amalgam", "--radius", "0"], 2, 1),
    (["--kind", "amalgam", "--radius", "3", "--forest"], 225, 160),
])
def test_bass_serre_artifact_is_json_dumps(capsys, tmp_path, argv, vertices,
                                           edges):
    # the vertex and edge tables are written from their columns, and a
    # table with no row is an empty list
    spec = AMALGAM_SPEC if "amalgam" in argv else OP_SPEC
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    code, out = run(capsys, "bass-serre", "--spec", str(f), *argv)
    assert code == 0
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert (len(data["vertices"]), len(data["edges"])) == (vertices, edges)


def test_chain(capsys, bicyclic_file):
    code, data = run_json(capsys, "chain", "--presentation", bicyclic_file,
                          "--radius", "3")
    assert code == 0
    assert data["composite_zero"]


def test_chain_loop_arcs_have_zero_columns(capsys, tmp_path):
    # in <a, b | b = 1> every b arc is a loop, whose -1 and +1 cancel
    f = tmp_path / "p.txt"
    f.write_text("letters: a b\nrel: b = 1\n")
    code, data = run_json(capsys, "chain", "--presentation", str(f),
                          "--radius", "3")
    assert code == 0 and data["composite_zero"]
    g = cli._ball_from_args(argparse.Namespace(budget=10**6, radius=3),
                            cli._load_presentation(str(f), None))
    loops = {k for k, (s, d, a) in enumerate(g.arcs) if a == "b"}
    assert loops and all(g.arcs[k][0] == g.arcs[k][1] for k in loops)
    used = {int(ln.split()[1])
            for ln in data["boundary1"].splitlines()[1:]}
    assert used == set(range(len(g.arcs))) - loops


def test_chain_composite_zero_is_computed(capsys, bicyclic_file,
                                          monkeypatch):
    # the field reads the product: a 2-cell on a path that is no loop
    # gives a non-zero composite
    def open_cell(sp, g):
        export = cayley_complex_chain(sp, g)
        return dataclasses.replace(export, boundary2=SparseIntMatrix(
            export.boundary2.rows, 1, {(0, 0): 1}))

    monkeypatch.setattr(cli, "cayley_complex_chain", open_cell)
    code, data = run_json(capsys, "chain", "--presentation", bicyclic_file,
                          "--radius", "3")
    assert code == 0
    assert data["composite_zero"] is False


def test_homology_rejects_a_non_complex(capsys, bicyclic_file, monkeypatch):
    # a relator loop that does not close bounds no 2-cell: with the arc
    # a from the root sent to b, the loop ab at the root ends at bb
    def redirected(args, p):
        g = ball_from_args(args, p)
        k = g.arcs.index((0, 1, "a"))
        return dataclasses.replace(
            g, arcs=g.arcs[:k] + [(0, 2, "a")] + g.arcs[k + 1:])

    ball_from_args = cli._ball_from_args
    monkeypatch.setattr(cli, "_ball_from_args", redirected)
    code = main(["homology", "--presentation", bicyclic_file,
                 "--radius", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err)["error"] == "CayleyError"


def test_homology(capsys, bicyclic_file):
    code, data = run_json(capsys, "homology", "--presentation", bicyclic_file,
                          "--radius", "6")
    assert code == 0
    assert data["exactness"]["total_defect"] == 0
    assert [h["betti"] for h in data["homology"]] == [1, 0, 0]


def test_homology_reads_exactness_once(capsys, bicyclic_file, monkeypatch):
    # the command computes exactness through exactness_check, once, from
    # the homology list it writes
    calls = []

    def counted(homology, last, augmentation=None):
        calls.append(homology)
        return exactness_check(homology, last, augmentation)

    monkeypatch.setattr(cli, "exactness_check", counted)
    for radius in ("3", "6"):
        code, data = run_json(capsys, "homology", "--presentation",
                              bicyclic_file, "--radius", radius)
        assert code == 0
        assert calls[-1] == data["homology"]
    assert len(calls) == 2


def test_verify_derivations(capsys, op_spec_file):
    code, data = run_json(capsys, "verify-derivations", "--kind", "otto-pride",
                          "--spec", op_spec_file, "--radius", "5",
                          "--samples", "100")
    assert code == 0
    assert data["derivation"]["passed"] and data["beta"]["passed"]


def test_verify_derivations_forest(capsys, op_spec_file):
    code, data = run_json(capsys, "verify-derivations", "--kind", "otto-pride",
                          "--spec", op_spec_file, "--radius", "4",
                          "--forest", "--margin", "2", "--samples", "100")
    assert code == 0
    assert data["beta"]["checked"] >= 5


def test_verify_derivations_reports_failed_beta_section(
        capsys, tmp_path, monkeypatch, op_spec_file):
    # d(t) = 2.[1]_A: beta(head) - beta(tail) is twice every edge class
    def doubled(ctx, edge_ball):
        images = {a: [] for a in ctx.spec.m.alphabet.letters}
        images[ctx.spec.stable_letter] = [(2, ())]
        return constructions._left_derivation(ctx, images, edge_ball)

    monkeypatch.setattr(cli, "op_derivation", doubled)
    out = tmp_path / "beta.json"
    assert main(["verify-derivations", "--kind", "otto-pride", "--spec",
                 op_spec_file, "--radius", "4", "--samples", "20",
                 "--out", str(out)]) == 1
    text = out.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"
    failures = data["beta"]["failures"]
    assert failures and not data["beta"]["passed"]
    for f in failures:
        assert f["difference"] == {str(f["edge_class"]): 2}


@pytest.mark.parametrize("budget, code", [(0, 3), (1, 3), (2, 3),
                                          (10**6, 0)])
@pytest.mark.parametrize("forest", [[], ["--forest"]])
def test_verify_derivations_truncated_ball_is_no_failure(
        capsys, op_spec_file, budget, code, forest):
    # at radius 3 the budgets 0, 1 and 2 truncate the balls of <a,t | a a t
    # = t a>, which leaves classes unmerged: unequal values there prove
    # nothing, so they are skipped and the run exits 3, not 1
    assert main(["verify-derivations", "--kind", "otto-pride", "--spec",
                 op_spec_file, "--radius", "3", "--budget", str(budget),
                 *forest]) == code
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert data["derivation"]["failures"] == data["beta"]["failures"] == []
    assert ("budget_exhausted" in err) == (code == 3)
    if code == 3 and not forest:
        assert data["derivation"]["skipped"]
    if budget == 0 and not forest:
        assert {"kind": "relation", "lhs": "a a t", "rhs": "t a"} in \
            data["derivation"]["skipped"]


@pytest.mark.parametrize("budget, code", [(0, 3), (1, 3), (10**6, 0)])
@pytest.mark.parametrize("forest", [[], ["--forest"]])
@pytest.mark.parametrize("fmt", ["json", "dot", "matrix"])
def test_bass_serre_truncated_ball_exits_3(capsys, op_spec_file, budget,
                                           code, forest, fmt):
    # at radius 3 the budgets 0 and 1 truncate the balls of <a,t | a a t
    # = t a>: the graph is still written, and the run exits 3 (budget
    # exhausted), in every format
    assert main(["bass-serre", "--kind", "otto-pride", "--spec",
                 op_spec_file, "--radius", "3", "--budget", str(budget),
                 "--format", fmt, *forest]) == code
    out, err = capsys.readouterr()
    assert ("budget_exhausted" in err) == (code == 3)
    if fmt == "dot":
        assert out.startswith("graph bass_serre {")
    elif fmt == "json":
        data = json.loads(out)
        interior = [v["interior"] for v in data["vertices"]]
        assert any(interior) == (code == 0)
        if budget == 0 and not forest:
            assert len(interior) == 14 and data["forest_by_search"]
    else:   # the first number counts the interior vertices
        assert (out.split()[0] != "0") == (code == 0)


@pytest.mark.parametrize("kind, spec", [("amalgam", AMALGAM_SPEC),
                                         ("otto-pride", OP_SPEC)])
def test_verify_derivations_honours_margin(capsys, tmp_path, kind, spec):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    outs = {}
    for margin in ("0", "4"):
        code, outs[margin] = run(capsys, "verify-derivations", "--kind",
                                 kind, "--spec", str(f), "--radius", "5",
                                 "--samples", "50", "--margin", margin)
        assert code == 0
    # at margin 4 fewer edges of the radius 5 tree are interior
    assert (json.loads(outs["4"])["beta"]["checked"]
            < json.loads(outs["0"])["beta"]["checked"])


def test_verify_derivations_forest_needs_otto_pride(capsys,
                                                    amalgam_spec_file):
    code = main(["verify-derivations", "--kind", "amalgam", "--spec",
                 amalgam_spec_file, "--radius", "3", "--forest"])
    assert code == 2
    diag = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert diag["error"] == "ConstructionError"


@pytest.mark.parametrize("argv", [
    ["construct"],
    ["bass-serre", "--forest", "--radius", "3"],
])
def test_otto_pride_checks_phi(capsys, tmp_path, argv):
    f = tmp_path / "op.json"
    f.write_text(json.dumps(dict(OP_SPEC, phi={"a": "a"})))
    assert main(argv + ["--kind", "otto-pride", "--spec", str(f)]) == 2
    diag = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert diag["error"] == "ConstructionError"
    assert "a_gens word a a has no phi image" in diag["detail"]


def test_outputs_byte_identical(tmp_path, bicyclic_file, amalgam_spec_file):
    pairs = []
    for i in (1, 2):
        out = tmp_path / f"ball{i}.json"
        assert main(["cayley", "--presentation", bicyclic_file,
                     "--radius", "5", "--out", str(out)]) == 0
        tree = tmp_path / f"tree{i}.json"
        assert main(["check-tree", "--presentation", bicyclic_file,
                     "--radius", "8", "--out", str(tree)]) == 0
        bs = tmp_path / f"bs{i}.dot"
        assert main(["bass-serre", "--kind", "amalgam", "--spec",
                     amalgam_spec_file, "--radius", "4", "--format", "dot",
                     "--out", str(bs)]) == 0
        pairs.append((out.read_bytes(), tree.read_bytes(), bs.read_bytes()))
    assert pairs[0] == pairs[1]


def test_order_flag(capsys, tmp_path):
    # the order flag changes the shortlex orientation of rules
    f = tmp_path / "p.txt"
    f.write_text("letters: a b\nrel: b a = a b\n")
    code, data = run_json(capsys, "complete", "--presentation", str(f))
    assert code == 0 and data["rules"] == [{"lhs": "b a", "rhs": "a b"}]
    code, data = run_json(capsys, "complete", "--presentation", str(f),
                          "--order", "b,a")
    assert code == 0 and data["rules"] == [{"lhs": "a b", "rhs": "b a"}]
    code, data = run_json(capsys, "rewrite", "--system", str(f),
                          "--word", "a b a", "--order", "b,a")
    assert code == 0 and data["normal_form"] == "b a a"


def test_one_parser_per_process(capsys, tmp_path, bicyclic_file,
                                amalgam_spec_file):
    # a second call parses into a fresh namespace: the first call's --out
    # does not carry over, and both artifacts match separate processes
    first = ["cayley", "--presentation", bicyclic_file, "--radius", "3"]
    second = ["bass-serre", "--kind", "amalgam", "--spec", amalgam_spec_file,
              "--radius", "3", "--format", "dot"]
    out = tmp_path / "ball.json"
    cli.build_parser.cache_clear()
    assert main(first + ["--out", str(out)]) == 0
    code, text = run(capsys, *second)
    assert code == 0
    assert cli.build_parser.cache_info().misses == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def separate(argv):
        return subprocess.run([sys.executable, "-m", "monoidkit.cli"] + argv,
                              env=env, capture_output=True, text=True,
                              check=True).stdout

    assert out.read_text() == separate(first)
    assert text == separate(second)


Z5 = "letters: a\nrel: a a a a a = 1\n"


@pytest.mark.parametrize("argv", [
    ["cayley", "--radius", "-2"],
    ["cayley", "--radius", "2", "--margin", "-1"],
    ["check-tree", "--radius", "-1"],
    ["homology", "--radius", "-1"],
])
def test_negative_radius_or_margin_is_rejected(capsys, tmp_path, argv):
    # a negative radius used to let the ball search run without bound
    f = tmp_path / "z5.txt"
    f.write_text(Z5)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--presentation", str(f)])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command",
                         ["condense", "check-tree", "chain", "homology"])
def test_no_margin_where_no_artifact_reads_interior(capsys, bicyclic_file,
                                                    command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--presentation", bicyclic_file, "--radius", "3",
              "--margin", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --margin 2" in capsys.readouterr().err


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_internal_error_is_not_an_input_error(capsys, bicyclic_file,
                                              monkeypatch, error):
    # a bug inside a command raises out of main instead of exiting 2
    def broken(p):
        raise error("internal")

    monkeypatch.setattr(cli, "presentation_to_json", broken)
    with pytest.raises(error):
        main(["parse", "--presentation", bicyclic_file])
    assert "input_error" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["analyze-special"],
                                     ["check-tree", "--radius", "3"]])
def test_non_prefix_delta_is_not_an_input_error(capsys, tmp_path,
                                                monkeypatch, command):
    # delta is a prefix code by construction; when that fails, the bug
    # raises out of main instead of exiting 2, also under check-tree
    class NonPrefixDelta(special.UnitsAnalysis):
        def __setattr__(self, name, value):
            if name == "delta" and value:
                value = value + (value[0] * 2,)
            super().__setattr__(name, value)

    f = tmp_path / "involution.txt"
    f.write_text("letters: a\nrel: a a = 1\n")
    monkeypatch.setattr(special, "UnitsAnalysis", NonPrefixDelta)
    with pytest.raises(special.AnalysisInvariantError) as e:
        main(command + ["--presentation", str(f)])
    assert not isinstance(e.value, cli.INPUT_ERRORS)
    assert "input_error" not in capsys.readouterr().err


def test_check_tree_does_not_hide_analysis_errors(capsys, bicyclic_file,
                                                  monkeypatch):
    # only validate_special may fail quietly: an analysis error surfaces
    def broken(sp, budget_limit):
        raise special.UnitsNotCompletedError("units system is not completed")

    monkeypatch.setattr(cli, "compute_delta", broken)
    assert main(["check-tree", "--presentation", bicyclic_file,
                 "--radius", "3"]) == 2
    assert "UnitsNotCompletedError" in capsys.readouterr().err


def test_letter_one_is_input_error(capsys, tmp_path):
    # 1 writes the empty word, so it cannot also be a letter
    f = tmp_path / "one.txt"
    f.write_text("letters: 1 a\nrel: a 1 = 1\n")
    assert main(["parse", "--presentation", str(f)]) == 2
    diag = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert diag["error"] == "WordError"
    assert "'1'" in diag["detail"]


def test_undecodable_file_is_input_error(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"letters: \xff\n")
    assert main(["parse", "--presentation", str(f)]) == 2
    diag = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert diag["error"] == "UnicodeDecodeError"


@pytest.mark.parametrize("forest", [[], ["--forest"]])
@pytest.mark.parametrize("command", ["bass-serre", "verify-derivations"])
def test_negative_margin_on_specs(capsys, op_spec_file, command, forest):
    # a negative margin used to call every class interior, and
    # verify-derivations --samples -5 to exit 0 after sampling nothing
    values = [["--margin", "-1"]]
    if command == "verify-derivations":
        values.append(["--samples", "-5"])
    for value in values:
        with pytest.raises(SystemExit) as exc:
            main([command, "--kind", "otto-pride", "--spec", op_spec_file,
                  "--radius", "3"] + value + forest)
        assert exc.value.code == 2, value
        assert "must be >= 0" in capsys.readouterr().err


BUDGET_COMMANDS = {
    "complete": [],
    "rewrite": ["--word", "a b"],
    "equal": ["--u", "a b", "--v", "1"],
    "analyze-special": [],
    "cayley": ["--radius", "2"],
    "condense": ["--radius", "2"],
    "check-tree": ["--radius", "2"],
    "chain": ["--radius", "2"],
    "homology": ["--radius", "2"],
    "construct": ["--kind", "otto-pride"],
    "bass-serre": ["--kind", "otto-pride", "--radius", "2"],
    "verify-derivations": ["--kind", "otto-pride", "--radius", "2"],
}


def test_negative_budget_is_rejected(capsys, bicyclic_file, op_spec_file):
    # analyze-special --budget -1 used to exit 0 with an empty analysis,
    # and complete --budget -5 to exit 3
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(BUDGET_COMMANDS) == {
        name for name, p in commands.items()
        if "--budget" in p._option_string_actions}
    for command, extra in BUDGET_COMMANDS.items():
        source = next(["--" + flag, path] for flag, path in (
            ("presentation", bicyclic_file), ("system", bicyclic_file),
            ("spec", op_spec_file))
            if "--" + flag in commands[command]._option_string_actions)
        for budget in ("-1", "-5"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--budget", budget] + source + extra)
            assert exc.value.code == 2, command
            assert "must be >= 0" in capsys.readouterr().err, command
        assert main([command, "--budget", "0"] + source + extra) != 2, command
        capsys.readouterr()


def artifact_values():
    scalars = (st.text() | st.integers(-10**30, 10**30) | st.booleans()
               | st.none())
    return st.recursive(scalars, lambda inner: (
        st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.just(())
        | st.dictionaries(st.text(), inner, max_size=4)), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(artifact_values())
def test_json_text_is_json_dumps(value):
    # text covers non-ASCII, quotes and control characters
    assert cli._json_text(value) == json.dumps(value, sort_keys=True,
                                               indent=2)


class Record(dict):
    pass


# cells of one column: all of one scalar type, or mixed
COLUMNS = [st.text(), st.integers(-10**30, 10**30), st.booleans(), st.none(),
           st.text() | st.integers(-10**30, 10**30) | st.booleans()
           | st.none()]


@st.composite
def record_lists(draw):
    """Pairs of an artifact value and the value json.dumps writes for it.
    The artifact holds flat records over one shared key set, each row
    built in its own key order, as a list of 2 to 14 records, some with
    one row that breaks the pattern (lists of 8 or more records take the
    record path), or as a column table of 0 to 14 rows, some with one
    value that is no scalar."""
    keys = draw(st.lists(
        st.text() | st.sampled_from(["%", "%s", "a%%b", '"', 'q"%', "é",
                                     "\u2603", "\\"]),
        min_size=1, max_size=5, unique=True))
    cells = {k: draw(st.sampled_from(COLUMNS)) for k in keys}
    rows = []
    for _ in range(draw(st.integers(2, 14))):
        values = {k: draw(cells[k]) for k in keys}
        rows.append({k: values[k] for k in draw(st.permutations(keys))})
    if draw(st.booleans()):
        rows = rows[:draw(st.integers(0, len(rows)))]
        table = Columns({k: [r[k] for r in rows] for k in keys})
        if rows and draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            table[keys[0]][i] = rows[i][keys[0]] = [1, {"n": None}]
        wrap = draw(st.sampled_from([lambda t: t, lambda t: [t, t],
                                     lambda t: {"rows": t}]))
        return wrap(table), wrap(rows)
    i = draw(st.integers(0, len(rows) - 1))
    odd = draw(st.sampled_from(
        [None, "extra", "missing", "nested", "subclass", "scalar"]))
    if odd == "extra":
        rows[i][draw(st.text().filter(lambda k: k not in keys))] = 1
    elif odd == "missing":
        del rows[i][keys[0]]
    elif odd == "nested":
        rows[i][keys[0]] = draw(st.sampled_from([[], [1, "a"], {"n": None}]))
    elif odd == "subclass":
        rows[i] = Record(rows[i])
    elif odd == "scalar":
        rows[i] = draw(st.integers() | st.text() | st.none())
    wrap = draw(st.sampled_from([list, tuple, lambda r: {"rows": [r]}]))
    return wrap(rows), wrap(rows)


@settings(max_examples=300, deadline=None)
@given(record_lists())
@example(([{"%s": i, 'q"%': "é", "a": i % 2 == 0} for i in range(8)],) * 2)
@example((Columns(a=[]), []))
def test_json_text_writes_records_as_json_dumps(case):
    # the record path and column tables write what json.dumps writes for
    # the rows, and a list or table that breaks the pattern falls back to
    # the general path
    value, rows = case
    assert cli._json_text(value) == json.dumps(rows, sort_keys=True,
                                               indent=2)


@pytest.mark.parametrize("value", [1.5, [0.0], {"a": {1, 2}}, {1: "a"},
                                   {"a": {None: 1}}, {"a": 1, 2: 3},
                                   [b"bytes"], [{"a": 1}, {"a": 1.5}],
                                   [{1: "a"}, {1: "b"}]])
def test_json_text_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)
