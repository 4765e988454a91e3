"""Each output check accepts a real monoidkit output and rejects a
deliberately corrupted copy of it."""

import contextlib
import copy
import io
import itertools
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
from monoidkit.cli import main  # noqa: E402
from monoidkit.cayley import cayley_ball  # noqa: E402
from monoidkit.constructions import (  # noqa: E402
    OPContext, OttoPrideSpec, op_context, op_multiply, op_normal_form)
from monoidkit.words import Alphabet, Presentation  # noqa: E402


def run_cli(tmp_path, argv, text, name="p.txt"):
    path = tmp_path / name
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main([a if a != "@" else str(path) for a in argv])
    return json.loads(out.getvalue()), rc


def rejected(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)
    return True


def one_relator(relator):
    letters = sorted(set(relator))
    return f"letters: {' '.join(letters)}\nrel: {' '.join(relator)} = 1\n"


S4 = ("letters: a b c\nrel: a a = 1\nrel: b b = 1\nrel: c c = 1\n"
      "rel: a b a = b a b\nrel: b c b = c b c\nrel: a c = c a\n")
S4_PERMS = {"a": (1, 0, 2, 3), "b": (0, 2, 1, 3), "c": (0, 1, 3, 2)}


def test_coxeter_check(tmp_path):
    payload, rc = run_cli(tmp_path, ["complete", "--presentation", "@"], S4)
    checks.check_coxeter_completion(payload, rc, S4_PERMS)
    fewer = copy.deepcopy(payload)
    fewer["rules"].pop()
    assert rejected(checks.check_coxeter_completion, fewer, rc, S4_PERMS)
    assert rejected(checks.check_coxeter_completion, payload, 3, S4_PERMS)


def test_homogeneous_check(tmp_path):
    relations = [(("a", "b", "a"), ("b", "a", "b"))]
    payload, rc = run_cli(
        tmp_path, ["complete", "--presentation", "@", "--budget", "300"],
        "letters: a b\nrel: a b a = b a b\n")
    checks.check_homogeneous_completion(payload, rc, relations)
    bad = copy.deepcopy(payload)
    lhs = bad["rules"][-1]["lhs"].split()
    bad["rules"][-1]["rhs"] = " ".join(["a"] * len(lhs))
    assert rejected(checks.check_homogeneous_completion, bad, rc, relations)
    shorter = copy.deepcopy(payload)
    shorter["rules"][0]["rhs"] = "a"
    assert rejected(checks.check_homogeneous_completion, shorter, rc,
                    relations)


def test_special_check(tmp_path):
    word = tuple("abab")
    payload, rc = run_cli(
        tmp_path, ["analyze-special", "--presentation", "@", "--budget",
                   "10000"], one_relator(word))
    assert payload["certified"]
    checks.check_special_analysis(payload, rc, word)

    def corrupt(change):
        bad = copy.deepcopy(payload)
        change(bad)
        return bad

    for bad in [
        corrupt(lambda p: p["torsion"].update(k=1, torsion=False)),
        corrupt(lambda p: (p["delta"].append("a"),
                           p["partition"].append(["a"]))),
        corrupt(lambda p: (p.update(delta=["b a"], partition=[["b a"]]))),
        corrupt(lambda p: (p["delta"].append("b b"),
                           p["partition"][0].append("b b"))),
    ]:
        assert rejected(checks.check_special_analysis, bad, rc, word)


def test_check_tree_classification(tmp_path):
    # the output shape of the scc_condense fault: a violation entered at a
    # vertex outside the interior (|label| > radius - margin = 4)
    spurious = {"is_tree": {"verdict": "proven", "edges": []},
                "entrance_violations": [{"kind": "entrance_not_transversal",
                                         "scc": 7, "label": "a b a b a"}]}
    with pytest.raises(checks.KnownFault):
        checks.classify_check_tree(spurious, 1, 8, 4)
    interior = copy.deepcopy(spurious)
    interior["entrance_violations"][0]["label"] = "b"
    assert rejected(checks.classify_check_tree, interior, 1, 8, 4)
    assert rejected(checks.classify_check_tree, spurious, 0, 8, 4)
    clean, rc = run_cli(tmp_path, ["check-tree", "--presentation", "@",
                                   "--radius", "8"], one_relator("ab"))
    checks.classify_check_tree(clean, rc, 8, 2)
    refuted = copy.deepcopy(clean)
    refuted["is_tree"]["verdict"] = "refuted"
    assert rejected(checks.classify_check_tree, refuted, rc, 8, 2)


def test_homology_check(tmp_path):
    for relator in ("ab", "abab"):
        text = one_relator(relator)
        tail = ["--presentation", "@", "--radius", "5"]
        hom, hrc = run_cli(tmp_path, ["homology"] + tail, text)
        chain, crc = run_cli(tmp_path, ["chain"] + tail, text)
        checks.check_homology(hom, hrc, chain, crc, tuple(relator))
        wrong_betti = copy.deepcopy(hom)
        wrong_betti["homology"][1]["betti"] += 1
        assert rejected(checks.check_homology, wrong_betti, hrc, chain, crc,
                        tuple(relator))
        defect = copy.deepcopy(hom)
        defect["exactness"]["total_defect"] = 1
        assert rejected(checks.check_homology, defect, hrc, chain, crc,
                        tuple(relator))
        rows, cols, _ = chain["boundary2"].split("\n")[0].split()
        no_cells = dict(chain, boundary2=f"{rows} {cols} 0\n")
        assert rejected(checks.check_homology, hom, hrc, no_cells, crc,
                        tuple(relator))


def test_rank_mod_p():
    entries = {(0, 0): 2, (0, 1): 4, (1, 0): 1, (1, 1): 2, (2, 2): -1}
    assert checks.rank_mod_p(3, 3, entries) == 2
    assert checks.rank_mod_p(2, 2, {(0, 0): 1, (1, 1): 1}) == 2


OP_SPEC = OttoPrideSpec(Presentation(Alphabet(("a",)), ()), (("a", "a"),),
                        {("a", "a"): ("a",)}, free_basis=((), ("a",)))
OP_RULES = [(("a", "a", "t"), ("t", "a"))]


def test_op_normal_form_check():
    ctx = OPContext(OP_SPEC)
    alphabet = Alphabet(("a", "t"))
    words = [w for n in range(6) for w in alphabet.words_of_length(n)]
    nfs = {w: (nf.cs, nf.trail)
           for w in words for nf in [op_normal_form(ctx, w)]}
    checks.check_op_normal_forms(nfs, OP_RULES)
    merged = dict(nfs)
    merged[("t",)] = nfs[("a",)]
    assert rejected(checks.check_op_normal_forms, merged, OP_RULES)


def test_op_product_check():
    ctx, octx = OPContext(OP_SPEC), op_context(OP_SPEC)
    ball = cayley_ball(octx.solver, octx.presentation.alphabet, 1, 0).vertices
    nfs = {v: op_normal_form(ctx, v) for v in ball}
    triples = []
    for x, y, z in itertools.product(ball, repeat=3):
        xy = op_multiply(ctx, nfs[x], nfs[y])
        left = op_multiply(ctx, xy, nfs[z])
        right = op_multiply(ctx, nfs[x], op_multiply(ctx, nfs[y], nfs[z]))
        triples.append((x, y, z, left.to_word(), right.to_word(),
                        xy.to_word()))
    checks.check_op_products(triples, OP_RULES)
    x, y, z, left, right, xy = triples[-1]
    assert rejected(checks.check_op_products,
                    triples[:-1] + [(x, y, z, left + ("a",), right, xy)],
                    OP_RULES)
    assert rejected(checks.check_op_products,
                    triples[:-1] + [(x, y, z, left, right, xy + ("t",))],
                    OP_RULES)


OP_JSON = json.dumps({"kind": "otto-pride", "m": {"letters": ["a"]},
                      "a_gens": ["a a"], "phi": {"a a": "a"},
                      "free_basis": ["1", "a"], "stable_letter": "t"})


def test_bass_serre_check(tmp_path):
    payload, rc = run_cli(
        tmp_path, ["bass-serre", "--kind", "otto-pride", "--spec", "@",
                   "--radius", "5"], OP_JSON, "s.json")
    checks.check_bass_serre(payload, rc)
    by_rank = dict(payload, forest_by_rank=False)
    assert rejected(checks.check_bass_serre, by_rank, rc)
    cycle = copy.deepcopy(payload)
    edge = next(e for e in cycle["edges"] if e["interior"]
                and cycle["vertices"][e["tail"]]["interior"]
                and cycle["vertices"][e["head"]]["interior"])
    cycle["edges"].append(dict(edge))
    assert rejected(checks.check_bass_serre, cycle, rc)


def test_derivation_check(tmp_path):
    payload, rc = run_cli(
        tmp_path, ["verify-derivations", "--kind", "otto-pride", "--spec",
                   "@", "--radius", "4"], OP_JSON, "s.json")
    checks.check_derivations(payload, rc)
    failed = copy.deepcopy(payload)
    failed["beta"]["failures"].append({"kind": "beta_section"})
    assert rejected(checks.check_derivations, failed, rc)
    assert rejected(checks.check_derivations, payload, 1)
