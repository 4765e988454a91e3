"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints "criterion N: PASS" on success; pytest failure output
marks the criterion red.  Time bounds are enforced with a wall clock.
"""

import itertools
import json
import random
import time

import pytest

from monoidkit.words import (
    EMPTY,
    Alphabet,
    Presentation,
    parse_presentation,
    validate_special,
)
from monoidkit.rewriting import (
    RewriteRule,
    RewriteSystem,
    ORIENTED,
    equal_words,
    knuth_bendix,
    normalize,
    orient_system,
)
from monoidkit.special import (
    compute_delta,
    right_units_presentation,
    torsion_flag,
    units_presentation,
)
from monoidkit.cayley import (
    cayley_ball,
    cayley_complex_chain,
    check_rooted_tree,
    check_unique_entrance,
    condensation_matches_hasse,
    scc_condense,
)
from monoidkit.homology import (
    chain_homology,
    exactness_check,
    rank_exact,
    smith_normal_form,
)
from monoidkit.constructions import (
    AmalgamSpec,
    OPContext,
    OttoPrideSpec,
    amalgam_context,
    amalgam_derivation,
    bass_serre_ball_amalgam,
    bass_serre_ball_op,
    bass_serre_forest_bi,
    check_beta_section,
    check_derivation_wellformed,
    op_context,
    op_derivation,
    op_forest_derivation,
    op_multiply,
    op_normal_form,
)
from monoidkit.cli import main

from test_constructions import connected_interior
from test_homology import M, matmul, oracle_rank_bareiss


def sp(text):
    return validate_special(parse_presentation(text))


def w(s):
    return tuple(s)


BICYCLIC = sp("letters: a b\nrel: a b = 1")
OP = OttoPrideSpec(Presentation(Alphabet(("a",)), ()), (w("aa"),),
                   {w("aa"): w("a")}, free_basis=(EMPTY, w("a")))
AMALGAM = AmalgamSpec(Presentation(Alphabet(("x",)), ()),
                      Presentation(Alphabet(("y",)), ()),
                      Presentation(Alphabet(("w",)), ()),
                      {"w": w("xx")}, {"w": w("yyy")})


class Clock:
    def __init__(self, limit, label):
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, \
            f"{self.label} took {elapsed:.1f}s, limit {self.limit}s"
        if exc_type is None:
            print(f"{self.label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_bicyclic_pipeline():
    with Clock(5, "criterion 1 (bicyclic pipeline)"):
        ua = compute_delta(BICYCLIC)
        assert ua.delta == (w("ab"),)
        units = units_presentation(ua)
        assert units.alphabet.letters == ("b1",)
        assert units.relations == ((("b1",), EMPTY),)
        right, zmap = right_units_presentation(ua)
        assert right.alphabet.letters == ("b1", "z1")
        assert zmap == {"z1": w("a")}
        # oracle cross-checks: every delta word and every relator image is
        # congruent to 1, and z1's preimage is not
        for d in ua.delta:
            assert equal_words(BICYCLIC.base, d, EMPTY).proven
        assert not equal_words(BICYCLIC.base, w("a"), EMPTY).proven


def test_criterion_2_torsion():
    with Clock(1, "criterion 2 (torsion criterion)"):
        cases = [("letters: a b\nrel: a b = 1", 1),
                 ("letters: a b\nrel: a b a b = 1", 2),
                 ("letters: a\nrel: a a = 1", 2),
                 ("letters: a\nrel: a a a = 1", 3)]
        for text, k in cases:
            flag = torsion_flag(sp(text))
            assert flag == {"k": k, "torsion": k > 1}, text


def test_criterion_3_cayley_structure():
    with Clock(5, "criterion 3 (Cayley structure)"):
        ua = compute_delta(BICYCLIC)
        system = knuth_bendix(orient_system(BICYCLIC.base)).system
        g = cayley_ball(lambda v: normalize(system, v),
                        BICYCLIC.alphabet, 8, 2)
        assert len(g.vertices) == 45
        rep = scc_condense(g)
        assert check_rooted_tree(rep).proven
        interior = rep.interior_sccs()
        # the interior condensation is a path
        arcs = [(s, d) for s, d, _ in rep.dag_arcs
                if s in interior and d in interior]
        assert len(arcs) == len(interior) - 1
        assert check_unique_entrance(g, rep, ua) == []
        assert condensation_matches_hasse(ua, g, rep)


def test_criterion_4_cayley_complex():
    with Clock(10, "criterion 4 (Cayley complex)"):
        for text, radius in (("letters: a b\nrel: a b = 1", 6),
                             ("letters: a\nrel: a a = 1", 3)):
            p = sp(text)
            system = knuth_bendix(orient_system(p.base)).system
            margin = max(len(r) for r in p.relators)
            g = cayley_ball(lambda v: normalize(system, v),
                            p.alphabet, radius, margin)
            export = cayley_complex_chain(p, g)
            b1, b2 = export.boundary1, export.boundary2
            assert not matmul(b1, b2).entries
            report = exactness_check(chain_homology([b1, b2]), b1,
                                     export.augmentation)
            assert report["total_defect"] == 0, text


def test_criterion_5_amalgam_bass_serre():
    with Clock(30, "criterion 5 (amalgam Bass-Serre tree)"):
        ctx = amalgam_context(AMALGAM)
        g = bass_serre_ball_amalgam(ctx, 4)
        start = g.interior_vertex_ids()[0]
        assert connected_interior(g, start)
        assert g.forest_by_search()
        assert g.forest_by_rank()
        m = g.boundary_matrix()
        assert rank_exact(m) == m.cols == len(g.interior_edge_ids())


def test_criterion_6_op_normal_forms():
    with Clock(60, "criterion 6 (Otto-Pride normal forms)"):
        ctx = OPContext(OP, budget_limit=10**6)
        octx = op_context(OP, budget_limit=10**6)
        alphabet = octx.presentation.alphabet
        words = []
        for n in range(0, 9):
            words.extend(alphabet.words_of_length(n))
        nfs = {}
        for u in words:
            nfs[u] = op_normal_form(ctx, u)       # raises on any failure
        buckets = {}
        for u in words:
            key = (nfs[u].cs, nfs[u].trail)
            buckets.setdefault(key, []).append(u)
        # same normal form <=> oracle-equal, checked via the completed
        # system for L (zero unknowns: normal forms are total functions)
        for u in words:
            for v in buckets[(nfs[u].cs, nfs[u].trail)]:
                assert octx.solver(u) == octx.solver(v)
        reps = [members[0] for members in buckets.values()]
        seen = {octx.solver(u) for u in reps}
        assert len(seen) == len(reps)

        ball = cayley_ball(octx.solver, alphabet, 4, 0).vertices
        ball_nfs = [op_normal_form(ctx, v) for v in ball]
        for a, b, c in itertools.product(ball_nfs, repeat=3):
            left = op_multiply(ctx, op_multiply(ctx, a, b), c)
            right = op_multiply(ctx, a, op_multiply(ctx, b, c))
            assert left == right


def test_criterion_7_derivations():
    with Clock(60, "criterion 7 (derivations and beta sections)"):
        rng = random.Random(0)

        def sampled(ctx, radius, count):
            ball = cayley_ball(ctx.solver, ctx.presentation.alphabet,
                               radius, 0).vertices
            return [(rng.choice(ball), rng.choice(ball))
                    for _ in range(count)]

        actx = amalgam_context(AMALGAM)
        ag = bass_serre_ball_amalgam(actx, 5)
        ad = amalgam_derivation(actx, ag.edge_ball)
        rep = check_derivation_wellformed(
            ad, list(actx.presentation.relations), sampled(actx, 3, 1000))
        assert rep["failures"] == [] and rep["checked"] > 700
        beta = check_beta_section(ag, ad)
        assert beta["failures"] == [] and beta["checked"] > 0

        octx = op_context(OP)
        og = bass_serre_ball_op(octx, 5)
        od = op_derivation(octx, og.edge_ball)
        rep = check_derivation_wellformed(
            od, list(octx.presentation.relations), sampled(octx, 3, 1000))
        assert rep["failures"] == [] and rep["checked"] > 700
        beta = check_beta_section(og, od)
        assert beta["failures"] == [] and beta["checked"] > 0

        fg = bass_serre_forest_bi(octx, 4, margin=2)
        fd = op_forest_derivation(octx, fg.edge_ball)
        rep = check_derivation_wellformed(
            fd, list(octx.presentation.relations), sampled(octx, 3, 1000))
        assert rep["failures"] == [] and rep["checked"] > 500
        beta = check_beta_section(fg, fd)
        assert beta["failures"] == [] and beta["checked"] >= 5


def _minor_gcds(dense, n):
    from math import gcd
    out = []
    rows = range(len(dense))
    cols = range(len(dense[0]))

    def det(rs, cs):
        if len(rs) == 1:
            return dense[rs[0]][cs[0]]
        total = 0
        sign = 1
        for i, r in enumerate(rs):
            total += sign * dense[r][cs[0]] * det(rs[:i] + rs[i + 1:], cs[1:])
            sign = -sign
        return total

    for k in range(1, n + 1):
        g = 0
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(cols, k):
                g = gcd(g, det(list(rs), list(cs)))
        out.append(g)
    return out


def test_criterion_8_smith_vs_determinantal_divisors():
    with Clock(30, "criterion 8 (Smith form oracle)"):
        rng = random.Random(0)
        for trial in range(200):
            dense = [[rng.randint(-3, 3) for _ in range(5)]
                     for _ in range(5)]
            m = M(dense)
            diag = smith_normal_form(m)
            assert len(diag) == oracle_rank_bareiss(m)
            gcds = _minor_gcds(dense, len(diag))
            expected = []
            prev = 1
            for k in range(len(diag)):
                expected.append(gcds[k] // prev)
                prev = gcds[k]
            assert list(diag) == expected, (trial, dense)


def test_criterion_9_completion_behavior():
    with Clock(60, "criterion 9 (completion behavior)"):
        for rules in ([(w("ab"), EMPTY)], [(w("aa"), EMPTY)]):
            letters = sorted({a for lhs, _ in rules for a in lhs})
            alphabet = Alphabet(tuple(letters))
            system = RewriteSystem(
                alphabet,
                tuple(RewriteRule(l, r) for l, r in rules), ORIENTED)
            result = knuth_bendix(system)
            assert result.completed
            assert [(r.lhs, r.rhs) for r in result.system.rules] == rules

        p = parse_presentation("letters: x y\nrel: y y y = x x")
        result = knuth_bendix(orient_system(p))
        assert result.completed or not result.completed  # terminated either way
        # every emitted rule is sound for the defining congruence
        for rule in result.system.rules:
            assert equal_words(p, rule.lhs, rule.rhs).proven, rule


def test_criterion_10_determinism(tmp_path):
    with Clock(120, "criterion 10 (byte-identical artifacts)"):
        pres = tmp_path / "bicyclic.txt"
        pres.write_text("letters: a b\nrel: a b = 1\n")
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({
            "kind": "otto-pride", "m": {"letters": ["a"]},
            "a_gens": ["a a"], "phi": {"a a": "a"},
            "free_basis": ["1", "a"], "stable_letter": "t"}))
        runs = []
        for i in (1, 2):
            arts = {
                "analyze": ["analyze-special", "--presentation", str(pres)],
                "tree": ["check-tree", "--presentation", str(pres),
                         "--radius", "8"],
                "ball": ["cayley", "--presentation", str(pres),
                         "--radius", "5", "--format", "dot"],
                "chain": ["chain", "--presentation", str(pres),
                          "--radius", "6"],
                "bs": ["bass-serre", "--kind", "otto-pride", "--spec",
                       str(spec), "--radius", "5"],
                "deriv": ["verify-derivations", "--kind", "otto-pride",
                          "--spec", str(spec), "--radius", "5",
                          "--seed", "0", "--samples", "300"],
            }
            blobs = {}
            for name, argv in arts.items():
                out = tmp_path / f"{name}{i}.out"
                assert main(argv + ["--out", str(out)]) == 0, name
                blobs[name] = out.read_bytes()
            runs.append(blobs)
        assert runs[0] == runs[1]
