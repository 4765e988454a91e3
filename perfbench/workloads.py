"""The four workloads.  Each builds, from a seed, a fixed list of jobs that
call what a user calls: the monoidkit command line, run in-process through
monoidkit.cli.main with its artifact captured in memory, and the library
functions where no subcommand exists (Otto-Pride normal forms and
products).

A seed renames letters, orders the relations and the jobs, and, in
`special`, draws the relators from pools whose members cost about the
same, so that runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass

import checks

# letter names a seed draws from; t is kept for the Otto-Pride stable letter
LETTER_POOL = "abcdefghijklmnopqrsuvwxyz"
STABLE_LETTER = "t"


@dataclass
class Job:
    name: str
    run: object      # () -> output, compared between rounds
    check: object    # (output, outputs by job name) -> None or raise
    size: object = None   # output -> bytes of its CLI artifact


def _fmt(word):
    return " ".join(word) if word else "1"


class Inputs:
    """Writes input files into a work directory and makes jobs."""

    def __init__(self, workdir, rng):
        self.workdir = workdir
        self.rng = rng
        self.cli = sys.modules["monoidkit.cli"]

    def rename(self, canonical):
        """A seeded injective renaming of the given canonical letters."""
        return dict(zip(canonical, self.rng.sample(LETTER_POOL,
                                                   len(canonical))))

    def presentation(self, name, letters, relations, shuffle=True):
        relations = list(relations)
        if shuffle:
            self.rng.shuffle(relations)
        lines = ["letters: " + " ".join(letters)]
        lines += [f"rel: {_fmt(l)} = {_fmt(r)}" for l, r in relations]
        return self._write(name + ".txt", "\n".join(lines) + "\n")

    def spec(self, name, data):
        return self._write(name + ".json", json.dumps(data, sort_keys=True))

    def _write(self, filename, text):
        path = os.path.join(self.workdir, filename)
        with open(path, "w") as f:
            f.write(text)
        return path

    def cli_job(self, name, argv, check):
        """check is (payload, exit code, outputs) -> None."""
        cli = self.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = cli.main(argv)     # looked up per call, so traceable
            return rc, out.getvalue()

        def check_output(output, outputs):
            rc, text = output
            checks.require(text, f"no artifact, exit code {rc}")
            return check(json.loads(text), rc, outputs)

        return Job(name, run, check_output, lambda o: len(o[1].encode()))


# ---------------------------------------------------------------------------
# complete: Knuth-Bendix completion through `monoidkit complete`

# positive Artin monoids, which never complete under shortlex, and the
# budgets they run at (each job ends within about half a second)
ARTIN = [
    ("A2", [("aba", "bab")], "ab", (600, 1000, 1500, 2200)),
    ("B2", [("abab", "baba")], "ab", (1000, 2000, 3000)),
    ("G2", [("ababab", "bababa")], "ab", (1000, 2000, 3000)),
    ("A3", [("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")], "abc",
     (300, 600, 1500, 2000)),
]


def _coxeter_relations(gens, m):
    """Coxeter relations; m(i, j) is the order of gens[i] gens[j]."""
    rels = [((g, g), ()) for g in gens]
    for i, j in itertools.combinations(range(len(gens)), 2):
        k = m(i, j)
        alt = [gens[i], gens[j]] * k
        rels.append((tuple(alt[:k]), tuple(alt[1:k + 1])))
    return rels


def _transposition(n, i):
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def build_complete(inp):
    jobs = []
    for n in range(3, 8):
        # S_n: generators s_1 .. s_{n-1} along a path
        gens = inp.rng.sample(LETTER_POOL, n - 1)
        rels = _coxeter_relations(
            gens, lambda i, j: 3 if j == i + 1 else 2)
        path = inp.presentation(f"S{n}", gens, rels)
        perms = {g: _transposition(n, i) for i, g in enumerate(gens)}
        jobs.append(inp.cli_job(
            f"complete S{n}", ["complete", "--presentation", path],
            lambda p, rc, outs, perms=perms:
                checks.check_coxeter_completion(p, rc, perms)))
    for m in range(4, 9):
        # dihedral group of order 2m, acting on Z/m by two reflections
        gens = inp.rng.sample(LETTER_POOL, 2)
        rels = _coxeter_relations(gens, lambda i, j: m)
        path = inp.presentation(f"I2_{m}", gens, rels)
        perms = {gens[0]: tuple((-x) % m for x in range(m)),
                 gens[1]: tuple((1 - x) % m for x in range(m))}
        jobs.append(inp.cli_job(
            f"complete I2({m})", ["complete", "--presentation", path],
            lambda p, rc, outs, perms=perms:
                checks.check_coxeter_completion(p, rc, perms)))
    for name, rels, canonical, budgets in ARTIN:
        for budget in budgets:
            names = inp.rename(canonical)
            relations = [(tuple(names[a] for a in l),
                          tuple(names[a] for a in r)) for l, r in rels]
            relations = [(r, l) if inp.rng.random() < 0.5 else (l, r)
                         for l, r in relations]
            path = inp.presentation(f"{name}_{budget}",
                                    [names[a] for a in canonical], relations)
            jobs.append(inp.cli_job(
                f"complete {name} budget {budget}",
                ["complete", "--presentation", path, "--budget", str(budget)],
                lambda p, rc, outs, relations=relations:
                    checks.check_homogeneous_completion(p, rc, relations)))
    return jobs


# ---------------------------------------------------------------------------
# special: analyze-special and check-tree on one-relator special monoids

# (budget, picks, pool): relators over a < b < c whose analysis at the
# budget takes about the same time; each round draws `picks` of them
SPECIAL_SLOTS = [
    # short relators, mostly certified; abab is a proper power
    (10000, 2, "ab aab abb aaab aabb abbb abab abc acb"),
    (3000, 4, "aabc aacb abac abbc abcb abcc acab acbb acbc accb"),
    (3000, 6, "aaaab aaabb aabab aabbb abaaa abaab ababb abbaa abbbb"),
    # proper powers
    (3000, 1, "aabaab abbabb"),
    (3000, 4, "aaaaba aaabba aaabbb aababa aababb abaaab abaabb abbbaa "
              "abbbbb"),
    (1000, 3, "aaabc aaacb aabac aabbc aabcb aabcc aacbb aacbc abaac ababc "
              "abacb abcaa abccb abccc acaba acabb acabc acbab acbbb acbbc "
              "acbcb accab accba"),
    # group-like relators whose units completion runs out of budget
    (3000, 2, "ababba abbaab abbaba"),
    (1000, 4, "aaaabba aaaabbb aaabaab aaababa aaababb aaabbab aaabbba "
              "aaabbbb aabaaaa aabaaab aabaabb aababab aababba aababbb "
              "aabbaab abaaaab abaaaba abaaabb abaabaa abaabbb ababaaa "
              "ababaab ababbaa ababbab ababbbb abbaaaa abbabab abbbaaa "
              "abbbabb abbbbaa"),
    # a proper power of length 8
    (1000, 1, "abababab"),
]

# check-tree inputs, independent of the seed: every relator here but ab
# trips the scc_condense fault (components without interior vertices
# are not marked partial), which the run counts as failed
CHECK_TREE = [("abab", 8), ("aabb", 8), ("aab", 8), ("abb", 8),
              ("abc", 6), ("aaaaa", 4), ("ab", 8)]
CHECK_TREE_BUDGET = 10000


def build_special(inp):
    jobs = []
    for slot, (budget, picks, pool) in enumerate(SPECIAL_SLOTS):
        for relator in inp.rng.sample(pool.split(), picks):
            canonical = sorted(set(relator))
            names = inp.rename(canonical)
            word = tuple(names[a] for a in relator)
            path = inp.presentation(f"special_{slot}_{relator}",
                                    [names[a] for a in canonical],
                                    [(word, ())])
            jobs.append(inp.cli_job(
                f"analyze-special {relator} budget {budget}",
                ["analyze-special", "--presentation", path,
                 "--budget", str(budget)],
                lambda p, rc, outs, word=word:
                    checks.check_special_analysis(p, rc, word)))
    for relator, radius in CHECK_TREE:
        word = tuple(relator)
        path = inp.presentation(f"tree_{relator}", sorted(set(relator)),
                                [(word, ())], shuffle=False)
        jobs.append(inp.cli_job(
            f"check-tree {relator} radius {radius}",
            ["check-tree", "--presentation", path, "--radius", str(radius),
             "--budget", str(CHECK_TREE_BUDGET)],
            lambda p, rc, outs, radius=radius, margin=len(word):
                checks.classify_check_tree(p, rc, radius, margin)))
    return jobs


# ---------------------------------------------------------------------------
# cayley-homology: `homology` and `chain` on one-relator special monoids

HOMOLOGY = [("ab", (6, 8, 10, 12)), ("abab", (4, 5, 6)),
            ("aabb", (4, 5, 6)), ("aab", (5, 6, 7)), ("abb", (5, 6, 7)),
            ("abc", (3, 4)), ("aa", (10,)), ("aaa", (10,)),
            ("aaaa", (12,)), ("aaaaa", (12,))]


def build_cayley_homology(inp):
    jobs = []
    for relator, radii in HOMOLOGY:
        canonical = sorted(set(relator))
        names = inp.rename(canonical)
        word = tuple(names[a] for a in relator)
        path = inp.presentation(f"hom_{relator}",
                                [names[a] for a in canonical], [(word, ())])
        for radius in radii:
            tail = ["--presentation", path, "--radius", str(radius)]
            chain_name = f"chain {relator} radius {radius}"
            jobs.append(inp.cli_job(
                chain_name, ["chain"] + tail,
                lambda p, rc, outs: checks.require(
                    rc == 0 and p["composite_zero"], "bad chain export")))
            jobs.append(inp.cli_job(
                f"homology {relator} radius {radius}", ["homology"] + tail,
                lambda p, rc, outs, chain_name=chain_name, word=word:
                    checks.check_homology(
                        p, rc, json.loads(outs[chain_name][1]),
                        outs[chain_name][0], word)))
    return jobs


# ---------------------------------------------------------------------------
# tensor: Otto-Pride extensions <a, t | a^k t = t a^j> and amalgams
# <x> *_w <y> with w -> x^p, w -> y^q

OTTO_PRIDE = [(2, 1), (3, 1), (3, 2), (2, 2), (2, 3), (4, 1)]
AMALGAMS = [(2, 3), (3, 2), (2, 4), (3, 4)]
NF_LENGTH = 9           # normal forms of every word up to this length
PRODUCT_RADIUS = 2      # associativity on the ball of this radius
BASS_SERRE_RADIUS = 6
FOREST_RADIUS = 5
DERIVATION_RADIUS = 5


def _op_rule(a, t, k, j):
    """The extension's one-rule complete system under shortlex, a < t."""
    if j < k:
        return ((a,) * k + (t,), (t,) + (a,) * j)
    return ((t,) + (a,) * j, (a,) * k + (t,))


def build_tensor(inp):
    C = sys.modules["monoidkit.constructions"]
    words_mod = sys.modules["monoidkit.words"]
    cayley = sys.modules["monoidkit.cayley"]
    jobs = []
    seed = inp.rng.randrange(10**6)
    for k, j in OTTO_PRIDE:
        a, t = inp.rng.choice(LETTER_POOL), STABLE_LETTER
        power = " ".join([a] * k)
        data = {"kind": "otto-pride", "m": {"letters": [a]},
                "a_gens": [power], "phi": {power: " ".join([a] * j)},
                "free_basis": ["1"] + [" ".join([a] * i)
                                       for i in range(1, k)],
                "stable_letter": t}
        spec_path = inp.spec(f"op_{k}_{j}", data)
        rules = [_op_rule(a, t, k, j)]
        spec = C.OttoPrideSpec(
            words_mod.Presentation(words_mod.Alphabet((a,)), ()),
            ((a,) * k,), {(a,) * k: (a,) * j},
            free_basis=tuple((a,) * i for i in range(k)), stable_letter=t)
        ctx = C.OPContext(spec)
        octx = C.op_context(spec)
        alphabet = octx.presentation.alphabet
        words = [w for n in range(NF_LENGTH + 1)
                 for w in alphabet.words_of_length(n)]
        ball = cayley.cayley_ball(octx.solver, alphabet, PRODUCT_RADIUS,
                                  0).vertices
        ball_nfs = [C.op_normal_form(ctx, v) for v in ball]
        jobs.append(Job(
            f"op_normal_form <{a},t|{a}^{k}t=t{a}^{j}> length {NF_LENGTH}",
            lambda ctx=ctx, words=words: {
                w: (nf.cs, nf.trail)
                for w in words for nf in [C.op_normal_form(ctx, w)]},
            lambda nfs, outs, rules=rules:
                checks.check_op_normal_forms(nfs, rules)))
        jobs.append(Job(
            f"op_multiply <{a},t|{a}^{k}t=t{a}^{j}> radius {PRODUCT_RADIUS}",
            lambda ctx=ctx, ball=ball, nfs=ball_nfs, t=t:
                _products(C, ctx, ball, nfs, t),
            lambda triples, outs, rules=rules:
                checks.check_op_products(triples, rules)))
        jobs += _bass_serre_jobs(inp, "otto-pride", f"OP({k},{j})",
                                 spec_path, seed, forest_derivations=True)
    for p, q in AMALGAMS:
        x, y, w = inp.rng.sample(LETTER_POOL, 3)
        data = {"kind": "amalgam", "m1": {"letters": [x]},
                "m2": {"letters": [y]}, "w": {"letters": [w]},
                "f1": {w: " ".join([x] * p)}, "f2": {w: " ".join([y] * q)}}
        spec_path = inp.spec(f"amalgam_{p}_{q}", data)
        jobs += _bass_serre_jobs(inp, "amalgam", f"amalgam({p},{q})",
                                 spec_path, seed, forest_derivations=False)
    return jobs


def _products(C, ctx, ball, nfs, t):
    out = []
    for (x, nx), (y, ny), (z, nz) in itertools.product(
            list(zip(ball, nfs)), repeat=3):
        xy = C.op_multiply(ctx, nx, ny)
        left = C.op_multiply(ctx, xy, nz)
        right = C.op_multiply(ctx, nx, C.op_multiply(ctx, ny, nz))
        out.append((x, y, z, left.to_word(t), right.to_word(t),
                    xy.to_word(t)))
    return out


def _bass_serre_jobs(inp, kind, label, spec_path, seed, forest_derivations):
    common = ["--kind", kind, "--spec", spec_path]
    jobs = [inp.cli_job(
        f"bass-serre {label} radius {BASS_SERRE_RADIUS}",
        ["bass-serre"] + common + ["--radius", str(BASS_SERRE_RADIUS)],
        lambda p, rc, outs: checks.check_bass_serre(p, rc))]
    jobs.append(inp.cli_job(
        f"bass-serre --forest {label} radius {FOREST_RADIUS}",
        ["bass-serre", "--forest"] + common
        + ["--radius", str(FOREST_RADIUS)],
        lambda p, rc, outs: checks.check_bass_serre(p, rc)))
    jobs.append(inp.cli_job(
        f"verify-derivations {label} radius {DERIVATION_RADIUS}",
        ["verify-derivations"] + common
        + ["--radius", str(DERIVATION_RADIUS), "--seed", str(seed)],
        lambda p, rc, outs: checks.check_derivations(p, rc)))
    if forest_derivations:   # verify-derivations --forest is Otto-Pride only
        jobs.append(inp.cli_job(
            f"verify-derivations --forest {label} radius {FOREST_RADIUS}",
            ["verify-derivations", "--forest"] + common
            + ["--radius", str(FOREST_RADIUS), "--seed", str(seed)],
            lambda p, rc, outs: checks.check_derivations(p, rc)))
    return jobs


BUILDERS = {"complete": build_complete, "special": build_special,
            "cayley-homology": build_cayley_homology, "tensor": build_tensor}


def build(workload, seed, workdir):
    """Import monoidkit, write the inputs and build the shared context;
    returns the job list in its seeded order."""
    import monoidkit.cli  # noqa: F401  (loads every monoidkit module)

    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](Inputs(workdir, rng))
    rng.shuffle(jobs)
    return jobs
