import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from monoidkit.words import EMPTY, Alphabet, Presentation, format_word
from monoidkit.rewriting import Budget, equal_words
from monoidkit.cayley import cayley_ball
from monoidkit.constructions import (
    AmalgamSpec,
    ConstructionError,
    FactorizationFailure,
    IncompleteSystemError,
    OPContext,
    OttoPrideSpec,
    amalgam_context,
    amalgam_derivation,
    amalgam_presentation,
    bass_serre_ball_amalgam,
    bass_serre_ball_op,
    bass_serre_forest_bi,
    check_beta_section,
    check_derivation_wellformed,
    completed_solver,
    derivation_eval,
    forest_component_products,
    free_product,
    hnn_presentation,
    op_context,
    op_derivation,
    op_forest_derivation,
    op_multiply,
    op_normal_form,
    otto_pride_presentation,
    pair_quotient_ball,
    quotient_ball,
    _element_ball,
    _finish_quotient,
    _UnionFind,
)


def free(*letters):
    return Presentation(Alphabet(letters), ())


def w(s):
    return tuple(s)


AMALGAM = AmalgamSpec(free("x"), free("y"), free("w"),
                      {"w": w("xx")}, {"w": w("yyy")})
OP = OttoPrideSpec(free("a"), (w("aa"),), {w("aa"): w("a")},
                   free_basis=(EMPTY, w("a")))


@pytest.fixture(scope="module")
def actx():
    return amalgam_context(AmalgamSpec(free("x"), free("y"), free("w"),
                                       {"w": w("xx")}, {"w": w("yyy")}))


@pytest.fixture(scope="module")
def octx():
    return op_context(OP)


@pytest.fixture(scope="module")
def opctx():
    return OPContext(OP)


# ---------------------------------------------------------------------------
# presentation builders


def test_free_product():
    p = free_product(free("x"), free("y"))
    assert p.alphabet.letters == ("x", "y")
    assert p.relations == ()


def test_free_product_renames_collisions():
    p = free_product(free("a"), free("a"))
    assert p.alphabet.letters == ("a1", "a2")


def test_amalgam_presentation():
    p = amalgam_presentation(AMALGAM)
    assert p.alphabet.letters == ("x", "y")
    assert p.relations == ((w("xx"), w("yyy")),)
    assert AMALGAM.diagnostics == []


def test_amalgam_presentation_identified_letter():
    spec = AmalgamSpec(free("a"), free("a"), free("w"),
                       {"w": w("a")}, {"w": w("a")})
    p = amalgam_presentation(spec)
    assert p.relations == ((("a1",), ("a2",)),)


def test_otto_pride_presentation():
    p = otto_pride_presentation(OP)
    assert p.alphabet.letters == ("a", "t")
    assert p.relations == ((w("aat"), w("ta")),)


def test_otto_pride_stable_letter_collision():
    spec = OttoPrideSpec(free("t"), (), {})
    with pytest.raises(ConstructionError):
        otto_pride_presentation(spec)


def test_hnn_presentation():
    p = hnn_presentation(free("a"), (w("aa"),), (w("a"),), {w("aa"): w("a")})
    assert p.alphabet.letters == ("a", "t", "t-")
    assert (w("t") + w("t-") != EMPTY)
    assert ((("t", "t-"), EMPTY)) in p.relations
    assert ((("t-", "t"), EMPTY)) in p.relations
    assert ((("a", "a", "t"), ("t", "a"))) in p.relations


def test_completed_solver_budget():
    p = Presentation(Alphabet(("a", "b")), ((w("ab"), EMPTY),))
    solver, system = completed_solver(p)
    assert solver(w("aabb")) == EMPTY
    hard = Presentation(Alphabet(("x", "y")), ((w("xx"), w("yyy")),))
    with pytest.raises(IncompleteSystemError):
        completed_solver(hard, budget_limit=1)


# ---------------------------------------------------------------------------
# Otto-Pride tensor normal forms


def test_factor(opctx):
    c, a_nf, gens = opctx.factor(w("aaa"))
    assert c == w("a") and a_nf == w("aa")
    assert gens == (w("aa"),)
    c, a_nf, gens = opctx.factor(EMPTY)
    assert c == EMPTY and a_nf == EMPTY and gens == ()


def test_factor_ambiguous_basis():
    spec = OttoPrideSpec(free("a"), (w("aa"),), {w("aa"): w("a")},
                         free_basis=(EMPTY, w("a"), w("aa")))
    ctx = OPContext(spec)
    with pytest.raises(FactorizationFailure) as e:
        ctx.factor(w("aa"))
    assert str(e.value) == ("ambiguous basis factorization of a a: "
                            "[('1', 'a a'), ('a a', '1')]")


def test_factor_missing_basis_word():
    ctx = OPContext(OttoPrideSpec(free("a"), (w("aa"),), {w("aa"): w("a")},
                                  free_basis=(EMPTY,)))
    with pytest.raises(FactorizationFailure) as e:
        ctx.factor(w("a"))
    assert str(e.value) == "no basis factorization of a"


# The per-call scan that OPContext.factor's table replaced, kept as the
# oracle: every basis word times every pooled A-element is normalized and
# compared with the target.


def oracle_factor(ctx, m_word):
    target = ctx.nf_m(m_word)
    pool = ctx.a_elements(len(target) + max(
        (len(g) for g in ctx.a_gens), default=0))
    found = []
    for c in ctx.basis:
        for a_nf, gens in pool.items():
            if ctx.nf_m(c + a_nf) == target:
                found.append((c, a_nf, gens))
    if not found:
        raise FactorizationFailure(
            f"no basis factorization of {format_word(target)}")
    if len({(c, a) for c, a, _ in found}) > 1:
        raise FactorizationFailure(
            f"ambiguous basis factorization of {format_word(target)}: "
            f"{[(format_word(c), format_word(a)) for c, a, _ in found]}")
    return found[0]


def op_spec(k, j, basis):
    """<a,t | a^k t = t a^j> over the free monoid on a, with the given
    basis C (free over A = <a^k> when C is 1, a, ..., a^(k-1))."""
    return OttoPrideSpec(free("a"), (w("a") * k,), {w("a") * k: w("a") * j},
                         free_basis=tuple(basis))


def outcome(f, *args):
    try:
        return f(*args)
    except FactorizationFailure as e:
        return type(e), str(e)


@st.composite
def op_bases(draw):
    k, j = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    free_basis = [w("a") * i for i in range(k)]
    # a shuffled free basis, or 1 plus powers of a drawn with repeats, so
    # that some are missing (no factorization) and some duplicate a coset
    # (ambiguous factorization)
    basis = draw(st.one_of(
        st.permutations(free_basis[1:]).map(lambda b: [EMPTY] + b),
        st.lists(st.integers(1, k + 2), max_size=k + 2).map(
            lambda ps: [EMPTY] + [w("a") * p for p in ps])))
    return k, j, basis


@settings(max_examples=150, deadline=None)
@given(op_bases(), st.permutations(range(9)))
@example((2, 1, [EMPTY]), list(range(9)))
@example((2, 1, [EMPTY, w("a"), w("aa")]), list(range(9)))
@example((3, 2, [EMPTY, w("aa"), w("aaaa"), w("a")]), list(range(9)))
def test_factor_matches_scan_oracle(case, lengths):
    k, j, basis = case
    ctx = OPContext(op_spec(k, j, basis))
    for n in lengths:   # m-words up to length 8, in a random order
        word = w("a") * n
        assert outcome(ctx.factor, word) == outcome(oracle_factor, ctx, word)


def test_basis_must_contain_identity():
    spec = OttoPrideSpec(free("a"), (w("aa"),), {w("aa"): w("a")},
                         free_basis=(w("a"),))
    with pytest.raises(ConstructionError):
        OPContext(spec)


def test_op_normal_form_examples(opctx):
    nf = op_normal_form(opctx, w("aaat"))
    assert nf.cs == (w("a"), w("a")) and nf.trail == EMPTY
    nf = op_normal_form(opctx, w("taat"))
    assert nf.cs == (EMPTY, EMPTY, w("a")) and nf.trail == EMPTY
    nf = op_normal_form(opctx, w("aa"))
    assert nf.cs == (EMPTY,) and nf.trail == w("aa")
    assert op_normal_form(opctx, w("tta")) == op_normal_form(opctx, w("taat"))


def test_op_normal_form_matches_oracle(opctx, octx):
    # two words are equal in L iff their tensor normal forms agree
    alphabet = octx.presentation.alphabet
    words = []
    for n in range(0, 6):
        words.extend(alphabet.words_of_length(n))
    nfs = {v: op_normal_form(opctx, v) for v in words}
    for u in words:
        for v in words:
            assert (nfs[u] == nfs[v]) == (octx.solver(u) == octx.solver(v)), \
                (format_word(u), format_word(v))


def test_op_normal_form_word_is_congruent(opctx, octx):
    for s in ("aaat", "taat", "atat", "ttaa", "aata"):
        nf = op_normal_form(opctx, w(s))
        assert octx.solver(nf.to_word()) == octx.solver(w(s))


def test_op_multiply(opctx, octx):
    u, v = w("aat"), w("ta")
    prod = op_multiply(opctx, op_normal_form(opctx, u),
                       op_normal_form(opctx, v))
    assert prod == op_normal_form(opctx, u + v)


def test_op_multiply_associative(opctx, octx):
    ball = cayley_ball(octx.solver, octx.presentation.alphabet, 3, 0).vertices
    nfs = [op_normal_form(opctx, v) for v in ball]
    rng = random.Random(99)
    for _ in range(40):
        a, b, c = rng.choice(nfs), rng.choice(nfs), rng.choice(nfs)
        left = op_multiply(opctx, op_multiply(opctx, a, b), c)
        right = op_multiply(opctx, a, op_multiply(opctx, b, c))
        assert left == right


# ---------------------------------------------------------------------------
# quotient balls


def test_quotient_ball_submonoid_collapses(octx):
    # all powers of a fall into the class of 1 under right multiplication by a
    qb = quotient_ball(octx.solver, octx.presentation.alphabet,
                       [w("a")], 5, side="L/M")
    assert qb.lookup(EMPTY) == qb.lookup(w("a")) == qb.lookup(w("aaa"))


def test_quotient_ball_parity(octx):
    # A is generated by aa, so 1 and a sit in different classes of L/A
    qb = quotient_ball(octx.solver, octx.presentation.alphabet,
                       octx.a_images, 6, side="L/A")
    assert qb.lookup(EMPTY) != qb.lookup(w("a"))
    assert qb.lookup(EMPTY) == qb.lookup(w("aa"))


def test_quotient_ball_partial_flags(octx):
    qb = quotient_ball(octx.solver, octx.presentation.alphabet,
                       octx.a_images, 4, side="L/A", margin=2)
    assert not qb.partial[qb.lookup(EMPTY)]
    deep = [ci for ci in range(len(qb.classes)) if qb.partial[ci]]
    for ci in deep:
        assert min(len(qb.elements[i]) for i in qb.classes[ci]) > 2


def test_quotient_ball_json_deterministic(octx):
    a = quotient_ball(octx.solver, octx.presentation.alphabet,
                      octx.a_images, 4)
    b = quotient_ball(octx.solver, octx.presentation.alphabet,
                      octx.a_images, 4)
    assert a.to_json() == b.to_json()


def test_pair_quotient_twist(octx):
    # in the A-tensor twisted by phi, (x.aa, y) ~ (x, a.y)
    phi = {w("aa"): w("a")}
    pq = pair_quotient_ball(octx.solver, octx.presentation.alphabet,
                            octx.a_images, 4, side="LxL/A", twist=phi)
    assert pq.lookup((w("aa"), EMPTY)) == pq.lookup((EMPTY, w("a")))
    untwisted = pair_quotient_ball(octx.solver, octx.presentation.alphabet,
                                   octx.a_images, 4, side="LxL/A")
    assert untwisted.lookup((w("aa"), EMPTY)) == untwisted.lookup(
        (EMPTY, w("aa")))


# The per-pair loop that pair_quotient_ball's per-element moves replaced,
# kept as the oracle: x.g and twist(g).y are normalized for every pair.


def oracle_pair_quotient_ball(solver, alphabet, k_gens, radius, budget_limit,
                              side="LxL/K", margin=0, twist=None):
    elements, depth = _element_ball(solver, alphabet, radius)
    eset = {x: d for x, d in zip(elements, depth)}
    pairs = [(x, y) for x in elements for y in elements]
    pair_depth = [eset[x] + eset[y] for x, y in pairs]
    ids = {p: i for i, p in enumerate(pairs)}
    uf = _UnionFind(len(pairs))
    budget = Budget(budget_limit)
    truncated = False
    k_gens = tuple(tuple(g) for g in k_gens)
    if twist is None:
        twist = {g: g for g in k_gens}
    for x, y in pairs:
        for g in k_gens:
            if not budget.spend():
                truncated = True
                break
            xg = solver(x + g)
            gy = solver(twist[g] + y)
            if xg in eset and gy in eset:
                uf.union(ids[xg, y], ids[x, gy])
        if truncated:
            break
    return _finish_quotient(side, radius, pairs, uf, pair_depth, margin,
                            truncated)


@functools.lru_cache(maxsize=None)
def ball_context(kind, p, q):
    if kind == "amalgam":
        ctx = amalgam_context(AmalgamSpec(
            free("x"), free("y"), free("w"),
            {"w": w("x") * p}, {"w": w("y") * q}))
        return ctx, ((w("x"),), (w("y"),), ctx.w_images[0])
    ctx = op_context(op_spec(p, q, [w("a") * i for i in range(p)]))
    return ctx, tuple(dict.fromkeys(((w("a"),), (w("t"),), ctx.a_images[0])))


@st.composite
def pair_ball_cases(draw):
    kind = draw(st.sampled_from(["otto_pride", "amalgam"]))
    ctx, gens = ball_context(kind, draw(st.integers(1, 3)),
                             draw(st.integers(1, 3)))
    k_gens = draw(st.lists(st.sampled_from(gens), min_size=1,
                           max_size=len(gens), unique=True))
    twist = draw(st.one_of(st.none(), st.fixed_dictionaries(
        {g: st.sampled_from(gens + (EMPTY,)) for g in k_gens})))
    radius = draw(st.integers(1, 4))
    # small budgets stop the pair loop part way through a pair's moves
    budget = draw(st.one_of(st.integers(0, 2500), st.just(10**6)))
    return ctx, k_gens, twist, radius, budget, draw(st.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(pair_ball_cases())
def test_pair_quotient_ball_matches_per_pair_oracle(case):
    ctx, k_gens, twist, radius, budget, margin = case
    alphabet = ctx.presentation.alphabet
    got = pair_quotient_ball(ctx.solver, alphabet, k_gens, radius, budget,
                             margin=margin, twist=twist)
    want = oracle_pair_quotient_ball(ctx.solver, alphabet, k_gens, radius,
                                     budget, margin=margin, twist=twist)
    assert got.pairs == want.elements
    assert got.class_of == want.class_of
    assert got.classes == want.classes
    assert got.partial == want.partial
    assert got.truncated == want.truncated
    assert all(got.lookup(p) == want.class_of[i]
               for i, p in enumerate(want.elements))


# ---------------------------------------------------------------------------
# Bass-Serre balls


def test_amalgam_tree(actx):
    g = bass_serre_ball_amalgam(actx, 4)
    assert g.interior_vertex_ids()
    assert g.forest_by_search()
    assert g.forest_by_rank()
    assert g.connected_interior(g.interior_vertex_ids()[0])


def test_op_tree(octx):
    g = bass_serre_ball_op(octx, 5)
    assert g.forest_by_search()
    assert g.forest_by_rank()
    assert g.connected_interior(g.interior_vertex_ids()[0])


def test_amalgam_forest_components(actx):
    g = bass_serre_forest_bi(actx, "amalgam", 4)
    assert g.forest_by_search() and g.forest_by_rank()
    prods = forest_component_products(actx, g)
    # one product per component, pairwise distinct: the multiplication map
    # identifies the component set with a subset of the monoid
    assert all(len(v) == 1 for v in prods.values())
    seen = [next(iter(v)) for v in prods.values()]
    assert len(set(seen)) == len(seen)


def test_op_forest_components(octx):
    g = bass_serre_forest_bi(octx, "otto_pride", 4, margin=2)
    assert g.forest_by_search() and g.forest_by_rank()
    prods = forest_component_products(octx, g)
    assert all(len(v) == 1 for v in prods.values())
    seen = [next(iter(v)) for v in prods.values()]
    assert len(set(seen)) == len(seen)


def test_forest_unknown_kind(actx):
    with pytest.raises(ConstructionError):
        bass_serre_forest_bi(actx, "hnn", 3)


def test_graph_json_and_dot(actx):
    g = bass_serre_ball_amalgam(actx, 3)
    j = g.to_json()
    assert j["kind"] == "amalgam"
    assert len(j["vertices"]) == len(g.vertices)
    assert g.to_dot().startswith("graph")


# ---------------------------------------------------------------------------
# derivations and beta sections


def samples_from(ctx, radius, count, seed):
    ball = cayley_ball(ctx.solver, ctx.presentation.alphabet,
                       radius, 0).vertices
    rng = random.Random(seed)
    return [(rng.choice(ball), rng.choice(ball)) for _ in range(count)]


def test_amalgam_derivation(actx):
    bass_serre_ball_amalgam(actx, 5)
    d = amalgam_derivation(actx)
    rep = check_derivation_wellformed(
        d, list(actx.presentation.relations), samples_from(actx, 3, 200, 7))
    assert rep["passed"] and rep["checked"] > 150
    assert rep["failures"] == []


def test_amalgam_derivation_values(actx):
    bass_serre_ball_amalgam(actx, 5)
    d = amalgam_derivation(actx)
    assert derivation_eval(d, w("x")).ze == {}
    v = derivation_eval(d, w("y"))
    one = actx.qbw.lookup(EMPTY)
    assert v.ze == {one: 1, actx.qbw.lookup(w("y")): -1}


def test_amalgam_beta(actx):
    g = bass_serre_ball_amalgam(actx, 5)
    d = amalgam_derivation(actx)
    rep = check_beta_section(actx, g, d, "amalgam")
    assert rep["passed"] and rep["checked"] > 0 and not rep["skipped"]


def test_op_derivation(octx):
    bass_serre_ball_op(octx, 5)
    d = op_derivation(octx)
    rep = check_derivation_wellformed(
        d, list(octx.presentation.relations), samples_from(octx, 3, 200, 8))
    assert rep["passed"] and rep["checked"] > 150


def test_op_beta(octx):
    g = bass_serre_ball_op(octx, 5)
    d = op_derivation(octx)
    rep = check_beta_section(octx, g, d, "otto_pride")
    assert rep["passed"] and rep["checked"] > 0


def test_op_forest_derivation(octx):
    g = bass_serre_forest_bi(octx, "otto_pride", 4, margin=2)
    d = op_forest_derivation(octx, g._edge_ball)
    rep = check_derivation_wellformed(
        d, list(octx.presentation.relations), samples_from(octx, 3, 200, 9))
    assert rep["passed"] and rep["checked"] > 100
    # the defining relation itself resolves and balances
    assert {"kind": "relation", "lhs": "a a t", "rhs": "t a"} not in \
        rep["failures"] + rep["skipped"]


def test_op_forest_beta(octx):
    g = bass_serre_forest_bi(octx, "otto_pride", 4, margin=2)
    d = op_forest_derivation(octx, g._edge_ball)
    rep = check_beta_section(octx, g, d, "otto_pride_forest")
    assert rep["passed"] and rep["checked"] >= 5 and not rep["skipped"]
