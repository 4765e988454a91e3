import dataclasses
import functools
import random
from unittest import mock

import pytest
from hypothesis import (
    HealthCheck, assume, example, given, settings, strategies as st)

from monoidkit.words import (
    EMPTY, Alphabet, Presentation, UnionFind, format_word, longest_side)
from monoidkit.rewriting import (
    Budget, equal_words, knuth_bendix, normalize, orient_system)
from monoidkit import constructions
from monoidkit.cayley import CayleyError, cayley_ball, dot_quoted
from monoidkit.constructions import (
    AmalgamSpec,
    BassSerreGraph,
    ConstructionError,
    FactorizationFailure,
    IncompleteSystemError,
    OPContext,
    OttoPrideSpec,
    QuotientBall,
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


@pytest.mark.parametrize("kind", ["amalgam", "otto_pride"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_memoized_solver_matches_normalize(kind, data):
    # ball_context is cached, so every example shares one context per kind
    # and later examples also read words the memo already holds
    ctx, _ = ball_context(kind, 2, 3)
    system = knuth_bendix(orient_system(ctx.presentation)).system
    letters = ctx.presentation.alphabet.letters
    for word in data.draw(st.lists(st.lists(
            st.sampled_from(letters), max_size=12).map(tuple), max_size=4)):
        want = normalize(system, word)
        assert ctx.solver(word) == want
        assert ctx.solver(word) == want


def test_memoized_solver_normalizes_each_word_once(monkeypatch):
    # the solver calls normalize through the module global, so a wrapper
    # put there sees every call it makes
    calls = []
    monkeypatch.setattr(constructions, "normalize",
                        lambda s, v: calls.append(v) or normalize(s, v))
    solver, _ = completed_solver(
        Presentation(Alphabet(("a", "b")), ((w("ab"), EMPTY),)))
    assert [solver(w("aabb")), solver(w("ba")), solver(w("aabb"))] == [
        EMPTY, w("ba"), EMPTY]
    assert calls == [w("aabb"), w("ba")]


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


def test_op_context_checks_phi():
    # a generator of A without a phi image is a spec error at construction,
    # not a KeyError in the first normal form that pushes it through t
    spec = OttoPrideSpec(free("a"), (w("aa"),), {w("a"): w("a")},
                         free_basis=(EMPTY, w("a")))
    with pytest.raises(ConstructionError, match="a_gens word a a has no "
                                                "phi image"):
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


def ball_of(ctx, radius, margin=0):
    return cayley_ball(ctx.solver, ctx.presentation.alphabet, radius, margin)


def test_quotient_ball_submonoid_collapses(octx):
    # all powers of a fall into the class of 1 under right multiplication by a
    qb = quotient_ball(octx.solver, ball_of(octx, 5), [w("a")])
    assert qb.lookup(EMPTY) == qb.lookup(w("a")) == qb.lookup(w("aaa"))


def test_quotient_ball_parity(octx):
    # A is generated by aa, so 1 and a sit in different classes of L/A
    qb = quotient_ball(octx.solver, ball_of(octx, 6), octx.a_images)
    assert qb.lookup(EMPTY) != qb.lookup(w("a"))
    assert qb.lookup(EMPTY) == qb.lookup(w("aa"))


def test_quotient_ball_partial_flags(octx):
    qb = quotient_ball(octx.solver, ball_of(octx, 4, 2), octx.a_images)
    assert not qb.partial[qb.lookup(EMPTY)]
    deep = [ci for ci in range(len(qb.classes)) if qb.partial[ci]]
    for ci in deep:
        assert min(len(qb.elements[i]) for i in qb.classes[ci]) > 2


def test_quotient_ball_json_deterministic(octx):
    a = quotient_ball(octx.solver, ball_of(octx, 4), octx.a_images)
    b = quotient_ball(octx.solver, ball_of(octx, 4), octx.a_images)
    ids = range(len(a.classes))
    assert ball_fields(a) == ball_fields(b)
    assert a.rep_names(ids, "", "") == b.rep_names(ids, "", "")


def test_pair_quotient_twist(octx):
    # in the A-tensor twisted by phi, (x.aa, y) ~ (x, a.y)
    phi = {w("aa"): w("a")}
    pq = pair_quotient_ball(octx.solver, ball_of(octx, 4), octx.a_images,
                            twist=phi)
    assert pq.lookup((w("aa"), EMPTY)) == pq.lookup((EMPTY, w("a")))
    assert pq.rep_names([0], "", "") == ["1,1"]
    untwisted = pair_quotient_ball(octx.solver, ball_of(octx, 4),
                                   octx.a_images)
    assert untwisted.lookup((w("aa"), EMPTY)) == untwisted.lookup(
        (EMPTY, w("aa")))


# The quotient loops that the one quotient core replaced, kept as oracles:
# quotient_ball normalizes x.g after charging each move, and the pair ball
# normalizes x.g and twist(g).y for every pair.


def oracle_finish(radius, elements, uf, depth, margin, truncated,
                  pair=False, ball=None):
    n = len(elements)
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    ordered = sorted(groups.values(), key=lambda m: m[0])
    class_of = [None] * n
    partial = []
    for ci, members in enumerate(ordered):
        for v in members:
            class_of[v] = ci
        partial.append(truncated
                       or min(depth[v] for v in members) > radius - margin)
    return QuotientBall(list(elements), class_of,
                        [sorted(m) for m in ordered], partial, truncated,
                        pair, ball)


def oracle_quotient_ball(solver, alphabet, k_gens, radius, budget_limit,
                         margin=0):
    ball = cayley_ball(solver, alphabet, radius, 0)
    elements, depth = ball.vertices, ball.depth
    ids = {x: i for i, x in enumerate(elements)}
    uf = UnionFind(len(elements))
    budget = Budget(budget_limit)
    truncated = False
    for i, x in enumerate(elements):
        for g in k_gens:
            if not budget.spend():
                truncated = True
                break
            j = ids.get(solver(x + tuple(g)))
            if j is not None:
                uf.union(i, j)
        if truncated:
            break
    return oracle_finish(radius, elements, uf, depth, margin,
                         truncated, ball=ball)


def oracle_pair_quotient_ball(solver, alphabet, k_gens, radius, budget_limit,
                              margin=0, twist=None):
    ball = cayley_ball(solver, alphabet, radius, 0)
    eset = dict(zip(ball.vertices, ball.depth))
    pairs = [(x, y) for x in ball.vertices for y in ball.vertices]
    pair_depth = [eset[x] + eset[y] for x, y in pairs]
    ids = {p: i for i, p in enumerate(pairs)}
    uf = UnionFind(len(pairs))
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
    return oracle_finish(radius, pairs, uf, pair_depth, margin,
                         truncated, pair=True, ball=ball)


def oracle_lookup(qb):
    """The element index that QuotientBall.lookup replaced: a dict from
    each element of the ball to its class."""
    return dict(zip(qb.elements, qb.class_of)).get


def ball_fields(qb):
    return (qb.elements, qb.class_of, qb.classes, qb.partial, qb.truncated,
            qb.pair)


@functools.lru_cache(maxsize=None)
def ball_context(kind, p, q):
    if kind == "amalgam":
        ctx = amalgam_context(AmalgamSpec(
            free("x"), free("y"), free("w"),
            {"w": w("x") * p}, {"w": w("y") * q}))
        return ctx, (w("x"), w("y"), ctx.w_images[0])
    ctx = op_context(op_spec(p, q, [w("a") * i for i in range(p)]))
    return ctx, tuple(dict.fromkeys((w("a"), w("t"), ctx.a_images[0])))


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
    got = pair_quotient_ball(ctx.solver, ball_of(ctx, radius, margin),
                             k_gens, budget, twist=twist)
    want = oracle_pair_quotient_ball(ctx.solver, alphabet, k_gens, radius,
                                     budget, margin=margin, twist=twist)
    assert ball_fields(got) == ball_fields(want)
    assert got.pairs == want.elements
    assert all(got.lookup(p) == want.class_of[i]
               for i, p in enumerate(want.elements))
    got = quotient_ball(ctx.solver, ball_of(ctx, radius, margin), k_gens,
                        budget)
    want = oracle_quotient_ball(ctx.solver, alphabet, k_gens, radius, budget,
                                margin=margin)
    assert ball_fields(got) == ball_fields(want)
    ids = range(len(want.classes))
    assert got.rep_names(ids, "", "") == want.rep_names(ids, "", "")


@settings(max_examples=60, deadline=None)
@given(pair_ball_cases(), st.data())
def test_lookup_matches_element_dict(case, data):
    # lookup reads ids from the Cayley ball's id map; the dict over the
    # ball's elements must agree on every element and on words and pairs
    # that leave the ball or are not in normal form
    ctx, k_gens, twist, radius, budget, margin = case
    ball = ball_of(ctx, radius, margin)
    word = st.lists(st.sampled_from(ctx.presentation.alphabet.letters),
                    max_size=radius + 2).map(tuple)
    probes = ball_of(ctx, radius + 1).vertices + data.draw(st.lists(word))
    single = quotient_ball(ctx.solver, ball, k_gens, budget)
    pairs = pair_quotient_ball(ctx.solver, ball, k_gens, budget, twist=twist)
    assert any(single.lookup(x) is None for x in probes)
    for qb, outside in ((single, probes),
                        (pairs, list(zip(probes, probes[::-1])))):
        find = oracle_lookup(qb)
        for element in list(qb.elements) + outside:
            assert qb.lookup(element) == find(element)


def test_lookup_on_one_vertex_ball(octx):
    # at radius 0 the ball and its pair ball both have one element
    ball = ball_of(octx, 0)
    single = quotient_ball(octx.solver, ball, octx.a_images)
    pairs = pair_quotient_ball(octx.solver, ball, octx.a_images)
    assert single.lookup(EMPTY) == pairs.lookup((EMPTY, EMPTY)) == 0
    assert single.lookup(w("a")) is None
    assert pairs.lookup((EMPTY, w("a"))) is None


@st.composite
def union_sequences(draw):
    n = draw(st.integers(1, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(pair, max_size=60)), draw(st.integers(0, 60))


@settings(max_examples=200, deadline=None)
@given(union_sequences())
def test_union_find_classes_match_sorted_grouping(case):
    n, unions, split = case
    uf = UnionFind(n)
    for x, y in unions[:split]:
        uf.union(x, y)
    uf.union_all(iter(unions[split:]))
    want = oracle_finish(0, list(range(n)), uf, [0] * n, 0, False)
    assert uf.classes() == (want.class_of, want.classes)
    # and the classes are the connected components of the unions
    comp = {i: {i} for i in range(n)}
    for x, y in unions:
        merged = comp[x] | comp[y]
        for v in merged:
            comp[v] = merged
    assert want.classes == sorted(sorted(c) for c in
                                  {min(c): c for c in comp.values()}.values())


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("e", [1, 8, 15])
@pytest.mark.parametrize("k", [2, 3])
def test_pair_quotient_ball_budget_cut(k, e, shift, twisted):
    # a budget of e*k - 1, e*k or e*k + 1 moves stops inside, at or just
    # past the generator list of pair e; the ball of radius 2 has 49 pairs
    ctx, gens = ball_context("otto_pride", 2, 1)
    k_gens = gens[:k]
    assert len(set(k_gens)) == k
    twist = ({g: gens[(i + 1) % len(gens)] for i, g in enumerate(k_gens)}
             if twisted else None)
    alphabet, budget = ctx.presentation.alphabet, e * k + shift
    got = pair_quotient_ball(ctx.solver, ball_of(ctx, 2, 1), k_gens, budget,
                             twist=twist)
    want = oracle_pair_quotient_ball(ctx.solver, alphabet, k_gens, 2,
                                     budget, margin=1, twist=twist)
    assert len(got.pairs) == 49 and got.truncated
    assert ball_fields(got) == ball_fields(want)


def test_quotient_core_rejects_negative_margin(octx):
    # the quotient balls read their margin from the Cayley ball, which
    # rejects a negative one, as do the graph builders that build it
    with pytest.raises(CayleyError):
        ball_of(octx, 2, -1)
    for build in (bass_serre_ball_op, bass_serre_forest_bi):
        with pytest.raises(CayleyError):
            build(octx, 2, margin=-1)


# ---------------------------------------------------------------------------
# Bass-Serre balls


# Interior components of a Bass-Serre graph and the multiplication map on
# them, kept as oracles: the program itself reads neither.


def components(g):
    """Interior components as a map vertex id -> component id."""
    interior = g.vertex_interior
    uf = UnionFind(len(interior))
    uf.union_all((g.tail[e], g.head[e]) for e in g.interior_edge_ids())
    # interior edges join interior vertices only
    ordered = [c for c in uf.classes()[1] if interior[c[0]]]
    return {v: ci for ci, members in enumerate(ordered) for v in members}


def connected_interior(g, start):
    """Whether every interior vertex lies in the component of start."""
    comp = components(g)
    return set(comp.values()) <= {comp.get(start)}


def forest_component_products(ctx, g):
    """The multiplication map on interior components: each interior vertex
    pair class maps to the normal form of the product of its pair.  Returns
    {component id: set of products}; the two-sided lemma predicts a single
    product per component, distinct across components."""
    out = {}
    for v, ci in components(g).items():
        side, class_id = g.vertex(v)
        x, y = g.vertex_balls[side].rep(class_id)
        out.setdefault(ci, set()).add(ctx.solver(x + y))
    return out


def test_amalgam_tree(actx):
    g = bass_serre_ball_amalgam(actx, 4)
    assert g.interior_vertex_ids()
    assert g.forest_by_search()
    assert g.forest_by_rank()
    assert connected_interior(g, g.interior_vertex_ids()[0])


def test_op_tree(octx):
    g = bass_serre_ball_op(octx, 5)
    assert g.forest_by_search()
    assert g.forest_by_rank()
    assert connected_interior(g, g.interior_vertex_ids()[0])


def test_interior_loop_edge_has_a_zero_column():
    # edge 1 is a loop at vertex 1, the one interior edge: its -1 lands on
    # its +1, so the column is zero and both forest tests answer False
    g = BassSerreGraph("loop", 0, {}, [True, True], "E", None, [0, 1],
                       tail=[0, 1], head=[1, 1], edge_interior=[False, True])
    m = g.boundary_matrix()
    assert (m.rows, m.cols) == (2, 1) and not m.entries
    assert g.forest_by_search() is False and g.forest_by_rank() is False


def test_amalgam_forest_components(actx):
    g = bass_serre_forest_bi(actx, 4)
    assert g.forest_by_search() and g.forest_by_rank()
    prods = forest_component_products(actx, g)
    # one product per component, pairwise distinct: the multiplication map
    # identifies the component set with a subset of the monoid
    assert all(len(v) == 1 for v in prods.values())
    seen = [next(iter(v)) for v in prods.values()]
    assert len(set(seen)) == len(seen)


def test_op_forest_components(octx):
    g = bass_serre_forest_bi(octx, 4, margin=2)
    assert g.forest_by_search() and g.forest_by_rank()
    prods = forest_component_products(octx, g)
    assert all(len(v) == 1 for v in prods.values())
    seen = [next(iter(v)) for v in prods.values()]
    assert len(set(seen)) == len(seen)


def rows(table):
    """The rows of a column table, as dicts."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


def test_graph_json_and_dot(actx):
    g = bass_serre_ball_amalgam(actx, 3)
    j = g.to_json()
    assert j["kind"] == "amalgam"
    assert [v["id"] for v in rows(j["vertices"])] == list(
        range(len(g.vertex_interior)))
    assert [(e["tail"], e["head"]) for e in rows(j["edges"])] == list(
        zip(g.tail, g.head))
    assert g.to_dot().startswith("graph")


# ---------------------------------------------------------------------------
# derivations and beta sections


def samples_from(ctx, radius, count, seed):
    ball = cayley_ball(ctx.solver, ctx.presentation.alphabet,
                       radius, 0).vertices
    rng = random.Random(seed)
    return [(rng.choice(ball), rng.choice(ball)) for _ in range(count)]


def oracle_check_derivation_wellformed(d, relations, samples):
    """The per-sample loop check_derivation_wellformed replaced, kept as
    the oracle: both values are evaluated again for every sample."""
    failures = []
    skipped = []
    checked = 0

    def compare(kind, left, right, detail):
        nonlocal checked
        if not (left.resolved and right.resolved):
            skipped.append({"kind": kind, **detail})
            return
        checked += 1
        if left.ze != right.ze:
            failures.append({"kind": kind, **detail})

    for lhs, rhs in relations:
        compare("relation", derivation_eval(d, lhs), derivation_eval(d, rhs),
                {"lhs": format_word(lhs), "rhs": format_word(rhs)})
    for x, y in samples:
        compare("pair", derivation_eval(d, x + y),
                derivation_eval(d, d.solver(x + y)),
                {"x": format_word(x), "y": format_word(y)})
    return {"checked": checked, "failures": failures, "skipped": skipped,
            "passed": not failures}


@pytest.mark.parametrize("kind", ["amalgam", "otto_pride", "forest"])
@pytest.mark.parametrize("broken", [False, True])
def test_derivation_check_counts_repeated_samples(kind, broken):
    # samples from a radius-2 ball repeat many times, and words of the
    # radius-3 ball leave the radius-2 edge ball; a broken derivation
    # also fails some checks, so all three counts are exercised
    ctx, _ = ball_context("amalgam" if kind == "amalgam" else "otto_pride",
                          2, 3 if kind == "amalgam" else 1)
    if kind == "forest":
        g = bass_serre_forest_bi(ctx, 2, margin=1)
        d = op_forest_derivation(ctx, g.edge_ball)
    else:
        build = (bass_serre_ball_amalgam if kind == "amalgam"
                 else bass_serre_ball_op)
        g = build(ctx, 2)
        d = (amalgam_derivation if kind == "amalgam" else op_derivation)(
            ctx, g.edge_ball)
    if broken:
        # the first letter also takes the last letter's first term, which
        # the relations do not balance
        first, *_, last = ctx.presentation.alphabet.letters
        d = dataclasses.replace(d, images={
            **d.images, first: d.images[first] + d.images[last][:1]})
    samples = samples_from(ctx, 2, 60, 5) + samples_from(ctx, 3, 60, 6)
    samples += samples[:30]
    relations = list(ctx.presentation.relations)
    got = check_derivation_wellformed(d, relations, samples)
    assert got == oracle_check_derivation_wellformed(d, relations, samples)
    assert got["checked"] + len(got["skipped"]) == len(relations) + len(
        samples)
    assert got["skipped"] and bool(got["failures"]) == broken


def test_amalgam_derivation(actx):
    g = bass_serre_ball_amalgam(actx, 5)
    d = amalgam_derivation(actx, g.edge_ball)
    rep = check_derivation_wellformed(
        d, list(actx.presentation.relations), samples_from(actx, 3, 200, 7))
    assert rep["passed"] and rep["checked"] > 150
    assert rep["failures"] == []


def test_amalgam_derivation_values(actx):
    g = bass_serre_ball_amalgam(actx, 5)
    d = amalgam_derivation(actx, g.edge_ball)
    assert derivation_eval(d, w("x")).ze == {}
    v = derivation_eval(d, w("y"))
    one = g.edge_ball.lookup(EMPTY)
    assert v.ze == {one: 1, g.edge_ball.lookup(w("y")): -1}


def test_amalgam_beta(actx):
    g = bass_serre_ball_amalgam(actx, 5)
    d = amalgam_derivation(actx, g.edge_ball)
    rep = check_beta_section(g, d)
    assert rep["passed"] and rep["checked"] > 0 and not rep["skipped"]


def test_op_derivation(octx):
    g = bass_serre_ball_op(octx, 5)
    d = op_derivation(octx, g.edge_ball)
    rep = check_derivation_wellformed(
        d, list(octx.presentation.relations), samples_from(octx, 3, 200, 8))
    assert rep["passed"] and rep["checked"] > 150


def test_op_beta(octx):
    g = bass_serre_ball_op(octx, 5)
    d = op_derivation(octx, g.edge_ball)
    rep = check_beta_section(g, d)
    assert rep["passed"] and rep["checked"] > 0


def test_op_forest_derivation(octx):
    g = bass_serre_forest_bi(octx, 4, margin=2)
    d = op_forest_derivation(octx, g.edge_ball)
    rep = check_derivation_wellformed(
        d, list(octx.presentation.relations), samples_from(octx, 3, 200, 9))
    assert rep["passed"] and rep["checked"] > 100
    # the defining relation itself resolves and balances
    assert {"kind": "relation", "lhs": "a a t", "rhs": "t a"} not in \
        rep["failures"] + rep["skipped"]


def test_op_forest_resolver_matches_lookup(octx):
    # the resolver finds a pair's class by id arithmetic; the element
    # index it no longer builds must agree, also on words that leave the
    # ball
    g = bass_serre_forest_bi(octx, 3, margin=1)
    d = op_forest_derivation(octx, g.edge_ball)
    find = oracle_lookup(g.edge_ball)
    words = [w for w, _ in samples_from(octx, 4, 120, 3)]
    resolved = 0
    for x, y in zip(words, words[::-1]):
        payload = (x + ("t",), ("a",) + y)
        want = find(tuple(map(octx.solver, payload)))
        assert d.resolver(payload) == want
        resolved += want is not None
    assert 0 < resolved < len(words)


def test_op_forest_beta(octx):
    g = bass_serre_forest_bi(octx, 4, margin=2)
    d = op_forest_derivation(octx, g.edge_ball)
    rep = check_beta_section(g, d)
    assert rep["passed"] and rep["checked"] >= 5 and not rep["skipped"]


# ---------------------------------------------------------------------------
# the one Bass-Serre builder against the four builders it replaced


# The four builders, kept as oracles over the oracle balls.  Each picked
# edge ends, interior flags and diagnostics by its own rule.


def vertex_ids(*sides):
    """Global vertex ids of the classes of (side, ball) in order, keyed by
    (side, class id)."""
    classes = [(side, ci) for side, qb in sides
               for ci in range(len(qb.classes))]
    return {key: v for v, key in enumerate(classes)}


def oracle_graph(kind, radius, vertex_balls, edge_side, edge_ball, edges,
                 diagnostics):
    """The graph with the given edges, as rows (class id, tail, head,
    interior)."""
    columns = [list(c) for c in zip(*edges)] or [[], [], [], []]
    vertex_interior = [not p for qb in vertex_balls.values()
                       for p in qb.partial]
    return BassSerreGraph(kind, radius, vertex_balls, vertex_interior,
                          edge_side, edge_ball, *columns, diagnostics)


def oracle_amalgam_tree(ctx, radius, budget, margin):
    def ball(gens):
        return oracle_quotient_ball(ctx.solver, ctx.presentation.alphabet,
                                    gens, radius, budget, margin)

    qb1 = ball([(a,) for a in ctx.m1_letters])
    qb2 = ball([(a,) for a in ctx.m2_letters])
    qbw = ball(ctx.w_images)
    gid = vertex_ids(("M1", qb1), ("M2", qb2))
    edges = []
    diagnostics = []
    find1, find2 = oracle_lookup(qb1), oracle_lookup(qb2)
    for ci in range(len(qbw.classes)):
        members = [qbw.elements[i] for i in qbw.classes[ci]]
        x = members[0]
        t1, t2 = find1(x), find2(x)
        ok = all(find1(y) == t1 and find2(y) == t2 for y in members)
        if not ok:
            diagnostics.append({
                "kind": "edge_incidence_unresolved", "edge_class": ci})
        edges.append((ci, gid["M1", t1], gid["M2", t2],
                      not qbw.partial[ci] and ok))
    return oracle_graph("amalgam", radius, {"M1": qb1, "M2": qb2}, "W", qbw,
                        edges, diagnostics)


def oracle_op_tree(ctx, radius, budget, margin):
    def ball(gens):
        return oracle_quotient_ball(ctx.solver, ctx.presentation.alphabet,
                                    gens, radius, budget, margin)

    t = ctx.spec.stable_letter
    qbm = ball([(a,) for a in ctx.spec.m.alphabet.letters])
    qba = ball(ctx.a_images)
    edges = []
    diagnostics = []
    find = oracle_lookup(qbm)
    for ci in range(len(qba.classes)):
        members = [qba.elements[i] for i in qba.classes[ci]]
        tails = {find(y) for y in members}
        heads = {find(ctx.solver(y + (t,))) for y in members}
        interior = (not qba.partial[ci]
                    and len(tails) == 1 and len(heads) == 1
                    and None not in heads)
        if len(tails) > 1 or (len(heads) > 1 and None not in heads):
            diagnostics.append({
                "kind": "edge_incidence_unresolved", "edge_class": ci})
        head = next(iter(heads - {None}), None)
        if head is None:
            continue
        edges.append((ci, next(iter(tails)), head, interior))
    return oracle_graph("otto_pride", radius, {"M": qbm}, "A", qba, edges,
                        diagnostics)


def oracle_amalgam_forest(ctx, radius, budget, margin):
    def ball(gens):
        return oracle_pair_quotient_ball(
            ctx.solver, ctx.presentation.alphabet, gens, radius, budget,
            margin)

    pq1 = ball([(a,) for a in ctx.m1_letters])
    pq2 = ball([(a,) for a in ctx.m2_letters])
    pqe = ball(ctx.w_images)
    gid = vertex_ids(("M1", pq1), ("M2", pq2))
    edges = []
    find1, find2 = oracle_lookup(pq1), oracle_lookup(pq2)
    for ci in range(len(pqe.classes)):
        members = [pqe.pairs[i] for i in pqe.classes[ci]]
        p = members[0]
        t1, t2 = find1(p), find2(p)
        ok = all(find1(q) == t1 and find2(q) == t2 for q in members)
        edges.append((ci, gid["M1", t1], gid["M2", t2],
                      not pqe.partial[ci] and ok))
    return oracle_graph("amalgam_forest", radius, {"M1": pq1, "M2": pq2},
                        "W", pqe, edges, [])


def oracle_op_forest(ctx, radius, budget, margin):
    t = ctx.spec.stable_letter
    alphabet = ctx.presentation.alphabet
    pqm = oracle_pair_quotient_ball(
        ctx.solver, alphabet, [(a,) for a in ctx.spec.m.alphabet.letters],
        radius, budget, margin)
    pqa = oracle_pair_quotient_ball(
        ctx.solver, alphabet, ctx.a_images, radius, budget, margin,
        twist={tuple(g): tuple(v) for g, v in ctx.spec.phi.items()})
    edges = []
    find = oracle_lookup(pqm)
    for ci in range(len(pqa.classes)):
        members = [pqa.pairs[i] for i in pqa.classes[ci]]
        tails = set()
        heads = set()
        for x, y in members:
            tails.add(find((x, ctx.solver((t,) + y))))
            heads.add(find((ctx.solver(x + (t,)), y)))
        tails.discard(None)
        heads.discard(None)
        if not tails or not heads:
            continue
        interior = (not pqa.partial[ci]
                    and len(tails) == 1 and len(heads) == 1)
        edges.append((ci, min(tails), min(heads), interior))
    return oracle_graph("otto_pride_forest", radius, {"M": pqm}, "A", pqa,
                        edges, [])


def build_graph(kind, forest, ctx, radius, budget, margin):
    if forest:
        return bass_serre_forest_bi(ctx, radius, budget, margin)
    if kind == "amalgam":
        return bass_serre_ball_amalgam(ctx, radius, budget, margin)
    return bass_serre_ball_op(ctx, radius, budget, margin)


ORACLE_GRAPHS = {
    ("amalgam", False): oracle_amalgam_tree,
    ("otto_pride", False): oracle_op_tree,
    ("amalgam", True): oracle_amalgam_forest,
    ("otto_pride", True): oracle_op_forest,
}

DERIVATIONS = {"amalgam": amalgam_derivation, "otto_pride": op_derivation,
               "otto_pride_forest": op_forest_derivation}


def graph_view(g):
    """(side, class id, label, interior) per vertex, (class id, label,
    interior) per edge, and both forest checks."""
    doc = g.to_json()
    return ([(*g.vertex(v["id"]), v["label"], v["interior"])
             for v in rows(doc["vertices"])],
            [(ci, e["label"], e["interior"])
             for ci, e in zip(g.edge_class, rows(doc["edges"]))],
            g.forest_by_search(), g.forest_by_rank())


def member_leaves_ball(ctx, g, class_id):
    """Whether a member of an Otto-Pride forest edge class has an end
    outside the ball."""
    t = (ctx.spec.stable_letter,)
    find = oracle_lookup(g.vertex_balls["M"])
    return any(find((x, ctx.solver(t + y))) is None
               or find((ctx.solver(x + t), y)) is None
               for x, y in (g.edge_ball.elements[i]
                            for i in g.edge_ball.classes[class_id]))


@st.composite
def graph_cases(draw):
    # amalgams x^p = y^q and Otto-Pride extensions a^k t = t a^j
    kind = draw(st.sampled_from(["amalgam", "otto_pride"]))
    forest = draw(st.booleans())
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    radius = draw(st.integers(1, 5))
    budget = draw(st.one_of(st.integers(0, 3000), st.just(10**6)))
    return kind, forest, p, q, radius, budget, draw(st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(graph_cases())
@example(("otto_pride", False, 1, 1, 1, 10**6, 0))
@example(("otto_pride", True, 1, 1, 1, 10**6, 0))
@example(("otto_pride", True, 4, 1, 5, 10**6, 2))
@example(("amalgam", True, 3, 4, 5, 10**6, 2))
def test_bass_serre_builder_matches_oracles(case):
    kind, forest, p, q, radius, budget, margin = case
    ctx, _ = ball_context(kind, p, q)
    got = build_graph(kind, forest, ctx, radius, budget, margin)
    want = ORACLE_GRAPHS[kind, forest](ctx, radius, budget, margin)
    assert ball_fields(got.edge_ball) == ball_fields(want.edge_ball)
    assert {side: ball_fields(qb) for side, qb in got.vertex_balls.items()} \
        == {side: ball_fields(qb) for side, qb in want.vertex_balls.items()}
    got_view, want_view = graph_view(got), graph_view(want)
    assert got_view[0] == want_view[0]
    assert [e[:2] for e in got_view[1]] == [e[:2] for e in want_view[1]]
    # the Otto-Pride forest used to drop members with an end outside the
    # ball; the one rule makes those edges, and only those, not interior
    for ci, got_interior, want_interior in zip(
            want.edge_class, got.edge_interior, want.edge_interior):
        if got_interior != want_interior:
            assert got.kind == "otto_pride_forest" and want_interior
            assert member_leaves_ball(ctx, want, ci)
    assert got_view[2:] == want_view[2:]
    # the builder reports every class an oracle reported, and an edge
    # whose members agree on their in-ball ends keeps them
    assert all(d in got.diagnostics for d in want.diagnostics)
    unresolved = {d["edge_class"] for d in got.diagnostics}
    for e, ci in enumerate(got.edge_class):
        if ci not in unresolved:
            assert (got.tail[e], got.head[e]) == (want.tail[e], want.head[e])
    if got.kind in DERIVATIONS:
        derivation = DERIVATIONS[got.kind]
        d_got = derivation(ctx, got.edge_ball)
        d_want = derivation(ctx, want.edge_ball)
        relations = list(ctx.presentation.relations)
        samples = samples_from(ctx, 2, 20, radius)
        assert (check_derivation_wellformed(d_got, relations, samples)
                == check_derivation_wellformed(d_want, relations, samples))
        # the beta check runs over the interior edges the two graphs share
        want.edge_interior = list(got.edge_interior)
        assert check_beta_section(got, d_got) == check_beta_section(
            want, d_want)


@pytest.mark.parametrize("kind", ["amalgam", "otto_pride"])
@pytest.mark.parametrize("forest", [False, True])
def test_bass_serre_labels_are_formatted_on_read(monkeypatch, kind, forest):
    # building a graph formats no word; its artifacts show each class by
    # its representative, [u]side for a word and [x,y]side for a pair,
    # formatting each word of the Cayley ball once per ball they read
    formatted = []
    monkeypatch.setattr(constructions, "format_word",
                        lambda x: formatted.append(x) or format_word(x))
    ctx, _ = ball_context(kind, 2, 3)
    g = build_graph(kind, forest, ctx, 3, 10**6, 1)
    assert g.vertex_interior and g.edge_class and not formatted

    def label(qb, class_id, side):
        words = qb.rep(class_id) if forest else (qb.rep(class_id),)
        return f"[{','.join(map(format_word, words))}]{side}"

    doc = g.to_json()
    words = len(g.edge_ball.ball.vertices)
    assert len(formatted) == (len(g.vertex_balls) + 1) * words
    vertex_labels = [label(qb, ci, side)
                     for side, qb in g.vertex_balls.items()
                     for ci in range(len(qb.classes))]
    assert doc["vertices"]["label"] == vertex_labels
    assert doc["edges"]["label"] == [label(g.edge_ball, ci, g.edge_side)
                                     for ci in g.edge_class]
    assert g.edge_side == ("W" if kind == "amalgam" else "A")
    # DOT prints no edge label, so it formats the vertex balls' names only,
    # and its text is the one written from the JSON artifact's rows
    formatted.clear()
    dot = g.to_dot()
    assert len(formatted) == len(g.vertex_balls) * words
    lines = [f'  v{v["id"]} [label={dot_quoted(v["label"])}'
             + ("" if v["interior"] else ", style=dashed") + "];"
             for v in rows(doc["vertices"])]
    lines += [f'  v{e["tail"]} -- v{e["head"]}'
              + ("" if e["interior"] else " [style=dashed]") + ";"
              for e in rows(doc["edges"])]
    assert dot == "\n".join(["graph bass_serre {", *lines, "}"]) + "\n"
    assert all(f'v{i} [label="{v}"' in dot
               for i, v in enumerate(vertex_labels))


@pytest.mark.parametrize("kind", ["amalgam", "otto_pride"])
@pytest.mark.parametrize("forest", [False, True])
def test_vertex_interior_is_the_settled_vertex_classes(kind, forest):
    # the graph keeps one interior flag per vertex, set when it is built:
    # vertex i is interior iff its class is not partial, the sides' classes
    # taken in order
    ctx, _ = ball_context(kind, 2, 3)
    g = build_graph(kind, forest, ctx, 3, 10**6, 1)
    want = []
    for qb in g.vertex_balls.values():
        want += [not qb.partial[ci] for ci in range(len(qb.classes))]
    assert g.vertex_interior == want
    assert True in want and False in want
    assert g.interior_vertex_ids() == [v for v, ok in enumerate(want) if ok]


@pytest.mark.parametrize("kind", ["amalgam", "otto_pride"])
@pytest.mark.parametrize("forest", [False, True])
def test_each_graph_builds_one_cayley_ball(monkeypatch, kind, forest):
    # every ball of a graph is built on the same Cayley ball
    calls = []

    def counted(*args):
        calls.append(args)
        return cayley_ball(*args)

    monkeypatch.setattr(constructions, "cayley_ball", counted)
    ctx, _ = ball_context(kind, 2, 3)
    build_graph(kind, forest, ctx, 3, 10**6, 1)
    assert len(calls) == 1


def test_op_tree_reports_edges_it_leaves_out():
    # in <a,t | aat = taaa> at radius 6, the A-classes 38 and 51 have
    # members with different M-classes but no t-image in the ball: the
    # edge is left out and still reported
    ctx, _ = ball_context("otto_pride", 2, 3)
    g = bass_serre_ball_op(ctx, 6)
    assert not {38, 51} & set(g.edge_class)
    assert {38, 51} <= {d["edge_class"] for d in g.diagnostics}


def test_longest_side():
    # the default margin; 0 without relations, which leave no way out of
    # the ball
    assert longest_side(free("x", "y")) == 0
    assert longest_side(otto_pride_presentation(OP)) == 3
    spec = AmalgamSpec(free("x"), free("y"), Presentation(Alphabet(()), ()),
                       {}, {})
    ctx = amalgam_context(spec)
    assert ctx.presentation.relations == ()
    assert graph_view(bass_serre_ball_amalgam(ctx, 3)) == graph_view(
        bass_serre_ball_amalgam(ctx, 3, margin=0))
    assert all(bass_serre_ball_amalgam(ctx, 3).vertex_interior)


# ---------------------------------------------------------------------------
# derivations per occurrence and normal forms per block against the loops
# they replaced, on random amalgams and Otto-Pride extensions


def oracle_derivation_eval(d, word):
    """The letter-by-letter fold of derivation_eval, kept as the oracle:
    after each letter every payload so far is moved right by it."""
    acc = {}
    unresolved = []
    payloads = {}
    prefix = EMPTY
    for letter in word:
        if d.act_right is not None:
            payloads = {d.act_right(p, (letter,)): c
                        for p, c in payloads.items()}
        for coeff, payload in d.images[letter]:
            moved = d.act_left(prefix, payload)
            payloads[moved] = payloads.get(moved, 0) + coeff
        prefix = prefix + (letter,)
    for payload, coeff in payloads.items():
        if coeff == 0:
            continue
        cid = d.resolver(payload)
        if cid is None:
            unresolved.append(payload)
        else:
            acc[cid] = acc.get(cid, 0) + coeff
            if acc[cid] == 0:
                del acc[cid]
    return list(acc.items()), unresolved


def oracle_op_normal_form(ctx, w, factor):
    """The per-letter op_normal_form, kept as the oracle: the word is cut
    into blocks letter by letter, and each carry is built generator by
    generator."""
    blocks = []
    cur = []
    for letter in w:
        if letter == ctx.t:
            blocks.append(tuple(cur))
            cur = []
        else:
            cur.append(letter)
    blocks.append(tuple(cur))
    cs = []
    carry = EMPTY
    for i, block in enumerate(blocks):
        c, a_nf, gens = factor(carry + block)
        cs.append(c)
        if i + 1 < len(blocks):
            carry = EMPTY
            for g in gens:
                carry = carry + ctx.phi[g]
        else:
            return constructions.OPNormalForm(tuple(cs), a_nf)


@functools.lru_cache(maxsize=None)
def random_context(kind, gens, letters="a"):
    """An amalgam <x> *_W <y>, W free on one letter per (p, q) in gens with
    w -> x^p and w -> y^q, or an Otto-Pride extension of the free monoid on
    letters, with a t = t phi(a) per (a, phi(a)) in gens; None when
    completion does not finish."""
    try:
        if kind == "amalgam":
            names = "wvu"[:len(gens)]
            return amalgam_context(AmalgamSpec(
                free("x"), free("y"), free(*names),
                {c: w("x") * p for c, (p, _) in zip(names, gens)},
                {c: w("y") * q for c, (_, q) in zip(names, gens)}),
                budget_limit=20000)
        return op_context(OttoPrideSpec(
            free(*letters), tuple(w(g) for g, _ in gens),
            {w(g): w(image) for g, image in gens}), budget_limit=20000)
    except IncompleteSystemError:
        return None


@st.composite
def random_graph_cases(draw):
    kind = draw(st.sampled_from(["amalgam", "otto_pride"]))
    # A-generators over {a} or {a, b}, phi images of length 0 to 3
    letters = draw(st.sampled_from(["a", "ab"]))
    if kind == "amalgam":
        gens = st.tuples(st.integers(1, 4), st.integers(1, 4))
    else:
        word = st.text(letters, min_size=1, max_size=3)
        gens = st.tuples(word, st.text(letters, max_size=3))
    gens = tuple(draw(st.lists(gens, min_size=1, max_size=2,
                               unique_by=lambda g: g[0])))
    ctx = random_context(kind, gens, letters)
    assume(ctx is not None)
    # three letters make balls of radius 5 too large for a test
    size = len(ctx.presentation.alphabet.letters)
    radius = draw(st.integers(0, 5 if size == 2 else 3))
    # small budgets truncate the balls
    budget = draw(st.one_of(st.integers(0, 400), st.just(10**6)))
    return (kind, draw(st.booleans()), ctx, radius, budget,
            draw(st.integers(0, 3)))


def random_images(draw, d, forest, words):
    """d with each letter's image replaced by up to three random terms, so
    that terms cancel, merge and leave the ball."""
    payload = st.tuples(words, words) if forest else words
    terms = st.lists(st.tuples(st.integers(-2, 2), payload), max_size=3)
    return dataclasses.replace(d, images={
        a: draw(terms) for a in d.images})


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(random_graph_cases(), st.data())
def test_derivation_eval_matches_letter_fold(case, data):
    # each occurrence's terms moved once, by the prefix before and the
    # suffix after it, equal the fold that moves them letter by letter
    g = build_graph(*case)
    ctx, radius = case[2], case[3]
    letters = ctx.presentation.alphabet.letters
    words = st.lists(st.sampled_from(letters), max_size=radius + 3).map(
        tuple)
    if g.kind in DERIVATIONS:
        d = DERIVATIONS[g.kind](ctx, g.edge_ball)
    else:   # the amalgam forest: a bimodule derivation on its pairs
        d = constructions.DerivationSpec(
            {a: [] for a in letters},
            lambda p: g.edge_ball.lookup(tuple(map(ctx.solver, p))),
            ctx.solver, act_left=lambda u, p: (u + p[0], p[1]),
            act_right=lambda p, v: (p[0], p[1] + v))
    if data.draw(st.booleans()) or g.kind == "amalgam_forest":
        d = random_images(data.draw, d, d.act_right is not None, words)
    for word in data.draw(st.lists(words, min_size=1, max_size=6)):
        got = derivation_eval(d, word)
        assert (list(got.ze.items()), got.unresolved) == \
            oracle_derivation_eval(d, word)
        assert got.resolved == (not oracle_derivation_eval(d, word)[1])


def spied(factor):
    """factor, and the words it is asked to factor, in order."""
    asked = []
    return lambda m_word: asked.append(m_word) or factor(m_word), asked


@settings(max_examples=150, deadline=None)
@given(op_bases(), st.lists(st.text("at", max_size=10), min_size=1,
                            max_size=20))
@example((2, 1, [EMPTY]), ["tat", "aat"])
@example((2, 1, [EMPTY, w("a"), w("aa")]), ["taat", "aatt"])
@example((3, 2, [EMPTY, w("aa"), w("a")]), ["aaataat", "ataaat"])
def test_op_normal_form_matches_per_letter_oracle(case, texts):
    # blocks found by index and carries kept per generator sequence give
    # the oracle's normal form, from the same factor calls in the same
    # order, and a basis that is not free raises at the same block with the
    # same text
    k, j, basis = case
    ctx = OPContext(op_spec(k, j, basis))
    for text in texts:
        word = w(text)
        factor, asked = spied(ctx.factor)
        with mock.patch.object(ctx, "factor", factor):
            got = outcome(op_normal_form, ctx, word)
        factor, want_asked = spied(functools.partial(oracle_factor, ctx))
        assert got == outcome(oracle_op_normal_form, ctx, word, factor)
        assert asked == want_asked


def test_memoized_factor_failures_repeat():
    # a basis that is not free: the failure text of the first call is kept
    # and raised again, also when a normal form meets the same block
    ambiguous = OPContext(op_spec(2, 1, [EMPTY, w("a"), w("aa")]))
    missing = OPContext(op_spec(3, 1, [EMPTY]))
    for ctx, word in ((ambiguous, w("aa")), (missing, w("a"))):
        texts = [outcome(ctx.factor, word) for _ in range(3)]
        texts.append(outcome(op_normal_form, ctx, w("t") + word))
        assert texts == [outcome(oracle_factor, ctx, word)] * 4
        assert texts[0][0] is FactorizationFailure
