import argparse
import dataclasses
from collections import deque

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from monoidkit import cli
from monoidkit.words import (
    EMPTY,
    longest_side,
    parse_presentation,
    validate_special,
)
from monoidkit.rewriting import knuth_bendix, normalize, orient_system
from monoidkit.special import compute_delta, normalize_special
from monoidkit.cayley import (
    CayleyError,
    _ahu_code,
    LabeledDigraph,
    cayley_ball,
    cayley_complex_chain,
    check_rooted_tree,
    check_unique_entrance,
    condensation_matches_hasse,
    hasse_prefix_tree,
    contract_tree,
    relator_cells,
    rooted_trees_isomorphic,
    scc_condense,
)
from monoidkit.constructions import IncompleteSystemError
from monoidkit.homology import (
    chain_homology,
    exactness_check,
    smith_normal_form,
)

from test_homology import matmul


def w(s):
    return tuple(s)


def sp(text):
    return validate_special(parse_presentation(text))


BICYCLIC = sp("letters: a b\nrel: a b = 1")
INVOLUTION = sp("letters: a\nrel: a a = 1")
FREE = sp("letters: a b")


def solver_for(p):
    system = knuth_bendix(orient_system(p.base)).system
    return lambda word: normalize(system, word)


def ball_for(p, radius, margin=None):
    if margin is None:
        margin = max((len(r) for r in p.relators), default=0)
    return cayley_ball(solver_for(p), p.alphabet, radius, margin)


def test_ball_bicyclic_r2():
    g = ball_for(BICYCLIC, 2)
    labels = {"".join(l) for l in g.vertices}
    assert labels == {"", "a", "b", "aa", "ba", "bb"}


def test_ball_free_monoid_r1():
    g = ball_for(FREE, 1)
    assert len(g.vertices) == 3
    assert len(g.arcs) == 2


def test_ball_involution_r3():
    g = ball_for(INVOLUTION, 3)
    assert [list(l) for l in g.vertices] == [[], ["a"]]
    assert sorted(g.arcs) == [(0, 1, "a"), (1, 0, "a")]


def test_ball_vertex_count_bicyclic_r8():
    g = ball_for(BICYCLIC, 8)
    assert len(g.vertices) == 45  # normal forms b^i a^j with i + j <= 8


def test_arc_consistency():
    p = BICYCLIC
    solver = solver_for(p)
    g = ball_for(p, 4)
    for s, d, a in g.arcs:
        assert solver(g.vertices[s] + (a,)) == g.vertices[d]


def test_determinism():
    a = ball_for(BICYCLIC, 5)
    b = ball_for(BICYCLIC, 5)
    assert a.vertices == b.vertices and a.arcs == b.arcs
    assert a.to_json() == b.to_json()


def test_scc_free_monoid_all_singletons():
    g = ball_for(FREE, 3)
    rep = scc_condense(g)
    assert all(len(c) == 1 for c in rep.sccs)
    assert len(rep.dag_arcs) == len(g.arcs)


def test_scc_involution_single_component():
    g = ball_for(INVOLUTION, 3)
    rep = scc_condense(g)
    assert len(rep.sccs) == 1
    assert rep.dag_arcs == ()


def test_scc_bicyclic_levels():
    g = ball_for(BICYCLIC, 8)
    rep = scc_condense(g)
    # interior components are the b^i levels, a path of length 8
    interior = rep.interior_sccs()
    assert len(interior) == 8
    assert check_rooted_tree(rep).proven


def test_check_tree_free_monoid():
    rep = scc_condense(ball_for(FREE, 4))
    assert check_rooted_tree(rep).proven


def test_check_tree_too_small_unknown():
    rep = scc_condense(ball_for(INVOLUTION, 3))
    assert check_rooted_tree(rep).value == "unknown"


def test_grid_not_a_tree():
    # commutative monoid on two generators: normal forms a^i b^j form a grid
    p = parse_presentation("letters: a b\nrel: b a = a b")
    system = knuth_bendix(orient_system(p)).system
    g = cayley_ball(lambda word: normalize(system, word), p.alphabet, 4, 0)
    rep = scc_condense(g)
    assert check_rooted_tree(rep).refuted
    violations = check_unique_entrance(g, rep)
    assert any(v["kind"] == "entrance_count" for v in violations)
    # "ab" is entered from both "a" and "b"
    bad = [v for v in violations if v["count"] == 2]
    assert bad


def test_unique_entrance_bicyclic():
    ua = compute_delta(BICYCLIC)
    g = ball_for(BICYCLIC, 8)
    rep = scc_condense(g)
    assert check_unique_entrance(g, rep, ua) == []


def test_unique_entrance_free_monoid():
    g = ball_for(FREE, 3)
    rep = scc_condense(g)
    assert check_unique_entrance(g, rep) == []


def oracle_unique_entrance(g, rep):
    """The scan the grouped pass replaced: every arc once per component."""
    comp_of = rep._comp_of
    violations = []
    for ci in rep.interior_sccs():
        if ci == rep.root_scc:
            continue
        entering = [(s, d, a) for s, d, a in g.arcs
                    if comp_of[d] == ci and comp_of[s] != ci]
        if len(entering) != 1:
            violations.append({
                "kind": "entrance_count", "scc": ci,
                "count": len(entering),
                "arcs": [[s, d, a] for s, d, a in entering],
            })
    return violations


@st.composite
def digraphs(draw):
    """Vertex 0 as the root, arcs in any order (parallel arcs and loops
    included), depths up to the radius."""
    n = draw(st.integers(1, 10))
    radius = draw(st.integers(0, 3))
    vertex = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from("ab")),
                         max_size=30))
    depth = [0] + draw(st.lists(st.integers(0, radius), min_size=n - 1,
                                max_size=n - 1))
    return LabeledDigraph(FREE.alphabet, [()] * n, arcs, [True] * n, depth,
                          radius, 0)


def oracle_sccs(g):
    """The classes of mutual reachability, from a plain BFS out of every
    vertex, in order of their least vertex."""
    succ = [set() for _ in g.vertices]
    for s, d, _ in g.arcs:
        succ[s].add(d)
    reach = []
    for v in range(len(g.vertices)):
        seen, queue = {v}, deque([v])
        while queue:
            for u in succ[queue.popleft()] - seen:
                seen.add(u)
                queue.append(u)
        reach.append(seen)
    return sorted({tuple(sorted(u for u in reach[v] if v in reach[u]))
                   for v in range(len(g.vertices))})


def assert_sccs_match_reachability(g):
    rep = scc_condense(g)
    assert list(rep.sccs) == oracle_sccs(g)
    assert all(v in rep.sccs[ci] for v, ci in enumerate(rep._comp_of))


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_scc_matches_mutual_reachability(g):
    assert_sccs_match_reachability(g)


@pytest.mark.parametrize("relator", ["a a b", "a b a b", "a b c"])
@pytest.mark.parametrize("radius", [1, 3, 5])
def test_scc_matches_mutual_reachability_on_balls(relator, radius):
    letters = " ".join(sorted(set(relator.split())))
    p = sp(f"letters: {letters}\nrel: {relator} = 1")
    assert_sccs_match_reachability(ball_for(p, radius))


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_unique_entrance_matches_per_component_scan(g):
    rep = scc_condense(g)
    assert check_unique_entrance(g, rep) == oracle_unique_entrance(g, rep)


def interior_labels(g):
    return [label for label, inside in zip(g.vertices, g.interior) if inside]


def test_hasse_tree_bicyclic():
    ua = compute_delta(BICYCLIC)
    g = ball_for(BICYCLIC, 8)
    parts, arcs = hasse_prefix_tree(ua, g.alphabet, interior_labels(g))
    labels = ["".join(l) for l in parts]
    assert labels == ["", "b", "bb", "bbb", "bbbb", "bbbbb", "bbbbbb"]
    # a path: each vertex except the root has exactly one parent
    assert arcs == [(i, i + 1, "b") for i in range(len(parts) - 1)]


def test_condensation_matches_hasse_bicyclic():
    ua = compute_delta(BICYCLIC)
    g = ball_for(BICYCLIC, 8)
    rep = scc_condense(g)
    assert condensation_matches_hasse(ua, g, rep)


def test_hasse_tree_involution_single_node():
    ua = compute_delta(INVOLUTION)
    g = ball_for(INVOLUTION, 3)
    assert hasse_prefix_tree(ua, g.alphabet,
                             interior_labels(g)) == ([EMPTY], [])


def test_rooted_tree_isomorphism():
    path = [(0, 1), (1, 2)]
    star = [(0, 1), (0, 2)]
    assert rooted_trees_isomorphic(path, 0, [(5, 3), (3, 7)], 5)
    assert not rooted_trees_isomorphic(path, 0, star, 0)


def recursive_ahu_code(children, root):
    """The recursive encoder that _ahu_code replaced, kept as its oracle."""
    code = sorted(recursive_ahu_code(children, c)
                  for c in children.get(root, ()))
    return "(" + "".join(code) + ")"


@st.composite
def rooted_dags(draw):
    # vertex i > 0 hangs below one or two earlier vertices, so trees,
    # shared children and repeated arcs all occur; labels are shuffled
    n = draw(st.integers(1, 12))
    label = draw(st.permutations(range(n)))
    edges = [(label[p], label[i]) for i in range(1, n)
             for p in draw(st.lists(st.integers(0, i - 1), min_size=1,
                                    max_size=2))]
    children = {}
    for p, c in draw(st.permutations(edges)):
        children.setdefault(p, []).append(c)
    return children, label[0]


@settings(max_examples=200, deadline=None)
@given(rooted_dags())
def test_ahu_code_matches_recursive_encoder(case):
    children, root = case
    assert _ahu_code(children, root) == recursive_ahu_code(children, root)


def test_ahu_code_deep_path():
    # the recursive encoder raised RecursionError on paths of a few
    # thousand vertices
    n = 5000
    path = [(i, i + 1) for i in range(n - 1)]
    assert _ahu_code({p: [c] for p, c in path}, 0) == "(" * n + ")" * n
    relabeled = [(n - 1 - p, n - 1 - c) for p, c in reversed(path)]
    assert rooted_trees_isomorphic(path, 0, relabeled, n - 1)
    assert not rooted_trees_isomorphic(path, 0, path[:-1] + [(0, n)], 0)


def test_ahu_code_rejects_cycles():
    with pytest.raises(CayleyError):
        _ahu_code({0: [1], 1: [2], 2: [1]}, 0)


def test_chain_export_bicyclic():
    g = ball_for(BICYCLIC, 3)
    export = cayley_complex_chain(BICYCLIC, g)
    assert not matmul(export.boundary1, export.boundary2).entries
    # cells sit at vertices whose ab-loop closes inside the ball
    assert len(export.cell_base_vertices) > 0
    assert not matmul(export.augmentation, export.boundary1).entries


def test_chain_export_involution():
    g = ball_for(INVOLUTION, 3)
    export = cayley_complex_chain(INVOLUTION, g)
    assert not matmul(export.boundary1, export.boundary2).entries
    assert len(export.cell_base_vertices) == 2
    assert export.skipped == []


def test_chain_export_free_monoid_no_cells():
    g = ball_for(FREE, 2)
    export = cayley_complex_chain(FREE, g)
    assert export.boundary2.cols == 0


def test_cayley_ball_rejects_negative_radius_or_margin():
    # the search stops only at depth == radius
    z5 = sp("letters: a\nrel: a a a a a = 1")
    solver = lambda word: word[:len(word) % 5]
    assert len(cayley_ball(solver, z5.alphabet, 9, 0).vertices) == 5
    for radius, margin in ((-1, 0), (2, -1)):
        with pytest.raises(CayleyError):
            cayley_ball(solver, z5.alphabet, radius, margin)


def test_chain_export_rejects_multi_relator():
    p = sp("letters: a b\nrel: a b = 1\nrel: b a = 1")
    g = cayley_ball(lambda word: word, p.alphabet, 1, 0)
    with pytest.raises(CayleyError):
        cayley_complex_chain(p, g)


def test_exactness_of_interior_complex_bicyclic():
    # restrict the complex to interior vertices so every cell and edge is
    # fully explored, then the augmented complex is exact in the middle
    g = ball_for(BICYCLIC, 6)
    export = cayley_complex_chain(BICYCLIC, g)
    b1, b2 = export.boundary1, export.boundary2
    rep = exactness_check(chain_homology([b1, b2]), b1, export.augmentation)
    assert rep["total_defect"] == 0
    assert rep["left_kernel_dim"] == 0  # relator primitive: complex contractible


def test_exactness_of_complex_involution():
    g = ball_for(INVOLUTION, 3)
    export = cayley_complex_chain(INVOLUTION, g)
    b1, b2 = export.boundary1, export.boundary2
    rep = exactness_check(chain_homology([b1, b2]), b1, export.augmentation)
    assert rep["total_defect"] == 0
    assert rep["left_kernel_dim"] == 1  # relator aa is a proper power


def test_dot_output():
    g = ball_for(INVOLUTION, 2)
    dot = g.to_dot()
    assert dot.startswith("digraph") and "v0 -> v1" in dot


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.text("ab", max_size=4)] * 2),
                min_size=1, max_size=2),
       st.integers(0, 5))
# completion adds a rule whose lhs is longer than every relation side
@example([("baa", "aa"), ("bba", "bbb")], 5)
@example([("abb", "a"), ("bab", "aba")], 5)
def test_cli_ball_rewrites_from_the_last_letter(relations, radius):
    """The CLI's Cayley ball, whose solver starts rewriting one longest lhs
    before the last letter, is the ball whose solver rewrites each word
    from its start."""
    p = parse_presentation("letters: a b\n" + "".join(
        f"rel: {' '.join(u) or '1'} = {' '.join(v) or '1'}\n"
        for u, v in relations))
    result = knuth_bendix(orient_system(p), 2000)
    assume(result.completed)
    want = cayley_ball(lambda word: normalize(result.system, word),
                       p.alphabet, radius, longest_side(p))
    got = cli._ball_from_args(argparse.Namespace(budget=2000, radius=radius),
                              p)
    assert got == want and got.ids == want.ids


@st.composite
def one_relator_cases(draw):
    """(sp, ball): <letters | r = 1> with r of length 1-6 over a, b and c
    (proper powers included), or the free monoid on a and b, with the CLI's
    Cayley ball of radius 0-6, whose margin |r| leaves the loops at its
    deepest vertices open."""
    relator = draw(st.text("abc", min_size=0, max_size=6))
    text = (f"letters: {' '.join(sorted(set(relator)))}\n"
            f"rel: {' '.join(relator)} = 1\n" if relator else "letters: a b\n")
    p = sp(text)
    args = argparse.Namespace(budget=2000, radius=draw(st.integers(0, 6)))
    try:
        ball = cli._ball_from_args(args, p.base)
    except IncompleteSystemError:
        assume(False)   # e.g. abba: no finite shortlex system
    return p, ball


@settings(max_examples=150, deadline=None)
@given(one_relator_cases())
@example((BICYCLIC, ball_for(BICYCLIC, 4)))
@example((INVOLUTION, ball_for(INVOLUTION, 3)))
@example((sp("letters: a b\nrel: a b a b = 1"), ball_for(
    sp("letters: a b\nrel: a b a b = 1"), 5)))
@example((FREE, ball_for(FREE, 0)))
def test_contracted_tree_keeps_homology(case):
    """Contracting the BFS tree of a one-relator Cayley complex keeps every
    Betti number, torsion coefficient and exactness defect of the full maps
    with the all-ones augmentation, and the augmentation's cokernel."""
    p, ball = case
    cells, skipped = relator_cells(p, ball)
    export = cayley_complex_chain(p, ball)
    assert export.cell_base_vertices == [v for v, _ in cells]
    assert export.skipped == skipped
    b1, b2, aug = export.boundary1, export.boundary2, export.augmentation
    e, d1, d2 = contract_tree(ball, cells)
    n_free = len(ball.arcs) - len(ball.vertices) + 1
    assert (d1.rows, d1.cols, d2.rows, d2.cols) == (1, n_free, n_free,
                                                    len(cells))
    assert not d1.entries
    assert smith_normal_form(e) == smith_normal_form(aug) == (1,)
    assert chain_homology([d1, d2]) == chain_homology([b1, b2])
    assert (exactness_check(chain_homology([d1, d2]), d1, e)
            == exactness_check(chain_homology([b1, b2]), b1, aug))


def test_contract_tree_needs_a_bfs_tree_and_a_complex():
    g = ball_for(BICYCLIC, 4)
    cells = relator_cells(BICYCLIC, g)[0]
    # an arc into vertex 1 from its own level, listed before its tree arc
    skips = dataclasses.replace(g, arcs=[(1, 1, "b")] + g.arcs)
    with pytest.raises(CayleyError):
        contract_tree(skips, cells)
    orphan = dataclasses.replace(g, vertices=g.vertices + [("x",)],
                                 depth=g.depth + [1])
    with pytest.raises(CayleyError):
        contract_tree(orphan, cells)

