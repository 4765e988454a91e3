"""Monoid constructions and their Bass-Serre geometry.

Free products, amalgamated free products (pushouts), Otto-Pride extensions
⟨M,t | at = tφ(a)⟩ and HNN extensions are built as presentations.  On top
of a bounded element ball, quotient classes (weak orbits under a
submonoid), tensor classes of pairs, Bass-Serre trees and forests, and
derivation/β-section certificates are computed.  Everything is
ball-relative: classes distinct here may merge at a larger radius, so all
certificates carry the radius they were computed at.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import chain, repeat

from .words import (
    EMPTY,
    Alphabet,
    Columns,
    Presentation,
    UnionFind,
    Word,
    WordError,
    format_word,
    longest_side,
)
from .rewriting import (
    DEFAULT_BUDGET,
    equal_words,
    knuth_bendix,
    normalize,
    orient_system,
)
from .cayley import LabeledDigraph, cayley_ball, dot_quoted
from .homology import SparseIntMatrix, rank_exact


class ConstructionError(WordError):
    pass


class FactorizationFailure(ConstructionError):
    pass


class IncompleteSystemError(ConstructionError):
    pass


# ---------------------------------------------------------------------------
# presentation builders


def _disjoint_union(p1: Presentation, p2: Presentation):
    """Union of two presentations with colliding letters renamed by a
    numeric suffix.  Returns the merged presentation and both letter maps."""
    common = set(p1.alphabet.letters) & set(p2.alphabet.letters)
    map1 = {a: (a + "1" if a in common else a) for a in p1.alphabet.letters}
    map2 = {a: (a + "2" if a in common else a) for a in p2.alphabet.letters}
    letters = tuple(map1[a] for a in p1.alphabet.letters) + tuple(
        map2[a] for a in p2.alphabet.letters)
    if len(set(letters)) != len(letters):
        raise ConstructionError("letter renaming failed to disambiguate")

    def push(m, rels):
        return tuple(
            (tuple(m[a] for a in lhs), tuple(m[a] for a in rhs))
            for lhs, rhs in rels)

    relations = push(map1, p1.relations) + push(map2, p2.relations)
    return Presentation(Alphabet(letters), relations), map1, map2


def free_product(p1: Presentation, p2: Presentation) -> Presentation:
    merged, _, _ = _disjoint_union(p1, p2)
    return merged


@dataclass
class AmalgamSpec:
    m1: Presentation
    m2: Presentation
    w: Presentation
    f1: dict            # w-letter -> word over m1
    f2: dict            # w-letter -> word over m2
    diagnostics: list = field(default_factory=list)


def amalgam_presentation(spec: AmalgamSpec,
                         budget_limit=DEFAULT_BUDGET) -> Presentation:
    """Pushout presentation: both factors plus f1(x) = f2(x) per base
    generator.  The maps are checked against the base relations with the
    congruence oracle; Unknown outcomes are flagged, not fatal."""
    for name, f, m in (("f1", spec.f1, spec.m1), ("f2", spec.f2, spec.m2)):
        for x in spec.w.alphabet.letters:
            if x not in f:
                raise ConstructionError(f"{name} has no image of {x!r}")
            m.alphabet.check_word(f[x])
    merged, map1, map2 = _disjoint_union(spec.m1, spec.m2)

    def image(f, m, x):
        return tuple(m[a] for a in f[x])

    glue = tuple(
        (image(spec.f1, map1, x), image(spec.f2, map2, x))
        for x in spec.w.alphabet.letters)
    for lhs, rhs in spec.w.relations:
        for f, target in ((spec.f1, spec.m1), (spec.f2, spec.m2)):
            u = sum((f[a] for a in lhs), EMPTY)
            v = sum((f[a] for a in rhs), EMPTY)
            verdict = equal_words(target, u, v, budget_limit)
            if not verdict.proven:
                spec.diagnostics.append({
                    "kind": "map_relation_unverified",
                    "relation": [format_word(lhs), format_word(rhs)],
                    "verdict": verdict.value,
                })
    return Presentation(merged.alphabet, merged.relations + glue)


@dataclass
class OttoPrideSpec:
    m: Presentation
    a_gens: tuple       # words over m generating the submonoid A
    phi: dict           # a_gen word -> image word over m
    free_basis: tuple = None   # words C with 1 in C, a free right A-set basis
    stable_letter: str = "t"


def _phi_images(a_gens, phi) -> tuple:
    """phi(g) for each generator g of A, in order."""
    for g in a_gens:
        if g not in phi:
            raise ConstructionError(
                f"a_gens word {format_word(g)} has no phi image")
    return tuple(tuple(phi[g]) for g in a_gens)


def otto_pride_presentation(spec: OttoPrideSpec) -> Presentation:
    t = spec.stable_letter
    if t in spec.m.alphabet:
        raise ConstructionError(f"stable letter {t!r} collides with M")
    letters = spec.m.alphabet.letters + (t,)
    extra = tuple(
        (tuple(g) + (t,), (t,) + image)
        for g, image in zip(spec.a_gens, _phi_images(spec.a_gens, spec.phi)))
    return Presentation(Alphabet(letters), spec.m.relations + extra)


def hnn_presentation(m: Presentation, a_gens, b_gens, phi,
                     stable_letter="t") -> Presentation:
    """M plus an invertible t with g t = t phi(g) for each generator g of A;
    b_gens must list the images phi(a_gens) in order."""
    t = stable_letter
    ti = t + "-"
    if t in m.alphabet or ti in m.alphabet:
        raise ConstructionError("stable letters collide with M")
    images = _phi_images(a_gens, phi)
    if tuple(tuple(b) for b in b_gens) != images:
        raise ConstructionError(
            f"b_gens {[format_word(b) for b in b_gens]} are not the phi "
            f"images {[format_word(b) for b in images]} of a_gens")
    letters = m.alphabet.letters + (t, ti)
    extra = [((t, ti), EMPTY), ((ti, t), EMPTY)]
    for g, image in zip(a_gens, images):
        extra.append((tuple(g) + (t,), (t,) + image))
    return Presentation(Alphabet(letters), m.relations + tuple(extra))


# ---------------------------------------------------------------------------
# Otto-Pride tensor normal forms


def completed_solver(p: Presentation, budget_limit=DEFAULT_BUDGET):
    """Normal-form function from a Knuth-Bendix completion of p, and the
    completed system.  On a complete system every word has exactly one
    normal form, so the normal form is a function of the word: the solver
    keeps each one it computes, and the memo is exact.  It lives as long
    as the solver, that is as long as the context that holds it."""
    result = knuth_bendix(orient_system(p), budget_limit)
    if not result.completed:
        raise IncompleteSystemError(
            "completion did not finish within budget")
    system = result.system
    return cache(lambda w: normalize(system, w)), system


@dataclass(frozen=True)
class OPNormalForm:
    cs: tuple       # basis words c0..ck
    trail: Word     # canonical form of the trailing A-element

    def to_word(self, t="t") -> Word:
        out = tuple(self.cs[0])
        for c in self.cs[1:]:
            out = out + (t,) + tuple(c)
        return out + self.trail


class OPContext:
    """Completed word problem for M plus the basis factorization m = c.a."""

    def __init__(self, spec: OttoPrideSpec, budget_limit=DEFAULT_BUDGET):
        if spec.free_basis is None:
            raise ConstructionError("normal forms need a free basis C")
        if EMPTY not in tuple(tuple(c) for c in spec.free_basis):
            raise ConstructionError("the free basis must contain 1")
        self.t = spec.stable_letter
        self.nf_m, _ = completed_solver(spec.m, budget_limit)
        self.basis = tuple(tuple(c) for c in spec.free_basis)
        self.a_gens = tuple(tuple(g) for g in spec.a_gens)
        self.phi = dict(zip(self.a_gens,
                            _phi_images(self.a_gens, spec.phi)))
        self._longest_gen = max((len(g) for g in self.a_gens), default=0)
        self._factor_tables = {}
        self._factor_memo = cache(self._factor_entry)
        # phi(g1 ... gk) = phi(g1) ... phi(gk), per generator sequence
        self.carry = cache(lambda gens: sum(map(self.phi.get, gens), EMPTY))

    def a_elements(self, max_len: int):
        """Normal forms of A-elements up to max_len with one generator
        decomposition each (BFS, so shortest product first)."""
        seen = {EMPTY: ()}
        frontier = [EMPTY]
        while frontier:
            nxt = []
            for w in frontier:
                for g in self.a_gens:
                    prod = self.nf_m(w + g)
                    if len(prod) <= max_len and prod not in seen:
                        seen[prod] = seen[w] + (g,)
                        nxt.append(prod)
            frontier = nxt
        return seen

    def _factor_table(self, max_len: int):
        """The normal form of c.a, for every basis word c and pooled
        A-element a, mapped to its factorization: the first (c, a, gens) in
        basis-then-pool order, or, when several distinct (c, a) give it,
        the text that reports them all.  Built once per max_len."""
        if max_len in self._factor_tables:
            return self._factor_tables[max_len]
        found = {}
        pool = self.a_elements(max_len)
        for c in self.basis:
            for a_nf, gens in pool.items():
                found.setdefault(self.nf_m(c + a_nf), []).append(
                    (c, a_nf, gens))
        table = {
            target: (
                f"ambiguous basis factorization of {format_word(target)}: "
                f"{[(format_word(c), format_word(a)) for c, a, _ in fs]}"
                if len({(c, a) for c, a, _ in fs}) > 1 else fs[0])
            for target, fs in found.items()}
        self._factor_tables[max_len] = table
        return table

    def _factor_entry(self, m_word: Word):
        """factor's answer for m_word: its factorization, or the text of
        the failure.  It depends only on nf_m(m_word), so factor keeps it
        per word."""
        target = self.nf_m(m_word)
        entry = self._factor_table(
            len(target) + self._longest_gen).get(target)
        return (f"no basis factorization of {format_word(target)}"
                if entry is None else entry)

    def factor(self, m_word: Word):
        """The factorization nf(m) = c.a with c in the basis and a in A.
        Raises FactorizationFailure if no or several factorizations exist
        inside the search bound (the basis is then not free over A)."""
        entry = self._factor_memo(m_word)
        if isinstance(entry, str):
            raise FactorizationFailure(entry)
        return entry


def op_normal_form(ctx: OPContext, w: Word) -> OPNormalForm:
    """The unique form c0 t c1 ... t ck a: A-factors are pushed right
    through t using at = t phi(a), and each M-block is split as c.a over
    the free basis.  Each block is one factor call; the carry it pushes
    through the next t is phi of its A-factor's generators."""
    cs, carry, start = [], EMPTY, 0
    for _ in range(w.count(ctx.t)):
        end = w.index(ctx.t, start)
        c, _, gens = ctx.factor(carry + w[start:end])
        cs.append(c)
        carry, start = ctx.carry(gens), end + 1
    c, a_nf, _ = ctx.factor(carry + w[start:])
    return OPNormalForm((*cs, c), a_nf)


def op_multiply(ctx: OPContext, nf1: OPNormalForm,
                nf2: OPNormalForm) -> OPNormalForm:
    """Tensor multiplication: the two words joined, so that the last block
    of nf1 (with its trail) absorbs the first block of nf2, renormalized."""
    return op_normal_form(ctx, nf1.to_word(ctx.t) + nf2.to_word(ctx.t))


# ---------------------------------------------------------------------------
# quotient balls (weak orbits) and tensor pair balls


class _Pairs(Sequence):
    """The pairs of a ball's n vertices V, pair i * n + j being
    (V[i // n], V[i % n]), each read when asked for; it equals any list of
    the same pairs."""

    def __init__(self, vertices):
        self.vertices = vertices

    def __len__(self):
        return len(self.vertices) ** 2

    def __getitem__(self, i):
        n = len(self.vertices)
        return self.vertices[i // n], self.vertices[i % n]

    def __eq__(self, other):
        return list(self) == other


@dataclass
class QuotientBall:
    elements: Sequence      # element id -> normal-form word, or pair of them
    class_of: list          # element id -> class id
    classes: list           # class id -> sorted member element ids
    partial: list           # class id -> bool
    truncated: bool = False
    pair: bool = False      # whether the elements are pairs of words
    # the Cayley ball the elements come from, whose id map numbers them
    ball: LabeledDigraph = field(default=None, repr=False, compare=False)

    @property
    def pairs(self):
        """The elements of a pair ball."""
        return self.elements

    def lookup(self, element):
        """Class id of an element (a normal-form word, or a pair of them in
        a pair ball), or None if outside the ball.  With n vertices in the
        Cayley ball, the pair (x, y) has id id(x) * n + id(y)."""
        ids = self.ball.ids
        i, j = map(ids.get, element) if self.pair else (0, ids.get(element))
        if i is None or j is None:
            return None
        return self.class_of[i * len(ids) + j]

    def rep(self, class_id):
        return self.elements[self.classes[class_id][0]]

    def rep_names(self, class_ids, before, after):
        """The representatives (least members) of the given classes as text
        between before and after: a word, or a pair x,y (element i * n + j
        of a pair ball), from one name per vertex of the n-vertex ball."""
        names = list(map(format_word, self.ball.vertices))
        n = len(names)
        xs = [before + x + "," for x in names] if self.pair else [before]
        ys = [y + after for y in names]
        return [xs[c[0] // n] + ys[c[0] % n]
                for c in map(self.classes.__getitem__, class_ids)]


def _quotient(ball, elements, k, joins, budget_limit, pair=False):
    """Classes of elements under their generator moves: k per element, in
    order, each one budget step, so the first min(len(elements) * k,
    budget) run; joins(m) gives the id pairs the first m moves join (a
    move that leaves the ball joins none).  When the budget runs out,
    every class is partial.  A class whose every member sits within the
    Cayley ball's margin of its boundary had little room to merge, so only
    classes seen within radius - margin are settled at this radius."""
    total = len(elements) * k
    run = min(total, max(budget_limit, 0))
    uf = UnionFind(len(elements))
    uf.union_all(joins(run))
    class_of, classes = uf.classes()
    partial = [True] * len(classes)
    if run == total:    # the ball lists its elements by depth
        d, depth, n = ball.radius - ball.margin, ball.depth, len(ball.depth)
        settled = range(bisect_right(depth, d)) if not pair else (
            chain.from_iterable(    # (x_i, y_j) of depth sum <= d
                range(i * n, i * n + bisect_right(depth, d - depth[i]))
                for i in range(bisect_right(depth, d))))
        for c in set(map(class_of.__getitem__, settled)):
            partial[c] = False
    return QuotientBall(elements, class_of, classes, partial, run < total,
                        pair, ball)


def quotient_ball(solver, ball: LabeledDigraph, k_gens,
                  budget_limit=DEFAULT_BUDGET) -> QuotientBall:
    """Weak orbits of right multiplication by the submonoid generated by
    k_gens, restricted to the Cayley ball built with solver.  Classes whose
    members all lie within the ball's margin of its boundary are partial:
    their membership and distinctness are least settled at this radius."""
    elements, ids = ball.vertices, ball.ids
    k_gens = tuple(tuple(g) for g in k_gens)
    k = len(k_gens)

    def joins(run):
        for m in range(run):
            i, g = divmod(m, k)
            j = ids.get(solver(elements[i] + k_gens[g]))
            if j is not None:
                yield i, j

    return _quotient(ball, list(elements), k, joins, budget_limit)


def pair_quotient_ball(solver, ball: LabeledDigraph, k_gens,
                       budget_limit=DEFAULT_BUDGET,
                       twist=None) -> QuotientBall:
    """Tensor classes of pairs from the Cayley ball (built with solver)
    under the transfer moves (x.g, y) ~ (x, twist(g).y) for each generator
    g of the middle submonoid; twist defaults to the identity and carries
    the homomorphism when the two actions differ.  The depth of a pair is
    the sum of its element depths."""
    elements, depth, ids = ball.vertices, ball.depth, ball.ids
    n = len(elements)
    k_gens = tuple(tuple(g) for g in k_gens)
    k = len(k_gens)
    if twist is None:
        twist = {g: g for g in k_gens}
    # each move depends on one element only: x.g on x, twist(g).y on y;
    # the pair (x, y) has id ids[x] * n + ids[y]
    right = [[ids.get(solver(x + g)) for g in k_gens] for x in elements]
    left = [[ids.get(solver(twist[g] + y)) for g in k_gens]
            for y in elements]

    def joins(run):
        # move g of pair p runs iff p * k + g < run, so for the pairs below
        # stop; for (x, y) = i * n + j it joins (x.g, y) = xg * n + j with
        # (x, twist(g).y) = i * n + gy
        xs, ys = [], []
        for g in range(k):
            stop = (run - g + k - 1) // k
            js = [j for j in range(n) if left[j][g] is not None]
            gys = [left[j][g] for j in js]
            for i in range(min(n, -(-stop // n))):
                xg = right[i][g]
                if xg is not None:
                    width = bisect_left(js, stop - i * n)
                    xs.extend(map((xg * n).__add__, js[:width]))
                    ys.extend(map((i * n).__add__, gys[:width]))
        return zip(xs, ys)

    return _quotient(ball, _Pairs(elements), k, joins, budget_limit,
                     pair=True)


# ---------------------------------------------------------------------------
# Bass-Serre balls


@dataclass
class BassSerreGraph:
    """A Bass-Serre graph as columns over its balls.  Its vertices are the
    classes of the vertex balls, side after side, interior when settled;
    edge e is class edge_class[e] of edge_ball, from tail[e] to head[e]."""
    kind: str
    radius: int
    vertex_balls: dict      # side -> QuotientBall, in vertex order
    vertex_interior: list   # vertex -> bool
    edge_side: str
    edge_ball: QuotientBall
    edge_class: list        # edge -> class id in edge_ball
    tail: list              # edge -> vertex id
    head: list
    edge_interior: list     # edge -> bool
    diagnostics: list = field(default_factory=list)

    def vertex(self, v):
        """The side and the class id of vertex v."""
        for side, qb in self.vertex_balls.items():
            if v < len(qb.classes):
                return side, v
            v -= len(qb.classes)

    @property
    def truncated(self):    # whether the budget ran out in one of its balls
        return any(qb.truncated
                   for qb in (self.edge_ball, *self.vertex_balls.values()))

    def interior_vertex_ids(self):
        return [i for i, ok in enumerate(self.vertex_interior) if ok]

    def interior_edge_ids(self):
        inner = self.vertex_interior
        return [e for e, ok in enumerate(self.edge_interior)
                if ok and inner[self.tail[e]] and inner[self.head[e]]]

    def boundary_matrix(self) -> SparseIntMatrix:
        """Boundary ZE -> ZV of the interior subgraph: edge -> head - tail."""
        vmap = {v: i for i, v in enumerate(self.interior_vertex_ids())}
        eids = self.interior_edge_ids()
        m = {}              # a loop's -1 lands on its +1: a zero column
        for col, e in enumerate(eids):
            m[vmap[self.head[e]], col] = 1
            tail = vmap[self.tail[e]], col
            m[tail] = m.get(tail, 0) - 1
        return SparseIntMatrix(len(vmap), len(eids), m)

    def forest_by_search(self) -> bool:
        """Undirected acyclicity of the interior subgraph via union-find."""
        uf = UnionFind(len(self.vertex_interior))
        for e in self.interior_edge_ids():
            if uf.find(self.tail[e]) == uf.find(self.head[e]):
                return False
            uf.union(self.tail[e], self.head[e])
        return True

    def forest_by_rank(self) -> bool:
        """Exact integer certificate: the boundary map is injective iff its
        rank equals the number of interior edges."""
        m = self.boundary_matrix()
        return rank_exact(m) == m.cols

    def vertex_labels(self):
        """The side and the label, [representative]side, of each vertex."""
        sides, labels = [], []
        for side, qb in self.vertex_balls.items():
            sides += repeat(side, len(qb.classes))
            labels += qb.rep_names(range(len(qb.classes)), "[", "]" + side)
        return sides, labels

    def to_json(self):
        sides, labels = self.vertex_labels()
        return {
            "kind": self.kind,
            "radius": self.radius,
            "vertices": Columns(
                id=list(range(len(sides))), side=sides, label=labels,
                interior=self.vertex_interior),
            "edges": Columns(
                tail=self.tail, head=self.head, interior=self.edge_interior,
                label=self.edge_ball.rep_names(
                    self.edge_class, "[", "]" + self.edge_side)),
            "diagnostics": self.diagnostics,
        }

    def to_dot(self):
        lines = [f"graph bass_serre {{"]
        labels = self.vertex_labels()[1]
        for i, (label, ok) in enumerate(zip(labels, self.vertex_interior)):
            style = "" if ok else ", style=dashed"
            lines.append(f'  v{i} [label={dot_quoted(label)}{style}];')
        for tail, head, ok in zip(self.tail, self.head, self.edge_interior):
            style = "" if ok else " [style=dashed]"
            lines.append(f"  v{tail} -- v{head}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _bass_serre(kind, radius, vertex_balls, edge_side, edge_ball,
                ends=None):
    """The Bass-Serre graph whose vertices are the classes of the vertex
    balls (side -> ball, in order) and whose edges are the classes of
    edge_ball.  All the balls are built on one Cayley ball, so they number
    their elements by its id map.
    ends(edge_ball) gives, for the edge ball's elements, the ids of their
    tail elements in the first vertex ball and of their head elements in
    the last, None outside the ball; without ends, each edge element is
    its own tail and head.

    The incidence rule, per edge class: it is reported unresolved when its
    members' in-ball ends name more than one tail or more than one head;
    it is left out when no member has a tail, or none a head, in the ball;
    it is interior only if the class is settled and every member has both
    ends in the ball, the same tail and the same head.  Each end of an edge
    is the first member's end that lies in the ball."""
    balls = list(vertex_balls.values())
    tail_ball, head_ball = balls[0], balls[-1]
    # the head ball's vertices come after those of every other side
    head_base = sum(len(qb.classes) for qb in balls[:-1])
    tails, heads = (ends(edge_ball) if ends
                    else (range(len(edge_ball.elements)),) * 2)
    tail_of = [None if x is None else tail_ball.class_of[x] for x in tails]
    head_of = [None if x is None else head_base + head_ball.class_of[x]
               for x in heads]
    edge_class, tail, head, interior = [], [], [], []
    diagnostics = []
    unsettled = edge_ball.partial
    for ci, members in enumerate(edge_ball.classes):
        t, h = tail_of[members[0]], head_of[members[0]]
        inside = not unsettled[ci]
        if len(members) > 1:    # one member has one tail and one head
            ts = set(map(tail_of.__getitem__, members))
            hs = set(map(head_of.__getitem__, members))
            leaves = None in ts or None in hs
            ts.discard(None)
            hs.discard(None)
            if len(ts) > 1 or len(hs) > 1:
                diagnostics.append({
                    "kind": "edge_incidence_unresolved", "edge_class": ci})
            if not ts or not hs:
                continue    # the whole edge leaves the ball
            if t is None:
                t = next(tail_of[i] for i in members if tail_of[i] is not None)
            if h is None:
                h = next(head_of[i] for i in members if head_of[i] is not None)
            inside = inside and not (leaves or len(ts) > 1 or len(hs) > 1)
        elif t is None or h is None:
            continue
        edge_class.append(ci)
        tail.append(t)
        head.append(h)
        interior.append(inside)
    vertex_interior = [not p for qb in balls for p in qb.partial]
    return BassSerreGraph(kind, radius, vertex_balls, vertex_interior,
                          edge_side, edge_ball, edge_class, tail, head,
                          interior, diagnostics)


def _balls(build, ctx, radius, budget_limit, margin):
    """build (quotient_ball or pair_quotient_ball) on the one Cayley ball of
    ctx's presentation at radius and margin, as a function of the
    generators; the margin defaults to the longest relation side."""
    margin = longest_side(ctx.presentation) if margin is None else margin
    ball = cayley_ball(ctx.solver, ctx.presentation.alphabet, radius, margin)
    return lambda gens, **twist: build(
        ctx.solver, ball, gens, budget_limit, **twist)


@dataclass
class AmalgamContext:
    presentation: Presentation
    solver: object
    m1_letters: tuple
    m2_letters: tuple
    w_images: tuple         # generators of the image of W inside L


def amalgam_context(spec: AmalgamSpec,
                    budget_limit=DEFAULT_BUDGET) -> AmalgamContext:
    pres = amalgam_presentation(spec, budget_limit)
    _, map1, map2 = _disjoint_union(spec.m1, spec.m2)
    solver, _ = completed_solver(pres, budget_limit)
    w_images = tuple(
        tuple(map1[a] for a in spec.f1[x])
        for x in spec.w.alphabet.letters)
    return AmalgamContext(pres, solver, tuple(map1.values()),
                          tuple(map2.values()), w_images)


def bass_serre_ball_amalgam(ctx: AmalgamContext, radius: int,
                            budget_limit=DEFAULT_BUDGET,
                            margin: int = None) -> BassSerreGraph:
    """Vertices are the classes of L/M1 and L/M2, edges the classes of
    L/W; the edge of [x]_W joins [x]_{M1} with [x]_{M2}."""
    ball = _balls(quotient_ball, ctx, radius, budget_limit, margin)
    return _bass_serre(
        "amalgam", radius,
        {"M1": ball([(a,) for a in ctx.m1_letters]),
         "M2": ball([(a,) for a in ctx.m2_letters])},
        "W", ball(ctx.w_images))


@dataclass
class OPBallContext:
    spec: OttoPrideSpec
    presentation: Presentation
    solver: object
    a_images: tuple


def op_context(spec: OttoPrideSpec,
               budget_limit=DEFAULT_BUDGET) -> OPBallContext:
    pres = otto_pride_presentation(spec)
    solver, _ = completed_solver(pres, budget_limit)
    return OPBallContext(spec, pres, solver,
                         tuple(tuple(g) for g in spec.a_gens))


def bass_serre_ball_op(ctx: OPBallContext, radius: int,
                       budget_limit=DEFAULT_BUDGET,
                       margin: int = None) -> BassSerreGraph:
    """Vertices are the classes of L/M, edges the classes of L/A; the edge
    of [x]_A runs from [x]_M to [xt]_M."""
    ball = _balls(quotient_ball, ctx, radius, budget_limit, margin)
    t = (ctx.spec.stable_letter,)

    def ends(edge_ball):
        ids = edge_ball.ball.ids
        return (range(len(edge_ball.elements)),
                [ids.get(ctx.solver(x + t)) for x in edge_ball.elements])

    return _bass_serre(
        "otto_pride", radius,
        {"M": ball([(a,) for a in ctx.spec.m.alphabet.letters])},
        "A", ball(ctx.a_images), ends)


def bass_serre_forest_bi(ctx, radius: int, budget_limit=DEFAULT_BUDGET,
                         margin: int = None):
    """Two-sided forest on tensor classes of pairs.

    AmalgamContext: vertices are pair classes over M1 and over M2, the edge
    of [x,y]_W joins them.  OPBallContext: vertices are pair classes over M
    and the edge of [x,y]_A runs from [x,ty]_M to [xt,y]_M."""
    ball = _balls(pair_quotient_ball, ctx, radius, budget_limit, margin)
    if isinstance(ctx, AmalgamContext):
        return _bass_serre(
            "amalgam_forest", radius,
            {"M1": ball([(a,) for a in ctx.m1_letters]),
             "M2": ball([(a,) for a in ctx.m2_letters])},
            "W", ball(ctx.w_images))
    t = (ctx.spec.stable_letter,)

    def ends(edge_ball):
        # the pair (x_i, y_j) has id i * n + j: its tail (x_i, t.y_j) has id
        # i * n + id(t.y_j) and its head (x_i.t, y_j) has id(x_i.t) * n + j
        elements, ids = edge_ball.ball.vertices, edge_ball.ball.ids
        n = len(elements)
        t_y = [ids.get(ctx.solver(t + y)) for y in elements]
        x_t = [ids.get(ctx.solver(x + t)) for x in elements]
        return ([None if b is None else i * n + b
                 for i in range(n) for b in t_y],
                list(chain.from_iterable(
                    repeat(None, n) if a is None else range(a * n, a * n + n)
                    for a in x_t)))

    return _bass_serre(
        "otto_pride_forest", radius,
        {"M": ball([(a,) for a in ctx.spec.m.alphabet.letters])},
        "A", ball(ctx.a_images, twist={
            tuple(g): tuple(v) for g, v in ctx.spec.phi.items()}),
        ends)


# ---------------------------------------------------------------------------
# derivations and the beta section


@dataclass
class DerivationSpec:
    images: dict            # letter -> list of (coeff, payload)
    resolver: object        # payload -> class id (or None)
    solver: object          # word normal form in L
    act_left: object        # (word, payload) -> payload
    act_right: object = None  # (payload, word) -> payload (bimodule only)


def _ze_add(acc, cid, coeff):
    if cid is None:
        return False
    acc[cid] = acc.get(cid, 0) + coeff
    if acc[cid] == 0:
        del acc[cid]
    return True


@dataclass
class DerivationValue:
    ze: dict                # class id -> integer coefficient
    unresolved: list

    @property
    def resolved(self):
        return not self.unresolved


def derivation_eval(d: DerivationSpec, word: Word) -> DerivationValue:
    """The derivation rule unfolded along the letters of word.

    one-sided: d(ua) = d(u) + u.d(a); bimodule: d(ua) = d(u).a + u.d(a).
    So the letter a at position i adds the terms of d(a), each moved to
    word[:i].d(a).word[i+1:], and the payloads are resolved to ball class
    ids at the end.  Terms merge, and keep their places, as in the fold
    that moves every payload so far right by each next letter: the right
    action by a word is injective and applies to every payload alike, so
    two terms meet in the fold exactly when their final payloads are
    equal."""
    acc = {}
    unresolved = []
    payloads = {}           # unresolved-by-design storage: payload -> coeff
    for i, letter in enumerate(word):
        for coeff, payload in d.images[letter]:
            moved = d.act_left(word[:i], payload)
            if d.act_right is not None:
                moved = d.act_right(moved, word[i + 1:])
            payloads[moved] = payloads.get(moved, 0) + coeff
    for payload, coeff in payloads.items():
        if coeff == 0:
            continue
        cid = d.resolver(payload)
        if not _ze_add(acc, cid, coeff):
            unresolved.append(payload)
    return DerivationValue(acc, unresolved)


def _left_derivation(ctx, images, edge_ball) -> DerivationSpec:
    """The one-sided derivation with the given letter images, its values
    resolved to the classes of edge_ball."""
    return DerivationSpec(
        images, lambda payload: edge_ball.lookup(ctx.solver(payload)),
        ctx.solver, act_left=lambda prefix, payload: prefix + payload)


def amalgam_derivation(ctx: AmalgamContext,
                       edge_ball: QuotientBall) -> DerivationSpec:
    """d vanishes on M1 and sends an M2 generator m2 to [1]_W - [m2]_W."""
    images = {a: [] for a in ctx.m1_letters}
    for a in ctx.m2_letters:
        images[a] = [(1, EMPTY), (-1, (a,))]
    return _left_derivation(ctx, images, edge_ball)


def op_derivation(ctx: OPBallContext,
                  edge_ball: QuotientBall) -> DerivationSpec:
    """d vanishes on M and sends t to [1]_A."""
    images = {a: [] for a in ctx.spec.m.alphabet.letters}
    images[ctx.spec.stable_letter] = [(1, EMPTY)]
    return _left_derivation(ctx, images, edge_ball)


def op_forest_derivation(ctx: OPBallContext,
                         edge_ball: QuotientBall) -> DerivationSpec:
    """Bimodule derivation for the two-sided forest: d(t) = [1,1]_A,
    d(m) = 0, with k.[x,y].k' = [kx, yk']."""
    images = {a: [] for a in ctx.spec.m.alphabet.letters}
    images[ctx.spec.stable_letter] = [(1, (EMPTY, EMPTY))]
    return DerivationSpec(
        images,
        lambda payload: edge_ball.lookup(tuple(map(ctx.solver, payload))),
        ctx.solver,
        act_left=lambda prefix, payload: (prefix + payload[0], payload[1]),
        act_right=lambda payload, suffix: (payload[0], payload[1] + suffix))


def check_derivation_wellformed(d: DerivationSpec, relations, samples,
                                truncated=False) -> dict:
    """Two exact checks: both sides of every defining relation evaluate to
    the same edge-module element, and for every sampled pair (x, y) the
    value on the word x.y coincides with the value on its normal form.
    The latter is what makes d well-defined on elements rather than words.
    In a truncated ball classes may be left unmerged, so there unequal
    values prove nothing: such a comparison is skipped, not failed."""
    failures = []
    skipped = []
    checked = 0
    value = cache(partial(derivation_eval, d))  # once per distinct word

    def compare(kind, left, right, detail):
        nonlocal checked
        if not (left.resolved and right.resolved) or (
                truncated and left.ze != right.ze):
            skipped.append({"kind": kind, **detail})
            return
        checked += 1
        if left.ze != right.ze:
            failures.append({"kind": kind, **detail})

    for lhs, rhs in relations:
        compare("relation", value(lhs), value(rhs),
                {"lhs": format_word(lhs), "rhs": format_word(rhs)})
    for x, y in samples:
        compare("pair", value(x + y), value(d.solver(x + y)),
                {"x": format_word(x), "y": format_word(y)})
    return {"checked": checked, "failures": failures, "skipped": skipped,
            "passed": not failures}


def check_beta_section(g: BassSerreGraph, d: DerivationSpec) -> dict:
    """beta is a class function on vertices built from d; the check is
    beta(head) - beta(tail) = edge for every interior edge, with beta
    evaluated on every member of each vertex class (well-definedness and
    the section identity together).  A truncated ball has no settled
    class, so a truncated graph has no interior edge to check."""
    if g.kind not in ("amalgam", "otto_pride", "otto_pride_forest"):
        raise ConstructionError(f"no beta section for {g.kind!r} graphs")
    failures = []
    skipped = []
    checked = 0

    def beta_values(side, class_id):
        qb = g.vertex_balls[side]
        for i in qb.classes[class_id]:
            if g.kind == "otto_pride_forest":   # beta([x,y]) = -(x . d(y))
                x, y = qb.elements[i]
                val = derivation_eval(d, y)
                moved = {}
                ok = True
                for cid, coeff in val.ze.items():
                    px, py = g.edge_ball.rep(cid)
                    if not _ze_add(moved, d.resolver((x + px, py)), -coeff):
                        ok = False
                yield DerivationValue(
                    moved, val.unresolved if ok else ["left-action"])
            else:
                x = qb.elements[i]
                val = derivation_eval(d, x)
                if side == "M2":
                    _ze_add(val.ze, g.edge_ball.lookup(x), 1)
                yield val

    for e in g.interior_edge_ids():
        ci = g.edge_class[e]
        tail_vals = list(beta_values(*g.vertex(g.tail[e])))
        head_vals = list(beta_values(*g.vertex(g.head[e])))
        if any(not v.resolved for v in tail_vals + head_vals):
            skipped.append(ci)
            continue
        checked += 1
        for tv in tail_vals:
            for hv in head_vals:
                diff = dict(hv.ze)
                for cid, coeff in tv.ze.items():
                    _ze_add(diff, cid, -coeff)
                if diff != {ci: 1}:
                    failures.append({   # artifact keys are strings
                        "kind": "beta_section", "edge_class": ci,
                        "difference": {str(k): c for k, c in diff.items()}})
    return {"checked": checked, "failures": failures, "skipped": skipped,
            "passed": not failures}
