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

from dataclasses import dataclass, field

from .words import (
    EMPTY,
    Alphabet,
    Presentation,
    Word,
    WordError,
    format_word,
)
from .rewriting import (
    DEFAULT_BUDGET,
    Budget,
    RewriteSystem,
    equal_words,
    knuth_bendix,
    normalize,
    orient_system,
)
from .cayley import cayley_ball
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
    diagnostics: list = field(default_factory=list)


def otto_pride_presentation(spec: OttoPrideSpec) -> Presentation:
    t = spec.stable_letter
    if t in spec.m.alphabet:
        raise ConstructionError(f"stable letter {t!r} collides with M")
    letters = spec.m.alphabet.letters + (t,)
    extra = tuple(
        (tuple(g) + (t,), (t,) + tuple(spec.phi[g]))
        for g in spec.a_gens)
    return Presentation(Alphabet(letters), spec.m.relations + extra)


def hnn_presentation(m: Presentation, a_gens, b_gens, phi,
                     stable_letter="t") -> Presentation:
    """M plus an invertible t with g t = t phi(g) for each generator g of A;
    b_gens must list the images phi(a_gens) in order."""
    t = stable_letter
    ti = t + "-"
    if t in m.alphabet or ti in m.alphabet:
        raise ConstructionError("stable letters collide with M")
    images = []
    for g in a_gens:
        if g not in phi:
            raise ConstructionError(
                f"a_gens word {format_word(g)} has no phi image")
        images.append(tuple(phi[g]))
    if tuple(tuple(b) for b in b_gens) != tuple(images):
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
    """Normal-form function from a Knuth-Bendix completion of p."""
    result = knuth_bendix(orient_system(p), budget_limit)
    if not result.completed:
        raise IncompleteSystemError(
            "completion did not finish within budget")
    system = result.system
    return (lambda w: normalize(system, w)), system


@dataclass(frozen=True)
class OPNormalForm:
    cs: tuple       # basis words c0..ck
    trail: Word     # canonical form of the trailing A-element

    def to_word(self, t="t") -> Word:
        out = tuple(self.cs[0])
        for c in self.cs[1:]:
            out = out + (t,) + tuple(c)
        return out + self.trail

    def __str__(self):
        return format_word(self.to_word())


class OPContext:
    """Completed word problem for M plus the basis factorization m = c.a."""

    def __init__(self, spec: OttoPrideSpec, budget_limit=DEFAULT_BUDGET):
        if spec.free_basis is None:
            raise ConstructionError("normal forms need a free basis C")
        if EMPTY not in tuple(tuple(c) for c in spec.free_basis):
            raise ConstructionError("the free basis must contain 1")
        self.spec = spec
        self.t = spec.stable_letter
        self.nf_m, self.system_m = completed_solver(spec.m, budget_limit)
        self.basis = tuple(tuple(c) for c in spec.free_basis)
        self.phi = {tuple(g): tuple(v) for g, v in spec.phi.items()}
        self.a_gens = tuple(tuple(g) for g in spec.a_gens)
        self._longest_gen = max((len(g) for g in self.a_gens), default=0)
        self._a_pools = {}
        self._factor_tables = {}

    def a_elements(self, max_len: int):
        """Normal forms of A-elements up to max_len with one generator
        decomposition each (BFS, so shortest product first).  Built once
        per max_len; the dict is shared, so callers must not change it."""
        if max_len in self._a_pools:
            return self._a_pools[max_len]
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
        self._a_pools[max_len] = seen
        return seen

    def _factor_table(self, max_len: int):
        """Every basis word c times every pooled A-element a, grouped by the
        normal form of c.a, in basis-then-pool order.  Built once per
        max_len, like the pool itself."""
        if max_len in self._factor_tables:
            return self._factor_tables[max_len]
        table = {}
        pool = self.a_elements(max_len)
        for c in self.basis:
            for a_nf, gens in pool.items():
                table.setdefault(self.nf_m(c + a_nf), []).append(
                    (c, a_nf, gens))
        self._factor_tables[max_len] = table
        return table

    def factor(self, m_word: Word):
        """The factorization nf(m) = c.a with c in the basis and a in A.
        Raises FactorizationFailure if no or several factorizations exist
        inside the search bound (the basis is then not free over A)."""
        target = self.nf_m(m_word)
        found = self._factor_table(
            len(target) + self._longest_gen).get(target, ())
        if not found:
            raise FactorizationFailure(
                f"no basis factorization of {format_word(target)}")
        if len({(c, a) for c, a, _ in found}) > 1:
            raise FactorizationFailure(
                f"ambiguous basis factorization of {format_word(target)}: "
                f"{[(format_word(c), format_word(a)) for c, a, _ in found]}")
        return found[0]


def op_normal_form(ctx: OPContext, w: Word) -> OPNormalForm:
    """The unique form c0 t c1 ... t ck a: A-factors are pushed right
    through t using at = t phi(a), and each M-block is split as c.a over
    the free basis."""
    t = ctx.t
    blocks = []
    cur = []
    for letter in w:
        if letter == t:
            blocks.append(tuple(cur))
            cur = []
        else:
            cur.append(letter)
    blocks.append(tuple(cur))

    cs = []
    carry = EMPTY
    for i, block in enumerate(blocks):
        c, a_nf, gens = ctx.factor(carry + block)
        cs.append(c)
        if i + 1 < len(blocks):
            carry = EMPTY
            for g in gens:
                carry = carry + ctx.phi[g]
        else:
            return OPNormalForm(tuple(cs), a_nf)


def op_multiply(ctx: OPContext, nf1: OPNormalForm,
                nf2: OPNormalForm) -> OPNormalForm:
    """Tensor multiplication: the last block of nf1 (with its trail)
    absorbs the first block of nf2, then the result is renormalized."""
    merged = (nf1.cs[:-1]
              + (nf1.cs[-1] + nf1.trail + nf2.cs[0],)
              + nf2.cs[1:])
    word = tuple(merged[0])
    for c in merged[1:]:
        word = word + (ctx.t,) + tuple(c)
    return op_normal_form(ctx, word + nf2.trail)


# ---------------------------------------------------------------------------
# quotient balls (weak orbits) and tensor pair balls


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


@dataclass
class QuotientBall:
    side: str
    radius: int
    elements: list          # element id -> normal-form word
    class_of: list          # element id -> class id
    classes: list           # class id -> sorted member element ids
    partial: list           # class id -> bool
    truncated: bool = False

    def lookup(self, w: Word):
        """Class id of a normal form, or None if outside the ball."""
        return self._by_word.get(w)

    def rep(self, class_id):
        return self.elements[self.classes[class_id][0]]

    def to_json(self):
        return {
            "side": self.side,
            "radius": self.radius,
            "classes": [
                {
                    "id": i,
                    "representative": format_word(self.rep(i)),
                    "size": len(c),
                    "partial": self.partial[i],
                }
                for i, c in enumerate(self.classes)
            ],
            "truncated": self.truncated,
        }


def _element_ball(solver, alphabet, radius):
    g = cayley_ball(solver, alphabet, radius, 0)
    return g.vertices, g.depth


def _finish_quotient(side, radius, elements, uf, depth, margin, truncated):
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
        # a class whose every member sits within margin of the boundary had
        # little room to merge; only classes seen well inside the ball are
        # treated as settled at this radius
        partial.append(truncated
                       or min(depth[v] for v in members) > radius - margin)
    qb = QuotientBall(side, radius, list(elements), class_of,
                      [sorted(m) for m in ordered], partial, truncated)
    qb._by_word = {w: class_of[i] for i, w in enumerate(elements)}
    return qb


def quotient_ball(solver, alphabet: Alphabet, k_gens, radius: int,
                  budget_limit=DEFAULT_BUDGET, side="L/K",
                  margin: int = 0) -> QuotientBall:
    """Weak orbits of right multiplication by the submonoid generated by
    k_gens, restricted to the radius ball.  Classes whose members all lie
    within margin of the ball boundary are flagged partial: their membership
    and distinctness are least settled at this radius."""
    elements, depth = _element_ball(solver, alphabet, radius)
    ids = {w: i for i, w in enumerate(elements)}
    uf = _UnionFind(len(elements))
    budget = Budget(budget_limit)
    truncated = False
    k_gens = tuple(tuple(g) for g in k_gens)
    for i, x in enumerate(elements):
        for g in k_gens:
            if not budget.spend():
                truncated = True
                break
            y = solver(x + g)
            j = ids.get(y)
            if j is not None:
                uf.union(i, j)
        if truncated:
            break
    return _finish_quotient(side, radius, elements, uf, depth, margin,
                            truncated)


@dataclass
class PairQuotientBall:
    side: str
    radius: int
    pairs: list             # pair id -> (word, word)
    class_of: list
    classes: list
    partial: list
    truncated: bool = False

    def lookup(self, pair):
        return self._by_pair.get(pair)

    def rep(self, class_id):
        return self.pairs[self.classes[class_id][0]]


def pair_quotient_ball(solver, alphabet: Alphabet, k_gens, radius: int,
                       budget_limit=DEFAULT_BUDGET, side="LxL/K",
                       margin: int = 0, twist=None) -> PairQuotientBall:
    """Tensor classes of pairs from the ball under the transfer moves
    (x.g, y) ~ (x, twist(g).y) for each generator g of the middle
    submonoid; twist defaults to the identity and carries the homomorphism
    when the two actions differ.  The depth of a pair is the sum of its
    element depths."""
    elements, depth = _element_ball(solver, alphabet, radius)
    eset = {w: d for w, d in zip(elements, depth)}
    pairs = [(x, y) for x in elements for y in elements]
    pair_depth = [eset[x] + eset[y] for x, y in pairs]
    ids = {p: i for i, p in enumerate(pairs)}
    uf = _UnionFind(len(pairs))
    budget = Budget(budget_limit)
    truncated = False
    k_gens = tuple(tuple(g) for g in k_gens)
    if twist is None:
        twist = {g: g for g in k_gens}
    # each move depends on one element only: x.g on x, twist(g).y on y
    right = {x: [solver(x + g) for g in k_gens] for x in elements}
    left = {y: [solver(twist[g] + y) for g in k_gens] for y in elements}
    for x, y in pairs:
        for xg, gy in zip(right[x], left[y]):
            if not budget.spend():
                truncated = True
                break
            if xg in eset and gy in eset:
                uf.union(ids[xg, y], ids[x, gy])
        if truncated:
            break
    qb = _finish_quotient(side, radius, pairs, uf, pair_depth, margin,
                          truncated)
    qb = PairQuotientBall(side, radius, qb.elements, qb.class_of,
                          qb.classes, qb.partial, qb.truncated)
    qb._by_pair = {p: qb.class_of[i] for i, p in enumerate(qb.pairs)}
    return qb


# ---------------------------------------------------------------------------
# Bass-Serre balls


@dataclass
class BSVertex:
    side: str
    class_id: int
    label: str
    interior: bool


@dataclass
class BSEdge:
    class_id: int
    tail: int       # global vertex id
    head: int
    label: str
    interior: bool


@dataclass
class BassSerreGraph:
    kind: str
    radius: int
    vertices: list
    edges: list
    diagnostics: list = field(default_factory=list)

    def interior_vertex_ids(self):
        return [i for i, v in enumerate(self.vertices) if v.interior]

    def interior_edge_ids(self):
        return [i for i, e in enumerate(self.edges)
                if e.interior and self.vertices[e.tail].interior
                and self.vertices[e.head].interior]

    def boundary_matrix(self) -> SparseIntMatrix:
        """Boundary ZE -> ZV of the interior subgraph: edge -> head - tail."""
        vids = self.interior_vertex_ids()
        vmap = {v: i for i, v in enumerate(vids)}
        eids = self.interior_edge_ids()
        m = SparseIntMatrix(len(vids), len(eids))
        for col, ei in enumerate(eids):
            e = self.edges[ei]
            m.add_at(vmap[e.head], col, 1)
            m.add_at(vmap[e.tail], col, -1)
        return m

    def forest_by_search(self) -> bool:
        """Undirected acyclicity of the interior subgraph via union-find."""
        uf = _UnionFind(len(self.vertices))
        for ei in self.interior_edge_ids():
            e = self.edges[ei]
            if uf.find(e.tail) == uf.find(e.head):
                return False
            uf.union(e.tail, e.head)
        return True

    def forest_by_rank(self) -> bool:
        """Exact integer certificate: the boundary map is injective iff its
        rank equals the number of interior edges."""
        m = self.boundary_matrix()
        return rank_exact(m) == m.cols

    def connected_interior(self, start: int) -> bool:
        inside = set(self.interior_vertex_ids())
        if start not in inside:
            return not inside
        adj = {}
        for ei in self.interior_edge_ids():
            e = self.edges[ei]
            adj.setdefault(e.tail, []).append(e.head)
            adj.setdefault(e.head, []).append(e.tail)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj.get(v, ()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen == inside

    def components(self):
        """Interior components as a map vertex id -> component id."""
        uf = _UnionFind(len(self.vertices))
        for ei in self.interior_edge_ids():
            e = self.edges[ei]
            uf.union(e.tail, e.head)
        comp = {}
        for v in self.interior_vertex_ids():
            comp.setdefault(uf.find(v), []).append(v)
        ordered = sorted(comp.values(), key=lambda c: c[0])
        return {v: ci for ci, members in enumerate(ordered) for v in members}

    def to_json(self):
        return {
            "kind": self.kind,
            "radius": self.radius,
            "vertices": [
                {"id": i, "side": v.side, "label": v.label,
                 "interior": v.interior}
                for i, v in enumerate(self.vertices)
            ],
            "edges": [
                {"tail": e.tail, "head": e.head, "label": e.label,
                 "interior": e.interior}
                for e in self.edges
            ],
            "diagnostics": self.diagnostics,
        }

    def to_dot(self):
        lines = [f"graph bass_serre {{"]
        for i, v in enumerate(self.vertices):
            style = "" if v.interior else ", style=dashed"
            lines.append(f'  v{i} [label="{v.label}"{style}];')
        for e in self.edges:
            style = "" if e.interior else " [style=dashed]"
            lines.append(f"  v{e.tail} -- v{e.head}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"



def _relation_margin(p: Presentation) -> int:
    return max((max(len(l), len(r)) for l, r in p.relations), default=1)

@dataclass
class AmalgamContext:
    spec: AmalgamSpec
    presentation: Presentation
    solver: object
    system: RewriteSystem
    m1_letters: tuple
    m2_letters: tuple
    w_images: tuple         # generators of the image of W inside L
    qb1: QuotientBall = None
    qb2: QuotientBall = None
    qbw: QuotientBall = None
    graph: BassSerreGraph = None


def amalgam_context(spec: AmalgamSpec,
                    budget_limit=DEFAULT_BUDGET) -> AmalgamContext:
    pres = amalgam_presentation(spec, budget_limit)
    _, map1, map2 = _disjoint_union(spec.m1, spec.m2)
    solver, system = completed_solver(pres, budget_limit)
    w_images = tuple(
        tuple(map1[a] for a in spec.f1[x])
        for x in spec.w.alphabet.letters)
    return AmalgamContext(
        spec, pres, solver, system,
        tuple(map1.values()), tuple(map2.values()), w_images)


def bass_serre_ball_amalgam(ctx: AmalgamContext, radius: int,
                            budget_limit=DEFAULT_BUDGET,
                            margin: int = None) -> BassSerreGraph:
    """Vertices are the classes of L/M1 and L/M2, edges the classes of
    L/W; the edge of [x]_W joins [x]_{M1} with [x]_{M2}."""
    alphabet = ctx.presentation.alphabet
    if margin is None:
        margin = _relation_margin(ctx.presentation)
    m1_gens = [(a,) for a in ctx.m1_letters]
    m2_gens = [(a,) for a in ctx.m2_letters]
    ctx.qb1 = quotient_ball(ctx.solver, alphabet, m1_gens, radius,
                            budget_limit, side="L/M1", margin=margin)
    ctx.qb2 = quotient_ball(ctx.solver, alphabet, m2_gens, radius,
                            budget_limit, side="L/M2", margin=margin)
    ctx.qbw = quotient_ball(ctx.solver, alphabet, ctx.w_images, radius,
                            budget_limit, side="L/W", margin=margin)
    vertices = []
    gid = {}
    for side, qb in (("M1", ctx.qb1), ("M2", ctx.qb2)):
        for ci in range(len(qb.classes)):
            gid[side, ci] = len(vertices)
            vertices.append(BSVertex(
                side, ci, f"[{format_word(qb.rep(ci))}]{side}",
                not qb.partial[ci]))
    edges = []
    diagnostics = []
    for ci in range(len(ctx.qbw.classes)):
        members = [ctx.qbw.elements[i] for i in ctx.qbw.classes[ci]]
        x = members[0]
        t1, t2 = ctx.qb1.lookup(x), ctx.qb2.lookup(x)
        ok = all(ctx.qb1.lookup(y) == t1 and ctx.qb2.lookup(y) == t2
                 for y in members)
        if not ok:
            diagnostics.append({
                "kind": "edge_incidence_unresolved", "edge_class": ci})
        edges.append(BSEdge(
            ci, gid["M1", t1], gid["M2", t2],
            f"[{format_word(x)}]W",
            not ctx.qbw.partial[ci] and ok))
    g = BassSerreGraph("amalgam", radius, vertices, edges, diagnostics)
    ctx.graph = g
    return g


@dataclass
class OPBallContext:
    spec: OttoPrideSpec
    presentation: Presentation
    solver: object
    system: RewriteSystem
    a_images: tuple
    qbm: QuotientBall = None
    qba: QuotientBall = None
    graph: BassSerreGraph = None


def op_context(spec: OttoPrideSpec,
               budget_limit=DEFAULT_BUDGET) -> OPBallContext:
    pres = otto_pride_presentation(spec)
    solver, system = completed_solver(pres, budget_limit)
    return OPBallContext(spec, pres, solver, system,
                         tuple(tuple(g) for g in spec.a_gens))


def bass_serre_ball_op(ctx: OPBallContext, radius: int,
                       budget_limit=DEFAULT_BUDGET,
                       margin: int = None) -> BassSerreGraph:
    """Vertices are the classes of L/M, edges the classes of L/A; the edge
    of [x]_A runs from [x]_M to [xt]_M."""
    alphabet = ctx.presentation.alphabet
    if margin is None:
        margin = _relation_margin(ctx.presentation)
    t = ctx.spec.stable_letter
    m_gens = [(a,) for a in ctx.spec.m.alphabet.letters]
    ctx.qbm = quotient_ball(ctx.solver, alphabet, m_gens, radius,
                            budget_limit, side="L/M", margin=margin)
    ctx.qba = quotient_ball(ctx.solver, alphabet, ctx.a_images, radius,
                            budget_limit, side="L/A", margin=margin)
    vertices = [
        BSVertex("M", ci, f"[{format_word(ctx.qbm.rep(ci))}]M",
                 not ctx.qbm.partial[ci])
        for ci in range(len(ctx.qbm.classes))
    ]
    edges = []
    diagnostics = []
    for ci in range(len(ctx.qba.classes)):
        members = [ctx.qba.elements[i] for i in ctx.qba.classes[ci]]
        x = members[0]
        tails = {ctx.qbm.lookup(y) for y in members}
        heads = {ctx.qbm.lookup(ctx.solver(y + (t,))) for y in members}
        interior = (not ctx.qba.partial[ci]
                    and len(tails) == 1 and len(heads) == 1
                    and None not in heads)
        if len(tails) > 1 or (len(heads) > 1 and None not in heads):
            diagnostics.append({
                "kind": "edge_incidence_unresolved", "edge_class": ci})
        head = next(iter(heads - {None}), None)
        if head is None:
            continue  # the whole edge leaves the ball
        edges.append(BSEdge(
            ci, next(iter(tails)), head,
            f"[{format_word(x)}]A", interior))
    g = BassSerreGraph("otto_pride", radius, vertices, edges, diagnostics)
    ctx.graph = g
    return g


def bass_serre_forest_bi(ctx, kind: str, radius: int,
                         budget_limit=DEFAULT_BUDGET, margin: int = None):
    """Two-sided forest on tensor classes of pairs.

    amalgam: vertices are pair classes over M1 and over M2, the edge of
    [x,y]_W joins them.  otto_pride: vertices are pair classes over M and
    the edge of [x,y]_A runs from [x,ty]_M to [xt,y]_M.

    Returns the graph and the multiplication map component check data:
    a list (pair class id of the edge, product normal form)."""
    alphabet = ctx.presentation.alphabet
    if margin is None:
        margin = _relation_margin(ctx.presentation)
    if kind == "amalgam":
        k1 = [(a,) for a in ctx.m1_letters]
        k2 = [(a,) for a in ctx.m2_letters]
        ke = ctx.w_images
        pq1 = pair_quotient_ball(ctx.solver, alphabet, k1, radius,
                                 budget_limit, side="LxL/M1", margin=margin)
        pq2 = pair_quotient_ball(ctx.solver, alphabet, k2, radius,
                                 budget_limit, side="LxL/M2", margin=margin)
        pqe = pair_quotient_ball(ctx.solver, alphabet, ke, radius,
                                 budget_limit, side="LxL/W", margin=margin)
        vertices = []
        gid = {}
        for side, pq in (("M1", pq1), ("M2", pq2)):
            for ci in range(len(pq.classes)):
                gid[side, ci] = len(vertices)
                x, y = pq.rep(ci)
                vertices.append(BSVertex(
                    side, ci,
                    f"[{format_word(x)},{format_word(y)}]{side}",
                    not pq.partial[ci]))
        edges = []
        for ci in range(len(pqe.classes)):
            members = [pqe.pairs[i] for i in pqe.classes[ci]]
            p = members[0]
            t1, t2 = pq1.lookup(p), pq2.lookup(p)
            ok = all(pq1.lookup(q) == t1 and pq2.lookup(q) == t2
                     for q in members)
            edges.append(BSEdge(
                ci, gid["M1", t1], gid["M2", t2],
                f"[{format_word(p[0])},{format_word(p[1])}]W",
                not pqe.partial[ci] and ok))
        g = BassSerreGraph("amalgam_forest", radius, vertices, edges)
        g._vertex_balls = {"M1": pq1, "M2": pq2}
        g._edge_ball = pqe
        g._gid = gid
    elif kind == "otto_pride":
        t = ctx.spec.stable_letter
        km = [(a,) for a in ctx.spec.m.alphabet.letters]
        pqm = pair_quotient_ball(ctx.solver, alphabet, km, radius,
                                 budget_limit, side="LxL/M", margin=margin)
        pqa = pair_quotient_ball(
            ctx.solver, alphabet, ctx.a_images, radius, budget_limit,
            side="LxL/A", margin=margin,
            twist={tuple(g): tuple(v) for g, v in ctx.spec.phi.items()})
        vertices = [
            BSVertex("M", ci,
                     f"[{format_word(pqm.rep(ci)[0])},"
                     f"{format_word(pqm.rep(ci)[1])}]M",
                     not pqm.partial[ci])
            for ci in range(len(pqm.classes))
        ]
        ball = {x for x, _ in pqa.pairs}
        t_times = {y: ctx.solver((t,) + y) for y in ball}
        times_t = {x: ctx.solver(x + (t,)) for x in ball}
        edges = []
        for ci in range(len(pqa.classes)):
            members = [pqa.pairs[i] for i in pqa.classes[ci]]
            tails = set()
            heads = set()
            for x, y in members:
                tails.add(pqm.lookup((x, t_times[y])))
                heads.add(pqm.lookup((times_t[x], y)))
            tails.discard(None)
            heads.discard(None)
            if not tails or not heads:
                continue
            interior = (not pqa.partial[ci]
                        and len(tails) == 1 and len(heads) == 1)
            x, y = members[0]
            edges.append(BSEdge(
                ci, min(tails), min(heads),
                f"[{format_word(x)},{format_word(y)}]A", interior))
        g = BassSerreGraph("otto_pride_forest", radius, vertices, edges)
        g._vertex_balls = {"M": pqm}
        g._edge_ball = pqa
        g._gid = None
    else:
        raise ConstructionError(f"unknown forest kind {kind!r}")
    return g


def forest_component_products(ctx, g: BassSerreGraph):
    """The multiplication map on interior components: each interior vertex
    pair class maps to the normal form of the product of its pair.  Returns
    {component id: set of products}; the two-sided lemma predicts a single
    product per component, distinct across components."""
    comp = g.components()
    out = {}
    for v, ci in comp.items():
        side = g.vertices[v].side
        pq = g._vertex_balls[side]
        x, y = pq.rep(g.vertices[v].class_id)
        out.setdefault(ci, set()).add(ctx.solver(x + y))
    return out


# ---------------------------------------------------------------------------
# derivations and the beta section


@dataclass
class DerivationSpec:
    side: str               # "left" or "bimodule"
    images: dict            # letter -> list of (coeff, payload)
    resolver: object        # payload -> class id (or None)
    solver: object          # word normal form in L
    act_left: object        # (word, payload) -> payload
    act_right: object = None  # (payload, letter) -> payload (bimodule only)


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

    def __eq__(self, other):
        return (isinstance(other, DerivationValue)
                and self.ze == other.ze
                and self.resolved and other.resolved)


def derivation_eval(d: DerivationSpec, word: Word) -> DerivationValue:
    """Fold of the derivation rule along the letters of word.

    one-sided: d(ua) = d(u) + u.d(a); bimodule: d(ua) = d(u).a + u.d(a).
    Payload terms are pushed through the appropriate actions and resolved
    to ball class ids at the end of each step."""
    acc = {}
    unresolved = []
    payloads = {}           # unresolved-by-design storage: payload -> coeff
    prefix = EMPTY
    for letter in word:
        if d.side == "bimodule":
            payloads = {d.act_right(p, letter): c
                        for p, c in payloads.items()}
        for coeff, payload in d.images[letter]:
            moved = d.act_left(prefix, payload)
            payloads[moved] = payloads.get(moved, 0) + coeff
        prefix = prefix + (letter,)
    for payload, coeff in payloads.items():
        if coeff == 0:
            continue
        cid = d.resolver(payload)
        if not _ze_add(acc, cid, coeff):
            unresolved.append(payload)
    return DerivationValue(acc, unresolved)


def amalgam_derivation(ctx: AmalgamContext) -> DerivationSpec:
    """d vanishes on M1 and sends an M2 generator m2 to [1]_W - [m2]_W."""
    images = {a: [] for a in ctx.m1_letters}
    for a in ctx.m2_letters:
        images[a] = [(1, EMPTY), (-1, (a,))]

    def resolver(payload):
        return ctx.qbw.lookup(ctx.solver(payload))

    return DerivationSpec(
        "left", images, resolver, ctx.solver,
        act_left=lambda prefix, payload: prefix + payload)


def op_derivation(ctx: OPBallContext) -> DerivationSpec:
    """d vanishes on M and sends t to [1]_A."""
    images = {a: [] for a in ctx.spec.m.alphabet.letters}
    images[ctx.spec.stable_letter] = [(1, EMPTY)]

    def resolver(payload):
        return ctx.qba.lookup(ctx.solver(payload))

    return DerivationSpec(
        "left", images, resolver, ctx.solver,
        act_left=lambda prefix, payload: prefix + payload)


def op_forest_derivation(ctx: OPBallContext,
                         edge_ball: PairQuotientBall) -> DerivationSpec:
    """Bimodule derivation for the two-sided forest: d(t) = [1,1]_A,
    d(m) = 0, with k.[x,y].k' = [kx, yk']."""
    images = {a: [] for a in ctx.spec.m.alphabet.letters}
    images[ctx.spec.stable_letter] = [(1, (EMPTY, EMPTY))]

    def resolver(payload):
        x, y = payload
        return edge_ball.lookup((ctx.solver(x), ctx.solver(y)))

    return DerivationSpec(
        "bimodule", images, resolver, ctx.solver,
        act_left=lambda prefix, payload: (prefix + payload[0], payload[1]),
        act_right=lambda payload, letter: (payload[0],
                                           payload[1] + (letter,)))


def check_derivation_wellformed(d: DerivationSpec, relations,
                                samples) -> dict:
    """Two exact checks: both sides of every defining relation evaluate to
    the same edge-module element, and for every sampled pair (x, y) the
    value on the word x.y coincides with the value on its normal form.
    The latter is what makes d well-defined on elements rather than words."""
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


def check_beta_section(ctx, g: BassSerreGraph, d: DerivationSpec,
                       kind: str) -> dict:
    """beta is a class function on vertices built from d; the check is
    beta(head) - beta(tail) = edge for every interior edge, with beta
    evaluated on every member of each vertex class (well-definedness and
    the section identity together)."""
    failures = []
    skipped = []
    checked = 0

    def beta_values(vertex):
        if kind == "amalgam":
            qb = {"M1": ctx.qb1, "M2": ctx.qb2}[vertex.side]
            for i in qb.classes[vertex.class_id]:
                x = qb.elements[i]
                val = derivation_eval(d, x)
                if vertex.side == "M2":
                    _ze_add(val.ze, ctx.qbw.lookup(x), 1)
                yield x, val
        elif kind == "otto_pride":
            qb = ctx.qbm
            for i in qb.classes[vertex.class_id]:
                x = qb.elements[i]
                yield x, derivation_eval(d, x)
        else:   # otto_pride_forest: beta([x,y]) = -(x . d(y))
            pq = g._vertex_balls["M"]
            for i in pq.classes[vertex.class_id]:
                x, y = pq.pairs[i]
                val = derivation_eval(d, y)
                moved = {}
                ok = True
                for cid, coeff in val.ze.items():
                    px, py = g._edge_ball.rep(cid)
                    ncid = d.resolver((x + px, py))
                    if not _ze_add(moved, ncid, -coeff):
                        ok = False
                yield (x, y), DerivationValue(
                    moved, val.unresolved if ok else ["left-action"])

    for ei in g.interior_edge_ids():
        e = g.edges[ei]
        tail_vals = list(beta_values(g.vertices[e.tail]))
        head_vals = list(beta_values(g.vertices[e.head]))
        if any(not v.resolved for _, v in tail_vals + head_vals):
            skipped.append(e.class_id)
            continue
        checked += 1
        for _, tv in tail_vals:
            for _, hv in head_vals:
                diff = dict(hv.ze)
                for cid, coeff in tv.ze.items():
                    _ze_add(diff, cid, -coeff)
                if diff != {e.class_id: 1}:
                    failures.append({
                        "kind": "beta_section", "edge_class": e.class_id,
                        "difference": diff})
    return {"checked": checked, "failures": failures, "skipped": skipped,
            "passed": not failures}
