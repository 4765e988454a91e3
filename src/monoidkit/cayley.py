"""Bounded-radius right Cayley graphs: construction by BFS over normal
forms, strongly connected component condensation, rooted-tree and
unique-entrance checks, the transversal prefix tree, and the chain complex
of the relator-filled 2-complex.

Vertices are numbered by discovery order, which is determined by the
alphabet order, so identical inputs always produce identical graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .words import EMPTY, Alphabet, format_word
from .rewriting import Verdict
from .homology import SparseIntMatrix
from .special import transversal_factor


class CayleyError(Exception):
    pass


def dot_quoted(s: str) -> str:
    """s as a DOT quoted string: each backslash and double quote escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass
class LabeledDigraph:
    alphabet: Alphabet
    vertices: list          # vertex id -> label (a normal-form Word)
    arcs: list              # (src id, dst id, letter)
    interior: list          # vertex id -> bool
    depth: list             # vertex id -> BFS distance from the root
    radius: int
    margin: int
    # label -> vertex id
    ids: dict = field(default_factory=dict, repr=False, compare=False)

    def to_json(self):
        return {
            "radius": self.radius,
            "margin": self.margin,
            "vertices": [
                {"id": i, "label": format_word(l), "interior": self.interior[i]}
                for i, l in enumerate(self.vertices)
            ],
            "arcs": [
                {"src": s, "dst": d, "letter": a} for s, d, a in self.arcs
            ],
        }

    def to_dot(self):
        lines = ["digraph cayley {"]
        for i, label in enumerate(self.vertices):
            shape = "" if self.interior[i] else ", style=dashed"
            lines.append(f'  v{i} [label={dot_quoted(format_word(label))}'
                         f'{shape}];')
        for s, d, a in self.arcs:
            lines.append(f'  v{s} -> v{d} [label={dot_quoted(a)}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def cayley_ball(solver, alphabet: Alphabet, radius: int,
                margin: int = 0) -> LabeledDigraph:
    """BFS over right multiplication from the identity, radius levels.

    solver maps () and each vertex label plus one letter to its normal
    form.  Arcs are listed as found, so a non-root vertex's first in-arc
    comes from the level above.  The margin only marks vertices deeper than
    radius - margin as not interior; in <a | a^5 = 1> at radius 3 the root
    is still a ball component alone, though the monoid is one component."""
    if radius < 0 or margin < 0:
        raise CayleyError(
            f"radius and margin must be >= 0, got {radius} and {margin}")
    root = solver(EMPTY)
    ids = {root: 0}
    vertices = [root]
    depth = [0]
    arcs = []
    queue = deque([0])
    while queue:
        v = queue.popleft()
        if depth[v] == radius:
            continue
        for a in alphabet.order:
            nf = solver(vertices[v] + (a,))
            if nf not in ids:
                ids[nf] = len(vertices)
                vertices.append(nf)
                depth.append(depth[v] + 1)
                queue.append(ids[nf])
            arcs.append((v, ids[nf], a))
    interior = [d <= radius - margin for d in depth]
    return LabeledDigraph(alphabet, vertices, arcs, interior, depth,
                          radius, margin, ids)


@dataclass
class CondensationReport:
    sccs: tuple             # tuple of tuples of vertex ids
    dag_arcs: tuple         # (src scc, dst scc, letter), deduplicated
    root_scc: int
    partial_sccs: tuple     # scc indices containing a non-interior vertex
    is_tree: Verdict = None

    def interior_sccs(self):
        partial = set(self.partial_sccs)
        return [i for i in range(len(self.sccs)) if i not in partial]

    def to_json(self):
        out = {
            "sccs": [list(c) for c in self.sccs],
            "dag_arcs": [
                {"src": s, "dst": d, "letter": a} for s, d, a in self.dag_arcs
            ],
            "root_scc": self.root_scc,
            "partial_sccs": list(self.partial_sccs),
        }
        if self.is_tree is not None:
            out["is_tree"] = self.is_tree.value
        return out


def scc_condense(g: LabeledDigraph) -> CondensationReport:
    """Kosaraju's two passes (iterative): the finishing order of a search
    along the arcs, then the components of a search against them in reverse
    finishing order; then the condensation with arcs deduplicated per
    (source component, target component, letter)."""
    n = len(g.vertices)
    out_arcs = [[] for _ in range(n)]
    in_arcs = [[] for _ in range(n)]
    for s, d, _ in g.arcs:
        out_arcs[s].append(d)
        in_arcs[d].append(s)

    seen = [False] * n
    finished = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        work = [(start, iter(out_arcs[start]))]
        while work:
            v, pending = work[-1]
            for u in pending:
                if not seen[u]:
                    seen[u] = True
                    work.append((u, iter(out_arcs[u])))
                    break
            else:
                work.pop()
                finished.append(v)

    comp_of = [None] * n
    comps = []
    for start in reversed(finished):
        if comp_of[start] is not None:
            continue
        comp_of[start] = len(comps)
        comp = [start]
        for v in comp:      # grows while it is read
            for u in in_arcs[v]:
                if comp_of[u] is None:
                    comp_of[u] = len(comps)
                    comp.append(u)
        comps.append(sorted(comp))

    comps.sort(key=lambda c: c[0])
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    dag = sorted({
        (comp_of[s], comp_of[d], a)
        for s, d, a in g.arcs if comp_of[s] != comp_of[d]
    })
    # a component touching the ball boundary may be a fragment of a larger
    # true component, so it is excluded from structural verdicts
    partial = tuple(sorted({
        ci for ci, comp in enumerate(comps)
        if any(g.depth[v] == g.radius for v in comp)
    }))
    rep = CondensationReport(
        tuple(tuple(c) for c in comps), tuple(dag), comp_of[0], partial)
    rep._comp_of = comp_of
    return rep


def check_rooted_tree(rep: CondensationReport) -> Verdict:
    """Proven iff the interior condensation is a tree rooted at the
    component of the identity with all arcs pointing away from it.  Unknown
    when fewer than two interior components survive the margin."""
    interior = rep.interior_sccs()
    if len(interior) < 2 or rep.root_scc not in interior:
        rep.is_tree = Verdict("unknown", None, 0)
        return rep.is_tree
    inside = set(interior)
    edges = {(s, d) for s, d, _ in rep.dag_arcs if s in inside and d in inside}
    children = {}
    for s, d in edges:
        children.setdefault(s, set()).add(d)
    # BFS from the root along arc direction must reach everything once
    seen = {rep.root_scc}
    queue = deque([rep.root_scc])
    while queue:
        v = queue.popleft()
        for u in children.get(v, ()):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    ok = (seen == inside and len(edges) == len(inside) - 1
          and all(d != rep.root_scc for _, d in edges))
    rep.is_tree = Verdict("proven" if ok else "refuted",
                          sorted(edges), 0)
    return rep.is_tree


def check_unique_entrance(g: LabeledDigraph, rep: CondensationReport,
                          ua=None) -> list:
    """Every interior component other than the root must be entered by
    exactly one arc from outside; with a units analysis supplied, that
    arc must land on the transversal element of the component."""
    comp_of = rep._comp_of
    entering_arcs = {}      # component -> the arcs entering it, in order
    for arc in g.arcs:
        s, d, _ = arc
        if comp_of[s] != comp_of[d]:
            entering_arcs.setdefault(comp_of[d], []).append(arc)
    violations = []
    for ci in rep.interior_sccs():
        if ci == rep.root_scc:
            continue
        entering = entering_arcs.get(ci, [])
        if len(entering) != 1:
            violations.append({
                "kind": "entrance_count", "scc": ci,
                "count": len(entering),
                "arcs": [[s, d, a] for s, d, a in entering],
            })
            continue
        if ua is not None:
            label = g.vertices[entering[0][1]]
            if transversal_factor(ua, label).u_part != EMPTY:
                violations.append({
                    "kind": "entrance_not_transversal", "scc": ci,
                    "label": format_word(label),
                })
    return violations


def hasse_prefix_tree(ua, alphabet, labels):
    """(parts, arcs): the transversal parts of the given labels in shortlex
    order, and the arcs (parent id, child id, suffix) of the Hasse diagram
    of the reverse prefix order on them.  The parent of a transversal word
    is its longest proper prefix in the set."""
    parts = {transversal_factor(ua, l).w_part for l in labels}
    ordered = sorted(parts, key=alphabet.shortlex_key)
    ids = {w: i for i, w in enumerate(ordered)}
    arcs = []
    for w in ordered:
        for k in range(len(w) - 1, -1, -1):
            if w[:k] in parts:
                arcs.append((ids[w[:k]], ids[w], format_word(w[k:])))
                break
    return ordered, arcs


def _ahu_code(children, root):
    """Canonical code of an unordered rooted tree: the sorted codes of a
    vertex's children in parentheses, made from a stack, not by recursion."""
    code, stack = {}, [(root, False)]
    while stack:
        v, ready = stack.pop()
        kids = children.get(v, ())
        if ready:
            code[v] = "(" + "".join(sorted(map(code.__getitem__, kids))) + ")"
        elif v not in code:
            code[v] = None      # open until its children are coded
            stack.append((v, True))
            stack.extend((c, False) for c in kids)
        elif code[v] is None:
            raise CayleyError(f"not a rooted tree: a cycle through {v!r}")
    return code[root]


def rooted_trees_isomorphic(edges_a, root_a, edges_b, root_b) -> bool:
    """edges are (parent, child) pairs; labels are ignored."""
    def children_map(edges):
        m = {}
        for p, c in edges:
            m.setdefault(p, []).append(c)
        return m

    return (_ahu_code(children_map(edges_a), root_a)
            == _ahu_code(children_map(edges_b), root_b))


def condensation_matches_hasse(ua, g: LabeledDigraph,
                               rep: CondensationReport):
    """Interior condensation and the transversal prefix tree built from the
    same vertices agree as rooted trees; None when the root's component is
    partial, which happens only at radius 0.  The tree's root, the empty
    word, comes first in shortlex order."""
    inside = set(rep.interior_sccs())
    if rep.root_scc not in inside:
        return None
    labels = [g.vertices[v] for ci in inside for v in rep.sccs[ci]]
    hasse_arcs = hasse_prefix_tree(ua, g.alphabet, labels)[1]
    cond_edges = [(s, d) for s, d, _ in rep.dag_arcs
                  if s in inside and d in inside]
    return rooted_trees_isomorphic(cond_edges, rep.root_scc,
                                   [(s, d) for s, d, _ in hasse_arcs], 0)


@dataclass
class ChainComplexExport:
    boundary1: SparseIntMatrix   # vertices x edges
    boundary2: SparseIntMatrix   # edges x 2-cells
    augmentation: SparseIntMatrix  # 1 x vertices, all ones
    cell_base_vertices: list     # 2-cell id -> base vertex id
    skipped: list                # vertices whose relator loop leaves the ball


def relator_cells(sp, ball: LabeledDigraph):
    """(cells, skipped): a 2-cell (base vertex, arc ids) for each vertex
    whose relator-labeled loop closes inside the ball, and the vertices
    whose loop leaves it.  Requires at most one relator (none for a free
    monoid, which gets no cell)."""
    if len(sp.relators) > 1:
        raise CayleyError("chain export expects a one-relator presentation")
    arc_index = {(s, a): (d, k) for k, (s, d, a) in enumerate(ball.arcs)}
    cells, skipped = [], []
    for relator in sp.relators:
        for v in range(len(ball.vertices)):
            cur, path = v, []
            for a in relator:
                hit = arc_index.get((cur, a))
                if hit is None:
                    skipped.append(v)
                    break
                cur, k = hit
                path.append(k)
            else:
                if cur != v:
                    raise CayleyError(
                        f"relator loop at vertex {v} does not close")
                cells.append((v, path))
    return cells, skipped


def _cell_boundary(cells, row, rows):
    """The rows x cells map of each cell to the sum of its arcs, on the
    arcs that row numbers (an arc id -> row id map)."""
    m = {}
    for c, (_v, path) in enumerate(cells):
        for k in path:
            if k in row:
                m[row[k], c] = m.get((row[k], c), 0) + 1
    return SparseIntMatrix(rows, len(cells), m)


def cayley_complex_chain(sp, ball: LabeledDigraph) -> ChainComplexExport:
    """The integer boundary maps and the augmentation of the ball's
    relator-filled 2-complex.  A cell's boundary is a closed edge path, so
    boundary1 boundary2 = 0 with no check."""
    cells, skipped = relator_cells(sp, ball)
    n_v, n_e = len(ball.vertices), len(ball.arcs)
    b1 = {}                 # a loop's -1 lands on its +1: a zero column
    for k, (s, d, _a) in enumerate(ball.arcs):
        b1[d, k] = 1
        b1[s, k] = b1.get((s, k), 0) - 1
    aug = SparseIntMatrix(1, n_v, {(0, i): 1 for i in range(n_v)})
    return ChainComplexExport(SparseIntMatrix(n_v, n_e, b1),
                              _cell_boundary(cells, range(n_e), n_e), aug,
                              [v for v, _ in cells], skipped)


def contract_tree(ball: LabeledDigraph, cells):
    """(e, d1, d2): relator_cells' complex on the ball, augmented by the
    all-ones map, with the ball's BFS tree contracted, of the full maps'
    homology and defects.  A cell's column is a closed loop, so a cycle,
    and the all-ones map kills every arc's column, so both composites are
    zero by construction.  Pairing each non-root vertex with its first
    in-arc, from the level above, is an acyclic matching (Forman;
    Skoldberg): parent chains lower depth.  No arc is paired with a 2-cell,
    so d2 is boundary2 on the other arcs, in arc order; a path from such
    an arc meets the root with +1 and -1, so d1 = 0 and degree 0 keeps
    Betti number 1 and no torsion.  The cycles of Z^E project
    isomorphically onto the other arcs and Z^E / im boundary2 is H1 plus a
    free part: d2 has boundary2's rank and factors above 1.  The matching
    sends each vertex to the root along tree arcs, so e is the all-ones
    map's column at the root, [1]."""
    reached = [True] + [False] * (len(ball.vertices) - 1)  # root: no arc
    row = {}                # non-tree arc -> its row of d2
    for k, (s, d, _a) in enumerate(ball.arcs):
        if reached[d]:
            row[k] = len(row)
        elif ball.depth[s] != ball.depth[d] - 1:
            raise CayleyError(f"vertex {d} has no BFS tree arc")
        else:
            reached[d] = True
    if not all(reached):
        raise CayleyError("a vertex of the ball has no arc into it")
    return (SparseIntMatrix(1, 1, {(0, 0): 1}), SparseIntMatrix(1, len(row)),
            _cell_boundary(cells, row, len(row)))
