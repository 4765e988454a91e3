import collections
import contextlib
import io
import json
import os
import random
import tempfile
from dataclasses import dataclass

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from math import gcd

from monoidkit import cli, homology
from monoidkit.cayley import cayley_ball, cayley_complex_chain
from monoidkit.cli import main
from monoidkit.constructions import IncompleteSystemError, completed_solver
from monoidkit.rewriting import Verdict
from monoidkit.words import parse_presentation, validate_special
from monoidkit.homology import (
    CompositeNotZeroError,
    SparseIntMatrix,
    _eliminate,
    chain_homology,
    exactness_check,
    kernel_vector,
    rank_exact,
    smith_normal_form,
)


def M(dense):
    """The sparse matrix with the given rows."""
    rows = len(dense)
    return SparseIntMatrix(rows, len(dense[0]) if rows else 0, {
        (r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)})


def matmul(a, b):
    """The product a b, built whole: the oracle of composes_to_zero."""
    if a.cols != b.rows:
        raise homology.HomologyError("dimension mismatch in product")
    by_row = {}
    for (r, k), v in b.entries.items():
        by_row.setdefault(r, []).append((k, v))
    sums = {}
    for (r, c), v in a.entries.items():
        for k, u in by_row.get(c, ()):
            sums[r, k] = sums.get((r, k), 0) + v * u
    return SparseIntMatrix(a.rows, b.cols, sums)


@dataclass
class InjectivityCertificate:
    rank: int
    edge_count: int
    kernel: list = None


def check_boundary_injective(m):
    """Proven iff rank equals the number of columns (edges); a Refuted
    verdict carries an explicit kernel vector."""
    r = rank_exact(m)
    if r == m.cols:
        return Verdict("proven", [InjectivityCertificate(r, m.cols)], 0)
    ker = kernel_vector(m)
    return Verdict("refuted", [InjectivityCertificate(r, m.cols, ker)], 0)


def _to_dense(m):
    dense = [[0] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        dense[r][c] = v
    return dense


# Test-only oracles: the dense Bareiss rank and the dense Smith normal form
# that the sparse elimination core replaced, kept as they were.


def oracle_rank_bareiss(m: SparseIntMatrix) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    a = _to_dense(m)
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
        rank += 1
        if r == rows:
            break
    return rank


def oracle_smith_dense(m: SparseIntMatrix) -> tuple:
    """Invariant factors by elementary row/column operations with
    smallest-absolute-value pivot selection."""
    a = _to_dense(m)
    rows, cols = m.rows, m.cols
    diag = []
    top = 0
    while True:
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = a[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[top], row[pj] = row[pj], row[top]
        # clear row and column below/right of (top, top)
        dirty = False
        for i in range(top + 1, rows):
            if a[i][top]:
                q = a[i][top] // a[top][top]
                for j in range(top, cols):
                    a[i][j] -= q * a[top][j]
                if a[i][top]:
                    dirty = True
        for j in range(top + 1, cols):
            if a[top][j]:
                q = a[top][j] // a[top][top]
                for i in range(top, rows):
                    a[i][j] -= q * a[i][top]
                if a[top][j]:
                    dirty = True
        if dirty:
            continue  # a smaller pivot appeared; redo this corner
        # enforce divisibility: pivot must divide every remaining entry
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if a[i][j] % a[top][top]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, cols):
                a[top][j] += a[offender][j]
            continue
        diag.append(abs(a[top][top]))
        top += 1
        if top == rows or top == cols:
            break
    return tuple(diag)


# Test-only oracle for the pivot heap: the elimination core as it was
# when each pivot was found by a scan over every remaining non-zero.


def oracle_eliminate_scan(m: SparseIntMatrix, _record=False):
    """Sparse integer elimination to Smith normal form.

    Each step takes the non-zero of smallest absolute value as pivot (ties:
    least Markowitz cost (r-1)(c-1) from the counts r, c of non-zeros in its
    row and column, then smallest (row, col)), clears its column by row
    operations and its row by column operations, and picks again if a
    remainder is left.  An isolated pivot that does not divide every other
    entry gets the offending row added to its own row and is cleared again.
    Unit pivots come first, so tree edges of a Cayley complex contract
    without a separate collapse.  Returns the invariant factors
    d1 | d2 | ..., the pivot columns and, with _record, the column
    transform T (a dict of sparse columns) such that U @ m @ T is the
    reduced matrix for some unimodular U.
    """
    rows, cols = {}, {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, {})[r] = v
    transform = {c: {c: 1} for c in range(m.cols)} if _record else None

    def put(r, c, v):
        if v:
            rows.setdefault(r, {})[c] = cols.setdefault(c, {})[r] = v
            return
        del rows[r][c], cols[c][r]
        if not rows[r]:
            del rows[r]
        if not cols[c]:
            del cols[c]

    def add_row(dst, src, f):  # row dst += f * row src
        for c, v in list(rows[src].items()):
            put(dst, c, rows.get(dst, {}).get(c, 0) + f * v)

    def clear(p, q):
        d = rows[p][q]
        for r in [r for r in cols[q] if r != p]:
            add_row(r, p, -(cols[q][r] // d))
        for c in [c for c in rows[p] if c != q]:
            f = -(rows[p][c] // d)
            for r, v in list(cols[q].items()):
                put(r, c, cols.get(c, {}).get(r, 0) + f * v)
            if transform is not None:
                col = transform[c]
                for i, v in transform[q].items():
                    col[i] = col.get(i, 0) + f * v
                    if not col[i]:
                        del col[i]
        return len(rows[p]) > 1 or len(cols[q]) > 1

    diag, pivot_cols = [], []
    while rows:
        _, _, p, q = min(
            (abs(v), (len(row) - 1) * (len(cols[c]) - 1), r, c)
            for r, row in rows.items() for c, v in row.items())
        if clear(p, q):
            continue  # a smaller entry appeared; pick again
        d = rows[p][q]
        offender = None
        if abs(d) > 1:
            offender = next((r for r, row in rows.items()
                             if any(v % d for v in row.values())), None)
        if offender is not None:
            add_row(p, offender, 1)
            clear(p, q)  # leaves a remainder smaller than |d|
            continue
        put(p, q, 0)
        diag.append(abs(d))
        pivot_cols.append(q)
    return tuple(diag), pivot_cols, transform


def determinantal_divisors(dense, rows, cols):
    """Oracle for Smith factors: d_k = gcd of all k x k minors; the k-th
    invariant factor is d_k / d_{k-1}."""
    from itertools import combinations

    def minor_det(rs, cs):
        sub = [[dense[r][c] for c in cs] for r in rs]
        n = len(sub)
        if n == 1:
            return sub[0][0]
        det = 0
        for j in range(n):
            if sub[0][j]:
                rest = [row[:j] + row[j + 1:] for row in sub[1:]]
                det += (-1) ** j * sub[0][j] * _det(rest)
        return det

    def _det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        det = 0
        for j in range(n):
            if m[0][j]:
                rest = [row[:j] + row[j + 1:] for row in m[1:]]
                det += (-1) ** j * m[0][j] * _det(rest)
        return det

    divisors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, minor_det(rs, cs))
        if g == 0:
            break
        divisors.append(g)
    factors = []
    prev = 1
    for d in divisors:
        factors.append(d // prev)
        prev = d
    return factors


# Test-only oracle for exactness read from homology: the two reports as
# they were computed side by side, homology from the Smith forms of the
# boundaries and exactness from the ranks of the maps.


def _oracle_homology(boundaries, forms):
    dims = [b.rows for b in boundaries]
    if boundaries:
        dims.append(boundaries[-1].cols)
    out = []
    for i, dim in enumerate(dims):
        rank_in = len(forms[i]) if i < len(forms) else 0  # into C_i
        rank_out = len(forms[i - 1]) if i > 0 else 0      # out of C_i
        betti = dim - rank_out - rank_in
        torsion = [d for d in forms[i] if d > 1] if i < len(forms) else ()
        out.append({"degree": i, "betti": betti, "torsion": list(torsion)})
    return out


def _oracle_exactness(maps, ranks, augmentation):
    defects = []
    for i in range(1, len(maps)):
        nullity = maps[i].cols - ranks[i]
        defects.append({"slot": i, "defect": nullity - ranks[i - 1]})
    report = {
        "defects": defects,
        "total_defect": sum(d["defect"] for d in defects),
        "left_kernel_dim": maps[0].cols - ranks[0],
    }
    if augmentation is not None:
        aug_defect = augmentation.rows - ranks[-1]
        report["augmentation_defect"] = aug_defect
        report["total_defect"] += aug_defect
    return report


def oracle_homology_and_exactness(boundaries, augmentation=None):
    """chain_homology(boundaries) and exactness_check of it with
    augmentation, the exactness report from the rank of every map."""
    maps = boundaries[::-1] + ([] if augmentation is None else [augmentation])
    forms = [smith_normal_form(b) for b in boundaries]
    return (_oracle_homology(boundaries, forms),
            _oracle_exactness(maps, [rank_exact(m) for m in maps],
                              augmentation))


def from_triplets(text):
    """The matrix whose to_triplets() is text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows, cols, nnz = (int(x) for x in lines[0].split())
    entries = {}
    for ln in lines[1:nnz + 1]:
        r, c, v = ln.split()
        entries[int(r), int(c)] = int(v)
    return SparseIntMatrix(rows, cols, entries)


@pytest.mark.parametrize("key", [(2, 0), (0, 2), (-1, 0), (0, -1)])
@pytest.mark.parametrize("value", [1, 0])
def test_matrix_rejects_entries_outside_its_shape(key, value):
    with pytest.raises(IndexError):
        SparseIntMatrix(2, 2, {(0, 0): 1, key: value})


def test_matrix_drops_zeros_and_stores_ints():
    m = SparseIntMatrix(2, 3, {(0, 0): 0, (0, 2): True, (1, 1): -4})
    assert m.entries == {(0, 2): 1, (1, 1): -4}
    assert all(type(v) is int for v in m.entries.values())
    assert SparseIntMatrix(2, 3, {(1, 2): 0}) == SparseIntMatrix(2, 3)


def test_matrix_roundtrip_triplets():
    m = M([[0, 2], [-3, 0], [0, 0]])
    again = from_triplets(m.to_triplets())
    assert again == m
    assert m.to_triplets().splitlines()[0] == "3 2 2"


def test_matrix_product_and_zero():
    a = M([[1, 2], [0, 1]])
    b = M([[1, -2], [0, 1]])
    assert matmul(a, b) == M([[1, 0], [0, 1]])
    assert not matmul(a, SparseIntMatrix(2, 3)).entries


def test_rank_examples():
    assert rank_exact(M([[1, 2], [2, 4]])) == 1
    assert rank_exact(M([[1, 0], [0, 1]])) == 2
    assert rank_exact(SparseIntMatrix(3, 3)) == 0
    # path graph on 4 vertices: incidence has rank 3
    path = M([[-1, 0, 0], [1, -1, 0], [0, 1, -1], [0, 0, 1]])
    assert rank_exact(path) == 3
    # 3-cycle incidence: rank 2 (one circuit)
    cyc = M([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    assert rank_exact(cyc) == 2


def test_kernel_vector():
    m = M([[1, 2], [2, 4]])
    v = kernel_vector(m)
    assert v is not None
    assert all(sum(m.entries.get((r, c), 0) * v[c] for c in range(2)) == 0
               for r in range(2))
    assert kernel_vector(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) is None


def test_smith_small():
    assert smith_normal_form(M([[2, 0], [0, 3]])) == (1, 6)
    assert smith_normal_form(M([[2, 4], [6, 8]])) == (2, 4)
    assert smith_normal_form(SparseIntMatrix(2, 2)) == ()
    assert smith_normal_form(M([[6]])) == (6,)


def test_smith_matches_determinantal_divisors_random():
    rng = random.Random(12345)
    for _ in range(200):
        dense = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        got = list(smith_normal_form(M(dense)))
        want = determinantal_divisors(dense, 5, 5)
        assert got == want, (dense, got, want)


def test_check_boundary_injective():
    tree = M([[-1, 0], [1, -1], [0, 1]])
    v = check_boundary_injective(tree)
    assert v.proven
    cyc = M([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    v = check_boundary_injective(cyc)
    assert v.refuted
    ker = v.witness[0].kernel
    assert any(ker)
    assert all(
        sum(cyc.entries.get((r, c), 0) * ker[c] for c in range(3)) == 0
        for r in range(3))


def test_chain_homology_circle():
    # S^1 as one vertex, one loop edge: boundary1 = 0
    b1 = SparseIntMatrix(1, 1)
    h = chain_homology([b1])
    assert h[0]["betti"] == 1 and h[1]["betti"] == 1
    assert h[0]["torsion"] == []


def test_chain_homology_disk_degree_two():
    # one vertex, one loop, one 2-cell attached along the loop twice:
    # H_1 = Z/2
    b1 = SparseIntMatrix(1, 1)
    b2 = M([[2]])
    h = chain_homology([b1, b2])
    assert h[0]["betti"] == 1
    assert h[1]["betti"] == 0 and h[1]["torsion"] == [2]
    assert h[2]["betti"] == 0


def test_chain_homology_rejects_bad_composite():
    with pytest.raises(CompositeNotZeroError):
        chain_homology([M([[1]]), M([[1]])])


def test_a_non_complex_is_rejected():
    # d1 @ d2 = [[1]] != 0: not a chain complex
    d1, d2 = M([[1, 0]]), M([[1], [0]])
    with pytest.raises(CompositeNotZeroError):
        chain_homology([d1, d2])
    # the composite into the augmentation is checked by exactness_check
    with pytest.raises(CompositeNotZeroError):
        exactness_check(chain_homology([M([[1]])]), M([[1]]), M([[1]]))


def test_exactness_check_exact_pair():
    # Z -2-> Z -0-> Z/... not expressible; use free example:
    # 0 exact slot: C2=Z --(1,0)^T--> C1=Z^2 --(0,1)--> C0=Z
    b2 = M([[1], [0]])
    b1 = M([[0, 1]])
    rep = exactness_check(chain_homology([b1, b2]), b1)
    assert rep["total_defect"] == 0
    assert rep["left_kernel_dim"] == 0


def test_exactness_check_defect():
    # C2=0 step omitted; single map with a kernel shows up at the left end,
    # a middle slot defect comes from a non-surjective-into-kernel pair
    b2 = M([[0], [0]])  # image 0
    b1 = M([[1, 0]])    # kernel dim 1
    rep = exactness_check(chain_homology([b1, b2]), b1)
    assert rep["defects"] == [{"slot": 1, "defect": 1}]
    assert rep["total_defect"] == 1
    assert rep["left_kernel_dim"] == 1


def test_exactness_check_augmentation():
    # C1=Z --0--> C0=Z --1--> Z: augmentation surjective and its kernel is 0,
    # so the C0 slot is exact too
    b1 = SparseIntMatrix(1, 1)
    rep = exactness_check(chain_homology([b1]), b1, M([[1]]))
    assert rep["augmentation_defect"] == 0
    assert rep["total_defect"] == 0


@st.composite
def small_matrices(draw):
    """0x0 to 7x7 (0xn and nx0 included), entries -6..6, mostly zero."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    entry = st.integers(-18, 18).map(lambda x: x if abs(x) <= 6 else 0)
    values = draw(st.lists(entry, min_size=rows * cols,
                           max_size=rows * cols))
    return SparseIntMatrix(rows, cols, {
        divmod(k, cols): v for k, v in enumerate(values) if v})


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_elimination_core_matches_dense_oracles(m):
    rank = rank_exact(m)
    assert smith_normal_form(m) == oracle_smith_dense(m)
    assert rank == oracle_rank_bareiss(m)
    v = kernel_vector(m)
    if rank == m.cols:
        assert v is None
        return
    assert len(v) == m.cols and any(v)
    assert all(isinstance(x, int) for x in v)
    g = 0
    for x in v:
        g = gcd(g, x)
    assert g == 1
    column = SparseIntMatrix(m.cols, 1, {(i, 0): x for i, x in enumerate(v)})
    assert not matmul(m, column).entries


def _cayley_boundaries(relator, radius):
    """(d1, d2) of the Cayley 2-complex of <letters | relator = 1> on the
    ball of the given radius, with margin |relator|."""
    letters = " ".join(sorted(set(relator)))
    sp = validate_special(parse_presentation(
        f"letters: {letters}\nrel: {' '.join(relator)} = 1\n"))
    solver, _ = completed_solver(sp.base)
    g = cayley_ball(solver, sp.base.alphabet, radius, len(relator))
    export = cayley_complex_chain(sp, g)
    return export.boundary1, export.boundary2


@pytest.mark.parametrize("relator,radius", [
    *(("ab", r) for r in range(6, 13)),
    ("abab", 6), ("aab", 7), ("abc", 4), ("aaaaa", 12)])
def test_smith_matches_sympy_on_cayley_boundaries(relator, radius):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for m in _cayley_boundaries(relator, radius):
        want = tuple(abs(int(d)) for d in invariant_factors(
            sympy.Matrix(_to_dense(m)), domain=sympy.ZZ) if d)
        assert smith_normal_form(m) == want
        assert rank_exact(m) == len(want)


@settings(max_examples=400, deadline=None)
@given(small_matrices())
@example(M([[2, 3]]))            # a remainder: 3 - 2 = 1 is picked next
@example(M([[2, 0], [0, 3]]))    # an offender: 2 does not divide 3
@example(M([[4, 6, 0], [6, 9, 2], [0, 2, 5]]))
def test_pivot_heap_matches_scan_oracle(m):
    """The heap picks the scan's pivots in the scan's order: same invariant
    factors, same pivot columns and the same column transform."""
    assert _eliminate(m, _record=True) == oracle_eliminate_scan(m, _record=True)
    assert _eliminate(m) == oracle_eliminate_scan(m)


@pytest.mark.parametrize("relator,radius", [
    ("ab", 30), ("abab", 8), ("aab", 9), ("aaaaa", 20)])
def test_homology_artifact_unchanged_by_pivot_heap(
        relator, radius, tmp_path, capsys, monkeypatch):
    f = tmp_path / "p.txt"
    f.write_text(f"letters: {' '.join(sorted(set(relator)))}\n"
                 f"rel: {' '.join(relator)} = 1\n")
    argv = ["homology", "--presentation", str(f), "--radius", str(radius)]
    heap_rc = main(argv)
    heap_out = capsys.readouterr().out
    monkeypatch.setattr(homology, "_eliminate", oracle_eliminate_scan)
    assert main(argv) == heap_rc
    assert capsys.readouterr().out == heap_out


@pytest.mark.parametrize("relator,radius", [
    ("ab", 30), ("abab", 8), ("aab", 9), ("aaaaa", 20), ("aba", 5),
    ("abba", 5), ("abc", 4), ("aabb", 0), ("aabb", 1)])
def test_homology_artifact_unchanged_by_tree_contraction(
        relator, radius, tmp_path, capsys, monkeypatch):
    """homology eliminates the complex of the relator cells with its BFS
    tree contracted; with the full maps and the all-ones augmentation it
    writes the same artifact and exits the same."""
    text = (f"letters: {' '.join(sorted(set(relator)))}\n"
            f"rel: {' '.join(relator)} = 1\n")
    f = tmp_path / "p.txt"
    f.write_text(text)
    argv = ["homology", "--presentation", str(f), "--radius", str(radius),
            "--budget", "20000"]
    contracted_rc = main(argv)
    contracted_out = capsys.readouterr().out

    def full_maps(ball, cells):
        export = cayley_complex_chain(
            validate_special(parse_presentation(text)), ball)
        assert export.cell_base_vertices == [v for v, _ in cells]
        return export.augmentation, export.boundary1, export.boundary2

    monkeypatch.setattr(cli, "contract_tree", full_maps)
    assert main(argv) == contracted_rc
    assert capsys.readouterr().out == contracted_out


def _dense_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _sparse(dense, rows, cols):
    return SparseIntMatrix(rows, cols, {
        (r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)
        if v})


@st.composite
def chain_complexes(draw):
    """(seq, augmentation): k = 1..3 boundary maps from the top degree down
    with every composite zero, and an optional augmentation that kills the
    image of the lowest map.

    Each degree's basis is split into sources, which a map sends to a
    non-zero multiple (torsion included) of one target basis vector of the
    degree below, targets and free vectors; so consecutive maps compose
    to zero.  Each degree then gets a random unimodular change of basis U,
    d -> U_below d U^-1, which keeps the composites zero."""
    k = draw(st.integers(1, 3))
    pairs = [draw(st.integers(0, 2)) for _ in range(k)]  # degree j+1 -> j
    free = [draw(st.integers(0, 2)) for _ in range(k + 1)]
    dims = [(pairs[j - 1] if j else 0) + free[j]
            + (pairs[j] if j < k else 0) for j in range(k + 1)]
    # degree j lists its targets, then its free vectors, then its sources

    def change_of_basis(n):
        u = [[int(r == c) for c in range(n)] for r in range(n)]
        inv = [row[:] for row in u]
        for _ in range(draw(st.integers(0, 2 * n)) if n > 1 else 0):
            i, j = draw(st.permutations(range(n)))[:2]
            f = draw(st.integers(-2, 2))
            for row in u:        # column i += f * column j
                row[i] += f * row[j]
            inv[j] = [a - f * b for a, b in zip(inv[j], inv[i])]
        return u, inv          # u @ inv = 1

    bases = [change_of_basis(n) for n in dims]
    maps = []                 # maps[j]: degree j+1 -> degree j
    for j in range(k):
        d = [[0] * dims[j + 1] for _ in range(dims[j])]
        for p in range(pairs[j]):
            d[p][dims[j + 1] - pairs[j] + p] = draw(
                st.sampled_from([1, -1, 2, 3, -4]))
        d = _dense_product(_dense_product(bases[j][0], d), bases[j + 1][1])
        maps.append(_sparse(d, dims[j], dims[j + 1]))
    augmentation = None
    if draw(st.booleans()):
        rows = draw(st.integers(1, 2))
        e = [[0] * pairs[0] + [draw(st.integers(-2, 2))
                               for _ in range(dims[0] - pairs[0])]
             for _ in range(rows)]
        augmentation = _sparse(_dense_product(e, bases[0][1]) if dims[0]
                               else e, rows, dims[0])
    return maps[::-1], augmentation


@settings(max_examples=300, deadline=None)
@given(chain_complexes())
def test_exactness_read_from_homology_matches_oracle(case):
    seq, augmentation = case
    maps = seq[::-1]
    want_homology, want_exact = oracle_homology_and_exactness(
        maps, augmentation)
    assert chain_homology(maps) == want_homology
    assert exactness_check(chain_homology(maps), maps[0],
                           augmentation) == want_exact


@settings(max_examples=60, deadline=None)
@given(st.text("ab", min_size=1, max_size=5), st.integers(1, 6))
def test_homology_artifact_matches_oracle(relator, radius):
    """The homology command on <a, b | relator = 1>, against the oracle on
    the same Cayley complex."""
    text = f"letters: a b\nrel: {' '.join(relator)} = 1\n"
    sp = validate_special(parse_presentation(text))
    try:
        solver, _ = completed_solver(sp.base, 1000)
    except IncompleteSystemError:
        assume(False)   # e.g. abba: no finite shortlex system
    export = cayley_complex_chain(
        sp, cayley_ball(solver, sp.base.alphabet, radius, len(relator)))
    b1, b2, augmentation = (export.boundary1, export.boundary2,
                            export.augmentation)
    want_homology, want_exact = oracle_homology_and_exactness(
        [b1, b2], augmentation)
    assert exactness_check(chain_homology([b1, b2]), b1,
                           augmentation) == want_exact
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "p.txt")
        with open(path, "w") as f:
            f.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["homology", "--presentation", path,
                       "--radius", str(radius), "--budget", "1000"])
    assert json.loads(out.getvalue()) == {"homology": want_homology,
                                          "exactness": want_exact}
    assert rc == (1 if want_exact["total_defect"] else 0)


def test_one_pass_per_cayley_homology_job(tmp_path, monkeypatch):
    """One round of the cayley-homology benchmark workload, seed 1: 22
    homology and 22 chain jobs.  Each chain job checks that boundary1
    composes with boundary2 to zero (22 checks that sum entries); each
    homology job builds neither boundary1 nor the augmentation, and checks
    only the composites of the contracted complex, chain_homology's and
    exactness_check's, whose d1 has no entry (44, answered at once), takes
    the Smith forms of its two contracted boundaries (44) and the rank of
    its contracted augmentation, a 1 x 1 map (22)."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
    import workloads

    jobs = workloads.build("cayley-homology", 1, str(tmp_path))
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(m):
            calls[name] += 1
            if name == "rank_exact":
                calls[name, m.rows, m.cols] += 1
            return f(m)
        return wrapper

    composes = SparseIntMatrix.composes_to_zero

    def counted_composes(left, right):
        calls["composes"] += 1
        calls["composes_summed"] += bool(left.entries and right.entries)
        return composes(left, right)

    monkeypatch.setattr(SparseIntMatrix, "composes_to_zero", counted_composes)
    for name in ("smith_normal_form", "rank_exact"):
        monkeypatch.setattr(homology, name,
                            counted(name, getattr(homology, name)))
    for job in jobs:
        assert job.run()[0] == 0
    assert len(jobs) == 44
    assert calls == {"composes": 66, "composes_summed": 22,
                     "smith_normal_form": 44, "rank_exact": 22,
                     ("rank_exact", 1, 1): 22}


@st.composite
def matrix_pairs(draw):
    """(a, b) of shapes r x n and n x c: two consecutive maps of a random
    complex, which compose to zero, or two random matrices with entries in
    -2..2, whose product is mostly not zero."""
    if draw(st.booleans()):
        seq = draw(chain_complexes())[0]     # from the top degree down
        if len(seq) > 1:
            i = draw(st.integers(0, len(seq) - 2))
            return seq[i + 1], seq[i]

    def matrix(rows, cols):
        return SparseIntMatrix(rows, cols, draw(st.dictionaries(st.tuples(
            st.integers(0, rows - 1), st.integers(0, cols - 1)),
            st.integers(-2, 2), max_size=6)) if rows and cols else {})

    r, n, c = (draw(st.integers(0, 3)) for _ in range(3))
    return matrix(r, n), matrix(n, c)


@settings(max_examples=400, deadline=None)
@given(matrix_pairs())
@example((M([[1, 1]]), M([[1], [-1]])))     # 1 - 1: zero only in the sum
@example((M([[1, 2], [0, 3]]), M([[2, 0], [-1, 0]])))    # one of two cancels
def test_composes_to_zero_matches_the_product(pair):
    """composes_to_zero answers as the product built whole; an operand
    with no entries answers at once, and shapes that do not match raise
    as the product does."""
    a, b = pair
    assert a.composes_to_zero(b) == (not matmul(a, b).entries)
    assert SparseIntMatrix(a.rows, a.cols).composes_to_zero(b)
    assert a.composes_to_zero(SparseIntMatrix(b.rows, b.cols))
    for x, y in ((a, SparseIntMatrix(b.rows + 1, b.cols, b.entries)),
                 (SparseIntMatrix(a.rows, a.cols + 1, a.entries), b),
                 (SparseIntMatrix(a.rows, a.cols + 1), b)):
        with pytest.raises(homology.HomologyError):
            matmul(x, y)
        with pytest.raises(homology.HomologyError):
            x.composes_to_zero(y)
