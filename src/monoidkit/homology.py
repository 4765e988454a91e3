"""Exact integer linear algebra: sparse matrices, fraction-free rank,
Smith normal form, boundary-injectivity certificates, and homology of
finite chain complexes.

All arithmetic uses Python's arbitrary-precision integers; nothing here
can overflow or round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd


class HomologyError(Exception):
    pass


class CompositeNotZeroError(HomologyError):
    pass


class SparseIntMatrix:
    """Integer matrix stored as a (row, col) -> value map of non-zeros."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], int] = {}
        if entries:
            for (r, c), v in dict(entries).items():
                self[r, c] = v

    def __getitem__(self, rc):
        return self.entries.get(rc, 0)

    def __setitem__(self, rc, v):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(rc)
        if v == 0:
            self.entries.pop(rc, None)
        else:
            self.entries[rc] = int(v)

    def add_at(self, r, c, v):
        self[r, c] = self[r, c] + v

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __matmul__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise HomologyError("dimension mismatch in product")
        by_row = {}
        for (r, k), v in other.entries.items():
            by_row.setdefault(r, []).append((k, v))
        out = SparseIntMatrix(self.rows, other.cols)
        for (r, c), v in self.entries.items():
            for k, u in by_row.get(c, ()):
                out.add_at(r, k, v * u)
        return out

    def is_zero(self):
        return not self.entries

    def to_dense(self):
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            dense[r][c] = v
        return dense

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        m = cls(rows, cols)
        for r, row in enumerate(dense):
            for c, v in enumerate(row):
                if v:
                    m[r, c] = v
        return m

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def to_triplets(self) -> str:
        """Coordinate text format: header 'rows cols nnz', then 'r c v' lines."""
        lines = [f"{self.rows} {self.cols} {len(self.entries)}"]
        for (r, c) in sorted(self.entries):
            lines.append(f"{r} {c} {self.entries[r, c]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_triplets(cls, text: str) -> "SparseIntMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        rows, cols, nnz = (int(x) for x in lines[0].split())
        m = cls(rows, cols)
        for ln in lines[1:nnz + 1]:
            r, c, v = ln.split()
            m[int(r), int(c)] = int(v)
        return m


@dataclass
class SmithForm:
    diag: tuple[int, ...]  # invariant factors d1 | d2 | ...
    rank: int

    def torsion(self):
        return tuple(d for d in self.diag if d > 1)

    def to_json(self):
        return {"invariant_factors": list(self.diag), "rank": self.rank}


def rank_exact(m: SparseIntMatrix) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    a = m.to_dense()
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


def kernel_vector(m: SparseIntMatrix):
    """An integer vector v != 0 with m @ v = 0, or None if injective."""
    rows, cols = m.rows, m.cols
    a = [[Fraction(v) for v in row] for row in m.to_dense()]
    pivots = {}  # col -> row
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
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return None
    c0 = free[0]
    v = [Fraction(0)] * cols
    v[c0] = Fraction(1)
    for c, row in pivots.items():
        v[c] = -a[row][c0]
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints]


def smith_normal_form(m: SparseIntMatrix) -> SmithForm:
    """Invariant factors by elementary row/column operations with
    smallest-absolute-value pivot selection."""
    a = m.to_dense()
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
    return SmithForm(tuple(diag), len(diag))


@dataclass
class InjectivityCertificate:
    rank: int
    edge_count: int
    kernel: list = None

    def to_json(self):
        out = {"rank": self.rank, "edges": self.edge_count}
        if self.kernel is not None:
            out["kernel_vector"] = self.kernel
        return out


def check_boundary_injective(m: SparseIntMatrix):
    """Proven iff rank equals the number of columns (edges); a Refuted
    verdict carries an explicit kernel vector."""
    from .rewriting import Verdict

    r = rank_exact(m)
    if r == m.cols:
        return Verdict("proven", [InjectivityCertificate(r, m.cols)], 0)
    ker = kernel_vector(m)
    return Verdict("refuted", [InjectivityCertificate(r, m.cols, ker)], 0)


def chain_homology(boundaries: list[SparseIntMatrix]):
    """Betti numbers and torsion of a finite chain complex.

    boundaries[i] is the map from degree-(i+1) chains to degree-i chains
    (rows = rank of C_i, cols = rank of C_{i+1}).  The top degree is
    len(boundaries).
    """
    for lower, upper in zip(boundaries, boundaries[1:]):
        if not (lower @ upper).is_zero():
            raise CompositeNotZeroError("consecutive boundary maps do not compose to zero")
    dims = [b.rows for b in boundaries]
    if boundaries:
        dims.append(boundaries[-1].cols)
    ranks = [rank_exact(b) for b in boundaries]
    out = []
    for i, dim in enumerate(dims):
        rank_in = ranks[i] if i < len(ranks) else 0       # boundary into C_i
        rank_out = ranks[i - 1] if i > 0 else 0           # boundary out of C_i
        betti = dim - rank_out - rank_in
        torsion = smith_normal_form(boundaries[i]).torsion() if i < len(boundaries) else ()
        out.append({"degree": i, "betti": betti, "torsion": list(torsion)})
    return out


def exactness_check(seq: list[SparseIntMatrix], augmentation: SparseIntMatrix = None):
    """Exactness defects of a finite truncation  C_k -> ... -> C_0 [-> Z].

    seq lists boundary maps from the top degree down; each consecutive
    composite must vanish.  Defects are reported at interior slots (the
    codomain of each map except the last); the kernel dimension at the top
    end is reported separately since a truncated complex makes no claim
    there.
    """
    maps = list(seq)
    if augmentation is not None:
        maps.append(augmentation)
    for upper, lower in zip(maps, maps[1:]):
        if not (lower @ upper).is_zero():
            raise CompositeNotZeroError("consecutive composite is non-zero")
    ranks = [rank_exact(m) for m in maps]
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
