"""Exact integer linear algebra: sparse matrices, one sparse elimination
core for rank, kernel vectors and Smith normal form, and homology of
finite chain complexes.

Exactness is read from homology: each defect is a Betti number of the
complex augmented by its optional augmentation.

The elimination core takes its Markowitz-ordered pivots from a lazy
min-heap rather than a scan over every non-zero, so the pivot order is
the scan's and the cost stays near-linear on Cayley complexes, where
almost every pivot is a unit.  All arithmetic uses Python's
arbitrary-precision integers; nothing here can overflow or round.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


class HomologyError(Exception):
    pass


class CompositeNotZeroError(HomologyError):
    pass


class SparseIntMatrix:
    """Integer matrix stored as a (row, col) -> value map of non-zeros,
    built once from its finished entries and never written afterwards."""

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        entries = entries or {}
        for r, c in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError((r, c))
        self.entries: dict[tuple[int, int], int] = {
            rc: int(v) for rc, v in entries.items() if v}

    def __eq__(self, other):
        return (isinstance(other, SparseIntMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def composes_to_zero(self, other: "SparseIntMatrix") -> bool:
        """Whether the product of self and other is zero: its entries summed
        exactly by the columns of self, with no result matrix built."""
        if self.cols != other.rows:
            raise HomologyError("dimension mismatch in product")
        if not (self.entries and other.entries):
            return True
        n = other.cols      # entry (r, k) of the product is summed at r n + k
        by_col = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r * n, v))
        sums = {}
        for (c, k), u in other.entries.items():
            for rn, v in by_col.get(c, ()):
                sums[rn + k] = sums.get(rn + k, 0) + v * u
        return not any(sums.values())

    def to_triplets(self) -> str:
        """Coordinate text format: header 'rows cols nnz', then 'r c v' lines."""
        lines = [f"{self.rows} {self.cols} {len(self.entries)}"]
        for (r, c) in sorted(self.entries):
            lines.append(f"{r} {c} {self.entries[r, c]}")
        return "\n".join(lines) + "\n"


def _eliminate(m: SparseIntMatrix, _record=False):
    """Sparse integer elimination to Smith normal form.

    Each step takes the non-zero of smallest absolute value as pivot (ties:
    least Markowitz cost (r-1)(c-1) from the counts r, c of non-zeros in its
    row and column, then smallest (row, col)), clears its column by row
    operations and its row by column operations, and picks again if a
    remainder is left.  An isolated pivot that does not divide every other
    entry gets the offending row added to its own row and is cleared again.
    Unit pivots come first.  Returns the invariant factors
    d1 | d2 | ..., the pivot columns and, with _record, the column
    transform T (a dict of sparse columns) such that the product U m T is the
    reduced matrix for some unimodular U.

    Pivots come from a lazy min-heap of keys (|v|, cost, row, col).  An
    entry's key changes only through a write to its row or its column, and
    every write marks both dirty; before each pick the current key of every
    entry in a dirty row or column is pushed.  So every live entry has its
    current key in the heap, and the first key on top that still matches a
    live entry (same |v|, same cost) is the least key of all live entries:
    the pivot a scan of every non-zero would pick.  Keys that no longer
    match are popped and dropped, and once the heap has grown to twice its
    size at its last build it is rebuilt from the live entries alone.
    """
    rows, cols = {}, {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
        cols.setdefault(c, {})[r] = v
    transform = {c: {c: 1} for c in range(m.cols)} if _record else None
    dirty_rows, dirty_cols = set(), set()

    def put(r, c, v):
        dirty_rows.add(r)
        dirty_cols.add(c)
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

    def live_keys(pairs):
        return [(abs(rows[r][c]), (len(rows[r]) - 1) * (len(cols[c]) - 1),
                 r, c) for r, c in pairs]

    heap, rebuild_at = [], -1  # built from the live entries on entry
    diag, pivot_cols = [], []
    while rows:
        if len(heap) > rebuild_at:
            heap = live_keys((r, c) for r, row in rows.items() for c in row)
            heapify(heap)
            rebuild_at = 2 * len(heap)
        else:
            fresh = {(r, c) for r in dirty_rows if r in rows for c in rows[r]}
            fresh.update((r, c) for c in dirty_cols if c in cols
                         for r in cols[c])
            for key in live_keys(fresh):
                heappush(heap, key)
        dirty_rows.clear()
        dirty_cols.clear()
        while True:
            size, cost, p, q = heap[0]
            row = rows.get(p)
            if (row is not None and q in row and abs(row[q]) == size
                    and (len(row) - 1) * (len(cols[q]) - 1) == cost):
                break
            heappop(heap)  # stale: the entry changed or is gone
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


def rank_exact(m: SparseIntMatrix) -> int:
    """Rank over the rationals: the number of invariant factors."""
    return len(_eliminate(m)[0])


def kernel_vector(m: SparseIntMatrix):
    """An integer vector v != 0 with m v = 0 and gcd 1, or None if m is
    injective: the first non-pivot column of the column transform."""
    _, pivot_cols, transform = _eliminate(m, _record=True)
    free = set(range(m.cols)).difference(pivot_cols)
    if not free:
        return None
    column = transform[min(free)]
    v = [column.get(i, 0) for i in range(m.cols)]
    g = 0
    for x in v:
        g = gcd(g, x)
    return [x // g for x in v]


def smith_normal_form(m: SparseIntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of m; the rank is their number."""
    return _eliminate(m)[0]


def _require_zero_composites(maps):
    """maps run from the top degree down; each composite must vanish."""
    for upper, lower in zip(maps, maps[1:]):
        if not lower.composes_to_zero(upper):
            raise CompositeNotZeroError(
                "consecutive maps do not compose to zero")


def chain_homology(boundaries: list[SparseIntMatrix]):
    """Betti numbers and torsion of a finite chain complex.

    boundaries[i] is the map from degree-(i+1) chains to degree-i chains
    (rows = rank of C_i, cols = rank of C_{i+1}).  The top degree is
    len(boundaries).
    """
    _require_zero_composites(boundaries[::-1])
    forms = [smith_normal_form(b) for b in boundaries]
    dims = [b.rows for b in boundaries] + [b.cols for b in boundaries[-1:]]
    ranks = [0] + [len(f) for f in forms] + [0]  # out of C_i, then into it
    return [{"degree": i, "betti": dim - ranks[i] - ranks[i + 1],
             "torsion": [d for d in forms[i] if d > 1] if i < len(forms)
             else []} for i, dim in enumerate(dims)]


def exactness_check(homology, last, augmentation=None):
    """Exactness defects of a finite truncation  C_k -> ... -> C_0 [-> Z],
    read from chain_homology's list.  An interior slot's defect is its
    Betti number; the kernel dimension at the top end is reported apart,
    since a truncated complex makes no claim there.  last is the map into
    the lowest degree, where the augmentation e starts: e must compose with
    it to zero, lowers the bottom defect by rank e and adds its cokernel."""
    betti = [h["betti"] for h in reversed(homology)]
    defects = [{"slot": i, "defect": betti[i]}
               for i in range(1, len(betti) - 1)]
    report = {"defects": defects, "left_kernel_dim": betti[0]}
    cokernel = 0
    if augmentation is not None:
        _require_zero_composites([last, augmentation])
        rank = rank_exact(augmentation)
        defects.append({"slot": len(betti) - 1, "defect": betti[-1] - rank})
        cokernel = report["augmentation_defect"] = augmentation.rows - rank
    report["total_defect"] = sum(d["defect"] for d in defects) + cokernel
    return report
