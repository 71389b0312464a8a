"""Sparse row reduction over exact rationals, eliminated fraction-free.

Rows are dicts mapping hashable column keys to nonzero rationals (`int` or
`Fraction`).  Each row is scaled to a primitive integer row on entry, and
elimination cross-multiplies integers and divides out the content gcd after
every step (Bareiss, Math. Comp. 22, 1968, without the determinant
bookkeeping), so no `Fraction` arithmetic happens inside the loop.

Columns are eliminated in a caller-supplied priority order, so membership
questions of the form "does this vector lie in the span modulo the
low-priority columns" reduce to inspecting the residue support.  `reduce`
returns that residue only up to a nonzero scalar; its support is canonical,
because the residue modulo an echelon basis under a fixed column priority is
unique.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Hashable, Mapping

Row = dict[Hashable, int]


def _divide_content(row: dict[int, int]) -> None:
    g = gcd(*row.values())  # 0 for an empty row
    if g > 1:
        for k in row:
            row[k] //= g


class SparseEchelon:
    """Incrementally maintained echelon basis of sparse rational rows.

    `col_rank` assigns each column key its elimination priority; smaller
    ranks are pivoted first.  Unknown columns are an error: the caller must
    register the full column universe up front.
    """

    def __init__(self, col_rank: Mapping[Hashable, int]):
        self._rank = col_rank
        self._col: dict[int, Hashable] = {}  # rank -> column key, filled lazily
        # pivot rank -> primitive integer row keyed by rank, positive at the
        # pivot, whose other columns all rank after the pivot
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _reduce(self, row: Mapping[Hashable, int | Fraction]) -> dict[int, int]:
        """The residue of `row` keyed by column rank, as a primitive integer
        row with no pivot column."""
        scale = lcm(*(v.denominator for v in row.values()))
        rank = self._rank
        out = {rank[k]: v.numerator * (scale // v.denominator) for k, v in row.items() if v}
        _divide_content(out)
        pivots = self._pivots
        # clearing a pivot column only brings in columns ranked after it, so a
        # min-heap of the pivot columns present yields them in priority order
        heap = [r for r in out if r in pivots]
        heapify(heap)
        while heap:
            r = heappop(heap)
            c = out.get(r)
            if c is None:  # cancelled since it was pushed
                continue
            prow = pivots[r]
            g = gcd(prow[r], c)
            a, b = prow[r] // g, c // g
            if a != 1:
                for k in out:
                    out[k] *= a
            for k, v in prow.items():
                if k in out:
                    nv = out[k] - b * v
                    if nv:
                        out[k] = nv
                    else:
                        del out[k]
                else:
                    out[k] = -b * v
                    if k in pivots:
                        heappush(heap, k)
            _divide_content(out)
        return out

    def reduce(self, row: Mapping[Hashable, int | Fraction]) -> Row:
        """Eliminate all pivot columns from `row`; the residue is returned up
        to a nonzero scalar factor."""
        red = self._reduce(row)
        if red and not self._col:
            self._col = {r: k for k, r in self._rank.items()}
        return {self._col[r]: v for r, v in red.items()}

    def add(self, row: Mapping[Hashable, int | Fraction]) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        red = self._reduce(row)
        if not red:
            return False
        pivot = min(red)
        if red[pivot] < 0:
            red = {k: -v for k, v in red.items()}
        self._pivots[pivot] = red
        return True
