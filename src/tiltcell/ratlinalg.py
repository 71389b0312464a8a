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

`ContractedEchelon` first contracts one- and two-term rows with a weighted
union-find (Tarjan, J. ACM 22, 1975): as for a binomial ideal (Eisenbud and
Sturmfels, Duke Math. J. 84, 1996), their span splits the columns into dead
classes and multiples of one root, its member of lowest priority, so every
other column is a pivot.  Longer rows wait for the end and are eliminated on
the live roots, the candidate non-pivot columns: the supports stay canonical.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping

Row = dict[Hashable, int]
Coeff = int | Fraction


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

    def pivots_among(self, k: int) -> int:
        """Pivots among the k highest-priority columns: the dimension of the
        span projected onto those columns, since every other pivot row is
        zero there."""
        return sum(r < k for r in self._pivots)

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


class ContractedEchelon:
    """The span of a row stream (read until every class is dead), with the `rank`,
    `pivots_among` and `reduce` of a `SparseEchelon` fed all of it; `col_rank` is onto 0..n-1."""

    def __init__(self, col_rank: Mapping[Hashable, int], rows: Iterable[Mapping[Hashable, Coeff]]):
        n = len(col_rank)
        # column c is num[c]/den[c] times parent[c] modulo the short rows;
        # dead[r]: the class of root r lies in the span
        parent, num, den, dead = list(range(n)), [1] * n, [1] * n, [False] * n
        live, wide = n, []

        def find(c: int) -> tuple[int, int, int]:
            # the root of c and c as a/b times it; compresses the path
            chain = []
            while parent[c] != c:
                chain.append(c)
                c = parent[c]
            a = b = 1
            for x in reversed(chain):
                g = gcd(a := a * num[x], b := b * den[x])
                a, b = a // g, b // g
                parent[x], num[x], den[x] = c, a, b
            return c, a, b

        for row in rows:
            if len(row) > 2:
                wide.append(row)
                continue
            (k1, v1), *rest = row.items()
            r1, n1, d1 = find(col_rank[k1])
            doomed = (r1,)
            if rest:
                ((k2, v2),) = rest
                r2, n2, d2 = find(col_rank[k2])
                # root r1 is p/q times root r2, from v1*k1 + v2*k2 = 0
                p = -v2.numerator * v1.denominator * d1 * n2
                q = v1.numerator * v2.denominator * n1 * d2
                if r1 != r2 and not (dead[r1] or dead[r2]):
                    if r1 > r2:  # the root stays the member of lowest priority
                        r1, r2, p, q = r2, r1, q, p
                    parent[r1], num[r1], den[r1] = r2, p // (g := gcd(p, q)), q // g
                    live -= 1
                    continue
                # a cycle of ratio 1 changes nothing; any other cycle, or a
                # merge with a dead class, kills
                doomed = () if r1 == r2 and p == q else (r1, r2)
            for r in doomed:
                live -= not dead[r]
                dead[r] = True
            if not live:
                break
        self._n, self._roots = n, [c for c in range(n) if parent[c] == c and not dead[c]]
        # column -> (its root, as num, den) if it is live, None if it is dead
        self._to_root: dict = dict.fromkeys(col_rank)
        cols = {c: k for k, c in col_rank.items()} if live else {}
        for c, k in cols.items():
            r, a, b = find(c)
            self._to_root[k] = None if dead[r] else (cols[r], a, b)
        self._wide = SparseEchelon(col_rank)
        for row in wide:
            self._wide.add(self._project(row))
        self.rank = n - len(self._roots) + self._wide.rank

    def _project(self, row: Mapping[Hashable, Coeff]) -> dict[Hashable, int]:
        # `row` moved onto the live roots and scaled to integers, which
        # changes it by a vector of the span
        to_root, out = self._to_root, {}
        terms = [(t, v) for k, v in row.items() if (t := to_root[k])]
        scale = lcm(*(v.denominator * b for (_, _, b), v in terms))
        for (r, a, b), v in terms:
            out[r] = out.get(r, 0) + v.numerator * a * (scale // (v.denominator * b))
        return {r: v for r, v in out.items() if v}

    def pivots_among(self, k: int) -> int:
        # every column but the live roots is a pivot, and so is each pivot of
        # the long rows moved onto the roots
        return min(k, self._n) - sum(r < k for r in self._roots) + self._wide.pivots_among(k)

    def reduce(self, row: Mapping[Hashable, Coeff]) -> Row:
        """The residue of `row`, up to a nonzero scalar factor."""
        return self._wide.reduce(self._project(row))
