"""Sparse row reduction of integer rows, eliminated fraction-free.

The columns are the indices 0..n-1, and an index is its column's elimination
priority: smaller indices are pivoted first.  Rows are dicts mapping column
indices to nonzero `int`s (`linear._linear_setup` clears the denominators of
each relation once).  Each row is divided by its content on entry, and
elimination cross-multiplies integers and divides out the content gcd after
every step (Bareiss, Math. Comp. 22, 1968, without the determinant
bookkeeping), so the whole module does integer arithmetic only.

Membership questions of the form "does this vector lie in the span modulo
the low-priority columns" reduce to inspecting the residue support.
`reduce` returns that residue only up to a nonzero scalar; its support is
canonical, because the residue modulo an echelon basis under a fixed column
priority is unique.

`ContractedEchelon` first contracts one- and two-term rows with a weighted
union-find (Tarjan, J. ACM 22, 1975): as for a binomial ideal (Eisenbud and
Sturmfels, Duke Math. J. 84, 1996), their span splits the columns into dead
classes and multiples of one root, its member of lowest priority, so every
other column is a pivot.  Longer rows wait for the end and are eliminated on
the live roots, the candidate non-pivot columns: the supports stay canonical.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Iterable, Mapping

Row = dict[int, int]


def _divide_content(row: Row) -> None:
    g = gcd(*row.values())  # 0 for an empty row
    if g > 1:
        for k in row:
            row[k] //= g


class SparseEchelon:
    """Incrementally maintained echelon basis of sparse integer rows."""

    def __init__(self) -> None:
        # pivot column -> primitive integer row, positive at the pivot, whose
        # other columns all come after the pivot
        self._pivots: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivots_among(self, k: int) -> int:
        """Pivots among the columns 0..k-1: the dimension of the span
        projected onto them, since every other pivot row is zero there."""
        return sum(c < k for c in self._pivots)

    def reduce(self, row: Mapping[int, int]) -> Row:
        """The residue of `row`, a primitive integer row with no pivot
        column; unique up to a nonzero scalar factor."""
        out = dict(row)
        _divide_content(out)
        pivots = self._pivots
        # clearing a pivot column only brings in later columns, so a min-heap
        # of the pivot columns present yields them in priority order
        heap = [c for c in out if c in pivots]
        heapify(heap)
        while heap:
            c = heappop(heap)
            v = out.get(c)
            if v is None:  # cancelled since it was pushed
                continue
            prow = pivots[c]
            g = gcd(prow[c], v)
            a, b = prow[c] // g, v // g
            if a != 1:
                for k in out:
                    out[k] *= a
            for k, w in prow.items():
                if k in out:
                    nv = out[k] - b * w
                    if nv:
                        out[k] = nv
                    else:
                        del out[k]
                else:
                    out[k] = -b * w
                    if k in pivots:
                        heappush(heap, k)
            _divide_content(out)
        return out

    def add(self, row: Mapping[int, int]) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        red = self.reduce(row)
        if not red:
            return False
        pivot = min(red)
        if red[pivot] < 0:
            red = {k: -v for k, v in red.items()}
        self._pivots[pivot] = red
        return True


class ContractedEchelon:
    """The span of a row stream over the columns 0..n-1 (read until every class
    is dead), with the `rank`, `pivots_among` and `reduce` of a `SparseEchelon`
    fed all of it, provided each row is non-empty with nonzero `int` entries,
    as every row of `linear._relation_rows` is.  Nothing checks it: {c: 0}
    kills c, a two-term row with a zero stores a zero ratio, {} raises."""

    def __init__(self, n: int, rows: Iterable[Mapping[int, int]]):
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
            (c1, v1), *rest = row.items()
            r1, n1, d1 = find(c1)
            doomed = (r1,)
            if rest:
                ((c2, v2),) = rest
                r2, n2, d2 = find(c2)
                # root r1 is p/q times root r2, from v1*c1 + v2*c2 = 0
                p, q = -v2 * d1 * n2, v1 * n1 * d2
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
        self._n, self._find, self._dead = n, find, dead
        self._roots = [c for c in range(n) if parent[c] == c and not dead[c]]
        self._wide = SparseEchelon()
        for row in wide:
            self._wide.add(self._project(row))
        self.rank = n - len(self._roots) + self._wide.rank

    def _project(self, row: Mapping[int, int]) -> Row:
        # `row` moved onto the live roots and scaled to integers, which
        # changes it by a vector of the span
        find, dead, out = self._find, self._dead, {}
        terms = [(t, v) for c, v in row.items() if not dead[(t := find(c))[0]]]
        scale = lcm(*(b for (_, _, b), _ in terms))
        for (r, a, b), v in terms:
            out[r] = out.get(r, 0) + v * a * (scale // b)
        return {r: v for r, v in out.items() if v}

    def pivots_among(self, k: int) -> int:
        # every column but the live roots is a pivot, and so is each pivot of
        # the long rows moved onto the roots
        return min(k, self._n) - sum(r < k for r in self._roots) + self._wide.pivots_among(k)

    def reduce(self, row: Mapping[int, int]) -> Row:
        """The residue of `row`, up to a nonzero scalar factor."""
        return self._wide.reduce(self._project(row))
