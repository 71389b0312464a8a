"""The linear engine: exact dimensions of a quiver's truncated path algebra
modulo its relations, per ordered vertex pair.

Engine
------
`quotient_dims` spans, per ordered core pair, the alive paths of length <=
max_len (`quiver._alive_paths`), quotients by every relation instance that
fits, and reports the dimension.  Rows of one or two terms merge or kill
classes of paths in a weighted union-find, and only the longer rows are
eliminated (`ratlinalg.ContractedEchelon`; no other module imports
`ratlinalg`).  A saturation flag certifies that each maximal-length path
reduces into shorter ones, which pins the truncation.  One pair per class of
certified symmetries is eliminated and the others take its verdict (see
"Folding" below).

Folding
-------
A map g of paths that sends arrows to arrows (reversing each path if g is an
anti-automorphism) and the relation set onto itself up to nonzero scalars
sends the alive paths of a pair bijectively to those of its image pair,
length by length, and its relation rows to scalar multiples of the image's
rows.  The two pairs then have the same rank, and the same projected rank on
the top-length columns, which is what saturation reads (`pivots_among` does
not depend on the column order within one length).  `quotient_dims` uses
three such maps, each only once an exact certificate passes:

* duality: each arrow to its `dual`, paths reversed, (s, t) to (t, s).  The
  builders close every preset under it by construction; it is still
  certified once per call, relation by relation, for sets built by hand.
* the preset's `mirror`, a vertex involution (sl3: s <-> t, st <-> ts) that
  sends each arrow to the arrow of its kind between the images of its ends,
  certified the same way.
* translation by `shift_period`: not a global automorphism, because the
  window cuts the ladder, so it is certified per pair.  (s, t) and
  (s - P, t - P) are translates when the alive path list of the first,
  translated arrow by arrow (looked up by source, target and kind), is the
  list of the second, and the relation index at every vertex on those
  paths, translated, is the index one period below.  A nonzero row only
  touches alive paths of its pair, so the rows then correspond.  A verdict
  is translated only onto a core pair: no boundary pair is decided, and the
  translates of a core pair that lie in the core are consecutive, so every
  one of them is still reached.  Duality keeps the core, and so does the
  sl3 mirror, whose core is every vertex.

Where a certificate fails the pair is eliminated.  The witness of
`NotSaturated` always comes from eliminating the first unsaturated pair
itself.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import eq
from typing import Callable, Iterator, Mapping, NamedTuple

from .quiver import (PRESETS, Pair, Path, Quiver, QuotientDims, RelationSet, Vertex, _alive_paths,
                     _pair_key)
from .ratlinalg import ContractedEchelon, Row


class NotSaturated(RuntimeError):
    """Paths of maximal length did not all reduce; raise max_len."""


class _LinearSetup(NamedTuple):
    """What one call of the linear engine shares between vertex pairs."""

    max_len: int
    alive: dict[Pair, list[Path]]  # each list in (length, lex) order
    # source vertex -> (target, longest term, integer-scaled alive terms) per
    # non-monomial relation with a live term and no term longer than max_len
    index: dict[Vertex, list[tuple[Vertex, int, tuple[tuple[Path, int], ...]]]]
    reach: dict[Vertex, list[Vertex]]  # source -> targets of its alive paths


def _linear_setup(quiver: Quiver, rels: RelationSet, max_len: int) -> _LinearSetup:
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    alive = _alive_paths(quiver, max_len, rels.zero_redexes)
    index: dict = {}
    for rel in rels.relations:
        span = max(len(term) for term in rel.terms)
        if len(rel.terms) > 1 and span <= max_len:  # a longer relation has no instance
            # rows matter only up to a scalar, so clear the denominators
            scale = lcm(*(c.denominator for c in rel.terms.values()))
            live = set(alive.get((rel.source, rel.target), ()))
            terms = tuple((term, int(c * scale)) for term, c in rel.terms.items() if term in live)
            if terms:
                index.setdefault(rel.source, []).append((rel.target, span, terms))
    reach: dict = {}
    for s, u in alive:
        reach.setdefault(s, []).append(u)
    return _LinearSetup(max_len, alive, index, reach)


def _relation_rows(setup: _LinearSetup, pair: Pair, col: Mapping[Path, int]) -> Iterator[Row]:
    """Nonzero rows x*rel*y from s to t of length <= max_len, one per non-monomial
    relation instance, each scaled to integers and keyed by the column `col`
    gives each path.  `col` holds exactly the alive paths of the pair, so the
    term of a composite that contains a monomial relation has no column and
    is dropped."""
    max_len, alive = setup.max_len, setup.alive
    s, t = pair
    for u in setup.reach.get(s, ()):
        instances = setup.index.get(u)
        if not instances:
            continue
        prefixes = alive[(s, u)]
        for target, span, terms in instances:
            suffixes = alive.get((target, t))
            if not suffixes:
                continue
            for x in prefixes:
                room = max_len - span - len(x)
                if room < 0:
                    break
                for y in suffixes:
                    if len(y) > room:
                        break
                    row = {c: k for term, k in terms if (c := col.get(x + term + y)) is not None}
                    if row:
                        yield row


def _echelon(setup: _LinearSetup, pair: Pair) -> tuple[ContractedEchelon, dict[Path, int]]:
    """The span of the relation rows of `pair`, and the column of each alive
    path, in column order: longer paths first, so that they are pivoted first."""
    order = sorted(setup.alive.get(pair, []), key=lambda q: (-len(q), q))
    col = {path: c for c, path in enumerate(order)}
    return ContractedEchelon(len(col), _relation_rows(setup, pair, col)), col


def _canonical(source: Vertex, target: Vertex, terms: Mapping[Path, Fraction]) -> tuple:
    """A relation up to a nonzero scalar: its ends, and its terms in path
    order scaled so that the first coefficient is 1."""
    items = sorted(terms.items())
    lead = items[0][1] if items else 1
    if lead != 1:
        items = [(path, c / lead) for path, c in items]
    return (source, target, tuple(items))


def _pair_map(
    quiver: Quiver, rels: RelationSet, image: list[int | None], reverse: bool
) -> Callable[[Pair], Pair] | None:
    """The map on vertex pairs of the automorphism of the path algebra that
    sends arrow i to arrow image[i] (an anti-automorphism, reversing every
    path, if `reverse`).  None unless the certificate holds: the arrow map is
    a bijection, the arrow ends give one map of the vertices, and every
    relation goes to a relation of the set up to a nonzero scalar.  As the
    arrow map permutes the arrow ends, the vertex map takes the finite set of
    vertices on arrows onto itself, so one to one, and fixes the others.  The
    pair map carries the alive paths and relation rows of a pair onto those
    of its image."""
    arrows = quiver.arrows
    if None in image or sorted(image) != list(range(len(arrows))):
        return None
    vmap: dict = {}
    for a, i in zip(arrows, image):
        b = arrows[i]
        ends = (b.target, b.source) if reverse else (b.source, b.target)
        for v, w in zip((a.source, a.target), ends):
            if vmap.setdefault(v, w) != w:
                return None
    for v in quiver.vertices:
        vmap.setdefault(v, v)

    def move(pair: Pair) -> Pair:
        s, t = vmap[pair[0]], vmap[pair[1]]
        return (t, s) if reverse else (s, t)

    known = {_canonical(rel.source, rel.target, rel.terms) for rel in rels.relations}
    for rel in rels.relations:
        terms = {tuple(image[a] for a in path): c for path, c in rel.terms.items()}
        if reverse:
            terms = {path[::-1]: c for path, c in terms.items()}
        if _canonical(*move((rel.source, rel.target)), terms) not in known:
            return None
    return move


class _Fold:
    """The certified symmetries of one linear setup, as moves between vertex
    pairs whose relation rows correspond one to one, so that they share rank
    and saturation: path-reversal duality and the preset's mirror, each
    certified once, and translation by the shift period, certified per pair."""

    def __init__(self, quiver: Quiver, rels: RelationSet, setup: _LinearSetup):
        self.alive, self.core = setup.alive, quiver.core
        arrows, by_name = quiver.arrows, quiver.by_name
        by_ends = {(a.source, a.target, a.kind): i for i, a in enumerate(arrows)}
        images = [([by_name.get(a.dual) for a in arrows], True)]
        m = PRESETS[quiver.preset].mirror
        if m:
            ends = [(m.get(a.source, a.source), m.get(a.target, a.target), a.kind) for a in arrows]
            images.append(([by_ends.get(e) for e in ends], False))
        maps = (_pair_map(quiver, rels, image, reverse) for image, reverse in images)
        self.maps = [move for move in maps if move is not None]
        self.period = period = quiver.shift_period
        self.same: dict[Vertex, bool] = {}  # index at v, translated, is the index at v - period
        self.step: list[int | None] = []  # arrow -> its translate by -period, if usable
        if not period or len(by_ends) < len(arrows):
            return
        shift = [by_ends.get((a.source - period, a.target - period, a.kind)) for a in arrows]

        def moved(entry):
            target, span, terms = entry
            return (target - period, span, tuple((tuple(shift[a] for a in t), c) for t, c in terms))

        index = setup.index
        self.same = {
            v: [moved(e) for e in index.get(v, ())] == index.get(v - period, [])
            for v in quiver.vertices
        }
        self.step = [i if self.same[a.target] else None for i, a in zip(shift, arrows)]

    def _translates(self, upper: Pair, lower: Pair) -> bool:
        """Whether `lower` is `upper` moved down one period: each alive path
        of upper, translated arrow by arrow, is the alive path of lower in the
        same place, and the relation index agrees at every vertex on them.
        Nonzero rows of a pair only touch its alive paths, so the rows then
        correspond too."""
        up, low, step = self.alive[upper], self.alive[lower], self.step.__getitem__
        # the same lengths, then the translated arrows in one stream: building
        # the translated paths as tuples raised the peak resident set
        return (
            len(up) == len(low)
            and self.same[upper[0]]
            and all(map(eq, map(len, up), map(len, low)))
            and all(map(eq, map(step, chain.from_iterable(up)), chain.from_iterable(low)))
        )

    def spread(self, pair: Pair, verdicts: dict) -> None:
        """Give every pair reached from `pair` by certified moves its verdict,
        translating only onto core pairs, the only ones decided."""
        verdict, stack = verdicts[pair], [pair]
        alive, core, P = self.alive, self.core, self.period
        while stack:
            pair = stack.pop()
            reached = [move(pair) for move in self.maps]
            if self.step:
                s, t = pair
                below, above = (s - P, t - P), (s + P, t + P)
                for other, upper, lower in ((below, pair, below), (above, above, pair)):
                    if (core.issuperset(other) and other in alive and other not in verdicts
                            and self._translates(upper, lower)):
                        reached.append(other)
            for other in reached:
                if other not in verdicts:
                    verdicts[other] = verdict
                    stack.append(other)


def quotient_dims(
    quiver: Quiver,
    rels: RelationSet,
    max_len: int | None = None,
    require_saturation: bool = True,
) -> QuotientDims:
    """Exact dimensions of paths modulo relations, truncated at max_len, for
    every core pair.  max_len must be >= 1.  Boundary pairs are listed, not
    decided: no comparison reads them.

    Saturation means every maximal-length path between core vertices lies in
    the span of shorter paths plus relation instances.  Longer paths are
    pivoted first, so that holds exactly when every maximal-length column is
    a pivot.  If it fails and require_saturation is set, NotSaturated is
    raised, naming the first unsaturated pair and the top-length words of its
    residue, and the caller should retry with a larger max_len.

    One core pair per class of certified symmetries is eliminated; the others
    take its rank and saturation (see Folding in the module docstring)."""
    if max_len is None:
        max_len = PRESETS[quiver.preset].max_len
    setup = _linear_setup(quiver, rels, max_len)
    fold = _Fold(quiver, rels, setup)

    dims: dict[Pair, int] = {}
    unsaturated: list[Pair] = []
    witness: list[str] = []  # residue words of the first unsaturated pair
    verdicts: dict[Pair, tuple[int, bool]] = {}  # pair -> (rank, top paths all pivots)
    eliminated = 0
    core = quiver.core
    core_pairs = sorted(((v, w) for v in core for w in core), key=_pair_key)
    for pair in core_pairs:
        plist = setup.alive.get(pair)
        if not plist:
            continue
        tops = sum(len(path) == max_len for path in plist)  # columns 0..tops-1
        if pair not in verdicts:
            ech, col = _echelon(setup, pair)
            eliminated += 1
            verdicts[pair] = (ech.rank, ech.pivots_among(tops) == tops)
            fold.spread(pair, verdicts)
        rank, saturated = verdicts[pair]
        dims[pair] = len(plist) - rank
        if not saturated:
            if not unsaturated:
                # A copied verdict comes from its class's representative, an
                # earlier core pair with the same saturation, which would have
                # been unsaturated first; so this pair is a representative,
                # and `ech` is its echelon, built in this iteration.
                heads = list(col)[:tops]  # the top-length paths
                for c in range(tops):
                    top = [heads[k] for k in ech.reduce({c: 1}) if k < tops]
                    if top:
                        witness = sorted(map(quiver.format_path, top))
                        break
            unsaturated.append(pair)

    boundary = sorted((pair for pair in setup.alive if not core.issuperset(pair)), key=_pair_key)
    result = QuotientDims(max_len, dims, core_pairs, boundary, unsaturated, eliminated)
    if require_saturation and unsaturated:
        raise NotSaturated(
            f"{len(unsaturated)} core pair(s) have irreducible length-{max_len} paths; "
            f"first: {unsaturated[0]}, residue words: {', '.join(witness)}"
        )
    return result
