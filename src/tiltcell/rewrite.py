"""The rewriting engine: normal forms of path elements under an oriented
relation set, the irreducible words, and the cell-filtration check.

Engines
-------
Relations are oriented so that down-after-up patterns rewrite towards sorted
words; a handful of derived rules (consequences of the relations near
chain-top columns, each checked against the linear ideal in the test suite)
make the system effective in practice.  The orientation is nowhere proven
confluent; agreement of the irreducible-word counts with the dimensions of
the linear engine (`linear.quotient_dims`) is an empirical check.

The engine finds redexes in the rewrite index of a `RelationSet`.  One
reducer (`_Reducer`) does all rewriting, by memoised recursion: a reducible
path is rewritten once, at its leftmost position and there by the shortest
redex, and its normal form is the sum of those of its reduct's terms.
`normal_form` builds a fresh reducer per call, while `cell_filtration_check`
shares one across all its compositions and drops it when it returns.  The
step budget `_MAX_STEPS` bounds the paths rewritten in one normal form.  A
path met again while it is still being reduced is a rewrite cycle:
NonTerminating is raised at once, as it is when the budget runs out.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .quiver import (Pair, Path, PathElement, Quiver, QuotientDims, RelationSet, Replacement,
                     _alive_paths, _pair_key, word_cell_rank)
from .report import Report


class NonTerminating(RuntimeError):
    """Rewriting cycled or exceeded its step budget; indicates an orientation bug."""


_ONE = Fraction(1)
_MAX_STEPS = 200_000  # rewrite budget of one normal form


def _add_form(acc: dict[Path, Fraction], coeff: Fraction, form: Replacement) -> None:
    """acc += coeff * form."""
    for path, c in form:
        if coeff != 1:
            c = coeff * c
        prev = acc.get(path)
        acc[path] = c if prev is None else prev + c


class _Reducer:
    """Normal forms under one relation set, each reducible path rewritten
    once (see Engines in the module docstring).

    `memo` maps each reducible path met so far to its normal form, a tuple
    of (irreducible path, nonzero coefficient); `active` holds the paths
    being reduced.  `reduce` calls itself once per rewrite, at most 11 deep
    on the rewrite-cells shapes.  `steps` counts the paths rewritten
    against `_MAX_STEPS`; the caller zeroes it for each normal form."""

    __slots__ = ("rules", "lengths", "steps", "memo", "active")

    def __init__(self, rels: RelationSet) -> None:
        self.rules, self.lengths = rels.table, rels.lengths
        self.steps = 0
        self.memo: dict[Path, Replacement] = {}
        self.active: set[Path] = set()

    def reduce(self, path: Path) -> Replacement:
        """The normal form of one path: rewrite its leftmost, shortest redex
        and sum the normal forms of the reduct's terms."""
        form = self.memo.get(path)
        if form is not None:
            return form
        if path in self.active:
            raise NonTerminating(f"rewriting returns to the path {path}")
        rules, lengths, n = self.rules, self.lengths, len(path)
        for i in range(n):
            for L in lengths:
                if i + L > n:
                    break
                repl = rules.get(path[i : i + L])
                if repl is not None:
                    self.steps += 1
                    if self.steps > _MAX_STEPS:
                        raise NonTerminating(f"rewrite budget {_MAX_STEPS} exhausted")
                    head, tail = path[:i], path[i + L :]
                    self.active.add(path)
                    acc: dict[Path, Fraction] = {}
                    for rep, rc in repl:
                        _add_form(acc, rc, self.reduce(head + rep + tail))
                    self.active.discard(path)
                    form = self.memo[path] = tuple((q, c) for q, c in acc.items() if c)
                    return form
        return ((path, _ONE),)


def normal_form(x: PathElement, rels: RelationSet) -> PathElement:
    """Rewrite to a fixed point: leftmost position first, shortest redex
    first, each reducible path once.  Raises NonTerminating when rewriting
    cycles or rewrites more than _MAX_STEPS paths, and RecursionError when a
    chain of rewrites outgrows the recursion limit, which no preset nears."""
    reducer = _Reducer(rels)
    out: dict[Path, Fraction] = {}
    for path, coeff in x.terms.items():
        _add_form(out, coeff, reducer.reduce(path))
    return PathElement(x.source, x.target, out)


def irreducible_words(
    quiver: Quiver, rels: RelationSet, max_len: int
) -> dict[Pair, list[Path]]:
    """Paths of length <= max_len containing no redex, per vertex pair in
    (length, lex) order, pruned as they are generated.  For a complete, confluent orientation
    these enumerate a monomial basis of the quotient, so their counts must
    match the linear dimensions."""
    return _alive_paths(quiver, max_len, rels.zero_redexes.union(rels.table))


def cell_filtration_check(quiver: Quiver, rels: RelationSet, result: QuotientDims) -> Report:
    """Check that composition never escapes upward through the cell layers:
    for every irreducible word between core vertices and every one-arrow
    extension on either side staying in the core, the normal form is
    supported on words of cell rank at most the original's.

    Each item counts the escaping words of one vertex pair; a failing item
    also names its first escaping composition and the word that escapes.
    One reducer serves every composition, so a path shared by several
    rewrite trees is reduced once (the step budget of `normal_form` holds
    per composition)."""
    core = quiver.core
    # the irreducible words (as irreducible_words lists them) from core sources
    redexes = rels.zero_redexes.union(rels.table)
    sources = [v for v in quiver.vertices if v in core]
    words = _alive_paths(quiver, result.max_len, redexes, sources)
    reducer = _Reducer(rels)
    rep = Report("cell-filtration", {"preset": quiver.preset, "max_len": result.max_len})
    for src, tgt in sorted(words, key=_pair_key):
        if tgt not in core:
            continue
        violations = 0
        checked = 0
        escape = None
        # the core arrows after tgt and before src, the same for every word
        after = [aid for aid in quiver.out_ids[tgt] if quiver.arrows[aid].target in core]
        before = [(quiver.arrows[aid].source, aid) for aid in quiver.in_ids[src]
                  if quiver.arrows[aid].source in core]
        for path in words[src, tgt]:
            cell = word_cell_rank(quiver, src, path)
            extensions = chain(((src, path + (aid,)) for aid in after),
                               ((esrc, (aid,) + path) for esrc, aid in before))
            for esrc, epath in extensions:
                reducer.steps = 0
                checked += 1
                for comp, _ in reducer.reduce(epath):
                    if word_cell_rank(quiver, esrc, comp) > cell:
                        violations += 1
                        if escape is None:
                            escape = {
                                "composition": quiver.format_path(epath),
                                "word": quiver.format_path(comp),
                            }
        item = {"source": src, "target": tgt, "compositions": checked}
        if escape is not None:
            item["first_escape"] = escape
        rep.add(item, violations, 0)
    return rep
