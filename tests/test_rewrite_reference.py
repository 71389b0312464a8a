"""The memoised rewriting engine against the plain one it replaced.

`reference_normal_form` is the worklist rewriter written out on its own: it
pops one term at a time, rewrites it at the leftmost position by the
shortest redex, and pushes the reducts back, so a path shared by two
rewrite trees is rewritten once per tree.  `reference_filtration` is the
per-composition loop of the cell-filtration check on top of it, one
`PathElement` and one normal form per one-arrow extension.  The engine
must agree with both exactly: same normal forms, same reports.  Both loops
rank words by `word_cell_rank`, so that is checked on its own too, its
ascending-loop exception against the reference factor tables.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from test_deltafilt_reference import reference_factors
from test_quiver_engines import _random_elements, core_elements
from test_rewrite_golden import CASES
from tiltcell import rewrite
from tiltcell.quiver import (
    Arrow,
    PathElement,
    Quiver,
    QuotientDims,
    RelationSet,
    _pair_key,
    _rule_to_relation,
    build_p1_quiver,
    build_p2_quiver,
    build_sl3_quiver,
    word_cell_rank,
)
from tiltcell.rewrite import (
    NonTerminating,
    _Reducer,
    cell_filtration_check,
    irreducible_words,
    normal_form,
)
from tiltcell.report import Report


def reference_normal_form(x, rels, max_steps=200_000):
    rules, lengths = rels.table, rels.lengths
    out = {}
    work = list(x.terms.items())
    steps = 0
    while work:
        path, coeff = work.pop()
        hit = None
        for i in range(len(path)):
            for L in lengths:
                if i + L > len(path):
                    break
                repl = rules.get(path[i : i + L])
                if repl is not None:
                    hit = (i, L, repl)
                    break
            if hit:
                break
        if hit is None:
            out[path] = out.get(path, Fraction(0)) + coeff
            continue
        steps += 1
        if steps > max_steps:
            raise NonTerminating(f"rewrite budget {max_steps} exhausted")
        i, L, repl = hit
        for rep, rc in repl:
            work.append((path[:i] + rep + path[i + L :], coeff * rc))
    return PathElement(x.source, x.target, out)


def reference_filtration(quiver, rels, max_len):
    words = irreducible_words(quiver, rels, max_len)
    core = quiver.core
    rep = Report("cell-filtration", {"preset": quiver.preset, "max_len": max_len})
    for (src, tgt), plist in sorted(words.items(), key=_pair_key):
        if src not in core or tgt not in core:
            continue
        violations = 0
        checked = 0
        for path in plist:
            cell = word_cell_rank(quiver, src, path)
            extensions = []
            for aid in quiver.out_ids[tgt]:
                if quiver.arrows[aid].target in core:
                    extensions.append((src, path + (aid,)))
            for aid in quiver.in_ids[src]:
                if quiver.arrows[aid].source in core:
                    extensions.append((quiver.arrows[aid].source, (aid,) + path))
            for esrc, epath in extensions:
                etgt = quiver.arrows[epath[-1]].target
                nf = reference_normal_form(PathElement(esrc, etgt, {epath: Fraction(1)}), rels)
                checked += 1
                for comp in nf.terms:
                    if word_cell_rank(quiver, esrc, comp) > cell:
                        violations += 1
        rep.add({"source": src, "target": tgt, "compositions": checked}, violations, 0)
    return rep


def _shell(max_len):
    return QuotientDims(max_len, {}, [], [], [])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cases_match_reference(name):
    maker, max_len = CASES[name]
    quiver, rels = maker()
    got = cell_filtration_check(quiver, rels, _shell(max_len))
    assert got.to_dict() == reference_filtration(quiver, rels, max_len).to_dict()
    for x in _random_elements(quiver, rels, random.Random(2024), 200):
        assert normal_form(x, rels) == reference_normal_form(x, rels)


@pytest.mark.parametrize("p,window", [(7, 1), (7, 2), (7, 3), (11, 2)])
def test_p2_filtration_matches_reference(p, window):
    quiver, rels = build_p2_quiver(p, window=window)
    got = cell_filtration_check(quiver, rels, _shell(5))
    assert got.all_pass
    assert got.to_dict() == reference_filtration(quiver, rels, 5).to_dict()


@pytest.mark.parametrize(
    "maker,max_len,ascending",
    [
        (lambda: build_p2_quiver(3, window=1), 5, 5),
        (lambda: build_p2_quiver(7, window=1), 5, 5),
        (lambda: build_p2_quiver(3, window=1, boundary_loops=False), 5, 5),
        (lambda: build_p1_quiver(3, window=2), 4, 0),
        (build_sl3_quiver, 7, 0),
    ],
    ids=["p2-p3", "p2-p7", "p2-p3-bare", "p1-p3", "sl3"],
)
def test_word_cell_rank_matches_reference(maker, max_len, ascending):
    # the lowest rank the word visits, except a length-two loop that visits
    # no lower rank (the chain-top loop of a ladder column): that one takes
    # the second-highest factor of its source's table, here read from the
    # reference recursion rather than the engine's walk
    quiver, rels = maker()
    rank, core, ctx = quiver.cell_rank, quiver.core, quiver.context
    loops = 0
    for (src, tgt), plist in irreducible_words(quiver, rels, max_len).items():
        if src not in core or tgt not in core:
            continue
        for path in plist:
            want = min([rank[src]] + [rank[quiver.arrows[aid].target] for aid in path])
            if len(path) == 2 and src == tgt and want == rank[src]:
                table = reference_factors(quiver.weights[src], ctx.p, ctx.r)
                want = sorted(table, reverse=True)[1]
                loops += 1
            assert word_cell_rank(quiver, src, path) == want, quiver.format_path(path)
    assert loops == ascending


@settings(deadline=None, max_examples=80)
@given(core_elements())
def test_normal_form_matches_reference_on_core_elements(case):
    _, rels, elem = case
    assert normal_form(elem, rels) == reference_normal_form(elem, rels)


def _looping():
    """p1 at p=3 with the deliberate loop u0 -> u0 of test_non_terminating_budget."""
    quiver, rels = build_p1_quiver(3, window=2)
    spin = dict(rels.rules)
    spin[(quiver.arrow_id("u0"),)] = (((quiver.arrow_id("u0"),), Fraction(1)),)
    return quiver, RelationSet(rels.relations, spin, {}, {})


def test_rewrite_cycle_raises_through_the_filtration_check():
    quiver, bad = _looping()
    with pytest.raises(NonTerminating):
        cell_filtration_check(quiver, bad, _shell(4))


def test_max_steps_is_counted_per_normal_form_call(monkeypatch):
    quiver, rels = build_p2_quiver(3, window=1)
    # the element of the golden p2 sample that rewrites the most paths
    best = None
    for x in _random_elements(quiver, rels, random.Random(2024), 200):
        reducer = _Reducer(rels)
        for path in x.terms:
            reducer.reduce(path)
        if best is None or reducer.steps > best[0]:
            best = (reducer.steps, x)
    steps, x = best
    assert steps >= 3
    want = reference_normal_form(x, rels)
    # a fresh budget on every call: the same budget suffices twice
    monkeypatch.setattr(rewrite, "_MAX_STEPS", steps)
    assert normal_form(x, rels) == want
    assert normal_form(x, rels) == want
    monkeypatch.setattr(rewrite, "_MAX_STEPS", steps - 1)
    with pytest.raises(NonTerminating, match=f"rewrite budget {steps - 1} exhausted"):
        normal_form(x, rels)
    # the reference rewrites shared paths once per tree, so it needs at least
    # as many steps: a budget it meets is never too small here
    with pytest.raises(NonTerminating):
        reference_normal_form(x, rels, max_steps=steps - 1)


def _shortcut():
    """Three vertices, the middle one in the lowest cell, and a rule that
    sends the path through it to an arrow that avoids it: b*a -> c."""
    arrows = [Arrow("a", 0, 1, "u", "a"), Arrow("b", 1, 2, "u", "b"), Arrow("c", 0, 2, "u", "c")]
    quiver = Quiver("p1", [0, 1, 2], arrows, {0: 1, 1: 0, 2: 2}, frozenset({0, 1, 2}), None)
    rules = {(0, 1): (((2,), Fraction(1)),)}
    relations = [_rule_to_relation(quiver, redex, repl) for redex, repl in rules.items()]
    return quiver, RelationSet(relations, rules, {}, {})


def test_escape_names_its_first_composition_and_word():
    quiver, rels = _shortcut()
    got = cell_filtration_check(quiver, rels, _shell(3)).items
    want = reference_filtration(quiver, rels, 3).items
    assert [item.lhs for item in got] == [item.lhs for item in want]
    witnesses = {}
    for item, ref in zip(got, want):
        fields = dict(item.input)
        escape = fields.pop("first_escape", None)
        assert fields == ref.input
        assert (escape is None) == item.passed
        witnesses[fields["source"], fields["target"]] = escape
    # a and b lie in the cell of vertex 1; extended by each other they
    # rewrite to c, which lies in the higher cell of vertex 0
    escape = {"composition": "b*a", "word": "c"}
    assert witnesses == {
        (0, 0): None,
        (0, 1): escape,
        (0, 2): None,
        (1, 1): None,
        (1, 2): escape,
        (2, 2): None,
    }


def rewrite_depth(rels, path, memo):
    """0 for an irreducible path, else 1 + the deepest term of its reduct,
    rewritten by the engine's rule: leftmost position, then shortest redex."""
    if path in memo:
        return memo[path]
    depth = 0
    hit = next(((i, L) for i in range(len(path)) for L in rels.lengths
                if i + L <= len(path) and path[i : i + L] in rels.table), None)
    if hit is not None:
        i, L = hit
        head, tail = path[:i], path[i + L :]
        terms = [head + rep + tail for rep, _ in rels.table[path[i : i + L]]]
        depth = 1 + max((rewrite_depth(rels, t, memo) for t in terms), default=0)
    memo[path] = depth
    return depth


@pytest.mark.parametrize(
    "maker,max_len",
    [
        (lambda: build_p1_quiver(3, window=12), 4),
        (lambda: build_p2_quiver(7, window=3), 5),
        (lambda: build_p2_quiver(13, window=2), 5),
        (build_sl3_quiver, 9),
        (lambda: build_sl3_quiver(r=1), 9),
    ],
    ids=["p1-p3-w12", "p2-p7-w3", "p2-p13-w2", "sl3", "sl3-r1"],
)
def test_rewrite_trees_are_shallow(maker, max_len):
    # the reducer recurses once per rewrite, so its depth is the deepest
    # rewrite chain: over every composition the filtration check reduces,
    # and over long random walks, that stays far below the recursion limit
    quiver, rels = maker()
    core, memo = quiver.core, {}
    extension_depth = 0
    for (src, tgt), plist in irreducible_words(quiver, rels, max_len).items():
        if src not in core or tgt not in core:
            continue
        for path in plist:
            for aid in quiver.out_ids[tgt]:
                if quiver.arrows[aid].target in core:
                    extension_depth = max(extension_depth, rewrite_depth(rels, path + (aid,), memo))
            for aid in quiver.in_ids[src]:
                if quiver.arrows[aid].source in core:
                    extension_depth = max(extension_depth, rewrite_depth(rels, (aid,) + path, memo))
    rng = random.Random(35)
    starts = sorted(core, key=str)
    walk_depth = 0
    for _ in range(300):
        at, path = rng.choice(starts), ()
        for _ in range(160):
            aid = rng.choice(quiver.out_ids[at])
            path, at = path + (aid,), quiver.arrows[aid].target
        walk_depth = max(walk_depth, rewrite_depth(rels, path, memo))
    assert 1 <= extension_depth <= 32
    assert 1 <= walk_depth <= 32


def _two_rule_cycle():
    """p1 at p=3 with the reverse of the rule d0*u0 -> u-1*d-1 added, so
    each of the two paths rewrites to the other."""
    quiver, rels = build_p1_quiver(3, window=2)
    aid = quiver.arrow_id
    up_down, down_up = (aid("u0"), aid("d0")), (aid("d-1"), aid("u-1"))
    assert rels.rules[up_down] == ((down_up, Fraction(1)),)
    spin = dict(rels.rules)
    spin[down_up] = ((up_down, Fraction(1)),)
    return quiver, RelationSet(rels.relations, spin, {}, {}), up_down


def test_two_rule_rewrite_cycle_is_non_terminating():
    # the cycle closes one rewrite below the path it starts from
    quiver, bad, up_down = _two_rule_cycle()
    elem = PathElement(quiver.arrows[up_down[0]].source, quiver.arrows[up_down[-1]].target,
                       {up_down: Fraction(1)})
    with pytest.raises(NonTerminating, match=r"^rewriting returns to the path \(16, 17\)$"):
        normal_form(elem, bad)
    with pytest.raises(NonTerminating, match=r"^rewriting returns to the path \(15, 14\)$"):
        cell_filtration_check(quiver, bad, _shell(4))
