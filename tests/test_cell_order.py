"""The cell data of each preset, read from its one table in `PRESETS`.

A tilting category is filtered by one cell ideal for each down-set of its
cell order, where nu lies below lam when Delta(nu) is a factor of T(lam)
(Graham and Lehrer, *Invent. Math.* 123, 1996).  Each `Preset` states that
order as one table, `factors(label, ctx)`, and ranks the cells by
`cell_rank`.  The checks here hold the table to the preset's other facts:
every label lies in its own table, the ranks are a linear extension of the
table order, and the oracle that `quiver-check` compares with is the
common-factor count of two tables.  The sl3 table is checked against the
Bruhat order of S3 computed from permutations, not from lengths, and the
ascending-loop exception of `word_cell_rank`, which reads the table, is
checked against every rule that rewrites such a loop.

The sl3 tables are frozensets of strings, whose iteration order follows
string hashing, so these tests run under fixed hash seeds as well.
"""

from __future__ import annotations

from itertools import permutations

import pytest

from tiltcell import quiver as qv
from tiltcell.cellbasis import SL3_COVERS, SL3_ELEMENTS, SL3_LENGTH, sl3_delta_table
from tiltcell.quiver import (
    PRESETS,
    build_p1_quiver,
    build_p2_quiver,
    build_sl3_quiver,
    word_cell_rank,
)

# builder, core pairs, rules that rewrite an ascending two-arrow loop at a core vertex
SHAPES = {
    "p1-p3": (lambda: build_p1_quiver(3, window=2), 81, 9),
    "p1-p5-w3": (lambda: build_p1_quiver(5, window=3), 169, 13),
    "p2-p3": (lambda: build_p2_quiver(3), 169, 12),
    "p2-p3-w2": (lambda: build_p2_quiver(3, window=2), 625, 24),
    "p2-p3-bare": (lambda: build_p2_quiver(3, boundary_loops=False), 169, 12),
    "p2-p5": (lambda: build_p2_quiver(5), 441, 28),
    "p2-p7": (lambda: build_p2_quiver(7), 841, 44),
    "p2-p11": (lambda: build_p2_quiver(11), 2025, 76),
    "sl3": (build_sl3_quiver, 36, 4),
    "sl3-2-m3-5": (lambda: build_sl3_quiver(2, -3, 5), 36, 4),
}


def _table(quiver, v):
    return PRESETS[quiver.preset].factors(quiver.weights[v], quiver.context)


def order_faults(quiver, rank):
    """(vertex, factor) for each label missing from its own table, and for
    each other factor nu of a table that `rank` does not put below it."""
    faults = []
    for v in quiver.vertices:
        lam, table = quiver.weights[v], _table(quiver, v)
        if lam not in table:
            faults.append((v, lam))
        faults += [(v, nu) for nu in table if nu != lam and rank(nu) >= rank(lam)]
    return faults


def oracle_faults(quiver):
    """The core pairs where the preset's oracle is not the common-factor
    count of the two tables."""
    oracle, core = PRESETS[quiver.preset].oracle, sorted(quiver.core, key=str)
    weight = quiver.weights
    return [
        (v, w)
        for v in core
        for w in core
        if oracle(weight[v], weight[w], quiver.context)
        != len(_table(quiver, v) & _table(quiver, w))
    ]


@pytest.mark.parametrize("name", list(SHAPES))
def test_cell_rank_extends_the_table_order(name):
    maker, _, _ = SHAPES[name]
    quiver, _ = maker()
    rank = PRESETS[quiver.preset].cell_rank
    assert order_faults(quiver, rank) == []
    # the vertex ranks are the weights on the ladders and minus the length on sl3
    old = {v: -SL3_LENGTH[x] if quiver.context is None else x for v, x in quiver.weights.items()}
    assert quiver.cell_rank == old


@pytest.mark.parametrize("name", list(SHAPES))
def test_oracle_counts_common_factors(name):
    maker, pairs, _ = SHAPES[name]
    quiver, _ = maker()
    assert len(quiver.core) ** 2 == pairs
    assert oracle_faults(quiver) == []


@pytest.mark.parametrize("name", ["p1-p3", "p2-p3", "sl3"])
def test_negated_rank_is_no_linear_extension(name):
    quiver, _ = SHAPES[name][0]()
    rank = PRESETS[quiver.preset].cell_rank
    assert order_faults(quiver, lambda label: -rank(label))


@pytest.mark.parametrize("name,oracle", [("p2-p3", "hom_dim"), ("sl3", "sl3_hom_dim")])
def test_oracle_one_too_high_on_one_pair_is_caught(monkeypatch, name, oracle):
    quiver, _ = SHAPES[name][0]()
    v = w = sorted(quiver.core, key=str)[0]
    lam = quiver.weights[v]
    plain = getattr(qv, oracle)

    def off_by_one(*args):
        return plain(*args) + (args[:2] == (lam, lam))

    monkeypatch.setattr(qv, oracle, off_by_one)
    assert oracle_faults(quiver) == [(v, w)]


def ascending_loop_faults(quiver, rels):
    """The rules whose redex is a two-arrow loop at a core vertex visiting
    no lower rank, with a nonzero replacement: their count, and the
    (redex, term) pairs whose term ranks above the loop's exception."""
    rank, count, faults = quiver.cell_rank, 0, []
    for redex, repl in rels.table.items():
        if len(redex) != 2 or not repl:
            continue
        first, second = (quiver.arrows[aid] for aid in redex)
        src = first.source
        if second.target != src or src not in quiver.core or rank[first.target] < rank[src]:
            continue
        count += 1
        cell = word_cell_rank(quiver, src, redex)
        faults += [
            (quiver.format_path(redex), quiver.format_path(term))
            for term, _ in repl
            if word_cell_rank(quiver, src, term) > cell
        ]
    return count, faults


@pytest.mark.parametrize("name", list(SHAPES))
def test_no_ascending_loop_rule_raises_its_cell(name):
    maker, _, rules = SHAPES[name]
    assert ascending_loop_faults(*maker()) == (rules, [])


def test_ascending_loop_exception_on_sl3():
    # each loop takes the rank of the term its rule rewrites it to
    quiver, _ = build_sl3_quiver()

    def loop(i):
        path = (quiver.arrow_id(f"u{i}"), quiver.arrow_id(f"d{i}"))
        return word_cell_rank(quiver, quiver.arrows[path[0]].source, path)

    assert [loop(i) for i in (3, 6, 7, 8)] == [-3, -3, -2, -2]
    # u1 then d1, and u2 then d2, sit on the one-cell table of w0; both are zero rules
    for i in (1, 2):
        with pytest.raises(RuntimeError, match=rf"^ascending loop d{i}\*u{i}: one-cell table$"):
            loop(i)


# ---------------------------------------------------------------------------
# the sl3 table against the Bruhat order of S3, from permutations
# ---------------------------------------------------------------------------

# a reduced word of each element in s = (0 1) and t = (1 2)
WORDS = {"1": "", "s": "s", "t": "t", "st": "st", "ts": "ts", "w0": "sts"}


def _perm(word):
    """The permutation of {0, 1, 2} of a word, in one-line notation."""
    w = [0, 1, 2]
    for letter in word:
        i = "st".index(letter)
        w[i], w[i + 1] = w[i + 1], w[i]
    return tuple(w)


def _bruhat_leq(x, y):
    """x <= y in the Bruhat order of permutations, by the tableau criterion:
    each sorted prefix of x lies below the one of y, entry by entry."""
    return all(
        all(a <= b for a, b in zip(sorted(x[:k]), sorted(y[:k]))) for k in range(1, len(x))
    )


def bruhat_faults(table):
    """(x, y) where `x in table[y]` is not x >= y."""
    perm = {x: _perm(word) for x, word in WORDS.items()}
    return [
        (x, y)
        for y in SL3_ELEMENTS
        for x in SL3_ELEMENTS
        if (x in table[y]) != _bruhat_leq(perm[y], perm[x])
    ]


def test_words_name_the_six_permutations():
    assert sorted(_perm(word) for word in WORDS.values()) == sorted(permutations(range(3)))
    assert _perm("tst") == _perm("sts")


def test_sl3_table_is_the_bruhat_order():
    table = sl3_delta_table()
    assert bruhat_faults(table) == []
    # the covers: x > y with nothing strictly between
    perm = {x: _perm(word) for x, word in WORDS.items()}

    def less(y, x):
        return y != x and _bruhat_leq(perm[y], perm[x])

    covers = {
        (x, y)
        for x in SL3_ELEMENTS
        for y in SL3_ELEMENTS
        if less(y, x) and not any(less(y, z) and less(z, x) for z in SL3_ELEMENTS)
    }
    assert covers == set(SL3_COVERS)
    assert len(SL3_COVERS) == 8


def test_table_without_st_above_t_is_caught():
    table = sl3_delta_table()
    table["t"] = table["t"] - {"st"}
    assert bruhat_faults(table) == [("st", "t")]
