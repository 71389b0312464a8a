"""The weight-side sweeps against plain references, uncached.

The engine peels characters inside one mutable dict, peels each standard
object once per residue mod p^r, reads reciprocity from an index inverted
over those peels, finds the partners of the linkage sweep through an
inverted factor index, counts common factors of two folded tables at their
relative shift, and reads the generator family off 2p^r - 1 tables.  The
references below are the plain versions, written out on their own:
characters are dicts rebuilt at every peel step, linkage tries every pair of
the window, Hom intersects two shifted tables, and the generator loop looks
m up in the table of every n.  They share no code with the engine.  Factor
tables come from the level recursion of `test_deltafilt_reference`, folded
with period 2p^r, and reports are built directly as the dicts that
`Report.to_dict` returns.  The fold and the index are also checked against
the engine's own unfolded peel and per-weight lookups.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from test_deltafilt_reference import reference_factors

from tiltcell.cellbasis import generator_set_br
from tiltcell.charring import (
    Character,
    baby_verma_char,
    baby_verma_simples,
    decompose_into_simples,
)
from tiltcell.deltafilt import (
    verify_linkage_necessity,
    verify_reciprocity,
    verify_steinberg_equivalence,
)
from tiltcell.factors import hom_dim
from tiltcell.weights import Context, tilde

EXHAUSTIVE = [(3, 4), (5, 3), (7, 2)]


# ---------------------------------------------------------------------------
# reference characters and peeling
# ---------------------------------------------------------------------------


def _add(f: dict[int, int], g: dict[int, int], k: int = 1) -> dict[int, int]:
    out = dict(f)
    for w, c in g.items():
        out[w] = out.get(w, 0) + k * c
    return {w: c for w, c in out.items() if c}


def ref_weyl(m: int) -> dict[int, int]:
    return {m - 2 * j: 1 for j in range(m + 1)}


def ref_simple(lam: int, p: int) -> dict[int, int]:
    out, power = {0: 1}, 1
    while True:
        lam, d = divmod(lam, p)
        prod: dict[int, int] = {}
        for w1, c1 in out.items():
            for w2 in ref_weyl(d):
                prod[w1 + w2 * power] = prod.get(w1 + w2 * power, 0) + c1
        out = prod
        if lam == 0:
            return out
        power *= p


def ref_simple_r(lam: int, p: int, r: int) -> dict[int, int]:
    q = p**r
    head = lam % q
    return {w + lam - head: c for w, c in ref_simple(head, p).items()}


def ref_baby_verma(lam: int, p: int, r: int) -> dict[int, int]:
    q = p**r
    return {w + lam - (q - 1): c for w, c in ref_weyl(q - 1).items()}


def ref_peel(f: dict[int, int], p: int, r: int) -> dict[int, int]:
    out: dict[int, int] = {}
    rem = {w: c for w, c in f.items() if c}
    while rem:
        top = max(rem)
        c = rem[top]
        assert c > 0, "not a module character"
        rem = _add(rem, ref_simple_r(top, p, r), -c)
        out[top] = c
    return out


# ---------------------------------------------------------------------------
# reference sweeps, as the dicts Report.to_dict returns
# ---------------------------------------------------------------------------


def ref_tilde(lam: int, q: int) -> int:
    head = lam % q
    return 2 * (q - 1) - head + (lam - head)


def ref_hom_dim(lam: int, mu: int, p: int, r: int) -> int:
    return len(reference_factors(lam, p, r).keys() & reference_factors(mu, p, r).keys())


def _report(check: str, p: int, r: int, items: list[tuple]) -> dict:
    rows = [
        {"input": inp, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs} for inp, lhs, rhs in items
    ]
    return {
        "check": check,
        "context": {"p": p, "r": r},
        "pass": all(row["pass"] for row in rows),
        "items": rows,
    }


def ref_reciprocity(lam: int, p: int, r: int, peels: dict[int, dict[int, int]]) -> dict:
    """`peels` holds the decompositions already computed in this sweep."""
    lt = ref_tilde(lam, p**r)
    fac = reference_factors(lt, p, r)
    items = []
    for mu in range(lam, lt + 1):
        if mu not in peels:
            peels[mu] = ref_peel(ref_baby_verma(mu, p, r), p, r)
        items.append(({"lam": lam, "mu": mu}, fac.get(mu, 0), peels[mu].get(lam, 0)))
    return _report("reciprocity", p, r, items)


def ref_linkage_necessity(lo: int, hi: int, p: int, r: int) -> dict:
    tables = {w: reference_factors(w, p, r) for w in range(lo, hi + 1)}
    items = []
    for lam in range(lo, hi + 1):
        for mu in range(lo, hi + 1):
            if tables[lam].keys() & tables[mu].keys():
                in_orbit = (mu - lam) % (2 * p) == 0 or (mu + lam + 2) % (2 * p) == 0
                items.append(({"lam": lam, "mu": mu}, in_orbit, True))
    return _report("linkage-necessity", p, r, items)


def ref_steinberg(m: int, p: int, r: int) -> dict:
    image = {p - 1 + p * nu: k for nu, k in reference_factors(m, p, r - 1).items()}
    lhs = reference_factors(p - 1 + p * m, p, r)
    items = [({"m": m, "check": "factor-table"}, sorted(lhs.items()), sorted(image.items()))]
    span = 2 * p ** (r - 1)
    for mp in range(m - span, m + span + 1):
        items.append(
            (
                {"m": m, "m2": mp, "check": "hom"},
                ref_hom_dim(p - 1 + p * m, p - 1 + p * mp, p, r),
                ref_hom_dim(m, mp, p, r - 1),
            )
        )
    return _report("steinberg-equivalence", p, r, items)


def ref_generators(p: int, r: int) -> list[tuple[int, int, int]]:
    q = p**r
    tables = [reference_factors(n, p, r) for n in range(2 * q - 1)]
    out = []
    for m in range(q):
        for n in range(m, 2 * q - 1 - m):
            mult = tables[n].get(m, 0)
            out.extend((m, n, i) for i in range(1, mult + 1))
    return out


# ---------------------------------------------------------------------------
# random cases: p in {3, 5, 7}, r <= 3
# ---------------------------------------------------------------------------


@st.composite
def contexts(draw, min_r=1):
    return draw(st.sampled_from((3, 5, 7))), draw(st.integers(min_r, 3))


@st.composite
def weights(draw, min_r=1):
    p, r = draw(contexts(min_r))
    bound = 4 * p**r
    return p, r, draw(st.integers(-bound, bound))


@settings(deadline=None, max_examples=30)
@given(weights())
def test_reciprocity_matches_reference(case):
    p, r, lam = case
    got = verify_reciprocity(lam, Context(p, r)).to_dict()
    assert got == ref_reciprocity(lam, p, r, {})


@settings(deadline=None, max_examples=60)
@given(weights(), st.integers(0, 60))
def test_linkage_necessity_matches_reference(case, width):
    p, r, lo = case
    hi = lo + width
    assert verify_linkage_necessity(lo, hi, Context(p, r)).to_dict() == ref_linkage_necessity(
        lo, hi, p, r
    )


@settings(deadline=None, max_examples=40)
@given(weights(min_r=2))
def test_steinberg_matches_reference(case):
    p, r, m = case
    assert verify_steinberg_equivalence(m, Context(p, r)).to_dict() == ref_steinberg(m, p, r)


@settings(deadline=None, max_examples=300)
@given(weights(), st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6)), st.integers(-40, 40))
def test_hom_dim_matches_reference(case, periods, offset):
    """Partners near lam and far from it: far ones take the early exit."""
    p, r, lam = case
    mu = lam + periods * p**r + offset
    assert hom_dim(lam, mu, Context(p, r)) == ref_hom_dim(lam, mu, p, r)


@pytest.mark.parametrize("p,r", [(p, r) for p in (3, 5, 7) for r in (1, 2, 3)] + [(3, 4)])
def test_generators_match_reference(p, r):
    got = [(g.low_weight, g.high_weight, g.index) for g in generator_set_br(Context(p, r))]
    assert got == ref_generators(p, r)


# ---------------------------------------------------------------------------
# exhaustive windows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,r", EXHAUSTIVE)
def test_reciprocity_over_a_window(p, r):
    ctx, peels = Context(p, r), {}
    for lam in range(-ctx.q, ctx.q):
        assert verify_reciprocity(lam, ctx).to_dict() == ref_reciprocity(lam, p, r, peels), lam


@pytest.mark.parametrize("p,r", EXHAUSTIVE)
def test_linkage_necessity_over_a_window(p, r):
    ctx = Context(p, r)
    lo, hi = -ctx.q, ctx.q - 1
    assert verify_linkage_necessity(lo, hi, ctx).to_dict() == ref_linkage_necessity(lo, hi, p, r)


@pytest.mark.parametrize("p,r", EXHAUSTIVE)
def test_steinberg_over_a_window(p, r):
    ctx = Context(p, r)
    for m in range(-p ** (r - 1), p ** (r - 1)):
        assert verify_steinberg_equivalence(m, ctx).to_dict() == ref_steinberg(m, p, r), m


@pytest.mark.parametrize("p,r", EXHAUSTIVE)
def test_hom_dim_over_a_window(p, r):
    """Every lam of one period against partners up to three periods away,
    which includes the pairs whose tables meet in a single end weight."""
    ctx = Context(p, r)
    q = ctx.q
    tables = {w: reference_factors(w, p, r).keys() for w in range(-4 * q, 4 * q)}
    for lam in range(q):
        for mu in range(lam - 3 * q, lam + 3 * q + 1):
            assert hom_dim(lam, mu, ctx) == len(tables[lam] & tables[mu]), (lam, mu)


@pytest.mark.parametrize("p,r", [(3, 3), (5, 2), (7, 2), (3, 4)])
def test_folded_peel_matches_unfolded(p, r):
    """The peel of a head, shifted by p^r times the tail, against the peel of
    the standard character at the weight itself."""
    ctx = Context(p, r)
    for lam in range(-2 * ctx.q, 2 * ctx.q + 1):
        unfolded = decompose_into_simples(baby_verma_char(lam, ctx), ctx)
        assert dict(baby_verma_simples(lam, ctx)) == unfolded, lam


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(weights())
def test_reciprocity_index_matches_lookups(case):
    """Each right-hand side read from the index is the multiplicity of the
    simple at lam in the peeled standard object at mu, item for item."""
    p, r, lam = case
    ctx = Context(p, r)
    mus = range(lam, tilde(lam, ctx) + 1)
    items = verify_reciprocity(lam, ctx).items
    assert [item.input["mu"] for item in items] == list(mus)
    assert [item.rhs for item in items] == [baby_verma_simples(mu, ctx).get(lam, 0) for mu in mus]


@settings(deadline=None, max_examples=100)
@given(contexts(), st.data())
def test_peeling_recovers_a_sum_of_simples(pr, data):
    p, r = pr
    bound = 2 * p**r
    mults = data.draw(
        st.dictionaries(st.integers(-bound, bound), st.integers(1, 4), min_size=0, max_size=5)
    )
    total: dict[int, int] = {}
    for lam, k in mults.items():
        total = _add(total, ref_simple_r(lam, p, r), k)
    assert decompose_into_simples(Character(total), Context(p, r)) == mults


@settings(deadline=None, max_examples=100)
@given(weights(), st.integers(-8, 8), st.integers(-3, 3))
def test_hom_dim_shift_equivariant(case, offset, eta):
    p, r, lam = case
    ctx = Context(p, r)
    mu = lam + offset
    shift = ctx.q * eta
    assert hom_dim(lam + shift, mu + shift, ctx) == hom_dim(lam, mu, ctx)


@settings(deadline=None, max_examples=100)
@given(weights())
def test_tilde_shifts_by_twice_the_box(case):
    p, r, lam = case
    ctx = Context(p, r)
    if (lam + 1) % ctx.q == 0:
        assert tilde(lam, ctx) == lam
    else:
        assert tilde(tilde(lam, ctx), ctx) == lam + 2 * ctx.q
    assert tilde(lam + 2 * ctx.q, ctx) == tilde(lam, ctx) + 2 * ctx.q
