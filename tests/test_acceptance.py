"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison here is exact integer equality; there are no
tolerances anywhere.
"""

from __future__ import annotations

from contextlib import contextmanager

from tiltcell.cellbasis import SL3_ELEMENTS, cell_indices, dagger, sl3_hom_dim
from tiltcell.deltafilt import (
    verify_bounds,
    verify_mult_free,
    verify_reciprocity,
    verify_steinberg_equivalence,
    verify_strong_linkage,
)
from tiltcell.factors import delta_factors, hom_dim
from tiltcell.linear import quotient_dims
from tiltcell.quiver import (
    PathElement,
    build_p1_quiver,
    build_p2_quiver,
    build_sl3_quiver,
    check_against_cellular,
    ladder_weight,
    surviving_paths,
)
from tiltcell.rewrite import irreducible_words, normal_form
from tiltcell.weights import Context, dot_orbit, tilde


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL: {label}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS: {label}")


def expected_level2_factors(p: int, i: int) -> set[int]:
    """Closed-form factor tables of the level-two ladder objects, 0 <= i < 2p."""
    if i == 0:
        return {0, -2}
    if i == p:
        return {p * p + p - 2, p * p - p}
    if 0 < i < p:
        if i % 2 == 0:
            return {i * p, i * p - 2, -i * p, -i * p - 2}
        return {(i + 1) * p - 2, (i - 1) * p, -(i - 1) * p - 2, -(i + 1) * p}
    if i % 2 == 0:
        return {i * p, i * p - 2, (2 * p - i) * p, (2 * p - i) * p - 2}
    return {(i + 1) * p - 2, (i - 1) * p, (2 * p - i + 1) * p - 2, (2 * p - i - 1) * p}


def test_criterion_1_factor_tables():
    with criterion(1, "level-two factor tables match the closed forms (p in {3,5,7})"):
        for p in (3, 5, 7):
            ctx = Context(p, 2)
            for i in range(2 * p):
                lam = ladder_weight(i, p)
                got = delta_factors(lam, ctx)
                assert set(got) == expected_level2_factors(p, i), (p, i)
                assert all(m == 1 for m in got.values())


def test_criterion_2_level_one_hom_dims():
    with criterion(2, "level-one Hom dimensions are 2/1/0 by chain adjacency"):
        for p in (3, 5, 7):
            ctx = Context(p, 1)
            for n in range(-21, 22):
                for n2 in range(-21, 22):
                    expected = 2 if n == n2 else (1 if abs(n - n2) == 1 else 0)
                    assert hom_dim(ladder_weight(n, p), ladder_weight(n2, p), ctx) == expected
            # the same numbers in paired indexing: objects P_m, Q_m at 2pm, 2pm+2p-2
            for m in range(-10, 11):
                for m2 in range(-10, 11):
                    P, Q = 2 * p * m, 2 * p * m2 + 2 * p - 2
                    assert hom_dim(P, 2 * p * m2, ctx) == (2 if m == m2 else 0)
                    assert hom_dim(P, Q, ctx) == (1 if m - m2 in (0, 1) else 0)


def test_criterion_3_reciprocity():
    with criterion(3, "filtration/composition reciprocity against the character oracle"):
        for p in (3, 5):
            for r in (1, 2):
                ctx = Context(p, r)
                for lam in range(-2 * ctx.q, 2 * ctx.q + 1):
                    rep = verify_reciprocity(lam, ctx)
                    assert rep.all_pass, (p, r, lam, [it for it in rep.items if not it.passed][:3])


def test_criterion_4_multiplicity_freeness():
    with criterion(4, "all multiplicities in {0,1} (p in {3,5,7}, r in {1,2,3})"):
        for p in (3, 5, 7):
            for r in (1, 2, 3):
                ctx = Context(p, r)
                rep = verify_mult_free(-4 * ctx.q, 4 * ctx.q, ctx)
                assert rep.all_pass, (p, r, [it for it in rep.items if not it.passed][:3])


def test_criterion_5_weight_bounds():
    with criterion(5, "factor weights bounded between lam and tilde(lam), endpoints once"):
        for p in (3, 5, 7):
            for r in (1, 2, 3):
                ctx = Context(p, r)
                for lam in range(-4 * ctx.q, 4 * ctx.q + 1):
                    rep = verify_bounds(lam, ctx)
                    assert rep.all_pass, (p, r, lam, [it for it in rep.items if not it.passed][:3])


def test_criterion_6_strong_linkage():
    with criterion(6, "factors strongly linked; nonzero Hom stays in one dot orbit"):
        for p in (3, 5):
            for r in (1, 2):
                ctx = Context(p, r)
                for lam in range(-2 * ctx.q, 2 * ctx.q + 1):
                    assert verify_strong_linkage(lam, ctx).all_pass, (p, r, lam)
                lo, hi = -ctx.q, 2 * ctx.q
                for lam in range(lo, hi + 1):
                    orbit = dot_orbit(lam, lo - 4 * ctx.q, hi + 4 * ctx.q, ctx)
                    for mu in range(lo, hi + 1):
                        if hom_dim(lam, mu, ctx):
                            assert mu in orbit, (p, r, lam, mu)


def test_criterion_7_steinberg_equivalence():
    with criterion(7, "level-drop equivalence transports factor tables and Hom spaces"):
        for p in (3, 5):
            for r in (2, 3):
                ctx = Context(p, r)
                for m in range(-2 * p, 2 * p + 1):
                    rep = verify_steinberg_equivalence(m, ctx)
                    assert rep.all_pass, (p, r, m, [it for it in rep.items if not it.passed][:3])


def test_criterion_8_zigzag_quiver():
    with criterion(8, "zigzag quotient dimensions equal the cellular counts (p in {3,5})"):
        for p in (3, 5):
            quiver, rels = build_p1_quiver(p, window=2)
            assert len(quiver.core) >= 8
            result = quotient_dims(quiver, rels, 4)
            assert result.saturated
            assert check_against_cellular(quiver, result).all_pass
            for v, w in result.core_pairs:
                expected = 2 if v == w else (1 if abs(v - w) == 1 else 0)
                assert result.dim(v, w) == expected


def test_criterion_9_ladder_quiver():
    with criterion(
        9,
        "ladder quotient: long paths die, length-4 words are loops, dims match "
        "(all-ones scalars with the chain-top loop identification)",
    ):
        for p in (3, 5):
            quiver, rels = build_p2_quiver(p, window=1)
            core = quiver.core
            # (a) every length-5 path staying inside the core rewrites to zero
            alive = surviving_paths(quiver, rels, 5)
            checked = 0
            for (s, t), plist in alive.items():
                if s not in core:
                    continue
                for path in plist:
                    if len(path) != 5:
                        continue
                    at = s
                    inside = True
                    for aid in path:
                        at = quiver.arrows[aid].target
                        if at not in core:
                            inside = False
                            break
                    if inside:
                        checked += 1
                        assert not normal_form(PathElement(s, t, {path: 1}), rels).terms, path
            assert checked > 0
            # (b) irreducible core words have length <= 4 and length-4 ones are loops
            words = irreducible_words(quiver, rels, 5)
            for (s, t), plist in words.items():
                if s in core and t in core:
                    for w in plist:
                        assert len(w) <= 4
                        if len(w) == 4:
                            assert s == t
            # (c) interior quotient dimensions equal the common-factor counts
            result = quotient_dims(quiver, rels, 5)
            assert result.saturated
            assert check_against_cellular(quiver, result).all_pass
            # and the rewriting engine agrees with the linear one
            for pair in result.core_pairs:
                assert len(words.get(pair, [])) == result.dim(*pair)


def test_criterion_10_sl3_quiver():
    with criterion(10, "sl3 block quotient matches Bruhat counts, total dimension 77 at (1,1,0)"):
        quiver, rels = build_sl3_quiver(1, 1, 0)
        result = quotient_dims(quiver, rels, 7)
        assert result.saturated
        for x in SL3_ELEMENTS:
            for y in SL3_ELEMENTS:
                assert result.dim(x, y) == sl3_hom_dim(x, y), (x, y)
        assert sum(result.dims.values()) == 77


def test_criterion_11_structural_properties():
    # the projective-cover map squares to the tensor shift by 2q off its
    # special fixed points, so it is an involution exactly on twist classes;
    # a literal tilde(tilde(lam)) == lam would contradict the formula that
    # criteria 3 and 5 verify
    with criterion(11, "tilde involutive up to twist, dagger involution, shift equivariance, Hom symmetry"):
        for p, r in ((3, 1), (3, 2), (5, 1), (5, 2)):
            ctx = Context(p, r)
            for lam in range(-3 * ctx.q, 3 * ctx.q + 1):
                twice = tilde(tilde(lam, ctx), ctx)
                expected = lam if (lam + 1) % ctx.q == 0 else lam + 2 * ctx.q
                assert twice == expected
                assert (twice - lam) % (2 * ctx.q) == 0
            for lam in (-5, 0, 3, ctx.q - 1):
                base = delta_factors(lam, ctx)
                for eta in range(-3, 4):
                    assert delta_factors(lam + ctx.q * eta, ctx) == {
                        nu + ctx.q * eta: m for nu, m in base.items()
                    }
            for lam in range(-ctx.q, ctx.q + 1, 3):
                for mu in range(-ctx.q, ctx.q + 1, 3):
                    assert hom_dim(lam, mu, ctx) == hom_dim(mu, lam, ctx)
        ctx = Context(3, 1)
        idx = cell_indices({0: 1, 4: 1}, {4: 1, 6: 1}, ctx)
        assert idx
        for c in idx:
            assert dagger(dagger(c)) == c
