"""`quiver._has_word` against brute-force scans: every occurrence of every
word that is not inside path[:a] or path[b:], and with the default window
every occurrence anywhere."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from tiltcell.quiver import _has_word

letters = st.integers(0, 2)
words = st.sets(st.lists(letters, min_size=1, max_size=4).map(tuple), max_size=8)
paths = st.lists(letters, max_size=10).map(tuple)


@st.composite
def cases(draw):
    ws = draw(words)
    path = draw(paths)
    n = len(path)
    a = draw(st.integers(0, n))
    b = draw(st.integers(a, n))
    return ws, path, a, b


def lengths_of(ws):
    return sorted({len(w) for w in ws})


@settings(deadline=None, max_examples=150)
@given(cases())
def test_window_matches_brute_force(case):
    ws, path, a, b = case
    n = len(path)
    expected = any(
        path[i : i + L] in ws
        for L in range(1, 5)
        for i in range(n - L + 1)
        if i < b and i + L > a
    )
    assert _has_word(path, ws, lengths_of(ws), a, b) == expected


@settings(deadline=None, max_examples=150)
@given(words, paths)
def test_default_window_is_full_scan(ws, path):
    expected = any(path[i:j] in ws for i in range(len(path)) for j in range(i + 1, len(path) + 1))
    assert _has_word(path, ws, lengths_of(ws)) == expected
