"""Golden digests of the rewriting engine.

Each case pins the sha256 of three renderings: the irreducible words per
vertex pair (pairs in `_pair_key` order, words as `format_path`), the
cell-filtration report as sorted-key JSON, and the pretty normal forms of
200 seeded random elements.  A refactor of the rewriting engine must leave
every digest unchanged; the orientation is not proven confluent, so a
changed rewrite order can change normal forms without failing any other
test.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from test_quiver_engines import _random_elements
from test_quiver_p2 import _balanced
from tiltcell.quiver import (
    QuotientDims,
    _pair_key,
    build_p1_quiver,
    build_p2_quiver,
    build_sl3_quiver,
)
from tiltcell.rewrite import cell_filtration_check, irreducible_words, normal_form

# the first balanced point of test_scalar_locus at p=5
P5_BALANCED = _balanced(5, Fraction(2, 3), 1, -1, theta0=Fraction(-5, 7))

CASES = {
    "p1-p3": (lambda: build_p1_quiver(3, window=2), 4),
    "p2-p3": (lambda: build_p2_quiver(3, window=1), 5),
    "p2-p5-balanced": (lambda: build_p2_quiver(5, window=1, scalars=P5_BALANCED), 5),
    "sl3-default": (lambda: build_sl3_quiver(1, 1, 0), 7),
    "sl3-free-r": (lambda: build_sl3_quiver(Fraction(2, 3), 3, 1), 7),
}

# case -> (irreducible words, cell filtration, normal forms)
GOLDEN = {
    "p1-p3": (
        "20e0e21a0bb14ea48a604abcbcea8b0e72809e887d409648a3caa8fe8d1fac7d",
        "c408ca87b8e8ea66ef66f0b4617e0f516a1e469c9fc6adfa688dc09065b8cbca",
        "9d4bc2ac9db7c5434a5efbaa081ef915642e11c3135280b42c8c18593b5399e7",
    ),
    "p2-p3": (
        "3e745bae83dbbf924810a3cf336d9c4bbc4186a064c9c38ba4784fd1c4f63e3d",
        "8552ddb4db230875eba3c3838e06ef0c4dfb2dc33adb44e8f4acc7f0b17fc863",
        "f3323eb7f600c6375a5a7a9efd1f094db2b2377662b3b8e891a5cf43bdcea75a",
    ),
    "p2-p5-balanced": (
        "bcd83e8e175ff820cc1a68b1aa412640f33d7db2af67719c2428dd953addadcc",
        "26a9e55d6f9f5fc37de4c639ab2cc16aa48cd4bdd1cc7c874afd9cbe5828e1dc",
        "ecabd1e8899d1a7c5b35456fda4a596799a4cd8db1c95f9fc3db88885731cff8",
    ),
    "sl3-default": (
        "b4d5e745c4f889a0ea02b30c1e5125e6a43dd8121a8b5d6b6b09b83d3f97170e",
        "4e68f0876a230049189593b4543c13c7813d7ceb24a0e655721eff5ca1915553",
        "780fa5806035d2550829bc28dea36e51549a92bebe921f4892d5d30abf8a777b",
    ),
    "sl3-free-r": (
        "b4d5e745c4f889a0ea02b30c1e5125e6a43dd8121a8b5d6b6b09b83d3f97170e",
        "4e68f0876a230049189593b4543c13c7813d7ceb24a0e655721eff5ca1915553",
        "9ea1747098dc068dfdd70d894eea4b07e6a1a65d79ce825527654c98901635cc",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name: str) -> tuple[str, str, str]:
    maker, max_len = CASES[name]
    quiver, rels = maker()
    words = irreducible_words(quiver, rels, max_len)
    lines = [
        f"{pair!r}: {' '.join(quiver.format_path(w) for w in words[pair])}"
        for pair in sorted(words, key=_pair_key)
    ]
    shell = QuotientDims(max_len, {}, [], [], [])
    filt = cell_filtration_check(quiver, rels, shell).to_dict()
    rng = random.Random(2024)
    forms = [
        normal_form(x, rels).pretty(quiver)
        for x in _random_elements(quiver, rels, rng, 200)
    ]
    return (
        _sha("\n".join(lines)),
        _sha(json.dumps(filt, sort_keys=True)),
        _sha("\n".join(forms)),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_rewrite_golden(name):
    assert digests(name) == GOLDEN[name]
