"""SparseEchelon against a dense Fraction Gaussian elimination: rank, the
verdict of each add, and the support of each residue must agree."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tiltcell.ratlinalg import SparseEchelon


class DenseReference:
    """Reduced row echelon form over Fractions, columns in priority order."""

    def __init__(self, order: list):
        self.order = order
        # pivot position -> dense row, 1 at its pivot and 0 at every other pivot
        self.rows: dict[int, list[Fraction]] = {}

    def residue(self, vec: dict) -> list[Fraction]:
        v = [Fraction(vec.get(c, 0)) for c in self.order]
        for i, prow in self.rows.items():
            if v[i]:
                f = v[i]
                v = [a - f * b for a, b in zip(v, prow)]
        return v

    def support(self, vec: dict) -> set:
        return {c for c, a in zip(self.order, self.residue(vec)) if a}

    def add(self, vec: dict) -> bool:
        v = self.residue(vec)
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is None:
            return False
        v = [a / v[lead] for a in v]
        for j, prow in self.rows.items():
            if prow[lead]:
                f = prow[lead]
                self.rows[j] = [a - f * b for a, b in zip(prow, v)]
        self.rows[lead] = v
        return True


nonzero = st.integers(-30, 30).filter(bool)
coeff = st.one_of(nonzero, st.builds(Fraction, nonzero, st.integers(2, 12)))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 9))
    cols = [(i, "x" * i) for i in range(n)]  # tuple keys, like paths
    order = draw(st.permutations(cols))
    row = st.dictionaries(st.sampled_from(cols), coeff, min_size=1, max_size=min(n, 5))
    rows = draw(st.lists(row, max_size=12))
    probes = draw(st.lists(row, max_size=5))
    combos = draw(
        st.lists(st.lists(coeff, min_size=len(rows), max_size=len(rows)), max_size=3)
    )
    return order, rows, probes, combos


@settings(deadline=None, max_examples=150)
@given(systems())
def test_echelon_matches_dense_reference(system):
    order, rows, probes, combos = system
    ech = SparseEchelon({c: i for i, c in enumerate(order)})
    ref = DenseReference(order)
    for row in rows:
        assert ech.add(row) == ref.add(row)
        assert ech.rank == len(ref.rows)
        for probe in probes:
            assert set(ech.reduce(probe)) == ref.support(probe)
    # rows already in the span reduce to nothing and do not enlarge it
    for combo in combos:
        vec: dict = {}
        for c, row in zip(combo, rows):
            for k, v in row.items():
                vec[k] = vec.get(k, 0) + c * v
        vec = {k: v for k, v in vec.items() if v}
        assert ech.reduce(vec) == {}
        assert not ech.add(vec)
    assert ech.rank == len(ref.rows)
