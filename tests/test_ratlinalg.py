"""SparseEchelon and ContractedEchelon against a dense Fraction Gaussian
elimination: rank, the verdict of each add, the pivot counts and the support
of each residue must agree.  Systems are drawn over labelled columns and a
drawn priority order, with rational coefficients, then handed to the echelons
by each label's index in that order, each row scaled by the lcm of its
denominators: the echelons take integer rows only, and scaling a row changes
neither the span nor a residue's support."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from tiltcell.ratlinalg import ContractedEchelon, SparseEchelon


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


def integral(row: dict) -> dict:
    """row scaled by the lcm of its denominators, so every entry is an int."""
    scale = lcm(*(v.denominator for v in row.values()))
    return {k: int(v * scale) for k, v in row.items()}


def indexed(order: list, *rowlists: list[dict]) -> list[list[dict]]:
    """Each row keyed by its labels' indices in the priority `order`, and
    made integral."""
    col = {c: i for i, c in enumerate(order)}
    return [[integral({col[c]: v for c, v in row.items()}) for row in rows] for rows in rowlists]


@settings(deadline=None, max_examples=150)
@given(systems())
def test_echelon_matches_dense_reference(system):
    order, rows, probes, combos = system
    rows, probes = indexed(order, rows, probes)
    ech = SparseEchelon()
    ref = DenseReference(list(range(len(order))))
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
        vec = integral({k: v for k, v in vec.items() if v})
        assert ech.reduce(vec) == {}
        assert not ech.add(vec)
    assert ech.rank == len(ref.rows)


@settings(deadline=None, max_examples=150)
@given(systems(), st.integers(0, 9))
def test_pivot_count_is_projected_rank(system, k):
    # pivots among the k highest-priority columns = rank of the span
    # projected onto them; it is k iff each of them reduces off all of them
    order, rows, _, _ = system
    (rows,) = indexed(order, rows)
    k = min(k, len(order))
    head = list(range(k))
    ech = SparseEchelon()
    projected = DenseReference(head)  # reads only the head columns of a row
    for row in rows:
        ech.add(row)
        projected.add(row)
        assert ech.pivots_among(k) == len(projected.rows)
        avoids = all(not set(ech.reduce({c: 1})) & set(head) for c in head)
        assert (ech.pivots_among(k) == k) == avoids


@st.composite
def binomial_systems(draw):
    """Rows of one and two terms in shapes that decide a class: chains
    closed into cycles of ratio product 1 (the class lives) or not (it
    dies), kills before and after merges, repeated rows; and a few rows of
    three or more terms.  Rows arrive in a drawn order."""
    n = draw(st.integers(1, 6))
    cols = [(i, "x" * i) for i in range(n)]
    order = draw(st.permutations(cols))
    rows: list[dict] = []
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(["kill", "pair", "cycle", "cycle", "repeat", "wide"]))
        if shape == "kill":
            rows.append({draw(st.sampled_from(cols)): draw(coeff)})
        elif shape == "pair" and n > 1:
            a, b = draw(st.lists(st.sampled_from(cols), min_size=2, max_size=2, unique=True))
            rows.append({a: draw(coeff), b: draw(coeff)})
        elif shape == "cycle" and n > 1:
            ring = draw(st.lists(st.sampled_from(cols), min_size=2, max_size=n, unique=True))
            # ring[i] = ratio[i] * ring[i+1]; the closing ratio makes the
            # product 1, or 2 if the cycle is to kill its class
            ratios = draw(st.lists(coeff, min_size=len(ring) - 1, max_size=len(ring) - 1))
            product = Fraction(1)
            for r in ratios:
                product *= r
            ratios.append((1 if draw(st.booleans()) else 2) / product)
            for i, r in enumerate(ratios):
                scale = draw(coeff)
                rows.append({ring[i]: scale, ring[(i + 1) % len(ring)]: -scale * r})
        elif shape == "repeat" and rows:
            scale = draw(coeff)
            rows.append({k: scale * v for k, v in draw(st.sampled_from(rows)).items()})
        elif shape == "wide" and n > 2:
            keys = draw(st.lists(st.sampled_from(cols), min_size=3, max_size=5, unique=True))
            rows.append({k: draw(coeff) for k in keys})
    rows = draw(st.permutations(rows))
    probes = [{c: 1} for c in cols] + draw(
        st.lists(st.dictionaries(st.sampled_from(cols), coeff, min_size=1, max_size=4), max_size=3)
    )
    return order, rows, probes


@settings(deadline=None, max_examples=50)
@given(binomial_systems())
def test_contracted_echelon_matches_dense_reference(system):
    order, rows, probes = system
    rows, probes = indexed(order, rows, probes)
    ech = ContractedEchelon(len(order), iter(rows))
    ref = DenseReference(list(range(len(order))))
    for row in rows:
        ref.add(row)
    assert ech.rank == len(ref.rows)
    for k in range(len(order) + 1):
        # ref.rows is keyed by pivot position in the priority order
        assert ech.pivots_among(k) == sum(i < k for i in ref.rows)
    for probe in probes:
        assert set(ech.reduce(probe)) == ref.support(probe)
