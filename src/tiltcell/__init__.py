"""tiltcell: exact combinatorics of rank-one tilting ladders.

Filtration multiplicities and Hom dimensions of indecomposable tilting
objects over the level-r thickened Frobenius kernels of SL2, an independent
character-ring oracle, cellular-basis bookkeeping, and three quiver
presentations cross-checked by exact path-algebra quotients.
"""

from .charring import (
    Character,
    NotAModuleCharacter,
    baby_verma_char,
    decompose_into_simples,
    simple_char,
    simple_char_r,
    weyl_char,
)
from .deltafilt import (
    DeltaFactors,
    InvariantViolation,
    delta_factors,
    hom_dim,
    hom_dim_sum,
    tilting_char,
    verify_bounds,
    verify_mult_free,
    verify_reciprocity,
    verify_steinberg_equivalence,
    verify_strong_linkage,
)
from .cellbasis import (
    CellIndex,
    GeneratorSymbol,
    cell_indices,
    dagger,
    generator_set_br,
    generator_set_br0,
    sl3_delta_table,
    sl3_generator_set_bprime,
)
from .report import Report, ReportItem
from .weights import (
    Context,
    PadicSplit,
    dot_orbit,
    dot_reflect,
    padic_split,
    strongly_linked,
    tilde,
)

__version__ = "0.1.0"

# The quiver engine (and the exact linear algebra under it) is imported on
# first use of one of its names, so the weight-side commands start without it.
_QUIVER_NAMES = (
    "NonTerminating",
    "NotSaturated",
    "PathElement",
    "Quiver",
    "QuiverConfigError",
    "RelationSet",
    "build_p1_quiver",
    "build_p2_quiver",
    "build_sl3_quiver",
    "cell_filtration_check",
    "check_against_cellular",
    "export_dot",
    "normal_form",
    "quotient_dims",
)


def __getattr__(name: str):
    if name in _QUIVER_NAMES:
        from . import quiver

        return getattr(quiver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
