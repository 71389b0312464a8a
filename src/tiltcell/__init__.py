"""tiltcell: exact combinatorics of rank-one tilting ladders.

Filtration multiplicities and Hom dimensions of indecomposable tilting
objects over the level-r thickened Frobenius kernels of SL2, an independent
character-ring oracle, cellular-basis bookkeeping, and three quiver
presentations cross-checked by exact path-algebra quotients.

`import tiltcell` loads none of its submodules: each exported name is looked
up in the export table on first use (PEP 562), and only the submodule that
defines it, with what that submodule imports, is loaded then.
"""

__version__ = "0.1.0"

# every exported name -> the submodule that defines it
_EXPORTS = {
    "Character": "charring",
    "NotAModuleCharacter": "charring",
    "baby_verma_char": "charring",
    "decompose_into_simples": "charring",
    "simple_char": "charring",
    "simple_char_r": "charring",
    "weyl_char": "charring",
    "DeltaFactors": "factors",
    "InvariantViolation": "factors",
    "delta_factors": "factors",
    "hom_dim": "factors",
    "hom_dim_sum": "factors",
    "tilting_char": "deltafilt",
    "verify_bounds": "deltafilt",
    "verify_mult_free": "deltafilt",
    "verify_reciprocity": "deltafilt",
    "verify_steinberg_equivalence": "deltafilt",
    "verify_strong_linkage": "deltafilt",
    "CellIndex": "cellbasis",
    "GeneratorSymbol": "cellbasis",
    "cell_indices": "cellbasis",
    "dagger": "cellbasis",
    "generator_set_br": "cellbasis",
    "generator_set_br0": "cellbasis",
    "sl3_delta_table": "cellbasis",
    "sl3_generator_set_bprime": "cellbasis",
    "PathElement": "quiver",
    "Quiver": "quiver",
    "QuiverConfigError": "quiver",
    "RelationSet": "quiver",
    "build_p1_quiver": "quiver",
    "build_p2_quiver": "quiver",
    "build_sl3_quiver": "quiver",
    "check_against_cellular": "quiver",
    "export_dot": "quiver",
    "NotSaturated": "linear",
    "quotient_dims": "linear",
    "NonTerminating": "rewrite",
    "cell_filtration_check": "rewrite",
    "normal_form": "rewrite",
    "Report": "report",
    "ReportItem": "report",
    "Context": "weights",
    "dot_orbit": "weights",
    "strongly_linked": "weights",
    "tilde": "weights",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
