"""The names the package exports."""

import cstar_rank

PUBLIC_NAMES = {
    "__version__",
    "DEFAULT_TOL",
    "Algebra",
    "AlgebraElement",
    "CstarRankError",
    "DegenerateModuleError",
    "DomainError",
    "InvertibilityError",
    "ModuleNotFullError",
    "ReductionFailedError",
    "ShapeMismatchError",
    "CornerSpace",
    "ModuleElement",
    "ModuleSpace",
    "ModuleTuple",
    "corner_space",
    "dual_witness",
    "gen_oracle",
    "generation_margin",
    "gram",
    "inner_left",
    "inner_right",
    "is_full",
    "is_unimodular",
    "normalize_tuple",
    "pairing",
    "space_from_json_dict",
    "stack",
    "tuple_from_json_list",
    "unimodularity_margin",
    "DensityReport",
    "PerturbationParams",
    "ReductionCoefficients",
    "adjointable_norm",
    "bass_reduce",
    "density_experiment",
    "hv_pad",
    "hv_perturb",
    "sr_formula",
    "warfield_b_to_a",
    "warfield_forward",
}


def test_public_names_are_pinned():
    assert len(cstar_rank.__all__) == len(set(cstar_rank.__all__))
    assert set(cstar_rank.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(cstar_rank, name), name
