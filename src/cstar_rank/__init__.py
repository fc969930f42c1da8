"""Numerical toolkit for unimodular tuples and stable rank of matrix Hilbert
C*-modules over finite-dimensional C*-algebras.

Everything is double precision, seeded and reproducible; invertibility is
always relative to an explicit tolerance, echoed in every report.

``import cstar_rank`` loads no numpy.  The first read of a public name loads
``algebra``, ``hilbert_module`` and ``stable_rank`` together and binds every
public name here, so the command line can answer ``sr-formula`` without numpy.
"""

from ._version import __version__

__all__ = [
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
]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import algebra, errors, hilbert_module, stable_rank

    defined = {**vars(errors), **vars(algebra), **vars(hilbert_module), **vars(stable_rank)}
    globals().update((public, defined[public]) for public in __all__ if public != "__version__")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
