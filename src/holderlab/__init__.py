"""holderlab: a matrix laboratory for operator Holder-type inequalities.

Functional calculus on Hermitian matrices, Schatten-type quasi-norms,
double operator integrals as Schur multipliers, weighted-derivative function
classes, and randomized verification campaigns with empirical constant
estimation.

Each public name below, and each submodule (``holderlab.doi``), is imported
on first access, so a process loads only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    module: names.split()
    for module, names in {
        "errors": """CapabilityError DomainError EigensolverError HolderLabError
            ParameterError ShapeError SingularityError""",
        "spectral": """SpectralDecomposition abs_matrix apply_function as_hermitian cayley
            eig_hermitian op_norm spectral_projection""",
        "norms": "KyFan PowerOf Schatten norm_of_profile parse_norm_spec singular_values",
        "functions": """ScalarFunction SeminormEstimate d_of_p dilate_function
            parse_function_spec scalar_sum_555 seminorm""",
        "ensembles": "SeedState haar_unitary",
        "doi": """BivariateSymbol alpha_symbol beta_symbol dd_symbol
            decomposition_bound doi_lipschitz_identity dyadic_symbols empirical_mp_lower
            fourier_sobolev_bound representation_reconstruct schur_apply""",
        "verify": """VerificationRecord cayley_identity_residual verify_bks
            verify_commutator verify_main""",
        "campaign": "CampaignConfig CampaignReport replay run_campaign",
    }.items()
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
