"""holderlab: a matrix laboratory for operator Holder-type inequalities.

Functional calculus on Hermitian matrices, Schatten-type quasi-norms,
double operator integrals as Schur multipliers, weighted-derivative function
classes, and randomized verification campaigns with empirical constant
estimation.
"""

__version__ = "0.1.0"

from .errors import (
    CapabilityError,
    DomainError,
    EigensolverError,
    HolderLabError,
    ParameterError,
    PreconditionError,
    ShapeError,
    SingularityError,
)
from .spectral import (
    SpectralDecomposition,
    abs_matrix,
    apply_function,
    as_hermitian,
    cayley,
    eig_hermitian,
    op_norm,
    spectral_projection,
)
from .norms import (
    KyFan,
    PowerOf,
    Schatten,
    SubmajorizationReport,
    WeakLp,
    distribution_function,
    norm,
    norm_of_profile,
    parse_norm_spec,
    singular_values,
    submajorizes,
)
from .functions import (
    ScalarFunction,
    SeminormEstimate,
    d_of_p,
    dilate_function,
    parse_function_spec,
    scalar_sum_555,
    seminorm,
)
from .ensembles import SeedState, haar_unitary
from .doi import (
    BivariateSymbol,
    MpBound,
    alpha_symbol,
    beta_symbol,
    dd_symbol,
    decomposition_bound,
    doi_lipschitz_identity,
    dyadic_symbols,
    empirical_mp_lower,
    fourier_sobolev_bound,
    representation_reconstruct,
    schur_apply,
)
from .verify import (
    VerificationRecord,
    alt_check,
    cayley_identity_residual,
    telescope_finite_rank,
    verify_abs_map,
    verify_bks,
    verify_commutator,
    verify_inverse,
    verify_main,
    verify_quasi_commutator,
    verify_reverse_power,
    verify_submajorization,
    verify_symmetric,
)
from .campaign import CampaignConfig, CampaignReport, replay, run_campaign
