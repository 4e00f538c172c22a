"""What a fresh process loads: the package resolves its public names on first
access, and each CLI subcommand imports only the modules it runs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import holderlab as hl

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hl.__file__)))

# every public name of the package, and the submodules it bound, as of the
# release whose __init__ imported them all, less the per-trial verifier
# functions that only tests called and PreconditionError, which they raised
EXPORTS = """
BivariateSymbol CampaignConfig CampaignReport CapabilityError DomainError EigensolverError
HolderLabError KyFan MpBound ParameterError PowerOf ScalarFunction Schatten
SeedState SeminormEstimate ShapeError SingularityError SpectralDecomposition
SubmajorizationReport VerificationRecord WeakLp abs_matrix alpha_symbol
apply_function as_hermitian beta_symbol cayley cayley_identity_residual d_of_p dd_symbol
decomposition_bound dilate_function distribution_function doi_lipschitz_identity
dyadic_symbols eig_hermitian empirical_mp_lower fourier_sobolev_bound haar_unitary norm
norm_of_profile op_norm parse_function_spec parse_norm_spec replay representation_reconstruct
run_campaign scalar_sum_555 schur_apply seminorm singular_values spectral_projection
submajorizes verify_bks verify_commutator verify_main
""".split()
SUBMODULES = "campaign doi ensembles errors functions norms spectral verify".split()


def _loaded_after(code: str) -> set:
    """The holderlab modules a fresh interpreter has loaded after ``code``."""
    script = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'holderlab')))"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


def _cli_call(argv) -> str:
    return f"from holderlab.cli import main\nassert main({argv!r}) == 0"


def test_importing_the_cli_loads_no_subcommand_module():
    code = "import sys, holderlab.cli\nassert 'numpy' not in sys.modules"
    assert _loaded_after(code) == {"holderlab", "holderlab.cli", "holderlab.errors"}


def test_mpnorm_loads_no_campaign_or_verifier_code():
    argv = ["mpnorm", "--symbol", "dyadic:2", "--f", "log1p", "--trials", "2", "--grid", "4"]
    loaded = _loaded_after(_cli_call(argv))
    assert "holderlab.doi" in loaded
    assert not loaded & {"holderlab.campaign", "holderlab.verify"}


def test_seminorm_loads_only_the_scalar_functions():
    argv = ["seminorm", "--f", "log1p", "--theta", "0.5", "--d", "2"]
    assert _loaded_after(_cli_call(argv)) == {
        "holderlab", "holderlab.cli", "holderlab.errors", "holderlab.functions"
    }


def test_the_package_loads_nothing_until_a_name_is_used():
    assert _loaded_after("import holderlab") == {"holderlab"}
    loaded = _loaded_after("import holderlab\nholderlab.SeedState")
    assert "holderlab.ensembles" in loaded and "holderlab.campaign" not in loaded
    # a submodule no import has bound yet resolves as an attribute too
    assert "holderlab.doi" in _loaded_after("import holderlab\nholderlab.doi.schur_apply")


@pytest.mark.parametrize("name", EXPORTS)
def test_every_exported_name_is_its_defining_module_object(name):
    value = getattr(hl, name)
    assert value is vars(sys.modules[value.__module__])[name]
    assert value.__module__.startswith("holderlab.") and name in dir(hl)


def test_submodules_resolve_as_attributes_and_by_import():
    for name in SUBMODULES:
        assert getattr(hl, name) is importlib.import_module(f"holderlab.{name}")
    from holderlab import campaign, doi

    assert (campaign.run_campaign, doi.schur_apply) == (hl.run_campaign, hl.schur_apply)
    assert sorted(hl.__all__) == sorted(EXPORTS + SUBMODULES)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hl.no_such_name
    with pytest.raises(ImportError):
        from holderlab import no_such_name  # noqa: F401
