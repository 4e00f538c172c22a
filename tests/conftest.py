import numpy as np
import pytest

import holderlab.verify as V
from holderlab.ensembles import haar_unitary
from holderlab.spectral import from_eigen


@pytest.fixture
def overflowing_norms(monkeypatch):
    """The kernels' p-th power norms as they read when the powers were taken
    unscaled: a profile whose largest entry to the p-th power exceeds the
    float range has norm inf."""
    real = V.norm_of_profile

    def norm_of_profile(values, spec):
        with np.errstate(over="ignore"):
            overflows = np.max(values, axis=-1) ** spec.p == np.inf
        return np.where(overflows, np.inf, real(values, spec))

    monkeypatch.setattr(V, "norm_of_profile", norm_of_profile)


def fixed_spectrum(eigenvalues, rng):
    """A Hermitian matrix with the given spectrum in a Haar basis, from the
    draws of one haar_unitary call: returns (matrix, eigenvalues ascending,
    basis)."""
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    u = haar_unitary(lam.size, rng)
    return from_eigen(u, lam), lam, u


def hermitian_sv(m):
    """The singular values of one Hermitian matrix, from a 2-D eigvalsh: the
    per-matrix reference of the kernels' batched Hermitian profiles."""
    return np.ascontiguousarray(np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1])


def one_record(kernel, f, theta, p, spec, *mats, variant=None, digest=""):
    """The record of the stack kernel verify_<kernel>_stack on the one trial
    ``mats`` in the one cell (theta, p, spec), through verify._one, named
    ``kernel``; raises the error of the cell's check or of the trial."""
    stack_kernel = getattr(V, f"verify_{kernel}_stack")
    outcomes = V._one(stack_kernel, f, theta, p, spec, mats, variant)
    return outcomes.record(0, 0, kernel, digest)
