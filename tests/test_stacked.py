"""The batched bks engine against the per-trial path it replaces.

bks cells on positive pairs are evaluated in stacks of trials; every record,
statistic, counterexample and digest must equal what the per-trial path
(replay) gives, bit for bit.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

import holderlab as hl
import holderlab.campaign as camp
import holderlab.verify as V
from holderlab.campaign import CampaignConfig, replay, run_campaign, trial_outcomes
from holderlab.ensembles import (
    PositivePair,
    SeedState,
    fixed_spectrum,
    sample,
    sample_positive_pairs,
)
from holderlab.errors import DomainError, HolderLabError, ParameterError
from holderlab.norms import KyFan, Schatten, norm, norm_of_profile, singular_values
from holderlab.spectral import as_hermitian, eig_hermitian

NORMS = ["schatten:1", "kyfan:2", "schatten:inf"]

CONFIGS = {
    "small-dims": dict(
        thetas=[0.5], norms=["schatten:1", "kyfan:2"], dims=[1, 2, 3, 8], trials=33
    ),
    "chunk-65": dict(thetas=[0.25, 0.75], norms=["schatten:inf"], dims=[8], trials=65),
    "dims-32-64": dict(thetas=[0.5], norms=["schatten:1"], dims=[32, 64], trials=3),
    "tiny-spectrum": dict(
        thetas=[0.3], norms=NORMS, dims=[3, 8], trials=33,
        ensemble={"name": "positive_pair", "spectrum_range": [0.0, 1e-8]},
    ),
    "huge-spectrum": dict(
        thetas=[0.7], norms=NORMS, dims=[3, 8], trials=33,
        ensemble={"name": "positive_pair", "spectrum_range": [1e7, 1e8]},
    ),
    "fixed-degenerate": dict(
        thetas=[0.5], norms=NORMS, dims=[5], trials=20,
        ensemble={"name": "fixed_pair", "eigenvalues": [0.0, 0.0, 0.5, 0.5, 1.0]},
    ),
    "invalid-cells": dict(
        thetas=[1.5, 0.5], norms=["schatten:0.5", "schatten:1"], dims=[8], trials=5
    ),
    "refine": dict(
        thetas=[0.5], norms=["schatten:1", "kyfan:2"], dims=[3, 8], trials=40, refine_steps=4
    ),
}


def _config(name, seed=101):
    return CampaignConfig.from_dict(
        {"verifier": "bks", "ps": [1.0], "seed": seed, **CONFIGS[name]}
    )


def _bits(rec):
    floats = (rec.lhs.hex(), rec.rhs.hex(), rec.ratio.hex())
    return (rec.name, *floats, rec.flagged, rec.inputs_digest)


def _outputs(config):
    report, counterexamples = run_campaign(config)
    return report.to_csv(), report.to_json(), json.dumps(counterexamples, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_trial_replays_bitwise(name):
    config = _config(name)
    report, _ = run_campaign(config)
    for cell_idx, cell in enumerate(report.cells):
        failures = 0
        for trial, inputs, rec in trial_outcomes(config, cell_idx, None, {}):
            if rec is None:
                failures += 1
                with pytest.raises(HolderLabError):
                    replay(config, cell_idx, trial)
                continue
            assert _bits(rec) == _bits(replay(config, cell_idx, trial))
        assert failures == cell.failures


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_match_per_trial_path(name, monkeypatch):
    config = _config(name, seed=202)
    stacked = _outputs(config)
    monkeypatch.setattr(camp, "_stack_size", lambda *args: 0)
    assert stacked == _outputs(config)


def test_invalid_cells_fail_every_trial():
    report, _ = run_campaign(_config("invalid-cells"))
    failures = {(c.theta, c.norm): c.failures for c in report.cells}
    assert failures == {
        (1.5, "schatten:0.5"): 5,
        (1.5, "schatten:1"): 5,
        (0.5, "schatten:0.5"): 5,
        (0.5, "schatten:1"): 0,
    }


def test_stack_sizes_are_bounded():
    config = _config("small-dims")
    sizes = {d: camp._stack_size(config, 0.5, Schatten(1), d) for d in (1, 8, 32, 64, 128)}
    assert sizes == {1: 2048, 8: 32, 32: 2, 64: 1, 128: 1}
    assert camp._stack_size(config, 1.5, Schatten(1), 8) == 0
    assert camp._stack_size(config, 0.5, Schatten(0.5), 8) == 0
    assert camp._stack_size(_config("fixed-degenerate"), 0.5, Schatten(1), 5) == 0


def test_rejected_stack_items_take_the_per_trial_path(monkeypatch):
    # drop every third record of each stack, and fail one whole stack with a
    # LinAlgError: the report must not change
    config = _config("chunk-65", seed=303)
    expected = _outputs(config)
    real = V.verify_bks_stack
    calls = []

    def flaky(theta, spec, pairs, digests):
        calls.append(len(pairs))
        if len(calls) == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        recs = real(theta, spec, pairs, digests)
        return [None if i % 3 == 0 else r for i, r in enumerate(recs)]

    monkeypatch.setattr(camp, "V", SimpleNamespace(**{**vars(V), "verify_bks_stack": flaky}))
    assert _outputs(config) == expected
    assert calls[:3] == [32, 32, 1]


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("spectrum_range", [(0.0, 1.0), (0.0, 1e-8), (1e7, 1e8)])
def test_sampler_matches_per_seed_draws(dim, spectrum_range):
    spec = PositivePair(dim, spectrum_range)
    seeds = [SeedState(9, (0, 4, t)) for t in range(5)]
    pairs = sample_positive_pairs(spec, seeds)
    assert pairs.shape == (5, 2, dim, dim)
    lo, hi = spectrum_range
    for seed, pair in zip(seeds, pairs):
        x, y = sample(spec, seed)
        assert np.array_equal(x, pair[0]) and np.array_equal(y, pair[1])
        # the draws of two fixed_spectrum calls on one generator
        rng = seed.rng()
        for m in pair:
            ref, _, _ = fixed_spectrum(rng.uniform(lo, hi, dim), rng)
            assert np.array_equal(ref, m)


def test_sampler_rejects_bad_specs():
    with pytest.raises(ParameterError):
        sample_positive_pairs(PositivePair(0), [SeedState(1)])
    with pytest.raises(ParameterError):
        sample_positive_pairs(PositivePair(3, (1.0, 0.5)), [SeedState(1)])


def _bks_per_matrix(theta, spec, x, y):
    """verify_bks computed one matrix at a time with 2-D LAPACK calls."""
    sides = []
    for m in (x, y):
        dec = eig_hermitian(as_hermitian(m))
        sides.append((dec, np.clip(dec.eigenvalues, 0.0, None)))
    (dx, vx), (dy, vy) = sides
    x_t = (dx.basis * vx ** theta) @ dx.basis.conj().T
    y_t = (dy.basis * vy ** theta) @ dy.basis.conj().T
    lhs = norm(x_t - y_t, spec)
    rhs = norm_of_profile(singular_values(dx.matrix() - dy.matrix()) ** theta, spec)
    return lhs, rhs


@pytest.mark.parametrize(
    "eigenvalues", [[0.0, 0.0, 0.5, 0.5, 1.0], [0.0] * 4, [2.0, 2.0, 2.0], [1e-9, 3.0]]
)
def test_stack_kernel_matches_per_matrix_math(eigenvalues):
    rng = SeedState(5, (len(eigenvalues),)).rng()
    pairs = np.stack(
        [np.stack([fixed_spectrum(eigenvalues, rng)[0] for _ in range(2)]) for _ in range(7)]
    )
    for spec in (Schatten(1), Schatten(2), Schatten(np.inf), KyFan(2)):
        recs = V.verify_bks_stack(0.5, spec, pairs, [""] * len(pairs))
        for (x, y), rec in zip(pairs, recs):
            lhs, rhs = _bks_per_matrix(0.5, spec, x, y)
            assert (rec.lhs.hex(), rec.rhs.hex()) == (lhs.hex(), rhs.hex())
            assert _bits(rec) == _bits(hl.verify_bks(0.5, spec, x, y))


def test_stack_kernel_marks_failing_pairs():
    good = np.stack([np.diag([1.0, 0.25]), np.diag([0.5, 0.0])]).astype(complex)
    not_psd = np.stack([np.diag([1.0, -1.0]), np.eye(2)]).astype(complex)
    not_herm = np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])]).astype(complex)
    pairs = np.stack([good, not_psd, not_herm])
    recs = V.verify_bks_stack(0.5, Schatten(1), pairs, ["a", "b", "c"])
    assert recs[1] is None and recs[2] is None
    assert _bits(recs[0]) == _bits(hl.verify_bks(0.5, Schatten(1), *good, digest="a"))
    with pytest.raises(DomainError, match="X must be positive"):
        hl.verify_bks(0.5, Schatten(1), *not_psd)
    with pytest.raises(DomainError, match="not Hermitian"):
        hl.verify_bks(0.5, Schatten(1), *not_herm)


def test_verify_bks_keeps_its_exceptions():
    x = np.diag([0.5, 1.5])
    with pytest.raises(DomainError):
        hl.verify_bks(0.5, Schatten(1), np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(DomainError, match="Y must be positive"):
        hl.verify_bks(0.5, Schatten(1), np.eye(2), np.diag([1.0, -1.0]))
    with pytest.raises(ParameterError):
        hl.verify_bks(0.5, hl.WeakLp(1.0), x, x)
    with pytest.raises(ParameterError):
        hl.verify_bks(1.5, Schatten(1), x, x)
    with pytest.raises(ParameterError):
        hl.verify_bks(0.5, Schatten(0.5), x, x)


def test_abs_tol_is_computed_only_for_degenerate_records(monkeypatch):
    calls = []
    real = V.op_norm
    monkeypatch.setattr(V, "op_norm", lambda m: calls.append(1) or real(m))
    x = np.diag([0.5, 1.5])
    assert not hl.verify_bks(0.5, Schatten(1), x, np.diag([0.25, 1.0])).flagged
    assert calls == []
    rec = hl.verify_bks(0.5, Schatten(1), x, x)
    assert (rec.ratio, rec.flagged) == (0.0, False)
    assert len(calls) == 2
    assert V.make_record("x", 1.0, 0.0, abs_tol=lambda: 2.0).flagged is False
    assert V.make_record("x", 1.0, 0.0, abs_tol=0.5).flagged is True
