"""The stacked campaign engine against stacks of one trial.

Every cell is drawn and evaluated in stacks of trials; every outcome (a
record, or the error of a failed trial), statistic, counterexample and digest
must equal what a stack of one (replay) gives, bit for bit.
"""

import dataclasses
import importlib.util
import inspect
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holderlab as hl
import holderlab.campaign as camp
import holderlab.verify as V
from holderlab.campaign import CampaignConfig, replay, run_campaign
from holderlab.cli import main as cli_main
from holderlab.ensembles import ENSEMBLES, SeedState, sample_ensemble
from holderlab.errors import (
    CapabilityError,
    DomainError,
    EigensolverError,
    HolderLabError,
    ParameterError,
)
from holderlab.functions import DD_SWITCH, ScalarFunction, d_of_p, parse_function_spec, seminorm
from holderlab.norms import (
    KyFan,
    PowerOf,
    Schatten,
    least_domination_constant,
    norm_of_profile,
)
from holderlab.spectral import (
    ZERO_SNAP,
    SpectralDecomposition,
    as_hermitian,
    eig_hermitian,
    from_eigen,
    psd_stack,
)

from conftest import fixed_spectrum, hermitian_sv, one_record

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


FUNCTION_OF = {
    "main": "power:0.5",
    "submaj": "power:0.5",
    "symmetric": "power:0.5",
    "inverse": "srational:1",  # fails the trials it cannot invert
    "commutator": "power:0.5",
    "quasicommutator": "power:0.5",
    "telescope": "power:0.5",
}

# the ensembles of every verifier, the edge spectra of the bks configs included:
# a fixed_pair with zero and repeated eigenvalues, positive_pair spectra near
# 1e-8 and 1e8
ENSEMBLE_OF = {
    "gaussian": {"name": "gaussian_pair"},
    "commuting": {"name": "commuting_pair"},
    "general": {"name": "general_pair"},
    "positive": {"name": "positive_pair"},
    "tiny": CONFIGS["tiny-spectrum"]["ensemble"],
    "huge": CONFIGS["huge-spectrum"]["ensemble"],
    "fixed": CONFIGS["fixed-degenerate"]["ensemble"],
    "contraction": {"name": "hermitian_contraction"},
    "pair-contraction": {"name": "hermitian_pair_contraction"},
    "steps": {"name": "rank_one_steps"},
}


def _accepts(verifier, ensemble):
    return ensemble["name"] in camp.VERIFIERS[verifier].ensembles


def _dims(ensemble, dims):
    """A fixed_pair spectrum sets the dim."""
    return [len(ensemble["eigenvalues"])] if "eigenvalues" in ensemble else dims


# every verifier but bks on each ensemble it draws from, 33 trials at dim 8
# being a stack of 32 and a stack of one
CONFIGS.update(
    {
        f"{verifier}-{key}": dict(
            verifier=verifier,
            function=FUNCTION_OF.get(verifier),
            thetas=[1.5] if verifier in ("inverse", "reverse") else [0.5],
            norms=["kyfan:2"],
            dims=_dims(ensemble, [8]),
            trials=33,
            ensemble=ensemble,
            refine_steps=2,
        )
        for verifier in sorted(set(camp.VERIFIERS) - {"bks"})
        for key, ensemble in ENSEMBLE_OF.items()
        if _accepts(verifier, ensemble)
    }
)
CONFIGS["reverse-expm1-gaussian"] = dict(CONFIGS["reverse-gaussian"], variant="expm1")
CONFIGS["reverse-expm1-huge"] = dict(CONFIGS["reverse-huge"], variant="expm1")
# the edge shapes of telescope's chain: rank 1 (no middle chain matrix), rank
# = dim, dim 1, and p 0.5
CONFIGS["telescope-rank-1"] = dict(
    CONFIGS["telescope-steps"], ensemble={"name": "rank_one_steps", "rank": 1}
)
CONFIGS["telescope-rank-8"] = dict(
    CONFIGS["telescope-steps"], ensemble={"name": "rank_one_steps", "rank": 8}
)
CONFIGS["telescope-dim-1"] = dict(CONFIGS["telescope-steps"], dims=[1])
CONFIGS["telescope-p-0.5"] = dict(CONFIGS["telescope-steps"], ps=[0.5])


def _config(name, seed=101):
    return CampaignConfig.from_dict(
        {"verifier": "bks", "ps": [1.0], "seed": seed, **CONFIGS[name]}
    )


def _record_or_error(outcomes, c, i, name, digest=""):
    """The record of trial i in cell c from a stack's Outcomes, or its error."""
    try:
        return outcomes.record(c, i, name, digest)
    except HolderLabError as exc:
        return exc


def _cell(verifier, f, theta, p, spec, stack, digests, variant=None):
    """Per trial, the record (named after the kernel, with the trial's digest)
    or the error of a verifier's stack kernel in the one cell (theta, p,
    spec); a cell that its check refuses fails every trial with that error."""
    kernel = camp.VERIFIERS[verifier].kernel
    check = V._check_of(kernel)
    try:
        entry = check(V._seminorms(f), theta, p, spec, variant)
    except HolderLabError as exc:
        return [exc] * len(digests)
    outcomes = getattr(V, kernel)(f, [entry], stack)
    name = kernel.removeprefix("verify_").removesuffix("_stack")
    return [_record_or_error(outcomes, 0, i, name, d) for i, d in enumerate(digests)]


def _trial_outcomes(config, cell_idx, f):
    """Yield (trial, outcome) for every trial of one cell as the campaign
    evaluates it in stacks: its record, named and digested as replay's, or
    its error; a cell that its check refuses fails every trial undrawn."""
    dim = config.cells()[cell_idx][3]
    (entry,) = camp._entries(config, f, [camp._kernel_cells(config)[cell_idx]])
    if isinstance(entry, HolderLabError):
        yield from ((trial, entry) for trial in range(config.trials))
        return
    for trials, _, _, outcomes in camp._stacks(config, dim, [entry], f):
        for i, trial in enumerate(trials):
            digest = camp._digest(config, cell_idx, trial, dim)
            yield trial, _record_or_error(outcomes, 0, i, camp._record_name(config), digest)


def _bits(rec):
    floats = (rec.lhs.hex(), rec.rhs.hex(), rec.ratio.hex())
    return (rec.name, *floats, rec.flagged, rec.inputs_digest)


def _outcome(rec):
    """A trial's outcome: its record's bits, or its error's class and message."""
    if isinstance(rec, HolderLabError):
        return type(rec).__name__, str(rec)
    return _bits(rec)


def _replayed(config, cell_idx, trial):
    try:
        return _outcome(replay(config, cell_idx, trial))
    except HolderLabError as exc:
        return _outcome(exc)


def _outputs(config):
    report, counterexamples = run_campaign(config)
    return report.to_csv(), report.to_json(), json.dumps(counterexamples, sort_keys=True)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_trial_replays_bitwise(name):
    config = _config(name)
    report, _ = run_campaign(config)
    assert _replay_failures(config) == [cell.failures for cell in report.cells]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_match_per_trial_path(name, monkeypatch):
    config = _config(name, seed=202)
    stacked = _outputs(config)
    monkeypatch.setattr(camp, "_stack_size", lambda dim, inputs: 1)
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


def test_a_config_with_no_valid_cell_draws_nothing(monkeypatch, capsys):
    # theta 1.5 fails bks's cell check: every cell fails every trial with
    # statistics 0 and no argmax, judged before any draw or kernel call, and
    # replay and `holderlab verify` name the check's error
    config = CampaignConfig.from_dict(
        {"verifier": "bks", "thetas": [1.5], "ps": [1.0], "norms": ["schatten:1", "kyfan:2"],
         "dims": [3, 8], "trials": 20, "seed": 7}
    )
    calls = []
    monkeypatch.setattr(camp, "_draw", lambda *args: calls.append(args) or pytest.fail("drawn"))
    spied = {**vars(V), "verify_bks_stack": lambda *args: calls.append(args) or pytest.fail()}
    monkeypatch.setattr(camp, "V", SimpleNamespace(**spied))
    report, cx = run_campaign(config)
    assert calls == [] and cx == []
    assert [(c.failures, c.max_ratio, c.min_ratio, c.q50, c.q99, c.argmax_digest)
            for c in report.cells] == [(20, 0.0, 0.0, 0.0, 0.0, "none")] * 4
    with pytest.raises(ParameterError, match=r"theta must lie in \(0,1\), got 1.5"):
        replay(config, 3, 0)
    assert cli_main(["verify", "--ineq", "bks", "--theta", "1.5", "--trials", "20"]) == 2
    assert calls == []
    assert capsys.readouterr().err == (
        "all 20 trial(s) failed; trial 0: ParameterError: theta must lie in (0,1), got 1.5\n"
    )


def test_the_seminorm_is_estimated_once_per_order_and_theta(monkeypatch):
    # ps 1 and 0.6 share d_of_p = 4, and 0.5 has 5; two norms, two dims and
    # three stacks (40 trials at dim 8 are 32 + 8) take the four seminorms once
    config = CampaignConfig.from_dict(
        {"verifier": "symmetric", "function": "power:0.5", "thetas": [0.5, 0.9],
         "ps": [1.0, 0.6, 0.5], "norms": ["schatten:1", "kyfan:2"], "dims": [3, 8],
         "trials": 40, "seed": 7}
    )
    estimated = []
    _spy(monkeypatch, V, "seminorm", estimated)
    stacks = []
    _spy(monkeypatch, camp, "_draw", stacks)
    report, _ = run_campaign(config)
    assert len(stacks) == 3 and all(c.failures == 0 for c in report.cells)
    keys = sorted((d, theta) for _, d, theta in estimated)
    assert keys == [(4, 0.5), (4, 0.9), (5, 0.5), (5, 0.9)]
    estimated.clear()
    replay(config, 9, 33)  # theta 0.5, p 0.5, schatten:1, dim 8
    assert [(d, theta) for _, d, theta in estimated] == [(5, 0.5)]


def test_stack_sizes_are_bounded():
    sizes = {d: camp._stack_size(d) for d in (1, 8, 32, 64, 128)}
    assert sizes == {1: 2048, 8: 32, 32: 2, 64: 1, 128: 1}


def test_rejected_stack_items_take_the_per_trial_path(monkeypatch):
    # fail one whole stack with a LinAlgError: its trials rerun one at a
    # time, in both cells of the dim at once, and the report must not change
    config = _config("chunk-65", seed=303)
    expected = _outputs(config)
    real = V.verify_bks_stack
    calls = []

    def flaky(f, entries, pairs, dec):
        calls.append((len(entries), len(pairs)))
        if len(calls) == 2:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(f, entries, pairs, dec)

    monkeypatch.setattr(camp, "V", SimpleNamespace(**{**vars(V), "verify_bks_stack": flaky}))
    assert _outputs(config) == expected
    assert calls[:3] == [(2, 32), (2, 32), (2, 1)]


def test_a_linalg_error_fails_only_its_trial(monkeypatch):
    # a LinAlgError that recurs on the stack of one trial is its error, in
    # every cell of its dim
    config = _config("chunk-65", seed=303)
    real = V.verify_bks_stack
    # trial 5 is found by its inputs, wherever it sits in a stack
    ens = camp._ensemble("bks", None)
    _, (five,), _ = sample_ensemble(ens, 8, [camp._trial_seed(config, 8, 5)])

    def flaky(f, entries, pairs, dec):
        if any(np.array_equal(pair, five) for pair in pairs):
            raise np.linalg.LinAlgError("SVD did not converge")
        # the rerun of a trial carries that trial's part of the decomposition
        assert np.array_equal(V.from_eigen(dec.basis, dec.eigenvalues), pairs)
        return real(f, entries, pairs, dec)

    monkeypatch.setattr(camp, "V", SimpleNamespace(**{**vars(V), "verify_bks_stack": flaky}))
    report, _ = run_campaign(config)
    assert [c.failures for c in report.cells] == [1, 1]
    for cell_idx in (0, 1):
        outcomes = dict(_trial_outcomes(config, cell_idx, None))
        failed = [t for t, rec in outcomes.items() if isinstance(rec, HolderLabError)]
        assert failed == [5] and isinstance(outcomes[5], EigensolverError)
        assert str(outcomes[5]) == "LAPACK failed to converge: SVD did not converge"
        with pytest.raises(EigensolverError):
            replay(config, cell_idx, 5)
        assert _bits(outcomes[6]) == _bits(replay(config, cell_idx, 6))


@pytest.mark.parametrize("verifier", ["bks", "submaj"])
def test_a_linalg_error_in_one_cell_fails_only_that_cell(verifier, monkeypatch):
    # a LinAlgError that recurs on the stack of trial 5 only while the cell
    # CELL is among the cells: the stack of one trial reruns cell by cell, so
    # only (CELL, 5) fails, and the other cells of trial 5 keep replay's bits;
    # submaj takes no norm, so its six cells differ in p
    ps, norms = ([1.0, 0.5], ["schatten:1"]) if verifier == "submaj" else ([1.0], NORMS[:2])
    config = CampaignConfig.from_dict(
        {"verifier": verifier, "function": FUNCTION_OF.get(verifier), "thetas": [0.25, 0.5, 0.75],
         "ps": ps, "norms": norms, "dims": [8], "trials": 33, "seed": 303}
    )
    cell_idx = 3
    f = parse_function_spec(config.function) if config.function else None
    entries = camp._entries(config, f, camp._kernel_cells(config))
    baseline, _ = run_campaign(config)
    real = getattr(V, camp.VERIFIERS[verifier].kernel)
    ens = camp._ensemble(verifier, None)
    _, (five,), _ = sample_ensemble(ens, 8, [camp._trial_seed(config, 8, 5)])
    calls = []

    def flaky(f, cell_entries, stack, dec):
        calls.append((len(cell_entries), len(stack)))
        if entries[cell_idx] in cell_entries and any(np.array_equal(t, five) for t in stack):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(f, cell_entries, stack, dec)

    spied = {**vars(V), camp.VERIFIERS[verifier].kernel: flaky}
    monkeypatch.setattr(camp, "V", SimpleNamespace(**spied))
    report, _ = run_campaign(config)
    assert [c.failures for c in report.cells] == [int(i == cell_idx) for i in range(6)]
    for i, (cell, base) in enumerate(zip(report.cells, baseline.cells)):
        if i != cell_idx:
            assert cell == base
    # the stack of trial 5 alone holds every cell, then each cell on its own
    assert (6, 1) in calls and calls.count((1, 1)) == 6
    name = camp._record_name(config)
    for trials, _, _, outcomes in camp._stacks(config, 8, entries, f):
        assert outcomes.ok.shape == (6, len(trials))
        for c in range(6):
            for j, trial in enumerate(trials):
                rec = _record_or_error(outcomes, c, j, name, camp._digest(config, c, trial, 8))
                if (c, trial) == (cell_idx, 5):
                    assert isinstance(rec, EigensolverError)
                    assert str(rec) == "LAPACK failed to converge: SVD did not converge"
                elif trial == 5:
                    assert _bits(rec) == _bits(replay(config, c, trial))
                    if outcomes.constants is not None:
                        assert rec.holds_with_constant == replay(config, c, trial).holds_with_constant
                else:
                    assert not isinstance(rec, HolderLabError)
    with pytest.raises(EigensolverError):
        replay(config, cell_idx, 5)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
@pytest.mark.parametrize("spectrum_range", [(0.0, 1.0), (0.0, 1e-8), (1e7, 1e8)])
def test_sampler_matches_per_seed_draws(dim, spectrum_range):
    seeds = [SeedState(9, (0, 4, t)) for t in range(5)]
    ens = {"name": "positive_pair", "spectrum_range": spectrum_range}
    _, pairs, dec = sample_ensemble(ens, dim, seeds)
    assert pairs.shape == (5, 2, dim, dim)
    assert np.array_equal(from_eigen(dec.basis, dec.eigenvalues), pairs)
    lo, hi = spectrum_range
    for seed, pair in zip(seeds, pairs):
        kinds, ((x, y),), _ = sample_ensemble(ens, dim, [seed])
        assert kinds == ("pos", "pos")
        assert np.array_equal(x, pair[0]) and np.array_equal(y, pair[1])
        # the draws of two fixed_spectrum calls on one generator
        rng = seed.rng()
        for m in pair:
            ref, _, _ = fixed_spectrum(rng.uniform(lo, hi, dim), rng)
            assert np.array_equal(ref, m)


def test_sampler_rejects_bad_specs():
    for dim, spectrum_range in ((0, (0.0, 1.0)), (3, (1.0, 0.5)), (3, (-0.5, 1.0))):
        ens = {"name": "positive_pair", "spectrum_range": spectrum_range}
        with pytest.raises(ParameterError):
            sample_ensemble(ens, dim, [SeedState(1)])


def _bks_per_matrix(theta, spec, x, y):
    """verify_bks computed one matrix at a time with 2-D LAPACK calls."""
    sides = []
    for m in (x, y):
        dec = eig_hermitian(as_hermitian(m))
        sides.append((dec, np.clip(dec.eigenvalues, 0.0, None)))
    (dx, vx), (dy, vy) = sides
    x_t = (dx.basis * vx ** theta) @ dx.basis.conj().T
    y_t = (dy.basis * vy ** theta) @ dy.basis.conj().T
    lhs = norm_of_profile(hermitian_sv(x_t - y_t), spec)
    rhs = norm_of_profile(hermitian_sv(dx.matrix() - dy.matrix()) ** theta, spec)
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
        digests = [""] * len(pairs)
        recs = _cell("bks", None, 0.5, None, spec, pairs, digests)
        for (x, y), rec in zip(pairs, recs):
            lhs, rhs = _bks_per_matrix(0.5, spec, x, y)
            assert (rec.lhs.hex(), rec.rhs.hex()) == (lhs.hex(), rhs.hex())
            assert _bits(rec) == _bits(hl.verify_bks(0.5, spec, x, y))


def test_stack_kernel_marks_failing_pairs():
    good = np.stack([np.diag([1.0, 0.25]), np.diag([0.5, 0.0])]).astype(complex)
    not_psd = np.stack([np.diag([1.0, -1.0]), np.eye(2)]).astype(complex)
    not_herm = np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])]).astype(complex)
    pairs = np.stack([good, not_psd, not_herm])
    recs = _cell("bks", None, 0.5, None, Schatten(1), pairs, list("abc"))
    assert _bits(recs[0]) == _bits(hl.verify_bks(0.5, Schatten(1), *good, digest="a"))
    assert isinstance(recs[1], DomainError) and "X must be positive" in str(recs[1])
    assert isinstance(recs[2], DomainError) and "not Hermitian" in str(recs[2])
    for pair, rec in zip(pairs[1:], recs[1:]):
        with pytest.raises(DomainError) as err:
            hl.verify_bks(0.5, Schatten(1), *pair)
        assert str(err.value) == str(rec)


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
    # in a stack, only the trials with rhs <= 0 that pass their checks take
    # the tolerance, one operator norm per input: lhs 1 over rhs 0 is flagged
    # against 1e-12 * 2 * (1 + 0), not against 1e-12 * 2 * (1 + 1e12)
    calls.clear()
    mats = np.stack([np.zeros((2, 2, 2)), np.full((2, 2, 2), 0.5e12), np.zeros((2, 2, 2))] * 2)
    row = (np.array([True, True, False, True, True, True]), lambda i: DomainError("x"))
    outcomes = V.Outcomes.judged(row, [[1.0] * 6], [[0.0, 0.0, 0.0, 2.0, 2.0, -1.0]], mats)
    assert outcomes.flagged.tolist() == [[True, False, False, False, False, True]]
    assert outcomes.ratio.tolist() == [[0.0, 0.0, 0.0, 0.5, 0.5, 0.0]]
    assert len(calls) == 6  # trials 0, 1 and 5
    # over (cells, trials): three cells with rhs <= 0 on trials 0, 1 and 5,
    # sharing the stack's row of checks; each of those trials still takes one
    # operator norm per input, however many cells share it, and each row is
    # judged as on its own
    calls.clear()
    lhs = [[1.0] * 6, [0.0, 3.0, 1.0, 4.0, 1.0, 1e-13], [2e-12, 1.0, 0.0, 0.0, 3.0, 5.0]]
    rhs = [[0.0, 0.0, 0.0, 2.0, 2.0, -1.0], [0.0, 0.0, 0.0, 2.0, 4.0, 0.0],
           [0.0, -2.0, 1.0, 2.0, 0.5, 0.0]]
    outcomes = V.Outcomes.judged(row, lhs, rhs, mats)
    assert len(calls) == 6
    assert outcomes.flagged.tolist() == [
        [True, False, False, False, False, True],
        [False, True, False, False, False, False],
        [False, False, False, False, False, True],  # 2e-12 is not above 2e-12
    ]
    assert outcomes.ratio.tolist() == [
        [0.0, 0.0, 0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 2.0, 0.25, 0.0],
        [0.0, 0.0, 0.0, 0.0, 6.0, 0.0],
    ]
    assert outcomes.ok.tolist() == [[True, True, False, True, True, True]] * 3
    assert str(outcomes.error((1, 2))) == "x"
    for c in range(3):
        one = V.Outcomes.judged(row, lhs[c : c + 1], rhs[c : c + 1], mats)
        assert one.flagged.tolist() == outcomes.flagged[c : c + 1].tolist()
        assert one.ratio.tobytes() == outcomes.ratio[c : c + 1].tobytes()


# --- inverse ------------------------------------------------------------------------

INVERSE_FUNCTIONS = ["spower:0.5", "slog1p", "srational:1", "sexpm1", "linear", "gauss"]

INVERSE_ENSEMBLES = {
    "gaussian": {"name": "gaussian_pair"},
    "tiny-spectrum": {"name": "positive_pair", "spectrum_range": [0.0, 1e-8]},
    "huge-spectrum": {"name": "positive_pair", "spectrum_range": [1e7, 1e8]},
    "fixed-degenerate": {"name": "fixed_pair", "eigenvalues": [-1.0, -1.0, 0.0, 0.5, 0.5]},
}
# a fixed_pair spectrum sets the dim
INVERSE_DIMS = {"fixed-degenerate": [5]}


def _inverse_config(function, ensemble="gaussian", seed=101, **overrides):
    return CampaignConfig.from_dict(
        {
            "verifier": "inverse",
            "function": function,
            "thetas": [1.5, 3.0],
            "ps": [1.0],
            "norms": ["schatten:1", "kyfan:2"],
            "dims": INVERSE_DIMS.get(ensemble, [1, 3, 8]),
            "trials": 5,
            "seed": seed,
            "ensemble": INVERSE_ENSEMBLES[ensemble],
            **overrides,
        }
    )


def _replay_failures(config):
    """Per cell, the failure count of the campaign's trials, after checking
    that every outcome equals replay's: the record bit for bit, or the
    error's class and message."""
    f = parse_function_spec(config.function) if config.function else None
    counts = []
    for cell_idx in range(len(config.cells())):
        failures = 0
        for trial, rec in _trial_outcomes(config, cell_idx, f):
            failures += isinstance(rec, HolderLabError)
            assert _outcome(rec) == _replayed(config, cell_idx, trial)
        counts.append(failures)
    return counts


@pytest.mark.parametrize("function", INVERSE_FUNCTIONS)
def test_inverse_trials_replay_bitwise(function):
    failures = _replay_failures(_inverse_config(function, norms=["kyfan:2"]))
    if function in ("gauss", "sexpm1"):  # no inverse, infinite seminorm
        assert failures == [5] * 6
    elif function != "srational:1":  # srational:1 cannot reach |y| >= 1
        assert failures == [0] * 6


@pytest.mark.parametrize("ensemble", ["tiny-spectrum", "huge-spectrum", "fixed-degenerate"])
@pytest.mark.parametrize("function", ["spower:0.5", "slog1p", "sexpm1"])
def test_inverse_ensembles_replay_bitwise(function, ensemble):
    failures = _replay_failures(_inverse_config(function, ensemble, thetas=[2.0]))
    cells = 2 if ensemble == "fixed-degenerate" else 6  # dim 5, or dims 1/3/8
    if (function, ensemble) == ("slog1p", "huge-spectrum") or function == "sexpm1":
        # slog1p^{-1}(y) = e^y - 1 overflows for y above 709.8; sexpm1 has an
        # infinite seminorm
        assert failures == [5] * cells
    else:
        assert failures == [0] * cells


def _scaled_inverse_cells(low, high, function="spower:0.5"):
    """The cells of ``function`` at theta 2 on positive_pair spectra in [low,
    high]: p 1 and 0.5 on schatten:1, whose 0.5-th power norm is the
    Schatten 0.5 quasi-norm."""
    config = CampaignConfig.from_dict(
        {"verifier": "inverse", "function": function, "thetas": [2.0], "ps": [1.0, 0.5],
         "norms": ["schatten:1"], "dims": [4], "trials": 50, "seed": 5,
         "ensemble": {"name": "positive_pair", "spectrum_range": [low, high]}}
    )
    return run_campaign(config)[0].cells


def test_inverse_ratios_do_not_depend_on_the_scale_of_the_spectrum():
    # f^{-1}(t) = sgn(t) t^2 and |X - Y|^2 are both homogeneous of degree 2,
    # so the ratios on [0, s] are those on [0, 1] for every s; and every
    # eigenvalue in [1e7, 1e8] has its preimage, up to 1e16
    unit = _scaled_inverse_cells(0.0, 1.0)
    assert [c.failures for c in unit] == [0, 0]
    for s in (1e-8, 1e-4, 1e4):
        for cell, want in zip(_scaled_inverse_cells(0.0, s), unit):
            assert cell.failures == 0
            for stat in ("min_ratio", "max_ratio"):
                assert getattr(cell, stat) == pytest.approx(getattr(want, stat), rel=1e-12, abs=0.0)
    assert [c.failures for c in _scaled_inverse_cells(1e7, 1e8)] == [0, 0]


def test_an_even_f_inverts_a_positive_spectrum_as_its_odd_twin():
    # an even f inverts on x >= 0, where it is its odd twin: on positive_pair
    # spectra, within 1 of 0 too, every cell equals the twin's bit for bit;
    # rational:1 maps onto [0, 1), so spectra in [0, 0.5] have preimages
    for even, odd in (("power:0.5", "spower:0.5"), ("log1p", "slog1p")):
        for high in (1.0, 2.0):
            cells, twins = (_scaled_inverse_cells(0.0, high, f) for f in (even, odd))
            assert [c.failures for c in cells] == [0, 0] and cells == twins
            for cell, twin in zip(cells, twins):
                for stat in ("max_ratio", "min_ratio", "q50", "q99"):
                    assert getattr(cell, stat).hex() == getattr(twin, stat).hex()
    for cell in _scaled_inverse_cells(0.0, 0.5, "rational:1"):
        assert cell.failures == 0 and 0.0 < cell.min_ratio <= cell.max_ratio < np.inf


@pytest.mark.parametrize("verifier, function", [("inverse", "spower:0.5"), ("absmap", None)])
def test_gaussian_pair_cells_replay_across_the_stack_boundary(verifier, function):
    # inverse draws from gaussian_pair and absmap from general_pair by default;
    # 33 trials at dim 8 are a stack of 32 and a stack of one
    config = CampaignConfig.from_dict(
        {"verifier": verifier, "function": function, "thetas": [2.0], "ps": [1.0],
         "norms": ["schatten:1"], "dims": [8], "trials": 33, "seed": 303}
    )
    assert camp._stack_size(8) == 32
    assert _replay_failures(config) == [0]


def test_inverse_on_the_operator_norm_replays_bitwise():
    config = _inverse_config("spower:0.5", norms=["schatten:inf"], trials=33)
    assert _replay_failures(config) == [0] * 6
    assert camp._stack_size(8) == 32


def test_gauss_fails_through_the_fallback(monkeypatch):
    # gauss carries no inverse: its cells fail their check, undrawn, and no
    # trial reaches the kernel
    real = V.verify_inverse_stack
    stacked = []

    def spy(*args):
        outcomes = real(*args)
        for idx, ok in np.ndenumerate(outcomes.ok):
            stacked.append(None if ok else outcomes.error(idx))
        return outcomes

    monkeypatch.setattr(camp, "V", SimpleNamespace(**{**vars(V), "verify_inverse_stack": spy}))
    report, _ = run_campaign(_inverse_config("gauss", trials=33, dims=[8]))
    assert [c.failures for c in report.cells] == [33] * 4
    assert stacked == []


def test_cli_verify_inverse_refuses_a_function_without_an_inverse(monkeypatch, capsys):
    calls = []
    _spy(monkeypatch, V, "inverse_apply", calls)
    assert cli_main(["verify", "--ineq", "inverse", "--f", "gauss", "--theta", "2"]) == 2
    out, err = capsys.readouterr()
    message = "CapabilityError: gauss has no closed-form inverse"
    assert err == f"all 1 trial(s) failed; trial 0: {message}\n"
    assert out == "" and calls == []


INVERSE_REPORT_CONFIGS = [dict(function=f) for f in INVERSE_FUNCTIONS] + [
    dict(function="spower:0.5", ensemble=e, thetas=[2.0]) for e in INVERSE_ENSEMBLES if e != "gaussian"
]


@pytest.mark.parametrize(
    "kwargs",
    INVERSE_REPORT_CONFIGS,
    ids=lambda kw: f"{kw['function']}-{kw.get('ensemble', 'gaussian')}",
)
def test_inverse_reports_match_per_trial_path(kwargs, monkeypatch):
    config = _inverse_config(seed=202, trials=9, refine_steps=2, **kwargs)
    stacked = _outputs(config)
    monkeypatch.setattr(camp, "_stack_size", lambda dim, inputs: 1)
    assert stacked == _outputs(config)


def test_inverse_invalid_cells_and_partial_stack(monkeypatch):
    config = _inverse_config(
        "spower:0.5",
        thetas=[0.5, 1.0, 2.0],
        norms=["schatten:0.5", "kyfan:2"],
        dims=[8],
        trials=33,
    )
    real = V.verify_inverse_stack
    sizes = []

    def spy(f, entries, pairs, dec):
        sizes.append((len(entries), len(pairs)))
        return real(f, entries, pairs, dec)

    monkeypatch.setattr(camp, "V", SimpleNamespace(**{**vars(V), "verify_inverse_stack": spy}))
    report, _ = run_campaign(config)
    failures = {(c.theta, c.norm): c.failures for c in report.cells}
    assert failures == {
        (0.5, "schatten:0.5"): 33,
        (0.5, "kyfan:2"): 33,
        (1.0, "schatten:0.5"): 33,
        (1.0, "kyfan:2"): 33,
        (2.0, "schatten:0.5"): 33,
        (2.0, "kyfan:2"): 0,
    }
    # the one valid cell of the dim runs in stacks, 33 = 32 + 1; the invalid
    # ones fail in their cell check, before any draw
    assert sizes == [(1, 32), (1, 1)]
    monkeypatch.undo()
    assert _replay_failures(config) == [33, 33, 33, 33, 33, 0]


def test_inverse_stack_sizes():
    sizes = {d: camp._stack_size(d) for d in (1, 8, 64)}
    assert sizes == {1: 2048, 8: 32, 64: 1}


# the catalog functions that carry a closed-form inverse, odd and even
CATALOG_INVERSES = [
    "spower:0.5", "spower:0.3", "slog1p", "srational:1", "srational:2.5", "linear",
    "power:0.5", "power:0.3", "log1p", "rational:1", "rational:2.5",
]
# f(f^{-1}(y)) lies within this many ulps of y wherever y has a preimage
ROUND_TRIP_ULPS = 2
LOG_MAX = np.log(np.finfo(float).max)  # expm1 overflows above it
EVEN_INVERSES = ("power", "log1p", "rational")


def _has_preimage(function, y):
    """Where y has a finite preimage under f: f's range (|y| < 1 for the
    rationals), minus the y whose preimage e^|y| - 1 overflows, and minus
    y < f(0) = 0 for an even f."""
    name = function.split(":")[0]
    if name.endswith("rational"):
        inside = np.abs(y) < 1.0
    elif name.endswith("log1p"):
        inside = np.abs(y) <= LOG_MAX
    else:
        inside = np.isfinite(y)
    return inside & (y >= 0.0) if name in EVEN_INVERSES else inside


@pytest.mark.parametrize("function", CATALOG_INVERSES)
def test_catalog_inverse_round_trips(function):
    # |y| from 1e-8 to 1e8 and next to the ends of the rationals' range, both
    # signs; an even f on both branches, x >= 0 and its mirror -x
    f = parse_function_spec(function)
    mags = np.concatenate([np.logspace(-8, 8, 321), [1.0 - 1e-8, np.nextafter(1.0, 0.0)]])
    ys = np.concatenate([mags, -mags])
    x = f.inverse(ys)
    has = _has_preimage(function, ys)
    assert has.any() and np.isfinite(x[has]).all() and not np.isfinite(x[~has]).any()
    y = ys[has]
    branches = (1.0, -1.0) if function.split(":")[0] in EVEN_INVERSES else (1.0,)
    for branch in branches:
        back = f.eval(branch * x[has])
        assert (np.abs(back - y) <= ROUND_TRIP_ULPS * np.spacing(np.abs(y))).all()


def _diagonal(eigenvalues):
    """The decomposition of one diagonal matrix, in the standard basis."""
    lam = np.array(eigenvalues, dtype=float)
    return SpectralDecomposition(lam[None], np.eye(lam.size, dtype=complex)[None])


@pytest.mark.parametrize(
    "function, eigenvalues, at",
    [
        ("srational:1", [0.5, 1.0], 1.0),
        ("srational:1", [-1.0, 0.5], -1.0),
        ("srational:1", [-0.5, 3.0], 3.0),
        ("power:0.5", [-3.0, -2.0], -3.0),
        ("log1p", [-3.0, -2.0], -3.0),
        ("rational:1", [-3.0, -2.0], -3.0),
        ("spower:0.5", [0.5, np.nan], np.nan),
        ("slog1p", [0.5, np.inf], np.inf),
        ("linear", [-np.inf, 0.5], -np.inf),
    ],
)
def test_an_eigenvalue_without_a_preimage_fails_its_matrix(function, eigenvalues, at):
    # srational outside (-1, 1), an even f below f(0) = 0, NaN and +-inf:
    # the matrix fails with the DomainError that names the eigenvalue
    f = parse_function_spec(function)
    images, ok, error = V.inverse_apply(f, _diagonal(eigenvalues))
    assert ok.tolist() == [False] and np.isfinite(images).all()
    assert type(error((0,))) is DomainError
    assert str(error((0,))) == f"{f.name} has no finite inverse within rounding of {at}"


def _scalar_inverse(f, v):
    """f^{-1}(v) of one eigenvalue v."""
    return float(f.inverse(np.array([v]))[0])


def _inverse_per_matrix(f, theta, p, base, x, y):
    """The inverse estimate's lhs and rhs computed one matrix and one eigenvalue
    at a time, with the scalar inverse and 2-D LAPACK calls."""
    spec = PowerOf(base, p)
    xm, ym = as_hermitian(x), as_hermitian(y)
    sem = seminorm(f, d_of_p(p), 1.0 / theta).value
    inv = []
    for m in (xm, ym):
        dec = eig_hermitian(m)
        vals = np.array([_scalar_inverse(f, float(v)) for v in dec.eigenvalues])
        inv.append((dec.basis * vals) @ dec.basis.conj().T)
    lhs = sem**theta * norm_of_profile(hermitian_sv(inv[0] - inv[1]), spec)
    rhs = norm_of_profile(hermitian_sv(xm - ym) ** theta, spec)
    return lhs, rhs


@pytest.mark.parametrize("function", ["spower:0.5", "slog1p", "srational:1", "linear"])
def test_inverse_stack_kernel_matches_per_matrix_math(function):
    f = parse_function_spec(function)
    rng = SeedState(15).rng()
    pairs = np.stack(
        [np.stack([fixed_spectrum(rng.uniform(-0.9, 0.9, 4), rng)[0] for _ in range(2)])
         for _ in range(6)]
        + [np.stack([fixed_spectrum([-0.5, 0.0, 0.0, 0.5], rng)[0] for _ in range(2)])]
    )
    for theta, p, base in ((1.5, 1.0, Schatten(1)), (3.0, 0.5, KyFan(2)), (2.0, 2.0, Schatten(2))):
        recs = _cell("inverse", f, theta, p, base, pairs, [""] * len(pairs))
        for (x, y), rec in zip(pairs, recs):
            lhs, rhs = _inverse_per_matrix(f, theta, p, base, x, y)
            assert (rec.lhs.hex(), rec.rhs.hex()) == (lhs.hex(), rhs.hex())


def test_inverse_stack_kernel_marks_failing_pairs():
    f = parse_function_spec("spower:0.5")
    rng = SeedState(13).rng()

    def herm(eigenvalues):
        return fixed_spectrum(eigenvalues, rng)[0]

    good = np.stack([herm([-1.0, 0.5, 2.0]), herm([0.0, 1.0, 1.0])])
    not_herm = np.stack([herm([1.0, 2.0, 3.0]), np.triu(np.ones((3, 3))).astype(complex)])
    large = np.stack([herm([1.0, 2.0, 3.0]), herm([1.0, 2.0, 1e7])])  # f^{-1}(1e7) = 1e14
    flat = np.stack([1e17 * np.eye(3), herm([1.0, 2.0, 3.0])]).astype(complex)
    no_preimage = np.stack([herm([1.0, 2.0, 3.0]), herm([1.0, 2.0, 1e300])])  # 1e600 overflows
    pairs = np.stack([good, not_herm, large, flat, good[::-1], no_preimage])
    recs = _cell("inverse", f, 2.0, 1.0, KyFan(2), pairs, list("abcdef"))
    failed = [isinstance(rec, DomainError) for rec in recs]
    assert failed == [False, True, False, False, False, True]
    for (x, y), rec, digest in zip(pairs, recs, "abcdef"):
        if isinstance(rec, DomainError):
            with pytest.raises(DomainError) as err:
                one_record("inverse", f, 2.0, 1.0, KyFan(2), x, y)
            assert str(err.value) == str(rec)
        else:
            one = one_record("inverse", f, 2.0, 1.0, KyFan(2), x, y, digest=digest)
            assert _bits(rec) == _bits(one)


def test_verify_inverse_keeps_its_exceptions():
    f = parse_function_spec("spower:0.5")
    x, y = np.diag([0.5, 1.5]), np.diag([0.25, 1.0])
    with pytest.raises(DomainError, match="not Hermitian"):
        one_record("inverse", f, 2.0, 1.0, KyFan(2), x, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(CapabilityError, match="gauss has no closed-form inverse"):
        one_record("inverse", parse_function_spec("gauss"), 2.0, 1.0, KyFan(2), x, y)
    below_zero = "power:0.5 has no finite inverse within rounding of -1.0"
    with pytest.raises(DomainError, match=below_zero):
        one_record("inverse", parse_function_spec("power:0.5"), 2.0, 1.0, KyFan(2), x, -y)
    no_preimage = "srational:1.0 has no finite inverse within rounding of 1.5"
    with pytest.raises(DomainError, match=no_preimage):
        one_record("inverse", parse_function_spec("srational:1"), 2.0, 1.0, KyFan(2), x, y)
    with pytest.raises(ParameterError):
        one_record("inverse", f, 1.0, 1.0, KyFan(2), x, y)
    with pytest.raises(ParameterError):
        one_record("inverse", f, 2.0, 1.0, Schatten(0.5), x, y)


def _eigh(h):
    """The decomposition of a stack of exactly Hermitian matrices."""
    return SpectralDecomposition(*np.linalg.eigh(h))


def test_inverse_apply_over_a_stack():
    # f^{-1}(M) of linear f is M itself; spower:0.5 inverts to sgn(t) t^2
    rng = SeedState(14).rng()
    mats = np.stack([fixed_spectrum([-2.0, 0.25, 3.0], rng)[0] for _ in range(4)])
    h = as_hermitian(mats[0])[None]
    same, ok, _ = V.inverse_apply(parse_function_spec("linear"), _eigh(h))
    assert ok.all() and np.allclose(same, h, atol=1e-10)
    pairs = np.stack([mats, mats])
    squared, ok, _ = V.inverse_apply(parse_function_spec("spower:0.5"), _eigh(pairs))
    assert ok.shape == (2, 4) and ok.all()
    dec = eig_hermitian(mats[1])
    want = from_eigen(dec.basis, np.sign(dec.eigenvalues) * dec.eigenvalues**2)
    assert np.allclose(squared[1, 1], want, atol=1e-9)


# --- one path for every verifier ------------------------------------------------------

@pytest.mark.parametrize("verifier", sorted(camp.VERIFIERS))
@pytest.mark.parametrize("size", [1, 2])
def test_every_verifier_reports_match_small_stacks(verifier, size, monkeypatch):
    # theta 1.5, schatten:0.5 or p = 2 fails some cell of every verifier on
    # its default ensemble; the verifier's other ensembles follow
    configs = [
        CampaignConfig.from_dict(
            {
                "verifier": verifier,
                "function": FUNCTION_OF.get(verifier),
                "thetas": [0.5, 1.5],
                "ps": [1.0, 2.0],
                "norms": ["schatten:1", "schatten:0.5"],
                "dims": _dims(ensemble or {}, [1, 3]),
                "trials": 5,
                "seed": 404,
                "ensemble": ensemble,
                "refine_steps": 2,
            }
        )
        for ensemble in [None] + [
            e
            for e in ENSEMBLE_OF.values()
            if _accepts(verifier, e) and e != {"name": camp.VERIFIERS[verifier].ensembles[0]}
        ]
    ]
    default = [_outputs(config) for config in configs]
    report = json.loads(default[0][1])
    failures = [c["failures"] for c in report["cells"]]
    assert max(failures) == 5 and min(failures) < 5
    monkeypatch.setattr(camp, "_stack_size", lambda dim, inputs: size)
    assert [_outputs(config) for config in configs] == default


# per verifier, a cell whose parameter check raises, and the start of its
# message: theta out of range, a norm that is not fully symmetric, a p-th
# power norm at p <= 0, p above 1 for telescope, and a seminorm of an order f
# lacks (submaj)
NOT_FULLY_SYMMETRIC = ((0.5, 1.0, Schatten(0.5)), "Schatten(p=0.5) is not fully symmetric")
BAD_CELL = {
    "main": ((0.5, -1.0, None), "power exponent must be finite positive, got -1.0"),
    "bks": ((1.5, 1.0, KyFan(2)), "theta must lie in (0,1), got 1.5"),
    "submaj": ((0.5, 0.25, None), "power:0.5: seminorm order 7 exceeds max_order 6"),
    "symmetric": NOT_FULLY_SYMMETRIC,
    "inverse": ((0.5, 1.0, KyFan(2)), "inverse verifier needs theta > 1, got 0.5"),
    "reverse": ((0.5, 1.0, KyFan(2)), "reverse power needs theta > 1, got 0.5"),
    "commutator": NOT_FULLY_SYMMETRIC,
    "quasicommutator": NOT_FULLY_SYMMETRIC,
    "absmap": NOT_FULLY_SYMMETRIC,
    "alt": ((1.5, 1.0, None), "theta must lie in (0,1), got 1.5"),
    "telescope": ((0.5, 2.0, None), "telescoping needs p in (0,1], got 2.0"),
}


def _entry(outcomes, c, i):
    """The (c, i) entry of a stack's Outcomes: its sides, ratio and constant
    by float.hex and its flag, or its error's class and message."""
    if not outcomes.ok[c, i]:
        error = outcomes.error((c, i))
        return type(error).__name__, str(error)
    sides = [float(a[c, i]).hex() for a in (outcomes.lhs, outcomes.rhs, outcomes.ratio)]
    constant = None if outcomes.constants is None else float(outcomes.constants[c, i]).hex()
    return (*sides, constant, bool(outcomes.flagged[c, i]))


@pytest.mark.parametrize("verifier", sorted(camp.VERIFIERS))
def test_a_kernels_rows_are_its_one_cell_runs(verifier):
    # a cell whose check raises, and the entries of three theta on one (spec,
    # p), another spec and a repeated cell, on a stack whose trial 1 is not
    # Hermitian: each row of the stack's Outcomes (cells, trials) is the
    # kernel run on that cell
    thetas = [1.5, 2.0, 3.0] if verifier in ("inverse", "reverse") else [0.25, 0.5, 0.75]
    good = [(theta, 1.0, KyFan(2)) for theta in thetas] + [(thetas[1], 0.5, Schatten(1))]
    bad, message = BAD_CELL[verifier]
    cells = [good[0], bad, *good, good[1]]
    ens = camp._ensemble(verifier, None)
    _, stack, _ = sample_ensemble(ens, 4, [SeedState(17, (t,)) for t in range(5)])
    stack = stack.copy()
    stack[1, 0] += np.triu(np.ones((4, 4)), 1)
    # spower:0.5 inverts every trial that srational:1 cannot
    function = "spower:0.5" if verifier == "inverse" else FUNCTION_OF.get(verifier)
    f = parse_function_spec(function) if function else None
    kernel = getattr(V, camp.VERIFIERS[verifier].kernel)
    check = V._check_of(kernel.__name__)
    sem = V._seminorms(f)
    with pytest.raises(HolderLabError) as err:
        check(sem, *bad, "power")
    assert str(err.value).startswith(message)
    entries = [check(sem, *cell, "power") for cell in cells if cell != bad]
    outcomes = kernel(f, entries, stack)
    assert outcomes.ok.shape == outcomes.lhs.shape == (len(entries), len(stack))
    assert outcomes.ok.any()
    for c, entry in enumerate(entries):
        one = kernel(f, [entry], stack)
        for i in range(len(stack)):
            assert _entry(outcomes, c, i) == _entry(one, 0, i)
    for c, repeat in ((0, 1), (2, 5)):  # a repeated cell gives the same row
        assert [_entry(outcomes, c, i) for i in range(5)] == [
            _entry(outcomes, repeat, i) for i in range(5)
        ]


def test_every_kernel_is_a_verify_stack_function():
    # perfbench's verify.calls counts verify.verify_* spans: each verifier's
    # kernel is called directly, with no adapter in between; a commutator is
    # a quasi-commutator, and records are named outside the kernels.  Each
    # kernel's cell check stands beside it as a private function of verify,
    # so no span counts it.  Every kernel takes the decomposition the draw
    # built the stack from, None by default
    shared = ["f", "entries", "stack", "dec"]
    for name, verifier in camp.VERIFIERS.items():
        kernel = getattr(V, verifier.kernel)
        owner = "quasicommutator" if name == "commutator" else name
        assert verifier.kernel == kernel.__name__ == f"verify_{owner}_stack"
        assert inspect.isfunction(kernel) and kernel.__module__ == V.__name__
        check = V._check_of(verifier.kernel)
        assert inspect.isfunction(check) and check.__module__ == V.__name__
        assert check is getattr(V, f"_check_{owner}")
        params = inspect.signature(kernel).parameters.values()
        assert [q.name for q in params] == shared
        assert all(q.kind is q.POSITIONAL_OR_KEYWORD for q in params)
        assert [q.default for q in params] == [inspect.Parameter.empty] * 3 + [None]


def test_reconstruction_is_checked_before_the_spectrum(monkeypatch):
    # with a negative tolerance every reconstruction check fails: its error
    # comes before the positivity (bks) and the preimage and monotonicity
    # (inverse) checks, which |t|^0.5 fails at -1
    real = V.eigh_stack
    monkeypatch.setattr(V, "eigh_stack", lambda h, drawn: real(h, tol=-1.0, drawn=drawn))
    x, y = np.diag([1.0, -1.0]).astype(complex), np.eye(2, dtype=complex)
    for outcome in (
        _cell("bks", None, 0.5, None, Schatten(1), np.stack([x, y])[None], ["a"])[0],
        _cell(
            "inverse", parse_function_spec("power:0.5"), 2.0, 1.0, Schatten(1),
            np.stack([y, x])[None], ["a"],
        )[0],
    ):
        assert isinstance(outcome, EigensolverError)
        assert "reconstruction residual" in str(outcome)


def test_telescope_decomposes_each_chain_matrix_once(monkeypatch):
    # 32 rank-3 trials, in stacks of 16 (4096 entries of 4 matrices of 8x8
    # per trial): one eigendecomposition call per stack over the 1 + 3 chain
    # matrices of every trial, and no other
    import holderlab.spectral as S

    real = S.eigh_stack
    shapes = []

    def spy(h, *args, **kwargs):
        shapes.append(np.shape(h))
        return real(h, *args, **kwargs)

    monkeypatch.setattr(S, "eigh_stack", spy)
    monkeypatch.setattr(V, "eigh_stack", spy)
    config = CampaignConfig.from_dict(
        {"verifier": "telescope", "function": "power:0.5", "thetas": [0.5], "ps": [1.0],
         "norms": ["schatten:1"], "dims": [8], "trials": 32, "seed": 5,
         "ensemble": {"name": "rank_one_steps", "rank": 3}}
    )
    report, _ = run_campaign(config)
    assert report.cells[0].failures == 0
    assert shapes == [(16, 4, 8, 8)] * 2


# --- the error order of every stack kernel ----------------------------------------------

# a Hermitian matrix whose [0, 0] entry is MARK fails its reconstruction check
# under _marked_reconstruction
MARK = 0.3125


def _marked_reconstruction(monkeypatch):
    """Make every reconstruction check of a matrix with [0, 0] entry MARK
    fail, by a negative tolerance, in verify's kernels and in spectral's
    per-matrix functions alike."""
    import holderlab.spectral as S

    real = S.eigh_stack

    def marked(h, tol=S.RECON_TOL, drawn=None):
        tol = np.where(np.asarray(h)[..., 0, 0].real == MARK, -1.0, tol)
        return real(h, tol=tol, drawn=drawn)

    monkeypatch.setattr(S, "eigh_stack", marked)
    monkeypatch.setattr(V, "eigh_stack", marked)


def _holey():
    """|t|^0.5, undefined (NaN) where |t| > 5; its seminorms are those of power:0.5."""
    f = parse_function_spec("power:0.5")
    return ScalarFunction(
        name="holey", eval=lambda t: np.where(np.abs(t) > 5.0, np.nan, f.eval(t)), deriv=f.deriv
    )


def _error_order_cases():
    """Per verifier: (f, theta, p, spec, variant, the inputs of each trial).
    Good trials mix with a non-Hermitian input (N), a marked reconstruction
    failure (M), an eigenvalue where f is undefined (U for f, E for sgn(t)
    expm1(|t|)), a non-positive input (Q), and pairs of these."""
    rng = SeedState(21).rng()
    g = [fixed_spectrum(rng.uniform(0.1, 0.9, 3), rng)[0] for _ in range(4)]
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c /= np.linalg.norm(c, 2)
    n = np.triu(np.ones((3, 3))).astype(complex)
    m, u, e, q = (np.diag(v).astype(complex) for v in (
        [MARK, 0.5, 0.75], [6.0, 1.0, 0.5], [800.0, 1.0, 0.5], [-1.0, 0.5, 0.25]
    ))

    def pairs(bad):
        return [
            (g[0], g[1]), (n, g[0]), (g[0], n), (m, g[1]), (g[1], m), (bad, g[2]),
            (g[2], bad), (bad, n), (n, m), (m, bad), (bad, m), (g[2], g[3]),
        ]

    frame = np.linalg.qr(g[0])[0]
    steps = [0.5 * as_hermitian(np.outer(frame[:, k], frame[:, k].conj())) for k in range(2)]
    # a chain whose A_1 is marked and whose A_2 has an eigenvalue where f is
    # undefined: A_2 is checked first
    halves = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    other = np.diag([1.0, 1.0, 0.0]) - halves
    chain = [np.diag([MARK - 0.25, 1.0, 0.5]), 0.5 * halves, 12.0 * other]
    kyfan = KyFan(2)
    return {
        "main": (_holey(), 0.5, 1.0, None, None, pairs(u)),
        # d_of_p(0.25) = 7 exceeds the derivatives f has
        "main:seminorm": (_holey(), 0.5, 0.25, None, None, [(g[0], g[1]), (g[0], n), (m, g[1])]),
        "submaj": (_holey(), 0.5, 1.0, None, None, pairs(u)),
        "symmetric": (_holey(), 0.5, 1.0, kyfan, None, pairs(u)),
        "reverse:power": (None, 1.5, 1.0, kyfan, "power", pairs(e)),
        "reverse:expm1": (None, 1.5, 1.0, kyfan, "expm1", pairs(e)),
        "commutator": (
            _holey(), 0.5, 1.0, kyfan, None, [(g[0], c), (n, c), (m, c), (u, c), (g[1], n)]
        ),
        "quasicommutator": (_holey(), 0.5, 1.0, kyfan, None, [
            (g[0], g[1], c), (n, g[0], c), (g[0], n, c), (m, g[1], c), (g[1], m, c),
            (u, g[2], c), (g[2], u, c), (u, n, c), (m, u, c), (g[3], g[3], n),
        ]),
        "absmap": (None, 0.5, 1.0, kyfan, None, [(g[0], n), (n, m), (u, q)]),
        "alt": (None, 0.5, 1.0, None, None, [
            (g[0], g[1]), (n, g[0]), (g[0], n), (m, g[1]), (g[1], m), (q, g[0]),
            (g[0], q), (q, n), (q, m), (m, q),
        ]),
        "telescope": (_holey(), 0.5, 1.0, None, None, [
            [g[0], *steps], [n, *steps], [m, *steps], [u, *steps], chain,
        ]),
    }


NOT_HERMITIAN = (
    "DomainError", "matrix is not Hermitian: deviation 1.000e+00 exceeds 1.0e-10 * 1.000e+00"
)
NOT_RECONSTRUCTED = (
    "EigensolverError", "eigendecomposition reconstruction residual 0.000e+00 exceeds tolerance"
)
UNDEFINED = ("DomainError", "function undefined at eigenvalue(s) [6.]")
NO_SEMINORM = ("CapabilityError", "holey: seminorm order 7 exceeds max_order 6")
OVERFLOWED = ("DomainError", "function undefined at eigenvalue(s) [800.]")
# per verifier, the class and message of each failed trial, as the per-trial
# verifiers that the stack kernels replaced raised them ("record" otherwise)
R = "record"
PAIR_ERRORS = [R, NOT_HERMITIAN, NOT_HERMITIAN, NOT_RECONSTRUCTED, NOT_RECONSTRUCTED, UNDEFINED,
               UNDEFINED, NOT_HERMITIAN, NOT_HERMITIAN, NOT_RECONSTRUCTED, UNDEFINED, R]
EXPECTED_ERRORS = {
    "main": PAIR_ERRORS,
    # the cell check comes before every check of the inputs
    "main:seminorm": [NO_SEMINORM] * 3,
    "submaj": PAIR_ERRORS,
    "symmetric": PAIR_ERRORS,
    "reverse:power": [R, NOT_HERMITIAN, NOT_HERMITIAN, NOT_RECONSTRUCTED, NOT_RECONSTRUCTED,
                      R, R, NOT_HERMITIAN, NOT_HERMITIAN, NOT_RECONSTRUCTED, NOT_RECONSTRUCTED, R],
    "reverse:expm1": [OVERFLOWED if e == UNDEFINED else e for e in PAIR_ERRORS],
    "commutator": [R, NOT_HERMITIAN, NOT_RECONSTRUCTED, UNDEFINED, R],
    "quasicommutator": [R, NOT_HERMITIAN, NOT_HERMITIAN, NOT_RECONSTRUCTED, NOT_RECONSTRUCTED,
                        UNDEFINED, UNDEFINED, NOT_HERMITIAN, NOT_RECONSTRUCTED, R],
    "absmap": [R, R, R],
    "alt": [R, NOT_HERMITIAN, NOT_HERMITIAN, NOT_RECONSTRUCTED, NOT_RECONSTRUCTED,
            ("DomainError", "X is not positive semidefinite (min eigenvalue -1.000e+00)"),
            ("DomainError", "Z is not positive semidefinite (min eigenvalue -1.000e+00)"),
            NOT_HERMITIAN, NOT_RECONSTRUCTED, NOT_RECONSTRUCTED],
    "telescope": [R, NOT_HERMITIAN, NOT_RECONSTRUCTED, UNDEFINED,
                  ("DomainError", "function undefined at eigenvalue(s) [12.55032502]")],
}


@pytest.mark.parametrize("case", sorted(EXPECTED_ERRORS))
def test_kernel_error_order_is_that_of_stacks_of_one(case, monkeypatch):
    _marked_reconstruction(monkeypatch)
    f, theta, p, spec, variant, trials = _error_order_cases()[case]
    verifier = case.split(":")[0]
    stack = np.stack([np.stack(t) for t in trials])
    digests = [f"d{i}" for i in range(len(trials))]
    outcomes = _cell(verifier, f, theta, p, spec, stack, digests, variant)
    for i, (outcome, expected) in enumerate(zip(outcomes, EXPECTED_ERRORS[case], strict=True)):
        (one,) = _cell(verifier, f, theta, p, spec, stack[i : i + 1], digests[i : i + 1], variant)
        assert _outcome(outcome) == _outcome(one)
        assert (R if isinstance(one, V.VerificationRecord) else _outcome(one)) == expected


# matrices from spectra with zeros, negative entries, near-coincident
# eigenvalues and scales from 1e-8 to 1e8, some of them slightly non-Hermitian
SCALES = st.sampled_from([1e-8, 1e-4, 1.0, 1e4, 1e8])
EIGENVALUE = st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0))
SKEW = st.sampled_from([0.0, 0.0, 0.0, 1e-13, 1e-10, 1e-7])


@st.composite
def pair_stacks(draw):
    dim = draw(st.integers(1, 4))
    rng = SeedState(draw(st.integers(0, 2**31))).rng()
    skew = np.triu(np.ones((dim, dim)), 1)

    def matrix():
        scale = draw(SCALES)
        lam = [draw(EIGENVALUE) * scale for _ in range(dim)]
        if dim > 1 and draw(st.booleans()):
            lam[1] = lam[0] * (1.0 + draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9])))
        m = fixed_spectrum(lam, rng)[0]
        return m + draw(SKEW) * max(1.0, scale) * skew

    return np.stack([np.stack([matrix(), matrix()]) for _ in range(draw(st.integers(1, 5)))])


def _same_as_stacks_of_one(kernel, pairs, checks):
    """Each pair's outcome in the stack is its outcome in a stack of one; a
    failed pair has the error that ``checks(x, y)``, the per-matrix checks
    in the order the per-pair verifier makes them, raises first."""
    digests = [f"d{i}" for i in range(len(pairs))]
    outcomes = kernel(pairs, digests)
    for i, outcome in enumerate(outcomes):
        (one,) = kernel(pairs[i : i + 1], digests[i : i + 1])
        assert _outcome(outcome) == _outcome(one)
        try:
            checks(*pairs[i])
        except HolderLabError as exc:
            assert _outcome(outcome) == _outcome(exc)
        else:
            assert not isinstance(outcome, HolderLabError)


def _bks_checks(x, y):
    for label, m in (("X", x), ("Y", y)):
        dec = eig_hermitian(as_hermitian(m))
        if not psd_stack(dec.eigenvalues):
            raise DomainError(
                f"{label} must be positive semidefinite (min eigenvalue "
                f"{dec.eigenvalues.min():.3e})"
            )


def _inverse_checks(f, x, y):
    for m in (as_hermitian(x), as_hermitian(y)):
        lam = eig_hermitian(m).eigenvalues
        for v in lam:
            band = ZERO_SNAP * lam.size * v
            ends = [_scalar_inverse(f, v - band), _scalar_inverse(f, v + band)]
            if not np.isfinite(ends).all():
                raise DomainError(f"{f.name} has no finite inverse within rounding of {v}")


@settings(max_examples=60, deadline=None)
@given(
    pairs=pair_stacks(),
    theta=st.sampled_from([0.25, 0.5, 0.9]),
    spec=st.sampled_from([Schatten(1), KyFan(2), Schatten(np.inf)]),
)
def test_bks_stack_outcomes_are_those_of_stacks_of_one(pairs, theta, spec):
    _same_as_stacks_of_one(
        lambda stack, digests: _cell("bks", None, theta, None, spec, stack, digests),
        pairs,
        _bks_checks,
    )


@settings(max_examples=60, deadline=None)
@given(
    pairs=pair_stacks(),
    function=st.sampled_from(["spower:0.5", "slog1p", "linear", "srational:1"]),
    theta=st.sampled_from([1.5, 3.0]),
    base=st.sampled_from([Schatten(1), KyFan(2)]),
)
def test_inverse_stack_outcomes_are_those_of_stacks_of_one(pairs, function, theta, base):
    f = parse_function_spec(function)
    _same_as_stacks_of_one(
        lambda stack, digests: _cell("inverse", f, theta, 1.0, base, stack, digests),
        pairs,
        lambda x, y: _inverse_checks(f, x, y),
    )


# --- one draw per (dim, trial), shared by every cell -----------------------------------

# per verifier, a theta it accepts and two more; p 2 fails telescope, theta
# 1.5 bks and alt, theta 0.5 inverse and reverse, and schatten:0.5 every
# verifier that takes a fully symmetric norm
THETAS = {"inverse": [1.5, 3.0, 0.5], "reverse": [1.5, 3.0, 0.5]}


def _neighbour_config(verifier, thetas, ps, norms, dims):
    return CampaignConfig.from_dict(
        {"verifier": verifier, "function": FUNCTION_OF.get(verifier), "thetas": thetas,
         "ps": ps, "norms": norms, "dims": dims, "trials": 9, "seed": 505}
    )


def _campaign_outcomes(config):
    """Per cell, each trial's outcome as the campaign evaluates it (the valid
    cells of a dim together, each other cell failing every trial with its
    check's error), with a digest that leaves out the cell index."""
    f = parse_function_spec(config.function) if config.function else None
    grid = config.cells()
    entries = camp._entries(config, f, camp._kernel_cells(config))
    name = camp._record_name(config)
    out = {}
    for i, entry in enumerate(entries):
        if isinstance(entry, HolderLabError):
            out[grid[i]] = [_outcome(entry)] * config.trials
    for dim in dict.fromkeys(cell[3] for cell in grid):
        idxs = [i for i, cell in enumerate(grid) if cell[3] == dim and grid[i] not in out]
        for trials, _, _, outcomes in camp._stacks(config, dim, [entries[i] for i in idxs], f):
            for c, i in enumerate(idxs):
                for j, trial in enumerate(trials):
                    digest = f"{config.seed}:{trial}:dim{dim}"
                    rec = _record_or_error(outcomes, c, j, name, digest)
                    out.setdefault(grid[i], []).append(_outcome(rec))
    return out


@pytest.mark.parametrize("verifier", sorted(camp.VERIFIERS))
def test_a_cells_records_do_not_depend_on_its_neighbours(verifier):
    thetas = THETAS.get(verifier, [0.5, 0.9, 1.5])
    norms = ["kyfan:2", "schatten:1", "schatten:0.5"]
    full = _campaign_outcomes(_neighbour_config(verifier, thetas, [1.0, 0.5, 2.0], norms, [3, 1]))
    for sub in (
        _neighbour_config(verifier, thetas[:1], [1.0], norms[:1], [3]),
        _neighbour_config(verifier, thetas[1:], [2.0, 0.5], norms[::-1], [1, 3]),
    ):
        outcomes = _campaign_outcomes(sub)
        assert outcomes and all(outcomes[cell] == full[cell] for cell in outcomes)
    # the full config has cells that fail every trial and cells with records
    kinds = {all(o[0] in ("DomainError", "ParameterError", "CapabilityError") for o in v)
             for v in full.values()}
    assert kinds == {True, False}


def test_each_dim_and_trial_is_drawn_once_from_the_shared_stream(monkeypatch):
    entry = ENSEMBLES["gaussian_pair"]
    config = CampaignConfig.from_dict(
        {"verifier": "symmetric", "function": "power:0.5", "thetas": [0.5, 0.9],
         "ps": [1.0, 0.5], "norms": ["schatten:1", "kyfan:2"], "dims": [3, 1, 3],
         "trials": 40, "seed": 7}
    )
    drawn = []

    def spy(dim, seeds, ens):
        drawn.extend((dim, seed) for seed in seeds)
        return entry.draw(dim, seeds, ens)

    monkeypatch.setitem(ENSEMBLES, "gaussian_pair", entry._replace(draw=spy))
    report, _ = run_campaign(config)
    assert len(report.cells) == 24
    assert sorted((dim, seed.path) for dim, seed in drawn) == sorted(
        (dim, (3, dim, t)) for dim in (1, 3) for t in range(40)
    )
    assert all(seed.root == 7 for _, seed in drawn)


def _spy(monkeypatch, module, name, record):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        record.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_a_bks_stack_decomposes_once_for_every_cell(monkeypatch):
    # campaign-small's shape: 3 theta x 11 norms at dim 8, 16 trials in one
    # stack; one eigendecomposition (of the drawn decomposition: its check),
    # one eigvalsh of X - Y and one of X^theta - Y^theta per theta
    config = CampaignConfig.from_dict(
        {"verifier": "bks", "thetas": [0.25, 0.5, 0.75], "ps": [1.0],
         "norms": [f"kyfan:{k}" for k in range(1, 9)]
         + ["schatten:1", "schatten:2", "schatten:inf"],
         "dims": [8], "trials": 16, "seed": 11}
    )
    eighs, svds = [], []
    _spy(monkeypatch, V, "eigh_stack", eighs)
    _spy(monkeypatch, V, "_hermitian_profiles", svds)
    report, cx = run_campaign(config)
    assert len(report.cells) == 33 and not cx
    assert [np.shape(args[0]) for args in eighs] == [(16, 2, 8, 8)]
    assert len(svds) == 4


def test_an_inverse_stack_inverts_once_for_every_theta(monkeypatch):
    config = CampaignConfig.from_dict(
        {"verifier": "inverse", "function": "spower:0.5", "thetas": [1.5, 2.0, 3.0],
         "ps": [1.0], "norms": ["schatten:1"], "dims": [8], "trials": 32, "seed": 11}
    )
    calls = []
    _spy(monkeypatch, V, "inverse_apply", calls)
    report, _ = run_campaign(config)
    assert [c.failures for c in report.cells] == [0, 0, 0]
    assert [np.shape(args[1].basis) for args in calls] == [(32, 2, 8, 8)]


def test_telescope_cells_of_one_p_are_one_verification(monkeypatch):
    # theta does not enter telescope: its cells of one p have equal lhs, rhs
    # and ratio on every trial, and each p's sides are computed once a stack
    config = CampaignConfig.from_dict(
        {"verifier": "telescope", "function": "power:0.5", "thetas": [0.5, 0.9, 7.0],
         "ps": [1.0, 0.5], "norms": ["schatten:1"], "dims": [4], "trials": 20, "seed": 3}
    )
    norms = []
    _spy(monkeypatch, V, "norm_of_profile", norms)
    outcomes = _campaign_outcomes(config)
    assert len(norms) == 2  # one stack, two distinct p
    for p in (1.0, 0.5):
        sides = [
            [o[1:4] for o in outcomes[(theta, p, "schatten:1", 4)]] for theta in (0.5, 0.9, 7.0)
        ]
        assert sides[0] == sides[1] == sides[2]
    assert outcomes[(0.5, 1.0, "schatten:1", 4)] != outcomes[(0.5, 0.5, "schatten:1", 4)]


@pytest.mark.parametrize(
    "verifier, ensemble, dim",
    [
        ("bks", None, 8),
        ("bks", None, 64),
        ("quasicommutator", None, 8),
        ("telescope", {"name": "rank_one_steps", "rank": 8}, 8),
        ("telescope", {"name": "rank_one_steps", "rank": 3}, 3),
        ("inverse", None, 5),
    ],
)
def test_stacks_hold_at_most_the_entry_budget(verifier, ensemble, dim, monkeypatch):
    # every draw and every eigendecomposition holds at most STACK_ENTRIES
    # complex entries, or one trial
    from holderlab.ensembles import STACK_ENTRIES
    import holderlab.spectral as S

    config = CampaignConfig.from_dict(
        {"verifier": verifier, "function": FUNCTION_OF.get(verifier) or "spower:0.5",
         "thetas": [1.5] if verifier == "inverse" else [0.5], "ps": [1.0],
         "norms": ["schatten:1"], "dims": [dim], "trials": 40, "seed": 9, "ensemble": ensemble}
    )
    name = camp._ensemble(verifier, ensemble)["name"]
    entry = ENSEMBLES[name]
    stacks, eighs = [], []

    def draw(dim, seeds, ens):
        stack, dec = entry.draw(dim, seeds, ens)
        stacks.append(stack.shape)
        return stack, dec

    monkeypatch.setitem(ENSEMBLES, name, entry._replace(draw=draw))
    _spy(monkeypatch, V, "eigh_stack", eighs)
    _spy(monkeypatch, S, "eigh_stack", eighs)
    run_campaign(config)
    shapes = stacks + [np.shape(args[0]) for args in eighs]
    assert stacks and eighs
    assert all(np.prod(s) <= STACK_ENTRIES or s[0] == 1 for s in shapes), shapes
    assert sum(s[0] for s in stacks) == 40


# --- records are built only where one is read -------------------------------------------


def test_a_campaign_builds_records_only_where_one_is_read(monkeypatch):
    # campaign-small's shape: 33 cells of 16 trials keep their outcomes as
    # arrays; a replay builds one record, and a counterexample one each
    config = CampaignConfig.from_dict(
        {"verifier": "bks", "thetas": [0.25, 0.5, 0.75], "ps": [1.0],
         "norms": [f"kyfan:{k}" for k in range(1, 9)]
         + ["schatten:1", "schatten:2", "schatten:inf"],
         "dims": [8], "trials": 16, "seed": 11,
         "ensemble": {"name": "positive_pair", "spectrum_range": [0.0, 1.0]}}
    )
    built = []
    real = V.VerificationRecord
    monkeypatch.setattr(V, "VerificationRecord", lambda *args: built.append(args) or real(*args))
    report, cx = run_campaign(config)
    assert len(report.cells) == 33 and not cx
    assert built == []
    replay(config, 0, int(report.cells[0].argmax_digest.split(":")[2]))
    assert len(built) == 1
    bks = dataclasses.replace(camp.VERIFIERS["bks"], claim=lambda spec, p: -np.inf)
    monkeypatch.setitem(camp.VERIFIERS, "bks", bks)
    _, cx = run_campaign(config)
    assert len(cx) == len(built) - 1 == 33 * 16
    # in cell order, then trial order
    digests = [c["record"]["inputs_digest"] for c in cx]
    assert digests == [f"11:{c}:{t}:dim8" for c in range(33) for t in range(16)]


# an absmap campaign whose p-th powers, taken unscaled, overflow: at p = 40
# some ratios are NaN (inf / inf) and others finite, at p = 400 all are NaN
MIXED_NAN = {
    "verifier": "absmap", "thetas": [0.5], "ps": [20.0, 40.0, 400.0],
    "norms": ["schatten:1", "kyfan:2"], "dims": [4, 8], "trials": 40, "seed": 1,
    "ensemble": {"name": "positive_pair", "spectrum_range": [1e3, 1e8]},
}


def test_a_nan_ratio_is_never_the_argmax(overflowing_norms):
    config = CampaignConfig.from_dict(MIXED_NAN)
    report, _ = run_campaign(config)
    rows = report.to_csv().splitlines()[1:]
    assert rows[4] == "0.5,40,schatten:1,4,40,nan,nan,nan,1:4:5:dim4"
    assert [row.split(",")[-1] for row in rows[4:]] == [
        "1:4:5:dim4", "1:5:16:dim8", "1:6:5:dim4", "1:7:16:dim8", "none", "none", "none", "none"
    ]
    for cell_idx, cell in enumerate(report.cells):
        # the first trial with the largest ratio that is not NaN, among the
        # records with rhs > 0
        best, argmax = -np.inf, "none"
        for _, rec in _trial_outcomes(config, cell_idx, None):
            if rec.rhs > 0.0 and rec.ratio > best:
                best, argmax = rec.ratio, rec.inputs_digest
        assert cell.argmax_digest == argmax
    assert replay(config, 4, 5).ratio == 0.0


# --- each cell's statistics from one sort ---------------------------------------------


def _same_bits(a, b):
    """Bit-equal floats, any NaN equal to any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all((np.isnan(a) & np.isnan(b)) | (a.view(np.int64) == b.view(np.int64))))


def _numpy_statistics(arr):
    """(max, min, q50, q99) of the counted ratios ``arr`` as numpy gives them,
    [0.0] standing for none."""
    arr = arr if arr.size else np.array([0.0])
    with np.errstate(all="ignore"):
        return [arr.max(), arr.min(), *np.quantile(arr, [0.5, 0.99])]


# ratios >= +0 as a campaign counts them, with NaN, inf and ties; -0.0 is
# left out, since a counted ratio is lhs >= +0 over rhs > 0
RATIO = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True).map(lambda x: x + 0.0),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.tuples(RATIO, st.booleans()), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
)
def test_ratio_statistics_are_numpys_bit_for_bit(rows):
    ratios = np.array([[r for r, _ in row] for row in rows])
    counted = np.array([[c for _, c in row] for row in rows])
    stats = camp._ratio_statistics(ratios, counted)
    for row, mask, got in zip(ratios, counted, stats):
        assert _same_bits(got, _numpy_statistics(row[mask]))


@pytest.mark.parametrize(
    "row, want",
    [
        ([], [0.0] * 4),  # no counted ratio: those of [0.0]
        ([3.0], [3.0] * 4),  # n = 1
        ([np.inf], [np.inf, np.inf, np.nan, np.nan]),  # numpy's lerp of inf and inf
        ([1.0, np.nan, 2.0], [np.nan] * 4),
        ([2.0, 2.0, 2.0, 1.0], [2.0, 1.0, 2.0, 2.0]),  # ties
    ],
)
def test_ratio_statistics_edges(row, want):
    ratios = np.array([row + [7.0]])  # an uncounted entry rides along
    counted = np.array([[True] * len(row) + [False]])
    (got,) = camp._ratio_statistics(ratios, counted)
    assert _same_bits(got, want)
    assert _same_bits(got, _numpy_statistics(np.array(row)))


SMALL_SHAPE = {
    "verifier": "bks", "thetas": [0.25, 0.5, 0.75], "ps": [1.0],
    "norms": [f"kyfan:{k}" for k in range(1, 9)] + ["schatten:1", "schatten:2", "schatten:inf"],
    "dims": [8], "trials": 16, "seed": 11,
    "ensemble": {"name": "positive_pair", "spectrum_range": [0.0, 1.0]},
}


@pytest.mark.parametrize("cfg", [SMALL_SHAPE, MIXED_NAN], ids=["small", "mixed-nan"])
def test_cell_statistics_are_numpys_on_the_trial_outcomes(cfg, request):
    if cfg is MIXED_NAN:
        request.getfixturevalue("overflowing_norms")
    config = CampaignConfig.from_dict(cfg)
    report, _ = run_campaign(config)
    for cell_idx, cell in enumerate(report.cells):
        ratios = np.array(
            [
                rec.ratio
                for _, rec in _trial_outcomes(config, cell_idx, None)
                if not isinstance(rec, HolderLabError) and rec.rhs > 0.0
            ]
        )
        got = [cell.max_ratio, cell.min_ratio, cell.q50, cell.q99]
        assert _same_bits(got, _numpy_statistics(ratios))


@pytest.mark.parametrize("name", ["refine", "telescope-steps", "main-gaussian", "alt-positive"])
def test_refinement_starts_from_the_inputs_its_stack_held(name, monkeypatch):
    # refinement redraws the argmax trial's inputs from its own sub-seed; they
    # are the bits the campaign's stack held, and climbing from the stack's
    # own arrays (as a tally that kept them would) gives the same report
    config = _config(name)
    redrawn = _outputs(config)
    real = camp._draw
    held, starts = {}, []

    def draw(config, dim, trials):
        kinds, stack, dec = real(config, dim, trials)
        if len(trials) == 1 and (dim, trials[0]) in held:
            starts.append(stack[0].tobytes() == held[dim, trials[0]].tobytes())
            return kinds, held[dim, trials[0]][None], dec
        held.update({(dim, t): m for t, m in zip(trials, stack)})
        return kinds, stack, dec

    monkeypatch.setattr(camp, "_draw", draw)
    report, cx = run_campaign(config)
    assert (report.to_csv(), report.to_json(), json.dumps(cx, sort_keys=True)) == redrawn
    refined = [c for c in report.cells if c.refined_max is not None]
    assert refined and len(starts) == len(refined) and all(starts)
    assert any(len(c.trajectory) > 1 for c in refined)


# --- Hermitian profiles and overflow-safe p-th powers (report format 3) ------------------

# Hermitian spectra at the numerical edges: repeated and zero eigenvalues,
# +-lambda pairs whose moduli tie, eigenvalues that nearly coincide across
# DD_SWITCH, and a dim-64 spread
HERMITIAN_SPECTRA = {
    "degenerate": [1.0, 1.0, 1.0, 0.5, 0.5, -0.5, -0.5, 0.0],
    "zero": [0.0] * 5,
    "rank-one": [0.0, 0.0, 0.0, 1.0],
    "dd-switch": [1.0, 1.0 + 0.5 * DD_SWITCH, 1.0 + 2.0 * DD_SWITCH, -1.0, -1.0 - DD_SWITCH, 0.0],
    "dim-64": list(np.linspace(-1.0, 1.0, 64)),
}


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("name", sorted(HERMITIAN_SPECTRA))
def test_hermitian_profiles_are_the_singular_values(name, scale):
    # both are backward stable: they agree within 4 n eps of the largest
    # singular value; the profiles are C-contiguous, descending and
    # nonnegative, and a matrix's profile has the same bits in a stack of 1,
    # 16 or 32
    spectrum = scale * np.array(HERMITIAN_SPECTRA[name])
    rng = SeedState(21, (len(spectrum),)).rng()
    mats = np.stack([fixed_spectrum(spectrum, rng)[0] for _ in range(32)])
    got = V._hermitian_profiles(mats, 0.5 * mats)
    assert got.shape == (32, 2, len(spectrum)) and got.flags.c_contiguous
    assert np.all(got >= 0.0) and np.all(np.diff(got, axis=-1) <= 0.0)
    sv = np.linalg.svd(mats, compute_uv=False)
    bound = 4 * len(spectrum) * np.finfo(float).eps * sv[:, :1]
    assert np.all(np.abs(got[:, 0] - sv) <= bound)
    assert np.array_equal(got[:16], V._hermitian_profiles(mats[:16], 0.5 * mats[:16]))
    for i in range(32):
        one = V._hermitian_profiles(mats[i : i + 1], 0.5 * mats[i : i + 1])
        assert np.array_equal(got[i], one[0])


def test_hermitian_profiles_refuse_a_non_finite_matrix():
    # as the SVD does, so that campaign's fallback fails the trial
    mats = np.stack([np.eye(2), np.full((2, 2), np.nan)]).astype(complex)
    with pytest.raises(np.linalg.LinAlgError):
        V._hermitian_profiles(mats)


def _overflow_config(verifier, low, trials=12):
    """A campaign at p 20, 40 and 400 on spectra up to 1e8, whose p-th powers
    overflow when taken unscaled."""
    return CampaignConfig.from_dict(
        {"verifier": verifier, "function": {"inverse": "spower:0.5"}.get(verifier, "power:0.5"),
         "thetas": [1.5] if verifier in ("inverse", "reverse") else [0.5],
         "ps": [20.0, 40.0, 400.0], "norms": ["schatten:1", "kyfan:2"], "dims": [4, 8],
         "trials": trials, "seed": 1,
         "ensemble": {"name": "positive_pair", "spectrum_range": [low, 1e8]}}
    )


@pytest.mark.parametrize("low", [1e7, 1e3])
@pytest.mark.parametrize(
    "verifier", ["main", "submaj", "symmetric", "absmap", "reverse", "inverse", "alt"]
)
def test_p_th_powers_do_not_overflow(verifier, low):
    # no numpy warning (RuntimeWarning is an error here), no NaN statistic,
    # no counterexample (alt's NaN margins read as failed submajorizations),
    # and every argmax digest replays to its cell's max_ratio
    config = _overflow_config(verifier, low)
    report, cx = run_campaign(config)
    assert not cx
    for idx, cell in enumerate(report.cells):
        if cell.failures == cell.trials:
            continue
        assert np.isfinite([cell.max_ratio, cell.q50, cell.q99]).all()
        trial = int(cell.argmax_digest.split(":")[2])
        assert replay(config, idx, trial).ratio.hex() == cell.max_ratio.hex()


def test_the_mixed_nan_campaign_is_finite():
    # MIXED_NAN wrote 8 NaN rows when its p-th powers were taken unscaled
    report, _ = run_campaign(CampaignConfig.from_dict(MIXED_NAN))
    assert all(np.isfinite([c.max_ratio, c.q50, c.q99]).all() for c in report.cells)
    assert "none" not in [c.argmax_digest for c in report.cells]


def test_submaj_constant_is_unchanged_by_the_common_scale():
    # the least domination constant of the scaled profiles is that of the
    # unscaled ones wherever those do not overflow
    x, y = np.diag([3.0, 1.0, 0.5]), np.diag([1.0, 2.0, 0.25])
    f = parse_function_spec("power:0.5")
    for p in (0.5, 1.0, 2.0):
        rec = one_record("submaj", f, 0.5, p, None, x, y)
        sv = [hermitian_sv(m) for m in (np.sqrt(x) - np.sqrt(y), x - y)]
        sem = seminorm(f, d_of_p(p), 0.5).value
        want = least_domination_constant((sem * sv[1] ** 0.5) ** p, sv[0] ** p)
        assert rec.ratio == pytest.approx(want, rel=1e-13) and rec.ratio == rec.holds_with_constant


def _workloads():
    """perfbench/workloads.py, which imports only the standard library."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["campaign-small", "campaign-dim64", "campaign-inverse"])
def test_benchmark_campaigns_replay_at_many_seeds(workload):
    # the benchmark replays every cell's argmax digest and requires its
    # max_ratio bit for bit; the norms' sums depend on the profiles' strides
    workloads = _workloads()
    for seed in range(1, 11):
        cfg = workloads.campaign_config(workload, seed)
        config = CampaignConfig.from_dict(cfg)
        report, cx = run_campaign(config)
        assert not (cx and workload in workloads.CONSTANT_ONE)
        for idx, cell in enumerate(report.cells):
            trial = int(cell.argmax_digest.split(":")[2])
            assert replay(config, idx, trial).ratio.hex() == cell.max_ratio.hex(), (seed, idx)


# --- drawn decompositions (report format 4) ----------------------------------------------

# the spectral draws at the numerical edges: tiny, unit and huge positive
# spectra, zero and repeated eigenvalues, two eigenvalues DD_SWITCH apart, and
# two spectra in one basis; per case the ensemble and its dim
DRAWN_CASES = {
    "positive-tiny": ({"name": "positive_pair", "spectrum_range": [0.0, 1e-8]}, 8),
    "positive": ({"name": "positive_pair", "spectrum_range": [0.0, 1.0]}, 8),
    "positive-huge": ({"name": "positive_pair", "spectrum_range": [1e3, 1e8]}, 8),
    "fixed-degenerate": ({"name": "fixed_pair", "eigenvalues": [0.0, 0.0, 1.0, 1.0]}, 4),
    "fixed-dd-switch": (
        {"name": "fixed_pair", "eigenvalues": [0.5, 1.0, 1.0 + DD_SWITCH, 2.0]}, 4
    ),
    "commuting": ({"name": "commuting_pair"}, 8),
}
# the largest relative difference of lhs, rhs and ratio between a kernel on a
# drawn decomposition and on eigh's
DRAWN_RTOL = 1e-12


def _drawn_config(verifier, case, trials=32, **overrides):
    ens, dim = DRAWN_CASES[case]
    reverse = verifier in ("inverse", "reverse")
    return CampaignConfig.from_dict(
        {"verifier": verifier, "function": FUNCTION_OF.get(verifier),
         "thetas": [1.5, 2.0, 3.0] if reverse else [0.25, 0.5, 0.75], "ps": [1.0, 0.5],
         "norms": ["schatten:1", "kyfan:2"], "dims": [dim], "trials": trials, "seed": 21,
         "ensemble": ens, **overrides}
    )


def _drawn_and_eigh(config):
    """The Outcomes of the verifier's kernel on one drawn stack of every
    trial, given the draw's decomposition and not."""
    f = parse_function_spec(config.function) if config.function else None
    entries = camp._entries(config, f, camp._kernel_cells(config))
    _, stack, dec = camp._draw(config, config.dims[0], range(config.trials))
    kernel = getattr(V, camp.VERIFIERS[config.verifier].kernel)
    return kernel(f, entries, stack, dec), kernel(f, entries, stack)


@pytest.mark.parametrize(
    "verifier, case",
    [
        (verifier, case)
        for verifier in ("bks", "alt", "main", "symmetric", "submaj", "inverse", "reverse")
        for case in sorted(DRAWN_CASES)
        # bks and alt draw positive pairs only
        if not (camp.VERIFIERS[verifier].positive and case == "commuting")
    ],
)
def test_a_drawn_decomposition_gives_the_ratios_of_eigh(verifier, case):
    # the same trials pass, with the same sides and ratios within DRAWN_RTOL.
    # On the exact zeros of fixed-degenerate eigh's rounding (about 1e-16),
    # raised to the power 0.25 of bks, would move eigh's sides by up to 1e-4
    # relative: eigh_stack makes those eigenvalues 0, as the draw has them
    config = _drawn_config(verifier, case)
    drawn, eigh = _drawn_and_eigh(config)
    assert np.array_equal(drawn.ok, eigh.ok)
    ok = drawn.ok
    sides = ["ratio"]
    # submaj's sides are the partial sums where their ratio peaks, and a
    # degenerate spectrum ties the peak over several indices
    if not (verifier == "submaj" and case == "fixed-degenerate"):
        sides += ["lhs", "rhs"]
    for side in sides:
        a, b = getattr(drawn, side)[ok], getattr(eigh, side)[ok]
        assert np.allclose(a, b, rtol=DRAWN_RTOL, atol=0.0), side


def _redraw(monkeypatch, config, defect):
    """Replace the config's draw by one whose trial 0 is rebuilt by
    ``defect(eigenvalues (2, n), bases (2, n, n))`` -> (eigenvalues, bases),
    its inputs the products of what ``defect`` returns."""
    name = config.ensemble["name"]
    entry = ENSEMBLES[name]

    def draw(dim, seeds, ens):
        stack, dec = entry.draw(dim, seeds, ens)
        if seeds[0].path == (3, dim, 0):
            lam, basis = dec.eigenvalues.copy(), dec.basis.copy()
            lam[0], basis[0] = defect(lam[0], basis[0])
            dec = SpectralDecomposition(lam, basis)
            stack = from_eigen(basis, lam)
        return stack, dec

    monkeypatch.setitem(ENSEMBLES, name, entry._replace(draw=draw))


def _trial_0(config):
    """Trial 0's outcome in cell 0, and the eigh path's on the same inputs."""
    f = parse_function_spec(config.function) if config.function else None
    ((_, outcome),) = [o for o in _trial_outcomes(config, 0, f) if o[0] == 0]
    (entry,) = camp._entries(config, f, camp._kernel_cells(config)[:1])
    _, stack, _ = camp._draw(config, config.dims[0], [0])
    kernel = getattr(V, camp.VERIFIERS[config.verifier].kernel)
    return outcome, _record_or_error(kernel(f, [entry], stack), 0, 0, "x")


def test_a_drawn_basis_that_is_not_unitary_fails_its_reconstruction(monkeypatch):
    # a basis 1e-6 away from unitary builds a Hermitian pair that eigh
    # decomposes, but no decomposition of it: the drawn check refuses it
    config = _drawn_config("bks", "positive", trials=3)
    tilt = np.triu(np.full((8, 8), 1e-6), 1)
    _redraw(monkeypatch, config, lambda lam, basis: (lam, basis + tilt))
    drawn, eigh = _trial_0(config)
    assert isinstance(drawn, EigensolverError)
    assert str(drawn).startswith("eigendecomposition reconstruction residual ")
    assert str(drawn).endswith(" exceeds tolerance") and drawn.residual > 1e-7
    assert not isinstance(eigh, HolderLabError)


@pytest.mark.parametrize("verifier", ["bks", "alt"])
def test_a_negative_drawn_eigenvalue_fails_positivity(verifier, monkeypatch):
    config = _drawn_config(verifier, "positive", trials=3)

    def negative(lam, basis):
        lam = lam.copy()
        lam[0, 0] = -1e-3  # the least eigenvalue of the first input
        return lam, basis

    _redraw(monkeypatch, config, negative)
    drawn, eigh = _trial_0(config)
    assert isinstance(drawn, DomainError)
    assert (type(drawn), str(drawn)) == (type(eigh), str(eigh))
    assert "(min eigenvalue -1.000e-03)" in str(drawn)


def test_only_refinement_and_the_public_verifiers_call_eigh(monkeypatch):
    # a positive_pair campaign's kernels take the drawn decompositions, while
    # a refinement step's perturbed inputs and a public verify_bks are
    # decomposed by one eigh call each
    config = _drawn_config("bks", "positive", trials=33, refine_steps=1)
    calls = []
    _spy(monkeypatch, np.linalg, "eigh", calls)
    f, cell = None, camp._kernel_cells(config)[0]
    (entry,) = camp._entries(config, f, [cell])
    for _ in camp._stacks(config, 8, [entry], f):
        pass
    assert calls == []
    kernels = []
    _spy(monkeypatch, V, "eigh_stack", kernels)
    camp._greedy_refine(config, f, entry, 8, 0.5, 0, 0)
    assert [np.shape(args[0]) for args in kernels] == [(1, 2, 8, 8)]
    del calls[:], kernels[:]
    _, stack, _ = camp._draw(config, 8, [0])
    hl.verify_bks(0.5, Schatten(1), *stack[0])
    assert len(calls) == len(kernels) == 1


@pytest.mark.parametrize(
    "verifier, case",
    [("bks", "positive"), ("bks", "positive-huge"), ("bks", "fixed-degenerate"),
     ("main", "positive"), ("symmetric", "commuting"), ("reverse", "fixed-dd-switch"),
     ("inverse", "positive")],
)
def test_counterexamples_replay_through_the_public_verifiers(verifier, case, monkeypatch):
    # with every claim forced, each record is a counterexample; its stored
    # matrices, fed to verify_bks, verify_main or verify._one (which
    # decompose them with eigh), give its ratio within DRAWN_RTOL
    config = _drawn_config(verifier, case, trials=6)
    forced = dataclasses.replace(camp.VERIFIERS[verifier], claim=lambda spec, p: -np.inf)
    monkeypatch.setitem(camp.VERIFIERS, verifier, forced)
    _, cxs = run_campaign(config)
    assert cxs
    f = parse_function_spec(config.function) if config.function else None
    for cx in cxs:
        mats = [i["matrix"] for i in cx["inputs"]]
        x, y = (np.array(m["re"]) + 1j * np.array(m["im"]) for m in mats)
        cell = cx["cell"]
        theta, p, spec = cell["theta"], cell["p"], camp.parse_norm_spec(cell["norm"])
        rec = {
            "bks": lambda: hl.verify_bks(theta, spec, x, y),
            "main": lambda: hl.verify_main(f, theta, p, x, y),
            "symmetric": lambda: one_record("symmetric", f, theta, p, spec, x, y),
            "reverse": lambda: one_record("reverse", None, theta, p, spec, x, y, variant="power"),
            "inverse": lambda: one_record("inverse", f, theta, p, spec, x, y),
        }[verifier]()
        assert rec.ratio == pytest.approx(cx["record"]["ratio"], rel=DRAWN_RTOL, abs=0.0)
