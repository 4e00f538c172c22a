"""The batched campaign engine against the per-trial path it replaces.

bks cells on positive pairs and inverse cells are evaluated in stacks of
trials; every record, statistic, counterexample and digest must equal what
the per-trial path (replay) gives, bit for bit.
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
from holderlab.functions import GridSpec, ScalarFunction, d_of_p, parse_function_spec, seminorm
from holderlab.norms import (
    KyFan,
    PowerOf,
    Schatten,
    norm,
    norm_of_profile,
    singular_values,
)
from holderlab.spectral import as_hermitian, eig_hermitian, from_eigen

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


# --- inverse ------------------------------------------------------------------------

INVERSE_FUNCTIONS = ["spower:0.5", "slog1p", "srational:1", "sexpm1", "linear", "gauss"]

INVERSE_ENSEMBLES = {
    "gaussian": {"name": "gaussian_pair"},
    "tiny-spectrum": {"name": "positive_pair", "spectrum_range": [0.0, 1e-8]},
    "huge-spectrum": {"name": "positive_pair", "spectrum_range": [1e7, 1e8]},
    "fixed-degenerate": {"name": "fixed_pair", "eigenvalues": [-1.0, -1.0, 0.0, 0.5, 0.5]},
}


def _inverse_config(function, ensemble="gaussian", seed=101, **overrides):
    return CampaignConfig.from_dict(
        {
            "verifier": "inverse",
            "function": function,
            "thetas": [1.5, 3.0],
            "ps": [1.0],
            "norms": ["schatten:1", "kyfan:2"],
            "dims": [1, 3, 8],
            "trials": 5,
            "seed": seed,
            "ensemble": INVERSE_ENSEMBLES[ensemble],
            **overrides,
        }
    )


def _replay_failures(config):
    """Per cell, the failure count of the campaign's trials, after checking
    that every record equals replay bit for bit and every failed trial
    raises in replay."""
    f = parse_function_spec(config.function)
    counts = []
    for cell_idx in range(len(config.cells())):
        failures = 0
        for trial, inputs, rec in trial_outcomes(config, cell_idx, f, {}):
            if rec is None:
                failures += 1
                with pytest.raises(HolderLabError):
                    replay(config, cell_idx, trial)
                continue
            assert _bits(rec) == _bits(replay(config, cell_idx, trial))
        counts.append(failures)
    return counts


@pytest.mark.parametrize("function", INVERSE_FUNCTIONS)
def test_inverse_trials_replay_bitwise(function):
    failures = _replay_failures(_inverse_config(function, norms=["kyfan:2"]))
    if function == "gauss":  # not monotone: every trial fails
        assert failures == [5] * 6
    elif function != "srational:1":  # srational:1 cannot reach |y| >= 1
        assert failures == [0] * 6


@pytest.mark.parametrize("ensemble", ["tiny-spectrum", "huge-spectrum", "fixed-degenerate"])
@pytest.mark.parametrize("function", ["spower:0.5", "slog1p", "sexpm1"])
def test_inverse_ensembles_replay_bitwise(function, ensemble):
    failures = _replay_failures(_inverse_config(function, ensemble, thetas=[2.0]))
    if ensemble == "huge-spectrum":
        # f^{-1} leaves the bracket for spower and slog1p; sexpm1 overflows
        # on the monotonicity probe
        assert failures == [5] * 6
    else:
        assert failures == [0] * 6


def test_gauss_fails_through_the_fallback(monkeypatch):
    real = V.verify_inverse_stack
    stacked = []

    def spy(*args):
        recs = real(*args)
        stacked.extend(recs)
        return recs

    monkeypatch.setattr(camp, "V", SimpleNamespace(**{**vars(V), "verify_inverse_stack": spy}))
    report, _ = run_campaign(_inverse_config("gauss", trials=33, dims=[8]))
    assert [c.failures for c in report.cells] == [33] * 4
    assert len(stacked) == 4 * 33 and all(rec is None for rec in stacked)


INVERSE_REPORT_CONFIGS = [dict(function=f) for f in INVERSE_FUNCTIONS if f != "sexpm1"] + [
    dict(function="spower:0.5", ensemble=e, thetas=[2.0]) for e in INVERSE_ENSEMBLES if e != "gaussian"
]


@pytest.mark.parametrize(
    "kwargs",
    INVERSE_REPORT_CONFIGS,
    ids=lambda kw: f"{kw['function']}-{kw.get('ensemble', 'gaussian')}",
)
def test_inverse_reports_match_per_trial_path(kwargs, monkeypatch):
    # sexpm1 has an infinite seminorm: its ratios are inf and the quantiles
    # of the report warn, so its records are checked by the replay tests only
    config = _inverse_config(seed=202, trials=9, refine_steps=2, **kwargs)
    stacked = _outputs(config)
    monkeypatch.setattr(camp, "_stack_size", lambda *args: 0)
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

    def spy(f, theta, p, base, pairs, digests, sem_cache):
        sizes.append(len(pairs))
        return real(f, theta, p, base, pairs, digests, sem_cache)

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
    assert sizes == [32, 1]  # only the valid cell runs stacked, 33 = 32 + 1
    monkeypatch.undo()
    assert _replay_failures(config) == [33, 33, 33, 33, 33, 0]


def test_inverse_stack_sizes():
    config = _inverse_config("spower:0.5")
    sizes = {d: camp._stack_size(config, 2.0, KyFan(2), d) for d in (1, 8, 64)}
    assert sizes == {1: 2048, 8: 32, 64: 1}
    assert camp._stack_size(config, 1.0, KyFan(2), 8) == 0
    assert camp._stack_size(config, 2.0, Schatten(0.5), 8) == 0


def _scalar_bisect(f, y, increasing, tol=1e-12):
    """The per-eigenvalue bisection the lockstep one replaced."""
    lo, hi = -1.0, 1.0
    target = y if increasing else -y
    g = (lambda t: float(f.eval(np.array([t]))[0])) if increasing else (
        lambda t: -float(f.eval(np.array([t]))[0])
    )
    for _ in range(200):
        if g(lo) <= target:
            break
        lo *= 2.0
        if lo < -1e12:
            raise DomainError(f"{f.name}: could not bracket inverse at {y}")
    for _ in range(200):
        if g(hi) >= target:
            break
        hi *= 2.0
        if hi > 1e12:
            raise DomainError(f"{f.name}: could not bracket inverse at {y}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * (1.0 + abs(mid)):
            break
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _decreasing():
    return ScalarFunction(
        name="-spower:0.5", eval=lambda x: -np.sign(x) * np.abs(x) ** 0.5, deriv=None
    )


@pytest.mark.parametrize("function", INVERSE_FUNCTIONS[:-1] + ["decreasing"])
def test_lockstep_bisection_matches_scalar(function):
    f = _decreasing() if function == "decreasing" else parse_function_spec(function)
    increasing = function != "decreasing"
    rng = SeedState(11).rng()
    mags = np.concatenate([np.logspace(-8, 8, 17), [0.5, 0.999999, 1.0, 1e6, 1e13]])
    extra = [0.0, np.inf, -np.inf, np.nan]
    ys = np.concatenate([extra, mags, -mags, rng.standard_normal(20) * 10.0])
    sign = np.full(ys.shape, 1.0 if increasing else -1.0)
    got, ok = V._bisect_inverse(f, ys, sign)
    failed = 0
    for y, x, good in zip(ys, got, ok):
        try:
            with np.errstate(all="ignore"):
                want = _scalar_bisect(f, float(y), increasing)
        except DomainError:
            failed += 1
            assert not good
            continue
        assert good and x.hex() == want.hex()
    assert failed > 0  # every function has targets it cannot bracket


def _scalar_probe_sign(f, lam):
    """The per-matrix monotonicity probe the stacked one replaced."""
    span = np.linspace(float(lam.min()) - 1.0, float(lam.max()) + 1.0, 64)
    with np.errstate(all="ignore"):
        d = np.diff(np.asarray(f.eval(span), dtype=float))
    return 1.0 if np.all(d > 0) else (-1.0 if np.all(d < 0) else 0.0)


@pytest.mark.parametrize("function", INVERSE_FUNCTIONS + ["decreasing"])
def test_probe_matches_per_matrix_probe(function):
    f = _decreasing() if function == "decreasing" else parse_function_spec(function)
    rng = SeedState(12).rng()
    rows = [np.sort(rng.standard_normal(4)) * s for s in np.logspace(-8, 8, 9)]
    rows += [np.full(4, 1e17), np.array([0.0, 0.0, 1e-300, 1.0]), np.full(4, -3.0)]
    lam = np.stack(rows)
    signs = V._monotone_sign(f, lam)
    assert [float(s) for s in signs] == [_scalar_probe_sign(f, row) for row in lam]
    assert signs[-3] == 0.0  # the flat span at 1e17 is never monotone


def _inverse_per_matrix(f, theta, p, base, x, y):
    """verify_inverse's lhs and rhs computed one matrix and one eigenvalue
    at a time, with the scalar bisection and 2-D LAPACK calls."""
    spec = PowerOf(base, p)
    xm, ym = as_hermitian(x), as_hermitian(y)
    sem = seminorm(f, d_of_p(p), 1.0 / theta, GridSpec()).value
    inv = []
    for m in (xm, ym):
        dec = eig_hermitian(m)
        increasing = _scalar_probe_sign(f, dec.eigenvalues) > 0
        vals = np.array([_scalar_bisect(f, float(v), increasing) for v in dec.eigenvalues])
        inv.append((dec.basis * vals) @ dec.basis.conj().T)
    lhs = sem**theta * norm(inv[0] - inv[1], spec)
    rhs = norm_of_profile(singular_values(xm - ym) ** theta, spec)
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
        recs = V.verify_inverse_stack(f, theta, p, base, pairs, [""] * len(pairs), {})
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
    unbracketed = np.stack([herm([1.0, 2.0, 3.0]), herm([1.0, 2.0, 1e7])])
    flat = np.stack([1e17 * np.eye(3), herm([1.0, 2.0, 3.0])]).astype(complex)
    pairs = np.stack([good, not_herm, unbracketed, flat, good[::-1]])
    recs = V.verify_inverse_stack(f, 2.0, 1.0, KyFan(2), pairs, list("abcde"), {})
    assert [rec is None for rec in recs] == [False, True, True, True, False]
    for (x, y), rec, digest in zip(pairs, recs, "abcde"):
        if rec is None:
            with pytest.raises(DomainError):
                hl.verify_inverse(f, 2.0, 1.0, KyFan(2), x, y, {})
        else:
            one = hl.verify_inverse(f, 2.0, 1.0, KyFan(2), x, y, {}, digest)
            assert _bits(rec) == _bits(one)


def test_verify_inverse_keeps_its_exceptions():
    f = parse_function_spec("spower:0.5")
    x, y = np.diag([0.5, 1.5]), np.diag([0.25, 1.0])
    with pytest.raises(DomainError, match="not Hermitian"):
        hl.verify_inverse(f, 2.0, 1.0, KyFan(2), x, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DomainError, match="not strictly monotone"):
        hl.verify_inverse(parse_function_spec("gauss"), 2.0, 1.0, KyFan(2), x, y)
    with pytest.raises(DomainError, match="could not bracket inverse at 10000000.0"):
        hl.verify_inverse(f, 2.0, 1.0, KyFan(2), x, np.diag([1.0, 1e7]))
    with pytest.raises(ParameterError):
        hl.verify_inverse(f, 1.0, 1.0, KyFan(2), x, y)
    with pytest.raises(ParameterError):
        hl.verify_inverse(f, 2.0, 1.0, Schatten(0.5), x, y)


def test_inverse_apply_over_a_stack():
    # f^{-1}(M) of linear f is M itself; spower:0.5 inverts to sgn(t) t^2
    rng = SeedState(14).rng()
    mats = np.stack([fixed_spectrum([-2.0, 0.25, 3.0], rng)[0] for _ in range(4)])
    h = as_hermitian(mats[0])[None]
    same, ok = V.inverse_apply(parse_function_spec("linear"), h)
    assert ok.all() and np.allclose(same, h, atol=1e-10)
    squared, ok = V.inverse_apply(parse_function_spec("spower:0.5"), np.stack([mats, mats]))
    assert ok.shape == (2, 4) and ok.all()
    dec = eig_hermitian(mats[1])
    want = from_eigen(dec.basis, np.sign(dec.eigenvalues) * dec.eigenvalues**2)
    assert np.allclose(squared[1, 1], want, atol=1e-9)
