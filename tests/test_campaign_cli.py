import argparse
import dataclasses
import json
import os

import numpy as np
import pytest

import holderlab as hl
from holderlab.campaign import (
    CONSTANT_ONE_TOL,
    VERIFIERS,
    CampaignConfig,
    replay,
    run_campaign,
)
from holderlab.cli import main
from holderlab.ensembles import ENSEMBLES, SeedState, sample_ensemble
from holderlab.errors import ParameterError
from holderlab.norms import KyFan, Schatten
from holderlab.verify import REVERSE_VARIANTS, VerificationRecord


def small_config(**overrides):
    base = dict(
        verifier="bks",
        thetas=(0.5,),
        ps=(1.0,),
        norms=("schatten:2",),
        dims=(6,),
        trials=40,
        seed=99,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_campaign_deterministic_tables():
    cfg = small_config()
    rep1, _ = run_campaign(cfg)
    rep2, _ = run_campaign(cfg)
    assert rep1.to_csv() == rep2.to_csv()
    assert rep1.to_json() == rep2.to_json()


def test_campaign_max_monotone_in_trials():
    r_small, _ = run_campaign(small_config(trials=20))
    r_big, _ = run_campaign(small_config(trials=80))
    assert r_big.cells[0].max_ratio >= r_small.cells[0].max_ratio


def test_campaign_trials_one_matches_single_verify():
    cfg = small_config(trials=1)
    rep, _ = run_campaign(cfg)
    rec = replay(cfg, 0, 0)
    assert rep.cells[0].max_ratio == rec.ratio


def test_replay_reproduces_argmax():
    cfg = small_config(trials=30)
    rep, _ = run_campaign(cfg)
    cell = rep.cells[0]
    trial = int(cell.argmax_digest.split(":")[2])
    rec = replay(cfg, 0, trial)
    assert abs(rec.ratio - cell.max_ratio) <= 1e-15 * max(1.0, cell.max_ratio)


def test_campaign_bks_grid_constant_one():
    cfg = small_config(
        thetas=(0.25, 0.75),
        norms=("schatten:1", "kyfan:3"),
        trials=100,
    )
    rep, cx = run_campaign(cfg)
    assert not cx
    assert all(c.max_ratio <= 1.0 + 1e-10 for c in rep.cells)
    assert len(rep.cells) == 4


def test_campaign_refinement_never_decreases():
    cfg = small_config(verifier="main", function="power:0.5", norms=("-",), trials=15,
                       refine_steps=10)
    rep, _ = run_campaign(cfg)
    cell = rep.cells[0]
    assert cell.refined_max >= cell.max_ratio
    assert list(cell.trajectory) == sorted(cell.trajectory)


def test_dimension_trend_statistic():
    cfg = small_config(
        verifier="main", function="power:0.5", norms=("-",), dims=(2, 4, 8), trials=40
    )
    rep, _ = run_campaign(cfg)
    trends = rep.dimension_trend()
    assert len(trends) == 1
    slope = next(iter(trends.values()))
    assert np.isfinite(slope)
    assert "dimension_trend" in rep.to_dict()


def test_degenerate_records_excluded_from_stats():
    # identical fixed spectra make X = Y impossible, but a commuting fixed
    # pair with equal spectra gives rhs > 0; instead exercise the exclusion
    # directly through a verifier whose inputs force 0/0
    cfg = small_config(
        verifier="absmap",
        norms=("schatten:1",),
        ps=(2.0,),
        dims=(2,),
        trials=5,
        ensemble={"name": "fixed_pair", "eigenvalues": [0.0, 0.0]},
    )
    rep, cx = run_campaign(cfg)
    cell = rep.cells[0]
    assert cell.max_ratio == 0.0 and cell.argmax_digest == "none"
    assert not cx


def test_config_round_trip():
    cfg = small_config(ensemble={"name": "positive_pair", "spectrum_range": [0.0, 2.0]})
    again = CampaignConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ParameterError) as err:
        CampaignConfig.from_dict({"verifier": "bks", "bogus": 1})
    assert "bogus" in str(err.value)
    with pytest.raises(ParameterError) as err2:
        CampaignConfig.from_dict({"verifier": "bks"})
    assert "thetas" in str(err2.value)


def test_constant_one_claim_logic():
    assert VERIFIERS["bks"].claim(Schatten(2), 1.0) == 1.0
    assert VERIFIERS["absmap"].claim(Schatten(1), 2.0) == 1.0
    assert VERIFIERS["absmap"].claim(Schatten(1), 1.0) is None
    assert VERIFIERS["main"].claim(None, 1.0) is None

    # a record violates its cell's claim when ratio > claim + CONSTANT_ONE_TOL
    bks = VERIFIERS["bks"].claim(Schatten(1), 1.0) + CONSTANT_ONE_TOL
    assert not VerificationRecord("bks", 1.0, 1.0, 1.0).ratio > bks
    assert VerificationRecord("bks", 2.0, 1.0, 2.0).ratio > bks
    alt = VERIFIERS["alt"].claim(None, 1.0) + CONSTANT_ONE_TOL
    assert VerificationRecord("alt", 1e-6, 1.0, 1e-6).ratio > alt


# --- command line ---------------------------------------------------------------


def test_cli_verify_bks(capsys):
    code = main(
        ["verify", "--ineq", "bks", "--theta", "0.5", "--norm", "schatten:1",
         "--dim", "6", "--trials", "25", "--seed", "5"]
    )
    out = capsys.readouterr().out.strip()
    rec = json.loads(out)
    assert code == 0
    assert rec["name"] == "bks" and rec["ratio"] <= 1.0 + 1e-10
    # the emitted line round-trips into the record type
    assert VerificationRecord(**rec).ratio == rec["ratio"]


def test_cli_verify_alt_identity_inputs(capsys):
    code = main(
        ["verify", "--ineq", "alt", "--dim", "2", "--spectrum", "1,1", "--seed", "3"]
    )
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert rec["holds_with_constant"] == pytest.approx(0.0, abs=1e-12)


def test_cli_verify_requires_function(capsys):
    code = main(["verify", "--ineq", "main"])
    assert code == 2


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-such-flag"])
    assert exc.value.code == 2


def test_cli_bad_norm_spec(capsys):
    code = main(["verify", "--ineq", "bks", "--norm", "banana:1", "--trials", "2"])
    assert code == 2
    assert "banana" in capsys.readouterr().err


def test_cli_campaign_end_to_end(monkeypatch, tmp_path, capsys):
    cfg = {
        "verifier": "bks",
        "thetas": [0.5],
        "ps": [1.0],
        "norms": ["schatten:2", "kyfan:2"],
        "dims": [5],
        "trials": 30,
        "seed": 12,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["campaign", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["campaign", str(cfg_path), "--out", str(out2)]) == 0
    csv1 = (out1 / "report.csv").read_bytes()
    csv2 = (out2 / "report.csv").read_bytes()
    assert csv1 == csv2
    rows = csv1.decode().strip().split("\n")
    assert rows[0] == "theta,p,norm,dim,trials,max_ratio,q50,q99,argmax_digest"
    assert len(rows) == 3
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 12
    assert str(out1 / "report.csv") in manifest["outputs"]
    # the argv main parsed, not that of the process hosting it
    monkeypatch.setattr("sys.argv", ["host", "--host-flag"])
    assert main(["campaign", str(cfg_path), "--out", str(out2)]) == 0
    assert json.loads((out2 / "manifest.json").read_text())["argv"] == [
        "campaign", str(cfg_path), "--out", str(out2)
    ]
    payload = json.loads((out1 / "report.json").read_text())
    again = CampaignConfig.from_dict(payload["config"])
    rep, _ = run_campaign(again)
    assert rep.to_csv().encode() == csv1  # manifest replay reproduces the table
    assert not (out1 / "counterexamples.json").exists()


def test_reports_carry_the_report_format(tmp_path, capsys):
    # format 9: an inverse record whose side leaves the float range fails its trial
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(trials=3).to_dict()))
    assert main(["campaign", str(cfg_path), "--out", str(tmp_path)]) == 0
    for name in ("report.json", "manifest.json"):
        assert json.loads((tmp_path / name).read_text())["report_format"] == 9


def test_cli_campaign_malformed_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"verifier": "bks", "wrong_key": True}))
    assert main(["campaign", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "wrong_key" in err


def test_cli_campaign_config_not_utf8_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b"\xff\xfe\x00")
    out = tmp_path / "out"
    assert main(["campaign", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: malformed config: 'utf-8' codec can't decode")


@pytest.mark.parametrize("bad", ["out-is-a-file", "config-is-a-directory"])
def test_cli_campaign_bad_paths_exit_2_before_any_trial(bad, monkeypatch, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(trials=3).to_dict()))
    out = tmp_path / "out"
    if bad == "out-is-a-file":
        out.write_text("not a directory")
    else:
        cfg_path = tmp_path / "cfg-dir"
        cfg_path.mkdir()
    monkeypatch.setattr("holderlab.campaign.run_campaign", lambda config: pytest.fail("trials ran"))
    assert main(["campaign", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.exists() == (bad == "out-is-a-file")


def test_symmetric_and_quasicommutator_campaigns_finite():
    cfg = CampaignConfig(
        verifier="symmetric",
        function="log1p",
        thetas=(0.5,),
        ps=(0.5, 1.0),
        norms=("kyfan:3",),
        dims=(5,),
        trials=25,
        seed=31,
    )
    rep, _ = run_campaign(cfg)
    assert all(np.isfinite(c.max_ratio) and c.max_ratio > 0 for c in rep.cells)

    cfg2 = CampaignConfig(
        verifier="quasicommutator",
        function="power:0.5",
        thetas=(0.5,),
        ps=(1.0,),
        norms=("kyfan:4",),
        dims=(3, 5, 7),
        trials=25,
        seed=32,
    )
    rep2, _ = run_campaign(cfg2)
    maxima = [c.max_ratio for c in rep2.cells]
    assert all(np.isfinite(m) and m > 0 for m in maxima)
    assert max(maxima) / min(maxima) <= 3.0  # stable in dimension


def test_campaign_counterexample_persistence(monkeypatch, tmp_path, capsys):
    # force the claim predicate so the persistence and exit-3 machinery runs
    # on honestly computed records
    import holderlab.campaign as camp

    bks = dataclasses.replace(camp.VERIFIERS["bks"], claim=lambda spec, p: -np.inf)
    monkeypatch.setitem(camp.VERIFIERS, "bks", bks)
    from holderlab.cli import main as cli_main

    cfg = {
        "verifier": "bks",
        "thetas": [0.5],
        "ps": [1.0],
        "norms": ["schatten:1"],
        "dims": [4],
        "trials": 3,
        "seed": 77,
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli_main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 3
    payload = json.loads((tmp_path / "out" / "counterexamples.json").read_text())
    assert len(payload) == 3
    entry = payload[0]
    assert entry["record"]["name"] == "bks"
    mats = entry["inputs"]
    assert len(mats) == 2 and "re" in mats[0]["matrix"] and "im" in mats[0]["matrix"]
    # the persisted inputs replay to the recorded ratio
    x = np.array(mats[0]["matrix"]["re"]) + 1j * np.array(mats[0]["matrix"]["im"])
    y = np.array(mats[1]["matrix"]["re"]) + 1j * np.array(mats[1]["matrix"]["im"])
    from holderlab import verify_bks
    from holderlab.norms import parse_norm_spec

    rec = verify_bks(0.5, parse_norm_spec("schatten:1"), x, y)
    assert rec.ratio == pytest.approx(entry["record"]["ratio"], rel=1e-12)


def test_a_clean_rerun_removes_stale_counterexamples(monkeypatch, tmp_path, capsys):
    # a forced-claim run leaves counterexamples.json; an honest rerun into the
    # same directory has none, so the file goes and the manifest omits it
    import holderlab.campaign as camp

    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(small_config(dims=(4,), trials=3).to_dict()))
    out = tmp_path / "out"
    argv = ["campaign", str(cfg_path), "--out", str(out)]
    with monkeypatch.context() as m:
        forced = dataclasses.replace(camp.VERIFIERS["bks"], claim=lambda spec, p: -np.inf)
        m.setitem(camp.VERIFIERS, "bks", forced)
        assert main(argv) == 3
    assert (out / "counterexamples.json").exists()
    assert main(argv) == 0
    assert not (out / "counterexamples.json").exists()
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(os.path.basename(o) for o in outputs) == ["report.csv", "report.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_campaign_outputs_get_the_mode_of_a_plain_open(umask, monkeypatch, tmp_path, capsys):
    # the atomic writes keep the umask's mode, not mkstemp's 0o600, for all
    # four outputs (a forced claim writes counterexamples.json)
    import holderlab.campaign as camp

    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(small_config(dims=(4,), trials=3).to_dict()))
    forced = dataclasses.replace(camp.VERIFIERS["bks"], claim=lambda spec, p: -np.inf)
    monkeypatch.setitem(camp.VERIFIERS, "bks", forced)
    old = os.umask(umask)
    try:
        (tmp_path / "plain").write_text("")
        assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    finally:
        os.umask(old)
    want = (tmp_path / "plain").stat().st_mode & 0o777
    assert want == 0o666 & ~umask
    names = ["counterexamples.json", "manifest.json", "report.csv", "report.json"]
    assert sorted(os.listdir(tmp_path / "out")) == names
    for name in names:
        assert (tmp_path / "out" / name).stat().st_mode & 0o777 == want, name


def test_cli_mpnorm_alpha(capsys):
    code = main(["mpnorm", "--symbol", "alpha", "--p", "1", "--trials", "50", "--seed", "4"])
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert rec["upper"] == pytest.approx(4.0)
    assert rec["lower"] <= rec["upper"]
    assert rec["method"] == "decomposition"


def test_cli_mpnorm_beta(capsys):
    code = main(["mpnorm", "--symbol", "beta", "--p", "1", "--trials", "50", "--seed", "4"])
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert rec["upper"] == pytest.approx(2.0)


def test_cli_mpnorm_b0_fourier_route(capsys):
    code = main(
        ["mpnorm", "--symbol", "b0", "--theta", "0.5", "--p", "1", "--trials", "30",
         "--grid", "64", "--seed", "4"]
    )
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert rec["method"] == "fourier-dyadic"
    assert rec["lower"] <= rec["upper"]


def test_cli_mpnorm_fourier_needs_large_b(capsys):
    code = main(
        ["mpnorm", "--symbol", "b0", "--method", "fourier", "--p", "1", "--b", "1",
         "--trials", "5"]
    )
    assert code == 2


def test_cli_mpnorm_dyadic(capsys):
    code = main(
        ["mpnorm", "--symbol", "dyadic:1", "--f", "power:0.5", "--theta", "0.5",
         "--p", "1", "--trials", "30", "--grid", "64", "--seed", "4"]
    )
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert rec["lower"] <= rec["upper"]


DYADIC_B = ["mpnorm", "--symbol", "dyadic:2", "--f", "log1p", "--p", "1", "--grid", "8",
            "--trials", "5"]


@pytest.mark.parametrize(
    "b, upper",
    [(None, 27.43537918632762), ("2", 27.43537918632762), ("3", 26.182684340826135)],
    ids=["default", "b2", "b3"],
)
def test_cli_mpnorm_dyadic_b_sets_the_fourier_order(b, upper, capsys):
    # without --b the order is d(p) - 2 = 2 at p = 1
    code = main(DYADIC_B + ([] if b is None else ["--b", b]))
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert rec["upper"] == upper


@pytest.mark.parametrize(
    "b, message",
    [("1", "need b > 1/p (b=1, 1/p=1)"), ("7", "localized bound needs derivative order 7")],
    ids=["b1", "b7"],
)
def test_cli_mpnorm_dyadic_b_out_of_range_exit_2(b, message, capsys):
    assert main(DYADIC_B + ["--b", b]) == 2
    assert message in capsys.readouterr().err


DYADIC_K = ["mpnorm", "--f", "log1p", "--trials", "3", "--grid", "8", "--seed", "4"]


@pytest.mark.parametrize(
    "symbol, a, message",
    [
        ("b0", "inf", "bad lambda range (-inf, -inf)"),
        ("b1", "inf", "bad lambda range (-inf, -inf)"),
        ("b0", "1e-7", "bad mu range (1e-06, 4e-07)"),
        ("b1", "1e-7", "bad mu range (1e-06, 4e-07)"),
    ],
)
def test_cli_mpnorm_quadrant_a_outside_the_sampling_range_exit_2(symbol, a, message, capsys):
    # lambda is drawn from (-4a, -a) and mu from (1e-6, 4a)
    assert main(["mpnorm", "--symbol", symbol, "--a", a, "--trials", "3", "--seed", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}: need finite lo <= hi\n"


@pytest.mark.parametrize("k", ["41", "50", "-1023", "-2000"])
def test_cli_mpnorm_dyadic_k_outside_the_sampling_range_exit_2(k, capsys):
    assert main(DYADIC_K + ["--symbol", f"dyadic:{k}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"dyadic band index must lie in [-1022, 40], got {k}" in captured.err


@pytest.mark.parametrize(
    "spec, line",
    [
        (
            ["--symbol", "dyadic:40"],
            '{"lower": 0.999999999998976, "lower_le_upper": true, "method": '
            '"fourier-composite", "p": 1.0, "symbol": "dyadic:40", "upper": 120006.9296432273}',
        ),
        (
            ["--symbol", "dyadic:2", "--f", "sexpm1"],
            '{"lower": 1.285778339048125, "lower_le_upper": true, "method": '
            '"fourier-composite", "p": 1.0, "symbol": "dyadic:2", "upper": Infinity}',
        ),
    ],
    ids=["k40", "infinite-upper"],
)
def test_cli_mpnorm_dyadic_stdout_is_pinned(spec, line, capsys):
    assert main(DYADIC_K + spec) == 0
    captured = capsys.readouterr()
    assert captured.out == line + "\n" and captured.err == ""


def test_cli_mpnorm_nan_upper_bound_exit_2(capsys):
    # the derivatives of log1p dilated by 2^-500 underflow to 0 / 0
    assert main(DYADIC_K + ["--symbol", "dyadic:-500"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the upper bound of g_-500[log1p] is not finite (NaN): "
        "the derivatives of log1p dilated by 2^-500 leave the float range\n"
    )


@pytest.mark.parametrize("symbol", ["b0", "b1"])
@pytest.mark.parametrize(
    "b, reason", [("100", "is not finite (NaN)"), ("200", "lost terms to overflow")]
)
def test_cli_mpnorm_b0_bound_outside_the_float_range_exit_2(symbol, b, reason, capsys):
    # the partials of order b of the local model 1/(s + t) overflow to a NaN
    # bound at b = 100; at b = 200, (b + 1)! is itself beyond the float range
    argv = ["mpnorm", "--symbol", symbol, "--b", b, "--trials", "3", "--seed", "4"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the upper bound of b0 and b1 at b = {b} {reason}: "
        "its terms leave the float range\n"
    )


def test_cli_mpnorm_b0_bound_at_b_30_is_pinned(capsys):
    assert main(["mpnorm", "--symbol", "b0", "--b", "30", "--trials", "3", "--seed", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        '{"lower": 0.39176716489329444, "lower_le_upper": true, "method": "fourier-dyadic", '
        '"p": 1.0, "symbol": "b0", "upper": 1.3169180526771363e+89}\n'
    )


@pytest.mark.parametrize("method", ["auto", "empirical"])
def test_cli_mpnorm_singular_symbol_exit_2_without_warnings(method, capsys):
    # e^|x| of sexpm1 dilated by 2^-100 overflows on every draw; under the
    # suite's error::RuntimeWarning a warning would escape as an exception
    args = ["mpnorm", "--f", "sexpm1", "--trials", "3", "--grid", "8", "--seed", "4"]
    assert main(args + ["--symbol", "dyadic:-100", "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: symbol g_-100[sexpm1]: sampling kept hitting singular spectra\n"


def test_cli_mpnorm_upper_below_the_sampled_lower_exit_3(monkeypatch, capsys):
    lowers = []

    def lower(*args):
        got = real(*args)
        lowers.append(got.value)
        return got

    real = hl.doi.empirical_mp_lower
    monkeypatch.setattr(hl.doi, "empirical_mp_lower", lower)
    monkeypatch.setattr(hl.doi, "decomposition_bound", lambda terms, p: 0.5 * lowers[0])
    assert main(["mpnorm", "--symbol", "alpha", "--trials", "20", "--seed", "4"]) == 3
    captured = capsys.readouterr()
    rec = json.loads(captured.out)
    assert '"lower_le_upper": false' in captured.out and captured.err == ""
    assert rec["lower"] == lowers[0] > rec["upper"] == 0.5 * lowers[0] > 0.0


P2_SYMBOLS = {
    "alpha": ["--symbol", "alpha"],
    "b0": ["--symbol", "b0"],
    "dyadic": ["--symbol", "dyadic:2", "--f", "log1p"],
}


@pytest.mark.parametrize("symbol", P2_SYMBOLS)
def test_cli_mpnorm_auto_above_p_1_prints_the_empirical_bound(symbol, capsys):
    # every upper route needs p in (0, 1]: auto falls back to the lower bound
    argv = ["mpnorm", *P2_SYMBOLS[symbol], "--p", "2", "--trials", "20", "--seed", "4"]
    assert main(argv + ["--method", "empirical"]) == 0
    empirical = capsys.readouterr()
    assert main(argv) == 0
    auto = capsys.readouterr()
    assert auto == empirical and auto.err == ""
    rec = json.loads(auto.out)
    assert rec["upper"] is None and rec["method"] == "empirical" and rec["lower"] > 0.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--symbol", "alpha", "--p", "2", "--method", "decomposition"],
         "decomposition bound requires p in (0,1], got 2.0"),
        (["--symbol", "beta", "--p", "2", "--method", "decomposition"],
         "decomposition bound requires p in (0,1], got 2.0"),
        (["--symbol", "b0", "--p", "2", "--method", "fourier"],
         "b0 bound requires p in (0,1], got 2.0"),
        (P2_SYMBOLS["dyadic"] + ["--p", "2", "--method", "fourier"],
         "band bound requires p in (0,1], got 2.0"),
        (["--symbol", "dyadic:2", "--f", "rational:1", "--p", "2", "--method", "fourier"],
         "band bound requires p in (0,1], got 2.0"),
        (["--symbol", "alpha", "--method", "fourier"], "fourier route not applicable to alpha"),
        (["--symbol", "b0", "--method", "decomposition"],
         "no separable decomposition built in for b0"),
        (["--symbol", "b0", "--theta", "0.5", "--p", "1", "--grid", "30000"],
         "the quadrature grid needs 2 <= grid_n <= 1024, got 30000"),
        (P2_SYMBOLS["dyadic"] + ["--grid", "100000000"],
         "the quadrature grid needs 2 <= grid_n <= 1024, got 100000000"),
    ],
    ids=["alpha", "beta", "b0", "dyadic-homogeneous", "dyadic-dilated", "alpha-fourier",
         "b0-decomposition", "b0-grid", "dyadic-grid"],
)
def test_cli_mpnorm_refused_route_draws_nothing(argv, message, monkeypatch, capsys):
    monkeypatch.setattr(hl.doi, "empirical_mp_lower", lambda *a: pytest.fail("drew a trial"))
    assert main(["mpnorm", *argv, "--seed", "4"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--symbol", "b0", "--method", "empirical"],
        ["--symbol", "alpha"],
        P2_SYMBOLS["dyadic"] + ["--p", "2"],
    ],
    ids=["b0-empirical", "alpha-decomposition", "dyadic-p2-auto"],
)
def test_cli_mpnorm_grid_is_refused_only_where_a_fourier_route_reads_it(argv, capsys):
    assert main(["mpnorm", *argv, "--grid", "30000", "--trials", "5"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_seminorm(capsys):
    code = main(["seminorm", "--f", "power:0.5", "--theta", "0.5", "--d", "2", "--p", "1"])
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert rec["d_of_p"] == 4
    assert np.abs(np.array(rec["per_order"]) - [1.0, 0.5, 0.25]).max() <= 1e-12


def test_cli_seminorm_log_entry_is_finite(capsys):
    code = main(["seminorm", "--f", "log1p", "--theta", "0.5", "--d", "4"])
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    per_order = np.array(rec["per_order"])
    assert per_order.shape == (5,)
    assert np.all(np.isfinite(per_order)) and np.all(per_order > 0)


SEMINORM_GRID = "logspace[1e-08,1e+08]x2048/sign+zoom64x8"


# power:0.5 at its own degree 0.5 is exact; the grid read 1.0000000000000002
# and its neighbours there before report format 8
@pytest.mark.parametrize(
    "f, d, grid, per_order",
    [
        ("power:0.5", 2, "exact", [1.0, 0.5, 0.25]),
        ("power:0.5", 4, "exact", [1.0, 0.5, 0.25, 0.375, 0.9375]),
        ("log1p", 2, SEMINORM_GRID, [0.8047423425494119, 0.5, 0.3247595264191646]),
        ("log1p", 4, SEMINORM_GRID, [0.8047423425494119, 0.5, 0.3247595264191646,
                                     0.5176083281249514, 1.3293350093190748]),
    ],
    ids=["power-d2", "power-d4", "log1p-d2", "log1p-d4"],
)
def test_cli_seminorm_stdout_is_pinned(f, d, grid, per_order, capsys):
    assert main(["seminorm", "--f", f, "--theta", "0.5", "--d", str(d)]) == 0
    want = {"d": d, "edge": [], "function": f, "grid": grid, "per_order": per_order,
            "theta": 0.5, "value": max(per_order)}
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True) + "\n"


def test_cli_seminorm_names_its_edge_orders(capsys):
    assert main(["seminorm", "--f", "power:0.5", "--theta", "0.75", "--d", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["edge"] == [0, 1, 2]


def test_cli_seminorm_order_too_high(capsys):
    assert main(["seminorm", "--f", "power:0.5", "--theta", "0.5", "--d", "9"]) == 2


def test_cli_env_seed(monkeypatch, capsys):
    # read on every call: a change takes effect on the next in-process call
    for seed in ("777", "778"):
        monkeypatch.setenv("HOLDERLAB_SEED", seed)
        code = main(["verify", "--ineq", "bks", "--trials", "2"])
        rec = json.loads(capsys.readouterr().out.strip())
        assert code == 0
        assert rec["inputs_digest"].startswith(f"{seed}:")


def test_cli_parser_is_built_once(monkeypatch, capsys):
    argv = ["seminorm", "--f", "power:0.5", "--theta", "0.5", "--d", "2"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(argv) == 0
    assert built == []


@pytest.mark.parametrize(
    "key, value",
    [
        ("trials", 2.5),
        ("trials", "3"),
        ("trials", True),
        ("seed", 1.5),
        ("seed", -1),
        ("refine_steps", 0.5),
        ("dims", [2.0]),
        ("dims", [0]),
        ("dims", 4),
        ("thetas", 0.5),
        ("thetas", "0.5"),
        ("thetas", ["0.5"]),
        ("ps", 1.0),
        ("norms", "schatten:1"),
        ("function", 5),
        ("ensemble", "positive_pair"),
    ],
)
def test_config_rejects_bad_types(key, value):
    raw = {**small_config().to_dict(), key: value}
    with pytest.raises(ParameterError, match=key):
        CampaignConfig.from_dict(raw)


def test_cli_campaign_bad_types_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for key, value in (("trials", 2.5), ("thetas", 0.5)):
        cfg_path.write_text(json.dumps({**small_config().to_dict(), key: value}))
        assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err


def test_cli_campaign_cell_without_valid_trials_exit_2(tmp_path, capsys):
    cfg = {
        "verifier": "inverse",
        "function": "spower:0.5",
        "thetas": [0.5, 2.0],
        "ps": [1.0],
        "norms": ["schatten:1"],
        "dims": [4],
        "trials": 4,
        "seed": 1,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["campaign", str(cfg_path), "--out", str(out)]) == 2
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[1] == "0.5,1,schatten:1,4,4,0,0,0,none"  # the reports are still written
    err = capsys.readouterr().err
    assert "theta=0.5 p=1 norm=schatten:1 dim=4: all 4 trial(s) failed" in err
    assert "theta=2 " not in err


def test_cli_cells_whose_trials_all_fail_name_the_error_of_trial_0(tmp_path, capsys):
    # d_of_p(0.25) = 7 exceeds the 6 derivatives of the catalog functions
    args = ["verify", "--ineq", "main", "--f", "power:0.5", "--p", "0.25", "--trials", "5"]
    assert main(args) == 2
    cause = "trial 0: CapabilityError: power:0.5: seminorm order 7 exceeds max_order 6"
    assert capsys.readouterr().err == f"all 5 trial(s) failed; {cause}\n"
    cfg = {"verifier": "main", "function": "power:0.5", "thetas": [0.5], "ps": [0.25, 1.0],
           "norms": ["schatten:1"], "dims": [3], "trials": 4, "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"cell theta=0.5 p=0.25 norm=schatten:1 dim=3: all 4 trial(s) failed; {cause}\n"


ZERO_PAIR = {"name": "fixed_pair", "eigenvalues": [0, 0]}


def test_cli_verify_every_record_rhs_zero_exit_2(capsys):
    # A = B = 0: the one record has lhs = rhs = 0 and no ratio
    argv = ["verify", "--ineq", "main", "--f", "power:0.5", "--dim", "2", "--spectrum", "0,0"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "every record had rhs = 0 (1 record(s))\n"


def test_cli_campaign_every_record_rhs_zero_exit_2(tmp_path, capsys):
    cfg = {
        "verifier": "main",
        "function": "power:0.5",
        "thetas": [0.5],
        "ps": [1.0],
        "norms": ["schatten:1"],
        "dims": [2],
        "trials": 4,
        "seed": 18,
        "ensemble": ZERO_PAIR,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["campaign", str(cfg_path), "--out", str(out)]) == 2
    rows = (out / "report.csv").read_text().splitlines()
    assert rows[1] == "0.5,1,schatten:1,2,4,0,0,0,none"  # the reports are still written
    err = capsys.readouterr().err
    assert "theta=0.5 p=1 norm=schatten:1 dim=2: every record had rhs = 0 (4 record(s))" in err


OVERFLOW_ARGV = ["verify", "--ineq", "symmetric", "--f", "power:0.5", "--p", "400", "--dim",
                 "4", "--trials", "5", "--seed", "1", "--spectrum", "1e7,2e7,5e7,1e8"]


def test_cli_verify_overflowing_norms_name_the_nan_ratios(capsys, overflowing_norms):
    # with unscaled p-th powers, at p = 400 every one overflows to inf: each
    # ratio is inf / inf, and no numpy warning reaches stderr
    assert main(OVERFLOW_ARGV) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "every ratio is NaN, since lhs and rhs are not finite (5 record(s))\n"


def test_cli_verify_p_th_power_norms_do_not_overflow(capsys):
    # the norms scale each profile by its largest entry before the p-th power
    assert main(OVERFLOW_ARGV) == 0
    out = capsys.readouterr()
    record = json.loads(out.out)
    assert out.err == "" and 0.0 < record["ratio"] < 1.0 and not record["flagged"]


def test_reverse_kernel_dispatches_variants():
    _, stack, _ = sample_ensemble({"name": "gaussian_pair"}, 4, [SeedState(3)])
    x, y = stack[0]
    for variant in REVERSE_VARIANTS:
        kernel = getattr(hl.verify, VERIFIERS["reverse"].kernel)
        entry = hl.verify._check_reverse(None, 1.5, 1.0, KyFan(2), variant)
        outcomes = kernel(None, [entry], stack)
        rec = outcomes.record(0, 0, f"reverse:{variant}", "d")
        one = hl.verify._one(kernel, None, 1.5, 1.0, KyFan(2), (x, y), variant)
        assert rec == one.record(0, 0, f"reverse:{variant}", "d")
    cfg = small_config(verifier="reverse", thetas=(1.5,), trials=1)
    assert replay(cfg, 0, 0).name == "reverse:power"


# --- ensembles and variants are checked at load ------------------------------------

MAIN = {"verifier": "main", "function": "power:0.5"}
CONFIG_REJECTIONS = {
    "misspelled-name": ({**MAIN, "ensemble": {"name": "gausian_pair"}}, "gausian_pair"),
    "general-pair-for-main": ({**MAIN, "ensemble": {"name": "general_pair"}}, "general_pair"),
    "gaussian-pair-for-commutator": (
        {"verifier": "commutator", "function": "power:0.5", "ensemble": {"name": "gaussian_pair"}},
        "gaussian_pair",
    ),
    "unknown-key": (
        {"ensemble": {"name": "positive_pair", "spectrum_range": [0.0, 1.0], "rank": 2}},
        "rank",
    ),
    "missing-eigenvalues": ({"ensemble": {"name": "fixed_pair"}}, "eigenvalues"),
    "malformed-range": (
        {"ensemble": {"name": "positive_pair", "spectrum_range": [0.5]}},
        "positive_pair",
    ),
    "short-eigenvalues": (
        {"dims": [3], "ensemble": {"name": "fixed_pair", "eigenvalues": [0.0, 1.0]}},
        "eigenvalues",
    ),
    "unknown-variant": ({"verifier": "reverse", "thetas": [1.5], "variant": "cube"}, "cube"),
    # bks and alt need positive semidefinite inputs
    "negative-fixed-pair-for-bks": (
        {"dims": [3], "ensemble": {"name": "fixed_pair", "eigenvalues": [-1, 0, 2]}},
        "positive semidefinite",
    ),
    "negative-fixed-pair-for-alt": (
        {
            "verifier": "alt",
            "dims": [3],
            "ensemble": {"name": "fixed_pair", "eigenvalues": [0, -0.5, 2]},
        },
        "positive semidefinite",
    ),
}


@pytest.mark.parametrize("case", sorted(CONFIG_REJECTIONS))
def test_config_rejects_ensembles_and_variants(case, tmp_path, capsys):
    overrides, name = CONFIG_REJECTIONS[case]
    raw = {**small_config().to_dict(), **overrides}
    field = "variant" if "variant" in overrides else "ensemble"
    with pytest.raises(ParameterError, match=name) as err:
        CampaignConfig.from_dict(raw)
    assert field in str(err.value)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verifiers_draw_from_the_table():
    for name, entry in VERIFIERS.items():
        assert entry.ensembles and set(entry.ensembles) <= set(ENSEMBLES), name
    hermitian = {"gaussian_pair", "positive_pair", "commuting_pair", "fixed_pair"}
    for name in ("main", "submaj", "symmetric", "inverse", "reverse"):
        assert VERIFIERS[name].ensembles[0] == "gaussian_pair"
        assert set(VERIFIERS[name].ensembles) == hermitian
    assert VERIFIERS["absmap"].ensembles[0] == "general_pair"
    assert set(VERIFIERS["absmap"].ensembles) == hermitian | {"general_pair"}
    for name in ("bks", "alt"):  # they need positive inputs
        assert VERIFIERS[name].ensembles == ("positive_pair", "fixed_pair")
    assert VERIFIERS["commutator"].ensembles == ("hermitian_contraction",)
    assert VERIFIERS["quasicommutator"].ensembles == ("hermitian_pair_contraction",)
    assert VERIFIERS["telescope"].ensembles == ("rank_one_steps",)


def test_cli_campaign_infinite_magnitudes_range_exits_2(tmp_path, capsys):
    # an infinite end of the range passed the check 0 < lo <= hi, and the
    # draw ended in an OverflowError; a finite end as large as 1e308 runs
    raw = (
        '{"verifier": "telescope", "function": "log1p", "thetas": [0.5], "ps": [1.0], '
        '"norms": ["-"], "dims": [4], "trials": 3, "seed": 1, '
        '"ensemble": {"name": "rank_one_steps", "magnitudes_range": [0.01, %s]}}'
    )
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(raw % "1e999")
    assert main(["campaign", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bad magnitudes range (0.01, inf)" in err and "Traceback" not in err
    assert not out.exists()
    cfg_path.write_text(raw % "1e308")
    assert main(["campaign", str(cfg_path), "--out", str(out)]) == 0


# per ensemble, a valid config that draws from it
LOAD_CONFIGS = {
    "gaussian_pair": MAIN,
    "positive_pair": {"ensemble": {"spectrum_range": [0.5, 2.0]}},
    "general_pair": {"verifier": "absmap"},
    "commuting_pair": MAIN,
    "fixed_pair": {"dims": (3,), "ensemble": {"eigenvalues": [0.0, 1.0, 1.0]}},
    "hermitian_contraction": {"verifier": "commutator", "function": "power:0.5"},
    "hermitian_pair_contraction": {"verifier": "quasicommutator", "function": "power:0.5"},
    "rank_one_steps": {"verifier": "telescope", "function": "power:0.5"},
}


def test_config_checks_its_ensemble_at_load_without_a_draw(monkeypatch):
    # the load check draws nothing, from any stream; the trials draw from
    # their own streams (seed, 3, dim, t) only
    rngs, draws = [], []
    real_rng = SeedState.rng

    def rng(seed):
        rngs.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(SeedState, "rng", rng)
    assert set(LOAD_CONFIGS) == set(ENSEMBLES)
    for name, overrides in LOAD_CONFIGS.items():
        entry = ENSEMBLES[name]

        def spy(dim, seeds, ens, real=entry.draw):
            draws.append(seeds)
            return real(dim, seeds, ens)

        monkeypatch.setitem(ENSEMBLES, name, entry._replace(draw=spy))
        ens = {"name": name, **overrides.get("ensemble", {})}
        cfg = small_config(**{"dims": (3, 1, 3), **overrides, "ensemble": ens, "seed": 5})
        assert rngs == [] and draws == [], name
        run_campaign(dataclasses.replace(cfg, trials=2))
        paths = {seed.path for seeds in draws for seed in seeds}
        assert paths == {(3, dim, t) for dim in set(cfg.dims) for t in range(2)}, name
        assert {seed.path[0] for seed in rngs} == {3}, name
        rngs.clear()
        draws.clear()


def test_nameless_ensemble_is_the_verifier_default():
    for verifier, ens, name in (
        ("bks", {"spectrum_range": [0.0, 2.0]}, "positive_pair"),
        ("absmap", {}, "general_pair"),
    ):
        nameless, _ = run_campaign(small_config(verifier=verifier, trials=6, ensemble=ens))
        named, _ = run_campaign(
            small_config(verifier=verifier, trials=6, ensemble={"name": name, **ens})
        )
        assert nameless.to_csv() == named.to_csv()
        assert "none" not in nameless.to_csv()


def test_cli_verify_spectrum_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--ineq", "alt", "--spectrum", "1,x"])
    assert exc.value.code == 2
    assert "--spectrum" in capsys.readouterr().err
    # two eigenvalues do not make a pair of dim 6
    assert main(["verify", "--ineq", "alt", "--spectrum", "1,1"]) == 2
    assert "eigenvalues" in capsys.readouterr().err
    assert main(["verify", "--ineq", "reverse", "--theta", "1.5", "--variant", "cube"]) == 2
    assert "variant must be one of ('power', 'expm1'), got 'cube'" in capsys.readouterr().err


def test_cli_verify_unknown_verifier_exits_2_naming_the_known_ones(capsys):
    assert main(["verify", "--ineq", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown verifier 'nope'; known: {tuple(VERIFIERS)}\n"


def test_cli_verify_negative_spectrum_joined_with_equals(capsys):
    # argparse reads a separate "-1,0,1" as an option
    args = ["verify", "--ineq", "main", "--f", "power:0.5", "--dim", "3", "--spectrum=-1,0,1"]
    assert main(args) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["name"] == "main" and rec["inputs_digest"].endswith(":dim3")
    # bks needs positive semidefinite inputs: exit 2 at load, with the cause
    assert main(["verify", "--ineq", "bks", "--dim", "3", "--spectrum=-1,0,2"]) == 2
    err = capsys.readouterr().err
    assert "positive semidefinite" in err and "[-1.0, 0.0, 2.0]" in err
    assert "trial(s) failed" not in err


@pytest.mark.parametrize("verifier", ["bks", "alt"])
@pytest.mark.parametrize("name", ["gaussian_pair", "general_pair", "commuting_pair"])
def test_positive_verifiers_reject_other_pairs_at_load(verifier, name, tmp_path, capsys):
    raw = {**small_config(verifier=verifier).to_dict(), "ensemble": {"name": name}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert name in err and "('positive_pair', 'fixed_pair')" in err
    assert not (tmp_path / "out").exists()


# --- malformed numbers and degenerate sizes exit 2 ---------------------------------

BAD_NUMBERS = {
    "verify-norm": (["verify", "--ineq", "bks", "--norm", "kyfan:x"], "kyfan:x"),
    "verify-function": (["verify", "--ineq", "main", "--f", "power:x"], "'x'"),
    "mpnorm-dyadic": (["mpnorm", "--symbol", "dyadic:x", "--f", "power:0.5"], "'x'"),
    "mpnorm-grid-0": (["mpnorm", "--symbol", "b0", "--grid", "0", "--trials", "2"], "got 0"),
    "mpnorm-grid-1": (["mpnorm", "--symbol", "b0", "--grid", "1", "--trials", "2"], "got 1"),
    "mpnorm-grid-neg": (["mpnorm", "--symbol", "b0", "--grid", "-4", "--trials", "2"], "got -4"),
    # above doi.MAX_GRID the bound would take minutes (its work grows as grid^2)
    "mpnorm-grid-big": (
        ["mpnorm", "--symbol", "b0", "--theta", "0.5", "--p", "1", "--grid", "30000"],
        "grid_n <= 1024, got 30000",
    ),
    "mpnorm-dyadic-grid-big": (
        ["mpnorm", "--symbol", "dyadic:2", "--f", "log1p", "--grid", "100000000"],
        "grid_n <= 1024, got 100000000",
    ),
    "mpnorm-dim-0": (["mpnorm", "--symbol", "alpha", "--dim", "0"], "got 0"),
    "mpnorm-dim-neg": (["mpnorm", "--symbol", "alpha", "--dim", "-1"], "got -1"),
    # SeedState needs a seed >= 0
    "mpnorm-seed-neg": (
        ["mpnorm", "--symbol", "alpha", "--seed", "-5"], "seed must be >= 0, got -5\n"
    ),
    "verify-seed-neg": (["verify", "--ineq", "bks", "--seed", "-5"], "seed must be >= 0, got -5\n"),
    "verify-p-inf": (["verify", "--ineq", "main", "--f", "power:0.5", "--p", "inf"], "got inf"),
    "verify-p-nan": (["verify", "--ineq", "bks", "--p", "nan"], "got nan"),
    # r = inf makes f identically 0
    "seminorm-rational-inf": (
        ["seminorm", "--f", "rational:inf", "--theta", "0.5", "--d", "2"], "got inf"
    ),
    "verify-srational-inf": (
        ["verify", "--ineq", "inverse", "--f", "srational:inf", "--theta", "1.5"], "got inf"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_cli_malformed_numbers_exit_2(case, capsys):
    argv, text = BAD_NUMBERS[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and text in err


@pytest.mark.parametrize(
    "overrides, text",
    [
        ({"norms": ["kyfan:x"]}, "kyfan:x"),
        ({"norms": ["weak:x"]}, "weak:x"),
        ({"norms": ["power:schatten:1:x"]}, "power:schatten:1:x"),
        ({"verifier": "main", "function": "power:x"}, "'x'"),
        # p-th power norms mean nothing at p = inf or nan
        ({"ps": [1.0, float("inf")]}, "got inf"),
        ({"ps": [float("nan")]}, "got nan"),
        ({"thetas": [float("nan")]}, "got nan"),
        ({"ps": [0.0]}, "got 0.0"),
        ({"norms": ["power:schatten:1:inf"]}, "power exponent must be finite"),
        # only a verifier that takes no norm labels its rows "-"
        ({"norms": ["-"]}, "'-'"),
        ({"verifier": "main", "function": "rational:inf"}, "got inf"),
        ({"verifier": "inverse", "function": "srational:inf"}, "got inf"),
    ],
)
def test_cli_campaign_malformed_numbers_exit_2(overrides, text, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**small_config().to_dict(), **overrides}))
    assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert text in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verifier", sorted(VERIFIERS))
def test_cli_campaign_malformed_norm_exit_2_whatever_the_verifier(verifier, tmp_path, capsys):
    # a verifier that takes no norm still labels its rows with the spec
    raw = {**small_config().to_dict(), "verifier": verifier, "function": "spower:0.5",
           "norms": ["schatten:1", "kyfan:x"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "kyfan:x" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("3", "config must be a JSON object, got 3"),
        ("null", "config must be a JSON object, got None"),
        ('"abc"', "config must be a JSON object, got 'abc'"),
        ("[1, 2]", "config must be a JSON object, got [1, 2]"),
        (json.dumps({**small_config().to_dict(), "verifier": ["bks"]}), "verifier must be a string"),
    ],
)
def test_cli_campaign_config_must_be_an_object(text, message, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--ineq", "bks", "--trials", "2"],
        ["mpnorm", "--symbol", "alpha", "--trials", "2"],
        ["seminorm", "--f", "log1p", "--theta", "0.5", "--d", "2"],
        ["campaign", "missing.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_bad_env_seed_exits_2(argv, monkeypatch, capsys):
    # after a successful call has built the parser, the value is still checked
    monkeypatch.delenv("HOLDERLAB_SEED", raising=False)
    assert main(["seminorm", "--f", "log1p", "--theta", "0.5", "--d", "2"]) == 0
    capsys.readouterr()
    for value, message in (
        ("abc", "HOLDERLAB_SEED must be an integer, got 'abc'"),
        # SeedState needs a seed >= 0
        ("-5", "seed must be >= 0, got -5 (from HOLDERLAB_SEED)"),
    ):
        monkeypatch.setenv("HOLDERLAB_SEED", value)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
