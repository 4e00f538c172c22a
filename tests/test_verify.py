import dataclasses
import json
import warnings

import numpy as np
import pytest

import holderlab as hl
from holderlab import functions as F
from holderlab import verify as V
from holderlab.campaign import (
    CONSTANT_ONE_TOL,
    VERIFIERS,
    CampaignConfig,
    replay,
    run_campaign,
)
from holderlab.ensembles import SeedState, gaussian_hermitian, ginibre, rank_r_steps
from holderlab.errors import CapabilityError, DomainError, ParameterError
from holderlab.norms import KyFan, Schatten

from conftest import fixed_spectrum, hermitian_sv, one_record


def test_record_conventions():
    # inputs of norm 0 at dim 2: the flagging tolerance is 2e-12
    row = (np.ones(2, dtype=bool), None)
    outcomes = V.Outcomes.judged(row, [[0.0, 1.0]], [[0.0, 0.0]], np.zeros((2, 2, 2, 2)))
    rec = outcomes.record(0, 0, "x")
    assert rec.ratio == 0.0 and not rec.flagged
    rec2 = outcomes.record(0, 1, "x")
    assert rec2.ratio == 0.0 and rec2.flagged


def test_verify_main_trivial_and_powers_stormer_instance():
    f = F.power(0.5)
    a = gaussian_hermitian(4, np.random.default_rng(0))
    same = hl.verify_main(f, 0.5, 1.0, a, a)
    assert same.ratio == 0.0
    ps = hl.verify_main(f, 0.5, 2.0, np.diag([1.0, 0.0]), np.zeros((2, 2)))
    sem = F.seminorm(f, 4, 0.5).value
    assert ps.lhs == pytest.approx(1.0, abs=1e-14)
    assert ps.rhs == pytest.approx(sem, rel=1e-14)
    assert ps.ratio * sem == pytest.approx(1.0, rel=1e-12)


def test_verify_main_scale_invariance():
    f = F.power(0.5)
    rng = np.random.default_rng(1)
    a, b = gaussian_hermitian(5, rng), gaussian_hermitian(5, rng)
    r0 = hl.verify_main(f, 0.5, 1.0, a, b).ratio
    for r in (0.125, 8.0, 31.7):
        rr = hl.verify_main(f, 0.5, 1.0, r * a, r * b).ratio
        assert abs(rr - r0) <= 1e-10


def test_verify_main_capability_errors():
    with pytest.raises(CapabilityError):
        hl.verify_main(F.signed_expm1(), 0.5, 1.0, np.eye(2), np.zeros((2, 2)))


def _main_reference(f, theta, p, a, b):
    """verify_main as written before it became verify_symmetric on S_1."""
    am, bm = hl.as_hermitian(a), hl.as_hermitian(b)
    sem = F.seminorm(f, F.d_of_p(p), theta).value
    fa, fb = hl.apply_function(f, am), hl.apply_function(f, bm)
    lhs = hl.norm_of_profile(hermitian_sv(fa - fb), Schatten(p))
    rhs = sem * hl.norm_of_profile(hermitian_sv(am - bm) ** theta, Schatten(p))
    row = (np.ones(1, dtype=bool), None)
    outcomes = V.Outcomes.judged(row, [[lhs]], [[rhs]], np.stack([am, bm])[None])
    return outcomes.record(0, 0, "main")


def _bits(rec):
    return (rec.name, rec.lhs.hex(), rec.rhs.hex(), rec.ratio.hex(), rec.flagged, rec.inputs_digest)


@pytest.mark.parametrize("spec", ["power:0.5", "log1p", "spower:0.5"])
def test_verify_main_is_symmetric_on_trace_class(spec):
    f = F.parse_function_spec(spec)
    rng = np.random.default_rng(8)
    for dim in (1, 3, 8):
        x, y = gaussian_hermitian(dim, rng), gaussian_hermitian(dim, rng)
        for p in (0.5, 1.0, 2.0):
            for theta in (0.25, 0.5, 0.75):
                got = hl.verify_main(f, theta, p, x, y)
                assert _bits(got) == _bits(_main_reference(f, theta, p, x, y))


@pytest.mark.parametrize(
    "call",
    [
        lambda f, x, y: hl.verify_main(f, 0.5, 1.0, x, y),
        lambda f, x, y: one_record("submaj", f, 0.5, 1.0, None, x, y),
        lambda f, x, y: one_record("symmetric", f, 0.5, 1.0, KyFan(2), x, y),
        lambda f, x, y: one_record("inverse", f, 2.0, 1.0, Schatten(1), x, y),
        lambda f, x, y: hl.verify_commutator(f, 0.5, 1.0, Schatten(1), x, y),
        lambda f, x, y: one_record("quasicommutator", f, 0.5, 1.0, Schatten(1), x, y, np.eye(3)),
    ],
    ids=["main", "submaj", "symmetric", "inverse", "commutator", "quasicommutator"],
)
def test_seminorm_verifiers_refuse_infinite_seminorms(call):
    x, y = np.diag([0.5, -1.0, 2.0]), np.diag([1.0, 0.25, -0.5])
    with pytest.raises(CapabilityError, match="seminorm is infinite"):
        call(F.signed_expm1(), x, y)


def test_a_cell_check_comes_before_the_checks_of_the_inputs():
    # a cell that fails its check fails with that error, whatever the
    # inputs: a non-Hermitian input with an infinite seminorm, or one with a
    # seminorm of an order f lacks, raises the seminorm's CapabilityError,
    # and inputs of different shapes with theta out of range raise the
    # ParameterError of theta
    x, not_hermitian = np.diag([0.5, -1.0]), np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(CapabilityError, match="sexpm1: seminorm is infinite"):
        hl.verify_main(F.signed_expm1(), 0.5, 1.0, x, not_hermitian)
    with pytest.raises(CapabilityError, match="seminorm order 7 exceeds max_order 6"):
        one_record("symmetric", F.power(0.5), 0.5, 0.25, KyFan(2), not_hermitian, x)
    with pytest.raises(DomainError, match="not Hermitian"):
        hl.verify_main(F.power(0.5), 0.5, 1.0, x, not_hermitian)
    with pytest.raises(ParameterError, match="theta must lie in"):
        hl.verify_bks(1.5, Schatten(1), np.eye(2), np.eye(3))


def test_verify_bks_examples():
    rec = hl.verify_bks(0.5, Schatten(2), np.diag([1.0, 0.0]), np.zeros((2, 2)))
    assert rec.ratio == pytest.approx(1.0, abs=1e-14)
    x = np.diag([0.5, 1.5])
    assert hl.verify_bks(0.5, Schatten(1), x, x).ratio == 0.0
    with pytest.raises(DomainError):
        hl.verify_bks(0.5, Schatten(1), np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ParameterError):
        hl.verify_bks(0.5, Schatten(0.5), x, x)


def test_verify_bks_small_campaign():
    for i in range(200):
        rng = SeedState(2, (i,)).rng()
        x, _, _ = fixed_spectrum(rng.uniform(0, 1, 6), rng)
        y, _, _ = fixed_spectrum(rng.uniform(0, 1, 6), rng)
        for spec in (Schatten(1), Schatten(2), KyFan(3)):
            assert hl.verify_bks(0.75, spec, x, y).ratio <= 1.0 + 1e-10


def test_verify_submajorization():
    f = F.power(0.5)
    x = np.diag([1.0, 2.0, 0.3])
    rec = one_record("submaj", f, 0.5, 1.0, None, x, x)
    assert rec.holds_with_constant == 0.0
    # commuting positive diagonals: scalar Holder gives constant <= 1 once the
    # seminorm (exactly 1 for the matched power) is factored in
    y = np.diag([0.5, 1.1, 0.8])
    rec2 = one_record("submaj", f, 0.5, 1.0, None, x, y)
    assert rec2.holds_with_constant <= 1.0 + 1e-10
    assert rec2.ratio == pytest.approx(rec2.holds_with_constant)


def test_verify_submajorization_stable_across_dims():
    f = F.power(0.5)
    consts = []
    for dim in (4, 8, 12):
        worst = 0.0
        for i in range(50):
            rng = SeedState(3, (dim, i)).rng()
            x, y = gaussian_hermitian(dim, rng), gaussian_hermitian(dim, rng)
            rec = one_record("submaj", f, 0.5, 1.0, None, x, y)
            worst = max(worst, rec.holds_with_constant)
        consts.append(worst)
    assert all(np.isfinite(consts))
    assert max(consts) / min(consts) <= 3.0


def test_verify_symmetric_reductions():
    f = F.log1p_abs()
    rng = np.random.default_rng(4)
    x, y = gaussian_hermitian(5, rng), gaussian_hermitian(5, rng)
    for q in (0.5, 1.0, 2.0):
        a = one_record("symmetric", f, 0.5, q, KyFan(5), x, y)
        b = hl.verify_main(f, 0.5, q, x, y)
        assert a.lhs == pytest.approx(b.lhs, rel=1e-12)
        assert a.rhs == pytest.approx(b.rhs, rel=1e-12)
    op_case = one_record("symmetric", f, 0.5, 1.0, KyFan(1), x, y)
    want = hl.op_norm(hl.apply_function(f, x) - hl.apply_function(f, y))
    assert op_case.lhs == pytest.approx(want, rel=1e-10)


def test_verify_inverse_matches_reverse_power():
    theta = 2.0
    f = F.signed_power(1.0 / theta)  # seminorm exactly 1 at its own exponent
    rng = np.random.default_rng(5)
    x, y = gaussian_hermitian(4, rng), gaussian_hermitian(4, rng)
    inv = one_record("inverse", f, theta, 1.0, KyFan(4), x, y)
    rev = one_record("reverse", None, theta, 1.0, KyFan(4), x, y, variant="power")
    sem = F.seminorm(f, 4, 0.5).value
    assert inv.ratio == pytest.approx(sem**theta * rev.ratio, rel=1e-7)


def test_verify_inverse_trivial_and_even_branch():
    f = F.signed_power(0.5)
    x = np.diag([1.0, -2.0])
    rec = one_record("inverse", f, 2.0, 1.0, KyFan(2), x, x)
    assert rec.ratio == 0.0
    # |t|^0.5 turns at 0, within 1 of the spectra: it inverts on t >= 0,
    # where it is sgn(t)|t|^0.5
    a, b = np.diag([0.5, 2.0]), np.diag([1.0, 0.5])
    even = one_record("inverse", F.power(0.5), 2.0, 1.0, KyFan(2), a, b)
    assert _bits(even) == _bits(one_record("inverse", f, 2.0, 1.0, KyFan(2), a, b))


def test_reverse_power_scalar_cases():
    # 1x1: X = -Y = (1) gives ratio 2^{1-theta}
    for theta in (1.5, 2.0, 3.0):
        rec = one_record("reverse", None, theta, 1.0, KyFan(1), np.eye(1), -np.eye(1), variant="power")
        assert rec.ratio == pytest.approx(2.0 ** (1.0 - theta), rel=1e-12)
    same = one_record("reverse", None, 2.0, 1.0, KyFan(2), np.eye(2), np.eye(2), variant="power")
    assert same.ratio == 0.0 and not same.flagged
    # positive commuting scalars: |x^2 - y^2| >= |x - y|^2
    rng = np.random.default_rng(6)
    for _ in range(100):
        vals = rng.uniform(0, 3, 4)
        x, y = np.diag(vals[:2]), np.diag(vals[2:])
        rec = one_record("reverse", None, 2.0, 1.0, KyFan(2), x, y, variant="power")
        assert rec.ratio >= 1.0 - 1e-12


def test_verify_inverse_commuting_diagonal_scalar_oracle():
    # diagonal matrices in a shared basis reduce every side to scalar vectors
    theta = 2.0
    f = F.signed_power(1.0 / theta)
    rng = np.random.default_rng(50)
    xs = rng.uniform(-2, 2, 4)
    ys = rng.uniform(-2, 2, 4)
    rec = one_record("inverse", f, theta, 1.0, KyFan(4), np.diag(xs), np.diag(ys))
    sem = F.seminorm(f, 4, 0.5).value
    finv = lambda v: np.sign(v) * np.abs(v) ** theta
    want_lhs = sem**theta * np.sum(np.abs(finv(xs) - finv(ys)))
    want_rhs = np.sum(np.abs(xs - ys) ** theta)
    assert rec.lhs == pytest.approx(want_lhs, rel=1e-9)
    assert rec.rhs == pytest.approx(want_rhs, rel=1e-12)


def test_reverse_power_expm1_variant():
    rng = np.random.default_rng(7)
    x, y = gaussian_hermitian(4, rng), gaussian_hermitian(4, rng)
    rec = one_record("reverse", None, 1.5, 1.0, KyFan(4), x, y, variant="expm1")
    assert rec.ratio > 0.0 and np.isfinite(rec.ratio)


def test_verify_commutator():
    f = F.power(0.5)
    rng = np.random.default_rng(8)
    # commuting pair: lhs vanishes
    u = hl.haar_unitary(4, rng)
    x = (u * np.array([0.1, 0.7, 1.3, 2.0])) @ u.conj().T
    b = (u * np.array([1.0, 2.0, 3.0, 4.0])) @ u.conj().T
    rec = hl.verify_commutator(f, 0.5, 1.0, KyFan(4), x, b)
    assert rec.lhs <= 1e-10
    # scale covariance in B
    x2, b2 = gaussian_hermitian(4, rng), ginibre(4, rng)
    r1 = hl.verify_commutator(f, 0.5, 1.0, KyFan(4), x2, b2).ratio
    r2 = hl.verify_commutator(f, 0.5, 1.0, KyFan(4), x2, 5.5 * b2).ratio
    assert abs(r1 - r2) <= 1e-10


def test_cayley_identity_residual():
    f = F.power(0.5)
    for i in range(50):
        rng = SeedState(9, (i,)).rng()
        x = gaussian_hermitian(5, rng)
        b = gaussian_hermitian(5, rng)
        assert hl.cayley_identity_residual(f, x, b) <= 1e-10


def test_quasi_commutator_reductions():
    f = F.log1p_abs()
    rng = np.random.default_rng(10)
    a, b = gaussian_hermitian(4, rng), gaussian_hermitian(4, rng)
    ident = np.eye(4)
    quasi = one_record("quasicommutator", f, 0.5, 1.0, KyFan(4), a, b, ident)
    sym = one_record("symmetric", f, 0.5, 1.0, KyFan(4), a, b)
    assert quasi.lhs == pytest.approx(sym.lhs, rel=1e-12)
    assert quasi.rhs == pytest.approx(sym.rhs, rel=1e-12)
    r = ginibre(4, rng)
    quasi2 = one_record("quasicommutator", f, 0.5, 1.0, KyFan(4), a, a, r)
    comm = hl.verify_commutator(f, 0.5, 1.0, KyFan(4), a, r)
    assert quasi2.lhs == pytest.approx(comm.lhs, rel=1e-12)
    assert quasi2.rhs == pytest.approx(comm.rhs, rel=1e-12)


def test_verify_abs_map():
    rng = np.random.default_rng(12)
    a = ginibre(4, rng)
    same = one_record("absmap", None, None, 2.0, Schatten(1), a, a)
    assert same.lhs <= 1e-12
    opp = one_record("absmap", None, None, 2.0, Schatten(1), a, -a)
    assert opp.ratio == 0.0 and not opp.flagged
    for i in range(100):
        rng_i = SeedState(13, (i,)).rng()
        x, y = ginibre(5, rng_i), ginibre(5, rng_i)
        rec = one_record("absmap", None, None, 2.0, Schatten(1), x, y)
        assert rec.ratio <= 1.0 + 1e-8


def _telescope(f, p, b, xs, es):
    """The telescope record of the chain from B along the steps (x_k, e_k)."""
    return one_record("telescope", f, 0.5, p, None, b, *(x * e for x, e in zip(xs, es)))


def test_telescope():
    f = F.power(0.5)
    rng = np.random.default_rng(14)
    single = _telescope(f, 1.0, *rank_r_steps(5, 1, (0.1, 1.0), rng))
    assert single.ratio == pytest.approx(1.0, rel=1e-10)  # one step: equality

    two = _telescope(f, 1.0, *rank_r_steps(6, 2, (0.1, 1.0), rng))
    assert 0.0 < two.ratio <= 1.0 + 1e-10

    for i in range(100):
        rng_i = SeedState(15, (i,)).rng()
        res = _telescope(f, 1.0, *rank_r_steps(6, 4, (1e-2, 1.0), rng_i))
        assert res.ratio <= 1.0 + 1e-10


def test_telescope_rejects_bad_steps():
    # a step that is not Hermitian, or not of B's shape, fails the trial; a
    # p above 1 fails the cell.  The steps' orthogonality is the draw's to keep
    f, b, e = F.power(0.5), np.zeros((2, 2)), np.diag([1.0, 0.0])
    with pytest.raises(DomainError, match="^matrix is not Hermitian"):
        _telescope(f, 1.0, b, [1.0], [np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(hl.ShapeError, match="different shapes"):
        _telescope(f, 1.0, b, [1.0], [np.eye(3)])
    with pytest.raises(ParameterError, match=r"telescoping needs p in \(0,1\], got 2.0"):
        _telescope(f, 2.0, b, [1.0], [e])


def _mismatched_calls():
    """Every verifier, through its public function or verify._one, called on
    a 2x2 and a 3x3 input."""
    f, kyfan = F.power(0.5), KyFan(1)
    a, b = np.eye(2), np.eye(3)
    return {
        "main": lambda: hl.verify_main(f, 0.5, 1.0, a, b),
        "bks": lambda: hl.verify_bks(0.5, kyfan, a, b),
        "submajorization": lambda: one_record("submaj", f, 0.5, 1.0, None, a, b),
        "symmetric": lambda: one_record("symmetric", f, 0.5, 1.0, kyfan, a, b),
        "inverse": lambda: one_record("inverse", F.signed_power(0.5), 2.0, 1.0, kyfan, a, b),
        "reverse_power": lambda: one_record("reverse", None, 1.5, 1.0, kyfan, a, b, variant="power"),
        "commutator": lambda: hl.verify_commutator(f, 0.5, 1.0, kyfan, a, b),
        "quasi_commutator": lambda: one_record("quasicommutator", f, 0.5, 1.0, kyfan, a, a, b),
        "abs_map": lambda: one_record("absmap", None, None, 1.0, kyfan, a, b),
        "alt": lambda: one_record("alt", None, 0.5, 1.0, None, a, b),
        "telescope": lambda: one_record("telescope", f, 0.5, 1.0, None, a, np.diag(b[0])),
    }


@pytest.mark.parametrize("name", sorted(_mismatched_calls()))
def test_public_verifiers_reject_inputs_of_different_sizes(name):
    with pytest.raises(hl.ShapeError, match="different shapes"):
        _mismatched_calls()[name]()


def _fixed_pair_campaign(verifier, eigenvalues, variant="power", norms=("schatten:1",)):
    """A 3-trial dim-2 campaign of the verifier on a fixed_pair spectrum."""
    spec = VERIFIERS[verifier]
    return CampaignConfig(
        verifier=verifier,
        thetas=(2.0,) if verifier in ("inverse", "reverse") else (0.5,),
        ps=(0.5, 1.0, 2.0),
        norms=norms if spec.uses_norm else ("-",),
        dims=(2,),
        trials=3,
        seed=1,
        function=("spower:0.5" if verifier == "inverse" else "power:0.5")
        if spec.needs_function
        else None,
        ensemble={"name": "fixed_pair", "eigenvalues": list(eigenvalues)},
        variant=variant,
    )


def _run(config, action):
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        report, counterexamples = run_campaign(config)
    return report.to_json(), json.dumps(counterexamples, sort_keys=True)


FIXED_PAIR_CASES = [
    pytest.param(verifier, variant, eigenvalues, id=f"{verifier}-{variant}-{eigenvalues[0]:g}")
    for eigenvalues in ([1e200, 1e201], [-1e200, 1e201], [-1.7e308, 1.7e308], [1e300, 1.7e308],
                        [709.0, 709.7])
    for verifier, spec in VERIFIERS.items()
    if "fixed_pair" in spec.ensembles and not (spec.positive and min(eigenvalues) < 0)
    for variant in (("power", "expm1") if verifier == "reverse" else ("power",))
]


@pytest.mark.parametrize("verifier, variant, eigenvalues", FIXED_PAIR_CASES)
def test_verifiers_near_the_float_range_raise_no_runtime_warning(verifier, variant, eigenvalues):
    # p-th powers, |X - Y|^theta, sgn(M)|M|^theta, ZX and ||A+B|| ||A-B||
    # leave the float range at these spectra: each kernel silences that
    # where it happens, and the report is the one of a run that ignores it
    config = _fixed_pair_campaign(verifier, eigenvalues, variant)
    assert _run(config, "error") == _run(config, "ignore")


def test_cli_verify_near_the_float_range_prints_its_message_alone(capsys):
    from holderlab.cli import main

    argv = ["verify", "--ineq", "inverse", "--f", "spower:0.5", "--theta", "2",
            "--spectrum=1e200,1e201", "--dim", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("all 1 trial(s) failed")


FLOAT_RANGE = (
    "all 1 trial(s) failed; trial 0: DomainError: "
    "a matrix of the trial leaves the float range (not finite)\n"
)
EDGE_CALLS = {
    # X - Y leaves the float range
    "reverse": (["reverse", "--theta", "2", "--spectrum=-1.7e308,1.7e308"], 2, FLOAT_RANGE),
    "main": (["main", "--f", "power:0.5", "--spectrum=-1.7e308,1.7e308"], 2, FLOAT_RANGE),
    # (M + M*)/2 of a finite M = g(X) or |X| is taken as M/2 + M*/2; |X| -
    # |Y| and X + Y then leave the float range
    "reverse-expm1": (
        ["reverse", "--variant", "expm1", "--theta", "2", "--spectrum=709,709.7"], 0, ""
    ),
    "absmap": (["absmap", "--spectrum=1e300,1.7e308"], 2,
               "every ratio is NaN, since lhs and rhs are not finite (1 record(s))\n"),
    # || |X - Y|^3 || overflows to inf: the trial fails, where it read ratio 0
    "inverse": (
        ["inverse", "--f", "spower:0.5", "--theta", "3", "--spectrum=1e102,1.3e103"], 2,
        "all 1 trial(s) failed; trial 0: DomainError: "
        "a side of the trial leaves the float range (not finite)\n",
    ),
}


@pytest.mark.parametrize("call", sorted(EDGE_CALLS))
def test_cli_verify_at_the_edge_of_the_float_range_prints_its_message_alone(call, capsys):
    # each printed a numpy RuntimeWarning first (a traceback under -W
    # error::RuntimeWarning, which the test suite sets)
    from holderlab.cli import main

    argv, code, err = EDGE_CALLS[call]
    assert main(["verify", "--ineq", *argv, "--dim", "2"]) == code
    out = capsys.readouterr()
    assert out.err == err
    if code == 0:
        record = json.loads(out.out)
        assert record["ratio"] == np.inf and 0.0 < record["rhs"] <= record["lhs"] < np.inf


def test_an_inverse_side_outside_the_float_range_fails_its_trial():
    # the campaign's statistics hold only the trials whose sides are finite,
    # where each overflowed rhs used to count as ratio 0
    config = dataclasses.replace(
        _fixed_pair_campaign("inverse", [1e102, 1.3e103]), thetas=(3.0,), ps=(1.0,), trials=5
    )
    report, _ = run_campaign(config)
    (cell,) = report.cells
    assert 0 < cell.failures < cell.trials
    assert 1e-98 < cell.min_ratio <= cell.q50 <= cell.max_ratio < 1e-97


def test_a_matrix_outside_the_float_range_fails_its_trial_as_a_domain_error(capsys):
    # a finite X whose eigenvalue 2e308 is not, and f^{-1}(M) = sgn(M)|M|^2 of
    # spower:0.5 on the spectrum [1e200, 1e201]: the trial fails with a
    # DomainError that names the float range, not as LAPACK's failure; the
    # second in every cell of the campaign's stacks, in replay and on the CLI
    from holderlab import campaign
    from holderlab.cli import main

    x, spec = np.full((2, 2), 1e308), Schatten(1)
    for kernel, f, theta, variant in (("reverse", None, 2.0, "power"),
                                      ("main", F.power(0.5), 0.5, None)):
        with pytest.raises(DomainError) as overflowed:
            one_record(kernel, f, theta, 1.0, spec, x, np.zeros((2, 2)), variant=variant)
        assert str(overflowed.value) == "a matrix of the trial leaves the float range (not finite)"
    config = _fixed_pair_campaign("inverse", [1e200, 1e201])
    f = F.parse_function_spec(config.function)
    entries = campaign._entries(config, f, campaign._kernel_cells(config))
    for trials, _, _, outcomes in campaign._stacks(config, 2, entries, f):
        for idx in np.ndindex(outcomes.ok.shape):
            assert not outcomes.ok[idx]
            assert type(outcomes.error(idx)) is DomainError
    message = "spower:0.5 has no finite inverse within rounding of 1e+200"
    with pytest.raises(DomainError) as replayed:
        campaign.replay(config, 0, 0)
    assert str(replayed.value) == message
    argv = ["verify", "--ineq", "inverse", "--f", "spower:0.5", "--theta", "2",
            "--spectrum=1e200,1e201", "--dim", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"all 1 trial(s) failed; trial 0: DomainError: {message}\n"


@pytest.mark.parametrize(
    "f, theta", [("spower:0.5", "400"), ("log1p", "1000"), ("linear", "1e308")]
)
def test_an_inverse_factor_outside_the_float_range_fails_its_cell(f, theta, capsys):
    # seminorm^theta leaves the float range: the cell fails, where the call
    # ended in an OverflowError
    from holderlab.cli import main

    assert main(["verify", "--ineq", "inverse", "--f", f, "--theta", theta]) == 2
    assert capsys.readouterr().err == (
        f"all 1 trial(s) failed; trial 0: CapabilityError: the seminorm of {f} to the "
        f"power theta = {float(theta)} leaves the float range\n"
    )


def test_an_inverse_campaign_keeps_its_cells_beside_an_overflowing_factor():
    # the theta = 2 cell of a campaign with theta 400 beside it has the bits
    # of a theta = 2 campaign, and the theta = 400 cell fails every trial
    config = CampaignConfig(
        verifier="inverse", function="spower:0.5", thetas=(2.0, 400.0), ps=(1.0,),
        norms=("schatten:1",), dims=(4,), trials=5, seed=3,
    )
    cells = run_campaign(config)[0].cells
    alone = run_campaign(dataclasses.replace(config, thetas=(2.0,)))[0].cells
    assert vars(cells[0]) == vars(alone[0])
    assert cells[1].failures == cells[1].trials == 5


def test_reverse_at_theta_near_the_float_range_warns_nothing(capsys):
    # |e| theta overflowed in the choice of each trial's scale
    from holderlab.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["verify", "--ineq", "reverse", "--theta", "1e308"]) == 2
    assert capsys.readouterr().err == "every record had rhs = 0 (1 record(s))\n"


def test_telescope_sides_at_tiny_p_are_sums_of_powers():
    # at p = 1e-5 the p-norm of a profile leaves the float range, and its
    # p-th power read inf on both sides; on diagonal matrices every profile
    # is exact, so each side is the sum of the p-th powers of the steps of f
    p, f = 1e-5, F.parse_function_spec("log1p")
    b, xs = np.array([0.5, 1.0, 2.0, 3.0]), [0.25, 1.5, 4.0]
    es = [np.diag(np.eye(4)[k]) for k in range(3)]
    rec = _telescope(f, p, np.diag(b), xs, es)
    powers = [abs(np.log1p(b[k] + xs[k]) - np.log1p(b[k])) ** p for k in range(3)]
    assert rec.lhs == pytest.approx(sum(powers), rel=1e-14)
    assert rec.rhs == pytest.approx(sum(powers), rel=1e-14)
    assert np.isfinite(rec.ratio) and rec.ratio <= 1.0 + CONSTANT_ONE_TOL


# every verifier (reverse under both variants), with a function where it
# needs one, at theta at the ends of every check's range and beyond 1
EXTREME_CALLS = [
    [ineq, *(["--f", f] if f else []), *(["--variant", variant] if variant else [])]
    for ineq, f, variant in [
        ("main", "gauss", None), ("bks", None, None), ("submaj", "gauss", None),
        ("symmetric", "gauss", None), ("inverse", "spower:0.5", None),
        ("reverse", None, "power"), ("reverse", None, "expm1"),
        ("commutator", "gauss", None), ("quasicommutator", "gauss", None),
        ("absmap", None, None), ("alt", None, None), ("telescope", "gauss", None),
    ]
]
EXTREME_THETAS = ["5e-324", "0.5", repr(1.0 - 2.0**-53), "1", repr(1.0 + 2.0**-52), "400",
                  "1e308"]
EXTREME_PS = ["1e-300", "1e-5", "1", "1e300"]


@pytest.mark.parametrize("argv", EXTREME_CALLS, ids=lambda argv: "-".join(argv[::2]))
def test_every_verifier_at_extreme_theta_and_p_exits_with_a_code(argv, capsys):
    # exit 0, 2 or 3, with no exception and no RuntimeWarning; reverse and
    # absmap read NaN ratios at tiny p, where their quasi-norms overflow
    from holderlab.cli import main

    assert set(VERIFIERS) == {call[0] for call in EXTREME_CALLS}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for theta in EXTREME_THETAS:
            for p in EXTREME_PS:
                call = ["verify", "--ineq", *argv, "--theta", theta, "--p", p]
                assert main([*call, "--dim", "4", "--trials", "2"]) in (0, 2, 3), call
    capsys.readouterr()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("theta", [1.5, 2.0, 5.0])
@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e160, 1e-160, 1e200, 1e-200])
def test_reverse_power_ratios_do_not_depend_on_the_scale(scale, theta):
    # sgn(M)|M|^theta and |X - Y|^theta left the float range (DomainError) or
    # underflowed to 0 (rhs = 0) here; each pair scaled by a power of two
    # first, the ratios are those at unit scale within 64 ulps
    want = dataclasses.replace(_fixed_pair_campaign("reverse", [1.0, 10.0]), thetas=(theta,))
    config = dataclasses.replace(want, ensemble={"name": "fixed_pair",
                                                 "eigenvalues": [scale, 10.0 * scale]})
    for a, b in zip(run_campaign(want)[0].cells, run_campaign(config)[0].cells):
        assert b.failures == 0 and a.min_ratio > 0.0
        for key in ("max_ratio", "min_ratio", "q50", "q99"):
            assert getattr(b, key) == pytest.approx(getattr(a, key), rel=64 * np.finfo(float).eps, abs=0.0)


@pytest.mark.parametrize("scale", [1e100, 1e-100, 1e200, 1e-200, 1e300, 1e-300])
def test_bks_ratios_do_not_depend_on_the_scale(scale):
    # X^theta - Y^theta and |X - Y|^theta are homogeneous of degree theta in
    # (X, Y): the ratios on the spectra [0, scale] are those on [0, 1] within
    # 64 ulps, the spectra themselves being scaled up to rounding
    norms = ("schatten:1", "schatten:2", "schatten:3", "schatten:inf", "kyfan:2")
    want = CampaignConfig(verifier="bks", thetas=(0.25, 0.5, 0.75), ps=(1.0,), norms=norms,
                          dims=(2, 4, 8, 16), trials=50, seed=7,
                          ensemble={"name": "positive_pair", "spectrum_range": [0.0, 1.0]})
    config = dataclasses.replace(want, ensemble={"name": "positive_pair",
                                                 "spectrum_range": [0.0, scale]})
    report, counterexamples = run_campaign(config)
    assert counterexamples == []
    for a, b in zip(run_campaign(want)[0].cells, report.cells):
        assert b.failures == 0 and a.min_ratio > 0.0
        for key in ("max_ratio", "min_ratio", "q50"):
            assert getattr(b, key) == pytest.approx(getattr(a, key), rel=64 * np.finfo(float).eps, abs=0.0)


@pytest.mark.parametrize("scale", [1e100, 1e160, 1e-160, 1e-170, 1e200, 1e-200])
def test_absmap_ratios_do_not_depend_on_the_scale(scale):
    # ||A+B|| ||A-B|| leaves the float range beyond about 1e154 and below
    # about 1e-154; its square root, taken per factor there, does not
    norms = ("schatten:1", "schatten:2", "kyfan:2", "schatten:inf")
    want = run_campaign(_fixed_pair_campaign("absmap", [1.0, 10.0], norms=norms))[0]
    got = run_campaign(_fixed_pair_campaign("absmap", [scale, 10.0 * scale], norms=norms))[0]
    for a, b in zip(want.cells, got.cells):
        assert b.failures == 0 and a.max_ratio > 0.0
        for key in ("max_ratio", "min_ratio", "q50", "q99"):
            assert getattr(b, key) == pytest.approx(getattr(a, key), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e200, 1e-200])
def test_alt_margins_do_not_depend_on_the_scale(scale):
    # ZX overflows beyond about 1e154 and underflows to 0 below about
    # 1e-154, where every trial read as a counterexample; each input scaled
    # by a power of two first, the margins are those at unit scale
    want = _fixed_pair_campaign("alt", [1.0, 10.0])
    config = _fixed_pair_campaign("alt", [scale, 10.0 * scale])
    report, counterexamples = run_campaign(config)
    assert counterexamples == []
    for a, b in zip(run_campaign(want)[0].cells, report.cells):
        assert b.failures == 0
        for key in ("max_ratio", "min_ratio", "q50", "q99"):
            assert getattr(b, key) == getattr(a, key) == 0.0
    for cell in range(len(report.cells)):
        for trial in range(config.trials):
            got, unit = (replay(c, cell, trial) for c in (config, want))
            assert not got.flagged and unit.holds_with_constant > 0.0
            assert got.holds_with_constant == pytest.approx(unit.holds_with_constant, rel=1e-12)
