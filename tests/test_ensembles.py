import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holderlab as hl
from holderlab import ensembles as E
from holderlab.errors import ParameterError
from holderlab.spectral import from_eigen

from conftest import fixed_spectrum

# one config per entry of the table; fixed_pair's spectrum needs the dim
ENSEMBLE_CONFIGS = {
    "gaussian_pair": lambda dim: {},
    "positive_pair": lambda dim: {"spectrum_range": [0.5, 2.0]},
    "general_pair": lambda dim: {},
    "commuting_pair": lambda dim: {},
    "fixed_pair": lambda dim: {"eigenvalues": [float(k // 2) for k in range(dim)]},
    "hermitian_contraction": lambda dim: {},
    "hermitian_pair_contraction": lambda dim: {},
    "rank_one_steps": lambda dim: {"rank": 1, "magnitudes_range": [0.1, 0.5]},
}


# the draws that build their inputs from a spectrum and a basis
SPECTRAL = ("positive_pair", "fixed_pair", "commuting_pair")


def sample(name, dim, seeds, ens=None):
    """The kinds, stack and decomposition that the entry draws for ``seeds``."""
    ens = ENSEMBLE_CONFIGS[name](dim) if ens is None else ens
    return E.sample_ensemble({"name": name, **ens}, dim, seeds)


def draw(name, dim, seed, ens=None):
    """The tagged inputs that the entry draws for one seed."""
    kinds, stack, _ = sample(name, dim, [seed], ens)
    return list(zip(kinds, stack[0]))


def _same(a, b):
    """Tagged inputs equal bit for bit."""
    assert [k for k, _ in a] == [k for k, _ in b]
    for (_, x), (_, y) in zip(a, b):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_the_table_names_every_ensemble_once():
    assert set(E.ENSEMBLES) == set(ENSEMBLE_CONFIGS)


def test_determinism():
    for name in E.ENSEMBLES:
        a = draw(name, 4, E.SeedState(42, (3, 7)))
        b = draw(name, 4, E.SeedState(42, (3, 7)))
        _same(a, b)


def test_distinct_paths_differ():
    for name in E.ENSEMBLES:
        (_, a), *_ = draw(name, 4, E.SeedState(42, (0,)))
        (_, b), *_ = draw(name, 4, E.SeedState(42, (1,)))
        assert not np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(ENSEMBLE_CONFIGS))
def test_draws_read_only_their_keys(name):
    class Recording(dict):
        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    read = set()
    E.sample_ensemble(Recording(name=name, **ENSEMBLE_CONFIGS[name](3)), 3, [E.SeedState(1)])
    assert read == set(E.ENSEMBLES[name].keys)


@pytest.mark.parametrize("name", sorted(ENSEMBLE_CONFIGS))
def test_a_stack_of_seeds_draws_what_each_seed_draws(name):
    seeds = [E.SeedState(17, (0, 1, t)) for t in range(4)]
    kinds, stack, dec = sample(name, 3, seeds)
    # every entry draws the stack as one complex array
    assert isinstance(stack, np.ndarray) and stack.dtype == np.complex128
    assert stack.shape == (len(seeds), len(kinds), 3, 3)
    for seed, inputs in zip(seeds, stack):
        _same(list(zip(kinds, inputs)), draw(name, 3, seed))
    # the spectral draws return the decomposition they built the stack from:
    # ascending spectra and unitary bases, the stack being their product
    if name not in SPECTRAL:
        assert dec is None
        return
    assert dec.eigenvalues.shape == stack.shape[:-1] and dec.basis.shape == stack.shape
    assert np.all(np.diff(dec.eigenvalues, axis=-1) >= 0.0)
    assert np.array_equal(from_eigen(dec.basis, dec.eigenvalues), stack)
    gram = dec.basis.conj().swapaxes(-1, -2) @ dec.basis
    assert np.abs(gram - np.eye(3)).max() < 1e-14


def test_gaussian_hermitian_is_hermitian():
    for _, m in draw("gaussian_pair", 6, E.SeedState(1)):
        assert np.abs(m - m.conj().T).max() == 0.0


def test_commuting_pair():
    (_, a), (_, b) = draw("commuting_pair", 5, E.SeedState(2))
    assert hl.op_norm(a @ b - b @ a) <= 1e-12


def test_contraction_norm_one():
    for name in ("hermitian_contraction", "hermitian_pair_contraction"):
        (kind, r) = draw(name, 5, E.SeedState(3))[-1]
        assert kind == "contraction"
        assert hl.op_norm(r) == pytest.approx(1.0, abs=1e-12)


def test_haar_trace_statistics():
    # mean of tr(U) over Haar is 0; per-sample variance of Re tr is 1/2 for
    # dim >= 2, so the sample mean over N draws has sigma = 1/sqrt(2N)
    n_samples = 10_000
    seed = E.SeedState(4)
    traces = np.empty(n_samples, dtype=complex)
    for i in range(n_samples):
        traces[i] = np.trace(E.haar_unitary(4, seed.child(i).rng()))
    sigma = 1.0 / np.sqrt(2.0 * n_samples)
    assert abs(traces.real.mean()) <= 3.0 * sigma
    assert abs(traces.imag.mean()) <= 3.0 * sigma


def test_haar_invariance_of_singular_values():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    sv = hl.singular_values(v)
    for i in range(10):
        u = E.haar_unitary(5, E.SeedState(6, (i,)).rng())
        assert np.abs(hl.singular_values(u @ v) - sv).max() <= 1e-10


def test_rank_r_difference_profile():
    for i in range(10):
        rng = E.SeedState(7, (i,)).rng()
        b, xs, es = E.rank_r_steps(6, 3, (1e-2, 1.0), rng)
        a = b + sum(x * e for x, e in zip(xs, es))
        prof = hl.singular_values(a - b)
        want = np.sort(np.abs(xs))[::-1]
        assert np.abs(prof[:3] - want).max() <= 1e-12
        assert np.abs(prof[3:]).max() <= 1e-12


@pytest.mark.parametrize("dim, rank", [(1, 1), (3, 3), (8, 2)])
def test_rank_one_steps_are_orthogonal_rank_one_projections(dim, rank):
    lo, hi = 0.05, 0.8
    for i in range(5):
        ens = {"rank": rank, "magnitudes_range": [lo, hi]}
        _, *steps = draw("rank_one_steps", dim, E.SeedState(9, (i,)), ens)
        assert len(steps) == rank
        projections = []
        for kind, step in steps:
            assert kind == "step"
            # step = x e with e a rank-one projection, so trace(step) = x
            x = np.trace(step).real
            assert lo - 1e-12 <= abs(x) <= hi + 1e-12
            e = step / x
            assert np.abs(e - e.conj().T).max() <= 1e-12
            assert np.abs(e @ e - e).max() <= 1e-12
            assert np.linalg.matrix_rank(e, tol=1e-12) == 1
            projections.append(e)
        for j, e in enumerate(projections):
            for f in projections[:j]:
                assert np.abs(e @ f).max() <= 1e-12


def test_degenerate_spectrum_multiplicities():
    ens = {"eigenvalues": [-0.5, -0.5, -0.5, 1.5, 1.5]}
    for kind, m in draw("fixed_pair", 5, E.SeedState(8), ens):
        assert kind == "herm"
        gaps = np.diff(np.linalg.eigvalsh(m))
        assert np.sum(gaps > 1e-8) == 1  # exactly two distinct levels


def test_parameter_validation():
    with pytest.raises(ParameterError):
        E.rank_r_steps(3, 5, (1e-2, 1.0), E.SeedState(0).rng())
    with pytest.raises(ParameterError):
        E.rank_r_steps(3, 2, (0.0, 1.0), E.SeedState(0).rng())
    for dim, spectrum_range in ((4, (1.0, 0.5)), (0, (0.0, 1.0)), (4, (0.0, np.inf))):
        with pytest.raises(ParameterError):
            draw("positive_pair", dim, E.SeedState(0), {"spectrum_range": spectrum_range})
    with pytest.raises(ParameterError):
        draw("commuting_pair", 0, E.SeedState(0))
    for rank in (3, 0, 1.5, True, "1"):
        with pytest.raises(ParameterError, match="rank"):
            draw("rank_one_steps", 2, E.SeedState(0), {"rank": rank})
    bad = (None, [0.0, 1.0], [0.0, 1.0, 2.0, 3.0], "012", [0.0, "1", 2.0], [0, 1, True],
           [0.0, np.inf, 1.0], [0.0, np.nan, 1.0])
    for eigenvalues in bad:
        with pytest.raises(ParameterError, match="eigenvalues"):
            draw("fixed_pair", 3, E.SeedState(0), {"eigenvalues": eigenvalues})


# --- the samplers the table replaced, copied as references ------------------------


def _old_positive_pair(dim, spectrum_range, seed):
    """sample(PositivePair(dim, spectrum_range), seed): a stack of one."""
    lo, hi = spectrum_range
    lam = np.empty((1, 2, dim))
    z = np.empty((1, 2, 2, dim, dim))
    rng = seed.rng()
    for j in range(2):
        lam[0, j] = rng.uniform(lo, hi, dim)
        rng.standard_normal(out=z[0, j])
    lam.sort(axis=-1)
    x, y = from_eigen(E._unitary_from_ginibre(E._complex_gaussian(z)), lam)[0]
    return x, y


def _old_pair(dim, seed, ens):
    name = ens.get("name", "gaussian_pair")
    if name == "gaussian_pair":
        rng = seed.rng()
        return [("herm", E.gaussian_hermitian(dim, rng)), ("herm", E.gaussian_hermitian(dim, rng))]
    if name == "positive_pair":
        lo, hi = ens.get("spectrum_range", [0.0, 1.0])
        x, y = _old_positive_pair(dim, (lo, hi), seed)
        return [("pos", x), ("pos", y)]
    if name == "general_pair":
        rng = seed.rng()
        return [("general", E.ginibre(dim, rng)), ("general", E.ginibre(dim, rng))]
    if name == "commuting_pair":
        rng = seed.rng()
        u = E.haar_unitary(dim, rng)
        la = np.sort(rng.standard_normal(dim))
        lb = np.sort(rng.standard_normal(dim))
        return [("herm", from_eigen(u, la)), ("herm", from_eigen(u, lb))]
    eigenvalues = ens["eigenvalues"]
    kind = "pos" if min(eigenvalues) >= 0 else "herm"
    rng = seed.rng()
    x, _, _ = fixed_spectrum(eigenvalues, rng)
    y, _, _ = fixed_spectrum(eigenvalues, rng)
    return [(kind, x), (kind, y)]


def _old_with_contraction(count):
    def sample(dim, seed, ens):
        rng = seed.rng()
        herms = [("herm", E.gaussian_hermitian(dim, rng)) for _ in range(count)]
        g = E.ginibre(dim, seed.child(1).rng())
        return herms + [("contraction", g / hl.op_norm(g))]

    return sample


def _old_telescope_inputs(dim, seed, ens):
    r = int(ens.get("rank", min(dim, 3)))
    lo, hi = ens.get("magnitudes_range", [1e-2, 1.0])
    b, xs, es = E.rank_r_steps(dim, r, (lo, hi), seed.rng())
    return [("herm", b)] + [("step", x * hl.as_hermitian(e)) for x, e in zip(xs, es)]


OLD_SAMPLERS = {
    "hermitian_contraction": _old_with_contraction(1),
    "hermitian_pair_contraction": _old_with_contraction(2),
    "rank_one_steps": _old_telescope_inputs,
}


@pytest.mark.parametrize("dim", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(ENSEMBLE_CONFIGS))
def test_entries_draw_what_the_old_samplers_drew(name, dim):
    configs = [ENSEMBLE_CONFIGS[name](dim)]
    if name in ("positive_pair", "rank_one_steps"):
        configs.append({})  # the defaults
    if name == "fixed_pair":
        configs.append({"eigenvalues": [0.25 * k for k in range(dim)]})  # a positive pair
    old = OLD_SAMPLERS.get(name, _old_pair)
    for ens in configs:
        for path in [(0, 2, 5), (1,), (2,)]:
            seed = E.SeedState(31, path)
            _same(draw(name, dim, seed, ens), old(dim, seed, {"name": name, **ens}))


@pytest.mark.parametrize("count", [1, 32, 33])
@pytest.mark.parametrize("dim", [1, 2, 8, 33])
@pytest.mark.parametrize("name", ["gaussian_pair", "general_pair"])
def test_gaussian_pair_stacks_are_the_per_seed_draws(name, dim, count):
    # one array for the stack, each seed's slice the draws of its own generator
    seeds = [E.SeedState(17, (0, 3, t)) for t in range(count)]
    kinds, stack, _ = sample(name, dim, seeds, {})
    assert stack.shape == (count, 2, dim, dim) and stack.dtype == np.complex128
    for seed, pair in zip(seeds, stack):
        old = _old_pair(dim, seed, {"name": name})
        assert kinds == tuple(k for k, _ in old)
        for m, (_, ref) in zip(pair, old):
            assert m.tobytes() == ref.tobytes()


def test_ginibre_pair_sampler_rejects_empty_dims():
    with pytest.raises(ParameterError, match="dimension"):
        E.sample_ginibre_pairs(0, [E.SeedState(1)])


# --- the per-trial generator ---------------------------------------------------


def _reference(root, path):
    return np.random.default_rng(np.random.SeedSequence(entropy=root, spawn_key=path))


def _draws(rng):
    """What a generator gives through every method the draws call."""
    u, z = np.empty(3), np.empty((2, 3))
    rng.random(out=u)
    rng.standard_normal(out=z)
    return [
        u,
        z,
        rng.uniform(-1.0, 2.0, 3),
        rng.choice([-1.0, 1.0], size=4),
        rng.integers(0, 2**40, size=3),
        np.array([rng.integers(7)]),
    ]


def _same_stream(root, path):
    mine, ref = E.SeedState(root, path).rng(), _reference(root, path)
    assert isinstance(mine, np.random.Generator)
    assert isinstance(mine.bit_generator, np.random.PCG64)
    for x, y in zip(_draws(mine), _draws(ref)):
        assert x.dtype == y.dtype and np.array_equal(x, y), (root, path)
    assert mine.bit_generator.state == ref.bit_generator.state, (root, path)


ROOTS = [0, 2**32 - 1, 2**32, 2**128 + 1, 2**200 + 3, True]
TRIALS = [0, 1, 2, 9999, 10**4, 2**32 - 1, 2**32, 2**32 + 5, 2**64 + 1]


@pytest.mark.parametrize("root", ROOTS, ids=str)
def test_rng_is_numpys_generator_of_the_seed_sequence(root):
    paths = [(), (0,), (2**32,)]
    paths += [(3, n, t) for n in range(1, 129) for t in TRIALS]
    paths += [(t, attempt) for t in (0, 5, 2**33) for attempt in range(3)]  # mpnorm's
    paths += [(3, 8, t, 1) for t in TRIALS]  # the contraction's child(1) stream
    for path in paths:
        _same_stream(root, path)
    seed = E.SeedState(root, (3, 8, 5))
    assert seed.child(1).path == (3, 8, 5, 1)
    _same_stream(root, seed.child(1).path)


@pytest.mark.parametrize(
    "root, path",
    [
        (np.int64(7), (np.int64(3), np.uint8(8), np.int32(5))),
        (np.uint64(2**64 - 1), (np.uint64(2**63), np.int16(0))),
        (7, (3, np.uint32(2**32 - 1))),
        (np.uint8(0), ()),
    ],
)
def test_rng_takes_numpy_integers_as_numpy_does(root, path):
    _same_stream(root, path)
    # and draws what the same ints as Python ints draw
    same = E.SeedState(int(root), tuple(int(i) for i in path)).rng()
    assert same.bit_generator.state == E.SeedState(root, path).rng().bit_generator.state


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**256 - 1),
    st.lists(st.integers(0, 2**70 - 1), max_size=6).map(tuple),
)
def test_rng_matches_numpy_on_any_root_and_path(root, path):
    _same_stream(root, path)


def test_rng_is_exact_past_the_prefix_cache():
    # more distinct prefixes than the cache holds, their calls interleaved,
    # then the first again after they have pushed it out
    count = E._pool_state.cache_info().maxsize + 50
    paths = [(3, n, t) for t in range(2) for n in range(count)]
    for root in (11, 2**70 + 3):
        for path in paths + paths[:3]:
            _same_stream(root, path)
    assert E._pool_state.cache_info().currsize <= E._pool_state.cache_info().maxsize


def _raises(call):
    try:
        call()
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "root, path",
    [
        (-1, ()),
        (-1, (3, 8, 0)),
        (-(2**40), (0,)),
        (np.int64(-1), (1,)),
        (1, (-1,)),
        (1, (3, -1, 0)),
        (1, (3, 8, -1)),
        (1, (3, 8, np.int8(-1))),
        (1.5, ()),
        (1.0, (3, 8, 0)),
        (np.float64(2.0), (0,)),
        (np.True_, (0,)),
        (1, (1.0,)),
        (1, (3, 8.0, 0)),
        (1, (3, 8, 0.0)),
        (1, (3, 8, np.float32(1.0))),
        (1, (3, np.True_, 0)),
        (1, (None,)),
    ],
    ids=repr,
)
def test_bad_seeds_raise_what_numpy_raises(root, path):
    # the int twins first, so that a cached prefix cannot stand in for them
    E.SeedState(7, (3, 8, 0)).rng()
    E.SeedState(1, (3, 8, 0)).rng()
    expected = _raises(lambda: _reference(root, path))
    assert expected in (TypeError, ValueError)
    with pytest.raises(expected):
        E.SeedState(root, path).rng()
