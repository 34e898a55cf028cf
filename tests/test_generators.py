"""Random matrix generators: each must actually satisfy its advertised contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsumineq.errors import DomainError
from logsumineq.generators import (
    CONTRACTIVE_FLOOR,
    _build,
    _build_contraction,
    _build_expansive,
    _build_pair,
    _build_psd,
    _complex,
    _complex_gaussian,
    _contractive,
    _density,
    _draw_commuting,
    _draw_expansive,
    _draw_pd,
    _uniform,
    _unitaries,
    rand_commuting_pair,
    rand_contraction,
    rand_contractive_pd,
    rand_density,
    rand_density_pair,
    rand_expansive,
    rand_pd,
    rand_psd,
    rand_sequence,
    rand_sequence_pair,
    rand_split_matching,
    rand_square,
    rand_unitary,
)
from logsumineq.harness import TrialConfig
from logsumineq.matfun import commutes, hermitize, make_commuting_pair, maxnorm

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=8)


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_unitary(seed, n):
    U = rand_unitary(np.random.default_rng(seed), n)
    assert maxnorm(U.conj().T @ U - np.eye(n)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_pd_spectrum_range(seed, n):
    A = rand_pd(np.random.default_rng(seed), n, (0.3, 2.5))
    w = np.linalg.eigvalsh(A)
    assert np.all(w >= 0.3 - 1e-10) and np.all(w <= 2.5 + 1e-10)


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_expansive(seed, n):
    A = rand_expansive(np.random.default_rng(seed), n)
    assert np.min(np.linalg.eigvalsh(A)) >= 1.0 - 1e-10


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_contractive_pd(seed, n):
    A = rand_contractive_pd(np.random.default_rng(seed), n)
    w = np.linalg.eigvalsh(A)
    assert np.all(w > 0.0) and np.max(w) <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_contraction_norm(seed, n):
    C = rand_contraction(np.random.default_rng(seed), n)
    assert np.linalg.norm(C, 2) <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_commuting_pair(seed, n):
    A, B = rand_commuting_pair(np.random.default_rng(seed), n, (0.1, 4.0), (0.1, 4.0))
    assert commutes(A, B)
    assert np.min(np.linalg.eigvalsh(A)) > 0.0


@pytest.mark.parametrize("seed", range(5))
def test_commuting_pair_is_make_commuting_pair_on_its_draws(seed):
    A, B = rand_commuting_pair(np.random.default_rng(seed), 4, (0.1, 4.0), (0.5, 2.0))
    rng = np.random.default_rng(seed)
    U = rand_unitary(rng, 4)
    wa, wb = rng.uniform(0.1, 4.0, 4), rng.uniform(0.5, 2.0, 4)
    for got, want in zip((A, B), make_commuting_pair(U, wa, wb)):
        assert got.tobytes() == want.tobytes()


def test_commuting_pair_runs_no_input_check(input_checks):
    rand_commuting_pair(np.random.default_rng(0), 3, (0.5, 2.0), (0.5, 2.0))
    assert input_checks == {"_as_square_complex": 0, "_require_hermitian": 0}


@settings(max_examples=100, deadline=None)
@given(seeds, dims)
def test_density(seed, n):
    rho = rand_density(np.random.default_rng(seed), n)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) > 0.0


@settings(max_examples=60, deadline=None)
@given(seeds, dims)
def test_density_pair_shares_basis(seed, n):
    rho, sigma = rand_density_pair(np.random.default_rng(seed), n)
    assert commutes(rho, sigma)
    assert abs(np.trace(sigma).real - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=5))
def test_split_matching_sums_exactly(seed, n, m):
    rng = np.random.default_rng(seed)
    total = rand_pd(rng, n, (1.0, 3.0))
    parts = rand_split_matching(rng, total, m, (0.5, 2.0))
    assert len(parts) == m
    assert maxnorm(hermitize(sum(parts)) - total) <= 1e-10 * max(1.0, maxnorm(total))
    for P in parts:
        assert np.min(np.linalg.eigvalsh(P)) > 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_complex_gaussian_draws_as_two_real_draws(n):
    # one (2, n, n) draw gives the values of a real (n, n) draw and then an
    # imaginary one, and leaves the stream where those two calls leave it
    for seed in range(20):
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        x = _complex_gaussian(one, n)
        re = two.standard_normal((n, n))
        im = two.standard_normal((n, n))
        assert x.shape == (2, n, n), (n, seed)
        assert x.tobytes() == np.stack([re, im]).tobytes(), (n, seed)
        assert _complex(x).tobytes() == (re + 1j * im).tobytes(), (n, seed)
        assert one.random() == two.random(), (n, seed)


def _same(stacked, one_by_one):
    return np.asarray(stacked).tobytes() == np.array(one_by_one).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_stacked_builds_equal_one_matrix_at_a_time(n):
    # one build of the stacked raw draws (..., 2, n, n) gives the bits of each
    # public generator called matrix by matrix from the same rng states
    seeds = range(40, 70)

    def calls(generator, *args):
        return [generator(np.random.default_rng(s), n, *args) for s in seeds]

    def draws(draw, *args):
        values = zip(*(draw(np.random.default_rng(s), n, *args) for s in seeds))
        return [np.array(v) for v in values]

    (gaussians,) = draws(lambda rng, n: (_complex_gaussian(rng, n),))
    assert gaussians.shape == (len(seeds), 2, n, n)
    assert _same(_unitaries(gaussians), calls(rand_unitary))
    assert _same(_complex(gaussians), calls(rand_square))
    assert _same(_build_psd(0.7, gaussians), calls(rand_psd, 0.7))

    uniforms, gaussians = draws(_draw_pd)
    stacked = _build(_uniform(uniforms, 0.3, 2.5), _unitaries(gaussians))
    assert _same(stacked, calls(rand_pd, (0.3, 2.5)))

    stacked = _build(_contractive(uniforms), _unitaries(gaussians))
    assert _same(stacked, calls(rand_contractive_pd))

    uniforms, gaussians = draws(_draw_expansive)
    stacked = _build_expansive(uniforms.reshape(5, 6), gaussians.reshape(5, 6, 2, n, n))
    assert _same(stacked.reshape(-1, n, n), calls(rand_expansive))

    gaussians, singular = draws(lambda rng, n: (_complex_gaussian(rng, n), rng.random(n)))
    assert _same(_build_contraction(singular, gaussians), calls(rand_contraction))

    ranges = ((0.1, 4.0), (0.5, 2.0))
    pairs = calls(rand_commuting_pair, *ranges)
    gaussians, uniforms = draws(_draw_commuting)
    assert uniforms.shape == (len(seeds), 2 * n)
    wa, wb = _uniform(uniforms[:, :n], *ranges[0]), _uniform(uniforms[:, n:], *ranges[1])
    stacked = _build_pair(gaussians, wa, wb)
    assert all(_same(got, want) for got, want in zip(stacked, zip(*pairs)))

    uniforms, gaussians = draws(_draw_pd)
    stacked = _build(_density(uniforms), _unitaries(gaussians))
    assert _same(stacked, calls(rand_density))

    gaussians, uniforms = draws(_draw_commuting)
    assert uniforms.shape == (len(seeds), 2 * n)
    stacked = _build_pair(gaussians, _density(uniforms[:, :n]), _density(uniforms[:, n:]))
    assert all(_same(got, want) for got, want in zip(stacked, zip(*calls(rand_density_pair))))


# Every window a suite maps uniforms onto: the equality scale, the rational
# example's entries and ratios, q's two branches, r, the trace spectra, the
# default spectrum window, the monotonicity step's spectra, the expansive
# amplitude, the monotonicity PSD scale, and this file's windows.
_WINDOWS = [
    (0.1, 10.0),
    (1.0, 10.0),
    (0.9, 2.4),
    (-2.0, 1.9),
    (2.1, 3.5),
    (0.5, 2.0),
    (1e-2, 10.0),
    (0.05, 0.5),
    (0.3, 1.0),
    (0.1, 1.0),
    (0.1, 4.0),
    (0.3, 2.5),
]


@pytest.mark.parametrize("lo, hi", _WINDOWS)
def test_uniform_is_the_window_map_of_random(lo, hi):
    # a draw takes random() doubles, and the build maps them with the bits of uniform(lo, hi)
    for seed in range(200):
        k = seed % 9 + 1
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        assert one.uniform(lo, hi, k).tobytes() == (lo + (hi - lo) * two.random(k)).tobytes()
        assert one.uniform(lo, hi, k).tobytes() == _uniform(two.random(k), lo, hi).tobytes()
        assert float(one.uniform(lo, hi)).hex() == (lo + (hi - lo) * two.random()).hex()
        assert one.bit_generator.state == two.bit_generator.state


def test_consecutive_draws_are_one_draw():
    # a trial's consecutive uniforms, or Gaussians, come from one call that
    # gives the same values and leaves the stream where the calls leave it
    for seed in range(200):
        a, b, n, m = seed % 7 + 1, seed % 5 + 1, seed % 4 + 1, seed % 3 + 1
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        split = np.concatenate([one.random(a), [one.random()], one.random(b)])
        assert split.tobytes() == two.random(a + 1 + b).tobytes()
        split = np.concatenate([one.standard_normal(a), one.standard_normal(b)])
        assert split.tobytes() == two.standard_normal(a + b).tobytes()
        split = np.array([one.standard_normal((2, n, n)) for _ in range(m)])
        assert split.tobytes() == two.standard_normal((m, 2, n, n)).tobytes()
        assert one.bit_generator.state == two.bit_generator.state


# The formulas of each public matrix generator, member by member in plain
# numpy, with every map of drawn values written out where it is drawn.


def _ref_gaussian(rng, n):
    x = rng.standard_normal((2, n, n))
    return x[0] + 1j * x[1]


def _ref_herm(M):
    return (M + M.conj().T) / 2.0


def _ref_unitary(G):
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))[None, :]


def _ref_build(w, U):
    return _ref_herm((U * w[None, :]) @ U.conj().T)


def _ref_density_spectrum(rng, n):
    u = rng.random(n)
    return (u + 1e-3) / (u + 1e-3).sum()


def _ref_split_matching(rng, total, m, spectrum_range):
    total = _ref_herm(total)
    n = total.shape[0]
    shares = []
    for _ in range(m):
        w = rng.uniform(*spectrum_range, n)
        shares.append(_ref_build(w, _ref_unitary(_ref_gaussian(rng, n))))
    w, U = np.linalg.eigh(np.stack([sum(shares), total]))
    S_inv_half = (U[0] * (1.0 / np.sqrt(w[0]))[None, :]) @ U[0].conj().T
    T_half = (U[1] * np.sqrt(w[1])[None, :]) @ U[1].conj().T
    carrier = T_half @ S_inv_half
    return [_ref_herm(carrier @ share @ carrier.conj().T) for share in shares]


def _ref_contraction(rng, n):
    G = _ref_gaussian(rng, n)
    U, _, Vh = np.linalg.svd(G)
    return (U * rng.random(n)[None, :]) @ Vh


def _ref_psd(rng, n, scale):
    Q = np.sqrt(scale / n) * _ref_gaussian(rng, n)
    return _ref_herm(Q @ Q.conj().T)


def _ref_expansive(rng, n):
    amp = rng.uniform(0.3, 1.0)
    Q = (amp / np.sqrt(n)) * _ref_gaussian(rng, n)
    return _ref_herm(np.eye(n) + Q @ Q.conj().T)


def _ref_commuting_pair(rng, n, a_range, b_range):
    U = _ref_unitary(_ref_gaussian(rng, n))
    wa, wb = rng.uniform(*a_range, n), rng.uniform(*b_range, n)
    return _ref_build(wa, U), _ref_build(wb, U)


def _ref_density_pair(rng, n):
    U = _ref_unitary(_ref_gaussian(rng, n))
    w_rho, w_sigma = _ref_density_spectrum(rng, n), _ref_density_spectrum(rng, n)
    return _ref_build(w_rho, U), _ref_build(w_sigma, U)


_TOTAL = np.array([[2.0, 0.5j], [-0.5j, 1.5]])

# (public generator, its reference, the arguments after (rng, n)); rand_split_matching
# takes a total in place of n, so its n is the total's.
_REFERENCES = {
    "rand_unitary": (rand_unitary, lambda rng, n: _ref_unitary(_ref_gaussian(rng, n)), ()),
    "rand_pd": (
        rand_pd,
        lambda rng, n, r: _ref_build(rng.uniform(*r, n), _ref_unitary(_ref_gaussian(rng, n))),
        ((0.3, 2.5),),
    ),
    "rand_psd": (rand_psd, _ref_psd, (0.7,)),
    "rand_expansive": (rand_expansive, _ref_expansive, ()),
    "rand_contractive_pd": (
        rand_contractive_pd,
        lambda rng, n: _ref_build(
            1.0 - (1.0 - CONTRACTIVE_FLOOR) * rng.random(n), _ref_unitary(_ref_gaussian(rng, n))
        ),
        (),
    ),
    "rand_contraction": (rand_contraction, _ref_contraction, ()),
    "rand_square": (rand_square, _ref_gaussian, ()),
    "rand_commuting_pair": (rand_commuting_pair, _ref_commuting_pair, ((0.1, 4.0), (0.5, 2.0))),
    "rand_density": (
        rand_density,
        lambda rng, n: _ref_build(
            _ref_density_spectrum(rng, n), _ref_unitary(_ref_gaussian(rng, n))
        ),
        (),
    ),
    "rand_density_pair": (rand_density_pair, _ref_density_pair, ()),
}


@pytest.mark.parametrize("name", sorted(_REFERENCES) + ["rand_split_matching"])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_public_generators_keep_the_per_member_formulas(name, n):
    # each public generator gives the bits of its formulas applied member by
    # member, and leaves the stream where they leave it
    for seed in range(30):
        one, two = np.random.default_rng(seed), np.random.default_rng(seed)
        if name == "rand_split_matching":
            total = rand_pd(np.random.default_rng(1000 + seed), n, (1.0, 3.0))
            got, want = rand_split_matching(one, total, 3, (0.5, 2.0)), _ref_split_matching(
                two, total, 3, (0.5, 2.0)
            )
        else:
            generator, reference, args = _REFERENCES[name]
            got, want = generator(one, n, *args), reference(two, n, *args)
        assert _same(got, want), (name, n, seed)
        assert one.random() == two.random(), (name, n, seed)


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: rand_pd(rng, 3, (-1.0, 0.5)),  # was a matrix with negative eigenvalues
        lambda rng: rand_split_matching(rng, _TOTAL, 2, (-1.0, 0.5)),  # was NaNs
        lambda rng: rand_split_matching(rng, _TOTAL, 0, (0.5, 2.0)),  # was an unpacking error
        lambda rng: rand_split_matching(rng, _TOTAL, 2.0, (0.5, 2.0)),
        # each was a pair from outside PD: an A with negative eigenvalues, a B
        # from a reversed window, an infinite spectrum
        lambda rng: rand_commuting_pair(rng, 3, (-1.0, 0.5), (0.5, 2.0)),
        lambda rng: rand_commuting_pair(rng, 3, (0.5, 2.0), (2.0, 1.0)),
        lambda rng: rand_commuting_pair(rng, 3, (0.5, np.inf), (0.5, 2.0)),
    ],
    ids=[
        "rand_pd window",
        "rand_split_matching window",
        "m = 0",
        "float m",
        "rand_commuting_pair negative window",
        "rand_commuting_pair reversed window",
        "rand_commuting_pair non-finite window",
    ],
)
def test_public_generators_refuse_bad_windows_and_family_sizes_before_drawing(call):
    rng = np.random.default_rng(5)
    with pytest.raises(DomainError):
        call(rng)
    assert rng.random() == np.random.default_rng(5).random()


@pytest.mark.parametrize("window", [(2.0, 0.5), (0.0, 1.0), (0.5, np.inf), (True, 2.0), (0.5,)])
def test_public_generators_take_the_configs_window_rule(window):
    # the rule TrialConfig holds its spectrum_range to
    rng = np.random.default_rng(5)
    with pytest.raises(DomainError, match="^spectrum_range"):
        rand_pd(rng, 2, window)
    with pytest.raises(DomainError, match="^spectrum_range"):
        rand_split_matching(rng, _TOTAL, 2, window)
    with pytest.raises(DomainError, match="^spectrum_range"):
        TrialConfig(suite="perspective_sum", spectrum_range=window)


# each public generator that takes a dimension n, called with n and a valid rest
_DIMENSIONED = {
    "rand_unitary": rand_unitary,
    "rand_pd": lambda rng, n: rand_pd(rng, n, (0.5, 2.0)),
    "rand_psd": rand_psd,
    "rand_expansive": rand_expansive,
    "rand_contractive_pd": rand_contractive_pd,
    "rand_contraction": rand_contraction,
    "rand_square": rand_square,
    "rand_sequence": rand_sequence,
    "rand_sequence_pair": rand_sequence_pair,
    "rand_commuting_pair": lambda rng, n: rand_commuting_pair(rng, n, (0.5, 2.0), (0.5, 2.0)),
    "rand_density": rand_density,
    "rand_density_pair": rand_density_pair,
}


@pytest.mark.parametrize("n", [0, -2, 2.0, True])
@pytest.mark.parametrize("name", sorted(_DIMENSIONED))
def test_public_generators_refuse_a_bad_dimension_before_drawing(name, n):
    # at n = 0 rand_pd gave a 0x0 matrix, at -2 numpy's own error, at 2.0 and True a TypeError
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match=r"^dimension n must be an integer >= 1, got "):
        _DIMENSIONED[name](rng, n)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "total, match",
    [
        # was a family summing to its Hermitian part
        ([[2.0, 1.0], [0.0, 2.0]], r"^total is not Hermitian"),
        # was a family of NaNs, with a RuntimeWarning from sqrt
        (-np.eye(2), r"^total is not positive definite \(min eigenvalue -1\.000e\+00\)$"),
        # was a family with a zero eigenvalue in its members
        (np.diag([1.0, 0.0]), r"^total is not positive definite \(min eigenvalue 0\.000e\+00\)$"),
    ],
    ids=["non-Hermitian", "negative definite", "singular"],
)
def test_split_matching_refuses_a_total_that_is_not_positive_definite_before_drawing(total, match):
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match=match):
        rand_split_matching(rng, total, 2, (0.5, 2.0))
    assert rng.bit_generator.state == state

