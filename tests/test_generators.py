"""Random matrix generators: each must actually satisfy its advertised contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsumineq.generators import (
    _build,
    _build_expansive,
    _complex_gaussian,
    _draw_contractive_pd,
    _draw_expansive,
    _draw_pd,
    _unitaries,
    rand_commuting_pair,
    rand_contraction,
    rand_contractive_pd,
    rand_density,
    rand_density_pair,
    rand_expansive,
    rand_pd,
    rand_split_matching,
    rand_unitary,
)
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
        G = _complex_gaussian(one, n)
        re = two.standard_normal((n, n))
        im = two.standard_normal((n, n))
        assert G.tobytes() == (re + 1j * im).tobytes(), (n, seed)
        assert one.random() == two.random(), (n, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_stacked_builds_equal_one_matrix_at_a_time(n):
    # one stacked build of the draws gives the bits of rand_unitary, rand_pd,
    # rand_contractive_pd and rand_expansive called matrix by matrix from the
    # same rng states
    seeds = range(40, 70)
    unitaries = [rand_unitary(np.random.default_rng(s), n) for s in seeds]
    gaussians = [_complex_gaussian(np.random.default_rng(s), n) for s in seeds]
    assert _unitaries(np.array(gaussians)).tobytes() == np.array(unitaries).tobytes()

    pds = [rand_pd(np.random.default_rng(s), n, (0.3, 2.5)) for s in seeds]
    spectra, gaussians = zip(*(_draw_pd(np.random.default_rng(s), n, (0.3, 2.5)) for s in seeds))
    stacked = _build(np.array(spectra), _unitaries(np.array(gaussians)))
    assert stacked.tobytes() == np.array(pds).tobytes()

    contractive = [rand_contractive_pd(np.random.default_rng(s), n) for s in seeds]
    spectra, gaussians = zip(*(_draw_contractive_pd(np.random.default_rng(s), n) for s in seeds))
    stacked = _build(np.array(spectra), _unitaries(np.array(gaussians)))
    assert stacked.tobytes() == np.array(contractive).tobytes()

    expansive = [rand_expansive(np.random.default_rng(s), n) for s in seeds]
    amps, gaussians = zip(*(_draw_expansive(np.random.default_rng(s), n) for s in seeds))
    stacked = _build_expansive(np.array(amps).reshape(5, 6), np.array(gaussians).reshape(5, 6, n, n))
    assert stacked.tobytes() == np.array(expansive).tobytes()
