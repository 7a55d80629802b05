"""Two-mode interferometry: SU(2) algebra, rotations, phase statistics."""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from fisherlab import (FisherlabError, FockInput, Posterior, SizeLimit,
                       ZeroPosterior, build_rep, fisher_phase_at_zero,
                       linearized_phase_error, moments, mz_transform_check,
                       outcome_amplitude_curve, outcome_distribution,
                       outcome_table, posterior_flat, posterior_update, posterior_variance,
                       resource_scaling, run_accumulation, wigner_d)
from fisherlab.interferometer import _generator_eigensystem


def _expm_d(j: float, phi: float) -> np.ndarray:
    """Independent rotation oracle: scaling-and-squaring matrix exponential."""
    rep = build_rep(j)
    return expm(-1j * phi * rep.j2).real


# ---------------------------------------------------------------------------
# representation


def test_rep_spin_half_is_half_pauli():
    rep = build_rep(0.5)
    assert np.allclose(rep.j1, np.array([[0, 0.5], [0.5, 0]]))
    assert np.allclose(rep.j2, np.array([[0, -0.5j], [0.5j, 0]]))
    assert np.allclose(rep.j3, np.array([[0.5, 0], [0, -0.5]]))


def test_rep_spin_one_j3():
    rep = build_rep(1.0)
    assert np.allclose(rep.j3, np.diag([1.0, 0.0, -1.0]))


def test_rep_commutator():
    rep = build_rep(3.5)
    comm = rep.j1 @ rep.j2 - rep.j2 @ rep.j1
    assert np.max(np.abs(comm - 1j * rep.j3)) < 1e-12


def test_rep_casimir():
    j = 7.0
    rep = build_rep(j)
    casimir = rep.j1 @ rep.j1 + rep.j2 @ rep.j2 + rep.j3 @ rep.j3
    assert np.allclose(casimir, j * (j + 1) * np.eye(int(2 * j) + 1),
                       atol=1e-11)


def test_size_cap():
    with pytest.raises(SizeLimit):
        build_rep(5000.0)


# ---------------------------------------------------------------------------
# rotation matrices


def test_wigner_spin_half_closed_form():
    phi = 0.9
    d = wigner_d(0.5, phi).d
    expected = np.array([[math.cos(phi / 2), -math.sin(phi / 2)],
                         [math.sin(phi / 2), math.cos(phi / 2)]])
    assert np.max(np.abs(d - expected)) < 1e-14


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 7.0])
def test_wigner_identity_at_zero(j):
    d = wigner_d(j, 0.0).d
    assert np.allclose(d, np.eye(int(2 * j) + 1), atol=1e-14)


def test_wigner_vs_matrix_exponential(rng):
    for two_j in range(1, 21):
        j = two_j / 2.0
        for phi in rng.uniform(-math.pi, math.pi, 3):
            dev = np.max(np.abs(wigner_d(j, phi).d - _expm_d(j, phi)))
            assert dev < 1e-10, (j, phi, dev)


def test_wigner_orthogonality_and_group_property():
    for j in (1.0, 10.0, 50.0, 100.0):
        d1 = wigner_d(j, 0.713).d
        d2 = wigner_d(j, -1.921).d
        d12 = wigner_d(j, 0.713 - 1.921).d
        assert np.max(np.abs(d1 @ d1.T - np.eye(d1.shape[0]))) < 1e-12
        assert np.max(np.abs(d1 @ d2 - d12)) < 1e-9


def test_wigner_column_accessor():
    rot = wigner_d(1.0, 0.4)
    assert np.allclose(rot.column(1.0), rot.d[:, 0])
    assert np.allclose(rot.column(-1.0), rot.d[:, 2])


# ---------------------------------------------------------------------------
# interferometer transform


def test_mz_transform_spin_half():
    assert mz_transform_check(0.5, math.pi / 3) < 1e-12


def test_mz_transform_zero_phase():
    assert mz_transform_check(2.0, 0.0) < 1e-13


def test_mz_transform_j5():
    assert mz_transform_check(5.0, 1.234) < 1e-9


# ---------------------------------------------------------------------------
# outcome statistics


def test_distribution_at_zero_phase_is_point_mass():
    source = FockInput(n1=3, n2=1)  # j = 2, m = 1
    p = outcome_distribution(source, 0.0)
    k = source.j - np.arange(int(2 * source.j) + 1)
    assert np.allclose(p, (k == source.m).astype(float), atol=1e-20)


def test_single_particle_fringes():
    source = FockInput(n1=1, n2=0)
    for phi in (0.3, 1.2, 2.9):
        p = outcome_distribution(source, phi)
        assert p[0] == pytest.approx(math.cos(phi / 2) ** 2, abs=1e-12)
        assert p[1] == pytest.approx(math.sin(phi / 2) ** 2, abs=1e-12)


@pytest.mark.parametrize("j", [0.0, 0.5, 1.0, 5.0, 50.0, 500.0, 2048.0])
def test_distribution_completeness(j, rng):
    n1 = int(2 * j)
    source = FockInput(n1=n1, n2=0)
    for phi in rng.uniform(-math.pi, math.pi, 20):
        assert abs(outcome_distribution(source, phi).sum() - 1.0) < 1e-12


def test_distribution_rejects_non_finite_phase():
    for phi in (math.nan, math.inf):
        with pytest.raises(ValueError):
            outcome_distribution(FockInput(n1=3, n2=1), phi)


@pytest.mark.parametrize("j,m", [(2.0, 1.0), (10.0, 3.0), (20.0, 0.0)])
def test_distribution_parity(j, m, rng):
    plus = FockInput(n1=int(j + m), n2=int(j - m))
    minus = FockInput(n1=int(j - m), n2=int(j + m))
    phi = float(rng.uniform(0.1, 3.0))
    p_plus = outcome_distribution(plus, -phi)
    p_minus = outcome_distribution(minus, phi)
    assert np.max(np.abs(p_plus - p_minus[::-1])) < 1e-12


KERNEL_CASES = [(0.5, 0.5), (3.0, -2.0), (7.5, 2.5), (30.0, 10.0), (50.5, -0.5),
                (100.0, 37.0), (6.0, 6.0), (9.5, -9.5), (40.0, 0.0), (60.0, -60.0)]
KERNEL_PHASES = (-7.3, -math.pi, -2.2, 0.0, 1e-9, 0.41, math.pi / 2,
                 math.pi - 1e-6, math.pi, 3.5, 9.9)


@pytest.mark.parametrize("j,m", KERNEL_CASES)
def test_distribution_matches_dense_column(j, m):
    source = FockInput(n1=int(j + m), n2=int(j - m))
    table = outcome_table(source, np.array(KERNEL_PHASES))
    for phi, row in zip(KERNEL_PHASES, table):
        dense = wigner_d(j, phi).column(m) ** 2
        assert np.max(np.abs(outcome_distribution(source, phi) - dense)) < 1e-12
        assert np.max(np.abs(row - dense)) < 1e-12


@pytest.mark.parametrize("j,m", KERNEL_CASES)
def test_amplitude_curve_matches_dense_entries(j, m):
    # wigner_d reduces phi by whole 2 pi turns; each turn multiplies d by
    # (-1)^(2j), which the unreduced curve keeps
    two_j = int(round(2 * j))
    phis = np.array(KERNEL_PHASES)
    turns = np.floor((phis + math.pi) / (2.0 * math.pi))
    sign = np.where((two_j * turns) % 2 == 0, 1.0, -1.0)
    for k in sorted({j, -j, m, -m, j - two_j // 3}):
        dense = np.array([wigner_d(j, phi).d[int(round(j - k)), int(round(j - m))]
                          for phi in phis])
        curve = outcome_amplitude_curve(j, k, m, phis)
        assert np.max(np.abs(curve - sign * dense)) < 1e-12, k


def test_single_phase_column_needs_no_eigenbasis(tmp_path):
    from fisherlab.cli import main
    _generator_eigensystem.cache_clear()
    outcome_distribution(FockInput(n1=30, n2=12), 0.7)
    assert main(["mz", "--n1", "1000", "--n2", "1000", "--phi", "0.3",
                 "--out", str(tmp_path)]) == 0
    info = _generator_eigensystem.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_eigenbasis_cache_is_bounded():
    _generator_eigensystem.cache_clear()
    for j in (3.0, 4.5, 20.0):
        outcome_table(FockInput(n1=int(2 * j), n2=0), np.array([0.3]))
    assert _generator_eigensystem.cache_info().currsize <= 2


def test_balanced_input_tracks_bessel():
    # the balanced-outcome probability approaches J0^2(phi j); convergence is
    # monotone in j, about 4% absolute at j = 10 (hence no 2% claim here)
    errs = []
    for j in (10, 20, 50, 100, 200):
        phis = np.linspace(-2.0 / j, 2.0 / j, 201)
        p0 = outcome_amplitude_curve(float(j), 0.0, 0.0, phis) ** 2
        errs.append(np.max(np.abs(p0 - jv(0, phis * j) ** 2)))
    assert errs[0] < 0.05
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.003


def test_moments_closed_forms():
    source = FockInput(n1=4, n2=2)  # j = 3, m = 1
    assert moments(source, 0.0) == pytest.approx((1.0, 1.0))
    j, m, phi = source.j, source.m, 0.7
    mean, mean_sq = moments(source, phi)
    k = j - np.arange(int(2 * j) + 1)
    p = outcome_distribution(source, phi)
    assert mean == pytest.approx(float(k @ p), abs=1e-10)
    assert mean_sq == pytest.approx(float((k ** 2) @ p), abs=1e-10)


def test_moments_balanced_at_quarter_turn():
    source = FockInput(n1=5, n2=5)
    mean, mean_sq = moments(source, math.pi / 2)
    assert mean == pytest.approx(0.0, abs=1e-14)
    assert mean_sq == pytest.approx(source.j * (source.j + 1) / 2.0, rel=1e-12)


@pytest.mark.parametrize("j,m", [(1.0, 1.0), (10.0, 4.0), (100.0, -7.0)])
def test_moments_vs_distribution_sums(j, m, rng):
    source = FockInput(n1=int(j + m), n2=int(j - m))
    phi = float(rng.uniform(-3.0, 3.0))
    mean, mean_sq = moments(source, phi)
    k = j - np.arange(int(2 * j) + 1)
    p = outcome_distribution(source, phi)
    assert mean == pytest.approx(float(k @ p), abs=1e-9)
    assert mean_sq == pytest.approx(float((k ** 2) @ p), abs=1e-9)


# ---------------------------------------------------------------------------
# phase error measures


def test_linearized_error_one_port_limit():
    n = 64
    source = FockInput(n1=n, n2=0)
    err = linearized_phase_error(source, 1e-8)
    assert err == pytest.approx(1.0 / math.sqrt(n), rel=1e-6)


def test_linearized_error_balanced_is_undefined():
    assert linearized_phase_error(FockInput(n1=3, n2=3), 0.5) is None


def test_linearized_error_vs_moments_oracle():
    source = FockInput(n1=3, n2=1)  # j = 2, m = 1
    phi = math.pi / 2
    err = linearized_phase_error(source, phi)
    assert err == pytest.approx(math.sqrt(5.0 / 2.0), rel=1e-10)
    # oracle: spread of J3 over the slope of its mean, by finite differences
    h = 1e-6
    mean_p, _ = moments(source, phi + h)
    mean_m, _ = moments(source, phi - h)
    slope = (mean_p - mean_m) / (2 * h)
    mean, mean_sq = moments(source, phi)
    oracle = math.sqrt(mean_sq - mean ** 2) / abs(slope)
    assert err == pytest.approx(oracle, rel=1e-6)


def test_fisher_phase_closed_form_and_limits():
    # one-port input: F0 = N (standard limit)
    for n in (1, 10, 100):
        source = FockInput(n1=n, n2=0)
        assert fisher_phase_at_zero(source) == pytest.approx(float(n),
                                                             rel=1e-12)
    # balanced input: F0 = 2 j(j+1), i.e. (Δφ)² = 2/N² (1 + 2/N)⁻¹
    n = 50
    source = FockInput(n1=n, n2=n)
    f0 = fisher_phase_at_zero(source)
    assert f0 == pytest.approx(2.0 * n * (n + 1), rel=1e-12)
    assert 1.0 / f0 == pytest.approx((2.0 / (2 * n) ** 2) / (1 + 2.0 / (2 * n)),
                                     rel=1e-12)
    assert fisher_phase_at_zero(FockInput(n1=1, n2=0)) == pytest.approx(1.0)


@pytest.mark.parametrize("j,m", [(10.0, 0.0), (100.0, 13.0), (200.0, -50.0)])
def test_fisher_phase_fd_verifier(j, m):
    # verify=True cross-checks the closed form against -2 p''(0); a mismatch
    # above 0.1% raises
    source = FockInput(n1=int(j + m), n2=int(j - m))
    f0 = fisher_phase_at_zero(source, verify=True)
    assert f0 == pytest.approx(2.0 * (j * (j + 1) - m * m), rel=1e-12)


@pytest.mark.parametrize("n1,n2", [(1000, 1000), (1200, 500), (2048, 2048), (4096, 0)])
def test_fisher_phase_fd_verifier_at_large_j(n1, n2):
    # a fixed difference step fails the 0.1% check once 2j exceeds ~1500
    source = FockInput(n1=n1, n2=n2)
    assert fisher_phase_at_zero(source, verify=True) == 2.0 * (
        source.j * (source.j + 1) - source.m ** 2)


# ---------------------------------------------------------------------------
# posterior accumulation


def test_flat_posterior_variance():
    w = math.pi / 2
    post = posterior_flat(window=(-w, w))
    assert posterior_variance(post) == pytest.approx(w ** 2 / 3.0, rel=1e-6)
    assert post.shots == ()


def test_posterior_update_normalizes_and_tracks_likelihood():
    source = FockInput(n1=10, n2=10)
    post = posterior_update(posterior_flat(), source, 0.0)
    assert post.shots == (0.0,)
    assert np.trapezoid(post.density, post.grid) == pytest.approx(1.0,
                                                                  abs=1e-8)
    p0 = outcome_amplitude_curve(source.j, 0.0, 0.0, post.grid) ** 2
    ratio = post.density / p0
    assert np.max(ratio) / np.min(ratio) == pytest.approx(1.0, rel=1e-9)


def test_posterior_two_shots_square_the_likelihood():
    source = FockInput(n1=25, n2=25)
    post1 = posterior_update(posterior_flat(), source, 0.0)
    post2 = posterior_update(post1, source, 0.0)
    p0 = outcome_amplitude_curve(source.j, 0.0, 0.0, post2.grid) ** 2
    ratio = post2.density / p0 ** 2
    assert np.max(ratio) / np.min(ratio) == pytest.approx(1.0, rel=1e-9)


def test_symmetric_posterior_mean_is_zero():
    source = FockInput(n1=20, n2=20)
    post = posterior_update(posterior_flat(), source, 0.0)
    mean = np.trapezoid(post.grid * post.density, post.grid)
    assert abs(mean) < 1e-10


def test_zero_posterior_raises():
    dead = Posterior(grid=np.linspace(-0.1, 0.1, 101),
                     density=np.zeros(101), shots=0)
    with pytest.raises(ZeroPosterior):
        posterior_update(dead, FockInput(n1=1, n2=1), 0.0)


def test_posterior_log_width_law():
    # single-shot variance over the pi window decays like 1/ln j
    products = []
    for j in (50, 400):
        source = FockInput(n1=j, n2=j)
        post = posterior_update(posterior_flat(), source, 0.0)
        products.append(posterior_variance(post) * math.log(j))
    assert products[0] == pytest.approx(products[1], rel=0.25)


def test_resource_scaling_values():
    # j = 50, n = 4 invests N_tot = 2jn = 400 particles for 4n/N_tot² = 1e-4,
    # identical to the single-run optimum 1/(n j²)
    assert resource_scaling(50.0, 4) == pytest.approx(1e-4, rel=1e-12)
    assert resource_scaling(50.0, 4) == pytest.approx(1.0 / (4 * 50.0 ** 2),
                                                      rel=1e-12)
    n_tot = 100
    assert resource_scaling(1.0, n_tot // 2) == pytest.approx(2.0 / n_tot,
                                                              rel=1e-12)
    # doubling the number of repetitions at fixed total particle budget
    # (N_tot = 2jn held at 80) doubles the predicted variance
    assert resource_scaling(5.0, 8) == pytest.approx(
        2 * resource_scaling(10.0, 4), rel=1e-12)


def test_run_accumulation_postselected_reaches_optimal_resolution(rng):
    j, n = 50.0, 4
    _, variance = run_accumulation(j, n, 0.0, (-math.pi / 2, math.pi / 2),
                                   rng, postselect_zero=True)
    target = 1.0 / (n * j * j)
    assert target / 1.5 < variance < target * 1.5


def test_run_accumulation_no_shots_is_flat(rng):
    w = math.pi / 2
    post, variance = run_accumulation(10.0, 0, 0.0, (-w, w), rng)
    assert variance == pytest.approx(w ** 2 / 3.0, rel=1e-6)
    assert np.max(post.density) == pytest.approx(np.min(post.density),
                                                 rel=1e-12)
