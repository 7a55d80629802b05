"""Slit diffraction: density, Fisher information, uncertainty chain."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from fisherlab import (PhaseUnwrapFailure, Representation, SlitGeometry,
                       SlitWavefunction, farfield_density, fisher_information,
                       fisher_from_wavefunction, fisher_slit, position_variance,
                       sinc, sinc_deriv, slit_wavefunction,
                       truncated_momentum_variance, uncertainty_chain)


def _tail_mass(w: float) -> float:
    """Analytic density mass beyond [-w, w]: (2/pi) int_w^inf sinc^2."""
    si, _ = sici(2.0 * w)
    return (2.0 / math.pi) * (math.pi / 2.0 - si + math.sin(w) ** 2 / w)


# ---------------------------------------------------------------------------
# density


def test_density_peak_value():
    assert farfield_density(0.0) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_density_first_minimum():
    assert farfield_density(math.pi) == pytest.approx(0.0, abs=1e-30)
    assert farfield_density(math.pi + 0.3) > 0.0


def test_density_shift_parameter():
    assert farfield_density(1.7, nu=1.7) == pytest.approx(1.0 / math.pi,
                                                          rel=1e-12)


def test_density_window_plus_tail_is_normalized():
    mu = np.linspace(-40.0, 40.0, 8001)
    window_mass = np.trapezoid(farfield_density(mu), mu)
    assert window_mass + _tail_mass(40.0) == pytest.approx(1.0, abs=1e-6)


def test_model_grid_normalization(slit_model):
    for theta in (-1.0, 0.0, 2.5):
        slit_model.validate(theta)


def test_sinc_derivative_series_matches_quotient():
    # away from zero the quotient form is well conditioned; near zero the
    # truncated Taylor series must hold to its own remainder (x^5/840)
    x = np.array([2e-4, 1e-2, 0.1, 3.0])
    expected = np.cos(x) / x - np.sin(x) / x ** 2
    assert np.allclose(sinc_deriv(x), expected, rtol=1e-9, atol=1e-15)
    xs = np.array([1e-7, 1e-5, 9e-5])
    taylor = -xs / 3.0 + xs ** 3 / 30.0
    assert np.allclose(sinc_deriv(xs), taylor, rtol=0.0, atol=xs[-1] ** 5)
    assert sinc_deriv(0.0) == 0.0
    assert sinc(0.0) == 1.0


def test_log_prob_at_matches_log_of_prob(slit_model):
    # the in-place ln sinc^2 - ln pi - log Z against the renormalized density
    idx = np.arange(slit_model.n_outcomes)
    for theta in (-7.3, -1.0, 0.0, 0.004, 2.5, 7.99):
        lnp = slit_model.log_prob_at(idx, np.array([[theta]]))[0]
        ref = np.log(slit_model.probabilities(theta))
        assert np.max(np.abs(lnp - ref)) <= 1e-13


# ---------------------------------------------------------------------------
# Fisher information of the pattern


def test_fisher_slit_analytic_value(geometry):
    assert fisher_slit(geometry) == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_fisher_slit_shift_invariance():
    # a location family's information cannot depend on the peak position
    f0 = fisher_slit(SlitGeometry(k_x=0.0))
    f1 = fisher_slit(SlitGeometry(k_x=2.0))
    assert abs(f0 - f1) < 1e-8


def test_fisher_slit_vs_quadrature_oracle(geometry):
    # independent oracle: piecewise adaptive quadrature of (8/pi) times
    # int_0^W (d/dt sinc t)^2 dt, with the remainder beyond W bounded by
    # 1/(2W) plus oscillatory terms smaller than 2/W^2
    def integrand(t):
        return (math.cos(t) / t - math.sin(t) / t ** 2) ** 2

    w = 4000.0
    edges = np.linspace(1e-3, w, 801)
    main = sum(quad(integrand, a, b, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))
    head = quad(lambda t: (t / 3.0 - t ** 3 / 30.0) ** 2, 0.0, 1e-3)[0]
    oracle = 8.0 / math.pi * (head + main + 1.0 / (2.0 * w))
    assert fisher_slit(geometry) == pytest.approx(oracle, abs=2e-6)


def test_fisher_analytic_vs_finite_difference_derivative(geometry):
    from fisherlab import farfield_model
    from dataclasses import replace
    model = farfield_model(geometry, mu_max=20.0, n_points=2001)
    fd_model = replace(model, dprob=None)
    assert fisher_information(model, 0.4) == pytest.approx(
        fisher_information(fd_model, 0.4), abs=1e-5)


# ---------------------------------------------------------------------------
# position variance and the uncertainty chain


def test_position_variance_default(geometry):
    assert position_variance(geometry) == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_position_variance_scaling():
    assert position_variance(SlitGeometry(a=2.0)) == pytest.approx(
        1.0 / 3.0, rel=1e-12)


def test_position_variance_vs_quadrature_oracle():
    a = 1.7
    oracle = quad(lambda x: x ** 2 / a, -a / 2.0, a / 2.0)[0]
    assert position_variance(SlitGeometry(a=a)) == pytest.approx(oracle,
                                                                 abs=1e-10)


def test_uncertainty_chain_saturates(geometry):
    dp2_bound, heis_bound, product = uncertainty_chain(geometry)
    assert dp2_bound == pytest.approx(3.0, abs=3e-6)
    assert heis_bound == pytest.approx(3.0, rel=1e-10)
    assert product == pytest.approx(0.25, rel=1e-6)


def test_uncertainty_chain_hbar_scaling():
    _, _, product = uncertainty_chain(SlitGeometry(hbar=2.0))
    assert product == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# wavefunction-level Fisher information


def test_wavefunction_norms(geometry):
    psi_x = slit_wavefunction(geometry, Representation.POSITION)
    psi_p = slit_wavefunction(geometry, Representation.MOMENTUM)
    assert psi_x.norm() == pytest.approx(1.0, abs=1e-10)
    assert psi_p.norm() == pytest.approx(1.0, abs=1e-6)


def test_fisher_from_wavefunction_slit(geometry):
    psi = slit_wavefunction(geometry, Representation.MOMENTUM)
    f_p, variance_term, phase_term = fisher_from_wavefunction(psi)
    # real amplitude, zero mean position: the phase term must vanish and
    # the decomposition collapses to the variance term
    assert abs(phase_term) < 1e-8
    # near the density zeros the support mask clips the direct quadrature,
    # costing a few parts in 1e6; the identity contract is 1e-4 relative
    assert f_p == pytest.approx(variance_term, rel=1e-4)
    assert f_p == pytest.approx(fisher_slit(geometry), rel=1e-2)


def test_fisher_decomposition_gaussian_linear_phase(geometry):
    # minimum-uncertainty family: Gaussian envelope with linear phase has a
    # vanishing phase term for any slope
    grid = np.linspace(-30.0, 30.0, 60001)
    for beta in (0.0, 0.8, -2.3):
        amp = np.exp(-grid ** 2 / 4.0) * np.exp(1j * beta * grid)
        amp /= math.sqrt(np.trapezoid(np.abs(amp) ** 2, grid))
        psi = SlitWavefunction(geometry=geometry,
                               representation=Representation.MOMENTUM,
                               grid=grid, amplitude=amp)
        f_p, variance_term, phase_term = fisher_from_wavefunction(psi)
        assert abs(phase_term) < 1e-8
        assert f_p == pytest.approx(variance_term - phase_term, rel=1e-6)


def test_fisher_decomposition_identity_random_states(geometry, rng):
    # the three returned numbers always satisfy F = var - phase, by
    # construction of gauge-invariant derivatives on the common grid
    grid = np.linspace(-20.0, 20.0, 40001)
    for _ in range(5):
        width = rng.uniform(0.5, 3.0)
        center = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        amp = np.exp(-(grid - center) ** 2 / (2 * width ** 2) + 1j * beta * grid)
        amp /= math.sqrt(np.trapezoid(np.abs(amp) ** 2, grid))
        psi = SlitWavefunction(geometry=geometry,
                               representation=Representation.MOMENTUM,
                               grid=grid, amplitude=amp)
        f_p, variance_term, phase_term = fisher_from_wavefunction(psi)
        assert f_p == pytest.approx(variance_term - phase_term, rel=1e-10)


def test_phase_unwrap_guard(geometry):
    # a phase oscillating faster than the grid can resolve must be refused
    grid = np.linspace(-5.0, 5.0, 501)
    amp = np.exp(-grid ** 2) * np.exp(1j * 75.0 * grid)
    amp /= math.sqrt(np.trapezoid(np.abs(amp) ** 2, grid))
    psi = SlitWavefunction(geometry=geometry,
                           representation=Representation.MOMENTUM,
                           grid=grid, amplitude=amp)
    with pytest.raises(PhaseUnwrapFailure):
        fisher_from_wavefunction(psi)


# ---------------------------------------------------------------------------
# heavy tails of the momentum distribution


def test_truncated_variance_small_window(geometry):
    assert truncated_momentum_variance(geometry, 1e-6) == pytest.approx(
        0.0, abs=1e-9)


def test_truncated_variance_asymptote(geometry):
    for w in (1e2, 1e3, 1e4):
        v = truncated_momentum_variance(geometry, w)
        assert v == pytest.approx(w / math.pi, rel=0.05)


def test_truncated_variance_monotone_and_doubling(geometry):
    v5 = truncated_momentum_variance(geometry, 5.0)
    v10 = truncated_momentum_variance(geometry, 10.0)
    v20 = truncated_momentum_variance(geometry, 20.0)
    assert v20 > v10 > v5 > 0.0
    assert v20 / v10 == pytest.approx(2.0, rel=0.15)


def test_truncated_variance_vs_quadrature_oracle(geometry):
    w = 30.0
    oracle = 2.0 * quad(lambda m: m ** 2 * math.sin(m) ** 2 / (math.pi * m ** 2),
                        0.0, w, limit=500)[0]
    assert truncated_momentum_variance(geometry, w) == pytest.approx(
        oracle, rel=1e-6)
