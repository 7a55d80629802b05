"""Sampling and repeated-experiment harness."""

import json
import math

import numpy as np
import pytest

from fisherlab import (DataSet, DegenerateModel, ExcessiveFailures, ModelKind,
                       ParametricModel, TrialConfig, bernoulli_model,
                       run_accumulation, run_trials, sample_outcomes)
from fisherlab.montecarlo import _outcome_masses, _trial_rng


# ---------------------------------------------------------------------------
# sampling


def test_point_mass_sampling():
    model = bernoulli_model()
    rng = np.random.default_rng(1)
    data = sample_outcomes(model, 1.0 - 1e-15, 500, rng)
    assert data.counts[0] == 500
    assert data.counts[1] == 0


def test_sampling_determinism():
    model = bernoulli_model()
    a = sample_outcomes(model, 0.37, 1000, np.random.default_rng(42))
    b = sample_outcomes(model, 0.37, 1000, np.random.default_rng(42))
    assert np.array_equal(a.counts, b.counts)


def test_outcome_masses_sum_to_one(slit_model):
    masses = _outcome_masses(slit_model, 0.7)
    assert masses.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(masses >= 0.0)


def test_slit_sampling_goodness_of_fit(slit_model):
    # 1e5 draws, chi^2 over 50 equal-width bins covering the central lobes
    n = 100_000
    data = sample_outcomes(slit_model, 0.0, n, np.random.default_rng(7))
    grid = slit_model.outcomes.astype(float)
    masses = _outcome_masses(slit_model, 0.0)
    edges = np.linspace(-5.0, 5.0, 51)
    idx = np.searchsorted(edges, grid, side="right") - 1
    inside = (idx >= 0) & (idx < 50)
    observed = np.bincount(idx[inside], weights=data.counts[inside],
                           minlength=50)
    expected = n * np.bincount(idx[inside], weights=masses[inside],
                               minlength=50)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 / 49.0 < 1.5


def test_trial_substreams_differ():
    r0 = _trial_rng(5, 0).random(4)
    r1 = _trial_rng(5, 1).random(4)
    assert not np.allclose(r0, r1)
    assert np.allclose(r0, _trial_rng(5, 0).random(4))


# ---------------------------------------------------------------------------
# repeated trials


def test_bernoulli_efficiency():
    config = TrialConfig(model=bernoulli_model(), theta_true=0.5,
                         n_particles=1000, n_trials=10_000, rng_seed=11)
    report = run_trials(config)
    assert report.failures == 0
    assert 0.9 < report.efficiency < 1.1
    assert report.empirical_mean == pytest.approx(0.5, abs=0.002)
    # oracle: the closed-form MLE k/n has variance theta(1-theta)/n = crb
    assert report.crb == pytest.approx(0.25 / 1000, rel=1e-9)


def test_variance_scales_inversely_with_n():
    reports = []
    for n in (250, 1000):
        config = TrialConfig(model=bernoulli_model(), theta_true=0.4,
                             n_particles=n, n_trials=3000, rng_seed=3)
        reports.append(run_trials(config))
    ratio = reports[0].empirical_variance / reports[1].empirical_variance
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_report_is_deterministic(slit_model):
    config = TrialConfig(model=slit_model, theta_true=0.3, n_particles=500,
                         n_trials=50, rng_seed=123)
    a = run_trials(config).to_json()
    b = run_trials(config).to_json()
    assert a == b
    parsed = json.loads(a)
    assert parsed["model"] == "slit"
    assert parsed["seed"] == 123
    assert parsed["efficiency"] > 0


def test_bayes_mean_estimator():
    config = TrialConfig(model=bernoulli_model(), theta_true=0.5,
                         n_particles=400, n_trials=400, rng_seed=9,
                         estimator="bayes_mean")
    report = run_trials(config)
    assert report.empirical_mean == pytest.approx(0.5, abs=0.01)
    assert 0.5 < report.efficiency < 1.5


def test_excessive_failures_raises():
    flat = ParametricModel(
        kind=ModelKind.DISCRETE,
        outcomes=np.array([0, 1]),
        prob=lambda t: np.array([0.5, 0.5]),
        theta_domain=(0.0, 1.0),
    )
    config = TrialConfig(model=flat, theta_true=0.5, n_particles=10,
                         n_trials=20, rng_seed=0)
    with pytest.raises(ExcessiveFailures):
        run_trials(config)


def test_degenerate_model_fails_before_any_trial(monkeypatch):
    import fisherlab.montecarlo as mc_mod

    def no_trials(config):
        raise AssertionError("trials ran on a one-outcome model")

    monkeypatch.setattr(mc_mod, "_trial_blocks", no_trials)
    single = ParametricModel(
        kind=ModelKind.DISCRETE,
        outcomes=np.array([0]),
        prob=lambda t: np.array([1.0]),
        theta_domain=(0.0, 1.0),
    )
    config = TrialConfig(model=single, theta_true=0.5, n_particles=10,
                         n_trials=20, rng_seed=0)
    with pytest.raises(DegenerateModel):
        run_trials(config)


def test_config_validation(slit_model):
    with pytest.raises(ValueError):
        TrialConfig(model=slit_model, theta_true=0.0, n_particles=0,
                    n_trials=10, rng_seed=0)
    with pytest.raises(ValueError):
        TrialConfig(model=slit_model, theta_true=0.0, n_particles=10,
                    n_trials=0, rng_seed=0)


# ---------------------------------------------------------------------------
# accumulation runs


def test_accumulation_no_shots_flat():
    w = 1.0
    post, variance = run_accumulation(20.0, 0, 0.0, (-w, w),
                                      np.random.default_rng(0))
    assert variance == pytest.approx(w ** 2 / 3.0, rel=1e-6)


def test_accumulation_postselected_concentration():
    _, variance = run_accumulation(50.0, 4, 0.0, (-math.pi / 2, math.pi / 2),
                                   np.random.default_rng(1),
                                   postselect_zero=True)
    assert 1e-4 / 1.5 < variance < 1e-4 * 1.5


def test_accumulation_sampled_record_tightens():
    rng = np.random.default_rng(2)
    _, v1 = run_accumulation(50.0, 1, 0.0, (-math.pi / 2, math.pi / 2),
                             np.random.default_rng(2))
    _, v8 = run_accumulation(50.0, 8, 0.0, (-math.pi / 2, math.pi / 2),
                             np.random.default_rng(2))
    assert v8 < v1


def test_accumulation_determinism():
    args = (50.0, 3, 0.05, (-math.pi / 2, math.pi / 2))
    _, v1 = run_accumulation(*args, np.random.default_rng(5))
    _, v2 = run_accumulation(*args, np.random.default_rng(5))
    assert v1 == v2
