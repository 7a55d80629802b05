"""The trial-batched estimation core against a scalar, one-trial reference.

The reference functions below are the estimators as they were written one
trial and one theta at a time: a per-theta likelihood scan, a scalar golden
section and a per-grid-point Bayes mean.  The batched core must reproduce
them: MLE estimates within 2 GOLDEN_TOL plus the float64 rounding floor of
the log-likelihood's maximum, Bayes means within 1e-12 relative.
"""

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fisherlab import (DataSet, ExcessiveFailures, ModelKind, ParametricModel,
                       SlitGeometry, TrialConfig, bernoulli_model,
                       farfield_model, fisher_information,
                       gaussian_location_model, log_likelihood,
                       run_trials, sample_outcomes)
from fisherlab.cli import _montecarlo_model
from fisherlab.models import (FLAT_TOL, GOLDEN_TOL, GRID_SCAN_POINTS,
                              mle_batch)
from fisherlab.montecarlo import (BAYES_GRID_POINTS, TRIAL_BLOCK,
                                  _bayes_means, _trial_blocks, _trial_rng)

_INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# scalar reference


def ref_log_likelihood(model, counts, theta):
    p = model.probabilities(theta)
    seen = counts > 0
    if np.any(p[seen] <= 0.0):
        return -math.inf
    return float(np.dot(counts[seen], np.log(p[seen])))


def ref_golden_max(f, lo, hi, tol=GOLDEN_TOL):
    a, b = lo, hi
    c = b - _INVGOLD * (b - a)
    d = a + _INVGOLD * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVGOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVGOLD * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def ref_scan(model, counts):
    grid = np.linspace(*model.theta_domain, GRID_SCAN_POINTS)
    return grid, np.array([ref_log_likelihood(model, counts, t) for t in grid])


def ref_mle(model, counts):
    """Scan plus scalar golden section; None for a flat likelihood."""
    grid, ll = ref_scan(model, counts)
    finite = np.isfinite(ll)
    if not np.any(finite):
        return None
    if np.count_nonzero(finite) > 1 and ll[finite].max() - ll[finite].min() < FLAT_TOL:
        return None
    best = int(np.argmax(ll))
    return ref_golden_max(lambda t: ref_log_likelihood(model, counts, t),
                          grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)])


def ref_bayes_mean(model, counts):
    """Per-grid-point posterior mean; None when it vanishes."""
    grid = np.linspace(*model.theta_domain, BAYES_GRID_POINTS)
    ll = np.array([ref_log_likelihood(model, counts, t) for t in grid])
    if not np.any(np.isfinite(ll)):
        return None
    weights = np.exp(ll - ll[np.isfinite(ll)].max())
    total = np.trapezoid(weights, grid)
    return float(np.trapezoid(grid * weights, grid) / total)


# ---------------------------------------------------------------------------
# models


def mz_model(n1, n2):
    return _montecarlo_model(argparse.Namespace(model="mz", n1=n1, n2=n2, hbar=1.0))


MODELS = {
    "bernoulli": (bernoulli_model, 0.3, 200),
    "gaussian": (gaussian_location_model, 0.4, 30),
    "slit_2001": (lambda: farfield_model(SlitGeometry(), mu_max=20.0, n_points=2001),
                  0.3, 300),
    "mz": (lambda: mz_model(8, 3), 1.1, 100),
}


def sampled(model, theta, n, trials, seed=17):
    return np.array([sample_outcomes(model, theta, n, _trial_rng(seed, t)).counts
                     for t in range(trials)])


def rounding_floor(model, counts, theta):
    """Distance from the maximum inside which rounding decides the golden
    section.  Two summation orders of sum c ln p differ by up to
    ~4 eps sum|c ln p|; points whose log-likelihoods lie within twice that
    of each other can be ranked either way, and the log-likelihood falls
    by n F d^2 / 2 at a distance d from the maximum."""
    p = model.probabilities(theta)
    seen = counts > 0
    noise = 4.0 * np.finfo(float).eps * np.sum(np.abs(counts[seen] * np.log(p[seen])))
    return math.sqrt(4.0 * noise / (counts.sum() * fisher_information(model, theta)))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_mle_batch_matches_scalar_reference(name):
    factory, theta, n = MODELS[name]
    model = factory()
    counts = sampled(model, theta, n, trials=5)
    batched = mle_batch(model, DataSet(counts=counts))
    for row, est in zip(counts, batched):
        ref = ref_mle(model, row)
        assert abs(est - ref) <= 2 * GOLDEN_TOL + rounding_floor(model, row, ref)


@pytest.mark.parametrize("name", ["bernoulli", "gaussian", "mz"])
def test_bayes_means_match_scalar_reference(name):
    factory, theta, n = MODELS[name]
    model = factory()
    counts = sampled(model, theta, n, trials=4)
    batched = _bayes_means(model, DataSet(counts=counts))
    for row, est in zip(counts, batched):
        assert est == pytest.approx(ref_bayes_mean(model, row), rel=1e-12)


def test_block_counts_equal_sample_outcomes():
    model = mz_model(5, 2)
    config = TrialConfig(model=model, theta_true=0.9, n_particles=40,
                         n_trials=TRIAL_BLOCK + 7, rng_seed=8)
    blocks = list(_trial_blocks(config))
    assert [b.counts.shape[0] for b in blocks] == [TRIAL_BLOCK, 7]
    counts = np.concatenate([b.counts for b in blocks])
    for t, row in enumerate(counts):
        expected = sample_outcomes(model, 0.9, 40, _trial_rng(8, t)).counts
        assert np.array_equal(row, expected)


@pytest.mark.parametrize("estimator", ["mle", "bayes_mean"])
def test_run_spanning_several_blocks_matches_reference(estimator):
    model = bernoulli_model()
    n_trials = TRIAL_BLOCK + 11        # a full block and a partial one
    config = TrialConfig(model=model, theta_true=0.3, n_particles=60,
                         n_trials=n_trials, rng_seed=3, estimator=estimator)
    report = run_trials(config)
    ref = ref_mle if estimator == "mle" else ref_bayes_mean
    est = np.array([ref(model, row)
                    for row in sampled(model, 0.3, 60, n_trials, seed=3)])
    assert report.failures == 0
    if estimator == "mle":
        assert abs(report.empirical_mean - est.mean()) <= 2 * GOLDEN_TOL
        assert report.empirical_variance == pytest.approx(est.var(ddof=1), rel=1e-4)
    else:
        assert report.empirical_mean == pytest.approx(est.mean(), rel=1e-12)
        assert report.empirical_variance == pytest.approx(est.var(ddof=1), rel=1e-9)


def test_scan_table_with_infinite_entries():
    # p = 0 at the domain ends: an observed outcome there gives -inf, an
    # unobserved one contributes 0 (never 0 * -inf = NaN)
    model = ParametricModel(kind=ModelKind.DISCRETE, outcomes=np.array([0, 1]),
                            prob=lambda t: np.array([t, 1.0 - t]),
                            theta_domain=(0.0, 1.0))
    counts = np.array([[3.0, 7.0], [10.0, 0.0], [0.0, 10.0]])
    grid = np.linspace(0.0, 1.0, GRID_SCAN_POINTS)
    table = log_likelihood(model, DataSet(counts=counts), grid[:, None])
    assert not np.any(np.isnan(table))
    assert np.any(np.isinf(table))
    for t, row in enumerate(counts):
        _, ref = ref_scan(model, row)
        assert np.array_equal(np.isinf(table[:, t]), np.isinf(ref))
        assert np.argmax(table[:, t]) == np.argmax(ref)
        finite = np.isfinite(ref)
        assert np.allclose(table[finite, t], ref[finite], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("estimator", ["mle", "bayes_mean"])
def test_likelihood_infinite_on_whole_domain_counts_as_failure(estimator):
    # outcome 1 has probability 0 everywhere on the domain but not at theta_true
    model = ParametricModel(
        kind=ModelKind.DISCRETE, outcomes=np.array([0, 1]),
        prob=lambda t: np.array([1.0, 0.0]) if t < 1.0 else np.array([0.5, 0.5]),
        theta_domain=(0.0, 0.9))
    config = TrialConfig(model=model, theta_true=2.0, n_particles=20,
                         n_trials=10, rng_seed=1, estimator=estimator)
    with pytest.raises(ExcessiveFailures):
        run_trials(config)
    data = next(_trial_blocks(config))
    estimates = (mle_batch if estimator == "mle" else _bayes_means)(model, data)
    assert np.all(np.isnan(estimates))


# ---------------------------------------------------------------------------
# property: batched log_likelihood equals the per-theta scalar value


def kernel_model(n_outcomes, support):
    """Bump of half-width ``support`` outcomes centred at t (n - 1); with a
    finite support most outcomes have probability exactly 0 at any theta."""
    k = np.arange(n_outcomes)

    def prob(t):
        x = (k - t * (n_outcomes - 1)) / support
        w = np.exp(-x ** 2) if math.isinf(support) else np.clip(1.0 - np.abs(x), 0.0, None)
        return w / w.sum()

    return ParametricModel(kind=ModelKind.DISCRETE, outcomes=k, prob=prob,
                           theta_domain=(0.0, 1.0), name="kernel")


PROPERTY_MODELS = [kernel_model(7, math.inf), kernel_model(9, 2.5)]


@st.composite
def counts_and_thetas(draw):
    model_i = draw(st.integers(0, len(PROPERTY_MODELS) - 1))
    model = PROPERTY_MODELS[model_i]
    n_trials = draw(st.integers(1, 4))
    rows = []
    for _ in range(n_trials):
        row = draw(st.lists(st.integers(0, 30), min_size=model.n_outcomes,
                            max_size=model.n_outcomes).filter(lambda r: sum(r) > 0))
        rows.append(row)
    lo, hi = model.theta_domain
    thetas = draw(st.lists(st.floats(lo, hi), min_size=n_trials, max_size=n_trials))
    return model_i, np.array(rows, dtype=float), np.array(thetas)


@settings(max_examples=60, deadline=None)
@given(counts_and_thetas())
def test_batched_log_likelihood_equals_scalar(case):
    model_i, counts, thetas = case
    model = PROPERTY_MODELS[model_i]
    data = DataSet(counts=counts)
    table = log_likelihood(model, data, thetas[:, None])
    paired = log_likelihood(model, data, thetas)
    for t, row in enumerate(counts):
        for g, theta in enumerate(thetas):
            assert table[g, t] == pytest.approx(
                ref_log_likelihood(model, row, theta), rel=1e-12, abs=1e-12)
        assert paired[t] == pytest.approx(table[t, t], rel=1e-12, abs=1e-12)
