"""Repeated-experiment harness: sampling, MLE/Bayes trials, accumulation runs.

Sampling is inverse-CDF on the (discrete or gridded) distribution: one code
path, a deterministic number of draws per trial.  Trials use independent RNG
substreams derived from (seed, trial index) so a run is reproducible and
order-independent; reports are pure functions of the configuration.

Trials are estimated in blocks of TRIAL_BLOCK, all trials of a block in
lockstep: the block's counts form one batched ``DataSet``, and both
estimators read ``log_likelihood`` tables over (theta values x trials).  The
MLE is ``models.mle_batch`` (one scan table, a lockstep golden section); the
Bayes mean reads one table on its BAYES_GRID_POINTS-point grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ExcessiveFailures
from .interferometer import (FockInput, Posterior, outcome_distribution,
                             posterior_flat, posterior_update)
from .models import (DataSet, ModelKind, ParametricModel, fisher_information,
                     log_likelihood, mle_batch)

RNG_ALGORITHM = "numpy PCG64, substream per trial via SeedSequence(seed, trial)"
MAX_FAILURE_RATE = 0.01
BAYES_GRID_POINTS = 1001
# Trials estimated together; bounds a block's counts matrix and its tables.
TRIAL_BLOCK = 256


@dataclass(frozen=True)
class TrialConfig:
    """One repeated-experiment campaign; the report is a function of this."""

    model: ParametricModel
    theta_true: float
    n_particles: int
    n_trials: int
    rng_seed: int
    estimator: Literal["mle", "bayes_mean"] = "mle"

    def __post_init__(self):
        if self.n_particles < 1 or self.n_trials < 1:
            raise ValueError("n_particles and n_trials must be at least 1")


@dataclass(frozen=True)
class TrialReport:
    model: str
    theta_true: float
    n_particles: int
    n_trials: int
    seed: int
    empirical_mean: float
    empirical_variance: float
    crb: float
    efficiency: float
    failures: int
    rng: str = RNG_ALGORITHM

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "theta_true": self.theta_true,
            "n_particles": self.n_particles,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "empirical_mean": self.empirical_mean,
            "empirical_variance": self.empirical_variance,
            "crb": self.crb,
            "efficiency": self.efficiency,
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _outcome_masses(model: ParametricModel, theta: float) -> np.ndarray:
    """Per-outcome sampling masses: probabilities, or trapezoid cell weights."""
    p = model.probabilities(theta)
    if model.kind is ModelKind.CONTINUOUS_GRID:
        grid = model.outcomes.astype(float)
        h = grid[1] - grid[0]
        w = np.full_like(p, h)
        w[0] = w[-1] = h / 2.0
        p = p * w
    return p / p.sum()


def _sampling_cdf(model: ParametricModel, theta: float) -> np.ndarray:
    cdf = np.cumsum(_outcome_masses(model, theta))
    cdf[-1] = 1.0
    return cdf


def _draw_counts(cdf: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    return np.bincount(idx, minlength=cdf.size).astype(float)


def sample_outcomes(model: ParametricModel, theta: float, n: int,
                    rng: np.random.Generator) -> DataSet:
    """n i.i.d. inverse-CDF draws, returned as counts per outcome."""
    return DataSet(counts=_draw_counts(_sampling_cdf(model, theta), n, rng))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def _trial_blocks(config: TrialConfig):
    """The campaign's counts, TRIAL_BLOCK trials per batched DataSet.

    Trial t draws from its own substream, exactly as ``sample_outcomes``
    would; the sampling CDF at theta_true is formed once.
    """
    cdf = _sampling_cdf(config.model, config.theta_true)
    for start in range(0, config.n_trials, TRIAL_BLOCK):
        stop = min(start + TRIAL_BLOCK, config.n_trials)
        yield DataSet(counts=np.array([
            _draw_counts(cdf, config.n_particles, _trial_rng(config.rng_seed, t))
            for t in range(start, stop)]))


def _bayes_means(model: ParametricModel, data: DataSet) -> np.ndarray:
    """Posterior mean of every trial under a flat prior on the parameter
    domain; NaN where the posterior vanishes on the whole grid."""
    lo, hi = model.theta_domain
    grid = np.linspace(lo, hi, BAYES_GRID_POINTS)
    ll = log_likelihood(model, data, grid[:, None])
    peak = ll.max(axis=0)
    ok = np.isfinite(peak)
    weights = np.exp(ll - np.where(ok, peak, 0.0))
    total = np.trapezoid(weights, grid, axis=0)
    ok &= total > 0
    mean = np.trapezoid(grid[:, None] * weights, grid, axis=0) / np.where(ok, total, 1.0)
    return np.where(ok, mean, np.nan)


def run_trials(config: TrialConfig) -> TrialReport:
    """Run the campaign and compare the empirical variance to 1/(n F).

    Per-trial estimation failures (flat likelihoods, vanished posteriors) are
    counted; above a 1% failure rate the whole run is rejected.
    """
    model = config.model
    estimator = mle_batch if config.estimator == "mle" else _bayes_means
    est = np.concatenate([estimator(model, data) for data in _trial_blocks(config)])
    failed = np.isnan(est)
    failures = int(failed.sum())
    if failures > MAX_FAILURE_RATE * config.n_trials:
        raise ExcessiveFailures(f"{failures}/{config.n_trials} trials failed")

    est = est[~failed]
    mean = float(est.mean())
    variance = float(est.var(ddof=1)) if est.size > 1 else 0.0
    bound = 1.0 / (config.n_particles
                   * fisher_information(model, config.theta_true))
    return TrialReport(
        model=model.name,
        theta_true=config.theta_true,
        n_particles=config.n_particles,
        n_trials=config.n_trials,
        seed=config.rng_seed,
        empirical_mean=mean,
        empirical_variance=variance,
        crb=bound,
        efficiency=bound / variance if variance > 0 else float("inf"),
        failures=failures,
    )


def run_accumulation(j: float, n_repeats: int, phi_true: float,
                     window: tuple[float, float],
                     rng: np.random.Generator,
                     postselect_zero: bool = False,
                     n_points: int = 4001,
                     on_posterior: Callable[[Posterior], None] | None = None
                     ) -> tuple[Posterior, float]:
    """Accumulate single-shot m = 0 interferometer outcomes into a posterior.

    Samples ``n_repeats`` outcomes at the true phase, one uniform draw per
    shot from the inverse CDF of p_k(phi_true) (computed once per run), and
    applies a Bayes update per shot.  With ``postselect_zero`` the record is
    conditioned on the most optimistic all-zero outcome sequence instead of
    being sampled.  ``on_posterior``, when given, receives every posterior as
    it is formed, the flat prior first, so a caller can record all prefixes
    of the run in one pass.
    """
    if n_repeats < 0:
        raise ValueError("n_repeats must be non-negative")
    two_j = int(round(2 * j))
    source = FockInput(n1=two_j // 2, n2=two_j - two_j // 2)
    if source.m != 0:
        raise ValueError("accumulation runs use the balanced m = 0 input")
    post = posterior_flat(window=window, n_points=n_points)
    if on_posterior is not None:
        on_posterior(post)
    if n_repeats and not postselect_zero:
        cdf = np.cumsum(outcome_distribution(source, phi_true))
        cdf[-1] = 1.0
        k_values = source.j - np.arange(two_j + 1)
    for _ in range(n_repeats):
        if postselect_zero:
            outcome = 0.0
        else:
            outcome = float(k_values[np.searchsorted(cdf, rng.random(), side="right")])
        post = posterior_update(post, source, outcome)
        if on_posterior is not None:
            on_posterior(post)
    return post, post.variance()
