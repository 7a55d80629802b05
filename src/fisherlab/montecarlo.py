"""Repeated-experiment harness: sampling, MLE/Bayes trials, accumulation runs.

Sampling is inverse-CDF on the (discrete or gridded) distribution: one code
path, a deterministic number of draws per trial.  Trials use independent RNG
substreams derived from (seed, trial index) so a run is reproducible and
order-independent; reports are pure functions of the configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import ExcessiveFailures, FlatLikelihood
from .interferometer import (FockInput, Posterior, outcome_distribution,
                             posterior_flat, posterior_update)
from .models import (DataSet, GRID_SCAN_POINTS, ModelKind, ParametricModel,
                     _golden_max, fisher_information, log_likelihood)

RNG_ALGORITHM = "numpy PCG64, substream per trial via SeedSequence(seed, trial)"
MAX_FAILURE_RATE = 0.01
BAYES_GRID_POINTS = 1001


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


def sample_outcomes(model: ParametricModel, theta: float, n: int,
                    rng: np.random.Generator) -> DataSet:
    """n i.i.d. inverse-CDF draws, returned as counts per outcome."""
    cdf = np.cumsum(_outcome_masses(model, theta))
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    return DataSet(counts=np.bincount(idx, minlength=model.n_outcomes).astype(float))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, trial)))


def _fast_mle(model: ParametricModel, counts: np.ndarray,
              scan_lnp: np.ndarray, scan_grid: np.ndarray) -> float:
    """Grid scan via a precomputed log-probability table, then golden refine."""
    nz = np.flatnonzero(counts)
    cnz = counts[nz]
    ll = scan_lnp[:, nz] @ cnz
    finite = np.isfinite(ll)
    if not np.any(finite):
        raise FlatLikelihood("likelihood is -inf on the whole domain")
    if finite.sum() > 1 and ll[finite].max() - ll[finite].min() < 1e-12:
        raise FlatLikelihood("flat likelihood")
    best = int(np.argmax(ll))
    lo = scan_grid[max(best - 1, 0)]
    hi = scan_grid[min(best + 1, scan_grid.size - 1)]

    if model.log_prob_at is not None:
        def ll_at(theta: float) -> float:
            lnp = model.log_prob_at(nz, theta)
            return float(cnz @ lnp) if np.all(np.isfinite(lnp)) else -np.inf
    else:
        def ll_at(theta: float) -> float:
            p = model.probabilities(theta)[nz]
            if np.any(p <= 0.0):
                return -np.inf
            return float(cnz @ np.log(p))

    return _golden_max(ll_at, lo, hi)


def _bayes_mean(model: ParametricModel, counts: np.ndarray) -> float:
    """Posterior mean under a flat prior on the parameter domain."""
    lo, hi = model.theta_domain
    grid = np.linspace(lo, hi, BAYES_GRID_POINTS)
    nz = np.flatnonzero(counts)
    data = DataSet(counts=counts)
    ll = np.array([log_likelihood(model, data, t) for t in grid])
    ll -= ll[np.isfinite(ll)].max()
    weights = np.exp(ll)
    total = np.trapezoid(weights, grid)
    if total <= 0:
        raise FlatLikelihood("posterior vanished")
    return float(np.trapezoid(grid * weights, grid) / total)


def run_trials(config: TrialConfig) -> TrialReport:
    """Run the campaign and compare the empirical variance to 1/(n F).

    Per-trial estimation failures (flat likelihoods) are counted; above a 1%
    failure rate the whole run is rejected.
    """
    model = config.model
    scan_grid = np.linspace(*model.theta_domain, GRID_SCAN_POINTS)
    with np.errstate(divide="ignore"):
        scan_lnp = np.log(np.array([model.probabilities(t) for t in scan_grid]))

    estimates = []
    failures = 0
    for trial in range(config.n_trials):
        rng = _trial_rng(config.rng_seed, trial)
        data = sample_outcomes(model, config.theta_true, config.n_particles, rng)
        try:
            if config.estimator == "mle":
                estimates.append(_fast_mle(model, data.counts, scan_lnp, scan_grid))
            else:
                estimates.append(_bayes_mean(model, data.counts))
        except FlatLikelihood:
            failures += 1

    if failures > MAX_FAILURE_RATE * config.n_trials:
        raise ExcessiveFailures(f"{failures}/{config.n_trials} trials failed")

    est = np.array(estimates)
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
