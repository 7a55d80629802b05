"""Generic parametric statistical models: likelihood, MLE, Fisher information, CRB.

A model is a family ``theta -> p_x(theta)`` over a fixed outcome set.  Two
kinds are supported: plain discrete distributions (probabilities summing to 1)
and continuous densities sampled on a uniform grid (trapezoid integral 1).
All operations are pure functions over immutable values.

Estimation is batched over trials: a ``DataSet`` may hold one row of counts
per trial, and every estimate reads ``log_likelihood`` tables of
``sum_x c_x ln p_x(theta)`` over (theta values x trials).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateModel, FlatLikelihood

SUPPORT_EPS = 1e-14      # outcomes with p below this are excluded from p'^2/p
FD_STEP = 1e-5           # central-difference step when no analytic derivative
GRID_SCAN_POINTS = 201
GOLDEN_TOL = 1e-8
FLAT_TOL = 1e-12

_INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0


class ModelKind(Enum):
    DISCRETE = "discrete"
    CONTINUOUS_GRID = "continuous_grid"


def take_outcomes(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Entries of a (G, n_outcomes) table at outcome indices ``idx``: (U,)
    shared by every row, or (G, K) one index row per table row."""
    idx = np.broadcast_to(idx, (table.shape[0], np.shape(idx)[-1]))
    return np.take_along_axis(table, idx, axis=1)


@dataclass(frozen=True)
class ParametricModel:
    """Family of outcome probabilities (or grid densities) over one parameter.

    ``outcomes`` holds outcome labels for discrete models and the uniform grid
    for continuous ones.  ``prob`` maps theta to the probability/density
    vector; ``dprob``, when given, is its analytic theta-derivative, otherwise
    a central finite difference with step ``FD_STEP`` is used.
    """

    kind: ModelKind
    outcomes: np.ndarray
    prob: Callable[[float], np.ndarray]
    theta_domain: tuple[float, float]
    dprob: Optional[Callable[[float], np.ndarray]] = None
    name: str = "model"
    # Optional fast path for likelihood tables, log_prob_at(idx, theta): theta
    # is a column (G, 1); idx is (U,) outcome indices shared by every row or
    # (G, K) indices per row.  Returns the (G, U) or (G, K) values of
    # ln p_idx(theta), -inf where p = 0, agreeing with log(prob(theta)[idx]).
    log_prob_at: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "outcomes", np.asarray(self.outcomes))
        lo, hi = self.theta_domain
        if not lo < hi:
            raise ValueError("theta_domain must be a non-empty interval")
        if self.kind is ModelKind.CONTINUOUS_GRID:
            h = np.diff(self.outcomes.astype(float))
            if h.size < 1 or not np.allclose(h, h[0], rtol=1e-9, atol=0.0):
                raise ValueError("continuous models need a uniform grid")

    @property
    def n_outcomes(self) -> int:
        return self.outcomes.shape[0]

    def probabilities(self, theta: float) -> np.ndarray:
        p = np.asarray(self.prob(theta), dtype=float)
        if p.shape != (self.n_outcomes,):
            raise ValueError("prob(theta) shape does not match outcomes")
        return p

    def log_probabilities(self, idx: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """ln p at outcome indices ``idx`` for a column ``theta`` of G values.

        ``idx`` is (U,), shared by every row, or (G, K), one index row per
        theta; the result has the shape of ``idx`` broadcast to G rows, with
        -inf where p <= 0.  Uses the ``log_prob_at`` hook when the model has
        one, otherwise one ``probabilities`` row per theta.
        """
        theta = np.asarray(theta, dtype=float).reshape(-1, 1)
        if self.log_prob_at is not None:
            return self.log_prob_at(idx, theta)
        p = take_outcomes(np.array([self.probabilities(t) for t in theta[:, 0]]), idx)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0.0, np.log(p), -np.inf)

    def derivatives(self, theta: float) -> np.ndarray:
        if self.dprob is not None:
            return np.asarray(self.dprob(theta), dtype=float)
        lo, hi = self.theta_domain
        step = min(FD_STEP, (hi - lo) / 4.0)
        a = max(lo, theta - step)
        b = min(hi, theta + step)
        return (self.probabilities(b) - self.probabilities(a)) / (b - a)

    def integrate(self, values: np.ndarray) -> float:
        """Sum for discrete models, trapezoid quadrature for grid models."""
        if self.kind is ModelKind.DISCRETE:
            return float(np.sum(values))
        return float(np.trapezoid(values, self.outcomes.astype(float)))

    def validate(self, theta: float,
                 norm_tol: float | None = None,
                 dnorm_tol: float = 1e-8) -> None:
        """Check the normalization invariants at one parameter value."""
        p = self.probabilities(theta)
        if np.any(p < 0):
            raise ValueError("negative probabilities")
        if norm_tol is None:
            norm_tol = 1e-10 if self.kind is ModelKind.DISCRETE else 1e-8
        total = self.integrate(p)
        if abs(total - 1.0) > norm_tol:
            raise ValueError(f"normalization off by {total - 1.0:.3e}")
        dsum = self.integrate(self.derivatives(theta))
        if abs(dsum) > dnorm_tol:
            raise ValueError(f"derivative of normalization is {dsum:.3e}")


@dataclass(frozen=True)
class DataSet:
    """Observed counts per outcome, for one trial or a batch of trials.

    ``counts`` is (n_outcomes,) for one trial, or (T, n_outcomes) with one
    row per trial.  Counts are non-negative reals: integer for real data,
    fractional when a test substitutes the expected counts ``n * p_x`` for
    registered data.  Every trial records at least one particle.
    """

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        if c.ndim not in (1, 2) or np.any(c < 0) or not np.all(np.isfinite(c)):
            raise ValueError("counts must be a 1-d or 2-d array of non-negative numbers")
        if c.size == 0 or np.any(c.sum(axis=-1) < 1):
            raise ValueError("need at least one recorded particle")
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> float:
        """Recorded particles, summed over every trial of a batch."""
        return float(self.counts.sum())

    @functools.cached_property
    def observed(self) -> tuple[np.ndarray, np.ndarray]:
        """Each trial's observed outcomes as (T, K) indices and counts.

        K is the largest number of distinct outcomes any trial observed;
        shorter rows are padded with index 0 and count 0.
        """
        counts = np.atleast_2d(self.counts)
        trial, outcome = np.nonzero(counts)
        per_trial = np.bincount(trial, minlength=counts.shape[0])
        slot = np.arange(trial.size) - np.repeat(np.cumsum(per_trial) - per_trial,
                                                 per_trial)
        idx = np.zeros((counts.shape[0], per_trial.max()), dtype=np.intp)
        weights = np.zeros(idx.shape)
        idx[trial, slot] = outcome
        weights[trial, slot] = counts[trial, outcome]
        return idx, weights


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its asymptotic error budget; crb == 1/(n*fisher)."""

    theta_hat: float
    fisher: float
    crb: float


def log_likelihood(model: ParametricModel, data: DataSet, theta):
    """Sum of ``c_x * ln p_x(theta)`` per trial; outcomes with ``c_x == 0``
    contribute 0, even where p_x = 0.

    ``theta`` broadcasts against the trials of ``data``:

    - a column (G, 1) gives the (G, T) table of every theta against every
      trial, one matmul over the union of the observed outcomes;
    - a scalar or a (T,) vector gives one value per trial, trial t read at
      its own theta[t] on its own observed outcomes.

    One trial (1-d counts) with a scalar theta gives a float.  The value is
    ``-inf`` when some observed outcome has zero probability (the
    non-finite-likelihood flag); that case never raises or yields NaN.
    """
    counts = np.atleast_2d(data.counts)
    if counts.shape[1] != model.n_outcomes:
        raise ValueError("data does not align with model outcomes")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 2:
        union = np.flatnonzero(counts.any(axis=0))
        weights = counts[:, union].T
        lnp = model.log_probabilities(union, theta)
        finite = np.isfinite(lnp)
        ll = np.where(finite, lnp, 0.0) @ weights
        if not finite.all():
            ll[(~finite).astype(float) @ weights > 0.0] = -np.inf
        return ll
    idx, weights = data.observed
    lnp = model.log_probabilities(idx, np.broadcast_to(theta, (idx.shape[0],)))
    finite = np.isfinite(lnp)
    ll = np.einsum("tk,tk->t", np.where(finite, lnp, 0.0), weights)
    ll[np.any(~finite & (weights > 0.0), axis=1)] = -np.inf
    return float(ll[0]) if data.counts.ndim == 1 and theta.ndim == 0 else ll


def fisher_information(model: ParametricModel, theta: float) -> float:
    """Fisher information: sum (or trapezoid integral) of ``p'^2 / p``."""
    p = model.probabilities(theta)
    dp = model.derivatives(theta)
    support = p > SUPPORT_EPS
    if np.count_nonzero(support) < 2:
        raise DegenerateModel("fewer than 2 outcomes in the model support")
    integrand = np.zeros_like(p)
    integrand[support] = dp[support] ** 2 / p[support]
    return model.integrate(integrand)


def crb(model: ParametricModel, theta: float, n: int) -> float:
    """Cramér–Rao variance bound for ``n`` independent particles: 1/(n F)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.0 / (n * fisher_information(model, theta))


def _golden_max(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                hi: np.ndarray, tol: float = GOLDEN_TOL) -> np.ndarray:
    """Golden-section maximization on every interval [lo_t, hi_t] in lockstep.

    ``f`` maps a vector of points, one per interval, to their values.  Each
    interval takes the scalar update rule and stops at its own tolerance.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - _INVGOLD * (b - a)
    d = a + _INVGOLD * (b - a)
    fc, fd = f(c), f(d)
    active = (b - a) > tol
    while np.any(active):
        left = active & (fc >= fd)     # ties move left: smallest-theta tie break
        right = active & ~left
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        x = np.where(left, b - _INVGOLD * (b - a), a + _INVGOLD * (b - a))
        fx = f(x)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
        active = (b - a) > tol
    return (a + b) / 2.0


def mle_batch(model: ParametricModel, data: DataSet) -> np.ndarray:
    """Maximum-likelihood estimate of every trial; NaN where it fails.

    One scan table on GRID_SCAN_POINTS thetas, a per-trial argmax (the first,
    i.e. smallest theta, on ties) and a lockstep golden section between the
    argmax's grid neighbours.  A trial fails (NaN) when its likelihood is
    -inf on the whole scan grid or varies by less than FLAT_TOL on it.
    """
    lo, hi = model.theta_domain
    grid = np.linspace(lo, hi, GRID_SCAN_POINTS)
    ll = log_likelihood(model, data, grid[:, None])
    finite = np.isfinite(ll)           # entries are finite or -inf
    span = ll.max(axis=0) - np.where(finite, ll, np.inf).min(axis=0)
    flat = ~finite.any(axis=0) | ((finite.sum(axis=0) > 1) & (span < FLAT_TOL))
    best = np.argmax(ll, axis=0)
    theta_hat = _golden_max(lambda t: log_likelihood(model, data, t),
                            grid[np.maximum(best - 1, 0)],
                            grid[np.minimum(best + 1, grid.size - 1)])
    theta_hat[flat] = np.nan
    return theta_hat


def mle(model: ParametricModel, data: DataSet) -> Estimate:
    """Maximum-likelihood estimate of one trial: the one-trial ``mle_batch``.

    The error budget is the asymptotic CRB at the estimate; the empirical
    variance of the estimator lives in the Monte Carlo harness.
    """
    if data.counts.ndim != 1:
        raise ValueError("mle takes one trial; use mle_batch for a batch")
    theta_hat = float(mle_batch(model, data)[0])
    if math.isnan(theta_hat):
        raise FlatLikelihood("likelihood is -inf or flat on the scan grid")
    fisher = fisher_information(model, theta_hat)
    return Estimate(theta_hat=theta_hat, fisher=fisher,
                    crb=1.0 / (data.n * fisher))


def quadratic_expansion_check(model: ParametricModel,
                              theta_true: float) -> tuple[float, float]:
    """Fit the expected log-likelihood near theta_true with a parabola.

    The expected per-particle log-likelihood ``sum_x p_x(theta_true) ln
    p_x(theta)`` is sampled on five points spanning +-0.01 and least-squares
    fitted; the negated quadratic coefficient times 2 must reproduce the
    Fisher information (the asymptotic normality statement).
    """
    p_true = model.probabilities(theta_true)

    def expected_ll(theta: float) -> float:
        p = model.probabilities(theta)
        mask = (p > SUPPORT_EPS) & (p_true > SUPPORT_EPS)
        vals = np.zeros_like(p)
        vals[mask] = p_true[mask] * np.log(p[mask])
        return model.integrate(vals)

    offsets = np.array([-0.01, -0.005, 0.0, 0.005, 0.01])
    thetas = theta_true + offsets
    values = np.array([expected_ll(t) for t in thetas])
    coeffs = np.polyfit(offsets, values, deg=2)
    coefficient = -2.0 * coeffs[0]
    return coefficient, fisher_information(model, theta_true)


# ---------------------------------------------------------------------------
# bundled model factories


def bernoulli_model(theta_domain: tuple[float, float] = (1e-9, 1.0 - 1e-9)
                    ) -> ParametricModel:
    """Two-outcome model p = (theta, 1 - theta)."""
    return ParametricModel(
        kind=ModelKind.DISCRETE,
        outcomes=np.array([0, 1]),
        prob=lambda t: np.array([t, 1.0 - t]),
        dprob=lambda t: np.array([1.0, -1.0]),
        theta_domain=theta_domain,
        name="bernoulli",
    )


def gaussian_location_model(sigma: float = 1.0,
                            x_max: float = 12.0,
                            n_points: int = 4801,
                            theta_domain: tuple[float, float] = (-3.0, 3.0)
                            ) -> ParametricModel:
    """Unit-mass Gaussian density on a grid with a location parameter."""
    grid = np.linspace(-x_max, x_max, n_points)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def prob(theta: float) -> np.ndarray:
        return norm * np.exp(-((grid - theta) ** 2) / (2.0 * sigma ** 2))

    def dprob(theta: float) -> np.ndarray:
        return prob(theta) * (grid - theta) / sigma ** 2

    return ParametricModel(
        kind=ModelKind.CONTINUOUS_GRID,
        outcomes=grid,
        prob=prob,
        dprob=dprob,
        theta_domain=theta_domain,
        name="gaussian",
    )
