"""Seeded campaign generators and output checks for the four workloads.

A campaign is one ``fisherlab`` CLI invocation.  A workload turns a seed into
an endless sequence of blocks of campaigns; the program sees only the argv.
Where campaign cost depends strongly on size (``mz-accumulate``, ``mz-sweep``)
every block has the same size composition and the seed picks the order and
everything else, so that medians and rates compare across seeds.  Where cost
does not depend on the drawn values (``slit-mle``, ``mz-bayes``) a block is a
single campaign.

Each check reads the files the campaign wrote and returns a list of problems
(empty when the output is correct) and the number of estimator failures the
output reports.  A check never raises on bad output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from scipy.special import gammaincinv, gammainccinv

# Probability, per check, of rejecting a correct output by chance.
FALSE_ALARM = 1e-7
# Two-sided normal quantile of FALSE_ALARM.
MEAN_Z = 5.33
# Range of true estimator efficiency that counts as "around 1".  The Bayes
# mean on its 1001-point grid measures ~0.45 near the MZ domain edges, where
# the posterior is narrower than the grid spacing.
EFFICIENCY_RANGE = (0.4, 1.25)
NORM_TOL = 1e-10
POSTERIOR_NORM_TOL = 1e-9
PARITY_TOL = 1e-6
# The true phase must not be excluded: posterior density there is at least
# exp(-TRUTH_LOG_RATIO) of the maximum (a likelihood-ratio statistic of 40).
TRUTH_LOG_RATIO = 20.0
# Variance of the bimodal m = 0 posterior relative to phi_true^2.
VARIANCE_BAND = (0.1, 10.0)


@dataclass(frozen=True)
class Campaign:
    """One CLI invocation; ``argv`` excludes ``--out``."""

    argv: list[str]
    units: int                      # trials, shots or calls completed
    trials: int                     # estimator trials (0 outside Monte Carlo)
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                       # what units_per_s counts
    blocks: Callable[[np.random.Generator], Iterator[list[Campaign]]]
    warmup: Campaign
    check: Callable[[Campaign, Path], tuple[list[str], int]]


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2 ** 31)))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# Monte Carlo workloads


def efficiency_band(dof: int) -> tuple[float, float]:
    """Efficiencies crb/var a correct estimator shows with ``dof`` degrees of
    freedom in its sample variance, except with probability FALSE_ALARM."""
    if dof < 1:
        return 0.0, math.inf
    hi_q = 2.0 * gammainccinv(dof / 2.0, FALSE_ALARM / 2.0) / dof
    lo_q = 2.0 * gammaincinv(dof / 2.0, FALSE_ALARM / 2.0) / dof
    return EFFICIENCY_RANGE[0] / hi_q, EFFICIENCY_RANGE[1] / lo_q


def check_trial_report(c: Campaign, out: Path) -> tuple[list[str], int]:
    """Mean within MEAN_Z standard errors of theta, efficiency in its band."""
    try:
        rep = json.loads((out / "trial_report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"trial_report.json unreadable: {exc}"], c.trials
    failures = rep.get("failures")
    if not isinstance(failures, int) or not 0 <= failures < c.trials:
        return [f"failures = {failures!r}"], c.trials
    mean, crb, eff = (rep.get(k) for k in ("empirical_mean", "crb", "efficiency"))
    if not _finite(mean, crb, eff, rep.get("empirical_variance")) or crb <= 0:
        return ["non-finite or non-positive value in trial_report.json"], failures
    problems = []
    ok_trials = c.trials - failures
    se = math.sqrt(crb / (EFFICIENCY_RANGE[0] * ok_trials))
    if abs(mean - c.params["theta"]) > MEAN_Z * se:
        problems.append(f"mean {mean!r} is {abs(mean - c.params['theta']) / se:.1f} "
                        f"standard errors from theta {c.params['theta']!r}")
    lo, hi = efficiency_band(ok_trials - 1)
    if not lo <= eff <= hi:
        problems.append(f"efficiency {eff!r} outside [{lo:.3g}, {hi:.3g}]")
    return problems, failures


SLIT_TRIALS = 20


def _slit_blocks(rng: np.random.Generator) -> Iterator[list[Campaign]]:
    while True:
        theta = float(rng.uniform(-4.0, 4.0))
        yield [Campaign(
            argv=["montecarlo", "--model", "slit", "--n", "1000",
                  "--estimator", "mle", "--trials", str(SLIT_TRIALS),
                  "--theta", repr(theta), "--seed", _seed(rng)],
            units=SLIT_TRIALS, trials=SLIT_TRIALS, params={"theta": theta})]


# j = 30, m = 10: with m = 0 the phase is not identifiable on the MZ domain.
BAYES_TRIALS = 2


def _bayes_blocks(rng: np.random.Generator) -> Iterator[list[Campaign]]:
    while True:
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        yield [Campaign(
            argv=["montecarlo", "--model", "mz", "--n1", "40", "--n2", "20",
                  "--n", "100", "--estimator", "bayes_mean",
                  "--trials", str(BAYES_TRIALS),
                  "--theta", repr(theta), "--seed", _seed(rng)],
            units=BAYES_TRIALS, trials=BAYES_TRIALS, params={"theta": theta})]


# ---------------------------------------------------------------------------
# accumulation


# (j, repeats) of one block.  cmd_accumulate re-runs every prefix, so a
# campaign costs ~r^2/2 posterior updates; r = 16 at j = 100 alone would take
# a third of a run, so the large-r point is taken at j = 50.  Three of the
# seven campaigns are (50, 8), so the median campaign is always one of them.
ACCUMULATE_BLOCK = ((50, 4), (100, 4), (50, 8), (50, 8), (50, 8), (100, 8), (50, 16))


def _accumulate_blocks(rng: np.random.Generator) -> Iterator[list[Campaign]]:
    while True:
        block = []
        for i in rng.permutation(len(ACCUMULATE_BLOCK)):
            j, r = ACCUMULATE_BLOCK[i]
            phi = float(rng.uniform(0.25, 1.2) * rng.choice((-1.0, 1.0)))
            block.append(Campaign(
                argv=["accumulate", "--j", str(j), "--repeats", str(r),
                      "--phi-true", repr(phi), "--seed", _seed(rng)],
                units=r, trials=0, params={"j": j, "repeats": r, "phi_true": phi}))
        yield block


def check_accumulate(c: Campaign, out: Path) -> tuple[list[str], int]:
    """Posterior CSVs finite and normalized; the final one bimodal at +-phi."""
    j, r, phi = c.params["j"], c.params["repeats"], c.params["phi_true"]
    try:
        posts = [_read_csv(out / f"posterior_shot_{s:03d}.csv") for s in range(r + 1)]
        summary = json.loads((out / "accumulate_summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"accumulate output unreadable: {exc}"], 0
    problems = []
    for s, rows in enumerate(posts):
        if rows.shape[1] != 2 or not np.all(np.isfinite(rows)):
            problems.append(f"posterior_shot_{s:03d}.csv: non-finite or malformed")
            continue
        grid, dens = rows[:, 0], rows[:, 1]
        if np.any(dens < 0) or abs(np.trapezoid(dens, grid) - 1.0) > POSTERIOR_NORM_TOL:
            problems.append(f"posterior_shot_{s:03d}.csv: not a normalized density")
    if problems:
        return problems, 0

    grid, dens = posts[-1][:, 0], posts[-1][:, 1]
    positive = np.trapezoid(np.where(grid > 0, dens, 0.0), grid)
    if abs(positive - 0.5) > PARITY_TOL:
        problems.append(f"final posterior not even in phi: mass {positive!r} on phi > 0")
    near = np.abs(np.abs(grid) - abs(phi)) <= (grid[1] - grid[0])
    if not np.any(near) or dens[near].max() < math.exp(-TRUTH_LOG_RATIO) * dens.max():
        problems.append(f"final posterior excludes phi_true {phi!r}")
    variance = summary.get("variance")
    if not _finite(variance) or summary.get("repeats") != r or summary.get("j") != j:
        problems.append("accumulate_summary.json: wrong or non-finite fields")
    else:
        mean = np.trapezoid(grid * dens, grid)
        from_csv = np.trapezoid((grid - mean) ** 2 * dens, grid)
        if abs(variance - from_csv) > 1e-9 * max(from_csv, 1e-300):
            problems.append(f"summary variance {variance!r} != final CSV {from_csv!r}")
        lo, hi = VARIANCE_BAND
        if not lo * phi ** 2 <= variance <= hi * phi ** 2:
            problems.append(f"variance {variance!r} not ~ phi_true^2 = {phi ** 2!r}")
    return problems, 0


# ---------------------------------------------------------------------------
# size sweep


SWEEP_MAX_DIM = 1201                # largest 2j+1
SWEEP_POOL = 96                     # distinct sizes, more than 64 cache entries
SWEEP_SUBSETS = 6                   # blocks of 16 calls, each spanning all sizes


def _sweep_blocks(rng: np.random.Generator) -> Iterator[list[Campaign]]:
    """Cycle through 6 interleaved subsets of 96 evenly spaced sizes.

    Every block spans the size range in the same way, so blocks cost alike.
    A size recurs after 96 calls, beyond the reach of the 64-entry cache.
    """
    pool = np.linspace(2, SWEEP_MAX_DIM, SWEEP_POOL).round().astype(int)
    subset = int(rng.integers(SWEEP_SUBSETS))
    while True:
        block = []
        for dim in rng.permutation(pool[subset::SWEEP_SUBSETS]):
            n_total = int(dim) - 1
            n1 = int(rng.integers(n_total + 1))
            phi = float(rng.uniform(-math.pi, math.pi))
            block.append(Campaign(
                argv=["mz", "--n1", str(n1), "--n2", str(n_total - n1),
                      "--phi", repr(phi)],
                units=1, trials=0, params={"n1": n1, "n2": n_total - n1}))
        subset = (subset + 1) % SWEEP_SUBSETS
        yield block


def check_mz(c: Campaign, out: Path) -> tuple[list[str], int]:
    """Distribution sums to 1, F0 = 2[j(j+1) - m^2] exactly, no NaN."""
    n1, n2 = c.params["n1"], c.params["n2"]
    j, m = (n1 + n2) / 2.0, (n1 - n2) / 2.0
    try:
        rows = _read_csv(out / "mz_distribution.csv")
        summary = json.loads((out / "mz_summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"mz output unreadable: {exc}"], 0
    problems = []
    if rows.shape != (n1 + n2 + 1, 2) or not np.all(np.isfinite(rows)):
        problems.append("mz_distribution.csv: non-finite or malformed")
    elif abs(rows[:, 1].sum() - 1.0) > NORM_TOL or np.any(rows[:, 1] < 0):
        problems.append(f"mz_distribution.csv: sum p_k - 1 = {rows[:, 1].sum() - 1.0:.3e}")
    numbers = [v for v in summary.values() if isinstance(v, float)]
    if not _finite(*numbers):
        problems.append("mz_summary.json: non-finite value")
    if summary.get("F0") != 2.0 * (j * (j + 1.0) - m ** 2):
        problems.append(f"F0 {summary.get('F0')!r} != 2[j(j+1) - m^2]")
    return problems, 0


# ---------------------------------------------------------------------------


WORKLOADS = {
    "slit-mle": Workload(
        name="slit-mle", unit="trials", blocks=_slit_blocks,
        warmup=Campaign(argv=["montecarlo", "--model", "slit", "--trials", "1",
                              "--theta", "0.5"],
                        units=1, trials=1, params={"theta": 0.5}),
        check=check_trial_report),
    "mz-bayes": Workload(
        name="mz-bayes", unit="trials", blocks=_bayes_blocks,
        warmup=Campaign(argv=["montecarlo", "--model", "mz", "--n1", "40",
                              "--n2", "20", "--n", "100", "--trials", "1",
                              "--estimator", "bayes_mean", "--theta", "1.0"],
                        units=1, trials=1, params={"theta": 1.0}),
        check=check_trial_report),
    "mz-accumulate": Workload(
        name="mz-accumulate", unit="shots", blocks=_accumulate_blocks,
        warmup=Campaign(argv=["accumulate", "--j", "10", "--repeats", "1",
                              "--phi-true", "0.5"], units=1, trials=0,
                        params={"j": 10, "repeats": 1, "phi_true": 0.5}),
        check=check_accumulate),
    "mz-sweep": Workload(
        name="mz-sweep", unit="calls", blocks=_sweep_blocks,
        warmup=Campaign(argv=["mz", "--n1", "3", "--n2", "2", "--phi", "0.5"],
                        units=1, trials=0, params={"n1": 3, "n2": 2}),
        check=check_mz),
}
