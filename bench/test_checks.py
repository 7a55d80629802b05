"""Self-test of the benchmark's output checks and span expectations.

Every check accepts the output of a real campaign and rejects each corrupted
copy of it; the tracer reports a vanished lookup site and a call on a bypass
workload.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fisherlab.cli as cli  # noqa: E402
from spans import SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _campaign(name: str):
    """The cheapest campaign of the workload's first block for seed 0."""
    block = next(WORKLOADS[name].blocks(np.random.default_rng(0)))
    return min(block, key=lambda c: c.units * c.params.get("j", 1))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> (campaign, directory holding its correct output)."""
    made = {}
    for name in WORKLOADS:
        campaign = _campaign(name)
        out = tmp_path_factory.mktemp(name)
        assert cli.main([*campaign.argv, "--out", str(out)]) == 0
        made[name] = (campaign, out)
    return made


def _edit_csv(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(fn(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _scale_csv(path: Path, factor: float) -> None:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows[:, 1] *= factor
    header = path.read_text().splitlines()[0]
    path.write_text(header + "\n" + "\n".join(f"{a!r},{b!r}" for a, b in rows) + "\n")


def _edit_json(path: Path, key: str, fn) -> None:
    data = json.loads(path.read_text())
    data[key] = fn(data[key])
    path.write_text(json.dumps(data))


def _final_csv(c) -> str:
    return f"posterior_shot_{c.params['repeats']:03d}.csv"


def _move_mass_off_truth(out: Path, c) -> None:
    path = out / _final_csv(c)
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    grid = rows[:, 0]
    centre = abs(c.params["phi_true"]) + 0.3
    dens = np.exp(-((np.abs(grid) - centre) / 0.01) ** 2)
    rows[:, 1] = dens / np.trapezoid(dens, grid)
    path.write_text("phi,density\n" + "\n".join(f"{a!r},{b!r}" for a, b in rows) + "\n")


def _break_parity(out: Path, c) -> None:
    path = out / _final_csv(c)
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows[rows[:, 0] < 0, 1] = 0.0
    rows[:, 1] /= np.trapezoid(rows[:, 1], rows[:, 0])
    path.write_text("phi,density\n" + "\n".join(f"{a!r},{b!r}" for a, b in rows) + "\n")


CORRUPTIONS = {
    "slit-mle": {
        "nan mean": lambda out, c: _edit_json(out / "trial_report.json",
                                              "empirical_mean", lambda v: math.nan),
        "biased mean": lambda out, c: _edit_json(out / "trial_report.json",
                                                 "empirical_mean", lambda v: v + 0.5),
        "inefficient": lambda out, c: _edit_json(out / "trial_report.json",
                                                 "efficiency", lambda v: 6e-5),
        "all trials failed": lambda out, c: _edit_json(out / "trial_report.json",
                                                       "failures", lambda v: c.trials),
        "missing report": lambda out, c: (out / "trial_report.json").unlink(),
    },
    "mz-bayes": {
        "nan variance": lambda out, c: _edit_json(out / "trial_report.json",
                                                  "empirical_variance", lambda v: math.nan),
        "mean pinned at pi/2": lambda out, c: _edit_json(
            out / "trial_report.json", "empirical_mean",
            lambda v: math.pi / 2 + (0.3 if abs(c.params["theta"] - math.pi / 2) < 0.2 else 0.0)),
        "inefficient": lambda out, c: _edit_json(out / "trial_report.json",
                                                 "efficiency", lambda v: 6e-5),
    },
    "mz-accumulate": {
        "nan in a csv": lambda out, c: _edit_csv(out / "posterior_shot_001.csv",
                                                 2000, 1, lambda v: math.nan),
        "unnormalized csv": lambda out, c: _scale_csv(out / "posterior_shot_002.csv", 1.001),
        "negative density": lambda out, c: _edit_csv(out / "posterior_shot_000.csv",
                                                     10, 1, lambda v: -v),
        "missing csv": lambda out, c: (out / _final_csv(c)).unlink(),
        "mass away from phi_true": _move_mass_off_truth,
        "not even in phi": _break_parity,
        "unimodal variance 1/(n j^2)": lambda out, c: _edit_json(
            out / "accumulate_summary.json", "variance",
            lambda v: 1.0 / (c.params["repeats"] * c.params["j"] ** 2)),
    },
    "mz-sweep": {
        "nan in the csv": lambda out, c: _edit_csv(out / "mz_distribution.csv",
                                                   0, 1, lambda v: math.nan),
        "sum p_k off by 1e-9": lambda out, c: _edit_csv(out / "mz_distribution.csv",
                                                        0, 1, lambda v: v + 1e-9),
        "F0 off by one ulp": lambda out, c: _edit_json(out / "mz_summary.json", "F0",
                                                       lambda v: float(np.nextafter(v, math.inf))),
        "nan in the summary": lambda out, c: _edit_json(out / "mz_summary.json",
                                                        "mean_J3", lambda v: math.nan),
    },
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_check_accepts_correct_output(outputs, name):
    campaign, out = outputs[name]
    problems, failures = WORKLOADS[name].check(campaign, out)
    assert problems == []
    assert failures == 0


@pytest.mark.parametrize("name,corruption", [
    (name, corruption) for name, table in CORRUPTIONS.items() for corruption in table])
def test_check_rejects_corrupted_output(outputs, tmp_path, name, corruption):
    campaign, out = outputs[name]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    CORRUPTIONS[name][corruption](copy, campaign)
    problems, _ = WORKLOADS[name].check(campaign, copy)
    assert problems, f"{name} check accepted output with {corruption}"


def test_tracer_reports_vanished_site(monkeypatch):
    monkeypatch.delattr(cli, "run_trials")
    tracer = Tracer()
    tracer.uninstall(tracer.install())
    assert any("cli.run_trials" in p for p in tracer.problems("slit-mle"))


def test_tracer_reports_silent_site_and_bypass_call():
    tracer = Tracer()
    tracer.spans["interferometer.outcome_distribution"] = SpanStats()
    tracer.spans["interferometer.outcome_distribution"].calls = 1
    problems = tracer.problems("slit-mle")
    assert any("never fired" in p for p in problems)
    assert any("bypass" in p for p in problems)
