"""Command-line front end: files, schemas, exit codes, replay."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fisherlab import ZeroPosterior
from fisherlab.cli import main, replay_manifest


def run_cli(args, out_dir):
    return main([*args, "--out", str(out_dir)])


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, rows


# ---------------------------------------------------------------------------
# slit


def test_slit_outputs(tmp_path):
    assert run_cli(["slit"], tmp_path) == 0
    summary = read_json(tmp_path / "slit_summary.json")
    assert summary["fisher"] == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert summary["product"] == pytest.approx(0.25, abs=1e-6)
    header, rows = read_csv(tmp_path / "slit_density.csv")
    assert header == ["mu", "p"]
    at_zero = rows[np.argmin(np.abs(rows[:, 0]))]
    assert at_zero[1] == pytest.approx(0.3183099, abs=1e-7)


def test_slit_schema_and_manifest(tmp_path):
    run_cli(["slit", "--kx", "1.5"], tmp_path)
    import jsonschema
    from fisherlab.cli import _load_schema
    jsonschema.validate(read_json(tmp_path / "slit_summary.json"),
                        _load_schema("slit_summary.schema.json"))
    manifest = read_json(tmp_path / "run_manifest.json")
    assert manifest["subcommand"] == "slit"
    assert manifest["params"]["kx"] == 1.5
    assert "slit_summary.json" in manifest["outputs"]


def test_slit_bad_geometry_exits_2(tmp_path):
    assert run_cli(["slit", "--a", "-1.0"], tmp_path) == 2


# ---------------------------------------------------------------------------
# mz


def test_mz_one_port_standard_limit(tmp_path):
    n = 8
    assert run_cli(["mz", "--n1", str(n), "--n2", "0", "--phi", "0.4"],
                   tmp_path) == 0
    summary = read_json(tmp_path / "mz_summary.json")
    assert summary["F0"] == pytest.approx(float(n), rel=1e-12)
    assert summary["crb_phase"] == pytest.approx(1.0 / n, rel=1e-12)
    assert summary["delta_phi_linearized"] == pytest.approx(
        1.0 / math.sqrt(n), rel=1e-9)


def test_mz_balanced_quantum_limit(tmp_path):
    n = 10
    assert run_cli(["mz", "--n1", str(n // 2), "--n2", str(n // 2),
                    "--phi", "0.3"], tmp_path) == 0
    summary = read_json(tmp_path / "mz_summary.json")
    assert summary["delta_phi_linearized"] == "undefined"
    j = n / 2.0
    assert summary["crb_phase"] == pytest.approx(1.0 / (2 * j * (j + 1)),
                                                 rel=1e-12)


def test_mz_single_particle_distribution(tmp_path):
    assert run_cli(["mz", "--n1", "1", "--n2", "0", "--phi", "0.0"],
                   tmp_path) == 0
    _, rows = read_csv(tmp_path / "mz_distribution.csv")
    assert rows[:, 1] == pytest.approx([1.0, 0.0], abs=1e-15)


def test_mz_large_balanced_input(tmp_path):
    assert run_cli(["mz", "--n1", "1000", "--n2", "1000"], tmp_path) == 0
    assert read_json(tmp_path / "mz_summary.json")["F0"] == 2.0 * 1000 * 1001


def test_mz_numerical_failure_exits_3(tmp_path, monkeypatch):
    import fisherlab.cli as cli_mod
    from fisherlab import FisherlabError

    def boom(*args, **kwargs):
        raise FisherlabError("forced")

    monkeypatch.setattr(cli_mod, "fisher_phase_at_zero", boom)
    assert run_cli(["mz", "--n1", "3", "--n2", "1"], tmp_path) == 3


def test_mz_bad_input_exits_2(tmp_path):
    assert run_cli(["mz", "--n1", "0", "--n2", "0"], tmp_path) == 2


@pytest.mark.parametrize("phi", ["nan", "inf"])
def test_mz_non_finite_phi_exits_2(tmp_path, phi):
    assert run_cli(["mz", "--n1", "3", "--n2", "1", "--phi", phi], tmp_path) == 2


def test_mz_schema(tmp_path):
    run_cli(["mz", "--n1", "4", "--n2", "4", "--phi", "1.0"], tmp_path)
    import jsonschema
    from fisherlab.cli import _load_schema
    jsonschema.validate(read_json(tmp_path / "mz_summary.json"),
                        _load_schema("mz_summary.schema.json"))


# ---------------------------------------------------------------------------
# montecarlo


def test_montecarlo_bernoulli_smoke(tmp_path, capsys):
    code = run_cli(["montecarlo", "--model", "bernoulli", "--theta", "0.5",
                    "--n", "1000", "--trials", "2000", "--seed", "5"],
                   tmp_path)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.8 < report["efficiency"] < 1.2
    assert report["failures"] == 0
    import jsonschema
    from fisherlab.cli import _load_schema
    jsonschema.validate(report, _load_schema("trial_report.schema.json"))


def test_montecarlo_seed_reproducibility(tmp_path, capsys):
    args = ["montecarlo", "--model", "bernoulli", "--theta", "0.3",
            "--n", "200", "--trials", "100", "--seed", "21"]
    run_cli(args, tmp_path / "a")
    first = capsys.readouterr().out
    run_cli(args, tmp_path / "b")
    second = capsys.readouterr().out
    assert first == second
    assert (tmp_path / "a" / "trial_report.json").read_bytes() == \
        (tmp_path / "b" / "trial_report.json").read_bytes()


def test_montecarlo_slit_run(tmp_path, capsys):
    code = run_cli(["montecarlo", "--model", "slit", "--theta", "0.3",
                    "--n", "1000", "--trials", "60", "--seed", "2"],
                   tmp_path)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["efficiency"] > 0
    assert report["model"] == "slit"


def test_montecarlo_mz_model(tmp_path, capsys):
    code = run_cli(["montecarlo", "--model", "mz", "--n1", "2", "--n2", "0",
                    "--theta", "1.0", "--n", "400", "--trials", "80",
                    "--seed", "4"], tmp_path)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["model"] == "mz"
    assert report["empirical_mean"] == pytest.approx(1.0, abs=0.05)


def test_montecarlo_balanced_mz_is_identifiable(tmp_path, capsys):
    # m = 0: p_k(phi) = p_k(pi - phi), so the model domain stops below pi/2
    code = run_cli(["montecarlo", "--model", "mz", "--n1", "30", "--n2", "30",
                    "--theta", "0.8", "--n", "100", "--trials", "400",
                    "--seed", "1"], tmp_path)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.7 <= report["efficiency"] <= 1.3


@pytest.mark.parametrize("args", [
    ["--model", "bernoulli", "--theta", "1.5"],
    ["--model", "mz", "--n1", "3", "--n2", "3", "--theta", "2.0"],
])
def test_montecarlo_theta_outside_domain_exits_2(tmp_path, args):
    assert run_cli(["montecarlo", *args, "--n", "10", "--trials", "5"],
                   tmp_path) == 2


def test_montecarlo_excessive_failures_exits_5(tmp_path, monkeypatch):
    from fisherlab import ExcessiveFailures as Exc
    import fisherlab.cli as cli_mod

    def boom(config):
        raise Exc("forced")

    monkeypatch.setattr(cli_mod, "run_trials", boom)
    code = run_cli(["montecarlo", "--model", "bernoulli", "--theta", "0.5",
                    "--n", "10", "--trials", "10", "--seed", "0"], tmp_path)
    assert code == 5


# ---------------------------------------------------------------------------
# accumulate


def test_accumulate_flat_when_no_repeats(tmp_path):
    code = run_cli(["accumulate", "--j", "10", "--repeats", "0"], tmp_path)
    assert code == 0
    _, rows = read_csv(tmp_path / "posterior_shot_000.csv")
    assert rows[:, 1].max() == pytest.approx(rows[:, 1].min(), rel=1e-12)
    summary = read_json(tmp_path / "accumulate_summary.json")
    assert summary["prediction_1_over_njj"] is None


def test_accumulate_postselected_scaling(tmp_path):
    code = run_cli(["accumulate", "--j", "50", "--repeats", "4",
                    "--phi-true", "0.0", "--postselect-zero", "--seed", "3"],
                   tmp_path)
    assert code == 0
    summary = read_json(tmp_path / "accumulate_summary.json")
    assert 1e-4 / 1.5 < summary["variance"] < 1e-4 * 1.5
    assert summary["prediction_1_over_njj"] == pytest.approx(1e-4, rel=1e-12)
    assert summary["prediction_quant_res"] == pytest.approx(1e-4, rel=1e-12)


def test_accumulate_two_shot_shape(tmp_path):
    # two post-selected balanced shots: the posterior follows the fourth
    # power of the zeroth Bessel function; at j = 50 the ratio drifts by
    # ~10% over |phi| j <= 2 (the approximation sharpens as j grows)
    from scipy.special import jv
    code = run_cli(["accumulate", "--j", "50", "--repeats", "2",
                    "--postselect-zero"], tmp_path)
    assert code == 0
    _, rows = read_csv(tmp_path / "posterior_shot_002.csv")
    phi, density = rows[:, 0], rows[:, 1]
    mask = np.abs(phi) * 50 <= 2.0
    ratio = density[mask] / jv(0, phi[mask] * 50) ** 4
    spread = (ratio.max() - ratio.min()) / (ratio.max() + ratio.min())
    assert spread < 0.12


def test_accumulate_writes_per_shot_files(tmp_path):
    run_cli(["accumulate", "--j", "5", "--repeats", "3", "--seed", "1"],
            tmp_path)
    for i in range(4):
        assert (tmp_path / f"posterior_shot_{i:03d}.csv").exists()
    import jsonschema
    from fisherlab.cli import _load_schema
    jsonschema.validate(read_json(tmp_path / "accumulate_summary.json"),
                        _load_schema("accumulate_summary.schema.json"))


def test_accumulate_one_update_per_shot(tmp_path, monkeypatch):
    import fisherlab.montecarlo as mc_mod
    update = mc_mod.posterior_update
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return update(*args, **kwargs)

    monkeypatch.setattr(mc_mod, "posterior_update", counting)
    assert run_cli(["accumulate", "--j", "20", "--repeats", "7",
                    "--phi-true", "0.6", "--seed", "4"], tmp_path) == 0
    assert len(calls) == 7


def test_accumulate_shot_files_are_prefix_runs(tmp_path):
    # every posterior_shot_s.csv is the final posterior of an s-shot run
    # with the same seed: the shots are the first s draws of one stream
    from fisherlab import run_accumulation
    j, repeats, phi, seed = 30.0, 6, -0.8, 12
    assert run_cli(["accumulate", "--j", str(j), "--repeats", str(repeats),
                    "--phi-true", str(phi), "--seed", str(seed)], tmp_path) == 0
    window = (-math.pi / 2, math.pi / 2)
    for shots in range(repeats + 1):
        post, variance = run_accumulation(j, shots, phi, window,
                                          np.random.default_rng(seed))
        _, rows = read_csv(tmp_path / f"posterior_shot_{shots:03d}.csv")
        assert np.max(np.abs(rows[:, 0] - post.grid)) == 0.0
        assert np.max(np.abs(rows[:, 1] - post.density)) <= 1e-12 * post.density.max()
    summary = read_json(tmp_path / "accumulate_summary.json")
    assert summary["variance"] == pytest.approx(variance, rel=1e-12)


def test_accumulate_zero_posterior_exits_6(tmp_path, monkeypatch):
    import fisherlab.cli as cli_mod

    def boom(*args, **kwargs):
        raise ZeroPosterior("forced")

    monkeypatch.setattr(cli_mod, "run_accumulation", boom)
    code = run_cli(["accumulate", "--j", "5", "--repeats", "1"], tmp_path)
    assert code == 6


@pytest.mark.parametrize("phi", ["nan", "inf"])
def test_accumulate_non_finite_phi_true_exits_2(tmp_path, phi):
    assert run_cli(["accumulate", "--j", "5", "--repeats", "2",
                    "--phi-true", phi], tmp_path) == 2


def test_accumulate_rejects_half_integer_j(tmp_path):
    assert run_cli(["accumulate", "--j", "2.5", "--repeats", "1"],
                   tmp_path) == 2


# ---------------------------------------------------------------------------
# shared behaviour


@pytest.mark.parametrize("args,code", [
    (["montecarlo", "--n", "0"], 2),
    (["montecarlo", "--trials", "0"], 2),
    (["accumulate", "--window", "10"], 2),
    (["montecarlo", "--model", "mz", "--n1", "3000", "--n2", "1200"], 4),
    (["accumulate", "--j", "1e9"], 4),
])
def test_invalid_input_maps_to_documented_exit_code(tmp_path, args, code):
    assert run_cli(args, tmp_path) == code


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "fisherlab.cli", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_json_flag_emits_summary_to_stdout(tmp_path, capsys):
    run_cli(["slit", "--json"], tmp_path)
    out = capsys.readouterr().out
    assert json.loads(out)["fisher"] == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_replay_manifest_reproduces_outputs(tmp_path):
    first = tmp_path / "first"
    run_cli(["mz", "--n1", "3", "--n2", "1", "--phi", "0.8"], first)
    originals = {p.name: p.read_bytes() for p in first.iterdir()}
    # clobber the outputs, then replay from the manifest in place
    for p in first.iterdir():
        if p.name != "run_manifest.json":
            p.write_bytes(b"garbage")
    assert replay_manifest(first / "run_manifest.json") == 0
    for name, blob in originals.items():
        assert (first / name).read_bytes() == blob, name


def test_csv_outputs_are_utf8_with_header(tmp_path):
    run_cli(["slit"], tmp_path)
    text = (tmp_path / "slit_density.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "mu,p"
    assert all("," in line for line in lines[1:10])
