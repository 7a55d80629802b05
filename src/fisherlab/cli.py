"""Command-line front end: runs the bundled experiments, writes data files.

Subcommands: slit, mz, montecarlo, accumulate.  Curves go to CSV, scalars to
JSON validated against the schemas shipped with the package; every run with
an output directory also records a manifest sufficient to replay it.

Exit codes: 0 ok, 2 invalid physical inputs, 3 numerical failure,
4 size limit, 5 excessive Monte Carlo failures, 6 vanished posterior.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .errors import ExcessiveFailures, FisherlabError, SizeLimit, ZeroPosterior
from .interferometer import (FockInput, Posterior, fisher_phase_at_zero,
                             linearized_phase_error, moments,
                             outcome_distribution)
from .models import bernoulli_model
from .montecarlo import TrialConfig, run_accumulation, run_trials
from .slit import (DENSITY_POINTS, DENSITY_WINDOW, SlitGeometry,
                   farfield_density, fisher_slit, position_variance,
                   uncertainty_chain)

EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_SIZE_LIMIT = 4
EXIT_MC_FAILURES = 5
EXIT_ZERO_POSTERIOR = 6


def _load_schema(name: str) -> dict:
    text = resources.files("fisherlab.schemas").joinpath(name).read_text()
    return json.loads(text)


@functools.cache
def _validator(name: str):
    """One validator per shipped schema; the schema itself is checked once."""
    schema = _load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _dump_json(obj: dict, schema_name: str) -> str:
    _validator(schema_name).validate(obj)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(out_dir: Path | None, name: str, text: str,
           written: dict[str, str]) -> None:
    written[name] = text
    if out_dir is not None:
        (out_dir / name).write_text(text)


def _csv(header: str, columns: tuple[np.ndarray, ...]) -> str:
    """One line per row, every value as %.17g, formatted in a single pass."""
    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * rows.shape[1])
    body = "\n".join([line] * rows.shape[0]) % tuple(rows.ravel().tolist())
    return f"{header}\n{body}\n"


def _manifest(args: argparse.Namespace, written: dict[str, str],
              out_dir: Path | None) -> None:
    if out_dir is None:
        return
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "out", "json_stdout", "subcommand")}
    manifest = {
        "subcommand": args.subcommand,
        "params": params,
        "seed": args.seed,
        "outputs": sorted(written),
        "version": __version__,
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def replay_manifest(path: Path) -> int:
    """Re-run the command recorded in a manifest; outputs are reproduced."""
    manifest = json.loads(Path(path).read_text())
    argv = [manifest["subcommand"]]
    for key, value in sorted(manifest["params"].items()):
        if key == "subcommand" or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    argv.extend(["--out", str(Path(path).parent)])
    return main(argv)


# ---------------------------------------------------------------------------
# subcommands


def cmd_slit(args: argparse.Namespace) -> int:
    try:
        geometry = SlitGeometry(a=args.a, wavelength=args.wavelength,
                                distance=args.distance, k_x=args.kx,
                                hbar=args.hbar)
    except ValueError as exc:
        print(f"invalid geometry: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        fisher = fisher_slit(geometry)
        dx2 = position_variance(geometry)
        dp2_bound, heis_bound, product = uncertainty_chain(geometry)
    except (FisherlabError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    mu = np.linspace(-DENSITY_WINDOW, DENSITY_WINDOW, DENSITY_POINTS)
    density = farfield_density(mu, geometry.nu)
    summary = {
        "fisher": fisher,
        "position_variance": dx2,
        "fisher_momentum_bound": dp2_bound,
        "heisenberg_bound": heis_bound,
        "product": product,
        # the first-minimum half-width argument: delta_kx = 2 pi / a and
        # delta_x = a / 2 give the textbook product h/2; it is not a variance
        # statement, hence the label.
        "naive_width_product": math.pi * geometry.hbar,
        "naive_width_label": "heuristic",
    }
    out_dir = _prepare_out(args)
    written: dict[str, str] = {}
    _write(out_dir, "slit_density.csv", _csv("mu,p", (mu, density)), written)
    _write(out_dir, "slit_summary.json",
           _dump_json(summary, "slit_summary.schema.json"), written)
    _manifest(args, written, out_dir)
    _emit(args, written["slit_summary.json"],
          f"slit: F = {fisher:.8f}, (dx)^2 = {dx2:.8f}, product = {product:.8f}")
    return 0


def cmd_mz(args: argparse.Namespace) -> int:
    if args.n1 < 0 or args.n2 < 0 or args.n1 + args.n2 < 1:
        print("need non-negative counts with n1 + n2 >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT
    source = FockInput(n1=args.n1, n2=args.n2)
    try:
        p = outcome_distribution(source, args.phi)
        f0 = fisher_phase_at_zero(source)
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except FisherlabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    delta = linearized_phase_error(source, args.phi)
    mean_j3, mean_j3_sq = moments(source, args.phi)
    summary = {
        "j": source.j,
        "m": source.m,
        "F0": f0,
        "delta_phi_linearized": "undefined" if delta is None else delta,
        "crb_phase": 1.0 / f0 if f0 > 0 else float("inf"),
        "mean_J3": mean_j3,
        "var_J3": mean_j3_sq - mean_j3 ** 2,
    }
    k = source.j - np.arange(int(round(2 * source.j)) + 1)
    out_dir = _prepare_out(args)
    written: dict[str, str] = {}
    _write(out_dir, "mz_distribution.csv", _csv("k,p_k", (k, p)), written)
    _write(out_dir, "mz_summary.json",
           _dump_json(summary, "mz_summary.schema.json"), written)
    _manifest(args, written, out_dir)
    _emit(args, written["mz_summary.json"],
          f"mz: j = {source.j}, m = {source.m}, F0 = {f0}")
    return 0


def _montecarlo_model(args: argparse.Namespace):
    if args.model == "bernoulli":
        return bernoulli_model()
    if args.model == "slit":
        from .slit import farfield_model
        return farfield_model(SlitGeometry(hbar=args.hbar))
    # mz: discrete outcome distribution of a fixed input, parameter = phase;
    # the domain avoids 0 and pi where the +-phi parity makes theta ambiguous.
    from .models import ModelKind, ParametricModel
    source = FockInput(n1=args.n1, n2=args.n2)
    dim = int(round(2 * source.j)) + 1
    return ParametricModel(
        kind=ModelKind.DISCRETE,
        outcomes=source.j - np.arange(dim),
        prob=lambda phi: outcome_distribution(source, phi),
        theta_domain=(0.05, math.pi - 0.05),
        name="mz",
    )


def cmd_montecarlo(args: argparse.Namespace) -> int:
    try:
        model = _montecarlo_model(args)
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    config = TrialConfig(model=model, theta_true=args.theta,
                         n_particles=args.n, n_trials=args.trials,
                         rng_seed=args.seed, estimator=args.estimator)
    try:
        report = run_trials(config)
    except ExcessiveFailures as exc:
        print(f"excessive failures: {exc}", file=sys.stderr)
        return EXIT_MC_FAILURES

    text = _dump_json(report.to_dict(), "trial_report.schema.json")
    out_dir = _prepare_out(args)
    written: dict[str, str] = {}
    _write(out_dir, "trial_report.json", text, written)
    _manifest(args, written, out_dir)
    print(text, end="")
    return 0


def cmd_accumulate(args: argparse.Namespace) -> int:
    if args.j <= 0 or int(round(2 * args.j)) % 2 != 0:
        print("j must be a positive integer (balanced m = 0 input)", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.repeats < 0:
        print("repeats must be non-negative", file=sys.stderr)
        return EXIT_BAD_INPUT
    window = (-args.window / 2.0, args.window / 2.0)
    out_dir = _prepare_out(args)
    written: dict[str, str] = {}

    def write_posterior(post: Posterior) -> None:
        _write(out_dir, f"posterior_shot_{len(post.shots):03d}.csv",
               _csv("phi,density", (post.grid, post.density)), written)

    try:
        _, variance = run_accumulation(
            args.j, args.repeats, args.phi_true, window,
            rng=np.random.default_rng(args.seed),
            postselect_zero=args.postselect_zero, on_posterior=write_posterior)
    except ZeroPosterior as exc:
        print(f"zero posterior: {exc}", file=sys.stderr)
        return EXIT_ZERO_POSTERIOR

    n = args.repeats
    summary = {
        "j": args.j,
        "repeats": n,
        "phi_true": args.phi_true,
        "window": [window[0], window[1]],
        "postselect_zero": bool(args.postselect_zero),
        "variance": variance,
        "prediction_1_over_njj": (1.0 / (n * args.j ** 2)) if n > 0 else None,
        "prediction_quant_res": (4.0 * n / (2.0 * args.j * n) ** 2) if n > 0 else None,
    }
    _write(out_dir, "accumulate_summary.json",
           _dump_json(summary, "accumulate_summary.schema.json"), written)
    _manifest(args, written, out_dir)
    _emit(args, written["accumulate_summary.json"],
          f"accumulate: j = {args.j}, shots = {n}, variance = {variance:.6e}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _prepare_out(args: argparse.Namespace) -> Path | None:
    if args.out is None:
        return None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _emit(args: argparse.Namespace, json_text: str, human_line: str) -> None:
    if args.json_stdout:
        print(json_text, end="")
    else:
        print(human_line)


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    shared.add_argument("--out", type=str, default=None,
                        help="output directory for CSV/JSON files")
    shared.add_argument("--json", dest="json_stdout", action="store_true",
                        help="print the JSON summary to stdout")
    shared.add_argument("--hbar", type=float, default=1.0,
                        help="value of the reduced Planck constant")

    parser = argparse.ArgumentParser(
        prog="fisherlab",
        description="Fisher-information analysis of slit diffraction and "
                    "Mach-Zehnder phase estimation")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("slit", parents=[shared],
                       help="far-field statistics and the uncertainty chain")
    p.add_argument("--a", type=float, default=1.0, help="slit width")
    p.add_argument("--wavelength", type=float, default=1.0)
    p.add_argument("--distance", type=float, default=1.0,
                   help="slit-to-screen distance")
    p.add_argument("--kx", type=float, default=0.0,
                   help="incident transverse wavenumber")
    p.set_defaults(func=cmd_slit)

    p = sub.add_parser("mz", parents=[shared],
                       help="Mach-Zehnder outcome statistics and phase bounds")
    p.add_argument("--n1", type=int, default=1, help="particles at port 1")
    p.add_argument("--n2", type=int, default=0, help="particles at port 2")
    p.add_argument("--phi", type=float, default=0.0, help="phase shift")
    p.set_defaults(func=cmd_mz)

    p = sub.add_parser("montecarlo", parents=[shared],
                       help="repeated-experiment estimator benchmark")
    p.add_argument("--model", choices=("slit", "mz", "bernoulli"),
                   default="bernoulli")
    p.add_argument("--theta", type=float, default=0.5, help="true parameter")
    p.add_argument("--n", type=int, default=1000, help="particles per trial")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--estimator", choices=("mle", "bayes_mean"), default="mle")
    p.add_argument("--n1", type=int, default=1, help="mz model: port-1 count")
    p.add_argument("--n2", type=int, default=0, help="mz model: port-2 count")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("accumulate", parents=[shared],
                       help="Bayesian phase accumulation at the m = 0 input")
    p.add_argument("--j", type=float, default=50.0, help="spin j = N/2")
    p.add_argument("--repeats", type=int, default=4, help="number of shots")
    p.add_argument("--phi-true", type=float, default=0.0)
    p.add_argument("--window", type=float, default=math.pi,
                   help="total phase window width")
    p.add_argument("--postselect-zero", action="store_true",
                   help="condition on the all-m=0 outcome record")
    p.set_defaults(func=cmd_accumulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
