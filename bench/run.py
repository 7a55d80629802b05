"""Closed-loop benchmark of the fisherlab CLI.

One client, one campaign at a time: each campaign is one in-process
``fisherlab.cli.main(argv)`` call writing to its own ``--out`` directory, and
the next starts only after the previous one returned and its output was
checked.  Campaign argv comes from ``--seed``; see ``workloads.py``.

    python3 bench/run.py --workload mz-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics, taken from spans
``spans.py`` wraps around every layer.  ``--workload all`` runs every
workload in its own process and prints one table.  Run records, with the
environment and every campaign, go to ``bench/_out/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from spans import SPAN_NAMES, Tracer
from workloads import WORKLOADS, Campaign

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 60


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# environment


def _blas() -> tuple[str, int | None]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_revision() -> dict:
    """Git sha when run from a git checkout, and always a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def environment() -> dict:
    blas, threads = _blas()
    return {
        **_source_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# fresh-interpreter import of the CLI


def _fresh_import(extra: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *extra, "-c", "import fisherlab.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S, check=True)


def setup_seconds() -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _fresh_import([])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_times() -> tuple[float, float]:
    """Median cumulative ``-X importtime`` of fisherlab.cli and scipy.interpolate."""
    cli, interp = [], []
    for _ in range(IMPORTTIME_REPEATS):
        cumulative = {}
        for line in _fresh_import(["-X", "importtime"]).stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) * 1e-6
        cli.append(cumulative.get("fisherlab.cli", 0.0))
        interp.append(cumulative.get("scipy.interpolate", 0.0))
    return statistics.median(cli), statistics.median(interp)


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Record:
    """One campaign as run: its time, whether it passed, what it cost."""

    campaign: Campaign
    seconds: float
    problems: list[str]
    failures: int
    traced: bool
    bytes_written: int
    files_written: int

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {"argv": self.campaign.argv, "seconds": self.seconds,
                "problems": self.problems, "failures": self.failures,
                "traced": self.traced}


def run_campaign(cli, workload, campaign, work_dir: Path, tracer=None) -> Record:
    # Start without garbage of earlier campaigns, as a fresh CLI process
    # would, so no campaign pays for collecting another's cycles.
    gc.collect()
    out = Path(tempfile.mkdtemp(dir=work_dir))
    argv = [*campaign.argv, "--out", str(out)]
    sink = io.StringIO()
    problems: list[str] = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
            seconds = time.perf_counter() - t0
    except Exception:                   # a crash is a failed campaign
        seconds = time.perf_counter() - t0
        code = None
        problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
    files = [p for p in out.rglob("*") if p.is_file()]
    written = sum(p.stat().st_size for p in files)
    if code == 0:
        found, failures = workload.check(campaign, out)
        problems.extend(found)
    else:
        if code is not None:
            problems.append(f"exit code {code}: {sink.getvalue().strip()[-200:]}")
        failures = campaign.trials
    shutil.rmtree(out)
    return Record(campaign, seconds, problems, failures, tracer is not None,
                  written, len(files))


def closed_loop(cli, workload, seed: int, seconds: float, traced: bool,
                work_dir: Path) -> tuple[list[Record], object]:
    """Run whole blocks until at least ``seconds`` of them have passed.

    When ``traced``, blocks alternate between untraced and traced, so the
    two halves see the same mix and their medians give the tracing overhead.
    """
    run_campaign(cli, workload, workload.warmup, work_dir)
    tracer = Tracer() if traced else None
    blocks = workload.blocks(np.random.default_rng(seed))
    records: list[Record] = []
    elapsed, index = 0.0, 0
    while elapsed < seconds or (traced and index < 2):
        trace_block = traced and index % 2 == 1
        saved = tracer.install() if trace_block else None
        t0 = time.perf_counter()
        for campaign in next(blocks):
            records.append(run_campaign(cli, workload, campaign, work_dir,
                                        tracer if trace_block else None))
        elapsed += time.perf_counter() - t0
        if trace_block:
            tracer.uninstall(saved)
        index += 1
    return records, tracer


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would fall under the median, and the
    median is reported; the percentile moves continuously with n, so runs
    with a few more or fewer campaigns stay comparable.
    """
    q = max(50.0, 100.0 * (1.0 - 10.0 / len(values)))
    return float(np.percentile(values, q)), q


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    times = [r.seconds for r in records]
    trials = sum(r.campaign.trials for r in records)
    done = sum(r.campaign.units for r in records if r.ok)
    return {
        "setup_s": setup_s,
        "campaign_s_p50": statistics.median(times),
        "campaign_s_tail": tail(times)[0],
        "units_per_s": done / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(r.ok for r in records) / len(records),
        "estimator_ok_frac": (1.0 - sum(r.failures for r in records) / trials
                              if trials else 1.0),
    }


# per-layer metric suffix -> SpanStats field
SPAN_FIELDS = {"calls": "calls", "busy_s": "busy_s", "self_s": "self_s",
               "dense_elems": "elems", "curve_elems": "elems"}


def per_layer(records: list[Record], tracer: Tracer, import_s: tuple[float, float],
              names: list[str]) -> dict[str, float]:
    """Every metric in ``names``: span figures per traced campaign, and ratios."""
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    n = len(traced)
    lookups = tracer.eig_hits + tracer.eig_misses
    shots = sum(r.campaign.units for r in traced if r.campaign.argv[0] == "accumulate")
    updates = tracer.stats("interferometer.posterior_update").calls
    values = {
        "interferometer.eigensystem.hits": tracer.eig_hits / n,
        "interferometer.eigensystem.misses": tracer.eig_misses / n,
        "interferometer.eigensystem.hit_ratio": tracer.eig_hits / lookups if lookups else 0.0,
        "montecarlo.updates_per_shot": updates / shots if shots else 0.0,
        "cli.import_s": import_s[0],
        "cli.import_scipy_interpolate_s": import_s[1],
        "cli.bytes_written": sum(r.bytes_written for r in traced) / n,
        "cli.files_written": sum(r.files_written for r in traced) / n,
        "trace.overhead_frac": (statistics.median(r.seconds for r in traced)
                                / statistics.median(r.seconds for r in plain) - 1.0),
        "trace.campaigns": n,
    }
    for name in names:
        span, _, field = name.rpartition(".")
        if name not in values and span in SPAN_NAMES and field in SPAN_FIELDS:
            values[name] = getattr(tracer.stats(span), SPAN_FIELDS[field]) / n
    return values


# ---------------------------------------------------------------------------
# entry points


def run_one(args) -> int:
    if not (SRC / "fisherlab" / "cli.py").is_file():
        print(f"error: no fisherlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    sys.path.insert(0, str(SRC))
    import fisherlab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "fisherlab":
        print(f"error: imported fisherlab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()

    if args.trace:
        import_s = import_times()
    else:
        setup_s = setup_seconds()
    work_dir = OUT / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    records, tracer = closed_loop(cli, workload, args.seed, args.seconds,
                                  bool(args.trace), work_dir)

    problems = [f"{' '.join(r.campaign.argv)}: {p}" for r in records for p in r.problems]
    if args.trace:
        wanted = spec["per_layer"]
        metrics = per_layer(records, tracer, import_s, [m["name"] for m in wanted])
        problems.extend(f"trace: {p}" for p in tracer.problems(workload.name))
    else:
        wanted = spec["end_to_end"]
        metrics = end_to_end(records, setup_s)
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    times = [r.seconds for r in records]
    _, q = tail(times)
    print(f"workload {workload.name}: {len(records)} campaigns, closed loop, one client; "
          f"units_per_s counts {workload.unit}/s; campaign_s_tail is p{q:.4g}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:>14.6g} {m['unit']}")
    for p in problems:
        print(f"  problem: {p}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": not problems, "attempted": len(records),
              "failed": sum(not r.ok for r in records), "metrics": metrics}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "result": result,
                    "problems": problems,
                    "campaigns": [r.to_dict() for r in records]}, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of every metric."""
    rows, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
        status |= not rows[name]["correct"]
    names = list(next(iter(rows.values()))["metrics"]) if rows else []
    print(f"{'metric':52s} {'unit':>14s} " + " ".join(f"{w:>14s}" for w in rows))
    for metric in names:
        unit = next(iter(rows.values()))["metrics"][metric]["unit"]
        cells = " ".join(f"{r['metrics'][metric]['value']:>14.6g}" for r in rows.values())
        print(f"{metric:52s} {unit:>14s} {cells}")
    print(f"{'correct':52s} {'':>14s} " + " ".join(f"{str(r['correct']):>14s}" for r in rows.values()))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
