"""Layer spans recorded from outside the program.

Each public function of a layer is wrapped where the caller looks it up (a
module attribute read at call time), not only where it is defined, because
``from .x import f`` binds a second name.  Spans nest through a stack, so a
span's self time is its duration minus the time of the traced spans it
called.  Wrappers are installed only around traced campaigns and removed
after, so untraced campaigns run the unmodified program.
"""

from __future__ import annotations

import importlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _dim(j: float) -> int:
    return int(round(2 * j)) + 1


def _dense_elems(source, phi) -> int:
    return _dim(source.j) ** 2


def _curve_elems(j, k, m, phis) -> int:
    return len(phis) * _dim(j)


@dataclass(frozen=True)
class Site:
    """A lookup site: ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    span: str
    elems: Optional[Callable[..., int]] = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


SITES = (
    Site("fisherlab.cli", "outcome_distribution",
         "interferometer.outcome_distribution", _dense_elems),
    Site("fisherlab.montecarlo", "outcome_distribution",
         "interferometer.outcome_distribution", _dense_elems),
    Site("fisherlab.interferometer", "outcome_amplitude_curve",
         "interferometer.outcome_amplitude_curve", _curve_elems),
    Site("fisherlab.montecarlo", "posterior_update", "interferometer.posterior_update"),
    Site("fisherlab.cli", "fisher_phase_at_zero", "interferometer.fisher_phase_at_zero"),
    Site("fisherlab.models", "ParametricModel.probabilities", "models.probabilities"),
    Site("fisherlab.montecarlo", "log_likelihood", "models.log_likelihood"),
    Site("fisherlab.montecarlo", "fisher_information", "models.fisher_information"),
    Site("fisherlab.cli", "run_trials", "montecarlo.run_trials"),
    Site("fisherlab.montecarlo", "sample_outcomes", "montecarlo.sample_outcomes"),
    Site("fisherlab.cli", "run_accumulation", "montecarlo.run_accumulation"),
    Site("fisherlab.slit", "farfield_density", "slit.farfield_density"),
    Site("fisherlab.slit", "farfield_model", "slit.farfield_model"),
)

SPAN_NAMES = {site.span for site in SITES} | {"cli.main"}

# Sites that must fire on each workload, and span prefixes that must stay at
# zero calls on the workloads that bypass them.  A rename in the program
# breaks one of these and makes the traced run incorrect.
MUST_FIRE = {
    "cli.outcome_distribution": ("mz-bayes", "mz-sweep"),
    "montecarlo.outcome_distribution": ("mz-accumulate",),
    "montecarlo.posterior_update": ("mz-accumulate",),
    "cli.run_trials": ("slit-mle", "mz-bayes"),
    "cli.run_accumulation": ("mz-accumulate",),
    "slit.farfield_density": ("slit-mle",),
    "models.ParametricModel.probabilities": ("slit-mle", "mz-bayes"),
}
MUST_BYPASS = {
    "slit-mle": ("interferometer.",),
    "mz-accumulate": ("models.",),
}


class SpanStats:
    __slots__ = ("calls", "busy_s", "self_s", "elems")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.elems = 0


class Tracer:
    """Aggregates spans by name; ``site_calls`` counts calls per lookup site."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.site_calls: Counter = Counter()
        self.missing: list[str] = []
        self._child_s: list[float] = []      # child time of each open span
        self._eig = None
        self.eig_hits = 0
        self.eig_misses = 0

    def call(self, span: str, fn: Callable, *args, site: str | None = None,
             elems: Optional[Callable[..., int]] = None, **kwargs):
        self._child_s.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            child = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += dur
            stats = self.spans.setdefault(span, SpanStats())
            stats.calls += 1
            stats.busy_s += dur
            stats.self_s += dur - child
            if elems is not None:
                stats.elems += elems(*args, **kwargs)
            if site is not None:
                self.site_calls[site] += 1

    def _wrapper(self, site: Site, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(site.span, fn, *args, site=site.name,
                             elems=site.elems, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every site; return what ``uninstall`` needs to restore."""
        saved = []
        for site in SITES:
            owner = importlib.import_module(site.module)
            *path, attr = site.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                if site.name not in self.missing:
                    self.missing.append(site.name)
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(site, fn))
        interferometer = importlib.import_module("fisherlab.interferometer")
        self._eig = getattr(interferometer, "_generator_eigensystem", None)
        if self._eig is None or not hasattr(self._eig, "cache_info"):
            if "interferometer._generator_eigensystem" not in self.missing:
                self.missing.append("interferometer._generator_eigensystem")
            self._eig = None
        else:
            info = self._eig.cache_info()
            self.eig_hits -= info.hits
            self.eig_misses -= info.misses
        return saved

    def uninstall(self, saved: list[tuple[object, str, object]]) -> None:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
        if self._eig is not None:
            info = self._eig.cache_info()
            self.eig_hits += info.hits
            self.eig_misses += info.misses

    def problems(self, workload: str) -> list[str]:
        """Broken expectations: missing sites, silent sites, unexpected calls."""
        out = [f"lookup site {name} no longer exists" for name in self.missing]
        for site, workloads in MUST_FIRE.items():
            if workload in workloads and self.site_calls[site] == 0:
                out.append(f"{site} never fired on {workload}")
        for prefix in MUST_BYPASS.get(workload, ()):
            for span, stats in self.spans.items():
                if span.startswith(prefix) and stats.calls:
                    out.append(f"{span} fired {stats.calls}x on bypass workload {workload}")
            if prefix == "interferometer." and self.eig_hits + self.eig_misses:
                out.append(f"eigensystem looked up on bypass workload {workload}")
        return out

    def stats(self, span: str) -> SpanStats:
        return self.spans.get(span, SpanStats())
