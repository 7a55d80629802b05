"""Acceptance gate: one test per headline claim, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 8 states a 2% envelope that the exact balanced-outcome
probability does not satisfy at j = 100 (measured: 2.6% single shot, 5.2%
for two shots); it is asserted as stated and is expected to fail.  See the
project notes for the blocking analysis.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from fisherlab import (FockInput, Representation, SlitGeometry,
                       SlitWavefunction, TrialConfig, build_rep,
                       farfield_model, fisher_from_wavefunction,
                       fisher_phase_at_zero, fisher_slit,
                       outcome_amplitude_curve, position_variance,
                       posterior_flat, posterior_update, resource_scaling,
                       run_accumulation, run_trials, slit_wavefunction,
                       truncated_momentum_variance, uncertainty_chain,
                       wigner_d)

GEOMETRY = SlitGeometry()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_slit_fisher_information():
    t0 = time.perf_counter()
    f = fisher_slit(GEOMETRY)
    elapsed = time.perf_counter() - t0
    err = abs(f - 4.0 / 3.0)
    ok = err < 1e-6 and elapsed < 1.0
    report(1, ok, f"slit Fisher information = {f:.10f} "
                  f"(|error| = {err:.2e} < 1e-6, {elapsed:.2f}s < 1s)")


def test_criterion_2_heisenberg_saturation():
    t0 = time.perf_counter()
    dp2_bound, _, product = uncertainty_chain(GEOMETRY)
    dx2 = position_variance(GEOMETRY)
    elapsed = time.perf_counter() - t0
    target = GEOMETRY.hbar ** 2 / 4.0
    rel = abs(product - target) / target
    ok = rel < 1e-6 and elapsed < 1.0
    report(2, ok, f"bound product (1/F)(2ℏ/a)²·(Δx)² = {product:.10f} vs ℏ²/4 "
                  f"(rel error {rel:.2e} < 1e-6, {elapsed:.2f}s < 1s)")


def test_criterion_3_heavy_tail_divergence():
    values = [truncated_momentum_variance(GEOMETRY, w)
              for w in (1e2, 1e3, 1e4)]
    rels = [abs(v - w / math.pi) / (w / math.pi)
            for v, w in zip(values, (1e2, 1e3, 1e4))]
    increasing = values[0] < values[1] < values[2]
    ok = max(rels) < 0.05 and increasing
    report(3, ok, "truncated momentum variance tracks W/π "
                  f"(rel errors {[f'{r:.4f}' for r in rels]} < 5%, "
                  f"strictly increasing: {increasing})")


def test_criterion_4_momentum_fisher_decomposition():
    rng = np.random.default_rng(404)
    worst_identity = 0.0
    worst_constant_phase = 0.0

    psi = slit_wavefunction(GEOMETRY, Representation.MOMENTUM)
    f_p, var_term, phase_term = fisher_from_wavefunction(psi)
    worst_identity = abs(f_p - (var_term - phase_term)) / f_p
    worst_constant_phase = abs(phase_term)

    grid = np.linspace(-20.0, 20.0, 40001)
    for _ in range(20):
        width = rng.uniform(0.5, 3.0)
        center = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(-3.0, 3.0)
        amp = (np.exp(-(grid - center) ** 2 / (2 * width ** 2))
               * np.exp(1j * beta * grid))
        amp = amp / math.sqrt(np.trapezoid(np.abs(amp) ** 2, grid))
        state = SlitWavefunction(geometry=GEOMETRY,
                                 representation=Representation.MOMENTUM,
                                 grid=grid, amplitude=amp)
        f_p, var_term, phase_term = fisher_from_wavefunction(state)
        worst_identity = max(worst_identity,
                             abs(f_p - (var_term - phase_term)) / f_p)
        if beta == 0.0:
            worst_constant_phase = max(worst_constant_phase, abs(phase_term))

    # explicit constant-phase states for the phase-term-vanishes clause
    for width in (0.7, 1.5, 2.5):
        amp = np.exp(-grid ** 2 / (2 * width ** 2)).astype(complex)
        amp = amp / math.sqrt(np.trapezoid(np.abs(amp) ** 2, grid))
        state = SlitWavefunction(geometry=GEOMETRY,
                                 representation=Representation.MOMENTUM,
                                 grid=grid, amplitude=amp)
        _, _, phase_term = fisher_from_wavefunction(state)
        worst_constant_phase = max(worst_constant_phase, abs(phase_term))

    ok = worst_identity < 1e-4 and worst_constant_phase < 1e-8
    report(4, ok, "F_p = variance_term - phase_term "
                  f"(worst rel deviation {worst_identity:.2e} < 1e-4; "
                  f"constant-phase term {worst_constant_phase:.2e} < 1e-8)")


def test_criterion_5_wigner_oracle():
    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    worst = 0.0
    for two_j in range(1, 21):
        j = two_j / 2.0
        rep = build_rep(j)
        for phi in rng.uniform(-math.pi, math.pi, 10):
            oracle = expm(-1j * phi * rep.j2).real
            worst = max(worst, float(np.max(np.abs(wigner_d(j, phi).d
                                                   - oracle))))
    from fisherlab import mz_transform_check
    composed = max(mz_transform_check(j / 2.0, 0.9)
                   for j in range(1, 21))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and composed < 1e-9 and elapsed < 10.0
    report(5, ok, f"rotation matrices match expm (worst {worst:.2e} < 1e-10), "
                  f"composed beamsplitter identity {composed:.2e} < 1e-9, "
                  f"{elapsed:.1f}s < 10s")


def test_criterion_6_phase_fisher_closed_form():
    worst = 0.0
    step = 1e-4
    for j, m in [(1.0, 0.0), (5.0, 2.0), (20.0, -7.0), (50.0, 0.0),
                 (100.0, 30.0), (200.0, 0.0), (200.0, 100.0)]:
        source = FockInput(n1=int(j + m), n2=int(j - m))
        closed = fisher_phase_at_zero(source, verify=False)
        p = outcome_amplitude_curve(j, m, m, np.array([-step, step])) ** 2
        fd = -2.0 * (p[0] + p[1] - 2.0) / step ** 2
        worst = max(worst, abs(fd - closed) / closed)
    # standard limit: all particles in one port give F0 = N exactly
    standard = all(fisher_phase_at_zero(FockInput(n1=n, n2=0), verify=False)
                   == float(n)
                   for n in (1, 10, 100))
    # quantum limit: balanced input gives (Δφ)² = 2/N² (1 + 2/N)⁻¹, exact up
    # to one rounding of the algebraically identical rearrangement
    n = 100
    f0 = fisher_phase_at_zero(FockInput(n1=n // 2, n2=n // 2), verify=False)
    quantum = math.isclose(1.0 / f0, (2.0 / n ** 2) / (1.0 + 2.0 / n),
                           rel_tol=1e-14)
    ok = worst < 1e-3 and standard and quantum
    report(6, ok, f"F0 = 2[j(j+1)-m²] vs -2p''(0) (worst rel dev "
                  f"{worst:.2e} < 0.1%); standard limit F0 = N exact: "
                  f"{standard}; quantum limit (Δφ)² = 2/N²(1+2/N)⁻¹ exact: "
                  f"{quantum}")


def test_criterion_7_montecarlo_efficiency():
    t0 = time.perf_counter()
    model = farfield_model(GEOMETRY)
    base = run_trials(TrialConfig(model=model, theta_true=0.5,
                                  n_particles=1000, n_trials=4000,
                                  rng_seed=7))
    doubled = run_trials(TrialConfig(model=model, theta_true=0.5,
                                     n_particles=2000, n_trials=4000,
                                     rng_seed=7))
    elapsed = time.perf_counter() - t0
    target = 3.0 / (4.0 * 1000.0)
    rel = abs(base.empirical_variance - target) / target
    halving = doubled.empirical_variance / base.empirical_variance
    ok = rel < 0.15 and abs(halving - 0.5) < 0.2 * 0.5 and elapsed < 120.0
    report(7, ok, f"MLE variance {base.empirical_variance:.3e} vs 3/(4n) = "
                  f"{target:.3e} (rel dev {rel:.3f} < 0.15); doubling n "
                  f"scaled variance by {halving:.3f} (within 20% of 1/2); "
                  f"{elapsed:.0f}s < 120s")


def test_criterion_8_bessel_posterior_shape():
    j = 100.0
    phis = np.linspace(-2.0 / j, 2.0 / j, 401)
    p0 = outcome_amplitude_curve(j, 0.0, 0.0, phis) ** 2
    bessel_sq = jv(0, phis * j) ** 2

    def constancy(ratio):
        # best-constant relative envelope: c = (max+min)/2 minimizes the
        # maximum relative deviation (max-min)/(max+min)
        return (ratio.max() - ratio.min()) / (ratio.max() + ratio.min())

    single = constancy(p0 / bessel_sq)
    source = FockInput(n1=int(j), n2=int(j))
    post = posterior_update(posterior_flat(), source, 0.0)
    post = posterior_update(post, source, 0.0)
    mask = np.abs(post.grid) * j <= 2.0
    double = constancy(post.density[mask] / jv(0, post.grid[mask] * j) ** 4)
    ok = single <= 0.02 and double <= 0.02
    report(8, ok, f"p0(φ)/J0²(φj) constant within {single:.4f} (claim: 0.02); "
                  f"two-shot posterior / J0⁴(φj) within {double:.4f} "
                  f"(claim: 0.02)")


def test_criterion_9_accumulation_scaling():
    t0 = time.perf_counter()
    window = (-math.pi / 2.0, math.pi / 2.0)
    j = 50.0
    _, v4 = run_accumulation(j, 4, 0.0, window, np.random.default_rng(9),
                             postselect_zero=True)
    target4 = 1.0 / (4 * j * j)
    _, v8 = run_accumulation(j, 8, 0.0, window, np.random.default_rng(9),
                             postselect_zero=True)
    target8 = resource_scaling(j, 8)   # 4n/N_tot² at N_tot = 2jn
    elapsed = time.perf_counter() - t0
    ok = (target4 / 1.5 < v4 < target4 * 1.5
          and target8 / 1.5 < v8 < target8 * 1.5
          and elapsed < 30.0)
    report(9, ok, f"n=4 posterior variance {v4:.3e} vs 1/(nj²) = {target4:.1e} "
                  f"(ratio {v4 / target4:.3f}); n=8 variance {v8:.3e} vs "
                  f"4n/N_tot² = {target8:.1e} (ratio {v8 / target8:.3f}); "
                  f"both within factor 1.5; {elapsed:.1f}s < 30s")


def test_criterion_10_log_width_law():
    products = []
    for j in (50, 100, 200, 400):
        source = FockInput(n1=j, n2=j)
        post = posterior_update(posterior_flat(), source, 0.0)
        products.append(post.variance() * math.log(j))
    mean = sum(products) / len(products)
    dev = max(abs(p - mean) / mean for p in products)
    ok = dev < 0.20
    report(10, ok, "single-shot variance × ln j over the π window = "
                   f"{[f'{p:.3f}' for p in products]} "
                   f"(max deviation from mean {dev:.3f} < 0.20)")
