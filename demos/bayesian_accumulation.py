"""Bayesian phase accumulation from repeated balanced-outcome shots.

A single balanced shot leaves a posterior with heavy oscillatory tails whose
variance decays only like 1/ln j; accumulating a few shots suppresses the
tails and reaches the optimal resolution 1/(n j^2) = 4n/N_tot^2.
"""

import math

import numpy as np

from fisherlab import (posterior_flat, posterior_update, resource_scaling,
                       run_accumulation, FockInput)


def main():
    print("Single-shot posterior over the pi window: variance ~ 1/ln j")
    for j in (50, 100, 200, 400):
        post = posterior_update(posterior_flat(), FockInput(n1=j, n2=j), 0.0)
        v = post.variance()
        print(f"  j = {j:4d}: variance = {v:.5f}, variance * ln j = "
              f"{v * math.log(j):.3f}")

    print("\nAccumulating post-selected balanced shots at j = 50:")
    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 8):
        _, v = run_accumulation(50.0, n, 0.0, (-math.pi / 2, math.pi / 2),
                                rng, postselect_zero=True)
        pred = resource_scaling(50.0, n) if n >= 4 else float("nan")
        note = f"  (4n/N_tot^2 = {pred:.2e})" if n >= 4 else ""
        print(f"  n = {n}: variance = {v:.3e}{note}")
    print("From n = 4 on, the posterior is effectively Gaussian and the")
    print("variance follows the optimal 1/(n j^2) resource scaling.")

    print("\nSampled (not post-selected) record at phi_true = 0.02, j = 50:")
    for seed in (1, 2, 3):
        post, v = run_accumulation(50.0, 6, 0.02, (-math.pi / 2, math.pi / 2),
                                   np.random.default_rng(seed))
        mean = np.trapezoid(post.grid * post.density, post.grid)
        print(f"  seed {seed}: posterior mean = {mean:+.4f}, "
              f"variance = {v:.3e}")


if __name__ == "__main__":
    main()
