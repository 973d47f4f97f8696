#!/usr/bin/env python3
"""Survey empirical maximum-principle constants over a grid of Riesz orders.

For each order, builds a sphere (and a ball) instance, probes capacitary
measures of random subsets, and prints the running lower bound on the
constant next to the classical ceiling (1 up to order 2, ``2**(n - alpha)``
above), the instance's ``h``.  The estimates are lower bounds only and never
certify a matrix.

Usage: python scripts/ugaheri_survey.py [--trials 100] [--m 150] [--seed 3]
"""

from __future__ import annotations

import argparse

import numpy as np

from finpot.core import SOLVER_TOL, KernelMatrix, SupportSet
from finpot.gauss import capacitary_measure
from finpot.instances import Ball, InstanceSpec, RieszKernel, Sphere, assemble


def ugaheri_estimate(kernel: KernelMatrix, trials: int, seed: int = 0) -> float:
    """Lower bound on the matrix's maximum-principle constant, at least 1.

    Samples ``trials`` random subsets with a seeded generator, computes each
    capacitary measure, and returns the largest ratio of the potential's
    global maximum to its maximum on the support of the measure.  Exact
    verification is exponential in the node count, so the estimate is
    heuristic and never certifies the matrix.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    m = kernel.size
    h_hat = 1.0
    for _ in range(trials):
        size = int(rng.integers(1, m)) if m > 1 else 1
        subset = np.sort(rng.choice(m, size=size, replace=False))
        w = capacitary_measure(kernel, SupportSet(subset)).gamma.weights
        pot = kernel.entries @ w
        supp = w > SOLVER_TOL * max(1.0, float(np.max(np.abs(w))))
        if supp.any() and (c_mu := float(pot[supp].max())) > 0.0:
            h_hat = max(h_hat, float(pot.max()) / c_mu)
    return h_hat


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--m", type=int, default=150)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    print(f"{'alpha':>6} {'geometry':>8} {'h_hat':>10} {'ceiling':>10}")
    for alpha in (0.5, 1.0, 1.5, 2.0, 2.25, 2.5, 2.75):
        for geometry, tag in ((Sphere(1.0, args.m), "sphere"), (Ball(1.0, args.m), "ball")):
            inst = assemble(InstanceSpec(3, RieszKernel(alpha), geometry))
            h_hat = ugaheri_estimate(inst.kernel, trials=args.trials, seed=args.seed)
            flag = "" if h_hat <= inst.h * 1.02 else "  (!) above ceiling"
            print(f"{alpha:>6.2f} {tag:>8} {h_hat:>10.4f} {inst.h:>10.4f}{flag}")


if __name__ == "__main__":
    main()
