#!/usr/bin/env python3
"""Localized-scenario experiment on a planted-peak potential.

Plants a deterministic bump at a chosen distance, runs the plain
Feynman-Kac estimator and the localized lower bound across a grid of
entering-time fractions, and prints where the restricted scenario captures
the largest share of the estimate -- a desk-scale picture of the
enter-then-sit mechanism.  The plain estimate is printed next to the exact
log u(t, o) of the radial solver (``hypam.exact.radial_pam``), which solves
the equation around the peak's centre and reads it at the peak's distance.
"""

import argparse
import math

import numpy as np

from hypam import exact, feynman_kac as fk
from hypam import geometry as geo


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--t", type=float, default=1.0)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--n-paths", type=int, default=400)
    ap.add_argument("--height", type=float, default=3.0)
    ap.add_argument("--distance", type=float, default=1.5)
    ap.add_argument("--width", type=float, default=1.0)
    ap.add_argument("--tube", type=float, default=1.0)
    ap.add_argument("--r-peak", type=float, default=0.8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    center = geo.point_at(args.d, args.distance, np.eye(args.d)[0])
    pot = fk.PlantedPeakPotential(center, args.height, args.width)
    full = fk.fk_estimate(pot, args.d, args.t, args.dt, args.n_paths, args.seed)
    print(f"plain estimate: {full.mean:.5f} +- {full.se:.5f}")
    # the solver's domain reaches well beyond where paths from the peak's
    # distance get to by time t (radial drift about d - 1, spread sqrt(2 t))
    r_max = (args.distance + args.width + (args.d - 1) * args.t
             + 6.0 * math.sqrt(2.0 * args.t) + 2.0)
    r, log_u = exact.radial_pam(pot.radial, args.d, args.t, r_max=r_max)
    print(f"log u(t, o): exact {np.interp(args.distance, r, log_u):.5f}, "
          f"plain {full.log_mean:.5f}")
    print(f"{'eps':>6} {'accept':>8} {'restricted':>11} {'share':>7}")
    for eps in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8):
        loc = fk.fk_localized_lower(pot, args.d, args.t, eps, 6.0, args.tube,
                                    center, args.seed, args.n_paths,
                                    r_peak=args.r_peak, dt=args.dt)
        share = loc.mean / full.mean if full.mean > 0 else float("nan")
        print(f"{eps:6.2f} {loc.accept_fraction:8.3f} {loc.mean:11.5f} {share:7.3f}")


if __name__ == "__main__":
    main()
