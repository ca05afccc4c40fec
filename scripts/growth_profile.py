#!/usr/bin/env python3
"""Sweep the growth profile and its optimum across field strengths.

Prints the closed-form optimum (eps*, K*, L*) for a range of sigma^2(d-1)
values together with the flat-space scale ratio, and tabulates the relaxed
value L*(alpha, mu) on a small grid around the corner (1, mu0).
"""

import argparse

from hypam.varopt import ModelParams, euclid_growth, l_star_relaxed, optimize_f


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--t", type=float, default=1e4,
                    help="time at which to compare against the flat-space scale")
    args = ap.parse_args()

    print(f"# d = {args.d}")
    print(f"{'sigma2':>8} {'eps*':>6} {'K*':>10} {'L*':>10} {'flat/curved @t':>16}")
    for sigma2 in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0):
        p = ModelParams(args.d, sigma2)
        sol = optimize_f(p)
        ratio = euclid_growth(args.t, p) / (sol.L_star * args.t ** (5.0 / 3.0))
        print(f"{sigma2:8.2f} {sol.eps_star:6.3f} {sol.K_star:10.6f} "
              f"{sol.L_star:10.6f} {ratio:16.3e}")

    p = ModelParams(args.d, 1.0)
    print("\n# relaxed value L*(alpha, mu/mu0) / L*")
    base = optimize_f(p).L_star
    alphas = [0.9, 0.95, 0.99, 1.0]
    factors = [1.0, 1.01, 1.05, 1.1]
    header = "      " + " ".join(f"{f:>8.2f}" for f in factors)
    print(header)
    for a in alphas:
        row = [l_star_relaxed(a, f * p.mu0) / base for f in factors]
        print(f"{a:5.2f} " + " ".join(f"{v:8.4f}" for v in row))


if __name__ == "__main__":
    main()
