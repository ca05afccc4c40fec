"""Heat kernels on H^d for the generator Delta (no 1/2 factor).

Two objects live here: the dimension-general two-sided comparison profile
``t^(-d/2) * exp(-(d-1)^2 t/4 - rho^2/(4t) - (d-1) rho/2) * (1+rho+t)^((d-3)/2)
* (1+rho)`` which brackets the true kernel up to constants, and the exact
closed form in three dimensions ``(4 pi t)^(-3/2) * (rho/sinh rho) *
exp(-t - rho^2/(4t))`` used as a quantitative oracle and as the transition
weight of the bridge sampler.

Convention note: the classical literature often writes kernels for the
generator Delta/2; every formula here uses Delta, i.e. time runs twice as
fast.  The d=3 closed form is the standard one with t replaced by 2t.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .config import BudgetExceeded, KernelUnavailable, MAX_CALIBRATION_PATHS
from .geometry import distance, side_length, sphere_area


def log_comparison_fn(t, rho, d):
    t = np.asarray(t, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(t <= 0) or np.any(rho < 0):
        raise ValueError("need t > 0 and rho >= 0")
    return (-(d / 2.0) * np.log(t)
            - (d - 1.0) ** 2 * t / 4.0
            - rho ** 2 / (4.0 * t)
            - (d - 1.0) * rho / 2.0
            + ((d - 3.0) / 2.0) * np.log1p(rho + t)
            + np.log1p(rho))


def comparison_fn(t, rho, d):
    """Two-sided comparison profile for the heat kernel on H^d."""
    return np.exp(log_comparison_fn(t, rho, d))


def log_comparison_drho(t, rho, d):
    """Exact rho-derivative of log comparison_fn (hand differentiation)."""
    t = np.asarray(t, dtype=float)
    rho = np.asarray(rho, dtype=float)
    return (-rho / (2.0 * t) - (d - 1.0) / 2.0
            + (d - 3.0) / (2.0 * (1.0 + rho + t))
            + 1.0 / (1.0 + rho))


def log_exact_h3(t, rho):
    t = np.asarray(t, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(t <= 0) or np.any(rho < 0):
        raise ValueError("need t > 0 and rho >= 0")
    # rho/sinh(rho) -> 1 as rho -> 0; log computed stably at both ends
    x = np.where(rho > 1e-8, rho, 1e-8)
    log_sinh = np.where(x < 20.0,
                        np.log(np.sinh(np.minimum(x, 20.0))),
                        x - np.log(2.0) + np.log1p(-np.exp(-2.0 * x)))
    log_ratio = np.where(rho > 1e-8, np.log(x) - log_sinh, -rho ** 2 / 6.0)
    return (-1.5 * np.log(4.0 * np.pi * t) + log_ratio - t - rho ** 2 / (4.0 * t))


def exact_h3(t, rho):
    """Exact H^3 heat kernel (4 pi t)^(-3/2) (rho/sinh rho) exp(-t - rho^2/4t)."""
    return np.exp(log_exact_h3(t, rho))


def h3_radial_density(t, rho):
    """Density of the distance-to-start at time t in H^3: p * area * sinh^2."""
    return exact_h3(t, rho) * 4.0 * np.pi * np.sinh(rho) ** 2


def h3_radial_cdf(t):
    """Callable CDF of the radial law at time t (cumulative quadrature on
    20001 points up to 2t + 12 sqrt(t) + 12, beyond which it is 1)."""
    rho_max = 2.0 * t + 12.0 * np.sqrt(t) + 12.0
    grid = np.linspace(0.0, rho_max, 20001)
    dens = h3_radial_density(t, np.maximum(grid, 1e-12))
    cdf = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
    cdf /= cdf[-1]

    def F(x):
        return np.interp(x, grid, cdf, left=0.0, right=1.0)

    return F


def log_kernel(t, rho, d):
    """Log transition weight: exact for d = 3, comparison profile otherwise.

    For d != 3 the unknown sandwich constant is omitted; this is harmless in
    ratio-based uses (bridge transitions, argmax scans) where it cancels.
    """
    if d == 3:
        return log_exact_h3(t, rho)
    return log_comparison_fn(t, rho, d)


@dataclass(frozen=True)
class KernelCalibration:
    """Fitted sandwich constants: C1 * q <= p_hat <= C2 * q on the grid."""
    d: int
    C1: float
    C2: float
    grid_spec: dict

    def __post_init__(self):
        if not (0.0 < self.C1 <= self.C2):
            raise ValueError("calibration requires 0 < C1 <= C2")


class CalibrationFailed(RuntimeError):
    pass


def calibrate(d, t_grid=None, rho_grid=None, n_paths=MAX_CALIBRATION_PATHS,
              dt=2e-3, seed=0):
    """Fit the sandwich constants of the comparison profile.

    d = 3 uses the exact kernel on the full (t, rho) grid.  Other dimensions
    estimate the kernel from simulated radial marginals (histogram density
    divided by the sphere-area surface factor), which restricts the grid to
    bins with at least 50 samples, from at most ``MAX_CALIBRATION_PATHS``
    paths per time.  Fails when the fitted spread C2/C1 exceeds 100.
    """
    ratio_cap = 100.0
    if t_grid is None:
        t_grid = np.geomspace(0.1, 10.0, 25)
    if rho_grid is None:
        rho_grid = np.linspace(0.0, 20.0, 81)
    t_grid = np.asarray(t_grid, dtype=float)
    rho_grid = np.asarray(rho_grid, dtype=float)
    grid_spec = {"t": [float(t_grid[0]), float(t_grid[-1]), int(t_grid.size)],
                 "rho": [float(rho_grid[0]), float(rho_grid[-1]), int(rho_grid.size)]}

    if d == 3:
        tt, rr = np.meshgrid(t_grid, rho_grid, indexing="ij")
        ratios = np.exp(log_exact_h3(tt, rr) - log_comparison_fn(tt, rr, d)).ravel()
        grid_spec["reference"] = "exact"
    else:
        if n_paths > MAX_CALIBRATION_PATHS:
            raise BudgetExceeded(f"paths {n_paths} above cap {MAX_CALIBRATION_PATHS}")
        from .brownian import simulate_radial_batch
        area = sphere_area(d)
        collected = []
        for it, t in enumerate(t_grid):
            r = simulate_radial_batch(d, float(t), dt, 0.0, seed=seed, n_paths=n_paths,
                                      stream_id=it)
            edges = rho_grid
            counts, _ = np.histogram(r, bins=edges)
            widths = np.diff(edges)
            mids = 0.5 * (edges[1:] + edges[:-1])
            ok = counts >= 50
            dens = counts[ok] / (n_paths * widths[ok])
            p_hat = dens / (area * np.sinh(mids[ok]) ** (d - 1))
            q = comparison_fn(float(t), mids[ok], d)
            collected.append(p_hat / q)
        ratios = np.concatenate(collected)
        grid_spec.update(reference="mc", n_paths=int(n_paths), dt=float(dt))

    if ratios.size == 0 or not np.all(np.isfinite(ratios)) or np.any(ratios <= 0):
        raise CalibrationFailed("reference/comparison ratio unbounded or empty on grid")
    C1, C2 = float(np.min(ratios)), float(np.max(ratios))
    if C2 / C1 > ratio_cap:
        raise CalibrationFailed(
            f"sandwich spread C2/C1 = {C2 / C1:.3g} exceeds cap {ratio_cap}")
    return KernelCalibration(d, C1, C2, grid_spec)


def heat_equation_residual(t, rho):
    """Radial heat-operator residual of exact_h3 by 5-point finite differences.

    Returns |dp/dt - (d^2p/drho^2 + 2 coth(rho) dp/drho)| at (t, rho), with
    steps 3e-4 * max(t, 1) and 3e-4 * max(rho, 1); the exact kernel satisfies
    the equation so this measures numerical error only.
    """
    h_t = 3e-4 * max(t, 1.0)
    h_rho = 3e-4 * max(rho, 1.0)
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    off = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    pt = exact_h3(t + off * h_t, rho)
    pr = exact_h3(t, rho + off * h_rho)
    dp_dt = np.dot(w1, pt) / h_t
    dp_drho = np.dot(w1, pr) / h_rho
    d2p_drho2 = np.dot(w2, pr) / h_rho ** 2
    return abs(dp_dt - (d2p_drho2 + 2.0 / np.tanh(rho) * dp_drho))


def bridge_marginal(t_a, x, t_b, q, t_mid, y, d=3):
    """Midpoint density of the Brownian bridge: p(s1,x,y) p(s2,y,q) / p(s,x,q).

    Times must satisfy t_a < t_mid < t_b; only d = 3 has a quantitative
    kernel, other dimensions raise :class:`KernelUnavailable`.
    """
    if not (t_a < t_mid < t_b):
        raise ValueError("need t_a < t_mid < t_b")
    if d != 3:
        raise KernelUnavailable("bridge marginal needs the exact d=3 kernel")
    s1 = t_mid - t_a
    s2 = t_b - t_mid
    s = t_b - t_a
    r1 = distance(x, y, validate=False)
    r2 = distance(y, q, validate=False)
    r = distance(x, q, validate=False)
    return float(np.exp(log_exact_h3(s1, r1) + log_exact_h3(s2, r2) - log_exact_h3(s, r)))


def bridge_marginal_normalization(t_a, t_b, t_mid, D, n_r=400, n_theta=200):
    """Integral of the d=3 bridge marginal over H^3 (should be 1).

    Endpoints at distance D apart; integration in polar coordinates around
    the start point using the hyperbolic law of cosines for d(y, q).
    """
    s1 = t_mid - t_a
    s2 = t_b - t_mid
    s = t_b - t_a
    r_max = D + 14.0 * np.sqrt(max(s1, s2)) + 4.0 * s
    r = np.linspace(1e-9, r_max, n_r)
    theta = np.linspace(0.0, np.pi, n_theta)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    d2 = side_length(rr, D, tt)
    log_num = log_exact_h3(s1, rr) + log_exact_h3(s2, d2)
    log_den = log_exact_h3(s, D)
    integrand = np.exp(log_num - log_den) * np.sinh(rr) ** 2 * np.sin(tt)
    inner = integrate.trapezoid(integrand, theta, axis=1)
    return 2.0 * np.pi * integrate.trapezoid(inner, r)
