"""Heat kernels on H^d for the generator Delta (no 1/2 factor).

Three kernels live here, each as a log: the dimension-general two-sided
comparison profile ``t^(-d/2) * exp(-(d-1)^2 t/4 - rho^2/(4t) - (d-1) rho/2)
* (1+rho+t)^((d-3)/2) * (1+rho)`` (:func:`log_comparison_fn`), which
brackets the true kernel up to constants; the exact closed form in three
dimensions ``(4 pi t)^(-3/2) * (rho/sinh rho) * exp(-t - rho^2/(4t))``, the
transition weight of the bridge sampler and the source of the H^3 radial
law; and McKean's exact kernel in two dimensions (one quadrature per
point).  The two exact kernels calibrate the profile and are checked
against the heat equation.

Convention note: the classical literature often writes kernels for the
generator Delta/2; every formula here uses Delta, i.e. time runs twice as
fast.  The d=3 closed form is the standard one with t replaced by 2t.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import KernelUnavailable
from .geometry import _cumulative_trapezoid


def log_comparison_fn(t, rho, d):
    """Log of the two-sided comparison profile for the heat kernel on H^d."""
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


def log_exact_h3(t, rho):
    t = np.asarray(t, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if np.any(t <= 0) or np.any(rho < 0):
        raise ValueError("need t > 0 and rho >= 0")
    # rho/sinh(rho) -> 1 as rho -> 0; log computed stably at both ends, the
    # far form only where x >= 20 selects it
    x = np.where(rho > 1e-8, rho, 1e-8)
    log_sinh = np.log(np.sinh(np.minimum(x, 20.0)), out=np.empty(x.shape))
    far = x >= 20.0
    if np.any(far):
        log_sinh[far] = x[far] - np.log(2.0) + np.log1p(-np.exp(-2.0 * x[far]))
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
    cdf = _cumulative_trapezoid(dens, grid)
    cdf /= cdf[-1]

    def F(x):
        return np.interp(x, grid, cdf, left=0.0, right=1.0)

    return F


def _log_sinh(x):
    """log sinh(x) of one float x > 0, in the far form from x = 20 on."""
    if x < 20.0:
        return math.log(math.sinh(x))
    return x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))


def log_exact_h2(t, rho):
    """Log of McKean's exact H^2 heat kernel (J. Diff. Geom. 4, 1970),

        sqrt(2) (4 pi t)^(-3/2) e^(-t/4)
            * integral over s >= rho of s e^(-s^2/(4t)) (cosh s - cosh rho)^(-1/2) ds,

    one ``scipy.integrate.quad`` per broadcast (t, rho) pair.  The variable
    s = rho + u^2 and ``cosh s - cosh rho = 2 sinh(rho + u^2/2) sinh(u^2/2)``
    make the integrand finite, also at rho = 0.  It is the exp of a sum of
    logs, scaled by ``e^(rho^2/(4t) + rho/2)`` so that it stays
    representable; the scale comes back outside the integral.  For rho < 1
    the integrand turns over at u ~ sqrt(rho), which adaptive bisection from
    [0, inf) can step over, so the u-range is cut at sqrt(rho) * 16^k below 1.
    """
    from scipy.integrate import quad
    t, rho = np.broadcast_arrays(np.asarray(t, dtype=float),
                                 np.asarray(rho, dtype=float))
    if np.any(t <= 0) or np.any(rho < 0):
        raise ValueError("need t > 0 and rho >= 0")
    out = np.empty(t.shape)
    for i, (ti, ri) in enumerate(zip(t.flat, rho.flat)):
        ti, ri = float(ti), float(ri)

        def integrand(u):
            # quad's Gauss-Kronrod nodes lie inside each interval, so u > 0
            v = 0.5 * u * u
            return math.exp(math.log(2.0 * (ri + 2.0 * v)) - v * (ri + v) / ti
                            + 0.5 * (ri + math.log(v) - _log_sinh(v) - _log_sinh(ri + v)))

        edges = [0.0]
        cut = math.sqrt(ri)
        while 0.0 < cut < 1.0:
            edges.append(cut)
            cut *= 16.0
        edges.append(math.inf)
        total = sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for a, b in zip(edges[:-1], edges[1:]))
        out.flat[i] = (0.5 * math.log(2.0) - 1.5 * math.log(4.0 * math.pi * ti)
                       - 0.25 * ti - ri * ri / (4.0 * ti) - 0.5 * ri
                       + math.log(total))
    return out[()]


_EXACT_LOG_KERNELS = {2: log_exact_h2, 3: log_exact_h3}


def _exact_log_kernel(d):
    """The exact log heat kernel ``(t, rho) -> log p`` of H^d, for d = 2 or 3."""
    try:
        return _EXACT_LOG_KERNELS[d]
    except KeyError:
        raise KernelUnavailable(
            f"no exact heat kernel for d={d}; only d=2 and d=3 have one") from None


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


# the (t, rho) grid of :func:`calibrate`
_T_GRID = np.geomspace(0.1, 10.0, 25)
_RHO_GRID = np.linspace(0.0, 20.0, 81)


def calibrate(d):
    """Fit the sandwich constants of the comparison profile.

    The exact kernel of H^d (d = 2 or 3, :func:`_exact_log_kernel`) is
    divided by the profile on the full grid of 25 geometric t in [0.1, 10]
    and 81 uniform rho in [0, 20]; other dimensions raise
    :class:`KernelUnavailable`.  Fails (:class:`CalibrationFailed`) when the
    fitted spread C2/C1 exceeds 100.
    """
    log_exact = _exact_log_kernel(d)
    ratio_cap = 100.0
    grid_spec = {"t": [float(_T_GRID[0]), float(_T_GRID[-1]), int(_T_GRID.size)],
                 "rho": [float(_RHO_GRID[0]), float(_RHO_GRID[-1]), int(_RHO_GRID.size)],
                 "reference": "exact"}
    tt, rr = np.meshgrid(_T_GRID, _RHO_GRID, indexing="ij")
    ratios = np.exp(log_exact(tt, rr) - log_comparison_fn(tt, rr, d)).ravel()
    if not np.all(np.isfinite(ratios)) or np.any(ratios <= 0):
        raise CalibrationFailed("reference/comparison ratio unbounded on grid")
    C1, C2 = float(np.min(ratios)), float(np.max(ratios))
    if C2 / C1 > ratio_cap:
        raise CalibrationFailed(
            f"sandwich spread C2/C1 = {C2 / C1:.3g} exceeds cap {ratio_cap}")
    return KernelCalibration(d, C1, C2, grid_spec)


def heat_equation_residual(t, rho, d=3):
    """Radial heat-operator residual of the exact H^d kernel (d = 2 or 3) by
    5-point finite differences.

    Returns |dp/dt - (d^2p/drho^2 + (d-1) coth(rho) dp/drho)| at (t, rho), with
    steps 3e-4 * max(t, 1) and 3e-4 * max(rho, 1); the exact kernel satisfies
    the equation so this measures numerical error only.
    """
    h_t = 3e-4 * max(t, 1.0)
    h_rho = 3e-4 * max(rho, 1.0)
    w1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    w2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    off = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    log_p = _exact_log_kernel(d)
    pt = np.exp(log_p(t + off * h_t, rho))
    pr = np.exp(log_p(t, rho + off * h_rho))
    dp_dt = np.dot(w1, pt) / h_t
    dp_drho = np.dot(w1, pr) / h_rho
    d2p_drho2 = np.dot(w2, pr) / h_rho ** 2
    return abs(dp_dt - (d2p_drho2 + (d - 1) / np.tanh(rho) * dp_drho))
