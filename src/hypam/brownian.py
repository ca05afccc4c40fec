"""Brownian motion on H^d, its radial part, bridges and path energy.

The generator is Delta (not Delta/2): tangent increments carry covariance
2*dt per direction and the radial part solves dR = sqrt(2) dB + (d-1) coth(R) dt.
The full simulator is a geodesic random walk (Gaussian tangent steps taken
by ``geometry.frame_step``); the radial simulator is Euler-Maruyama with a
clamped drift near zero and reflection.  Both run on the one time grid of
:func:`_time_grid`, and the two are required to agree in law at matched
resolution.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import ConstraintViolation, stream
from . import geometry as geo
from .stats import linear_fit, wilson_ci

STEP_SANITY_FACTOR = 50.0   # flag steps longer than 50*sqrt(2*dt)
_N_CANDIDATES = 16          # forward proposals per bridge step and path
_N_SEGMENTS = 16            # path nodes of the forced-deviation energy problems


@dataclass
class Trajectory:
    """Time-indexed path of hyperboloid points."""
    times: np.ndarray
    points: np.ndarray
    d: int

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0) and len(self.times) > 1:
            raise ValueError("times must be strictly increasing")

    def max_step_ratio(self):
        """Largest step length relative to the sqrt(2*dt) diffusive scale."""
        if len(self.times) < 2:
            return 0.0
        steps = geo.distance(self.points[:-1], self.points[1:])
        return float(np.max(steps / np.sqrt(2.0 * np.diff(self.times))))


@dataclass(frozen=True)
class BridgeSpec:
    start: np.ndarray
    end: np.ndarray
    s: float

    def __post_init__(self):
        geo.check_points(self.start)
        geo.check_points(self.end)
        if self.s <= 0:
            raise ConstraintViolation("bridge duration must be positive")


# --- full simulator ----------------------------------------------------------

def _time_grid(t, dt):
    """The path simulators' grid: n = round(t / dt) steps of dt from time 0,
    ``linspace(0, n * dt, n + 1)``.  Raises :class:`ConstraintViolation`
    unless dt > 0 and t >= 0 with t / dt finite, which NaN fails too, and
    unless the grid ends at t, to within 1e-9 * t."""
    if not (dt > 0 and 0 <= t / dt < math.inf):
        raise ConstraintViolation("the time grid needs dt > 0 and t >= 0 with "
                                  f"finitely many steps (got t={t}, dt={dt})")
    n = int(round(t / dt))
    if abs(n * dt - t) > 1e-9 * t:
        raise ConstraintViolation("the time grid must end at t: t must be a "
                                  f"whole number of steps dt (got t={t}, dt={dt})")
    return np.linspace(0.0, n * dt, n + 1)


def simulate_bm_batch(d, t, dt, seed, n_paths, stream_id=0, record=True):
    """Vectorized geodesic random walk from the base point o; returns
    (times, points array).

    ``points`` has shape (n_steps+1, n_paths, d+1) when ``record`` else only
    the final slice (n_paths, d+1) is returned to save memory.
    """
    times = _time_grid(t, dt)
    n_steps = len(times) - 1
    x = np.tile(geo.origin(d), (n_paths, 1))
    rng = stream(seed, "bm", stream_id)
    scale = math.sqrt(2.0 * dt)
    if record:
        out = np.empty((n_steps + 1, n_paths, d + 1))
        out[0] = x
    for i in range(n_steps):
        x = geo.frame_step(x, scale * rng.standard_normal((n_paths, d)))
        if record:
            out[i + 1] = x
    return times, out if record else x


# --- radial SDE --------------------------------------------------------------

def _radial_drift(r, d, dt, out=None):
    """Drift (d-1)*coth(r), clamped to (d-1)*(1/r + 1) below r = 0.1.

    The 1/r piece is additionally floored at the step resolution
    sqrt(2*dt)/2 so a single Euler step cannot overshoot by more than one
    diffusive increment; reflection at zero handles the rest.  Written into
    ``out`` when given; the clamp is evaluated only where r < 0.1.
    """
    drift = np.maximum(r, 0.1, out=out)
    np.tanh(drift, out=drift)
    np.divide(d - 1.0, drift, out=drift)
    near = np.flatnonzero(r < 0.1)
    if near.size:
        r_eff = np.maximum(r[near], 0.5 * math.sqrt(2.0 * dt))
        drift[near] = (d - 1.0) * (1.0 / r_eff + 1.0)
    return drift


def simulate_radial_batch(d, t, dt, r0, seed, n_paths, stream_id=0):
    """Euler-Maruyama for the radial SDE; returns the final radii and each
    path's running maximum over the grid.

    Each step r <- |r + drift * dt + sqrt(2 dt) * z| is taken in place, in
    that operation order, on buffers allocated once."""
    n_steps = len(_time_grid(t, dt)) - 1
    if r0 < 0:
        raise ConstraintViolation(f"need r0 >= 0 (got r0={r0})")
    rng = stream(seed, "radial", stream_id)
    r = np.full(n_paths, float(r0))
    running_max = np.full(n_paths, float(r0))
    scale = math.sqrt(2.0 * dt)
    drift, z = np.empty(n_paths), np.empty(n_paths)
    for _ in range(n_steps):
        _radial_drift(r, d, dt, out=drift)
        drift *= dt
        rng.standard_normal(out=z)
        z *= scale
        r += drift
        r += z
        np.abs(r, out=r)
        np.maximum(running_max, r, out=running_max)
    return r, running_max


@functools.cache
def radial_drift_bound(d):
    """Numeric sup of (d-1) f'(x) coth(x) + f''(x) for the smoothing blend f.

    f is constant 1/2 on [0, 1/4], the identity on [1, inf) and a cubic
    Hermite blend in between, chosen so f is nondecreasing with f' <= 1
    (knots fixed here).  The sup is finite because f' vanishes where coth
    blows up; it is taken over 100001 grid points of the blend.
    """
    a, b = 0.25, 1.0
    x = np.linspace(a, b, 100001)
    u = (x - a) / (b - a)
    fp = 2.0 * u - u ** 2                 # f' on the blend, in [0, 1]
    fpp = (2.0 - 2.0 * u) / (b - a)
    blend = (d - 1.0) * fp / np.tanh(x) + fpp
    tail = (d - 1.0) / np.tanh(b)         # x >= 1: f' = 1, f'' = 0, coth decreasing
    return float(max(np.max(blend), tail))


# --- exit times --------------------------------------------------------------

def exit_stats(d, R_list, t, n_paths, seed, dt=0.01):
    """Empirical exit probabilities P(tau_R <= t) with Wilson intervals.

    Uses the radial simulator (the exit time of a centered ball depends on
    the radial part only) and tracks the running maximum, so all radii in
    ``R_list`` are served by one simulation, run in chunks of 500000 paths
    (each chunk its own stream).  Returns a list of dict rows.
    """
    chunk = 500000
    R_arr = np.asarray(sorted(R_list), dtype=float)
    hits = np.zeros(R_arr.size, dtype=np.int64)
    done = 0
    cid = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        _, rmax = simulate_radial_batch(d, t, dt, 0.0, seed, m, stream_id=cid)
        for j, R in enumerate(R_arr):
            hits[j] += int(np.sum(rmax >= R))
        done += m
        cid += 1
    rows = []
    for j, R in enumerate(R_arr):
        lo, hi = wilson_ci(int(hits[j]), n_paths)
        rows.append({"R": float(R), "t": float(t), "n": int(n_paths),
                     "hits": int(hits[j]), "p_hat": hits[j] / n_paths,
                     "ci_lo": lo, "ci_hi": hi})
    return rows


def exit_fit(rows):
    """Fit log p_hat against R^2/t over rows with nonzero counts."""
    xs, ys = [], []
    for row in rows:
        if row["hits"] > 0:
            xs.append(row["R"] ** 2 / row["t"])
            ys.append(math.log(row["p_hat"]))
    if len(xs) < 2:
        raise ConstraintViolation("all-zero exit counts: only one-sided bounds available")
    return linear_fit(xs, ys)


# --- first passage -----------------------------------------------------------

def first_passage_density(a, s):
    """Density of the first time standard 1-D BM hits level a > 0.

    a / (sqrt(2 pi) s^(3/2)) * exp(-a^2 / (2 s)).  Callers re-scale level and
    time themselves when applying it to sqrt(2)-speed processes.
    """
    a = np.asarray(a, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(a <= 0) or np.any(s <= 0):
        raise ConstraintViolation("need a > 0 and s > 0")
    return a / (np.sqrt(2.0 * np.pi) * s ** 1.5) * np.exp(-a * a / (2.0 * s))


def first_passage_cdf(a, s):
    """P(hitting time <= s) = erfc(a / sqrt(2 s)) for standard 1-D BM."""
    from scipy.special import erfc
    return erfc(np.asarray(a, dtype=float) / np.sqrt(2.0 * np.asarray(s, dtype=float)))


# --- bridges ------------------------------------------------------------------

def simulate_bridge_batch(spec, dt, seed, n_paths, stream_id=0):
    """Sequential kernel-ratio bridge sampler, vectorized over paths.

    At each grid time a fan of ``_N_CANDIDATES`` forward proposals (one
    geodesic-walk step each) is reweighted by the transition kernel to the
    pinned endpoint over the remaining time and one is resampled per path.
    The final point is the endpoint itself.  Bias is controlled by dt and the
    fan size and is audited by the time-reversal test in the suite.  The
    grid has n = max(2, round(s / dt)) steps and ends at s; dt must be
    positive.
    """
    if not dt > 0:
        raise ConstraintViolation(f"the bridge grid needs dt > 0 (got dt={dt})")
    from .heatkernel import log_kernel
    d = spec.start.shape[-1] - 1
    n_steps = max(2, int(round(spec.s / dt)))
    h = spec.s / n_steps
    times = np.linspace(0.0, spec.s, n_steps + 1)
    rng = stream(seed, "bridge", stream_id)
    x = np.tile(spec.start, (n_paths, 1))
    out = np.empty((n_steps + 1, n_paths, d + 1))
    out[0] = x
    scale = math.sqrt(2.0 * h)
    for i in range(1, n_steps):
        remaining = spec.s - times[i]
        coeffs = scale * rng.standard_normal((n_paths, _N_CANDIDATES, d))
        cands = geo.frame_step(x[:, None, :], coeffs)
        rho = geo.distance(cands, spec.end[None, None, :])
        logw = log_kernel(remaining, rho, d)
        logw -= logw.max(axis=1, keepdims=True)
        w = np.exp(logw)
        w /= w.sum(axis=1, keepdims=True)
        u = rng.random((n_paths, 1))
        idx = (np.cumsum(w, axis=1) < u).sum(axis=1)
        idx = np.minimum(idx, _N_CANDIDATES - 1)
        x = cands[np.arange(n_paths), idx]
        out[i] = x
    out[n_steps] = spec.end
    return times, out


def bridge_ldp_decay(x, y, delta, s_list, n_paths, seed):
    """Small-time decay of the bridge tube-exceedance probability.

    Estimates P(sup d(bridge, geodesic) > delta/2) for each duration s, on
    64 steps per bridge, then fits log p against 1/s.  Returns (rows,
    FitReport-or-None); rows with zero counts are excluded from the fit and
    reported with one-sided bounds.
    """
    rows = []
    xs, ys = [], []
    for k, s in enumerate(s_list):
        spec = BridgeSpec(np.asarray(x, float), np.asarray(y, float), float(s))
        times, pts = simulate_bridge_batch(spec, s / 64, seed, n_paths, stream_id=k)
        gamma = geo.geodesic_point(spec.start, spec.end, times / spec.s)
        dev = np.max(geo.distance(pts, gamma[:, None, :]), axis=0)
        hits = int(np.count_nonzero(dev > delta / 2.0))
        p = hits / n_paths
        lo, hi = wilson_ci(hits, n_paths)
        rows.append({"s": float(s), "p_hat": p, "hits": hits, "n": n_paths,
                     "ci_lo": lo, "ci_hi": hi})
        if hits > 0:
            xs.append(1.0 / s)
            ys.append(math.log(p))
    fit = linear_fit(xs, ys) if len(xs) >= 2 else None
    return rows, fit


# --- path energy --------------------------------------------------------------

def path_energy(points):
    """Discrete Dirichlet energy of points at uniform parameters in [0, 1].

    sum of d(x_i, x_{i+1})^2 / dv_i; for a geodesic sampled uniformly this is
    exactly d(x_0, x_end)^2 at any resolution.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 or len(pts) < 2:
        raise ConstraintViolation("need at least two points")
    v = np.linspace(0.0, 1.0, len(pts))
    seg = geo.distance(pts[:-1], pts[1:])
    return float(np.sum(seg ** 2 / np.diff(v)))


# --- energy excess under forced deviation -------------------------------------

@dataclass
class EnergyExcessReport:
    min_energy: float
    bound: float
    holds: bool
    base_distance: float
    endpoint_slack: float
    deviation: float
    constraints_ok: bool


def check_eta_zeta(K_star, delta, eta, zeta):
    """Quantitative admissibility of the deviation parameters."""
    ok = (delta < K_star
          and eta < min(delta / 24.0, delta * delta / (2560.0 * K_star))
          and zeta > 0
          and delta * delta / 128.0 - 4.0 * K_star * (5.0 * eta + 2.0 * K_star * zeta) > 0)
    return bool(ok)


def energy_excess_check(K_star, delta, eta, zeta):
    """Exact minimum discrete energy of paths forced off the geodesic.

    Paths of n = ``_N_SEGMENTS`` segments run from o toward y, d(o, y) =
    K_star, with energy n sum_i D_i^2.  Node j, for some j in {n/4, n/2,
    3n/4}, lies at least r = delta/4 from the geodesic node gamma_j, and the
    end node within sigma = 3 eta + 2 K_star zeta of y.  With s = j K_star / n
    and m = n - j, the least energy at node j is E_j = (K_star - sigma)_+^2
    if min(sigma, K_star) j / n >= r, else n [(s - r)^2 / j + (K_star - s + r
    - sigma)_+^2 / m], and ``min_energy`` = min_j E_j, whatever d.  Proof:

    1. Between fixed nodes, n sum D_i^2 is least on equally spaced geodesic
       nodes (Cauchy-Schwarz, as in ``varopt.chain_bound``).  So only the
       deviated node p and the end node q are free; q is best on [p, y] at
       distance sigma from y.
    2. The reduced energy a^2/j + (b - sigma)_+^2/m, a = d(o, p), b = d(p, y),
       is geodesically convex in p, and its free minimiser lies on [o, y] at
       distance min(sigma, K_star) j / n from gamma_j.  Outside the deviation
       ball it is the answer; else the minimum is on the sphere S(gamma_j, r).
    3. There, with c the cosine of the angle to the geodesic, a^2 and b^2 are
       concave in c (law of cosines; arccosh(u)^2 is concave), a^2/j + b^2/m
       is equal at c = +-1 as s/j = (K_star - s)/m, and b^2 - (b - sigma)_+^2
       grows with b, largest at c = -1.  So the node steps back: c = -1.

    ``holds`` when the minimum is at least K_star^2 + delta^2/128 -
    4 K_star (5 eta + 2 K_star zeta) - 1e-2; products, not powers, give inf
    for a huge K_star.  :func:`check_eta_zeta` is reported as
    ``constraints_ok``, not enforced.  K_star <= 0 and a negative eta or zeta
    raise :class:`ConstraintViolation`.
    """
    if not K_star > 0:
        raise ConstraintViolation(f"K must be positive (got K={K_star})")
    for key, val in (("eta", eta), ("zeta", zeta)):
        if not val >= 0:
            raise ConstraintViolation(f"{key} must be nonnegative (got {key}={val})")
    constraints_ok = check_eta_zeta(K_star, delta, eta, zeta)
    n = _N_SEGMENTS
    slack = 3.0 * eta + 2.0 * K_star * zeta
    dev = delta / 4.0
    ahead = max(K_star - slack, 0.0)
    energies = []
    for j in (n // 4, n // 2, 3 * n // 4):
        s, m = j * K_star / n, n - j
        rest = max(K_star - s + dev - slack, 0.0)
        energies.append(ahead * ahead if min(slack, K_star) * j / n >= dev
                        else n * ((s - dev) * (s - dev) / j + rest * rest / m))
    min_energy = min(energies)
    bound = (K_star * K_star + delta * delta / 128.0
             - 4.0 * K_star * (5.0 * eta + 2.0 * K_star * zeta))
    return EnergyExcessReport(min_energy, bound, min_energy >= bound - 1e-2,
                              K_star, slack, dev, constraints_ok)
